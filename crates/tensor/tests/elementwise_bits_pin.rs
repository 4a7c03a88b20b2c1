//! Pins the output **bits** of the five element-wise kernels — AXPY, the
//! SPSA perturbation, GELU forward, GELU backward and the cached-output
//! GELU backward — to one literal each, at every level.
//!
//! These kernels are bitwise level-independent by contract, so there is one
//! literal per kernel, not one per level: the scalar table and the AVX2
//! level's table must both reproduce it. (On an `avx512f` host the AVX2
//! level's table is the 512-bit one, which takes its element-wise entries
//! from the 256-bit table unchanged, so the two run the same functions.)
//! The literals were recorded before the AVX2 level's hand-written
//! element-wise bodies were replaced by the scalar loops compiled for AVX2;
//! a change that keeps the arithmetic keeps them, in debug and in release.
//!
//! Every length in `0..=67` plus 4099 is run, so every `n mod 8` and
//! `n mod 16` tail follows every body length. Each length runs three input
//! sets: all random, the special values below rotated through the first
//! operand, and rotated through the second. The values are compared by
//! `to_bits`, so NaN lanes count. Each lane meets at most one NaN payload
//! (the other operands are finite, and `y` is the scalar GELU of `x`), so
//! the bits do not hinge on which operand x86 propagates when two NaNs meet.

use flux_tensor::simd::{self, Kernels, SimdLevel};
use flux_tensor::SeededRng;

/// `(kernel, literal)`, recorded at the parent.
const PINS: [(&str, u64); 5] = [
    ("axpy", 0x4148_9dd6_2aa9_6210),
    ("perturb", 0x6b5b_f3a3_27b8_6f94),
    ("gelu", 0x5377_297e_3e8e_9cc5),
    ("gelu_grad", 0x3eb1_3734_09f4_c9bf),
    ("gelu_grad_cached", 0xceec_7515_537b_b358),
];

/// Every special input, each sign: zero, the smallest subnormal, infinity,
/// NaN, the `fast_tanh` saturation threshold 4.97 and its f32 neighbours,
/// the cached-gradient cutoff 1e-3 and its neighbours, and a huge value.
fn specials() -> Vec<f32> {
    let mut values = vec![f32::NAN];
    for edge in [4.97f32, 1e-3] {
        values.extend([edge.next_down(), edge, edge.next_up()]);
    }
    values.extend([0.0, f32::from_bits(1), f32::INFINITY, 1e30]);
    let negated: Vec<f32> = values[1..].iter().map(|v| -v).collect();
    values.extend(negated);
    values
}

/// FNV-1a over the little-endian bytes of each value's bit pattern.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn values(&mut self, values: &[f32]) {
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// Folds every kernel of `kern` over every length and input set.
fn fold_all(kern: &Kernels) -> [u64; 5] {
    let mut folds: [Fold; 5] = std::array::from_fn(|_| Fold::new());
    let specials = specials();
    let mut rng = SeededRng::new(0x37_e1e3);
    for n in (0..=67).chain([4099]) {
        // Wide enough that GELU's tanh argument reaches the saturation
        // branch on its own.
        let mut random = || -> Vec<f32> { (0..n).map(|_| rng.normal_with(0.0, 3.0)).collect() };
        let rotated: Vec<f32> = (0..n).map(|i| specials[(i + n) % specials.len()]).collect();
        let sets = [
            (random(), random()),
            (rotated.clone(), random()),
            (random(), rotated),
        ];
        for (first, second) in sets {
            let mut out = first.clone();
            (kern.axpy)(&mut out, &second, 0.37);
            folds[0].values(&out);
            (kern.perturb)(&mut out, &first, &second, -1.25);
            folds[1].values(&out);
            out.copy_from_slice(&first);
            (kern.gelu)(&mut out);
            folds[2].values(&out);
            (kern.gelu_grad)(&first, &second, &mut out);
            folds[3].values(&out);
            // `y` is what the backward pass caches: the forward output of
            // `x`, computed by the pinned scalar reference.
            let mut y = first.clone();
            (simd::kernels_for(SimdLevel::Scalar).gelu)(&mut y);
            (kern.gelu_grad_cached)(&first, &y, &second, &mut out);
            folds[4].values(&out);
        }
    }
    folds.map(|f| f.0)
}

#[test]
fn elementwise_kernels_keep_the_parent_commits_bits_at_every_level() {
    let mut wrong = Vec::new();
    for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
        if !simd::is_supported(level) {
            println!("{} kernels unsupported on this host", level.label());
            continue;
        }
        let got = fold_all(simd::kernels_for(level));
        for (&(name, want), got) in PINS.iter().zip(got) {
            if got != want {
                wrong.push(format!(
                    "{} {name}: {got:#018x}, pinned {want:#018x}",
                    level.label()
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "output bits moved:\n{}", wrong.join("\n"));
}
