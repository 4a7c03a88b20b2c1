//! Pins the output **bits** of every GEMM entry point, per SIMD level.
//!
//! The literals below were recorded at the commit *before* the microkernels
//! changed from "packed depth-major `A` panel" to "`A` in place through a
//! row stride and a depth stride" (PR 20). How `A` reaches the kernel —
//! packed, transposed into scratch, or read where it lies — never enters the
//! arithmetic: each level's per-element accumulation order is its contract.
//! So a kernel or driver rewrite that keeps the contract keeps these
//! literals, in debug and in release, and one that silently changes an
//! association fails here rather than in a golden trace three crates up.
//!
//! The shape set crosses every tile-height remainder of both levels
//! (`m mod 6 ∈ 0..=5`, which also covers `m mod 4`), the 16-wide, 8-wide and
//! sub-vector column paths (`n mod 16 ∈ {0, 4, 8, 13}`) and the depth-block
//! edges (`k ∈ {1, 36, 128, 129, 300}`; `KC` is 128).

use flux_tensor::simd::{self, SimdLevel};
use flux_tensor::{gram, Matrix, SeededRng};

const MS: [usize; 6] = [6, 7, 8, 9, 16, 35];
const NS: [usize; 4] = [4, 16, 24, 29];
const KS: [usize; 5] = [1, 36, 128, 129, 300];

/// Per-sample block lengths of the block-diagonal (attention) entry points:
/// empty, single-row, sub-vector, and every column path of the AVX2 tile.
const BLOCK_LENS: [usize; 10] = [1, 6, 13, 0, 20, 24, 7, 16, 29, 35];

/// `(entry point, scalar literal, AVX2 literal)`, recorded at the parent.
const PINS: [(&str, u64, u64); 9] = [
    ("matmul", 0x000d_5c3c_9472_3377, 0x50ad_cccc_5419_53f7),
    (
        "try_matmul_bias",
        0x1b4a_4119_5007_ecea,
        0x4d3d_f087_4889_7697,
    ),
    (
        "matmul_transa",
        0xb962_52d1_16e7_491d,
        0x3310_6206_dd4e_f838,
    ),
    (
        "matmul_transb",
        0x17fd_535a_ec59_99b0,
        0xac0e_2252_0ac6_031b,
    ),
    ("vecmat", 0x1e5a_a3f3_5ba3_b6c5, 0x2ea7_cf4d_06f8_596f),
    (
        "block_diag_matmul_transb",
        0x48c2_7cab_6ea6_3868,
        0x55b5_6f1a_9362_0c98,
    ),
    (
        "block_diag_matmul",
        0x342e_e879_2885_9d34,
        0x22ac_c57e_fee6_a07f,
    ),
    (
        "block_diag_matmul_transa",
        0x6ee0_95eb_12f6_b942,
        0x8883_3407_ab87_5386,
    ),
    (
        "gram::accumulate_panel",
        0x5225_9b61_dc69_3858,
        0x1a73_5898_94ab_075d,
    ),
];

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

fn normal(rows: usize, cols: usize, rng: &mut SeededRng) -> Matrix {
    Matrix::random_normal(rows, cols, 1.0, rng)
}

/// Folds every entry point over the fixed shape set at the active level.
fn fold_all() -> [u64; 9] {
    let mut folds: [Fold; 9] = std::array::from_fn(|_| Fold::new());
    let mut rng = SeededRng::new(0x20_2610);
    for &m in &MS {
        for &k in &KS {
            for &n in &NS {
                let a = normal(m, k, &mut rng);
                let b = normal(k, n, &mut rng);
                let bias: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
                folds[0].values(a.matmul(&b).as_slice());
                folds[1].values(a.try_matmul_bias(&b, &bias).unwrap().as_slice());
                let at = normal(k, m, &mut rng);
                folds[2].values(at.matmul_transa(&b).unwrap().as_slice());
                let bt = normal(n, k, &mut rng);
                folds[3].values(a.matmul_transb(&bt).unwrap().as_slice());
                folds[4].values(&b.vecmat(a.row(0)).unwrap());
            }
        }
    }
    // Block-diagonal entry points over ragged per-sample blocks.
    let mut bounds = Vec::new();
    let mut total = 0;
    for &len in &BLOCK_LENS {
        bounds.push((total, total + len));
        total += len;
    }
    let pad = *BLOCK_LENS.iter().max().unwrap();
    for &d in &NS {
        let q = normal(total, d, &mut rng);
        let kmat = normal(total, d, &mut rng);
        let scores = q.block_diag_matmul_transb(&kmat, &bounds, pad);
        folds[5].values(scores.as_slice());
        folds[6].values(scores.block_diag_matmul(&kmat, &bounds).as_slice());
        folds[7].values(scores.block_diag_matmul_transa(&kmat, &bounds).as_slice());
    }
    // Gram panels: lower triangle only (the panel leaves the entries right
    // of the diagonal unspecified), from the first row and from mid-matrix.
    for &r in &MS {
        for &k in &KS {
            let x = normal(r, k, &mut rng);
            let rows: Vec<&[f32]> = (0..r).map(|i| x.row(i)).collect();
            for first in [0, r / 2] {
                let mut panel = vec![0.0f32; (r - first) * r];
                gram::accumulate_panel(&rows, first, &mut panel);
                for i in first..r {
                    folds[8].values(&panel[(i - first) * r..][..=i]);
                }
            }
        }
    }
    folds.map(|f| f.0)
}

#[test]
fn gemm_entry_points_keep_the_parent_commits_bits() {
    let mut wrong = Vec::new();
    for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
        if !simd::is_supported(level) {
            continue;
        }
        let got = simd::with_level(level, fold_all);
        for (&(name, scalar, avx2), got) in PINS.iter().zip(got) {
            let want = match level {
                SimdLevel::Scalar => scalar,
                SimdLevel::Avx2 => avx2,
            };
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
