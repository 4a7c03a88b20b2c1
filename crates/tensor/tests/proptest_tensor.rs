//! Property-based tests for the tensor substrate.

use flux_tensor::{
    kmeans::KMeans,
    ops,
    pca::{scores_from_gram, Pca},
    simd::{self, SimdLevel},
    stats, Matrix, SeededRng,
};
use proptest::prelude::*;

/// Every SIMD dispatch level this host can execute (scalar always included).
fn supported_levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| simd::is_supported(l))
        .collect()
}

/// Strategy producing a small matrix with bounded finite values.
fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-100.0f32..100.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).unwrap())
    })
}

/// Strategy producing a compatible matmul pair `(m×k, k×n)`, including the
/// degenerate shapes (0 rows, 0 inner dimension, single columns) the blocked
/// kernel's remainder paths must handle.
fn matmul_pair_strategy() -> impl Strategy<Value = (Matrix, Matrix)> {
    // Entries are kept O(1) so the 1e-4 relative tolerance is meaningful:
    // with large entries, f32 accumulation of a cancelling sum legitimately
    // drifts past any fixed relative-to-output bound.
    (0usize..=21, 0usize..=21, 0usize..=21).prop_flat_map(|(m, k, n)| {
        (
            prop::collection::vec(-2.0f32..2.0, m * k),
            prop::collection::vec(-2.0f32..2.0, k * n),
        )
            .prop_map(move |(a, b)| {
                (
                    Matrix::from_vec(m, k, a).unwrap(),
                    Matrix::from_vec(k, n, b).unwrap(),
                )
            })
    })
}

/// Naive triple-loop reference matmul, accumulated in `f64`.
fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f64;
            for k in 0..a.cols() {
                acc += a.get(i, k) as f64 * b.get(k, j) as f64;
            }
            out.set(i, j, acc as f32);
        }
    }
    out
}

/// Asserts two matrices agree within a relative tolerance of `tol`.
fn assert_close(actual: &Matrix, expected: &Matrix, tol: f32) {
    assert_eq!(actual.shape(), expected.shape());
    for (x, y) in actual.as_slice().iter().zip(expected.as_slice()) {
        assert!(
            (x - y).abs() <= tol * y.abs().max(1.0),
            "kernel {x} vs reference {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_involution(m in matrix_strategy(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn add_commutes(r in 1usize..6, c in 1usize..6, seed in 0u64..1000) {
        let mut rng = SeededRng::new(seed);
        let a = Matrix::random_normal(r, c, 1.0, &mut rng);
        let b = Matrix::random_normal(r, c, 1.0, &mut rng);
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        for (x, y) in ab.as_slice().iter().zip(ba.as_slice()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_identity_left_and_right(m in matrix_strategy(6)) {
        let left = Matrix::identity(m.rows()).matmul(&m);
        let right = m.matmul(&Matrix::identity(m.cols()));
        for (x, y) in left.as_slice().iter().zip(m.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
        for (x, y) in right.as_slice().iter().zip(m.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(seed in 0u64..500) {
        let mut rng = SeededRng::new(seed);
        let a = Matrix::random_normal(4, 5, 1.0, &mut rng);
        let b = Matrix::random_normal(5, 3, 1.0, &mut rng);
        let c = Matrix::random_normal(5, 3, 1.0, &mut rng);
        let lhs = a.matmul(&b.add(&c).unwrap());
        let rhs = a.matmul(&b).add(&a.matmul(&c)).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn softmax_is_distribution(logits in prop::collection::vec(-50.0f32..50.0, 1..32)) {
        let p = ops::softmax_row(&logits);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn softmax_invariant_to_constant_shift(
        logits in prop::collection::vec(-10.0f32..10.0, 2..16),
        shift in -100.0f32..100.0,
    ) {
        let base = ops::softmax_row(&logits);
        let shifted_logits: Vec<f32> = logits.iter().map(|&x| x + shift).collect();
        let shifted = ops::softmax_row(&shifted_logits);
        for (a, b) in base.iter().zip(shifted.iter()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn cosine_similarity_bounded(
        a in prop::collection::vec(-10.0f32..10.0, 4),
        b in prop::collection::vec(-10.0f32..10.0, 4),
    ) {
        let s = stats::cosine_similarity(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&s));
    }

    #[test]
    fn cosine_similarity_scale_invariant(
        a in prop::collection::vec(0.1f32..10.0, 4),
        scale in 0.1f32..50.0,
    ) {
        let scaled: Vec<f32> = a.iter().map(|&x| x * scale).collect();
        let s = stats::cosine_similarity(&a, &scaled);
        prop_assert!((s - 1.0).abs() < 1e-4);
    }

    #[test]
    fn normalize_to_distribution_is_distribution(
        values in prop::collection::vec(0.0f32..100.0, 1..20),
    ) {
        let d = stats::normalize_to_distribution(&values);
        let sum: f32 = d.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn empirical_cdf_is_monotone(
        samples in prop::collection::vec(-10.0f32..10.0, 1..50),
    ) {
        let points: Vec<f32> = (-10..=10).map(|x| x as f32).collect();
        let cdf = stats::empirical_cdf(&samples, &points);
        for pair in cdf.windows(2) {
            prop_assert!(pair[0].1 <= pair[1].1);
        }
    }

    #[test]
    fn layer_norm_rows_have_unit_variance(seed in 0u64..500, rows in 1usize..5) {
        let mut rng = SeededRng::new(seed);
        let x = Matrix::random_normal(rows, 32, 3.0, &mut rng);
        let y = ops::layer_norm(&x, 1e-5);
        for r in 0..y.rows() {
            let row = y.row(r);
            let mean: f32 = row.iter().sum::<f32>() / row.len() as f32;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / row.len() as f32;
            prop_assert!(mean.abs() < 1e-3);
            prop_assert!((var - 1.0).abs() < 0.05);
        }
    }

    #[test]
    fn kmeans_assignments_in_range(seed in 0u64..200, k in 1usize..6) {
        let mut rng = SeededRng::new(seed);
        let data = Matrix::random_normal(20, 3, 1.0, &mut rng);
        let result = KMeans::new(k).with_euclidean().fit(&data, &mut rng).unwrap();
        let clusters = result.centroids.rows();
        prop_assert!(clusters <= k.max(1));
        prop_assert!(result.assignments.iter().all(|&a| a < clusters));
        prop_assert_eq!(result.assignments.len(), 20);
    }

    #[test]
    fn blocked_matmul_matches_naive_reference(pair in matmul_pair_strategy()) {
        // The cache-blocked, panel-packed kernel (all of its paths: 4-row
        // register tiles, row remainders, depth remainders, degenerate
        // shapes) agrees with a naive triple loop within 1e-4 relative.
        let (a, b) = pair;
        let reference = matmul_reference(&a, &b);
        assert_close(&a.try_matmul(&b).unwrap(), &reference, 1e-4);
    }

    #[test]
    fn blocked_matmul_handles_deep_inner_dimension(seed in 0u64..200) {
        // Depth > KC exercises the k-blocking path.
        let mut rng = SeededRng::new(seed);
        let a = Matrix::random_normal(5, 300, 0.3, &mut rng);
        let b = Matrix::random_normal(300, 3, 0.3, &mut rng);
        assert_close(&a.try_matmul(&b).unwrap(), &matmul_reference(&a, &b), 1e-4);
    }

    #[test]
    fn fused_transpose_kernels_match_explicit_transpose(pair in matmul_pair_strategy()) {
        let (a, b) = pair;
        let reference = matmul_reference(&a, &b);
        // (aᵀ)ᵀ·b via matmul_transa == a·b.
        assert_close(&a.transpose().matmul_transa(&b).unwrap(), &reference, 1e-4);
        // a·(bᵀ)ᵀ via matmul_transb == a·b.
        assert_close(&a.matmul_transb(&b.transpose()).unwrap(), &reference, 1e-4);
    }

    #[test]
    fn matmul_bias_matches_matmul_plus_broadcast(pair in matmul_pair_strategy()) {
        let (a, b) = pair;
        let bias: Vec<f32> = (0..b.cols()).map(|j| j as f32 - 1.5).collect();
        let fused = a.try_matmul_bias(&b, &bias).unwrap();
        let separate = a.try_matmul(&b).unwrap().add_row_broadcast(&bias).unwrap();
        assert_close(&fused, &separate, 1e-4);
    }

    #[test]
    fn vector_fast_paths_match_matmul(pair in matmul_pair_strategy()) {
        let (a, b) = pair;
        if a.rows() > 0 {
            // matvec == matmul with a column vector.
            let x: Vec<f32> = (0..a.cols()).map(|i| (i as f32).sin()).collect();
            let col = Matrix::from_vec(a.cols(), 1, x.clone()).unwrap();
            let product = a.matmul(&col);
            for (i, y) in a.matvec(&x).unwrap().iter().enumerate() {
                prop_assert!((y - product.get(i, 0)).abs() <= 1e-4 * product.get(i, 0).abs().max(1.0));
            }
        }
        // vecmat is documented bit-identical to a 1×k matmul.
        let x: Vec<f32> = (0..b.rows()).map(|i| (i as f32).cos()).collect();
        let row = Matrix::from_vec(1, b.rows(), x.clone()).unwrap();
        let product = row.matmul(&b);
        prop_assert_eq!(b.vecmat(&x).unwrap().as_slice(), product.as_slice());
    }

    #[test]
    fn simd_levels_agree_with_scalar_within_tolerance(pair in matmul_pair_strategy()) {
        // The pinned contract of the dispatch layer: the scalar kernel is the
        // reference; AVX2+FMA may contract but stays within 1e-5 relative. The
        // element-wise kernels are bitwise at every level.
        let (a, b) = pair;
        let scalar = simd::with_level(SimdLevel::Scalar, || a.try_matmul(&b).unwrap());
        let scalar_tb =
            simd::with_level(SimdLevel::Scalar, || a.matmul_transb(&b.transpose()).unwrap());
        let scalar_gelu = simd::with_level(SimdLevel::Scalar, || ops::gelu(&scalar));
        for level in supported_levels() {
            let out = simd::with_level(level, || a.try_matmul(&b).unwrap());
            assert_close(&out, &scalar, 1e-5);
            let tb = simd::with_level(level, || a.matmul_transb(&b.transpose()).unwrap());
            assert_close(&tb, &scalar_tb, 1e-5);
            // GELU (and the other element-wise kernels) never use FMA, so
            // they are bit-identical to the scalar reference at every level.
            let g = simd::with_level(level, || ops::gelu(&scalar));
            prop_assert_eq!(g.as_slice(), scalar_gelu.as_slice());
        }
    }

    #[test]
    fn each_simd_level_is_individually_deterministic(pair in matmul_pair_strategy()) {
        // For a fixed level, repeated runs (including across the thread-local
        // override round trip) must be bit-identical — the determinism half
        // of the kernel contract, the unit-level twin of the golden-trace
        // `FLUX_SIMD=0/1` CI legs.
        let (a, b) = pair;
        for level in supported_levels() {
            let first = simd::with_level(level, || {
                let m = a.try_matmul(&b).unwrap();
                let g = ops::gelu(&m);
                (m, g)
            });
            let again = simd::with_level(level, || {
                let m = a.try_matmul(&b).unwrap();
                let g = ops::gelu(&m);
                (m, g)
            });
            prop_assert_eq!(first.0.as_slice(), again.0.as_slice());
            prop_assert_eq!(first.1.as_slice(), again.1.as_slice());
        }
    }

    #[test]
    fn cross_entropy_loss_nonnegative(seed in 0u64..500) {
        let mut rng = SeededRng::new(seed);
        let logits = Matrix::random_normal(4, 6, 2.0, &mut rng);
        let targets: Vec<usize> = (0..4).map(|_| rng.below(6)).collect();
        let (loss, grad) = ops::cross_entropy(&logits, &targets);
        prop_assert!(loss >= 0.0);
        prop_assert_eq!(grad.shape(), logits.shape());
        // Gradient rows sum to ~0 (softmax minus one-hot).
        for r in 0..grad.rows() {
            let s: f32 = grad.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-4);
        }
    }
}

/// Regression pin for the consolidated tail handling: every tiny/odd shape
/// `m, k, n ∈ 1..9` exercises some mix of the 4-row register tile, the row
/// remainder, and sub-width column tails, at every dispatch level. Before
/// the kernels were unified behind the dispatch table, `gemm_row` and
/// `gemm_accumulate` each carried their own copy of the 4-way-unroll tail
/// logic; this sweep would have caught a divergence between them.
#[test]
fn tiny_odd_shapes_match_f64_reference_at_every_level() {
    for level in supported_levels() {
        simd::with_level(level, || {
            for m in 1..9usize {
                for k in 1..9usize {
                    for n in 1..9usize {
                        let a = Matrix::from_vec(
                            m,
                            k,
                            (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect(),
                        )
                        .unwrap();
                        let b = Matrix::from_vec(
                            k,
                            n,
                            (0..k * n).map(|i| (i as f32 * 0.53).cos()).collect(),
                        )
                        .unwrap();
                        let reference = matmul_reference(&a, &b);
                        assert_close(&a.try_matmul(&b).unwrap(), &reference, 1e-5);
                        assert_close(&a.matmul_transb(&b.transpose()).unwrap(), &reference, 1e-5);
                        assert_close(&a.transpose().matmul_transa(&b).unwrap(), &reference, 1e-5);
                        // The vecmat fast path stays bit-identical to a 1×k
                        // matmul at every level (both are the dispatched
                        // tile kernel at height one).
                        let x: Vec<f32> = (0..k).map(|i| (i as f32 * 0.71).sin()).collect();
                        let row = Matrix::from_vec(1, k, x.clone()).unwrap();
                        assert_eq!(
                            b.vecmat(&x).unwrap().as_slice(),
                            row.matmul(&b).as_slice(),
                            "vecmat diverged at {level:?} k={k} n={n}"
                        );
                    }
                }
            }
        });
    }
}

/// One output element the way a level's GEMM contract spells it, starting
/// from the value already in `out`: the scalar level groups four depth terms
/// (`t = a₀b₀ + a₁b₁ + a₂b₂ + a₃b₃; acc += t`, left-associated, no FMA) and
/// takes the `kc mod 4` tail one term at a time; AVX2 is one fused
/// multiply-add per depth step, in depth order.
fn reference_element(level: SimdLevel, init: f32, a: &[f32], b: &[f32]) -> f32 {
    let mut acc = init;
    match level {
        SimdLevel::Scalar => {
            let mut groups = a.chunks_exact(4).zip(b.chunks_exact(4));
            for (a, b) in &mut groups {
                acc += a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3];
            }
            let tail = a.len() - a.len() % 4;
            for (a, b) in a[tail..].iter().zip(&b[tail..]) {
                acc += a * b;
            }
        }
        SimdLevel::Avx2 => {
            for (&a, &b) in a.iter().zip(b) {
                acc = a.mul_add(b, acc);
            }
        }
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The in-place tile contract, at both levels: whatever the height of
    /// the tile (`1..=mr`, so full tiles, partial tiles and the single row
    /// `vecmat` uses), wherever `A` lies (row-major, transposed, or aliasing
    /// the `B` slab the way the Gram panel does), whatever slack the leading
    /// dimensions carry and whichever column path `n` takes (16-wide,
    /// 8-wide, masked tail), every element in the `rows × n` window is the
    /// level's pinned accumulation chain — hence equal, bit for bit, to the
    /// same row computed alone — and nothing outside the window is written.
    #[test]
    fn tile_reads_operands_in_place_and_writes_only_its_window(
        height in 1usize..=6,
        kc in 1usize..=45,
        n in 1usize..=40,
        layout in 0usize..3,
        slack in prop::collection::vec(0usize..4, 3),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SeededRng::new(seed);
        for level in supported_levels() {
            let kern = simd::kernels_for(level);
            let rows = height.min(kern.mr);
            let ldc = n + slack[0];
            let ldb = n.max(rows) + slack[1];
            let b: Vec<f32> = (0..kc * ldb).map(|_| rng.normal()).collect();
            // (operand, offset, row stride, depth stride)
            let own_a: Vec<f32>;
            let (a, a_off, rs, ds): (&[f32], usize, usize, usize) = match layout {
                0 => {
                    let lda = kc + slack[2];
                    own_a = (0..rows * lda).map(|_| rng.normal()).collect();
                    (&own_a, 0, lda, 1)
                }
                1 => {
                    let lda = rows + slack[2];
                    own_a = (0..kc * lda).map(|_| rng.normal()).collect();
                    (&own_a, 0, 1, lda)
                }
                _ => (&b, rng.below(ldb - rows + 1), 1, ldb),
            };
            // One row more than the tile may touch, NaN outside the window.
            let mut out = vec![f32::NAN; (kern.mr + 1) * ldc];
            let init: Vec<f32> = (0..rows * n).map(|_| rng.normal()).collect();
            for r in 0..rows {
                out[r * ldc..][..n].copy_from_slice(&init[r * n..][..n]);
            }
            (kern.tile)(rows, &a[a_off..], rs, ds, kc, &b, ldb, n, &mut out, ldc);
            for (at, &got) in out.iter().enumerate() {
                let (r, j) = (at / ldc, at % ldc);
                if r >= rows || j >= n {
                    prop_assert!(got.is_nan(), "{level:?}: wrote ({r},{j}) outside {rows}x{n}");
                    continue;
                }
                let a_row: Vec<f32> = (0..kc).map(|p| a[a_off + r * rs + p * ds]).collect();
                let b_col: Vec<f32> = (0..kc).map(|p| b[p * ldb + j]).collect();
                let want = reference_element(level, init[r * n + j], &a_row, &b_col);
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{:?} ({},{}) of {}x{}x{} layout {}: {} vs {}",
                    level, r, j, rows, kc, n, layout, got, want
                );
            }
        }
    }

    /// `matmul_transa` reads its operand column-wise where it lies; the
    /// result is the explicit transpose's product, bit for bit, across depth
    /// blocks (`k > 128`), partial tiles and masked column tails.
    #[test]
    fn matmul_transa_is_bitwise_the_explicit_transpose(
        k in 1usize..=140,
        m in 1usize..=20,
        n in 1usize..=40,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = Matrix::random_normal(k, m, 1.0, &mut rng);
        let b = Matrix::random_normal(k, n, 1.0, &mut rng);
        for level in supported_levels() {
            simd::with_level(level, || {
                let fused = a.matmul_transa(&b).unwrap();
                let reference = a.transpose().matmul(&b);
                let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fused), bits(&reference), "{level:?} ({k},{m},{n})");
            });
        }
    }
}

/// Determinism pin for the arena-backed scratch: the same matmul computed
/// on a cold thread (fresh arena) and on a warm thread whose arena was
/// fragmented, coalesced and round-reset by unrelated work must be
/// bit-identical — scratch state can never leak into results. This is the
/// unit-level twin of the golden-trace suites, which pin the same property
/// end to end across `FLUX_THREADS` 1/4/8.
#[test]
fn warm_arena_matmul_is_bit_identical_to_cold() {
    fn product() -> Vec<f32> {
        let mut rng = SeededRng::new(99);
        let a = Matrix::random_normal(17, 230, 0.4, &mut rng);
        let b = Matrix::random_normal(230, 13, 0.4, &mut rng);
        a.try_matmul(&b).unwrap().as_slice().to_vec()
    }
    let cold = std::thread::spawn(product).join().unwrap();
    let warm = std::thread::spawn(|| {
        // Dirty and fragment the arena.
        for i in 1..6 {
            flux_tensor::scratch::with(i * 10_000, |s| s.fill(7.0));
        }
        let first = product();
        flux_tensor::scratch::reset_round();
        let again = product();
        assert_eq!(
            first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            again.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "reset_round changed matmul results"
        );
        first
    })
    .join()
    .unwrap();
    assert_eq!(
        cold.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        warm.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "arena warmth changed matmul results"
    );
}

// ---------------------------------------------------------------------------
// PCA against an f64 reference eigen-solve.
// ---------------------------------------------------------------------------

/// Eigen-decomposition of a symmetric `n×n` matrix by cyclic Jacobi
/// rotations in `f64`: `(eigenvalues, eigenvectors as rows)`, largest
/// eigenvalue first. The textbook method — slow, unconditionally accurate.
fn jacobi_eigen(mut a: Vec<f64>, n: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    let mut v = vec![0.0f64; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    for _sweep in 0..64 {
        let off: f64 = (0..n)
            .flat_map(|i| (0..i).map(move |j| (i, j)))
            .map(|(i, j)| a[i * n + j] * a[i * n + j])
            .sum();
        if off < 1e-26 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                if a[p * n + q].abs() < 1e-300 {
                    continue;
                }
                let theta = (a[q * n + q] - a[p * n + p]) / (2.0 * a[p * n + q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let (akp, akq) = (a[k * n + p], a[k * n + q]);
                    a[k * n + p] = c * akp - s * akq;
                    a[k * n + q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let (apk, aqk) = (a[p * n + k], a[q * n + k]);
                    a[p * n + k] = c * apk - s * aqk;
                    a[q * n + k] = s * apk + c * aqk;
                }
                for k in 0..n {
                    let (vkp, vkq) = (v[k * n + p], v[k * n + q]);
                    v[k * n + p] = c * vkp - s * vkq;
                    v[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| a[y * n + y].total_cmp(&a[x * n + x]));
    let values = order.iter().map(|&c| a[c * n + c]).collect();
    let vectors = order
        .iter()
        .map(|&c| (0..n).map(|k| v[k * n + c]).collect())
        .collect();
    (values, vectors)
}

/// The reference PCA scores of `data`'s rows in `f64`: centre, form the Gram
/// matrix, Jacobi, `√λ·u` for the leading `k` components (one `Vec` per
/// component).
fn reference_scores(data: &Matrix, k: usize) -> Vec<Vec<f64>> {
    let (n, d) = data.shape();
    let mean: Vec<f64> = (0..d)
        .map(|c| (0..n).map(|r| f64::from(data.get(r, c))).sum::<f64>() / n as f64)
        .collect();
    let centred: Vec<Vec<f64>> = (0..n)
        .map(|r| {
            (0..d)
                .map(|c| f64::from(data.get(r, c)) - mean[c])
                .collect()
        })
        .collect();
    let mut gram = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            gram[i * n + j] = centred[i].iter().zip(&centred[j]).map(|(x, y)| x * y).sum();
        }
    }
    let (values, vectors) = jacobi_eigen(gram, n);
    (0..k)
        .map(|c| {
            let sigma = values[c].max(0.0).sqrt();
            vectors[c].iter().map(|u| sigma * u).collect()
        })
        .collect()
}

/// Wide data (`n < d`) with a known, well-separated spectrum: `rank`
/// orthogonal directions with singular values `16, 8, 4, …` (eigenvalue
/// ratio 4:1, far inside the power iteration's budget), every sample
/// shifted by `offset` in every feature.
fn wide_data(n: usize, d: usize, rank: usize, offset: f32, seed: u64) -> Matrix {
    let mut rng = SeededRng::new(seed);
    // Orthonormal sample-side factors, each orthogonal to the all-ones
    // vector so that centring leaves the spectrum as constructed.
    let orthonormal = |len: usize, count: usize, centre: bool, rng: &mut SeededRng| {
        let mut basis: Vec<Vec<f64>> = Vec::new();
        while basis.len() < count {
            let mut v: Vec<f64> = (0..len).map(|_| f64::from(rng.normal())).collect();
            if centre {
                let m = v.iter().sum::<f64>() / len as f64;
                v.iter_mut().for_each(|x| *x -= m);
            }
            for b in &basis {
                let along: f64 = v.iter().zip(b).map(|(x, y)| x * y).sum();
                v.iter_mut().zip(b).for_each(|(x, y)| *x -= along * y);
            }
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 1e-6 {
                v.iter_mut().for_each(|x| *x /= norm);
                basis.push(v);
            }
        }
        basis
    };
    let left = orthonormal(n, rank, true, &mut rng);
    let right = orthonormal(d, rank, false, &mut rng);
    let mut data = Matrix::filled(n, d, offset);
    for (c, (a, b)) in left.iter().zip(&right).enumerate() {
        let sigma = 16.0 / f64::from(1u32 << c);
        for (i, ai) in a.iter().enumerate() {
            for (x, bj) in data.row_mut(i).iter_mut().zip(b) {
                *x += (sigma * ai * bj) as f32;
            }
        }
    }
    data
}

/// Largest entry-wise difference between two score columns, up to the sign
/// every principal component is free to take.
fn column_gap(ours: &Matrix, c: usize, reference: &[f64]) -> f64 {
    let gap = |sign: f64| {
        reference
            .iter()
            .enumerate()
            .map(|(i, r)| (f64::from(ours.get(i, c)) - sign * r).abs())
            .fold(0.0f64, f64::max)
    };
    gap(1.0).min(gap(-1.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pca_scores_match_f64_reference_eigen_solve(
        n in 5usize..18,
        extra in 1usize..40,
        k in 1usize..5,
        offset_exp in 0u32..4,
        seed in 0u64..1000,
    ) {
        // Offsets 0, 10, 100, 1000 against a spread of 1–16: the last is
        // the cancellation case, where every inner product of raw rows is
        // ~1e6·d and the structure lives five digits down.
        let offset = if offset_exp == 0 { 0.0 } else { 10f32.powi(offset_exp as i32) };
        let (d, rank) = (n + extra, 4.min(n - 1));
        let k = k.min(rank);
        let data = wide_data(n, d, rank, offset, seed);
        let reference = reference_scores(&data, k);
        // f32 centring keeps ~1e-7 of the offset per feature.
        let tol = 2e-3 + 2e-5 * f64::from(offset) * (d as f64).sqrt();

        let scores = Pca::fit_transform(&data, k, &mut SeededRng::new(seed ^ 0xabc)).unwrap();
        prop_assert_eq!(scores.shape(), (n, k));
        for (c, reference_column) in reference.iter().enumerate() {
            let gap = column_gap(&scores, c, reference_column);
            prop_assert!(gap <= tol, "component {c}: scores off by {gap} (tol {tol})");
        }

        let pca = Pca::fit(&data, k, &mut SeededRng::new(seed ^ 0xabc)).unwrap();
        // Same solve, same start vectors: projecting through the recovered
        // axes reproduces the scores read off the eigenvectors.
        let projected = pca.transform(&data).unwrap();
        for (x, y) in projected.as_slice().iter().zip(scores.as_slice()) {
            prop_assert!(f64::from((x - y).abs()) <= tol, "transform {x} vs scores {y}");
        }
        for a in 0..k {
            let norm = stats::l2_norm(pca.components.row(a));
            prop_assert!((norm - 1.0).abs() < 2e-3, "component {a} has norm {norm}");
            for b in 0..a {
                let dot = stats::dot(pca.components.row(a), pca.components.row(b));
                prop_assert!(dot.abs() < 2e-3, "components {a},{b} overlap by {dot}");
            }
        }
        for pair in pca.explained_variance.windows(2) {
            prop_assert!(pair[0] >= pair[1], "explained variance rises: {pair:?}");
        }
        for (c, &variance) in pca.explained_variance.iter().enumerate() {
            let expected = (256.0 / f64::from(1u32 << (2 * c))) / n as f64;
            prop_assert!(
                (f64::from(variance) - expected).abs() <= 1e-2 * expected + tol,
                "component {c}: variance {variance} vs constructed {expected}"
            );
        }
    }

    #[test]
    fn pca_invariants_hold_on_unstructured_data(
        n in 2usize..14,
        d in 2usize..30,
        k in 1usize..5,
        seed in 0u64..1000,
    ) {
        // Gaussian noise has no spectral gap to converge on, tall and wide
        // alike: the vectors are still orthonormal, the variances ordered
        // and bounded by the total, and constant rows project to zero.
        let k = k.min(d);
        let data = Matrix::random_normal(n, d, 1.0, &mut SeededRng::new(seed));
        let pca = Pca::fit(&data, k, &mut SeededRng::new(seed + 1)).unwrap();
        prop_assert_eq!(pca.components.shape(), (k, d));
        for pair in pca.explained_variance.windows(2) {
            prop_assert!(pair[0] >= pair[1]);
        }
        let total: f32 = (0..d).map(|c| stats::variance(&data.col(c))).sum();
        let explained: f32 = pca.explained_variance.iter().sum();
        prop_assert!(explained <= total * 1.001 + 1e-4, "{explained} of {total}");
        let scores = Pca::fit_transform(&data, k, &mut SeededRng::new(seed + 1)).unwrap();
        prop_assert!(scores.as_slice().iter().all(|v| v.is_finite()));

        let constant = Matrix::filled(n, d, 3.25);
        let flat = Pca::fit_transform(&constant, k, &mut SeededRng::new(seed)).unwrap();
        prop_assert!(flat.as_slice().iter().all(|v| v.abs() < 1e-4));
        let flat = Pca::fit(&constant, k, &mut SeededRng::new(seed)).unwrap();
        prop_assert!(flat.explained_variance.iter().all(|&v| v < 1e-6));
    }

    #[test]
    fn gram_space_centring_survives_a_common_offset(
        n in 5usize..16,
        extra in 1usize..30,
        k in 1usize..4,
        seed in 0u64..1000,
    ) {
        // `scores_from_gram` sees only raw inner products and must subtract
        // the shared offset in Gram space. With exact (f64) inner products
        // of rows offset by 1000 — entries near 1e6·d, structure five digits
        // below — the double-centring itself must not lose the structure.
        let (d, rank) = (n + extra, 4.min(n - 1));
        let k = k.min(rank);
        let data = wide_data(n, d, rank, 1000.0, seed);
        let row = |r: usize| data.row(r).iter().map(|&x| f64::from(x));
        let mut gram = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                gram[i * n + j] = row(i).zip(row(j)).map(|(x, y)| x * y).sum();
            }
        }
        let scores = scores_from_gram(gram, k, &mut SeededRng::new(seed)).unwrap();
        let reference = reference_scores(&data, k);
        for (c, reference_column) in reference.iter().enumerate() {
            let gap = column_gap(&scores, c, reference_column);
            prop_assert!(gap <= 2e-3, "component {c}: scores off by {gap}");
        }
    }
}

#[test]
fn scores_from_gram_rejects_malformed_input() {
    let mut rng = SeededRng::new(1);
    assert!(scores_from_gram(Vec::new(), 1, &mut rng).is_err());
    assert!(scores_from_gram(vec![1.0; 6], 1, &mut rng).is_err());
    assert!(scores_from_gram(vec![1.0; 9], 0, &mut rng).is_err());
    // More components than samples: the surplus columns are zero.
    let scores = scores_from_gram(vec![2.0, 0.0, 0.0, 2.0], 3, &mut rng).unwrap();
    assert_eq!(scores.shape(), (2, 3));
    assert!((0..2).all(|r| scores.get(r, 2) == 0.0));
}

// ---------------------------------------------------------------------------
// Label-indexed constrained K-Means against the full scan it replaced.
// ---------------------------------------------------------------------------

/// `KMeans::fit_constrained` as first written: every seeding step filters
/// all points, every assignment scans all centroids and skips foreign
/// labels. Returns `(assignments, centroids, iterations)`.
fn constrained_by_full_scan(
    km: &KMeans,
    data: &Matrix,
    point_labels: &[usize],
    centroid_labels: &[usize],
    rng: &mut SeededRng,
) -> (Vec<usize>, Matrix, usize) {
    let (n, k) = (data.rows(), centroid_labels.len());
    let mut centroids = Matrix::zeros(k, data.cols());
    for (c, &label) in centroid_labels.iter().enumerate() {
        let candidates: Vec<usize> = (0..n).filter(|&p| point_labels[p] == label).collect();
        let pick = candidates[rng.below(candidates.len())];
        centroids.row_mut(c).copy_from_slice(data.row(pick));
    }
    let nearest = |p: usize, centroids: &Matrix| {
        let mut best = (0usize, f32::INFINITY);
        for (c, &label) in centroid_labels.iter().enumerate() {
            if label != point_labels[p] {
                continue;
            }
            let d = km.distance.eval(data.row(p), centroids.row(c));
            if d < best.1 {
                best = (c, d);
            }
        }
        best.0
    };
    let mut assignments = vec![0usize; n];
    let mut iterations = 0;
    for iter in 0..km.max_iterations {
        iterations = iter + 1;
        for (p, a) in assignments.iter_mut().enumerate() {
            *a = nearest(p, &centroids);
        }
        let mut sums = Matrix::zeros(k, data.cols());
        let mut counts = vec![0usize; k];
        for (p, &c) in assignments.iter().enumerate() {
            counts[c] += 1;
            for (s, &x) in sums.row_mut(c).iter_mut().zip(data.row(p)) {
                *s += x;
            }
        }
        let mut updated = Matrix::zeros(k, data.cols());
        for (c, &count) in counts.iter().enumerate() {
            if count == 0 {
                updated.row_mut(c).copy_from_slice(centroids.row(c));
            } else {
                for (out, &s) in updated.row_mut(c).iter_mut().zip(sums.row(c)) {
                    *out = s / count as f32;
                }
            }
        }
        let movement = centroids
            .as_slice()
            .iter()
            .zip(updated.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        centroids = updated;
        if movement < km.tolerance {
            break;
        }
    }
    for (p, a) in assignments.iter_mut().enumerate() {
        *a = nearest(p, &centroids);
    }
    (assignments, centroids, iterations)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn constrained_kmeans_is_bit_identical_to_the_full_scan(
        n in 1usize..40,
        dims in 1usize..5,
        labels in 1usize..5,
        euclidean in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let mut rng = SeededRng::new(seed);
        // Coarse coordinates make exact distance ties (and so the
        // first-visited-wins rule) common instead of vanishingly rare.
        let data = Matrix::from_vec(
            n,
            dims,
            (0..n * dims).map(|_| rng.below(4) as f32 - 1.0).collect(),
        )
        .unwrap();
        let point_labels: Vec<usize> = (0..n).map(|_| 3 * rng.below(labels)).collect();
        // One to three centroids for every label that occurs, in shuffled
        // order, so a label's centroids are scattered over the index range.
        let mut centroid_labels: Vec<usize> = Vec::new();
        for label in (0..labels).map(|l| 3 * l) {
            if point_labels.contains(&label) {
                centroid_labels.extend(std::iter::repeat_n(label, 1 + rng.below(3)));
            }
        }
        rng.shuffle(&mut centroid_labels);

        let mut km = KMeans::new(centroid_labels.len()).with_max_iterations(1 + rng.below(12));
        if euclidean == 1 {
            km = km.with_euclidean();
        }
        let (mut indexed_rng, mut scan_rng) = (SeededRng::new(seed ^ 7), SeededRng::new(seed ^ 7));
        let indexed = km
            .fit_constrained(&data, &point_labels, &centroid_labels, &mut indexed_rng)
            .unwrap();
        let (assignments, centroids, iterations) =
            constrained_by_full_scan(&km, &data, &point_labels, &centroid_labels, &mut scan_rng);
        prop_assert_eq!(&indexed.assignments, &assignments);
        prop_assert_eq!(indexed.iterations, iterations);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&indexed.centroids), bits(&centroids));
        // Same number of draws taken from the stream.
        prop_assert_eq!(indexed_rng.below(1 << 30), scan_rng.below(1 << 30));
    }
}
