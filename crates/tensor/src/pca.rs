//! Principal component analysis, solved on the small side of the data.
//!
//! Flux reduces the dimensionality of flattened expert parameters before
//! clustering (§5.2 of the paper). Expert parameter vectors are long
//! (`d_model * d_ff * 2` and more) while there are only a few hundred
//! experts, so the `n×d` data matrix is extremely wide. Everything PCA
//! needs from it is contained in the `n×n` Gram matrix of the centred
//! samples, `G = X_c·X_cᵀ`: if `G·u = λ·u` with `|u| = 1`, then
//!
//! * the projections of the samples onto the principal axis (the *scores*)
//!   are `√λ · u` — no pass over the `d` features at all,
//! * the principal axis itself is `X_cᵀ·u / √λ`, one GEMM for all retained
//!   components, paid only by [`Pca::fit`], and
//! * the explained variance is `λ / n`.
//!
//! So the only `O(n²·d)` work is forming `G` (one symmetric GEMM through
//! [`crate::gram`]); the eigen-solve runs in `f64` on an `n×n` matrix with
//! iteration vectors of length `n`. When the data is tall instead
//! (`n >= d`), the same solver runs on the `d×d` scatter matrix
//! `X_cᵀ·X_c`, whose eigenvectors are the principal axes directly. There is
//! one solver, `top_eigenpairs`, and it always sees the smaller of the
//! two symmetric matrices.
//!
//! Callers that already hold the inner products of the raw samples — the
//! merging module shares one expert Gram matrix per round — skip the data
//! entirely with [`scores_from_gram`], which centres in Gram space.

use crate::gram::gram_f64;
use crate::matrix::Matrix;
use crate::rng::SeededRng;
use crate::{Result, TensorError};

/// Result of fitting PCA on a data matrix.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Per-feature mean subtracted before projection (length = features).
    pub mean: Vec<f32>,
    /// Principal components, one per row (shape `(k, features)`).
    /// Directions beyond the rank of the centred data are zero rows.
    pub components: Matrix,
    /// Variance explained by each retained component, non-increasing.
    pub explained_variance: Vec<f32>,
}

impl Pca {
    /// Fits PCA on `data` (samples in rows, features in columns), retaining
    /// `k` components.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] when `data` is empty or `k`
    /// is zero or larger than the feature count.
    pub fn fit(data: &Matrix, k: usize, rng: &mut SeededRng) -> Result<Self> {
        validate(data, k)?;
        let (n, d) = data.shape();
        let mean = feature_means(data);
        let centered = centered(data, &mean);
        let (components, values) = if n < d {
            let mut gram = gram_f64(&rows_of(&centered));
            double_center(&mut gram, n);
            let eigen = top_eigenpairs(&gram, n, k, rng);
            // Rows of `u / √λ`, so one GEMM against the centred data yields
            // every unit-length principal axis.
            // Eigenvalues this far below the largest are rounding noise:
            // their axes stay zero rows instead of amplified noise.
            let floor = eigen.values[0] * 1e-12;
            let mut scaled = Matrix::zeros(k, n);
            for (c, &lambda) in eigen.values.iter().enumerate() {
                if lambda > floor {
                    let inv_sigma = 1.0 / lambda.sqrt();
                    for (out, &u) in scaled.row_mut(c).iter_mut().zip(eigen.vector(c)) {
                        *out = (u * inv_sigma) as f32;
                    }
                }
            }
            (scaled.matmul(&centered), eigen.values)
        } else {
            let features = centered.transpose();
            let scatter = gram_f64(&rows_of(&features));
            let eigen = top_eigenpairs(&scatter, d, k, rng);
            let mut components = Matrix::zeros(k, d);
            for c in 0..k {
                for (out, &v) in components.row_mut(c).iter_mut().zip(eigen.vector(c)) {
                    *out = v as f32;
                }
            }
            (components, eigen.values)
        };
        Ok(Self {
            mean,
            components,
            explained_variance: values.iter().map(|&l| (l / n as f64) as f32).collect(),
        })
    }

    /// Projects `data` (samples in rows) onto the retained components.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the feature count differs
    /// from the fitted data.
    pub fn transform(&self, data: &Matrix) -> Result<Matrix> {
        let d = self.mean.len();
        if data.cols() != d {
            return Err(TensorError::ShapeMismatch {
                op: "pca_transform",
                lhs: data.shape(),
                rhs: (1, d),
            });
        }
        // Center once, then project every row against every component with
        // the fused `A·Bᵀ` kernel (contiguous dot products, no per-row
        // temporary).
        let centered = centered(data, &self.mean);
        centered.matmul_transb(&self.components)
    }

    /// Convenience: fit on `data` and immediately project it. For wide data
    /// (`n < d`) the scores come straight out of the Gram eigenvectors and
    /// the principal axes are never formed.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Pca::fit`].
    pub fn fit_transform(data: &Matrix, k: usize, rng: &mut SeededRng) -> Result<Matrix> {
        if data.rows() >= data.cols() {
            return Self::fit(data, k, rng)?.transform(data);
        }
        validate(data, k)?;
        let centered = centered(data, &feature_means(data));
        let gram = gram_f64(&rows_of(&centered));
        scores_from_gram(gram, k, rng)
    }
}

/// PCA scores of `n` samples given only their `n×n` matrix of inner
/// products `gram[i * n + j] = xᵢ · xⱼ` (row-major, symmetric, samples *not*
/// centred): the matrix is double-centred in `f64` — which is exactly the
/// Gram matrix of the mean-subtracted samples — and the top-`k` eigenpairs
/// give the `(n, k)` score matrix `√λ_c · u_c`. Components beyond the `n`
/// the samples can span are zero columns.
///
/// Double-centring subtracts numbers of the size of the common offset
/// `|x̄|²` from every entry; with inner products accumulated in `f32` the
/// result keeps about `1e-6·|x̄|²` of noise, so samples whose spread is
/// thousands of times smaller than their shared mean should be centred in
/// data space first (which [`Pca::fit`] and [`Pca::fit_transform`] do).
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] when `gram` is empty or not
/// square, or `k` is zero.
pub fn scores_from_gram(mut gram: Vec<f64>, k: usize, rng: &mut SeededRng) -> Result<Matrix> {
    let n = gram.len().isqrt();
    if n == 0 || n * n != gram.len() {
        return Err(TensorError::InvalidArgument(format!(
            "a Gram matrix must be square and non-empty, got {} entries",
            gram.len()
        )));
    }
    if k == 0 {
        return Err(TensorError::InvalidArgument(
            "PCA needs at least one component".into(),
        ));
    }
    double_center(&mut gram, n);
    let eigen = top_eigenpairs(&gram, n, k, rng);
    let mut scores = Matrix::zeros(n, k);
    for (c, &lambda) in eigen.values.iter().enumerate() {
        let sigma = lambda.sqrt();
        for (i, &u) in eigen.vector(c).iter().enumerate() {
            scores.set(i, c, (sigma * u) as f32);
        }
    }
    Ok(scores)
}

fn validate(data: &Matrix, k: usize) -> Result<()> {
    let (n, d) = data.shape();
    if n == 0 || d == 0 {
        return Err(TensorError::InvalidArgument(
            "PCA requires a non-empty data matrix".into(),
        ));
    }
    if k == 0 || k > d {
        return Err(TensorError::InvalidArgument(format!(
            "PCA component count {k} invalid for {d} features"
        )));
    }
    Ok(())
}

fn feature_means(data: &Matrix) -> Vec<f32> {
    let mut mean = vec![0.0f32; data.cols()];
    for r in 0..data.rows() {
        for (m, &x) in mean.iter_mut().zip(data.row(r)) {
            *m += x;
        }
    }
    let n = data.rows() as f32;
    for m in &mut mean {
        *m /= n;
    }
    mean
}

/// `data` with `mean` subtracted from every row.
fn centered(data: &Matrix, mean: &[f32]) -> Matrix {
    let mut out = Matrix::zeros(data.rows(), data.cols());
    for r in 0..data.rows() {
        for ((c, &x), &m) in out.row_mut(r).iter_mut().zip(data.row(r)).zip(mean) {
            *c = x - m;
        }
    }
    out
}

fn rows_of(m: &Matrix) -> Vec<&[f32]> {
    (0..m.rows()).map(|r| m.row(r)).collect()
}

/// Turns the Gram matrix of raw samples into the Gram matrix of the
/// mean-subtracted samples: `g[i][j] − r̄ᵢ − r̄ⱼ + ḡ` with `r̄` the row means
/// and `ḡ` the grand mean.
fn double_center(gram: &mut [f64], n: usize) {
    let row_means: Vec<f64> = gram
        .chunks_exact(n)
        .map(|row| row.iter().sum::<f64>() / n as f64)
        .collect();
    let grand_mean = row_means.iter().sum::<f64>() / n as f64;
    for (row, &ri) in gram.chunks_exact_mut(n).zip(&row_means) {
        for (g, &rj) in row.iter_mut().zip(&row_means) {
            *g -= ri + rj - grand_mean;
        }
    }
}

/// Power-iteration budget per eigenpair. The error shrinks by the ratio of
/// neighbouring eigenvalues every step, so 16 steps resolve any gap of 2:1
/// to about `1e-5`; a flatter spectrum returns an orthonormal basis of
/// (nearly) the dominant subspace, which is all similarity clustering asks
/// of it, at a cost of `16·n²` multiply-adds per component.
const MAX_ITERATIONS: usize = 16;

/// An iterate counts as converged when `1 − |cos|` of the angle to its
/// predecessor falls below this (an angle of about `1e-5` rad).
const ALIGNMENT_TOLERANCE: f64 = 1e-10;

/// The leading eigenpairs of a symmetric positive semi-definite matrix.
struct Eigen {
    /// Eigenvalue estimates (Rayleigh quotients), non-increasing.
    values: Vec<f64>,
    /// Orthonormal eigenvector estimates, one per row of length `n`; rows
    /// past the matrix dimension are zero.
    vectors: Vec<f64>,
    n: usize,
}

impl Eigen {
    fn vector(&self, c: usize) -> &[f64] {
        &self.vectors[c * self.n..(c + 1) * self.n]
    }
}

/// Top-`k` eigenpairs of the symmetric PSD `n×n` matrix `a` by power
/// iteration with deflation: component `c` iterates `v ← A·v` projected
/// onto the complement of the `c` vectors already found, from a random
/// start of length `n`, until the direction is a fixed point or the
/// iteration budget is spent. `a` itself is never modified.
fn top_eigenpairs(a: &[f64], n: usize, k: usize, rng: &mut SeededRng) -> Eigen {
    debug_assert_eq!(a.len(), n * n);
    let scale = (0..n).map(|i| a[i * n + i].abs()).fold(0.0f64, f64::max);
    let null = scale * 1e-12;
    let mut values = vec![0.0f64; k];
    let mut vectors = vec![0.0f64; k * n];
    let mut w = vec![0.0f64; n];
    for (c, value) in values.iter_mut().enumerate().take(n) {
        let (found, rest) = vectors.split_at_mut(c * n);
        let v = &mut rest[..n];
        for x in v.iter_mut() {
            *x = f64::from(rng.normal());
        }
        project_out(v, found, n);
        if !normalize(v, 0.0) {
            continue;
        }
        for _ in 0..MAX_ITERATIONS {
            symmetric_matvec(a, v, &mut w);
            project_out(&mut w, found, n);
            if !normalize(&mut w, null) {
                // `v` already lies in the null space of the deflated matrix.
                break;
            }
            let alignment = dot(&w, v).abs();
            v.copy_from_slice(&w);
            if 1.0 - alignment < ALIGNMENT_TOLERANCE {
                break;
            }
        }
        symmetric_matvec(a, v, &mut w);
        *value = dot(v, &w).max(0.0);
    }
    // An unconverged early component can come out slightly smaller than a
    // later one; report them in the order PCA promises.
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&x, &y| values[y].total_cmp(&values[x]));
    Eigen {
        values: order.iter().map(|&c| values[c]).collect(),
        vectors: order
            .iter()
            .flat_map(|&c| vectors[c * n..(c + 1) * n].iter().copied())
            .collect(),
        n,
    }
}

/// `out = A·v` for symmetric row-major `A`.
fn symmetric_matvec(a: &[f64], v: &[f64], out: &mut [f64]) {
    for (o, row) in out.iter_mut().zip(a.chunks_exact(v.len())) {
        *o = dot(row, v);
    }
}

/// Removes from `v` its components along the orthonormal rows of `basis`.
fn project_out(v: &mut [f64], basis: &[f64], n: usize) {
    for b in basis.chunks_exact(n) {
        let along = dot(v, b);
        for (x, &bi) in v.iter_mut().zip(b) {
            *x -= along * bi;
        }
    }
}

/// Scales `v` to unit length; leaves it untouched and returns `false` when
/// its norm does not exceed `floor`.
fn normalize(v: &mut [f64], floor: f64) -> bool {
    let norm = dot(v, v).sqrt();
    if norm <= floor {
        return false;
    }
    for x in v.iter_mut() {
        *x /= norm;
    }
    true
}

/// Dot product with eight independent accumulators in a fixed association
/// order (deterministic, and wide enough to hide the add latency).
fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 8];
    let (a8, a_tail) = a.split_at(a.len() - a.len() % 8);
    let (b8, b_tail) = b.split_at(a8.len());
    for (ca, cb) in a8.chunks_exact(8).zip(b8.chunks_exact(8)) {
        for l in 0..8 {
            acc[l] += ca[l] * cb[l];
        }
    }
    let tail: f64 = a_tail.iter().zip(b_tail).map(|(x, y)| x * y).sum();
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    /// Builds a dataset stretched along a known direction.
    fn stretched_data(n: usize, rng: &mut SeededRng) -> Matrix {
        // Points mostly along the (1, 1, 0) direction with small noise.
        let mut data = Matrix::zeros(n, 3);
        for r in 0..n {
            let t = rng.normal() * 5.0;
            data.set(r, 0, t + rng.normal() * 0.1);
            data.set(r, 1, t + rng.normal() * 0.1);
            data.set(r, 2, rng.normal() * 0.1);
        }
        data
    }

    #[test]
    fn first_component_finds_stretch_direction() {
        let mut rng = SeededRng::new(7);
        let data = stretched_data(200, &mut rng);
        let pca = Pca::fit(&data, 1, &mut rng).unwrap();
        let c = pca.components.row(0);
        // Expect roughly (±1/√2, ±1/√2, 0).
        assert!((c[0].abs() - 0.707).abs() < 0.05, "c = {c:?}");
        assert!((c[1].abs() - 0.707).abs() < 0.05);
        assert!(c[2].abs() < 0.1);
    }

    #[test]
    fn components_are_orthonormal() {
        let mut rng = SeededRng::new(8);
        let data = Matrix::random_normal(50, 6, 1.0, &mut rng);
        let pca = Pca::fit(&data, 3, &mut rng).unwrap();
        for i in 0..3 {
            let ci = pca.components.row(i);
            assert!((stats::l2_norm(ci) - 1.0).abs() < 1e-3);
            for j in 0..i {
                let dot = stats::dot(ci, pca.components.row(j));
                assert!(dot.abs() < 1e-2, "components {i},{j} not orthogonal: {dot}");
            }
        }
    }

    #[test]
    fn explained_variance_is_decreasing() {
        let mut rng = SeededRng::new(9);
        let data = stretched_data(100, &mut rng);
        let pca = Pca::fit(&data, 3, &mut rng).unwrap();
        assert!(pca.explained_variance[0] >= pca.explained_variance[1]);
        assert!(pca.explained_variance[1] >= pca.explained_variance[2] - 1e-4);
    }

    #[test]
    fn transform_shape_and_error_handling() {
        let mut rng = SeededRng::new(10);
        let data = Matrix::random_normal(20, 5, 1.0, &mut rng);
        let pca = Pca::fit(&data, 2, &mut rng).unwrap();
        let projected = pca.transform(&data).unwrap();
        assert_eq!(projected.shape(), (20, 2));
        let bad = Matrix::zeros(3, 4);
        assert!(pca.transform(&bad).is_err());
    }

    #[test]
    fn fit_rejects_bad_arguments() {
        let mut rng = SeededRng::new(11);
        let empty = Matrix::zeros(0, 0);
        assert!(Pca::fit(&empty, 1, &mut rng).is_err());
        let data = Matrix::zeros(4, 3);
        assert!(Pca::fit(&data, 0, &mut rng).is_err());
        assert!(Pca::fit(&data, 4, &mut rng).is_err());
    }

    #[test]
    fn fit_transform_matches_manual() {
        let mut rng1 = SeededRng::new(12);
        let mut rng2 = SeededRng::new(12);
        let data = Matrix::random_normal(30, 4, 1.0, &mut SeededRng::new(99));
        let a = Pca::fit_transform(&data, 2, &mut rng1).unwrap();
        let pca = Pca::fit(&data, 2, &mut rng2).unwrap();
        let b = pca.transform(&data).unwrap();
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn constant_data_yields_zero_variance() {
        let mut rng = SeededRng::new(13);
        let data = Matrix::filled(10, 4, 2.5);
        let pca = Pca::fit(&data, 2, &mut rng).unwrap();
        assert!(pca.explained_variance.iter().all(|&v| v < 1e-6));
        let t = pca.transform(&data).unwrap();
        assert!(t.as_slice().iter().all(|&v| v.abs() < 1e-4));
    }
}
