//! Neural-network primitive operations.
//!
//! Softmax, activation functions, layer normalization and cross-entropy, in
//! both the row-vector form used by the gating network and the matrix form
//! used by the transformer layers. Backward-pass helpers return gradients in
//! the same layout as their forward inputs.

use crate::matrix::Matrix;
use crate::simd;
use crate::Result;

/// Numerically stable softmax over a single row.
///
/// Returns a probability vector summing to 1. An empty input returns an
/// empty vector.
pub fn softmax_row(logits: &[f32]) -> Vec<f32> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    if sum <= 0.0 || !sum.is_finite() {
        return vec![1.0 / logits.len() as f32; logits.len()];
    }
    exps.into_iter().map(|e| e / sum).collect()
}

/// Allocation-free softmax over a row slice, bit-identical to
/// [`softmax_row`] (same max-shift, same `exp`, same division, same uniform
/// fallback on a non-finite or non-positive sum). The fused block-diagonal
/// attention applies this to the leading `len` columns of each padded
/// scores row.
pub fn softmax_row_in_place(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    for x in row.iter_mut() {
        *x = (*x - max).exp();
    }
    let sum: f32 = row.iter().sum();
    if sum <= 0.0 || !sum.is_finite() {
        let uniform = 1.0 / row.len() as f32;
        for x in row.iter_mut() {
            *x = uniform;
        }
        return;
    }
    for x in row.iter_mut() {
        *x /= sum;
    }
}

/// Softmax applied independently to every row of a matrix.
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(logits.rows(), logits.cols());
    for r in 0..logits.rows() {
        let probs = softmax_row(logits.row(r));
        out.row_mut(r).copy_from_slice(&probs);
    }
    out
}

/// Jacobian-vector product of softmax: given the softmax output `p` and an
/// upstream gradient `grad`, returns the gradient with respect to the logits.
pub fn softmax_backward_row(probs: &[f32], grad: &[f32]) -> Vec<f32> {
    debug_assert_eq!(probs.len(), grad.len());
    let dot: f32 = probs.iter().zip(grad.iter()).map(|(p, g)| p * g).sum();
    probs
        .iter()
        .zip(grad.iter())
        .map(|(p, g)| p * (g - dot))
        .collect()
}

/// Allocation-free variant of [`softmax_backward_row`] writing into `out`.
pub fn softmax_backward_row_into(probs: &[f32], grad: &[f32], out: &mut [f32]) {
    debug_assert_eq!(probs.len(), grad.len());
    debug_assert_eq!(probs.len(), out.len());
    let dot: f32 = probs.iter().zip(grad.iter()).map(|(p, g)| p * g).sum();
    for ((o, &p), &g) in out.iter_mut().zip(probs).zip(grad) {
        *o = p * (g - dot);
    }
}

/// GELU activation (tanh approximation), applied element-wise through the
/// dispatched kernel (bit-identical across kernel levels: every level runs
/// the loop over [`gelu_scalar`], compiled for its instruction set).
pub fn gelu(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    gelu_in_place(&mut out);
    out
}

/// GELU applied in place (no allocation).
pub fn gelu_in_place(x: &mut Matrix) {
    (simd::active().gelu)(x.as_mut_slice());
}

/// Fused `GELU(x · w + bias)`: one kernel pass, bias folded into the output
/// initialization, activation applied in place. This is the shape of both
/// expert projections, so the inference/profiling path allocates exactly
/// one matrix per projection.
///
/// # Errors
///
/// Returns a shape mismatch when the inner dimensions or bias length
/// disagree.
pub fn matmul_bias_gelu(x: &Matrix, w: &Matrix, bias: &[f32]) -> Result<Matrix> {
    let mut out = x.try_matmul_bias(w, bias)?;
    gelu_in_place(&mut out);
    Ok(out)
}

/// Derivative of the GELU activation with respect to its input.
///
/// # Panics
///
/// Panics if `x` and `grad` differ in shape.
pub fn gelu_backward(x: &Matrix, grad: &Matrix) -> Matrix {
    assert_eq!(x.shape(), grad.shape(), "gelu_backward operand shapes");
    let mut out = Matrix::zeros(x.rows(), x.cols());
    (simd::active().gelu_grad)(x.as_slice(), grad.as_slice(), out.as_mut_slice());
    out
}

/// Backward pass of GELU reusing the cached forward *output*.
///
/// `y = gelu(x) = 0.5·x·(1 + tanh(u))` stores `tanh(u)` implicitly:
/// `t = 2y/x − 1`. Recovering it spares the `tanh` recomputation that
/// dominated the expert backward pass at small model widths (the hyperbolic
/// is ~10× the cost of the surrounding matmul work there). Near `x = 0` the
/// division is ill-conditioned, so the exact scalar path is used instead;
/// everywhere else the recovered `t` matches the recomputed value to a few
/// ulps, well inside the noise of the f32 gradient itself.
///
/// # Panics
///
/// Panics unless `x.shape() == y.shape() == grad.shape()`.
pub fn gelu_backward_cached(x: &Matrix, y: &Matrix, grad: &Matrix) -> Matrix {
    assert_eq!(x.shape(), y.shape(), "gelu_backward_cached operand shapes");
    assert_eq!(
        x.shape(),
        grad.shape(),
        "gelu_backward_cached operand shapes"
    );
    let mut out = Matrix::zeros(x.rows(), x.cols());
    (simd::active().gelu_grad_cached)(
        x.as_slice(),
        y.as_slice(),
        grad.as_slice(),
        out.as_mut_slice(),
    );
    out
}

/// `sqrt(2/π)`, the scale of the tanh-GELU argument.
const GELU_C: f32 = 0.797_884_6;
/// The cubic coefficient of the tanh-GELU argument.
const GELU_A: f32 = 0.044715;
/// `3 · GELU_A`, folded at f32 precision: the derivative's cubic term.
const GELU_3A: f32 = 3.0 * GELU_A;
/// Below this |x| the cached-output gradient recovery is ill-conditioned
/// and [`gelu_grad_cached_scalar`] recomputes the tanh instead.
const CACHED_GRAD_CUTOFF: f32 = 1e-3;

/// Fast `tanh`: the degree-7/6 continued-fraction rational approximation,
/// saturating to ±1 beyond |x| ≥ 4.97 (where `1 − tanh(x) < 1.4e-4`).
/// Absolute error stays below ~2e-6 inside the rational range — well under
/// the f32 noise of the surrounding GEMMs — while avoiding the libm `tanh`
/// call that dominated the expert forward pass at small model widths
/// (tens of thousands of activations per layer against tiny matmuls).
///
/// The saturation is a select after the rational, not an early return, so
/// loops over it vectorise; NaN fails the comparison and stays NaN.
#[inline]
pub fn fast_tanh(x: f32) -> f32 {
    let x2 = x * x;
    let p = x * (135_135.0 + x2 * (17_325.0 + x2 * (378.0 + x2)));
    let q = 135_135.0 + x2 * (62_370.0 + x2 * (3_150.0 + x2 * 28.0));
    if x.abs() >= 4.97 {
        1.0f32.copysign(x)
    } else {
        p / q
    }
}

/// GELU for a single scalar (tanh approximation, [`fast_tanh`] inside).
#[inline]
pub fn gelu_scalar(x: f32) -> f32 {
    0.5 * x * (1.0 + fast_tanh(GELU_C * (x + GELU_A * x * x * x)))
}

/// Derivative of [`gelu_scalar`].
#[inline]
pub fn gelu_grad_scalar(x: f32) -> f32 {
    let x3 = x * x * x;
    grad_from_tanh(x, fast_tanh(GELU_C * (x + GELU_A * x3)))
}

/// Derivative of [`gelu_scalar`] at `x` from its output `y = gelu_scalar(x)`
/// (the formula behind [`gelu_backward_cached`]): `t = 2y/x − 1`, clamped
/// to `[−1, 1]`, replaces the tanh, except for |x| ≤ 1e-3, where
/// [`gelu_grad_scalar`] recomputes it.
#[inline]
pub(crate) fn gelu_grad_cached_scalar(x: f32, y: f32) -> f32 {
    if x.abs() > CACHED_GRAD_CUTOFF {
        grad_from_tanh(x, (2.0 * y / x - 1.0).clamp(-1.0, 1.0))
    } else {
        gelu_grad_scalar(x)
    }
}

/// The GELU derivative at `x` given `t = tanh(C·(x + A·x³))`:
/// `0.5·(1 + t) + 0.5·x·(1 − t²)·C·(1 + 3A·x²)`, left to right.
#[inline]
fn grad_from_tanh(x: f32, t: f32) -> f32 {
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * GELU_C * (1.0 + GELU_3A * x * x)
}

/// Per-row layer normalization (no learned affine parameters).
///
/// Each row is shifted to zero mean and scaled to unit variance. `eps`
/// guards against division by zero on constant rows.
pub fn layer_norm(x: &Matrix, eps: f32) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), x.cols());
    for r in 0..x.rows() {
        let row = x.row(r);
        let mean: f32 = row.iter().sum::<f32>() / row.len() as f32;
        let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / row.len() as f32;
        let denom = (var + eps).sqrt();
        for (o, &v) in out.row_mut(r).iter_mut().zip(row.iter()) {
            *o = (v - mean) / denom;
        }
    }
    out
}

/// Backward pass of [`layer_norm`] (no affine parameters).
///
/// Given the forward input `x` and the upstream gradient `grad_y`, returns
/// the gradient with respect to `x`. Uses the standard per-row formula
/// `dx = (dy - mean(dy) - y * mean(dy ⊙ y)) / std`.
pub fn layer_norm_backward(x: &Matrix, grad_y: &Matrix, eps: f32) -> Matrix {
    debug_assert_eq!(x.shape(), grad_y.shape());
    let mut out = Matrix::zeros(x.rows(), x.cols());
    let n = x.cols() as f32;
    for r in 0..x.rows() {
        let row = x.row(r);
        let gy = grad_y.row(r);
        let mean: f32 = row.iter().sum::<f32>() / n;
        let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
        let std = (var + eps).sqrt();
        let y: Vec<f32> = row.iter().map(|v| (v - mean) / std).collect();
        let mean_gy: f32 = gy.iter().sum::<f32>() / n;
        let mean_gy_y: f32 = gy.iter().zip(y.iter()).map(|(g, yv)| g * yv).sum::<f32>() / n;
        for (c, o) in out.row_mut(r).iter_mut().enumerate() {
            *o = (gy[c] - mean_gy - y[c] * mean_gy_y) / std;
        }
    }
    out
}

/// Cross-entropy loss between per-row class logits and integer targets.
///
/// Returns `(mean_loss, grad_logits)` where the gradient is with respect to
/// the logits (softmax folded in), averaged over rows.
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()` or a target index is out of
/// range for the number of classes.
pub fn cross_entropy(logits: &Matrix, targets: &[usize]) -> (f32, Matrix) {
    assert_eq!(logits.rows(), targets.len(), "one target per logits row");
    let n = logits.rows().max(1);
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    let mut total_loss = 0.0;
    for (r, &target) in targets.iter().enumerate() {
        assert!(target < logits.cols(), "target class out of range");
        let probs = softmax_row(logits.row(r));
        total_loss += -(probs[target].max(1e-12)).ln();
        let grad_row = grad.row_mut(r);
        for (c, &p) in probs.iter().enumerate() {
            grad_row[c] = (p - if c == target { 1.0 } else { 0.0 }) / n as f32;
        }
    }
    (total_loss / n as f32, grad)
}

/// Loss-only variant of [`cross_entropy`]: no gradient matrix is built
/// (loss probes such as SPSA evaluations discard the gradients).
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()` or a target index is out of
/// range for the number of classes.
pub fn cross_entropy_loss(logits: &Matrix, targets: &[usize]) -> f32 {
    assert_eq!(logits.rows(), targets.len(), "one target per logits row");
    let n = logits.rows().max(1);
    let mut total_loss = 0.0;
    for (r, &target) in targets.iter().enumerate() {
        assert!(target < logits.cols(), "target class out of range");
        let probs = softmax_row(logits.row(r));
        total_loss += -(probs[target].max(1e-12)).ln();
    }
    total_loss / n as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    fn close(a: f32, b: f32, tol: f32) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn softmax_row_sums_to_one() {
        let p = softmax_row(&[1.0, 2.0, 3.0, 4.0]);
        assert!(close(p.iter().sum::<f32>(), 1.0, 1e-6));
        assert!(p.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn softmax_row_handles_large_logits() {
        let p = softmax_row(&[1000.0, 1000.0]);
        assert!(close(p[0], 0.5, 1e-6));
        assert!(p.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn softmax_empty() {
        assert!(softmax_row(&[]).is_empty());
    }

    #[test]
    fn softmax_row_in_place_is_bit_identical_to_allocating() {
        let cases: Vec<Vec<f32>> = vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![1000.0, 1000.0],
            vec![-0.3],
            vec![f32::NEG_INFINITY, f32::NEG_INFINITY], // uniform fallback
            vec![],
        ];
        for case in cases {
            let reference = softmax_row(&case);
            let mut inplace = case.clone();
            softmax_row_in_place(&mut inplace);
            assert_eq!(inplace, reference, "input {case:?}");
        }
    }

    #[test]
    fn softmax_rows_matches_row_version() {
        let m = Matrix::from_rows(&[vec![0.0, 1.0], vec![3.0, -1.0]]);
        let s = softmax_rows(&m);
        assert_eq!(s.row(0), softmax_row(m.row(0)).as_slice());
        assert_eq!(s.row(1), softmax_row(m.row(1)).as_slice());
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let logits = [0.3f32, -0.7, 1.2];
        let grad_out = [0.5f32, -0.25, 1.0];
        let probs = softmax_row(&logits);
        let analytic = softmax_backward_row(&probs, &grad_out);
        let eps = 1e-3;
        for i in 0..logits.len() {
            let mut plus = logits;
            plus[i] += eps;
            let mut minus = logits;
            minus[i] -= eps;
            let f = |l: &[f32]| -> f32 {
                softmax_row(l)
                    .iter()
                    .zip(grad_out.iter())
                    .map(|(p, g)| p * g)
                    .sum()
            };
            let numeric = (f(&plus) - f(&minus)) / (2.0 * eps);
            assert!(
                close(analytic[i], numeric, 1e-2),
                "i={i} analytic={} numeric={}",
                analytic[i],
                numeric
            );
        }
    }

    #[test]
    fn fast_tanh_tracks_libm_tanh() {
        let mut x = -8.0f32;
        while x <= 8.0 {
            let err = (fast_tanh(x) - x.tanh()).abs();
            assert!(err < 2e-4, "fast_tanh({x}) off by {err}");
            x += 0.01;
        }
        assert_eq!(fast_tanh(100.0), 1.0);
        assert_eq!(fast_tanh(-100.0), -1.0);
        assert_eq!(fast_tanh(0.0), 0.0);
    }

    #[test]
    fn gelu_reference_values() {
        assert!(close(gelu_scalar(0.0), 0.0, 1e-6));
        assert!(gelu_scalar(3.0) > 2.9);
        assert!(gelu_scalar(-3.0).abs() < 0.02);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        let eps = 1e-3;
        for &x in &[-2.0f32, -0.5, 0.0, 0.7, 2.5] {
            let numeric = (gelu_scalar(x + eps) - gelu_scalar(x - eps)) / (2.0 * eps);
            assert!(
                close(gelu_grad_scalar(x), numeric, 5e-3),
                "x={x}: {} vs {}",
                gelu_grad_scalar(x),
                numeric
            );
        }
    }

    #[test]
    fn gelu_backward_cached_matches_recompute() {
        let mut rng = crate::SeededRng::new(17);
        let x = Matrix::random_normal(13, 9, 2.0, &mut rng);
        let y = gelu(&x);
        let grad = Matrix::random_normal(13, 9, 1.0, &mut rng);
        let cached = gelu_backward_cached(&x, &y, &grad);
        let recomputed = gelu_backward(&x, &grad);
        for (a, b) in cached.as_slice().iter().zip(recomputed.as_slice()) {
            assert!(
                (a - b).abs() <= 1e-4 * b.abs().max(1.0),
                "cached {a} vs recomputed {b}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "gelu_backward operand shapes")]
    fn gelu_backward_rejects_a_grad_of_another_shape() {
        // Same length, different rows: the kernel's length check alone
        // would let it through.
        gelu_backward(&Matrix::zeros(2, 3), &Matrix::zeros(3, 2));
    }

    #[test]
    #[should_panic(expected = "gelu_backward_cached operand shapes")]
    fn gelu_backward_cached_rejects_a_grad_of_another_shape() {
        let x = Matrix::zeros(2, 3);
        gelu_backward_cached(&x, &x, &Matrix::zeros(3, 2));
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let mut rng = SeededRng::new(4);
        let x = Matrix::random_normal(3, 16, 2.0, &mut rng);
        let y = layer_norm(&x, 1e-5);
        for r in 0..y.rows() {
            let row = y.row(r);
            let mean: f32 = row.iter().sum::<f32>() / row.len() as f32;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / row.len() as f32;
            assert!(mean.abs() < 1e-4);
            assert!(close(var, 1.0, 1e-2));
        }
    }

    #[test]
    fn layer_norm_constant_row_is_finite() {
        let x = Matrix::filled(1, 4, 3.0);
        let y = layer_norm(&x, 1e-5);
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn layer_norm_backward_matches_finite_difference() {
        let mut rng = SeededRng::new(17);
        let x = Matrix::random_normal(2, 6, 1.0, &mut rng);
        // Loss = sum of (layer_norm(x) .* coeff) for an arbitrary coeff matrix.
        let coeff = Matrix::random_normal(2, 6, 1.0, &mut rng);
        let loss = |m: &Matrix| -> f32 { layer_norm(m, 1e-5).hadamard(&coeff).unwrap().sum() };
        let analytic = layer_norm_backward(&x, &coeff, 1e-5);
        let eps = 1e-3;
        for r in 0..2 {
            for c in 0..6 {
                let mut plus = x.clone();
                plus.set(r, c, plus.get(r, c) + eps);
                let mut minus = x.clone();
                minus.set(r, c, minus.get(r, c) - eps);
                let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
                assert!(
                    (numeric - analytic.get(r, c)).abs() < 2e-2,
                    "({r},{c}): numeric {numeric} analytic {}",
                    analytic.get(r, c)
                );
            }
        }
    }

    #[test]
    fn cross_entropy_perfect_prediction_small_loss() {
        let logits = Matrix::from_rows(&[vec![10.0, -10.0], vec![-10.0, 10.0]]);
        let (loss, _grad) = cross_entropy(&logits, &[0, 1]);
        assert!(loss < 1e-3);
    }

    #[test]
    fn cross_entropy_uniform_is_log_k() {
        let logits = Matrix::zeros(1, 4);
        let (loss, _grad) = cross_entropy(&logits, &[2]);
        assert!(close(loss, (4.0f32).ln(), 1e-4));
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = Matrix::from_rows(&[vec![0.2, -0.4, 0.9]]);
        let targets = [2usize];
        let (_, grad) = cross_entropy(&logits, &targets);
        let eps = 1e-3;
        for c in 0..3 {
            let mut plus = logits.clone();
            plus.set(0, c, plus.get(0, c) + eps);
            let mut minus = logits.clone();
            minus.set(0, c, minus.get(0, c) - eps);
            let (lp, _) = cross_entropy(&plus, &targets);
            let (lm, _) = cross_entropy(&minus, &targets);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(close(grad.get(0, c), numeric, 1e-2));
        }
    }
}
