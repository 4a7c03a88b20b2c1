//! Quantized linear forward pass.
//!
//! `x · W` against a weight that stays quantized: the activation is kept in
//! `f32` and the weight is dequantized on the fly row-by-row, mirroring how
//! weight-only quantization kernels behave. The output carries the rounding
//! error of the weights, which is exactly the error source behind the
//! paper's Fig. 5.
//!
//! Nothing in the library calls this today. The profiling path does *not*
//! run through it: `QuantizedMoe::profile` (in `flux-moe`) keeps the model
//! packed and dequantizes one transformer block at a time into reused `f32`
//! buffers, then runs the ordinary `f32` forward over them — the same
//! rounding error, at the `f32` GEMM's speed, with one block's weights in
//! `f32` at a time. The only callers are the benchmark's
//! `quant.qmatmul_gops` probe and `crates/quant/tests/proptest_quant.rs`.

use flux_tensor::{Matrix, Result, TensorError};

use crate::matrix::QuantizedMatrix;

/// Computes `x * W` where `W` is quantized, returning a full-precision
/// output that carries the quantization error of `W`.
///
/// `x` has shape `(n, d_in)` and the quantized weight has shape
/// `(d_in, d_out)`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the inner dimensions differ.
pub fn quantized_matmul(x: &Matrix, w: &QuantizedMatrix) -> Result<Matrix> {
    if x.cols() != w.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "quantized_matmul",
            lhs: x.shape(),
            rhs: w.shape(),
        });
    }
    let n = w.cols();
    let mut out = Matrix::zeros(x.rows(), n);
    let scales = w.scales();
    // The levels of every weight row, unpacked once for all input rows.
    let mut levels = vec![0i8; w.rows() * n];
    for k in 0..w.rows() {
        w.levels_row_into(k, &mut levels[k * n..(k + 1) * n]);
    }
    let levels_row = |k: usize| &levels[k * n..(k + 1) * n];
    for i in 0..x.rows() {
        let x_row = x.row(i);
        let out_row = &mut out.as_mut_slice()[i * n..(i + 1) * n];
        // Dequantize-on-the-fly accumulation, unrolled 4-way over the depth
        // so each output row is written once per four weight rows. Slices
        // are pre-sized to `n` so the inner loop runs without bounds checks.
        let mut k = 0;
        while k + 4 <= x_row.len() {
            let (c0, c1, c2, c3) = (
                x_row[k] * scales[k],
                x_row[k + 1] * scales[k + 1],
                x_row[k + 2] * scales[k + 2],
                x_row[k + 3] * scales[k + 3],
            );
            let l0 = levels_row(k);
            let l1 = levels_row(k + 1);
            let l2 = levels_row(k + 2);
            let l3 = levels_row(k + 3);
            for j in 0..n {
                out_row[j] +=
                    c0 * l0[j] as f32 + c1 * l1[j] as f32 + c2 * l2[j] as f32 + c3 * l3[j] as f32;
            }
            k += 4;
        }
        while k < x_row.len() {
            let coeff = x_row[k] * scales[k];
            for (o, &level) in out_row.iter_mut().zip(levels_row(k)) {
                *o += coeff * level as f32;
            }
            k += 1;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::BitWidth;
    use flux_tensor::SeededRng;

    #[test]
    fn matches_full_precision_closely_at_int8() {
        let mut rng = SeededRng::new(1);
        let x = Matrix::random_normal(4, 16, 1.0, &mut rng);
        let w = Matrix::random_normal(16, 8, 1.0, &mut rng);
        let q = QuantizedMatrix::quantize(&w, BitWidth::Int8);
        let exact = x.matmul(&w);
        let approx = quantized_matmul(&x, &q).unwrap();
        let err = exact.sub(&approx).unwrap().frobenius_norm() / exact.frobenius_norm();
        assert!(err < 0.02, "relative error {err}");
    }

    #[test]
    fn error_ordering_by_bit_width() {
        let mut rng = SeededRng::new(2);
        let x = Matrix::random_normal(8, 32, 1.0, &mut rng);
        let w = Matrix::random_normal(32, 16, 1.0, &mut rng);
        let exact = x.matmul(&w);
        let rel_err = |b: BitWidth| {
            let q = QuantizedMatrix::quantize(&w, b);
            let approx = quantized_matmul(&x, &q).unwrap();
            exact.sub(&approx).unwrap().frobenius_norm() / exact.frobenius_norm()
        };
        let e2 = rel_err(BitWidth::Int2);
        let e4 = rel_err(BitWidth::Int4);
        let e8 = rel_err(BitWidth::Int8);
        assert!(e2 > e4 && e4 > e8, "e2={e2} e4={e4} e8={e8}");
    }

    #[test]
    fn shape_mismatch_is_error() {
        let x = Matrix::zeros(2, 3);
        let w = QuantizedMatrix::quantize(&Matrix::zeros(4, 5), BitWidth::Int4);
        assert!(quantized_matmul(&x, &w).is_err());
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let mut rng = SeededRng::new(3);
        let x = Matrix::zeros(3, 8);
        let w =
            QuantizedMatrix::quantize(&Matrix::random_normal(8, 4, 1.0, &mut rng), BitWidth::Int4);
        let out = quantized_matmul(&x, &w).unwrap();
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn output_shape() {
        let mut rng = SeededRng::new(4);
        let x = Matrix::random_normal(5, 6, 1.0, &mut rng);
        let w =
            QuantizedMatrix::quantize(&Matrix::random_normal(6, 9, 1.0, &mut rng), BitWidth::Int2);
        assert_eq!(quantized_matmul(&x, &w).unwrap().shape(), (5, 9));
    }
}
