//! Symmetric per-row integer quantization of weight matrices.

use flux_tensor::Matrix;

/// Supported quantization bit widths.
///
/// Matches the profiling precisions evaluated in the paper (Fig. 5): 2-, 4-
/// and 8-bit. Lower widths shrink memory and compute further but add
/// rounding error to the gating computation, which shows up as activation-
/// frequency estimation error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BitWidth {
    /// 2-bit quantization (levels −1, 0, +1 … clamp at ±1 step around zero).
    Int2,
    /// 4-bit quantization.
    Int4,
    /// 8-bit quantization.
    Int8,
}

impl BitWidth {
    /// Number of bits.
    pub fn bits(self) -> u32 {
        match self {
            BitWidth::Int2 => 2,
            BitWidth::Int4 => 4,
            BitWidth::Int8 => 8,
        }
    }

    /// Largest representable positive integer level (symmetric scheme).
    pub fn max_level(self) -> i32 {
        (1 << (self.bits() - 1)) - 1
    }

    /// Bytes needed to store `n` weights at this width (packed).
    pub fn storage_bytes(self, n: usize) -> usize {
        (n * self.bits() as usize).div_ceil(8)
    }

    /// Compression ratio relative to FP32 storage.
    pub fn compression_ratio(self) -> f32 {
        32.0 / self.bits() as f32
    }

    /// All supported widths, lowest precision first.
    pub fn all() -> [BitWidth; 3] {
        [BitWidth::Int2, BitWidth::Int4, BitWidth::Int8]
    }
}

/// Symmetric quantization of one row of values against its own abs-max
/// scale — the one row quantizer behind [`QuantizedMatrix::quantize`] and
/// the upload codec's shared-scale sparse values.
///
/// Writes `round(v / s)` clamped to `±width.max_level()` into `out` and
/// returns the scale `s = max|v| / max_level` (`1.0` for an all-zero or
/// empty row, so dequantization never divides by zero). NaN values are
/// skipped by the abs-max fold and quantize to level 0; an infinite value
/// yields an infinite scale, which decoders reject.
///
/// # Panics
///
/// Panics if `out.len() != values.len()`.
pub fn quantize_row(values: &[f32], width: BitWidth, out: &mut [i8]) -> f32 {
    assert_eq!(values.len(), out.len(), "one level per value");
    let max_level = width.max_level() as f32;
    let max_abs = values.iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
    let scale = if max_abs > 0.0 {
        max_abs / max_level
    } else {
        1.0
    };
    for (level, &v) in out.iter_mut().zip(values) {
        *level = (v / scale).round().clamp(-max_level, max_level) as i8;
    }
    scale
}

/// A weight matrix stored as symmetric per-row quantized integers.
///
/// Each row keeps its own scale `s = max|w| / max_level`, and the stored
/// integers are `round(w / s)` clamped to the representable range. The
/// original shape is preserved so the matrix can be dequantized or used
/// directly in [`crate::quantized_matmul`].
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    width: BitWidth,
    /// Quantized levels, stored widened to i8 for simplicity (the packed
    /// byte count reported by [`QuantizedMatrix::storage_bytes`] reflects
    /// the true footprint of a packed representation).
    levels: Vec<i8>,
    /// One scale per row.
    scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantizes a full-precision matrix.
    pub fn quantize(weights: &Matrix, width: BitWidth) -> Self {
        let (rows, cols) = weights.shape();
        let mut levels = vec![0i8; rows * cols];
        let scales = (0..rows)
            .map(|r| quantize_row(weights.row(r), width, &mut levels[r * cols..(r + 1) * cols]))
            .collect();
        Self {
            rows,
            cols,
            width,
            levels,
            scales,
        }
    }

    /// Reconstructs an approximate full-precision matrix.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let scale = self.scales[r];
            for c in 0..self.cols {
                out.set(r, c, self.levels[r * self.cols + c] as f32 * scale);
            }
        }
        out
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Quantization width.
    pub fn width(&self) -> BitWidth {
        self.width
    }

    /// Raw integer level at `(row, col)`.
    #[inline]
    pub fn level(&self, row: usize, col: usize) -> i8 {
        self.levels[row * self.cols + col]
    }

    /// All integer levels of one row (the matmul kernel iterates these as a
    /// slice rather than paying a bounds check per element).
    #[inline]
    pub fn levels_row(&self, row: usize) -> &[i8] {
        &self.levels[row * self.cols..(row + 1) * self.cols]
    }

    /// Per-row scale factors.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Bytes a packed on-device representation would occupy (levels + scales).
    pub fn storage_bytes(&self) -> usize {
        self.width.storage_bytes(self.levels.len()) + self.scales.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_tensor::SeededRng;

    #[test]
    fn bit_width_levels() {
        assert_eq!(BitWidth::Int2.max_level(), 1);
        assert_eq!(BitWidth::Int4.max_level(), 7);
        assert_eq!(BitWidth::Int8.max_level(), 127);
    }

    #[test]
    fn storage_bytes_packed() {
        assert_eq!(BitWidth::Int8.storage_bytes(10), 10);
        assert_eq!(BitWidth::Int4.storage_bytes(10), 5);
        assert_eq!(BitWidth::Int2.storage_bytes(10), 3);
    }

    #[test]
    fn compression_ratio() {
        assert_eq!(BitWidth::Int8.compression_ratio(), 4.0);
        assert_eq!(BitWidth::Int4.compression_ratio(), 8.0);
        assert_eq!(BitWidth::Int2.compression_ratio(), 16.0);
    }

    #[test]
    fn quantize_row_is_the_matrix_row_quantizer() {
        let mut rng = SeededRng::new(6);
        let w = Matrix::random_normal(3, 9, 2.0, &mut rng);
        for &b in &BitWidth::all() {
            let q = QuantizedMatrix::quantize(&w, b);
            for r in 0..3 {
                let mut levels = [0i8; 9];
                let scale = quantize_row(w.row(r), b, &mut levels);
                assert_eq!(scale.to_bits(), q.scales()[r].to_bits());
                assert_eq!(&levels[..], q.levels_row(r));
            }
        }
        // Degenerate rows keep a usable scale.
        assert_eq!(quantize_row(&[], BitWidth::Int4, &mut []), 1.0);
        let mut levels = [9i8; 2];
        assert_eq!(quantize_row(&[0.0, -0.0], BitWidth::Int4, &mut levels), 1.0);
        assert_eq!(levels, [0, 0]);
    }

    #[test]
    fn quantize_preserves_shape() {
        let mut rng = SeededRng::new(1);
        let w = Matrix::random_normal(5, 7, 1.0, &mut rng);
        let q = QuantizedMatrix::quantize(&w, BitWidth::Int8);
        assert_eq!(q.shape(), (5, 7));
        assert_eq!(q.dequantize().shape(), (5, 7));
    }

    #[test]
    fn int8_round_trip_is_tight() {
        let mut rng = SeededRng::new(2);
        let w = Matrix::random_normal(16, 16, 1.0, &mut rng);
        let q = QuantizedMatrix::quantize(&w, BitWidth::Int8);
        let err = w.sub(&q.dequantize()).unwrap().frobenius_norm() / w.frobenius_norm();
        assert!(err < 0.01, "int8 relative error {err}");
    }

    #[test]
    fn error_grows_as_bits_shrink() {
        let mut rng = SeededRng::new(3);
        let w = Matrix::random_normal(32, 32, 1.0, &mut rng);
        let errs: Vec<f32> = BitWidth::all()
            .iter()
            .map(|&b| {
                let q = QuantizedMatrix::quantize(&w, b);
                w.sub(&q.dequantize()).unwrap().frobenius_norm() / w.frobenius_norm()
            })
            .collect();
        // all() is ordered Int2, Int4, Int8: errors must strictly decrease.
        assert!(errs[0] > errs[1]);
        assert!(errs[1] > errs[2]);
    }

    #[test]
    fn zero_matrix_quantizes_to_zero() {
        let w = Matrix::zeros(4, 4);
        let q = QuantizedMatrix::quantize(&w, BitWidth::Int2);
        assert!(q.dequantize().as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn levels_within_representable_range() {
        let mut rng = SeededRng::new(4);
        let w = Matrix::random_normal(10, 10, 5.0, &mut rng);
        for &b in &BitWidth::all() {
            let q = QuantizedMatrix::quantize(&w, b);
            let max = b.max_level() as i8;
            for r in 0..10 {
                for c in 0..10 {
                    assert!(q.level(r, c).abs() <= max);
                }
            }
        }
    }

    #[test]
    fn storage_smaller_than_fp32() {
        let mut rng = SeededRng::new(5);
        let w = Matrix::random_normal(64, 64, 1.0, &mut rng);
        let fp32_bytes = 64 * 64 * 4;
        for &b in &BitWidth::all() {
            let q = QuantizedMatrix::quantize(&w, b);
            assert!(q.storage_bytes() < fp32_bytes);
        }
    }
}
