//! Symmetric per-row integer quantization of weight matrices.

use std::ops::Range;

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
        *level = round_level((v / scale).clamp(-max_level, max_level));
    }
    scale
}

/// `x.round() as i8` for `|x| <= 127` or NaN — half away from zero, NaN to
/// 0 — in float and integer arithmetic that vectorizes, instead of a call
/// to the C library's `roundf` per element. Adding `1.5 * 2^23` rounds `x`
/// to the nearest integer (ties to even) in the sum's low mantissa bits;
/// `x` minus that integer is exact and tells the ties that must move away
/// from zero. Checked against `f32::round` on every `f32` bit pattern.
#[inline(always)]
fn round_level(x: f32) -> i8 {
    const MAGIC: f32 = 12_582_912.0;
    let x = if x.is_nan() { 0.0 } else { x };
    let shifted = x + MAGIC;
    let tie_distance = x - (shifted - MAGIC);
    let nearest = shifted.to_bits() as i32 - MAGIC.to_bits() as i32;
    let away = (tie_distance == 0.5 && x > 0.0) as i32 - (tie_distance == -0.5 && x < 0.0) as i32;
    (nearest + away) as i8
}

/// A weight matrix stored as symmetric per-row quantized integers.
///
/// Each row keeps its own scale `s = max|w| / max_level`, and the stored
/// integers are `round(w / s)` clamped to the representable range. The
/// levels are packed at the width's true size — four to a byte at 2 bits,
/// two at 4, one at 8 — so the matrix holds exactly the bytes
/// [`QuantizedMatrix::storage_bytes`] reports. The original shape is
/// preserved so the matrix can be dequantized or used directly in
/// [`crate::quantized_matmul`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    width: BitWidth,
    /// Row-major levels as `bits`-wide two's-complement fields, packed
    /// contiguously across row boundaries: flat level `i` lives in byte
    /// `i / per_byte` at bit `(i % per_byte) * bits`. The last byte's
    /// unused high bits are zero.
    packed: Vec<u8>,
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
            packed: pack_levels(width, &levels),
            scales,
        }
    }

    /// Builds a matrix from row-major levels and one scale per row — the
    /// inverse of reading every row with [`QuantizedMatrix::levels_row_into`].
    ///
    /// A level only has to fit the width's two's-complement field, so
    /// `-2^(bits-1)` (one below `-max_level`) is accepted: no quantizer
    /// produces it, and decoders that check levels against
    /// [`BitWidth::max_level`] must reject it.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != rows * cols`, `scales.len() != rows`, or
    /// a level does not fit in `width.bits()` bits.
    pub fn from_levels(
        rows: usize,
        cols: usize,
        width: BitWidth,
        levels: &[i8],
        scales: Vec<f32>,
    ) -> Self {
        assert_eq!(levels.len(), rows * cols, "one level per element");
        assert_eq!(scales.len(), rows, "one scale per row");
        let bits = width.bits();
        let (lo, hi) = (-(1i32 << (bits - 1)), (1i32 << (bits - 1)) - 1);
        assert!(
            levels.iter().all(|&l| (lo..=hi).contains(&(l as i32))),
            "a level does not fit in {bits} bits"
        );
        Self {
            rows,
            cols,
            width,
            packed: pack_levels(width, levels),
            scales,
        }
    }

    /// Reconstructs an approximate full-precision matrix.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        self.dequantize_into(&mut out);
        out
    }

    /// [`QuantizedMatrix::dequantize`] into an existing matrix, reusing its
    /// buffer when it already has this shape (it is replaced otherwise).
    /// Every element is exactly `level as f32 * scale`.
    pub fn dequantize_into(&self, out: &mut Matrix) {
        if out.shape() != self.shape() {
            *out = Matrix::zeros(self.rows, self.cols);
        }
        self.dequantize_rows(0..self.rows, out.as_mut_slice());
    }

    /// Dequantizes one row into `out`: `out[c] = level(row, c) as f32 *
    /// scale(row)`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.cols()` or `row` is out of range.
    pub fn dequantize_row_into(&self, row: usize, out: &mut [f32]) {
        self.row_start(row, out.len());
        self.dequantize_rows(row..row + 1, out);
    }

    /// Dequantizes the rows in `rows` into `out`, which holds exactly their
    /// values, choosing the width's unpacking once for all of them.
    fn dequantize_rows(&self, rows: Range<usize>, out: &mut [f32]) {
        match self.width {
            BitWidth::Int2 => self.dequantize_rows_with(rows, out, |b| F32_LEVELS_2[b as usize]),
            BitWidth::Int4 => self.dequantize_rows_with(rows, out, |b| F32_LEVELS_4[b as usize]),
            BitWidth::Int8 => self.dequantize_rows_with(rows, out, |b| [b as i8 as f32]),
        }
    }

    #[inline(always)]
    fn dequantize_rows_with<const PER: usize>(
        &self,
        rows: Range<usize>,
        out: &mut [f32],
        expand: impl Fn(u8) -> [f32; PER] + Copy,
    ) {
        if self.cols == 0 {
            return;
        }
        for (r, out_row) in rows.zip(out.chunks_exact_mut(self.cols)) {
            let scale = self.scales[r];
            unpack(&self.packed, r * self.cols, out_row, expand, |level| {
                level * scale
            });
        }
    }

    /// Unpacks the integer levels of one row into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.cols()` or `row` is out of range.
    pub fn levels_row_into(&self, row: usize, out: &mut [i8]) {
        self.levels_flat_into(self.row_start(row, out.len()), out);
    }

    /// The `out.len()` levels from flat index `start` on.
    fn levels_flat_into(&self, start: usize, out: &mut [i8]) {
        let packed = &self.packed;
        match self.width {
            BitWidth::Int2 => unpack(packed, start, out, |b| LEVELS_2[b as usize], |l| l),
            BitWidth::Int4 => unpack(packed, start, out, |b| LEVELS_4[b as usize], |l| l),
            BitWidth::Int8 => unpack(packed, start, out, |b| [b as i8], |l| l),
        }
    }

    /// Flat index of `row`'s first level, checking a row's output length.
    fn row_start(&self, row: usize, out_len: usize) -> usize {
        assert!(row < self.rows, "row {row} out of range");
        assert_eq!(out_len, self.cols, "one output per column");
        row * self.cols
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
    ///
    /// # Panics
    ///
    /// Panics if `(row, col)` is out of range.
    #[inline]
    pub fn level(&self, row: usize, col: usize) -> i8 {
        assert!(
            row < self.rows && col < self.cols,
            "({row}, {col}) out of range"
        );
        let mut level = [0i8];
        self.levels_flat_into(row * self.cols + col, &mut level);
        level[0]
    }

    /// Per-row scale factors.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Bytes the matrix holds: the packed levels plus one f32 scale per row.
    pub fn storage_bytes(&self) -> usize {
        self.packed.len() + self.scales.len() * 4
    }
}

/// `table[byte]`: the levels packed in `byte` (slot 0 in the low bits), as
/// `bits`-wide two's-complement fields sign-extended, for each of the 256
/// byte values.
const fn level_table<const PER: usize>() -> [[i8; PER]; 256] {
    let bits = 8 / PER;
    let mut table = [[0i8; PER]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut slot = 0;
        while slot < PER {
            let field = ((byte >> (slot * bits)) as u8) << (8 - bits);
            table[byte][slot] = (field as i8) >> (8 - bits);
            slot += 1;
        }
        byte += 1;
    }
    table
}

/// [`level_table`] with every level as `f32`.
const fn f32_level_table<const PER: usize>() -> [[f32; PER]; 256] {
    let levels = level_table::<PER>();
    let mut table = [[0.0f32; PER]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut slot = 0;
        while slot < PER {
            table[byte][slot] = levels[byte][slot] as f32;
            slot += 1;
        }
        byte += 1;
    }
    table
}

static LEVELS_2: [[i8; 4]; 256] = level_table();
static LEVELS_4: [[i8; 2]; 256] = level_table();
static F32_LEVELS_2: [[f32; 4]; 256] = f32_level_table();
static F32_LEVELS_4: [[f32; 2]; 256] = f32_level_table();

/// Writes `f(level)` for the `out.len()` levels starting at flat index
/// `start`, where `expand(byte)` gives the `PER` levels a packed byte holds
/// (slot 0 in the low bits): slot by slot up to the first byte boundary and
/// after the last, whole bytes in between.
#[inline(always)]
fn unpack<const PER: usize, L: Copy, T>(
    packed: &[u8],
    start: usize,
    out: &mut [T],
    expand: impl Fn(u8) -> [L; PER],
    f: impl Fn(L) -> T,
) {
    let level = |i: usize| expand(packed[i / PER])[i % PER];
    let head = (start.next_multiple_of(PER) - start).min(out.len());
    let body = (out.len() - head) / PER * PER;
    let (head_out, rest) = out.split_at_mut(head);
    let (body_out, tail_out) = rest.split_at_mut(body);
    for (k, o) in head_out.iter_mut().enumerate() {
        *o = f(level(start + k));
    }
    let first = (start + head) / PER;
    let bytes = &packed[first..first + body / PER];
    // Two bytes per step: at 4 bits their four outputs go out together.
    let mut pairs = body_out.chunks_exact_mut(2 * PER);
    for (group, pair) in (&mut pairs).zip(bytes.chunks_exact(2)) {
        let (lo, hi) = group.split_at_mut(PER);
        for (o, l) in lo.iter_mut().zip(expand(pair[0])) {
            *o = f(l);
        }
        for (o, l) in hi.iter_mut().zip(expand(pair[1])) {
            *o = f(l);
        }
    }
    if let Some(&byte) = bytes.chunks_exact(2).remainder().first() {
        for (o, l) in pairs.into_remainder().iter_mut().zip(expand(byte)) {
            *o = f(l);
        }
    }
    let tail_start = start + head + body;
    for (k, o) in tail_out.iter_mut().enumerate() {
        *o = f(level(tail_start + k));
    }
}

/// Packs levels at `width`: see [`QuantizedMatrix`]'s layout. Each level
/// is kept to its low `width.bits()` bits.
fn pack_levels(width: BitWidth, levels: &[i8]) -> Vec<u8> {
    match width {
        BitWidth::Int2 => pack::<4>(levels),
        BitWidth::Int4 => pack::<2>(levels),
        BitWidth::Int8 => levels.iter().map(|&l| l as u8).collect(),
    }
}

/// Packs levels `PER` to a byte (slot 0 in the low bits), each as its low
/// `8 / PER` bits; the last byte's unused slots stay zero.
fn pack<const PER: usize>(levels: &[i8]) -> Vec<u8> {
    let bits = 8 / PER;
    let mask = (1u8 << bits) - 1;
    let byte = |group: &[i8]| {
        let mut byte = 0u8;
        for (slot, &level) in group.iter().enumerate() {
            byte |= (level as u8 & mask) << (slot * bits);
        }
        byte
    };
    let groups = levels.chunks_exact(PER);
    let tail = groups.remainder();
    let mut packed = Vec::with_capacity(levels.len().div_ceil(PER));
    packed.extend(groups.map(byte));
    if !tail.is_empty() {
        packed.push(byte(tail));
    }
    packed
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
    fn storage_bytes_is_what_the_matrix_holds() {
        let mut rng = SeededRng::new(7);
        for (rows, cols) in [(1, 1), (3, 5), (4, 7), (2, 8), (5, 3)] {
            let w = Matrix::random_normal(rows, cols, 1.0, &mut rng);
            for width in BitWidth::all() {
                let q = QuantizedMatrix::quantize(&w, width);
                assert_eq!(q.packed.len(), width.storage_bytes(rows * cols));
                assert_eq!(q.packed.capacity(), q.packed.len());
                assert_eq!(q.scales.len(), rows);
                assert_eq!(q.storage_bytes(), q.packed.len() + 4 * q.scales.len());
            }
        }
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
                let mut stored = [0i8; 9];
                q.levels_row_into(r, &mut stored);
                assert_eq!(levels, stored);
            }
        }
        // Degenerate rows keep a usable scale.
        assert_eq!(quantize_row(&[], BitWidth::Int4, &mut []), 1.0);
        let mut levels = [9i8; 2];
        assert_eq!(quantize_row(&[0.0, -0.0], BitWidth::Int4, &mut levels), 1.0);
        assert_eq!(levels, [0, 0]);
    }

    #[test]
    fn round_level_is_f32_round() {
        // Every tie and its neighbours one ulp away, at each level, plus
        // the special values.
        let mut xs = vec![f32::NAN, -f32::NAN, 0.0, -0.0, 1e-30, -1e-30];
        for n in -128..128 {
            for base in [n as f32, n as f32 + 0.5] {
                xs.extend([base, base.next_up(), base.next_down()]);
            }
        }
        for x in xs {
            let x = x.clamp(-127.0, 127.0);
            assert_eq!(round_level(x), x.round() as i8, "{x:?}");
        }
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
