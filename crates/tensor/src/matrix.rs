//! Row-major dense `f32` matrix.
//!
//! [`Matrix`] is the only tensor type in the reproduction. Sequences of
//! token embeddings are `(seq_len, d_model)` matrices, expert weights are
//! `(d_in, d_out)` matrices, and batches are represented as collections of
//! matrices. Matmul — the training hot path — runs through a depth-blocked
//! driver over register-tile kernels that read both operands where they lie
//! ([`Matrix::try_matmul`]; nothing is packed), with fused-transpose
//! variants ([`Matrix::matmul_transa`], [`Matrix::matmul_transb`]) and
//! vector fast paths ([`Matrix::matvec`], [`Matrix::vecmat`]) so the
//! backward pass never materializes transposed weights.

use crate::error::TensorError;
use crate::rng::SeededRng;
use crate::simd;
use crate::{scratch, Result};

/// Depth (k) blocking factor of the matmul kernel: a tile sweeps at most
/// `KC` depth steps before moving on, so the rows of `B` it touches stay
/// cache-resident across the row tiles of one block.
/// Must remain a multiple of the depth unroll factor (4) so the scalar
/// level's four-term grouping never straddles a block boundary; the Gram
/// kernel ([`crate::gram`]) blocks its depth the same way so its entries
/// equal [`Matrix::matmul_transb`]'s bit for bit.
pub(crate) const KC: usize = 128;

/// Accumulates `out += a · b` where `a` is `(m, k)`, `b` is `(k, n)` and
/// `out` is `(m, n)`, all row-major. The caller provides `out` already
/// initialized (zeros for a plain matmul, broadcast bias rows for the fused
/// bias path), which is what makes the bias fusion free.
fn gemm_accumulate(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    gemm_strided(m, k, n, a, k, 1, b, n, out, n);
}

/// The strided general form of the blocked GEMM, `out += A · b` with `A`
/// addressed through two strides: `A[i][p] = a[i·rs + p·ds]`, so a
/// row-major operand with rows `lda` apart is `(rs, ds) = (lda, 1)` and the
/// transpose of one is `(1, lda)` — read in place either way, never packed
/// or copied. `b` rows are `ldb` apart, `out` rows `ldc` apart.
/// The fused block-diagonal attention path drives this directly on row
/// slices of packed activations, with the padded scores matrix as `out` —
/// no `copy_rows`/`paste_rows` staging, and **bit-identical** results to
/// the dense entry points because strides and leading dimensions never
/// enter the arithmetic.
///
/// The tile kernel comes from the runtime dispatch table
/// ([`crate::simd::active`]): the scalar reference or AVX2+FMA. Each
/// variant's per-element accumulation order is fixed and independent of
/// `m`/`n`/tile height/blocking, which is what keeps every variant
/// individually deterministic across thread counts and batch shapes. The
/// kernel checks the extents of every tile it is handed.
#[allow(clippy::too_many_arguments)]
fn gemm_strided(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    rs: usize,
    ds: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let kern = simd::active();
    for kk0 in (0..k).step_by(KC) {
        let kc = KC.min(k - kk0);
        let b_panel = &b[kk0 * ldb..];
        for i0 in (0..m).step_by(kern.mr) {
            (kern.tile)(
                kern.mr.min(m - i0),
                &a[i0 * rs + kk0 * ds..],
                rs,
                ds,
                kc,
                b_panel,
                ldb,
                n,
                &mut out[i0 * ldc..],
                ldc,
            );
        }
    }
}

/// Writes the transpose of the row-major `(rows, cols)` block at the head of
/// `src` into `dst` (`dst[c · rows + r] = src[r · cols + c]`) — the `B`-side
/// staging copy of the `transb` entry points, the one operand the kernels
/// cannot read in place (they vectorise along its columns). Eight source
/// rows advance together so every write run is eight contiguous elements
/// instead of one element per cache line.
fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    const STRIP: usize = 8;
    let src = &src[..rows * cols];
    let dst = &mut dst[..rows * cols];
    let mut r0 = 0;
    while r0 + STRIP <= rows {
        let strip: [&[f32]; STRIP] = std::array::from_fn(|i| &src[(r0 + i) * cols..][..cols]);
        for c in 0..cols {
            for (slot, row) in dst[c * rows + r0..][..STRIP].iter_mut().zip(&strip) {
                *slot = row[c];
            }
        }
        r0 += STRIP;
    }
    for r in r0..rows {
        for (c, &v) in src[r * cols..][..cols].iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

/// Dot product with four independent accumulators (instruction-level
/// parallelism plus a fixed, deterministic association order).
fn dot4(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = [0.0f32; 4];
    let chunks = a.len() / 4;
    for c in 0..chunks {
        let i = 4 * c;
        s[0] += a[i] * b[i];
        s[1] += a[i + 1] * b[i + 1];
        s[2] += a[i + 2] * b[i + 2];
        s[3] += a[i + 3] * b[i + 3];
    }
    let mut tail = 0.0;
    for i in 4 * chunks..a.len() {
        tail += a[i] * b[i];
    }
    (s[0] + s[1]) + (s[2] + s[3]) + tail
}

/// A dense, row-major matrix of `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    // A plain drop. Kept only because `benchmark/src/replay.rs` l.672-708
    // still calls it and `benchmark/**` changes in benchmark-only PRs; goes
    // with ROADMAP "Benchmark hygiene" (a).
    #[doc(hidden)]
    pub fn recycle(self) {}

    /// Creates a matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::InvalidArgument(format!(
                "buffer of length {} cannot form a {}x{} matrix",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a slice of equally-sized rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows passed to from_rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix with entries sampled i.i.d. from `N(0, std_dev²)`.
    pub fn random_normal(rows: usize, cols: usize, std_dev: f32, rng: &mut SeededRng) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.normal_with(0.0, std_dev))
            .collect();
        Self { rows, cols, data }
    }

    /// Creates a matrix with entries sampled uniformly from `[lo, hi)`.
    pub fn random_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut SeededRng) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.uniform_range(lo, hi))
            .collect();
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reads the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Writes the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// Immutable view of one row.
    #[inline]
    pub fn row(&self, row: usize) -> &[f32] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable view of one row.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Copies one column into a new vector.
    pub fn col(&self, col: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, col)).collect()
    }

    /// Returns a new matrix holding the selected rows, in order.
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &src) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(src));
        }
        out
    }

    /// Copies the contiguous row range `[start, end)` into a new matrix.
    /// This is the segment-slicing primitive of the batched training path:
    /// per-sample blocks of a packed `(total_tokens, d)` activation matrix
    /// are carved out with one contiguous copy.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.rows()`.
    pub fn copy_rows(&self, start: usize, end: usize) -> Self {
        assert!(start <= end && end <= self.rows, "row range out of bounds");
        let mut out = Matrix::zeros(end - start, self.cols);
        out.data
            .copy_from_slice(&self.data[start * self.cols..end * self.cols]);
        out
    }

    /// Copies the contiguous column range `[start, end)` into a new matrix.
    /// Used to split the output of a fused wide GEMM (e.g. the attention
    /// Q/K/V projection) back into its logical operands.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.cols()`.
    pub fn copy_cols(&self, start: usize, end: usize) -> Self {
        assert!(
            start <= end && end <= self.cols,
            "column range out of bounds"
        );
        let width = end - start;
        let mut out = Matrix::zeros(self.rows, width);
        for r in 0..self.rows {
            out.row_mut(r)
                .copy_from_slice(&self.data[r * self.cols + start..r * self.cols + end]);
        }
        out
    }

    /// Writes `block` over the rows starting at `start` (the inverse of
    /// [`Matrix::copy_rows`]).
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ or the block overruns the rows.
    pub fn paste_rows(&mut self, start: usize, block: &Matrix) {
        assert_eq!(self.cols, block.cols, "paste_rows column mismatch");
        assert!(start + block.rows <= self.rows, "paste_rows overruns rows");
        self.data[start * self.cols..(start + block.rows) * self.cols].copy_from_slice(&block.data);
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Matrix multiplication `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not agree. Use [`Matrix::try_matmul`]
    /// for a fallible variant.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.try_matmul(other)
            .expect("matmul dimension mismatch; use try_matmul for fallible call")
    }

    /// Fallible matrix multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `self.cols != other.rows`.
    pub fn try_matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        gemm_accumulate(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
        Ok(out)
    }

    /// Fused `self · other + bias` where `bias` broadcasts over rows.
    ///
    /// The output rows are initialized with the bias before the blocked
    /// kernel accumulates into them, so the fusion costs nothing beyond the
    /// matmul itself (and saves the full extra pass plus allocation a
    /// separate broadcast-add would pay).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `self.cols != other.rows`
    /// or `bias.len() != other.cols`.
    pub fn try_matmul_bias(&self, other: &Matrix, bias: &[f32]) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_bias",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        if bias.len() != other.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_bias",
                lhs: other.shape(),
                rhs: (1, bias.len()),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(bias);
        }
        gemm_accumulate(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
        Ok(out)
    }

    /// `selfᵀ · other` without materializing the transpose.
    ///
    /// `self` is `(k, m)`, `other` is `(k, n)`, the result is `(m, n)`.
    /// Replaces the `a.transpose().matmul(b)` pattern of the backward
    /// passes, bit for bit: the kernel walks `self` column-wise where it
    /// lies, so no transposed copy exists even as scratch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the row counts differ.
    pub fn matmul_transa(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_transa",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        if m == 0 || n == 0 || k == 0 {
            return Ok(out);
        }
        // `self` is read in place, down its columns: row stride 1, depth
        // stride `m`.
        gemm_strided(m, k, n, &self.data, 1, m, &other.data, n, &mut out.data, n);
        Ok(out)
    }

    /// `self · otherᵀ` without materializing the transpose.
    ///
    /// `self` is `(m, k)`, `other` is `(n, k)`, the result is `(m, n)`:
    /// every output element is a dot product of two contiguous rows, the
    /// cache-friendliest shape there is. Replaces the
    /// `a.matmul(&b.transpose())` pattern of attention scores and weight
    /// backward passes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the column counts differ.
    pub fn matmul_transb(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_transb",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, n, k) = (self.rows, other.rows, self.cols);
        let mut out = Matrix::zeros(m, n);
        if m == 0 || n == 0 || k == 0 {
            return Ok(out);
        }
        // Per-element dot products (the obvious formulation) are scalar
        // ILP-bound and ran ~5× slower than the blocked kernel at a few
        // hundred columns. Instead, transpose `other` once into scratch —
        // one cheap pass — and reuse the vectorizing blocked kernel.
        scratch::with(k * n, |bt| {
            transpose_into(&other.data, n, k, bt);
            gemm_strided(m, k, n, &self.data, k, 1, bt, n, &mut out.data, n);
        });
        Ok(out)
    }

    /// Matrix–vector product `self · x` (fast path, no `Matrix` wrapping).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `x.len() != self.cols`.
    pub fn matvec(&self, x: &[f32]) -> Result<Vec<f32>> {
        if x.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        Ok((0..self.rows).map(|r| dot4(self.row(r), x)).collect())
    }

    /// Vector–matrix product `xᵀ · self` (fast path, no `Matrix` wrapping).
    ///
    /// Produces bit-identical results to routing a `(1, k)` matrix through
    /// [`Matrix::try_matmul`]: both are the same call into the blocked GEMM.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `x.len() != self.rows`.
    pub fn vecmat(&self, x: &[f32]) -> Result<Vec<f32>> {
        if x.len() != self.rows {
            return Err(TensorError::ShapeMismatch {
                op: "vecmat",
                lhs: (1, x.len()),
                rhs: self.shape(),
            });
        }
        let mut out = vec![0.0; self.cols];
        // A `(1, k)` matmul, spelled without the `Matrix`: the same tile
        // kernel at height one, over the same depth blocks, so the result
        // is bit-identical to `try_matmul` at every level.
        gemm_strided(
            1, self.rows, self.cols, x, 0, 1, &self.data, self.cols, &mut out, self.cols,
        );
        Ok(out)
    }

    /// Block-diagonal `selfᵢ · otherᵢᵀ` over per-sample row blocks.
    ///
    /// `self` and `other` are packed `(total_rows, d)` matrices sharing the
    /// same `bounds` partition; for each block `[start, end)` of length
    /// `len` the `(len, len)` product `self[start..end) · other[start..end)ᵀ`
    /// is written into rows `[start, end)`, columns `[0, len)` of the padded
    /// `(total_rows, pad_cols)` result (remaining columns stay zero). This
    /// is the attention-scores shape: one fused pass over the packed batch
    /// instead of per-sample `copy_rows` + `matmul_transb` + `paste_rows`,
    /// **bit-identical** per element because the same dispatched kernels run
    /// over the same values (leading dimensions never enter the arithmetic).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ, a bound overruns the rows, or a block is
    /// longer than `pad_cols`.
    pub fn block_diag_matmul_transb(
        &self,
        other: &Matrix,
        bounds: &[(usize, usize)],
        pad_cols: usize,
    ) -> Matrix {
        assert_eq!(self.cols, other.cols, "block_diag_matmul_transb widths");
        let d = self.cols;
        let mut out = Matrix::zeros(self.rows, pad_cols);
        for &(start, end) in bounds {
            assert!(start <= end && end <= self.rows && end <= other.rows);
            let len = end - start;
            assert!(len <= pad_cols, "block longer than pad_cols");
            if len == 0 || d == 0 {
                continue;
            }
            // Transpose the B block once into scratch (as matmul_transb
            // does), then run the strided kernel straight on the row slices.
            scratch::with(d * len, |bt| {
                transpose_into(&other.data[start * d..], len, d, bt);
                gemm_strided(
                    len,
                    d,
                    len,
                    &self.data[start * d..],
                    d,
                    1,
                    bt,
                    len,
                    &mut out.data[start * pad_cols..],
                    pad_cols,
                );
            });
        }
        out
    }

    /// Block-diagonal `selfᵢ · otherᵢ` where `self` is a padded
    /// `(total_rows, pad_cols)` block matrix (square `(len, len)` blocks in
    /// the leading columns, as produced by
    /// [`Matrix::block_diag_matmul_transb`]) and `other` is a packed
    /// `(total_rows, d)` matrix. Returns the packed `(total_rows, d)`
    /// result — the attention `probs · V` shape.
    ///
    /// # Panics
    ///
    /// Panics if a bound overruns the rows or a block is wider than the
    /// padding.
    pub fn block_diag_matmul(&self, other: &Matrix, bounds: &[(usize, usize)]) -> Matrix {
        let pad = self.cols;
        let d = other.cols;
        let mut out = Matrix::zeros(self.rows, d);
        for &(start, end) in bounds {
            assert!(start <= end && end <= self.rows && end <= other.rows);
            let len = end - start;
            assert!(len <= pad, "block wider than padding");
            if len == 0 || d == 0 {
                continue;
            }
            gemm_strided(
                len,
                len,
                d,
                &self.data[start * pad..],
                pad,
                1,
                &other.data[start * d..],
                d,
                &mut out.data[start * d..],
                d,
            );
        }
        out
    }

    /// Block-diagonal `selfᵢᵀ · otherᵢ` where `self` is a padded
    /// `(total_rows, pad_cols)` block matrix with square blocks and `other`
    /// is packed `(total_rows, d)`. Returns the packed `(total_rows, d)`
    /// result — the attention `probsᵀ · grad` shape of the backward pass.
    ///
    /// # Panics
    ///
    /// Panics if a bound overruns the rows or a block is wider than the
    /// padding.
    pub fn block_diag_matmul_transa(&self, other: &Matrix, bounds: &[(usize, usize)]) -> Matrix {
        let pad = self.cols;
        let d = other.cols;
        let mut out = Matrix::zeros(self.rows, d);
        for &(start, end) in bounds {
            assert!(start <= end && end <= self.rows && end <= other.rows);
            let len = end - start;
            assert!(len <= pad, "block wider than padding");
            if len == 0 || d == 0 {
                continue;
            }
            // The (len, len) block is read in place, column-wise, out of
            // the padded storage (as `matmul_transa` reads its operand).
            gemm_strided(
                len,
                len,
                d,
                &self.data[start * pad..],
                1,
                pad,
                &other.data[start * d..],
                d,
                &mut out.data[start * d..],
                d,
            );
        }
        out
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "hadamard", |a, b| a * b)
    }

    /// In-place `self += scale * other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_scaled(&mut self, other: &Matrix, scale: f32) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add_scaled",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        // Dispatched AXPY kernel (bit-identical across SIMD levels): this is
        // the FedAvg reduce / gradient-accumulation hot loop.
        (simd::active().axpy)(&mut self.data, &other.data, scale);
        Ok(())
    }

    /// Returns a scaled copy of the matrix.
    pub fn scale(&self, factor: f32) -> Matrix {
        let data = self.data.iter().map(|x| x * factor).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scales the matrix in place.
    pub fn scale_in_place(&mut self, factor: f32) {
        for x in &mut self.data {
            *x *= factor;
        }
    }

    /// Applies a function to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Adds a row vector to every row (broadcast add).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `bias.len() != cols`.
    pub fn add_row_broadcast(&self, bias: &[f32]) -> Result<Matrix> {
        if bias.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.shape(),
                rhs: (1, bias.len()),
            });
        }
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(bias.iter()) {
                *o += b;
            }
        }
        Ok(out)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Flattens the matrix into a feature vector (row-major order).
    pub fn flatten(&self) -> Vec<f32> {
        self.data.clone()
    }

    /// Sums every row into a single row vector.
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, &x) in out.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        out
    }

    /// Stacks matrices vertically.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when column counts differ, and
    /// [`TensorError::InvalidArgument`] for an empty input list.
    pub fn vstack(parts: &[&Matrix]) -> Result<Matrix> {
        let first = parts
            .first()
            .ok_or_else(|| TensorError::InvalidArgument("vstack of zero matrices".into()))?;
        let cols = first.cols;
        let mut data = Vec::new();
        let mut rows = 0;
        for p in parts {
            if p.cols != cols {
                return Err(TensorError::ShapeMismatch {
                    op: "vstack",
                    lhs: (rows, cols),
                    rhs: p.shape(),
                });
            }
            data.extend_from_slice(&p.data);
            rows += p.rows;
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Stacks matrices horizontally (side by side).
    ///
    /// The fused attention projection concatenates `[Wq | Wk | Wv]` this
    /// way once and caches the result, turning three GEMMs into one.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when row counts differ, and
    /// [`TensorError::InvalidArgument`] for an empty input list.
    pub fn hstack(parts: &[&Matrix]) -> Result<Matrix> {
        let first = parts
            .first()
            .ok_or_else(|| TensorError::InvalidArgument("hstack of zero matrices".into()))?;
        let rows = first.rows;
        let mut cols = 0;
        for p in parts {
            if p.rows != rows {
                return Err(TensorError::ShapeMismatch {
                    op: "hstack",
                    lhs: (rows, cols),
                    rhs: p.shape(),
                });
            }
            cols += p.cols;
        }
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            let out_row = out.row_mut(r);
            for p in parts {
                out_row[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        Ok(out)
    }

    // Shared implementation of the element-wise binary operations.
    fn zip_with(
        &self,
        other: &Matrix,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_filled() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let f = Matrix::filled(2, 2, 3.5);
        assert!(f.as_slice().iter().all(|&x| x == 3.5));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let mut rng = SeededRng::new(1);
        let a = Matrix::random_normal(4, 4, 1.0, &mut rng);
        let i = Matrix::identity(4);
        let prod = a.matmul(&i);
        for (x, y) in prod.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.get(0, 0), 19.0);
        assert_eq!(c.get(0, 1), 22.0);
        assert_eq!(c.get(1, 0), 43.0);
        assert_eq!(c.get(1, 1), 50.0);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.try_matmul(&b),
            Err(TensorError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn transpose_round_trip() {
        let mut rng = SeededRng::new(2);
        let a = Matrix::random_uniform(3, 5, -1.0, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_sub_hadamard() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 5.0]]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 3.0]);
        assert_eq!(a.hadamard(&b).unwrap().as_slice(), &[3.0, 10.0]);
    }

    #[test]
    fn add_shape_mismatch() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(2, 1);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.add_scaled(&b, 0.5).unwrap();
        assert!(a.as_slice().iter().all(|&x| (x - 2.0).abs() < 1e-6));
    }

    #[test]
    fn row_broadcast() {
        let a = Matrix::zeros(2, 3);
        let out = a.add_row_broadcast(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[1.0, 2.0, 3.0]);
        assert!(a.add_row_broadcast(&[1.0]).is_err());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn select_rows_copies_in_order() {
        let a = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let s = a.select_rows(&[3, 1]);
        assert_eq!(s.as_slice(), &[3.0, 1.0]);
    }

    #[test]
    fn copy_and_paste_rows_round_trip() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![2.0, 3.0], vec![4.0, 5.0]]);
        let block = a.copy_rows(1, 3);
        assert_eq!(block.shape(), (2, 2));
        assert_eq!(block.as_slice(), &[2.0, 3.0, 4.0, 5.0]);
        let mut b = Matrix::zeros(3, 2);
        b.paste_rows(1, &block);
        assert_eq!(b.row(0), &[0.0, 0.0]);
        assert_eq!(b.row(1), &[2.0, 3.0]);
        assert_eq!(b.row(2), &[4.0, 5.0]);
        // An empty range is a valid (0, cols) matrix.
        assert_eq!(a.copy_rows(2, 2).shape(), (0, 2));
    }

    #[test]
    #[should_panic(expected = "row range out of bounds")]
    fn copy_rows_rejects_overrun() {
        Matrix::zeros(2, 2).copy_rows(1, 3);
    }

    #[test]
    #[should_panic(expected = "overruns rows")]
    fn paste_rows_rejects_overrun() {
        let block = Matrix::zeros(2, 2);
        Matrix::zeros(2, 2).paste_rows(1, &block);
    }

    #[test]
    fn copy_cols_slices_columns() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0, 2.0], vec![3.0, 4.0, 5.0]]);
        let mid = a.copy_cols(1, 3);
        assert_eq!(mid.shape(), (2, 2));
        assert_eq!(mid.as_slice(), &[1.0, 2.0, 4.0, 5.0]);
        // An empty range is a valid (rows, 0) matrix.
        assert_eq!(a.copy_cols(2, 2).shape(), (2, 0));
    }

    #[test]
    #[should_panic(expected = "column range out of bounds")]
    fn copy_cols_rejects_overrun() {
        Matrix::zeros(2, 2).copy_cols(1, 3);
    }

    #[test]
    fn hstack_concatenates() {
        let a = Matrix::from_rows(&[vec![1.0], vec![3.0]]);
        let b = Matrix::from_rows(&[vec![2.0, 9.0], vec![4.0, 8.0]]);
        let s = Matrix::hstack(&[&a, &b]).unwrap();
        assert_eq!(s.shape(), (2, 3));
        assert_eq!(s.row(0), &[1.0, 2.0, 9.0]);
        assert_eq!(s.row(1), &[3.0, 4.0, 8.0]);
        // Round-trip: copy_cols splits what hstack joined.
        assert_eq!(s.copy_cols(0, 1), a);
        assert_eq!(s.copy_cols(1, 3), b);
        let c = Matrix::zeros(3, 1);
        assert!(Matrix::hstack(&[&a, &c]).is_err());
        assert!(Matrix::hstack(&[]).is_err());
    }

    #[test]
    fn matmul_cols_are_independent_of_col_count() {
        // The fused attention projection relies on this: widening B by
        // stacking more columns must not change any individual output
        // column's result bits.
        let mut rng = SeededRng::new(11);
        let a = Matrix::random_normal(17, 93, 1.0, &mut rng);
        let b1 = Matrix::random_normal(93, 19, 1.0, &mut rng);
        let b2 = Matrix::random_normal(93, 19, 1.0, &mut rng);
        let fused = a.matmul(&Matrix::hstack(&[&b1, &b2]).unwrap());
        assert_eq!(fused.copy_cols(0, 19), a.matmul(&b1));
        assert_eq!(fused.copy_cols(19, 38), a.matmul(&b2));
    }

    #[test]
    fn matmul_rows_are_independent_of_row_count() {
        // The batched training path relies on this: packing more rows into
        // one operand must not change any individual row's result bits.
        let mut rng = SeededRng::new(7);
        let a = Matrix::random_normal(9, 150, 1.0, &mut rng);
        let b = Matrix::random_normal(150, 31, 1.0, &mut rng);
        let full = a.matmul(&b);
        for r in 0..a.rows() {
            let single = a.copy_rows(r, r + 1).matmul(&b);
            assert_eq!(single.as_slice(), full.row(r), "row {r} diverged");
        }
    }

    #[test]
    fn block_diag_ops_match_per_block_reference() {
        // Ragged blocks, including a length-1 and an empty block; the fused
        // block-diagonal entry points must be bitwise equal to slicing each
        // block out and using the dense kernels.
        let mut rng = SeededRng::new(23);
        let bounds = [(0usize, 3usize), (3, 3), (3, 4), (4, 9)];
        let total = 9;
        let d = 6;
        let a = Matrix::random_normal(total, d, 1.0, &mut rng);
        let b = Matrix::random_normal(total, d, 1.0, &mut rng);
        let pad = bounds.iter().map(|&(s, e)| e - s).max().unwrap();
        let scores = a.block_diag_matmul_transb(&b, &bounds, pad);
        assert_eq!(scores.shape(), (total, pad));
        for &(start, end) in &bounds {
            let len = end - start;
            let reference = a
                .copy_rows(start, end)
                .matmul_transb(&b.copy_rows(start, end))
                .unwrap();
            for r in 0..len {
                assert_eq!(&scores.row(start + r)[..len], reference.row(r));
                // Padding stays zero.
                assert!(scores.row(start + r)[len..].iter().all(|&x| x == 0.0));
            }
        }
        let mixed = scores.block_diag_matmul(&b, &bounds);
        let folded = scores.block_diag_matmul_transa(&b, &bounds);
        for &(start, end) in &bounds {
            let len = end - start;
            if len == 0 {
                continue;
            }
            let mut block = Matrix::zeros(len, len);
            for r in 0..len {
                block
                    .row_mut(r)
                    .copy_from_slice(&scores.row(start + r)[..len]);
            }
            let bs = b.copy_rows(start, end);
            let expect_mixed = block.matmul(&bs);
            let expect_folded = block.matmul_transa(&bs).unwrap();
            assert_eq!(mixed.copy_rows(start, end), expect_mixed);
            assert_eq!(folded.copy_rows(start, end), expect_folded);
        }
    }

    #[test]
    fn matmul_transa_matches_explicit_transpose() {
        let mut rng = SeededRng::new(29);
        for &(k, m, n) in &[(7usize, 5usize, 9usize), (1, 3, 2), (130, 4, 4)] {
            let a = Matrix::random_normal(k, m, 1.0, &mut rng);
            let b = Matrix::random_normal(k, n, 1.0, &mut rng);
            let fused = a.matmul_transa(&b).unwrap();
            let reference = a.transpose().matmul(&b);
            assert_eq!(fused, reference, "({k},{m},{n})");
        }
    }

    #[test]
    fn sum_mean_norm() {
        let a = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert_eq!(a.sum(), 7.0);
        assert_eq!(a.mean(), 3.5);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn sum_rows_collapses() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.sum_rows(), vec![4.0, 6.0]);
    }

    #[test]
    fn vstack_concatenates() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]);
        let s = Matrix::vstack(&[&a, &b]).unwrap();
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(2), &[5.0, 6.0]);
        let c = Matrix::zeros(1, 3);
        assert!(Matrix::vstack(&[&a, &c]).is_err());
        assert!(Matrix::vstack(&[]).is_err());
    }

    #[test]
    fn map_and_scale() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0]]);
        assert_eq!(a.map(f32::abs).as_slice(), &[1.0, 2.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, -4.0]);
        let mut b = a.clone();
        b.scale_in_place(-1.0);
        assert_eq!(b.as_slice(), &[-1.0, 2.0]);
    }
}
