//! Communication compression for expert uploads.
//!
//! Participants encode their updates as `new − base` deltas against the
//! round-start snapshot instead of shipping full-precision dense tensors.
//! Three knobs, all per-run via [`CompressionConfig`]:
//!
//! * **Lossless delta** — the delta is the bitwise XOR of the new and base
//!   f32 words. Decoding XORs the base back in, so the reconstruction is
//!   **bit-identical** for every value (including zeros, subnormals and
//!   NaN payloads) — unlike an arithmetic `base + (new − base)`, which
//!   rounds. Fine-tuning deltas leave sign, exponent and the high mantissa
//!   bits of most weights untouched, so the XOR words are mostly leading
//!   zeros and the simulated wire format charges only the significant
//!   bytes of each changed word (plus a changed-word bitmap).
//! * **Quantization** — the arithmetic delta is quantized with the
//!   symmetric per-row [`QuantizedMatrix`] scheme at int8/int4 (int2 also
//!   works). Lossy: the decoded expert is `base + dequantize(delta)`.
//! * **Top-k sparsification** — only the `⌈k·n⌉` largest-magnitude delta
//!   entries ship; near-zero deltas are dropped. Composes with
//!   quantization (the surviving values quantize against one shared
//!   scale). The survivors are found by *selection* on integer magnitude
//!   keys, not by sorting, so encoding costs time linear in the tensor
//!   size (see [`EncodedTensor::encode`]).
//!
//! Every upload is sealed with a word-wise content checksum
//! ([`EncodedUpload::content_checksum`]) that staging verifies before it
//! touches a tensor.
//!
//! The decode point is [`crate::aggregate::ShardedAggregator`] staging:
//! decoded updates reduce under the same per-shard locks and
//! participant-id-ordered reduction as dense uploads, so compression never
//! perturbs aggregation order.

use std::borrow::Borrow;
use std::sync::Arc;

use flux_moe::{Expert, ExpertKey, MoeModel};
use flux_quant::{quantize_row, BitWidth, QuantizedMatrix};
use flux_tensor::codec::{fold, FNV_OFFSET};
use flux_tensor::rng::{mix64, GOLDEN_GAMMA};
use flux_tensor::{scratch, Matrix};

use crate::aggregate::{ExpertUpdate, SharedExpertUpdate};

/// Per-run upload compression knob.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum CompressionConfig {
    /// Legacy wire format: full-precision dense tensors, no delta.
    #[default]
    Dense,
    /// Bitwise XOR delta against the round-start snapshot. Decodes
    /// bit-identically; runs with this mode produce the same losses,
    /// scores and weights as [`CompressionConfig::Dense`].
    LosslessDelta,
    /// Arithmetic delta, optionally top-k sparsified and/or quantized.
    /// Lossy: decoded experts carry quantization/sparsification error,
    /// pinned within tolerance of dense golden traces by the integration
    /// suite.
    LossyDelta {
        /// Quantize the (surviving) delta entries at this width.
        quantization: Option<BitWidth>,
        /// Fraction of delta entries kept by top-k magnitude selection
        /// (`1.0` keeps everything; values are clamped to `[0, 1]`).
        top_k_fraction: f32,
    },
}

impl CompressionConfig {
    /// Lossy delta quantized at `width`, keeping every entry.
    pub fn quantized(width: BitWidth) -> Self {
        CompressionConfig::LossyDelta {
            quantization: Some(width),
            top_k_fraction: 1.0,
        }
    }

    /// Lossy delta: top-k sparsified, then quantized at `width`.
    pub fn quantized_sparse(width: BitWidth, top_k_fraction: f32) -> Self {
        CompressionConfig::LossyDelta {
            quantization: Some(width),
            top_k_fraction,
        }
    }

    /// Lossy delta: top-k sparsified full-precision values.
    pub fn sparse(top_k_fraction: f32) -> Self {
        CompressionConfig::LossyDelta {
            quantization: None,
            top_k_fraction,
        }
    }

    /// Whether this is the uncompressed legacy format.
    pub fn is_dense(&self) -> bool {
        matches!(self, CompressionConfig::Dense)
    }
}

/// Why an encoded payload failed to decode.
///
/// Malformed uploads — truncated payload vectors, bit-flipped words, rogue
/// expert keys, broken quantization parameters — are an expected input in
/// the paper's deployment (flaky edge links), so every decode path returns
/// a typed error instead of panicking; the aggregator rejects the upload
/// and the round carries on without it.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The upload's stored integrity checksum does not match its content.
    ChecksumMismatch {
        /// Checksum stamped at encode time.
        expected: u64,
        /// Checksum recomputed from the received content.
        actual: u64,
    },
    /// A payload or base buffer holds the wrong number of entries.
    LengthMismatch {
        /// Which buffer mismatched.
        what: &'static str,
        /// Entries required by the tensor shape.
        expected: usize,
        /// Entries actually present.
        actual: usize,
    },
    /// An expert key addresses a layer/expert the base model does not have.
    KeyOutOfRange {
        /// The rogue key.
        key: ExpertKey,
    },
    /// A sparse index addresses beyond the end of the tensor.
    IndexOutOfRange {
        /// The rogue flat index.
        index: usize,
        /// Number of entries in the tensor.
        len: usize,
    },
    /// Sparse indices are not strictly ascending (the encoder emits them in
    /// index order, so a repeat or a step back is forged or damaged).
    UnsortedIndices {
        /// Position in the index list of the first offending entry.
        position: usize,
    },
    /// Quantization parameters are unusable (non-finite scale, or a level
    /// that overflows the declared bit width).
    BadQuantization(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::ChecksumMismatch { expected, actual } => write!(
                f,
                "upload checksum mismatch: stored {expected:#018x}, content {actual:#018x}"
            ),
            DecodeError::LengthMismatch {
                what,
                expected,
                actual,
            } => write!(
                f,
                "{what} length mismatch: expected {expected}, got {actual}"
            ),
            DecodeError::KeyOutOfRange { key } => write!(
                f,
                "expert key out of range: layer {}, expert {}",
                key.layer, key.expert
            ),
            DecodeError::IndexOutOfRange { index, len } => {
                write!(f, "sparse index {index} out of range for {len} entries")
            }
            DecodeError::UnsortedIndices { position } => write!(
                f,
                "sparse index at position {position} is not above its predecessor"
            ),
            DecodeError::BadQuantization(msg) => write!(f, "bad quantization parameters: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Fixed per-tensor header charged by the simulated wire format (shape,
/// payload tag, scale bookkeeping).
const TENSOR_HEADER_BYTES: usize = 8;

/// Folds a vector of 32-bit words (`bits` maps an item to its word): the
/// length first — so a truncated vector can never alias a shorter one —
/// then the words packed two per fold (an odd tail is zero-extended; the
/// sealed length disambiguates).
#[inline]
fn fold_words<T: Copy>(mut hash: u64, items: &[T], bits: impl Fn(T) -> u32) -> u64 {
    hash = fold(hash, items.len() as u64);
    for pair in items.chunks(2) {
        let high = pair.get(1).map_or(0, |&item| bits(item) as u64);
        hash = fold(hash, bits(pair[0]) as u64 | high << 32);
    }
    hash
}

fn fold_u32s(hash: u64, words: &[u32]) -> u64 {
    fold_words(hash, words, |w| w)
}

fn fold_f32s(hash: u64, values: &[f32]) -> u64 {
    fold_words(hash, values, f32::to_bits)
}

/// Folds quantized levels: the length, then the levels packed eight per
/// fold (a short tail is zero-padded).
fn fold_levels(mut hash: u64, levels: &[i8]) -> u64 {
    hash = fold(hash, levels.len() as u64);
    for octet in levels.chunks(8) {
        let mut bytes = [0u8; 8];
        for (byte, &level) in bytes.iter_mut().zip(octet) {
            *byte = level as u8;
        }
        hash = fold(hash, u64::from_le_bytes(bytes));
    }
    hash
}

/// Integer sort key of a delta's magnitude: the f32 bit pattern with the
/// sign cleared. Monotone in `|δ|` for every finite value and total even
/// where float comparison is not — `±0 → 0`, then subnormals, normals,
/// `+∞`, and NaN payloads above everything.
#[inline]
fn magnitude_key(delta: f32) -> u32 {
    delta.to_bits() & 0x7fff_ffff
}

/// Wire payload of one encoded tensor.
#[derive(Debug, Clone)]
enum DeltaPayload {
    /// Raw f32 values (dense upload; decodes without a base).
    Dense(Vec<f32>),
    /// `new.to_bits() ^ base.to_bits()` per word. Bit-identical decode.
    Xor(Vec<u32>),
    /// Per-row quantized arithmetic delta.
    Quantized(QuantizedMatrix),
    /// Top-k full-precision delta entries at ascending flat indices.
    Sparse {
        /// Flat indices of the surviving entries.
        indices: Vec<u32>,
        /// Delta values at those indices.
        values: Vec<f32>,
    },
    /// Top-k delta entries quantized against one shared symmetric scale.
    SparseQuantized {
        /// Flat indices of the surviving entries.
        indices: Vec<u32>,
        /// Quantized levels at those indices.
        levels: Vec<i8>,
        /// Shared dequantization scale.
        scale: f32,
        /// Quantization width (prices the packed level bytes).
        width: BitWidth,
    },
}

/// One tensor of an expert upload in its encoded wire form.
#[derive(Debug, Clone)]
pub struct EncodedTensor {
    rows: usize,
    cols: usize,
    payload: DeltaPayload,
}

impl EncodedTensor {
    /// Encodes `new` against `base` (flattened, row-major; `base` must have
    /// the same length).
    fn encode_slices(
        new: &[f32],
        base: &[f32],
        rows: usize,
        cols: usize,
        config: CompressionConfig,
    ) -> Self {
        debug_assert_eq!(new.len(), base.len());
        debug_assert_eq!(new.len(), rows * cols);
        let payload = match config {
            CompressionConfig::Dense => DeltaPayload::Dense(new.to_vec()),
            CompressionConfig::LosslessDelta => DeltaPayload::Xor(
                new.iter()
                    .zip(base)
                    .map(|(n, b)| n.to_bits() ^ b.to_bits())
                    .collect(),
            ),
            CompressionConfig::LossyDelta {
                quantization,
                top_k_fraction,
            } => {
                let frac = top_k_fraction.clamp(0.0, 1.0);
                if frac >= 1.0 && quantization.is_none() {
                    // Degenerate lossy config: an un-quantized, un-sparsified
                    // delta. The XOR form carries the same information in
                    // fewer bytes and decodes exactly, so use it.
                    return Self::encode_slices(
                        new,
                        base,
                        rows,
                        cols,
                        CompressionConfig::LosslessDelta,
                    );
                }
                if frac >= 1.0 {
                    let width = quantization.expect("handled above");
                    let delta = new.iter().zip(base).map(|(n, b)| n - b).collect();
                    let delta_matrix = Matrix::from_vec(rows, cols, delta)
                        .expect("encoded tensor shape is consistent");
                    DeltaPayload::Quantized(QuantizedMatrix::quantize(&delta_matrix, width))
                } else if std::ptr::eq(new, base) {
                    // `new` is `base` itself (an upload sharing the
                    // snapshot's expert), so every delta is zero and none
                    // ships: the payload the selection below would reach,
                    // without its pass.
                    top_k_payload(Vec::new(), &[], quantization)
                } else {
                    encode_top_k(new, base, frac, quantization)
                }
            }
        };
        Self {
            rows,
            cols,
            payload,
        }
    }

    /// Encodes a matrix against its base.
    ///
    /// # Top-k selection
    ///
    /// A sparsifying config ships the `k = ⌈fraction·n⌉` largest-magnitude
    /// entries of `new − base`. Every delta is keyed by its magnitude bit
    /// pattern (`to_bits() & 0x7fff_ffff`, an integer that is monotone in
    /// `|δ|`), the k-th largest key is found with one `select_nth_unstable`
    /// over a scratch copy of the keys, and one pass in index order emits
    /// every entry above that threshold plus the first `k − above` entries
    /// equal to it. So the cost is linear in the tensor size, the indices
    /// leave already ascending, and the tie rule is exact: **among equal
    /// magnitudes (of either sign) the lower flat index wins**. Exact `±0`
    /// deltas key to 0 and never ship, even when `k` exceeds the number of
    /// non-zero entries.
    ///
    /// Integer keys make the order total by construction, so a diverged
    /// client's non-finite deltas cannot break the selection: `±∞` and NaN
    /// rank as the largest magnitudes and ship like any other value.
    /// Rejecting such poisoned values is the staging layer's job (the
    /// aggregation tree's `submit_encoded`), not the encoder's.
    ///
    /// When `new` and `base` are the same tensor in memory (an upload that
    /// shares the snapshot's expert), a sparsifying config emits the empty
    /// payload without scanning: the bytes and checksum of the scan's
    /// result for any finite tensor. (A base holding a NaN or infinite
    /// weight, which only a diverged model has, would make the scan ship
    /// `x − x = NaN` there; the shortcut ships nothing.)
    pub fn encode(new: &Matrix, base: &Matrix, config: CompressionConfig) -> Self {
        let (rows, cols) = new.shape();
        Self::encode_slices(new.as_slice(), base.as_slice(), rows, cols, config)
    }

    /// Encodes a bias vector (a 1×n tensor) against its base.
    pub fn encode_vec(new: &[f32], base: &[f32], config: CompressionConfig) -> Self {
        Self::encode_slices(new, base, 1, new.len(), config)
    }

    /// Tensor shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether decoding requires the base tensor (everything but the dense
    /// payload is a delta).
    pub fn needs_base(&self) -> bool {
        !matches!(self.payload, DeltaPayload::Dense(_))
    }

    /// Whether this is a sparse payload that ships no entry, valid against
    /// a base of `shape`: its decode would rebuild that base bit for bit.
    fn is_empty_delta_for(&self, shape: (usize, usize)) -> bool {
        (self.rows, self.cols) == shape
            && match &self.payload {
                DeltaPayload::Sparse { indices, values } => indices.is_empty() && values.is_empty(),
                DeltaPayload::SparseQuantized {
                    indices,
                    levels,
                    scale,
                    ..
                } => indices.is_empty() && levels.is_empty() && scale.is_finite(),
                _ => false,
            }
    }

    /// Decodes against `base`, returning the reconstructed flat values.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the base has the wrong length for a
    /// delta payload, a payload vector is truncated or oversized, a sparse
    /// index is out of range or out of order, or quantization parameters
    /// are unusable — every malformed-input case a flaky uplink can
    /// produce.
    fn decode_slices(&self, base: &[f32]) -> Result<Vec<f32>, DecodeError> {
        let n = self.rows * self.cols;
        if self.needs_base() && base.len() != n {
            return Err(DecodeError::LengthMismatch {
                what: "base tensor",
                expected: n,
                actual: base.len(),
            });
        }
        let out = match &self.payload {
            DeltaPayload::Dense(values) => {
                if values.len() != n {
                    return Err(DecodeError::LengthMismatch {
                        what: "dense payload",
                        expected: n,
                        actual: values.len(),
                    });
                }
                values.clone()
            }
            DeltaPayload::Xor(words) => {
                if words.len() != n {
                    return Err(DecodeError::LengthMismatch {
                        what: "xor payload",
                        expected: n,
                        actual: words.len(),
                    });
                }
                words
                    .iter()
                    .zip(base)
                    .map(|(w, b)| f32::from_bits(b.to_bits() ^ w))
                    .collect()
            }
            DeltaPayload::Quantized(q) => {
                if q.shape() != (self.rows, self.cols) {
                    return Err(DecodeError::LengthMismatch {
                        what: "quantized delta",
                        expected: n,
                        actual: q.rows() * q.cols(),
                    });
                }
                if q.scales().iter().any(|s| !s.is_finite()) {
                    return Err(DecodeError::BadQuantization("non-finite row scale".into()));
                }
                let max_level = q.width().max_level();
                let mut levels = vec![0i8; q.cols()];
                for row in 0..q.rows() {
                    q.levels_row_into(row, &mut levels);
                    if levels.iter().any(|&l| (l as i32).abs() > max_level) {
                        return Err(DecodeError::BadQuantization(format!(
                            "level overflows {:?}",
                            q.width()
                        )));
                    }
                }
                let delta = q.dequantize();
                base.iter()
                    .zip(delta.as_slice())
                    .map(|(b, d)| b + d)
                    .collect()
            }
            DeltaPayload::Sparse { indices, values } => {
                if values.len() != indices.len() {
                    return Err(DecodeError::LengthMismatch {
                        what: "sparse values",
                        expected: indices.len(),
                        actual: values.len(),
                    });
                }
                let mut out = base.to_vec();
                scatter_add(&mut out, indices, values.iter().copied())?;
                out
            }
            DeltaPayload::SparseQuantized {
                indices,
                levels,
                scale,
                width,
            } => {
                if levels.len() != indices.len() {
                    return Err(DecodeError::LengthMismatch {
                        what: "sparse levels",
                        expected: indices.len(),
                        actual: levels.len(),
                    });
                }
                if !scale.is_finite() {
                    return Err(DecodeError::BadQuantization("non-finite scale".into()));
                }
                let max_level = width.max_level();
                if levels.iter().any(|&l| (l as i32).abs() > max_level) {
                    return Err(DecodeError::BadQuantization(format!(
                        "level overflows {width:?}"
                    )));
                }
                let mut out = base.to_vec();
                scatter_add(
                    &mut out,
                    indices,
                    levels.iter().map(|&level| level as f32 * scale),
                )?;
                out
            }
        };
        debug_assert_eq!(out.len(), n, "every branch validates its length");
        Ok(out)
    }

    /// Decodes into a matrix of this tensor's shape.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the base has the wrong length for a
    /// delta payload, a payload vector is truncated or oversized, a sparse
    /// index is out of range or out of order, or quantization parameters
    /// are unusable.
    pub fn decode(&self, base: &Matrix) -> Result<Matrix, DecodeError> {
        let values = self.decode_slices(base.as_slice())?;
        Ok(Matrix::from_vec(self.rows, self.cols, values)
            .expect("decode_slices validated the length"))
    }

    /// Decodes a bias vector.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the base has the wrong length for a
    /// delta payload, a payload vector is truncated or oversized, a sparse
    /// index is out of range or out of order, or quantization parameters
    /// are unusable.
    pub fn decode_vec(&self, base: &[f32]) -> Result<Vec<f32>, DecodeError> {
        self.decode_slices(base)
    }

    /// Bytes of the uncompressed dense payload (4 per f32).
    pub fn dense_bytes(&self) -> usize {
        self.rows * self.cols * 4
    }

    /// Simulated wire bytes of this payload.
    ///
    /// * Dense: 4 bytes per word.
    /// * XOR delta: a changed-word bitmap (`⌈n/8⌉` bytes) plus the
    ///   significant bytes of each nonzero word — close values share sign,
    ///   exponent and high mantissa bits, so their XOR has many leading
    ///   zeros.
    /// * Quantized: packed levels plus per-row f32 scales.
    /// * Sparse: a membership mask — the cheaper of a dense bitmap and
    ///   explicit u32 indices — plus the surviving values (f32 or packed
    ///   levels with one shared scale).
    pub fn encoded_bytes(&self) -> usize {
        let n = self.rows * self.cols;
        let body = match &self.payload {
            DeltaPayload::Dense(values) => values.len() * 4,
            DeltaPayload::Xor(words) => {
                let bitmap = n.div_ceil(8);
                let significant: usize = words
                    .iter()
                    .filter(|&&w| w != 0)
                    .map(|&w| (32 - w.leading_zeros() as usize).div_ceil(8))
                    .sum();
                bitmap + significant
            }
            DeltaPayload::Quantized(q) => q.storage_bytes(),
            DeltaPayload::Sparse { indices, values } => {
                sparse_mask_bytes(n, indices.len()) + values.len() * 4
            }
            DeltaPayload::SparseQuantized {
                indices,
                levels,
                width,
                ..
            } => sparse_mask_bytes(n, indices.len()) + width.storage_bytes(levels.len()) + 4,
        };
        TENSOR_HEADER_BYTES + body
    }

    /// Folds this tensor's shape, payload tag, vector lengths and payload
    /// words into the upload checksum.
    fn fold_checksum(&self, mut hash: u64) -> u64 {
        hash = fold(hash, self.rows as u64);
        hash = fold(hash, self.cols as u64);
        match &self.payload {
            DeltaPayload::Dense(values) => fold_f32s(fold(hash, 0), values),
            DeltaPayload::Xor(words) => fold_u32s(fold(hash, 1), words),
            DeltaPayload::Quantized(q) => {
                hash = fold(hash, 2);
                hash = fold(hash, q.width().bits() as u64);
                hash = fold_f32s(hash, q.scales());
                let mut levels = vec![0i8; q.cols()];
                for row in 0..q.rows() {
                    q.levels_row_into(row, &mut levels);
                    hash = fold_levels(hash, &levels);
                }
                hash
            }
            DeltaPayload::Sparse { indices, values } => {
                fold_f32s(fold_u32s(fold(hash, 3), indices), values)
            }
            DeltaPayload::SparseQuantized {
                indices,
                levels,
                scale,
                width,
            } => {
                hash = fold(hash, 4);
                hash = fold(hash, width.bits() as u64);
                hash = fold(hash, scale.to_bits() as u64);
                fold_levels(fold_u32s(hash, indices), levels)
            }
        }
    }

    /// Deterministically damages this tensor: flips one payload bit (or,
    /// for payloads without directly addressable words, perturbs the
    /// shape). `r` seeds the choice of word and bit.
    fn corrupt(&mut self, r: u64) {
        let bit = (r >> 32) % 31;
        match &mut self.payload {
            DeltaPayload::Dense(values) if !values.is_empty() => {
                let i = r as usize % values.len();
                values[i] = f32::from_bits(values[i].to_bits() ^ (1 << bit));
            }
            DeltaPayload::Xor(words) if !words.is_empty() => {
                let i = r as usize % words.len();
                words[i] ^= 1 << bit;
            }
            DeltaPayload::Sparse { values, .. } if !values.is_empty() => {
                let i = r as usize % values.len();
                values[i] = f32::from_bits(values[i].to_bits() ^ (1 << bit));
            }
            DeltaPayload::SparseQuantized { scale, .. } => {
                *scale = f32::from_bits(scale.to_bits() ^ (1 << bit));
            }
            _ => self.rows ^= 1,
        }
    }

    /// Deterministically truncates this tensor's payload vector (models a
    /// connection dropped mid-upload). Payloads without a vector body fall
    /// back to bit corruption.
    fn truncate_payload(&mut self, r: u64) {
        match &mut self.payload {
            DeltaPayload::Dense(values) if values.len() > 1 => {
                values.truncate(1 + r as usize % (values.len() - 1));
            }
            DeltaPayload::Xor(words) if words.len() > 1 => {
                words.truncate(1 + r as usize % (words.len() - 1));
            }
            DeltaPayload::Sparse { values, .. } if !values.is_empty() => {
                values.truncate(values.len() - 1);
            }
            DeltaPayload::SparseQuantized { levels, .. } if !levels.is_empty() => {
                levels.truncate(levels.len() - 1);
            }
            _ => self.corrupt(r),
        }
    }
}

/// Bytes needed to transmit which of `n` entries survived: the cheaper of a
/// dense bitmap and an explicit u32 index list.
fn sparse_mask_bytes(n: usize, kept: usize) -> usize {
    n.div_ceil(8).min(kept * 4)
}

/// Adds `values` into `out` at `indices`, which must ascend strictly and
/// stay in range — checked in the scatter loop itself, one compare each.
fn scatter_add(
    out: &mut [f32],
    indices: &[u32],
    values: impl Iterator<Item = f32>,
) -> Result<(), DecodeError> {
    let len = out.len();
    // Lowest index the next entry may carry.
    let mut floor = 0usize;
    for (position, (&i, v)) in indices.iter().zip(values).enumerate() {
        let index = i as usize;
        if index < floor {
            return Err(DecodeError::UnsortedIndices { position });
        }
        let slot = out
            .get_mut(index)
            .ok_or(DecodeError::IndexOutOfRange { index, len })?;
        *slot += v;
        floor = index + 1;
    }
    Ok(())
}

/// The sparse payload of `new − base` keeping `k = ⌈fraction·n⌉` entries:
/// selection and tie rule as documented on [`EncodedTensor::encode`].
///
/// Delta, key copy and surviving values live in one scratch scope; the only
/// allocations are the payload vectors, sized exactly.
fn encode_top_k(
    new: &[f32],
    base: &[f32],
    fraction: f32,
    quantization: Option<BitWidth>,
) -> DeltaPayload {
    let n = new.len();
    let k = ((n as f64) * fraction as f64).ceil() as usize;
    scratch::with(2 * n, |buf| {
        // `keys` holds each delta's magnitude key as the f32 of the same
        // bit pattern (scratch is an f32 buffer), read back with `to_bits`:
        // it is never compared as a float. The selection permutes it; the
        // emit pass then reuses it for the surviving values.
        let (delta, keys) = buf.split_at_mut(n);
        let mut nonzero = 0usize;
        for ((d, key), (x, b)) in delta
            .iter_mut()
            .zip(keys.iter_mut())
            .zip(new.iter().zip(base))
        {
            *d = x - b;
            let magnitude = magnitude_key(*d);
            *key = f32::from_bits(magnitude);
            nonzero += usize::from(magnitude != 0);
        }
        let kept = k.min(nonzero);
        if kept == 0 {
            return top_k_payload(Vec::new(), &[], quantization);
        }
        // Entries above `threshold` all ship; of those equal to it, the
        // first `ties` in index order.
        let (threshold, mut ties) = if k >= nonzero {
            // Every non-zero entry ships; the zero keys tie at 0 and stay.
            (0, 0)
        } else {
            let (above, kth, _) =
                keys.select_nth_unstable_by_key(k - 1, |key| std::cmp::Reverse(key.to_bits()));
            let threshold = kth.to_bits();
            let above = above.iter().filter(|key| key.to_bits() > threshold).count();
            (threshold, k - above)
        };
        // Branch-free emit: every entry is written at `cursor`, which moves
        // on only past a survivor. Values go to `keys`, indices (as f32 bit
        // patterns) to `delta`; `cursor <= i`, so no write reaches an entry
        // still to be read.
        let mut cursor = 0usize;
        for i in 0..n {
            let d = delta[i];
            let magnitude = magnitude_key(d);
            let tie = (magnitude == threshold) & (ties > 0);
            ties -= usize::from(tie);
            keys[cursor] = d;
            delta[cursor] = f32::from_bits(i as u32);
            cursor += usize::from((magnitude > threshold) | tie);
        }
        debug_assert_eq!(cursor, kept);
        let indices = delta[..kept].iter().map(|i| i.to_bits()).collect();
        top_k_payload(indices, &keys[..kept], quantization)
    })
}

/// The sparse payload of the surviving `values` at `indices`: raw, or
/// quantized against one shared scale.
fn top_k_payload(
    indices: Vec<u32>,
    values: &[f32],
    quantization: Option<BitWidth>,
) -> DeltaPayload {
    match quantization {
        None => DeltaPayload::Sparse {
            indices,
            values: values.to_vec(),
        },
        Some(width) => {
            let mut levels = vec![0i8; values.len()];
            let scale = quantize_row(values, width, &mut levels);
            DeltaPayload::SparseQuantized {
                indices,
                levels,
                scale,
                width,
            }
        }
    }
}

/// One participant's update for a single expert in encoded wire form.
#[derive(Debug, Clone)]
pub struct EncodedExpertUpdate {
    /// Which global expert this update targets.
    pub key: ExpertKey,
    /// Encoded `w1`.
    pub w1: EncodedTensor,
    /// Encoded `b1`.
    pub b1: EncodedTensor,
    /// Encoded `w2`.
    pub w2: EncodedTensor,
    /// Encoded `b2`.
    pub b2: EncodedTensor,
    /// FedAvg aggregation weight.
    pub weight: f32,
}

impl EncodedExpertUpdate {
    /// Encodes one expert update against its base (round-start) expert.
    pub fn encode(
        key: ExpertKey,
        new: &Expert,
        base: &Expert,
        weight: f32,
        config: CompressionConfig,
    ) -> Self {
        Self {
            key,
            w1: EncodedTensor::encode(&new.w1, &base.w1, config),
            b1: EncodedTensor::encode_vec(&new.b1, &base.b1, config),
            w2: EncodedTensor::encode(&new.w2, &base.w2, config),
            b2: EncodedTensor::encode_vec(&new.b2, &base.b2, config),
            weight,
        }
    }

    /// Decodes against the base expert's `Arc`, and shares it when every
    /// tensor is an empty sparse payload (what top-k ships for an expert
    /// the participant never wrote): that decode would rebuild the base
    /// bit for bit, so it is skipped.
    fn decode_shared(&self, base: &Arc<Expert>) -> Result<SharedExpertUpdate, DecodeError> {
        let unchanged = self.w1.is_empty_delta_for(base.w1.shape())
            && self.b1.is_empty_delta_for((1, base.b1.len()))
            && self.w2.is_empty_delta_for(base.w2.shape())
            && self.b2.is_empty_delta_for((1, base.b2.len()));
        if unchanged {
            return Ok(ExpertUpdate {
                key: self.key,
                expert: Arc::clone(base),
                weight: self.weight,
            });
        }
        self.decode(base).map(ExpertUpdate::into_shared)
    }

    /// Decodes against the base expert.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when any tensor's payload is malformed or
    /// its base shape mismatches (rogue upload).
    pub fn decode(&self, base: &Expert) -> Result<ExpertUpdate, DecodeError> {
        Ok(ExpertUpdate {
            key: self.key,
            expert: Expert {
                w1: self.w1.decode(&base.w1)?,
                b1: self.b1.decode_vec(&base.b1)?,
                w2: self.w2.decode(&base.w2)?,
                b2: self.b2.decode_vec(&base.b2)?,
            },
            weight: self.weight,
        })
    }

    /// Folds this update's key, weight and tensors into the upload checksum.
    fn fold_checksum(&self, mut hash: u64) -> u64 {
        hash = fold(hash, self.key.layer as u64);
        hash = fold(hash, self.key.expert as u64);
        hash = fold(hash, self.weight.to_bits() as u64);
        hash = self.w1.fold_checksum(hash);
        hash = self.b1.fold_checksum(hash);
        hash = self.w2.fold_checksum(hash);
        self.b2.fold_checksum(hash)
    }

    /// Simulated wire bytes of this update.
    pub fn encoded_bytes(&self) -> usize {
        self.w1.encoded_bytes()
            + self.b1.encoded_bytes()
            + self.w2.encoded_bytes()
            + self.b2.encoded_bytes()
    }

    /// Bytes the dense upload of the same tensors would take.
    pub fn dense_bytes(&self) -> usize {
        self.w1.dense_bytes()
            + self.b1.dense_bytes()
            + self.w2.dense_bytes()
            + self.b2.dense_bytes()
    }
}

/// What [`EncodedUpload::decode`] (owned experts) and
/// [`EncodedUpload::decode_shared`] yield: the expert updates plus the
/// optional `(head, weight)` pair.
pub type DecodedUpload<E = Expert> = (Vec<ExpertUpdate<E>>, Option<(Matrix, f32)>);

/// One participant's full encoded upload: expert updates plus the optional
/// task head, sealed with an end-to-end content checksum.
#[derive(Debug, Clone)]
pub struct EncodedUpload {
    /// Encoded expert updates.
    pub experts: Vec<EncodedExpertUpdate>,
    /// Encoded task head and its aggregation weight.
    pub head: Option<(EncodedTensor, f32)>,
    /// [`EncodedUpload::content_checksum`] of the upload as encoded: it
    /// seals every key, weight, shape, vector length and payload word.
    /// [`EncodedUpload::decode`] verifies it before touching any tensor, so
    /// a bit flip or a lost tail anywhere in flight is rejected.
    pub checksum: u64,
}

impl EncodedUpload {
    /// Encodes a dense upload against the round-start snapshot `base`.
    ///
    /// Every update key must exist in `base` (participants derive their
    /// keys from the snapshot they downloaded, so this holds by
    /// construction). An update that shares `base`'s own expert encodes
    /// without a scan under top-k (see [`EncodedTensor::encode`]).
    pub fn encode<E: Borrow<Expert>>(
        updates: &[ExpertUpdate<E>],
        head: Option<&(Matrix, f32)>,
        base: &MoeModel,
        config: CompressionConfig,
    ) -> Self {
        let experts = updates
            .iter()
            .map(|u| {
                let new = u.expert.borrow();
                EncodedExpertUpdate::encode(u.key, new, base.expert(u.key), u.weight, config)
            })
            .collect();
        let head = head.map(|(matrix, weight)| {
            (
                EncodedTensor::encode(matrix, base.active_head(), config),
                *weight,
            )
        });
        let mut upload = Self {
            experts,
            head,
            checksum: 0,
        };
        upload.checksum = upload.content_checksum();
        upload
    }

    /// Hash over the upload's entire content (keys, weights, shapes, vector
    /// lengths and payload words) — what [`EncodedUpload::checksum`] must
    /// equal. FNV-1a folded a 64-bit word at a time (two f32/u32 payload
    /// words or eight quantized levels per multiply), so sealing and
    /// verifying cost a fraction of the byte-wise walk; any change confined
    /// to one folded word — in particular any single flipped bit — changes
    /// the result.
    pub fn content_checksum(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        hash = fold(hash, self.experts.len() as u64);
        for expert in &self.experts {
            hash = expert.fold_checksum(hash);
        }
        match &self.head {
            Some((tensor, weight)) => {
                hash = fold(hash, 1);
                hash = tensor.fold_checksum(hash);
                fold(hash, weight.to_bits() as u64)
            }
            None => fold(hash, 0),
        }
    }

    /// Re-stamps the checksum from the current content. Only needed after
    /// deliberately mutating an upload (tests forging rogue keys).
    pub fn reseal(&mut self) {
        self.checksum = self.content_checksum();
    }

    /// Decodes against the round-start snapshot.
    ///
    /// The stored checksum is verified against the received content before
    /// any tensor is touched; then every expert key is range-checked
    /// against the base model and each tensor payload is validated.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on checksum mismatch, rogue keys, or any
    /// malformed tensor payload. The upload is rejected as a unit — a
    /// partially-decoded upload never reaches the aggregator.
    pub fn decode(&self, base: &MoeModel) -> Result<DecodedUpload, DecodeError> {
        let (updates, head) = self.decode_shared(base)?;
        let updates = updates.into_iter().map(ExpertUpdate::into_owned).collect();
        Ok((updates, head))
    }

    /// [`EncodedUpload::decode`] into shared experts, the form staging
    /// takes: an expert whose four tensors ship no entry is `base`'s own
    /// `Arc`, not a decoded copy of it.
    ///
    /// # Errors
    ///
    /// The same as [`EncodedUpload::decode`].
    pub fn decode_shared(
        &self,
        base: &MoeModel,
    ) -> Result<DecodedUpload<Arc<Expert>>, DecodeError> {
        let actual = self.content_checksum();
        if actual != self.checksum {
            return Err(DecodeError::ChecksumMismatch {
                expected: self.checksum,
                actual,
            });
        }
        let per_layer = base.experts_per_layer();
        let mut updates = Vec::with_capacity(self.experts.len());
        for encoded in &self.experts {
            let in_range = per_layer
                .get(encoded.key.layer)
                .is_some_and(|&n| encoded.key.expert < n);
            if !in_range {
                return Err(DecodeError::KeyOutOfRange { key: encoded.key });
            }
            updates.push(encoded.decode_shared(base.shared_expert(encoded.key))?);
        }
        let head = match &self.head {
            Some((tensor, weight)) => Some((tensor.decode(base.active_head())?, *weight)),
            None => None,
        };
        Ok((updates, head))
    }

    /// A copy of this upload with one tensor damaged and the stored checksum
    /// left untouched. The first draw of the SplitMix64 stream `state`
    /// picks the tensor (experts' `w1, b1, w2, b2` in order, then the
    /// head), the second seeds `damage`. An upload with no tensor gets its
    /// checksum flipped instead.
    fn damaged(&self, state: u64, damage: fn(&mut EncodedTensor, u64)) -> Self {
        let mut out = self.clone();
        let slots = out.experts.len() * 4 + usize::from(out.head.is_some());
        if slots == 0 {
            out.checksum ^= 1;
            return out;
        }
        let first = state.wrapping_add(GOLDEN_GAMMA);
        let slot = mix64(first) as usize % slots;
        let tensor = match out.experts.get_mut(slot / 4) {
            Some(expert) => match slot % 4 {
                0 => &mut expert.w1,
                1 => &mut expert.b1,
                2 => &mut expert.w2,
                _ => &mut expert.b2,
            },
            None => &mut out.head.as_mut().expect("slot implies head exists").0,
        };
        damage(tensor, mix64(first.wrapping_add(GOLDEN_GAMMA)));
        out
    }

    /// A deterministically corrupted copy of this upload: one payload word
    /// (chosen by `seed`) is bit-flipped while the stored checksum is left
    /// untouched, so [`EncodedUpload::decode`] must reject the result.
    /// This is the fault-injection hook modeling in-flight corruption.
    pub fn corrupted(&self, seed: u64) -> Self {
        self.damaged(seed, EncodedTensor::corrupt)
    }

    /// A deterministically truncated copy of this upload: one tensor's
    /// payload vector loses its tail (the stored checksum is left
    /// untouched), modeling a connection dropped mid-upload.
    pub fn truncated(&self, seed: u64) -> Self {
        self.damaged(seed ^ 0x5bf0_3635, EncodedTensor::truncate_payload)
    }

    /// Simulated wire bytes of the whole upload.
    pub fn encoded_bytes(&self) -> usize {
        let experts: usize = self.experts.iter().map(|e| e.encoded_bytes()).sum();
        let head = self
            .head
            .as_ref()
            .map(|(t, _)| t.encoded_bytes())
            .unwrap_or(0);
        experts + head
    }

    /// Bytes the dense upload of the same payload would take.
    pub fn dense_bytes(&self) -> usize {
        let experts: usize = self.experts.iter().map(|e| e.dense_bytes()).sum();
        let head = self
            .head
            .as_ref()
            .map(|(t, _)| t.dense_bytes())
            .unwrap_or(0);
        experts + head
    }
}

/// Bytes a dense (uncompressed) upload payload occupies on the wire: 4 per
/// f32 across every expert tensor plus the optional head.
pub fn dense_upload_payload_bytes<E: Borrow<Expert>>(
    updates: &[ExpertUpdate<E>],
    head: Option<&(Matrix, f32)>,
) -> usize {
    let params: usize = updates.iter().map(|u| u.expert.borrow().num_params()).sum();
    let head_params = head.map(|(m, _)| m.len()).unwrap_or(0);
    (params + head_params) * 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_tensor::SeededRng;

    fn random_matrix(seed: u64, rows: usize, cols: usize) -> Matrix {
        let mut rng = SeededRng::new(seed);
        Matrix::random_normal(rows, cols, 1.0, &mut rng)
    }

    /// A "fine-tuned" variant: the base plus small perturbations on most
    /// entries (how real training deltas look).
    fn perturbed(base: &Matrix, seed: u64) -> Matrix {
        let mut rng = SeededRng::new(seed);
        let noise = Matrix::random_normal(base.shape().0, base.shape().1, 0.01, &mut rng);
        let mut out = base.clone();
        out.add_scaled(&noise, 1.0).unwrap();
        out
    }

    #[test]
    fn warm_scratch_top_k_is_bit_identical_to_cold() {
        // `encode_top_k` stages deltas and keys in `scratch::with`, which
        // lends the buffer as the thread's last scope left it, so its first
        // pass must write both halves before anything reads them. A thread
        // whose buffer is full of 7.0 or NaN must encode what a cold one
        // does; a stale key or delta would move the selection or a value.
        fn decoded() -> Vec<u32> {
            let base = random_matrix(5, 24, 40);
            let mut new = perturbed(&base, 6);
            // Exact zeros and ties at the threshold, as well as noise.
            new.as_mut_slice()[..40].copy_from_slice(&base.as_slice()[..40]);
            let configs = [
                CompressionConfig::sparse(0.1),
                CompressionConfig::quantized_sparse(BitWidth::Int8, 0.25),
            ];
            configs
                .into_iter()
                .flat_map(|config| {
                    let encoded = EncodedTensor::encode(&new, &base, config);
                    let decoded = encoded.decode(&base).unwrap();
                    decoded
                        .as_slice()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>()
                })
                .collect()
        }
        let cold = std::thread::spawn(decoded).join().unwrap();
        for poison in [7.0, f32::NAN] {
            let warm = std::thread::spawn(move || {
                scratch::with(100_000, |s| s.fill(poison));
                decoded()
            })
            .join()
            .unwrap();
            assert_eq!(
                cold, warm,
                "a scratch buffer full of {poison} changed an upload"
            );
        }
    }

    #[test]
    fn xor_delta_round_trips_bit_identically() {
        let base = random_matrix(1, 6, 9);
        let mut new = perturbed(&base, 2);
        // Special values must survive exactly too.
        new.set(0, 0, 0.0);
        new.set(0, 1, -0.0);
        new.set(1, 0, f32::MIN_POSITIVE / 2.0); // subnormal
        let encoded = EncodedTensor::encode(&new, &base, CompressionConfig::LosslessDelta);
        let decoded = encoded.decode(&base).unwrap();
        for (d, n) in decoded.as_slice().iter().zip(new.as_slice()) {
            assert_eq!(d.to_bits(), n.to_bits(), "bitwise mismatch");
        }
    }

    #[test]
    fn dense_payload_round_trips_without_base() {
        let base = random_matrix(3, 4, 4);
        let new = random_matrix(4, 4, 4);
        let encoded = EncodedTensor::encode(&new, &base, CompressionConfig::Dense);
        assert!(!encoded.needs_base());
        let decoded = encoded.decode(&Matrix::zeros(4, 4)).unwrap();
        assert_eq!(decoded, new);
    }

    #[test]
    fn xor_delta_of_training_style_update_undercuts_dense_bytes() {
        let base = random_matrix(5, 16, 32);
        let new = perturbed(&base, 6);
        let encoded = EncodedTensor::encode(&new, &base, CompressionConfig::LosslessDelta);
        assert!(
            encoded.encoded_bytes() < encoded.dense_bytes(),
            "xor delta {} should undercut dense {}",
            encoded.encoded_bytes(),
            encoded.dense_bytes()
        );
    }

    #[test]
    fn quantized_delta_error_shrinks_with_width() {
        let base = random_matrix(7, 12, 12);
        let new = perturbed(&base, 8);
        let mut errs = Vec::new();
        for width in [BitWidth::Int4, BitWidth::Int8] {
            let encoded = EncodedTensor::encode(&new, &base, CompressionConfig::quantized(width));
            let decoded = encoded.decode(&base).unwrap();
            let err = decoded.sub(&new).unwrap().frobenius_norm() / new.frobenius_norm();
            errs.push(err);
        }
        assert!(
            errs[0] > errs[1],
            "int4 err {} <= int8 err {}",
            errs[0],
            errs[1]
        );
        assert!(errs[1] < 0.01, "int8 delta error {} too large", errs[1]);
    }

    #[test]
    fn sparse_delta_keeps_only_top_k() {
        let base = Matrix::zeros(1, 8);
        let mut new = Matrix::zeros(1, 8);
        for (i, v) in [0.5f32, -3.0, 0.1, 2.0, 0.0, -0.2, 1.0, 0.05]
            .iter()
            .enumerate()
        {
            new.set(0, i, *v);
        }
        let encoded = EncodedTensor::encode(&new, &base, CompressionConfig::sparse(0.25));
        let decoded = encoded.decode(&base).unwrap();
        // ceil(8 * 0.25) = 2 survivors: -3.0 and 2.0.
        let expected = [0.0f32, -3.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0];
        for (d, e) in decoded.as_slice().iter().zip(expected.iter()) {
            assert_eq!(d, e);
        }
    }

    /// The sort-based selection this module shipped before the linear-time
    /// encoder, kept verbatim as the reference the selection is pinned
    /// against: full sort by `|δ|` descending (ties toward the lower flat
    /// index) over the non-zero entries, truncate to `k`, re-sort by index.
    fn reference_top_k(delta: &[f32], fraction: f32) -> (Vec<u32>, Vec<f32>) {
        let n = delta.len();
        let k = ((n as f64) * fraction as f64).ceil() as usize;
        let mut order: Vec<u32> = (0..n as u32)
            .filter(|&i| delta[i as usize] != 0.0)
            .collect();
        order.sort_by(|&a, &b| {
            let ma = delta[a as usize].abs();
            let mb = delta[b as usize].abs();
            mb.partial_cmp(&ma)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        order.truncate(k);
        order.sort_unstable();
        let values = order.iter().map(|&i| delta[i as usize]).collect();
        (order, values)
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Encodes `new − base` at `fraction` with and without quantization and
    /// asserts every payload field equals the reference encoder's.
    fn assert_matches_reference(new: &[f32], base: &[f32], fraction: f32, label: &str) {
        let delta: Vec<f32> = new.iter().zip(base).map(|(n, b)| n - b).collect();
        let (ref_indices, ref_values) = reference_top_k(&delta, fraction);
        match EncodedTensor::encode_vec(new, base, CompressionConfig::sparse(fraction)).payload {
            DeltaPayload::Sparse { indices, values } => {
                assert_eq!(indices, ref_indices, "{label}: indices");
                assert_eq!(bits(&values), bits(&ref_values), "{label}: values");
            }
            other => panic!("{label}: expected a sparse payload, got {other:?}"),
        }
        for width in BitWidth::all() {
            let mut ref_levels = vec![0i8; ref_values.len()];
            let ref_scale = quantize_row(&ref_values, width, &mut ref_levels);
            let config = CompressionConfig::quantized_sparse(width, fraction);
            match EncodedTensor::encode_vec(new, base, config).payload {
                DeltaPayload::SparseQuantized {
                    indices,
                    levels,
                    scale,
                    width: w,
                } => {
                    assert_eq!(indices, ref_indices, "{label} {width:?}: indices");
                    assert_eq!(levels, ref_levels, "{label} {width:?}: levels");
                    assert_eq!(scale.to_bits(), ref_scale.to_bits(), "{label}: scale");
                    assert_eq!(w, width);
                }
                other => panic!("{label}: expected sparse-quantized, got {other:?}"),
            }
        }
    }

    #[test]
    fn selection_matches_the_sort_based_reference() {
        let mut rng = SeededRng::new(31);
        for case in 0..200 {
            let n = rng.range(1, 130);
            let base: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
            // Deltas drawn from a handful of magnitudes of both signs, with
            // runs of exact zeros: ties at the threshold are the rule.
            let grid = [0.0f32, 0.0, 0.25, -0.25, 0.5, -0.5, 1.5, -3.0];
            let new: Vec<f32> = base
                .iter()
                .map(|b| {
                    if case % 2 == 0 {
                        b + grid[rng.below(grid.len())]
                    } else {
                        b + rng.normal_with(0.0, 0.01)
                    }
                })
                .collect();
            let nf = n as f32;
            for fraction in [0.0, 1.0 / nf, 0.25, 0.5, 1.0 - 1.0 / nf, 0.999] {
                if fraction >= 1.0 {
                    continue; // n = 1: a fraction of 1 is not a top-k config
                }
                assert_matches_reference(&new, &base, fraction, &format!("case {case} n {n}"));
            }
        }
    }

    #[test]
    fn degenerate_selections_match_the_reference() {
        let zeros = [0.0f32; 8];
        let deltas = [0.5f32, -3.0, 0.1, 2.0, 0.0, -0.2, 1.0, 0.05];
        // k = 0: nothing ships.
        let none = EncodedTensor::encode_vec(&deltas, &zeros, CompressionConfig::sparse(0.0));
        assert_eq!(bits(&none.decode_vec(&zeros).unwrap()), bits(&zeros));
        assert_eq!(none.encoded_bytes(), TENSOR_HEADER_BYTES);
        // k ≥ non-zeros: every non-zero entry ships, the exact zero never.
        let all = EncodedTensor::encode_vec(&deltas, &zeros, CompressionConfig::sparse(0.99));
        match &all.payload {
            DeltaPayload::Sparse { indices, .. } => assert_eq!(indices, &[0, 1, 2, 3, 5, 6, 7]),
            other => panic!("{other:?}"),
        }
        // All-zero delta (of both signs): an empty payload at any fraction.
        let signed_zeros = [0.0f32, -0.0, 0.0, -0.0];
        let empty = EncodedTensor::encode_vec(
            &signed_zeros,
            &[0.0; 4],
            CompressionConfig::quantized_sparse(BitWidth::Int4, 0.5),
        );
        match &empty.payload {
            DeltaPayload::SparseQuantized { indices, scale, .. } => {
                assert!(indices.is_empty());
                assert_eq!(*scale, 1.0);
            }
            other => panic!("{other:?}"),
        }
        // Every magnitude equal: the k lowest indices win, whatever the sign.
        let equal = [1.0f32, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        match &EncodedTensor::encode_vec(&equal, &zeros, CompressionConfig::sparse(0.5)).payload {
            DeltaPayload::Sparse { indices, values } => {
                assert_eq!(indices, &[0, 1, 2, 3]);
                assert_eq!(values, &[1.0, -1.0, 1.0, -1.0]);
            }
            other => panic!("{other:?}"),
        }
        // n = 1 and n = 0, and all of the above against the reference.
        for fraction in [0.0, 0.25, 0.5, 0.99] {
            assert_matches_reference(&[], &[], fraction, "n = 0");
            assert_matches_reference(&[2.5], &[1.0], fraction, "n = 1");
            assert_matches_reference(&[1.0], &[1.0], fraction, "n = 1, zero delta");
            assert_matches_reference(&deltas, &zeros, fraction, "distinct");
            assert_matches_reference(&equal, &zeros, fraction, "all equal");
            assert_matches_reference(&signed_zeros, &[0.0; 4], fraction, "all zero");
        }
    }

    /// Regression: the sort-based encoder's float comparator was not a
    /// total order, so one NaN delta panicked the worker inside `sort_by`.
    #[test]
    fn non_finite_deltas_encode_deterministically_and_never_panic() {
        let mut rng = SeededRng::new(37);
        for case in 0..50 {
            let n = rng.range(8, 513);
            let mut base: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
            let mut new: Vec<f32> = base
                .iter()
                .map(|b| b + rng.normal_with(0.0, 0.01))
                .collect();
            // Plant poisoned and edge-case deltas at distinct positions.
            let specials = [
                f32::NAN,
                -f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                -0.0,
                f32::MIN_POSITIVE / 4.0,
                -f32::MIN_POSITIVE / 2.0,
            ];
            let planted = rng.choose_indices(n, specials.len());
            for (&i, &v) in planted.iter().zip(&specials) {
                base[i] = 0.0;
                new[i] = v;
            }
            let non_finite: Vec<u32> = {
                let mut at: Vec<u32> = planted[..4].iter().map(|&i| i as u32).collect();
                at.sort_unstable();
                at
            };
            let nf = n as f32;
            for fraction in [0.0, 1.0 / nf, 4.0 / nf, 0.25, 0.5, 1.0 - 1.0 / nf, 1.0] {
                for config in [
                    CompressionConfig::sparse(fraction),
                    CompressionConfig::quantized_sparse(BitWidth::Int4, fraction),
                    CompressionConfig::quantized_sparse(BitWidth::Int8, fraction),
                ] {
                    let label = format!("case {case} n {n} {config:?}");
                    let encoded = EncodedTensor::encode_vec(&new, &base, config);
                    let again = EncodedTensor::encode_vec(&new, &base, config);
                    assert_eq!(
                        encoded.fold_checksum(FNV_OFFSET),
                        again.fold_checksum(FNV_OFFSET),
                        "{label}: encoding is not deterministic"
                    );
                    let indices = match &encoded.payload {
                        DeltaPayload::Sparse { indices, .. }
                        | DeltaPayload::SparseQuantized { indices, .. } => indices.clone(),
                        // fraction 1 is not a top-k payload; it encoded
                        // without panicking, which is all that is asked.
                        _ => continue,
                    };
                    let k = ((n as f64) * fraction as f64).ceil() as usize;
                    assert_eq!(indices.len(), k.min(n - 1), "{label}: one exact zero");
                    assert!(
                        !indices.contains(&(planted[4] as u32)),
                        "{label}: a -0.0 delta shipped"
                    );
                    // NaN and ±Inf rank above every finite magnitude.
                    if k >= 4 {
                        assert!(
                            non_finite.iter().all(|i| indices.contains(i)),
                            "{label}: a non-finite delta lost to a finite one"
                        );
                    } else {
                        assert!(indices.iter().all(|i| non_finite.contains(i)), "{label}");
                    }
                    // The payload decodes or is rejected with a typed
                    // error (a shared scale of ∞ is unusable) — no panic.
                    match encoded.decode_vec(&base) {
                        Ok(decoded) => assert_eq!(decoded.len(), n),
                        Err(err) => assert!(
                            matches!(err, DecodeError::BadQuantization(_)),
                            "{label}: {err}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn encoded_bytes_shrink_with_width_and_sparsity() {
        let base = random_matrix(9, 16, 32);
        let new = perturbed(&base, 10);
        let dense = EncodedTensor::encode(&new, &base, CompressionConfig::Dense).encoded_bytes();
        let int8 = EncodedTensor::encode(&new, &base, CompressionConfig::quantized(BitWidth::Int8))
            .encoded_bytes();
        let int4 = EncodedTensor::encode(&new, &base, CompressionConfig::quantized(BitWidth::Int4))
            .encoded_bytes();
        let int4_sparse = EncodedTensor::encode(
            &new,
            &base,
            CompressionConfig::quantized_sparse(BitWidth::Int4, 0.25),
        )
        .encoded_bytes();
        assert!(dense > int8, "dense {dense} int8 {int8}");
        assert!(int8 > int4, "int8 {int8} int4 {int4}");
        assert!(int4 > int4_sparse, "int4 {int4} sparse {int4_sparse}");
    }

    #[test]
    fn quantized_byte_ratio_matches_configured_width() {
        // Satellite check: the compressed-vs-dense byte ratio tracks the
        // configured bit width — int8 ≈ 4×, int4 ≈ 8× smaller levels, with
        // per-row scale + header overhead on top.
        let base = random_matrix(11, 32, 32);
        let new = perturbed(&base, 12);
        let dense = (32 * 32 * 4) as f64;
        for (width, min_ratio) in [(BitWidth::Int8, 3.0), (BitWidth::Int4, 6.0)] {
            let enc = EncodedTensor::encode(&new, &base, CompressionConfig::quantized(width))
                .encoded_bytes() as f64;
            let ratio = dense / enc;
            assert!(
                ratio >= min_ratio && ratio <= width.compression_ratio() as f64 + 0.5,
                "{width:?}: ratio {ratio}"
            );
        }
        // Sparsity stacks on top: keeping 25% at int4 beats 8× alone.
        let sparse = EncodedTensor::encode(
            &new,
            &base,
            CompressionConfig::quantized_sparse(BitWidth::Int4, 0.25),
        )
        .encoded_bytes() as f64;
        assert!(dense / sparse > 10.0, "sparse ratio {}", dense / sparse);
    }

    #[test]
    fn lossy_delta_without_knobs_falls_back_to_lossless() {
        let base = random_matrix(13, 4, 4);
        let new = perturbed(&base, 14);
        let cfg = CompressionConfig::LossyDelta {
            quantization: None,
            top_k_fraction: 1.0,
        };
        let decoded = EncodedTensor::encode(&new, &base, cfg)
            .decode(&base)
            .unwrap();
        assert_eq!(decoded, new);
    }

    #[test]
    fn decode_rejects_mismatched_base_shape() {
        let base = random_matrix(15, 4, 4);
        let new = perturbed(&base, 16);
        let encoded = EncodedTensor::encode(&new, &base, CompressionConfig::LosslessDelta);
        let err = encoded.decode(&Matrix::zeros(3, 3)).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::LengthMismatch {
                what: "base tensor",
                expected: 16,
                actual: 9,
            }
        ));
    }

    #[test]
    fn truncated_payload_yields_typed_error_not_panic() {
        let base = random_matrix(21, 6, 6);
        let new = perturbed(&base, 22);
        for config in [
            CompressionConfig::Dense,
            CompressionConfig::LosslessDelta,
            CompressionConfig::sparse(0.5),
            CompressionConfig::quantized_sparse(BitWidth::Int4, 0.5),
        ] {
            let mut encoded = EncodedTensor::encode(&new, &base, config);
            encoded.truncate_payload(3);
            let err = encoded.decode(&base).unwrap_err();
            assert!(
                matches!(err, DecodeError::LengthMismatch { .. }),
                "{config:?}: {err}"
            );
        }
    }

    #[test]
    fn sparse_index_out_of_range_is_rejected() {
        let base = Matrix::zeros(1, 4);
        let encoded = EncodedTensor {
            rows: 1,
            cols: 4,
            payload: DeltaPayload::Sparse {
                indices: vec![0, 9],
                values: vec![1.0, 2.0],
            },
        };
        let err = encoded.decode(&base).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::IndexOutOfRange { index: 9, len: 4 }
        ));
    }

    #[test]
    fn unsorted_or_repeated_sparse_indices_are_rejected() {
        let base = Matrix::zeros(1, 8);
        let forge = |indices: Vec<u32>, quantized: bool| {
            let payload = if quantized {
                DeltaPayload::SparseQuantized {
                    levels: vec![1; indices.len()],
                    indices,
                    scale: 0.5,
                    width: BitWidth::Int4,
                }
            } else {
                DeltaPayload::Sparse {
                    values: vec![1.0; indices.len()],
                    indices,
                }
            };
            EncodedTensor {
                rows: 1,
                cols: 8,
                payload,
            }
        };
        for quantized in [false, true] {
            // A repeated index would be applied twice.
            let err = forge(vec![1, 3, 3, 6], quantized)
                .decode(&base)
                .unwrap_err();
            assert_eq!(err, DecodeError::UnsortedIndices { position: 2 });
            // A step back.
            let err = forge(vec![5, 2], quantized).decode(&base).unwrap_err();
            assert_eq!(err, DecodeError::UnsortedIndices { position: 1 });
            // Strictly ascending indices decode.
            assert!(forge(vec![0, 1, 7], quantized).decode(&base).is_ok());
        }
    }

    #[test]
    fn forged_resealed_upload_with_repeated_index_is_rejected() {
        let mut rng = SeededRng::new(29);
        let model = MoeModel::new(flux_moe::MoeConfig::tiny(), &mut rng);
        let key = model.expert_keys()[0];
        let mut expert = model.expert(key).clone();
        let (r, c) = expert.w1.shape();
        expert
            .w1
            .add_scaled(&random_matrix(30, r, c), 0.01)
            .unwrap();
        let updates = vec![ExpertUpdate {
            key,
            expert,
            weight: 1.0,
        }];
        for config in [
            CompressionConfig::sparse(0.25),
            CompressionConfig::quantized_sparse(BitWidth::Int4, 0.25),
        ] {
            let mut upload = EncodedUpload::encode(&updates, None, &model, config);
            assert!(upload.decode(&model).is_ok());
            match &mut upload.experts[0].w1.payload {
                DeltaPayload::Sparse { indices, .. }
                | DeltaPayload::SparseQuantized { indices, .. } => indices[1] = indices[0],
                other => panic!("{other:?}"),
            }
            // The seal catches the forgery; a forger who reseals meets the
            // typed index check instead of a double-applied delta.
            let err = upload.decode(&model).unwrap_err();
            assert!(matches!(err, DecodeError::ChecksumMismatch { .. }));
            upload.reseal();
            let err = upload.decode(&model).unwrap_err();
            assert_eq!(err, DecodeError::UnsortedIndices { position: 1 });
        }
    }

    #[test]
    fn bad_quantization_params_are_rejected() {
        let base = Matrix::zeros(1, 4);
        let encoded = EncodedTensor {
            rows: 1,
            cols: 4,
            payload: DeltaPayload::SparseQuantized {
                indices: vec![0],
                levels: vec![1],
                scale: f32::NAN,
                width: BitWidth::Int4,
            },
        };
        let err = encoded.decode(&base).unwrap_err();
        assert!(matches!(err, DecodeError::BadQuantization(_)));

        // A level that overflows the declared width is equally rejected.
        let encoded = EncodedTensor {
            rows: 1,
            cols: 4,
            payload: DeltaPayload::SparseQuantized {
                indices: vec![0],
                levels: vec![100],
                scale: 0.5,
                width: BitWidth::Int4,
            },
        };
        let err = encoded.decode(&base).unwrap_err();
        assert!(matches!(err, DecodeError::BadQuantization(_)));

        // A packed field holds one level below `-max_level`; a dense
        // quantized payload carrying it is rejected at every width.
        for (width, low) in [
            (BitWidth::Int2, -2),
            (BitWidth::Int4, -8),
            (BitWidth::Int8, -128),
        ] {
            let encoded = EncodedTensor {
                rows: 1,
                cols: 4,
                payload: DeltaPayload::Quantized(QuantizedMatrix::from_levels(
                    1,
                    4,
                    width,
                    &[0, 1, low, -1],
                    vec![0.5],
                )),
            };
            let err = encoded.decode(&base).unwrap_err();
            assert!(
                matches!(&err, DecodeError::BadQuantization(m) if m.contains("overflows")),
                "{width:?}: {err:?}"
            );
        }
    }

    #[test]
    fn expert_update_round_trip_and_bytes() {
        let mut rng = SeededRng::new(17);
        let base = Expert::new(6, 12, &mut rng);
        let mut new = base.clone();
        let (r, c) = new.w1.shape();
        new.w1.add_scaled(&random_matrix(18, r, c), 0.01).unwrap();
        new.b1[0] += 0.25;
        let key = ExpertKey::new(1, 2);
        let encoded =
            EncodedExpertUpdate::encode(key, &new, &base, 3.0, CompressionConfig::LosslessDelta);
        let decoded = encoded.decode(&base).unwrap();
        assert_eq!(decoded.key, key);
        assert_eq!(decoded.weight, 3.0);
        assert_eq!(decoded.expert.w1, new.w1);
        assert_eq!(decoded.expert.b1, new.b1);
        assert_eq!(decoded.expert.w2, new.w2);
        assert_eq!(decoded.expert.b2, new.b2);
        assert!(encoded.encoded_bytes() < encoded.dense_bytes());
        assert_eq!(encoded.dense_bytes(), new.num_params() * 4);
    }

    /// An update that shares the base's own expert encodes to the same
    /// bytes and checksum as one holding an owned clone of it, under every
    /// config: the top-k shortcut emits exactly what the scan finds.
    #[test]
    fn a_base_shared_update_encodes_like_an_owned_clone() {
        let mut rng = SeededRng::new(29);
        let model = MoeModel::new(flux_moe::MoeConfig::tiny(), &mut rng);
        let keys = model.expert_keys();
        let head = (model.active_head().clone(), 2.0);
        let shared: Vec<SharedExpertUpdate> = keys[..3]
            .iter()
            .map(|&key| ExpertUpdate {
                key,
                expert: Arc::clone(model.shared_expert(key)),
                weight: 2.0,
            })
            .collect();
        let owned: Vec<ExpertUpdate> = shared
            .iter()
            .cloned()
            .map(ExpertUpdate::into_owned)
            .collect();
        for config in [
            CompressionConfig::Dense,
            CompressionConfig::LosslessDelta,
            CompressionConfig::quantized(BitWidth::Int8),
            CompressionConfig::quantized(BitWidth::Int4),
            CompressionConfig::quantized(BitWidth::Int2),
            CompressionConfig::sparse(0.0),
            CompressionConfig::sparse(0.25),
            CompressionConfig::sparse(1.0),
            CompressionConfig::quantized_sparse(BitWidth::Int8, 0.1),
            CompressionConfig::quantized_sparse(BitWidth::Int4, 0.25),
            CompressionConfig::quantized_sparse(BitWidth::Int2, 0.0),
        ] {
            let from_shared = EncodedUpload::encode(&shared, Some(&head), &model, config);
            let from_owned = EncodedUpload::encode(&owned, Some(&head), &model, config);
            assert_eq!(
                from_shared.encoded_bytes(),
                from_owned.encoded_bytes(),
                "{config:?}"
            );
            assert_eq!(from_shared.checksum, from_owned.checksum, "{config:?}");
            assert_eq!(from_shared.content_checksum(), from_shared.checksum);
        }
    }

    #[test]
    fn upload_decode_rejects_out_of_range_keys() {
        let mut rng = SeededRng::new(19);
        let model = MoeModel::new(flux_moe::MoeConfig::tiny(), &mut rng);
        let good_key = model.expert_keys()[0];
        let new = model.expert(good_key).clone();
        let updates = vec![ExpertUpdate {
            key: good_key,
            expert: new,
            weight: 1.0,
        }];
        let mut encoded =
            EncodedUpload::encode(&updates, None, &model, CompressionConfig::LosslessDelta);
        // Forge a rogue key far out of range. Without resealing, the
        // checksum catches the tampering first.
        encoded.experts[0].key = ExpertKey::new(good_key.layer, 10_000);
        let err = encoded.decode(&model).unwrap_err();
        assert!(matches!(err, DecodeError::ChecksumMismatch { .. }));
        // With a fresh seal the typed key validation fires instead.
        encoded.reseal();
        let err = encoded.decode(&model).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::KeyOutOfRange { key } if key.expert == 10_000
        ));
    }

    #[test]
    fn upload_checksum_round_trip_and_corruption() {
        let mut rng = SeededRng::new(23);
        let model = MoeModel::new(flux_moe::MoeConfig::tiny(), &mut rng);
        let key = model.expert_keys()[0];
        // A trained-looking expert, so the sparse payloads are not empty.
        let mut expert = model.expert(key).clone();
        let (r, c) = expert.w1.shape();
        expert
            .w1
            .add_scaled(&random_matrix(24, r, c), 0.01)
            .unwrap();
        expert.b2[0] += 0.125;
        let updates = vec![ExpertUpdate {
            key,
            expert,
            weight: 2.0,
        }];
        let head = (perturbed(model.active_head(), 25), 1.0f32);
        for config in [
            CompressionConfig::Dense,
            CompressionConfig::LosslessDelta,
            CompressionConfig::quantized(BitWidth::Int8),
            CompressionConfig::sparse(0.5),
            CompressionConfig::quantized_sparse(BitWidth::Int4, 0.25),
        ] {
            let encoded = EncodedUpload::encode(&updates, Some(&head), &model, config);
            assert_eq!(encoded.checksum, encoded.content_checksum());
            // Clean uploads decode.
            let (decoded, decoded_head) = encoded.decode(&model).unwrap();
            assert_eq!(decoded.len(), 1);
            assert!(decoded_head.is_some());
            // Every seeded corruption and truncation — whichever tensor,
            // word and bit the seed lands on — is rejected by the word-wise
            // checksum before any tensor is touched, never a panic.
            for seed in 0..256 {
                for damaged in [encoded.corrupted(seed), encoded.truncated(seed)] {
                    let err = damaged.decode(&model).unwrap_err();
                    assert!(
                        matches!(err, DecodeError::ChecksumMismatch { .. }),
                        "{config:?} seed {seed}: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn folds_notice_every_single_bit_flip_and_lost_tail() {
        // Odd lengths on purpose: the last fold of each vector is padded.
        let words: Vec<u32> = (1..=7u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let sealed = fold_u32s(FNV_OFFSET, &words);
        for i in 0..words.len() {
            for bit in 0..32 {
                let mut flipped = words.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(
                    fold_u32s(FNV_OFFSET, &flipped),
                    sealed,
                    "word {i} bit {bit}"
                );
            }
        }
        // The padding is zero, so only the sealed length tells a vector
        // from the same vector without its trailing zeros.
        let levels: [i8; 11] = [3, -7, 0, 1, 127, -128, 5, 0, -1, 0, 0];
        let sealed = fold_levels(FNV_OFFSET, &levels);
        for i in 0..levels.len() {
            for bit in 0..8 {
                let mut flipped = levels;
                flipped[i] ^= (1u8 << bit) as i8;
                assert_ne!(
                    fold_levels(FNV_OFFSET, &flipped),
                    sealed,
                    "level {i} bit {bit}"
                );
            }
        }
        for len in 0..levels.len() {
            assert_ne!(
                fold_levels(FNV_OFFSET, &levels[..len]),
                sealed,
                "tail {len}"
            );
        }
        let zero_tail = [9u32, 4, 0];
        assert_ne!(
            fold_u32s(FNV_OFFSET, &zero_tail[..2]),
            fold_u32s(FNV_OFFSET, &zero_tail)
        );
    }

    #[test]
    fn dense_payload_byte_helper_matches_encoder() {
        let mut rng = SeededRng::new(20);
        let model = MoeModel::new(flux_moe::MoeConfig::tiny(), &mut rng);
        let key = model.expert_keys()[0];
        let updates = vec![ExpertUpdate {
            key,
            expert: model.expert(key).clone(),
            weight: 1.0,
        }];
        let head = (model.active_head().clone(), 1.0f32);
        let encoded = EncodedUpload::encode(
            &updates,
            Some(&head),
            &model,
            CompressionConfig::LosslessDelta,
        );
        assert_eq!(
            encoded.dense_bytes(),
            dense_upload_payload_bytes(&updates, Some(&head))
        );
    }
}
