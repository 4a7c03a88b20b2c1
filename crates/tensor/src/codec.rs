//! The one little-endian byte codec behind every Flux on-disk format.
//!
//! Model checkpoints (`FLUXMOE1`), the per-shard snapshot files and their
//! manifest, the run-state blob (`FLUXRUN1`) and the staged-aggregator blob
//! (`FLUXAGG1`) are all written through [`Writer`] and read through
//! [`Reader`]; the two checksums those formats and the upload path use live
//! here as well.
//!
//! The reader is the single place that meets bytes from outside the
//! program, so it carries the two guarantees every decoder needs: every
//! read is length-checked and fails with one typed [`Truncated`], and a
//! length prefix is held against the bytes that remain *before* anything is
//! allocated for it — no decoder can be made to reserve more memory than
//! the input it was handed.

use std::fmt;

use crate::Matrix;

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Byte-wise FNV-1a: one multiply per byte. What `MoeModel::param_checksum`
/// folds parameters with; too slow for megabyte files, which use
/// [`checksum`].
#[inline]
pub fn fnv_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = fold(hash, u64::from(b));
    }
    hash
}

/// One FNV-1a step over a whole 64-bit word: one multiply per word, not per
/// byte. For a fixed `hash` the XOR is a bijection of `word`, and the
/// multiplication by the odd prime is a bijection of the result, so two
/// streams that differ in exactly one folded word always end on different
/// hashes: the step where they differ separates them and every later step,
/// folding equal words, keeps them apart.
#[inline]
pub fn fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// Word-folded 64-bit checksum of a buffer: the length first, then the
/// bytes as little-endian 64-bit words, a short tail zero-padded.
///
/// What it always detects, by the bijection argument on [`fold`]: any
/// change confined to one aligned 8-byte word (so every single-byte and
/// single-bit flip), and any truncation or zero-extension that keeps the
/// word count — the sealed lengths differ in one fold and every later word
/// is equal. Any other damage is missed with probability 2⁻⁶⁴.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash = fold(FNV_OFFSET, bytes.len() as u64);
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        hash = fold(hash, u64::from_le_bytes(le_array(word)));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        hash = fold(hash, u64::from_le_bytes(last));
    }
    hash
}

/// A read ran past the end of the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated {
    /// Bytes the read (or the length prefix just read) asked for.
    pub wanted: usize,
    /// Bytes that were left.
    pub left: usize,
}

impl fmt::Display for Truncated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "input truncated: wanted {} bytes, {} left",
            self.wanted, self.left
        )
    }
}

impl std::error::Error for Truncated {}

/// A byte field is longer than its `u32` length prefix can say; nothing was
/// written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooLong {
    /// Length of the refused field in bytes.
    pub len: usize,
}

impl fmt::Display for TooLong {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} bytes do not fit the format's u32 length prefix",
            self.len
        )
    }
}

impl std::error::Error for TooLong {}

/// An optional field did not decode: the input ended, or its presence byte
/// is neither `0` (absent) nor `1` (present).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BadOption {
    /// The presence byte or the value after it is cut short.
    Truncated(Truncated),
    /// A presence byte the format does not define.
    UnknownTag(u8),
}

impl fmt::Display for BadOption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BadOption::Truncated(e) => e.fmt(f),
            BadOption::UnknownTag(tag) => write!(f, "unknown presence tag {tag}"),
        }
    }
}

impl std::error::Error for BadOption {}

impl From<Truncated> for BadOption {
    fn from(e: Truncated) -> Self {
        BadOption::Truncated(e)
    }
}

/// Append-only little-endian writer over a plain `Vec<u8>`.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer whose buffer already holds `bytes`: for an encoder
    /// that knows its output's size, one allocation instead of a doubling
    /// series.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Hands the buffer over without copying it.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    pub fn put_f32(&mut self, v: f32) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64` (bit-exact, via `to_bits`).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends an in-memory count or dimension as a `u32`.
    ///
    /// # Panics
    ///
    /// Panics when `n` exceeds `u32::MAX`: no structure this program builds
    /// has four billion layers, experts or rows, and truncating the prefix
    /// would write a file that decodes to something else.
    pub fn put_count(&mut self, n: usize) {
        self.put_u32(u32::try_from(n).expect("in-memory counts fit the format's u32"));
    }

    /// Appends `values` as one little-endian slab, no prefix.
    pub fn put_f32s(&mut self, values: &[f32]) {
        let start = self.buf.len();
        self.buf.resize(start + 4 * values.len(), 0);
        for (dst, v) in self.buf[start..].chunks_exact_mut(4).zip(values) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends a count-prefixed `f32` vector.
    pub fn put_f32_slice(&mut self, values: &[f32]) {
        self.put_count(values.len());
        self.put_f32s(values);
    }

    /// Appends a length-prefixed byte field.
    ///
    /// # Errors
    ///
    /// Refuses (writing nothing) a field longer than the `u32` prefix can
    /// say — a staged aggregator is tens of megabytes on a small model, so
    /// unlike a count this bound is one correct use can approach.
    pub fn put_byte_slice(&mut self, bytes: &[u8]) -> Result<(), TooLong> {
        self.put_u32(byte_len_prefix(bytes.len())?);
        self.put_bytes(bytes);
        Ok(())
    }

    /// Appends a matrix: rows, cols, then the row-major data as one slab.
    pub fn put_matrix(&mut self, m: &Matrix) {
        self.put_count(m.rows());
        self.put_count(m.cols());
        self.put_f32s(m.as_slice());
    }

    /// Appends an optional matrix: a presence byte, then the matrix.
    pub fn put_opt_matrix(&mut self, m: Option<&Matrix>) {
        match m {
            Some(m) => {
                self.put_u8(1);
                self.put_matrix(m);
            }
            None => self.put_u8(0),
        }
    }
}

fn byte_len_prefix(len: usize) -> Result<u32, TooLong> {
    u32::try_from(len).map_err(|_| TooLong { len })
}

/// Length-checked little-endian reader over a borrowed buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Splits the next `n` bytes off the front.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than `n` bytes remain; nothing is consumed.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        if n > self.rest.len() {
            return Err(Truncated {
                wanted: n,
                left: self.rest.len(),
            });
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`Truncated`] at the end of the input.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        Ok(u32::from_le_bytes(le_array(self.take(4)?)))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        Ok(u64::from_le_bytes(le_array(self.take(8)?)))
    }

    /// Reads a little-endian `f32`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than 4 bytes remain.
    pub fn f32(&mut self) -> Result<f32, Truncated> {
        Ok(le_f32(self.take(4)?))
    }

    /// Reads a little-endian `f64`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than 8 bytes remain.
    pub fn f64(&mut self) -> Result<f64, Truncated> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u32` count of items that each occupy at least `item_bytes`
    /// on the wire, and holds it against what is left: a count promising
    /// more items than the remaining bytes could encode fails here, before
    /// the caller allocates anything for them.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when the prefix itself is cut short or `count ×
    /// item_bytes` exceeds the bytes that remain.
    pub fn count(&mut self, item_bytes: usize) -> Result<usize, Truncated> {
        let count = self.u32()? as usize;
        let wanted = count.saturating_mul(item_bytes);
        if wanted > self.rest.len() {
            return Err(Truncated {
                wanted,
                left: self.rest.len(),
            });
        }
        Ok(count)
    }

    /// Reads `n` `f32`s from one slab, converted in a single pass.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than `4 n` bytes remain (nothing is
    /// allocated).
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, Truncated> {
        let slab = self.take(n.saturating_mul(4))?;
        Ok(slab.chunks_exact(4).map(le_f32).collect())
    }

    /// Reads a count-prefixed `f32` vector.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when the prefix or the data is cut short.
    pub fn f32_slice(&mut self) -> Result<Vec<f32>, Truncated> {
        let n = self.count(4)?;
        self.f32s(n)
    }

    /// Reads a length-prefixed byte field, borrowed from the input.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when the prefix or the field is cut short.
    pub fn byte_slice(&mut self) -> Result<&'a [u8], Truncated> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// Reads a matrix written by [`Writer::put_matrix`].
    ///
    /// # Errors
    ///
    /// [`Truncated`] when the header is cut short or `rows × cols` values
    /// are more than the input holds.
    pub fn matrix(&mut self) -> Result<Matrix, Truncated> {
        let rows = self.u32()? as usize;
        let cols = self.u32()? as usize;
        let data = self.f32s(rows.saturating_mul(cols))?;
        Ok(Matrix::from_vec(rows, cols, data).expect("f32s returned rows × cols values"))
    }

    /// Reads the presence byte of an optional field: `0` absent, `1`
    /// present.
    ///
    /// # Errors
    ///
    /// [`BadOption::UnknownTag`] on any other byte — a reader that took
    /// `2..=255` for "absent" would accept a file no writer produces —
    /// and [`BadOption::Truncated`] at the end of the input.
    pub fn presence(&mut self) -> Result<bool, BadOption> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(BadOption::UnknownTag(tag)),
        }
    }

    /// Reads an optional matrix written by [`Writer::put_opt_matrix`].
    ///
    /// # Errors
    ///
    /// [`BadOption`] when the presence byte is unknown, or it or the matrix
    /// is cut short.
    pub fn opt_matrix(&mut self) -> Result<Option<Matrix>, BadOption> {
        Ok(if self.presence()? {
            Some(self.matrix()?)
        } else {
            None
        })
    }
}

/// The one place four bytes become an `f32`.
#[inline]
fn le_f32(chunk: &[u8]) -> f32 {
    f32::from_le_bytes(le_array(chunk))
}

/// A length-checked slice as the fixed-size array `from_le_bytes` takes.
#[inline]
fn le_array<const N: usize>(bytes: &[u8]) -> [u8; N] {
    bytes
        .try_into()
        .expect("caller took exactly N bytes off the input")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_slabs_and_matrices_round_trip() {
        let m = Matrix::from_vec(
            2,
            3,
            vec![1.0, -2.5, 0.0, f32::MAX, f32::MIN_POSITIVE, -0.0],
        )
        .unwrap();
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f32(1.5);
        w.put_f64(-2.25);
        w.put_f32_slice(&[0.5, f32::INFINITY]);
        w.put_byte_slice(b"xyz").unwrap();
        w.put_matrix(&m);
        w.put_opt_matrix(Some(&m));
        w.put_opt_matrix(None);
        w.put_bytes(b"end");
        assert_eq!(
            w.as_slice().len(),
            1 + 4 + 8 + 4 + 8 + 12 + 7 + 32 + 33 + 1 + 3
        );

        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(0x0123_4567_89AB_CDEF));
        assert_eq!(r.f32(), Ok(1.5));
        assert_eq!(r.f64(), Ok(-2.25));
        assert_eq!(r.f32_slice(), Ok(vec![0.5, f32::INFINITY]));
        assert_eq!(r.byte_slice(), Ok(&b"xyz"[..]));
        let back = r.matrix().unwrap();
        assert_eq!(back.shape(), (2, 3));
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&back),
            bits(&m),
            "-0.0 and the extremes keep their bits"
        );
        assert_eq!(r.opt_matrix(), Ok(Some(m.clone())));
        assert_eq!(r.opt_matrix(), Ok(None));
        assert_eq!(r.take(3), Ok(&b"end"[..]));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8(), Err(Truncated { wanted: 1, left: 0 }));
    }

    #[test]
    fn a_presence_byte_is_zero_or_one() {
        assert_eq!(Reader::new(&[0]).opt_matrix(), Ok(None));
        for tag in 2..=u8::MAX {
            // A complete 0 × 0 matrix follows, so only the tag can be wrong.
            let bytes = [tag, 0, 0, 0, 0, 0, 0, 0, 0];
            assert_eq!(
                Reader::new(&bytes).opt_matrix(),
                Err(BadOption::UnknownTag(tag))
            );
        }
        let cut = Truncated { wanted: 1, left: 0 };
        assert_eq!(Reader::new(&[]).presence(), Err(BadOption::Truncated(cut)));
    }

    #[test]
    fn a_failed_take_consumes_nothing() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(Truncated { wanted: 4, left: 3 }));
        assert_eq!(r.take(3), Ok(&[1u8, 2, 3][..]));
    }

    #[test]
    fn length_prefixes_are_capped_by_what_remains() {
        // u32::MAX items of 4 bytes each, followed by 8 bytes of input.
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 8]);
        let wanted = u32::MAX as usize * 4;
        let cut = Truncated { wanted, left: 8 };
        assert_eq!(Reader::new(&bytes).count(4), Err(cut));
        assert_eq!(Reader::new(&bytes).f32_slice(), Err(cut));
        assert_eq!(
            Reader::new(&bytes).byte_slice(),
            Err(Truncated {
                wanted: u32::MAX as usize,
                left: 8
            })
        );
        // rows × cols × 4 overflows nothing and allocates nothing.
        let mut shape = u32::MAX.to_le_bytes().to_vec();
        shape.extend_from_slice(&u32::MAX.to_le_bytes());
        shape.extend_from_slice(&[0; 8]);
        let err = Reader::new(&shape).matrix().unwrap_err();
        assert_eq!(err.left, 8);
        assert!(err.wanted > 8);
    }

    #[test]
    fn oversized_byte_fields_are_refused_not_truncated() {
        assert_eq!(byte_len_prefix(u32::MAX as usize), Ok(u32::MAX));
        assert_eq!(
            byte_len_prefix(u32::MAX as usize + 1),
            Err(TooLong {
                len: u32::MAX as usize + 1
            })
        );
    }

    #[test]
    fn fnv_bytes_matches_the_published_vectors() {
        assert_eq!(fnv_bytes(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv_bytes(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv_bytes(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn checksum_is_pinned() {
        // What a v2 manifest stores: an empty buffer, one whole word, and a
        // word plus a one-byte tail.
        assert_eq!(checksum(b""), 0xaf63_bd4c_8601_b7df);
        assert_eq!(checksum(b"abcdefgh"), 0x8f88_562b_ada1_ea62);
        assert_eq!(checksum(b"abcdefghi"), 0x7133_7637_fa6a_ecc2);
    }
}
