//! Durable per-shard checkpoints of a [`ShardedStore`].
//!
//! A tenant's on-disk checkpoint is a directory of versioned files:
//!
//! ```text
//! <dir>/
//!   MANIFEST.bin    head of the checkpoint: format version, round epoch,
//!                   per-file FNV-1a checksums + sizes, an opaque
//!                   run-state blob, and a trailing self-checksum.
//!                   Rewritten (atomically) on every checkpoint — LAST.
//!   frozen.bin      full model checkpoint (FLUXMOE1) written once; only
//!                   its frozen parameters (embedding, attention, gating)
//!                   and config matter — expert/head overlays supersede
//!                   the rest on load.
//!   shard_000.bin   every expert owned by store shard 0, sorted by key.
//!   ...             rewritten only when the shard's version counter moved
//!   shard_N.bin     since the last flush: a checkpoint costs O(dirty
//!                   shards), not O(model).
//!   head.bin        the task heads (generation + optional classification).
//! ```
//!
//! Every file is written to a temp name and atomically renamed into place;
//! the manifest is written after all content files, so a crash mid-
//! checkpoint leaves the previous manifest pointing at the previous
//! (complete) file set, or a manifest whose checksums expose any torn
//! file. Corruption is *detected and attributed* — [`SnapshotError`] names
//! the file whose content hash diverged.
//!
//! The manifest's meta blob is opaque to this module: the driver stores
//! its serialized round state there (round index, clock, records, and the
//! mid-round aggregator), making one directory the complete recovery
//! point for a run.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use bytes::{BufMut, BytesMut};

use flux_moe::checkpoint::{self, CheckpointError};
use flux_moe::ExpertKey;
use flux_tensor::Matrix;

use crate::aggregate::{ExpertUpdate, ShardedAggregator, StagedRound};
use crate::compress::{fnv_bytes, FNV_OFFSET};
use crate::store::ShardedStore;

/// Magic bytes of a shard file.
const SHARD_MAGIC: &[u8; 8] = b"FLUXSHD1";
/// Magic bytes of the head file.
const HEAD_MAGIC: &[u8; 8] = b"FLUXHED1";
/// Magic bytes of the manifest.
const MANIFEST_MAGIC: &[u8; 8] = b"FLUXMAN1";
/// Magic bytes of a serialized aggregator staging state.
const STAGED_MAGIC: &[u8; 8] = b"FLUXAGG1";
/// On-disk format version.
const FORMAT_VERSION: u32 = 1;

/// Manifest file name.
pub const MANIFEST_FILE: &str = "MANIFEST.bin";
/// Frozen-parameters file name.
pub const FROZEN_FILE: &str = "frozen.bin";
/// Head file name.
pub const HEAD_FILE: &str = "head.bin";

/// File name of shard `s`.
pub fn shard_file(s: usize) -> String {
    format!("shard_{s:03}.bin")
}

/// Errors produced while writing or loading durable checkpoints.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// A file's structure could not be parsed.
    Corrupt(String),
    /// A file's content does not match the checksum the manifest recorded
    /// for it (torn write, bit rot, or tampering).
    ChecksumMismatch {
        /// The offending file (relative to the checkpoint directory).
        file: String,
    },
    /// A file the manifest references is missing.
    Missing(String),
    /// The checkpoint is internally valid but does not fit the requested
    /// restore (wrong shard count, wrong run fingerprint, …).
    Mismatch(String),
    /// A field is too large for its length prefix; nothing was written.
    TooLarge(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            SnapshotError::ChecksumMismatch { file } => {
                write!(f, "checksum mismatch in checkpoint file {file}")
            }
            SnapshotError::Missing(file) => write!(f, "checkpoint file missing: {file}"),
            SnapshotError::Mismatch(msg) => write!(f, "checkpoint does not fit: {msg}"),
            SnapshotError::TooLarge(msg) => write!(f, "checkpoint field too large: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<CheckpointError> for SnapshotError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io(io) => SnapshotError::Io(io),
            other => SnapshotError::Corrupt(other.to_string()),
        }
    }
}

/// What one durable file currently holds, as tracked in memory by the
/// store (to skip clean shards) and recorded in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FileRecord {
    /// Store version counter the file was written at.
    pub version: u64,
    /// FNV-1a checksum of the file content.
    pub checksum: u64,
    /// File length in bytes.
    pub len: u64,
}

/// In-memory record of the on-disk checkpoint backing a store.
#[derive(Debug, Default)]
pub(crate) struct PersistState {
    /// Per-shard file records (`None` = never written).
    pub shards: Vec<Option<FileRecord>>,
    /// Head file record.
    pub head: Option<FileRecord>,
    /// Frozen-model file record (written once).
    pub frozen: Option<FileRecord>,
}

impl PersistState {
    /// A state with no files written yet.
    pub fn empty(num_shards: usize) -> Self {
        Self {
            shards: vec![None; num_shards],
            head: None,
            frozen: None,
        }
    }
}

/// Cost and coverage of one checkpoint flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Round epoch the manifest records (the store's completed rounds).
    pub epoch: u64,
    /// Shard files rewritten this flush.
    pub shards_written: usize,
    /// Shard files skipped because their version was unchanged on disk.
    pub shards_skipped: usize,
    /// Whether the head file was rewritten.
    pub head_written: bool,
    /// Whether the frozen-model file was written (first flush only).
    pub frozen_written: bool,
    /// Bytes written this flush (content files + manifest).
    pub bytes_written: u64,
}

/// A store loaded back from a checkpoint directory.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// The restored store (expert shards, heads, round epoch and persist
    /// bookkeeping all rebuilt).
    pub store: ShardedStore,
    /// Round epoch recorded in the manifest.
    pub epoch: u64,
    /// The opaque meta blob the checkpointing caller stored (the driver's
    /// serialized run state).
    pub meta: Vec<u8>,
}

/// FNV-1a checksum of a whole buffer.
fn content_checksum(data: &[u8]) -> u64 {
    fnv_bytes(FNV_OFFSET, data)
}

/// Writes `data` to `path` atomically: temp file in the same directory,
/// then rename.
fn write_atomic(path: &Path, data: &[u8]) -> Result<u64, SnapshotError> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, data)?;
    fs::rename(&tmp, path)?;
    Ok(data.len() as u64)
}

/// Reads a checkpoint file, mapping a missing file to
/// [`SnapshotError::Missing`] (named, so recovery reports *which* piece of
/// the checkpoint is gone).
fn read_file(dir: &Path, name: &str) -> Result<Vec<u8>, SnapshotError> {
    let path = dir.join(name);
    match fs::read(&path) {
        Ok(data) => Ok(data),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            Err(SnapshotError::Missing(name.to_string()))
        }
        Err(e) => Err(e.into()),
    }
}

/// Verifies a file's content against the manifest's record for it.
fn verify(name: &str, data: &[u8], record: FileRecord) -> Result<(), SnapshotError> {
    if data.len() as u64 != record.len || content_checksum(data) != record.checksum {
        return Err(SnapshotError::ChecksumMismatch {
            file: name.to_string(),
        });
    }
    Ok(())
}

/// Serializes one shard: every expert it owns, sorted by key.
fn encode_shard(
    shard: usize,
    num_shards: usize,
    experts: &[(ExpertKey, &flux_moe::Expert)],
) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_slice(SHARD_MAGIC);
    buf.put_u32_le(shard as u32);
    buf.put_u32_le(num_shards as u32);
    buf.put_u32_le(experts.len() as u32);
    for (key, expert) in experts {
        buf.put_u32_le(key.layer as u32);
        buf.put_u32_le(key.expert as u32);
        checkpoint::put_expert(&mut buf, expert);
    }
    buf.freeze().to_vec()
}

/// Parses a shard file into its key→expert entries.
fn decode_shard(
    name: &str,
    mut buf: &[u8],
    expected_shard: usize,
    expected_num_shards: usize,
) -> Result<Vec<(ExpertKey, flux_moe::Expert)>, SnapshotError> {
    let buf = &mut buf;
    let magic = checkpoint::take(buf, SHARD_MAGIC.len())?;
    if magic != SHARD_MAGIC {
        return Err(SnapshotError::Corrupt(format!("{name}: bad shard magic")));
    }
    let shard = checkpoint::get_u32(buf)? as usize;
    let num_shards = checkpoint::get_u32(buf)? as usize;
    if shard != expected_shard || num_shards != expected_num_shards {
        return Err(SnapshotError::Mismatch(format!(
            "{name}: holds shard {shard}/{num_shards}, expected {expected_shard}/{expected_num_shards}"
        )));
    }
    let count = checkpoint::get_u32(buf)? as usize;
    if count > 1_000_000 {
        return Err(SnapshotError::Corrupt(format!(
            "{name}: implausible expert count {count}"
        )));
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let layer = checkpoint::get_u32(buf)? as usize;
        let expert_idx = checkpoint::get_u32(buf)? as usize;
        let expert = checkpoint::get_expert(buf)?;
        entries.push((ExpertKey::new(layer, expert_idx), expert));
    }
    Ok(entries)
}

/// Serializes the head file.
fn encode_head(lm_head: &Matrix, cls_head: Option<&Matrix>) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_slice(HEAD_MAGIC);
    checkpoint::put_matrix(&mut buf, lm_head);
    match cls_head {
        Some(h) => {
            buf.put_u8(1);
            checkpoint::put_matrix(&mut buf, h);
        }
        None => buf.put_u8(0),
    }
    buf.freeze().to_vec()
}

/// Parses the head file.
fn decode_head(mut buf: &[u8]) -> Result<(Matrix, Option<Matrix>), SnapshotError> {
    let buf = &mut buf;
    let magic = checkpoint::take(buf, HEAD_MAGIC.len())?;
    if magic != HEAD_MAGIC {
        return Err(SnapshotError::Corrupt("head.bin: bad magic".into()));
    }
    let lm_head = checkpoint::get_matrix(buf)?;
    let cls_head = if checkpoint::get_u8(buf)? == 1 {
        Some(checkpoint::get_matrix(buf)?)
    } else {
        None
    };
    Ok((lm_head, cls_head))
}

/// The manifest's parsed content.
struct Manifest {
    epoch: u64,
    num_shards: usize,
    frozen: FileRecord,
    head: FileRecord,
    shards: Vec<FileRecord>,
    meta: Vec<u8>,
}

fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_slice(MANIFEST_MAGIC);
    buf.put_u32_le(FORMAT_VERSION);
    buf.put_u64_le(m.epoch);
    buf.put_u32_le(m.num_shards as u32);
    for record in std::iter::once(&m.frozen)
        .chain(std::iter::once(&m.head))
        .chain(m.shards.iter())
    {
        buf.put_u64_le(record.version);
        buf.put_u64_le(record.checksum);
        buf.put_u64_le(record.len);
    }
    buf.put_u32_le(m.meta.len() as u32);
    buf.put_slice(&m.meta);
    let self_checksum = content_checksum(&buf);
    buf.put_u64_le(self_checksum);
    buf.freeze().to_vec()
}

fn decode_manifest(data: &[u8]) -> Result<Manifest, SnapshotError> {
    if data.len() < 8 {
        return Err(SnapshotError::Corrupt("MANIFEST.bin: truncated".into()));
    }
    let (body, tail) = data.split_at(data.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("split_at leaves 8 bytes"));
    if content_checksum(body) != stored {
        return Err(SnapshotError::ChecksumMismatch {
            file: MANIFEST_FILE.to_string(),
        });
    }
    let buf = &mut &body[..];
    let magic = checkpoint::take(buf, MANIFEST_MAGIC.len())?;
    if magic != MANIFEST_MAGIC {
        return Err(SnapshotError::Corrupt("MANIFEST.bin: bad magic".into()));
    }
    let version = checkpoint::get_u32(buf)?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::Mismatch(format!(
            "MANIFEST.bin: format version {version}, this build reads {FORMAT_VERSION}"
        )));
    }
    let epoch = checkpoint::get_u64(buf)?;
    let num_shards = checkpoint::get_u32(buf)? as usize;
    if num_shards == 0 || num_shards > 65_536 {
        return Err(SnapshotError::Corrupt(format!(
            "MANIFEST.bin: implausible shard count {num_shards}"
        )));
    }
    let get_record = |buf: &mut &[u8]| -> Result<FileRecord, SnapshotError> {
        Ok(FileRecord {
            version: checkpoint::get_u64(buf)?,
            checksum: checkpoint::get_u64(buf)?,
            len: checkpoint::get_u64(buf)?,
        })
    };
    let frozen = get_record(buf)?;
    let head = get_record(buf)?;
    let mut shards = Vec::with_capacity(num_shards);
    for _ in 0..num_shards {
        shards.push(get_record(buf)?);
    }
    let meta_len = checkpoint::get_u32(buf)? as usize;
    let meta = checkpoint::take(buf, meta_len)?.to_vec();
    Ok(Manifest {
        epoch,
        num_shards,
        frozen,
        head,
        shards,
        meta,
    })
}

impl ShardedStore {
    /// Flushes this store to `dir` as a durable checkpoint, rewriting only
    /// shard files whose version moved since the last flush (plus the head
    /// when dirty, the frozen model on the first flush, and the manifest
    /// always). `meta` is an opaque blob stored in the manifest — the
    /// driver keeps its serialized run state there.
    ///
    /// Files are written atomically (temp + rename) with the manifest
    /// last, so a crash mid-flush never leaves a manifest pointing at
    /// missing or half-written content.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on filesystem failure.
    pub fn checkpoint(
        &self,
        dir: impl AsRef<Path>,
        meta: &[u8],
    ) -> Result<CheckpointStats, SnapshotError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        // The persist lock serializes concurrent checkpoints of one store.
        let mut persist = self.persist.lock();
        let mut bytes_written = 0u64;

        // Frozen parameters: written once. Which round's snapshot seeds it
        // is irrelevant — the shard/head files supersede every trainable
        // parameter on load.
        let mut frozen_written = false;
        if persist.frozen.is_none() || !dir.join(FROZEN_FILE).exists() {
            let model = self.snapshot();
            let data = flux_moe::checkpoint::to_bytes(&model);
            bytes_written += write_atomic(&dir.join(FROZEN_FILE), &data)?;
            persist.frozen = Some(FileRecord {
                version: 0,
                checksum: content_checksum(&data),
                len: data.len() as u64,
            });
            frozen_written = true;
        }

        // Dirty shards only: skip every shard whose version is already on
        // disk. O(dirty shards), not O(model).
        let mut shards_written = 0usize;
        let mut shards_skipped = 0usize;
        for s in 0..self.num_shards {
            let version = self.shards[s].read().version;
            let clean = persist.shards[s].is_some_and(|r| r.version == version)
                && dir.join(shard_file(s)).exists();
            if clean {
                shards_skipped += 1;
                continue;
            }
            let data = {
                let guard = self.shards[s].read();
                let mut entries: Vec<(ExpertKey, &flux_moe::Expert)> =
                    guard.experts.iter().map(|(k, e)| (*k, e)).collect();
                entries.sort_by_key(|(k, _)| (k.layer, k.expert));
                encode_shard(s, self.num_shards, &entries)
            };
            bytes_written += write_atomic(&dir.join(shard_file(s)), &data)?;
            persist.shards[s] = Some(FileRecord {
                version,
                checksum: content_checksum(&data),
                len: data.len() as u64,
            });
            shards_written += 1;
        }

        // The head file, when dirty.
        let head_version = self.head.read().version;
        let mut head_written = false;
        if !(persist.head.is_some_and(|r| r.version == head_version)
            && dir.join(HEAD_FILE).exists())
        {
            let data = {
                let guard = self.head.read();
                encode_head(&guard.lm_head, guard.cls_head.as_ref())
            };
            bytes_written += write_atomic(&dir.join(HEAD_FILE), &data)?;
            persist.head = Some(FileRecord {
                version: head_version,
                checksum: content_checksum(&data),
                len: data.len() as u64,
            });
            head_written = true;
        }

        // The manifest goes last: it only ever references complete files.
        let epoch = self.rounds_completed() as u64;
        let manifest = Manifest {
            epoch,
            num_shards: self.num_shards,
            frozen: persist.frozen.expect("frozen written above"),
            head: persist.head.expect("head written above"),
            shards: (0..self.num_shards)
                .map(|s| persist.shards[s].expect("every shard flushed or recorded"))
                .collect(),
            meta: meta.to_vec(),
        };
        let data = encode_manifest(&manifest);
        bytes_written += write_atomic(&dir.join(MANIFEST_FILE), &data)?;

        Ok(CheckpointStats {
            epoch,
            shards_written,
            shards_skipped,
            head_written,
            frozen_written,
            bytes_written,
        })
    }
}

/// Loads a store back from a checkpoint directory, verifying every file's
/// checksum against the manifest.
///
/// # Errors
///
/// Returns a [`SnapshotError`] naming the offending file on checksum
/// mismatch or missing content, or describing the structural problem.
pub fn load_store(dir: impl AsRef<Path>) -> Result<LoadedSnapshot, SnapshotError> {
    let dir = dir.as_ref();
    let manifest = decode_manifest(&read_file(dir, MANIFEST_FILE)?)?;

    let frozen_bytes = read_file(dir, FROZEN_FILE)?;
    verify(FROZEN_FILE, &frozen_bytes, manifest.frozen)?;
    let mut model = flux_moe::checkpoint::from_bytes(&frozen_bytes)?;
    let per_layer = model.experts_per_layer();

    for s in 0..manifest.num_shards {
        let name = shard_file(s);
        let data = read_file(dir, &name)?;
        verify(&name, &data, manifest.shards[s])?;
        for (key, expert) in decode_shard(&name, &data, s, manifest.num_shards)? {
            let in_range = per_layer.get(key.layer).is_some_and(|&n| key.expert < n);
            if !in_range {
                return Err(SnapshotError::Corrupt(format!(
                    "{name}: expert key ({}, {}) out of range",
                    key.layer, key.expert
                )));
            }
            if crate::store::shard_of_key(key, manifest.num_shards) != s {
                return Err(SnapshotError::Corrupt(format!(
                    "{name}: expert key ({}, {}) routed to the wrong shard",
                    key.layer, key.expert
                )));
            }
            model.set_expert(key, expert);
        }
    }

    let head_bytes = read_file(dir, HEAD_FILE)?;
    verify(HEAD_FILE, &head_bytes, manifest.head)?;
    let (lm_head, cls_head) = decode_head(&head_bytes)?;
    if lm_head.shape() != model.lm_head.shape() {
        return Err(SnapshotError::Mismatch(
            "head.bin: generation head shape differs from the frozen model".into(),
        ));
    }
    if cls_head.as_ref().map(Matrix::shape) != model.cls_head.as_ref().map(Matrix::shape) {
        return Err(SnapshotError::Mismatch(
            "head.bin: classification head presence/shape differs from the frozen model".into(),
        ));
    }
    model.lm_head = lm_head;
    model.cls_head = cls_head;

    // Rebuild the persist bookkeeping at the restored store's version
    // counters (all zero), so the next checkpoint skips clean shards.
    let mut persist = PersistState::empty(manifest.num_shards);
    persist.frozen = Some(manifest.frozen);
    persist.head = Some(FileRecord {
        version: 0,
        ..manifest.head
    });
    for (s, record) in manifest.shards.iter().enumerate() {
        persist.shards[s] = Some(FileRecord {
            version: 0,
            ..*record
        });
    }

    let store =
        ShardedStore::from_persisted(model, manifest.num_shards, manifest.epoch as usize, persist);
    Ok(LoadedSnapshot {
        store,
        epoch: manifest.epoch,
        meta: manifest.meta,
    })
}

/// Serializes the staged (mid-round) state of an aggregator: per-shard
/// `(pid, update)` pairs, staged heads, and the submitted-pid set — the
/// set that keeps rejecting re-delivered uploads after a restore.
pub fn encode_staged_aggregator(aggregator: &ShardedAggregator) -> Vec<u8> {
    let state = aggregator.staged_state();
    let mut buf = BytesMut::new();
    buf.put_slice(STAGED_MAGIC);
    buf.put_u32_le(state.shards.len() as u32);
    for shard in &state.shards {
        buf.put_u32_le(shard.len() as u32);
        for (pid, update) in shard {
            buf.put_u64_le(*pid as u64);
            buf.put_u32_le(update.key.layer as u32);
            buf.put_u32_le(update.key.expert as u32);
            buf.put_f32_le(update.weight);
            checkpoint::put_expert(&mut buf, &update.expert);
        }
    }
    buf.put_u32_le(state.heads.len() as u32);
    for (pid, head, weight) in &state.heads {
        buf.put_u64_le(*pid as u64);
        buf.put_f32_le(*weight);
        checkpoint::put_matrix(&mut buf, head);
    }
    buf.put_u32_le(state.submitted.len() as u32);
    for pid in &state.submitted {
        buf.put_u64_le(*pid as u64);
    }
    buf.freeze().to_vec()
}

/// Rebuilds an aggregator from [`encode_staged_aggregator`] output.
///
/// # Errors
///
/// Returns a [`SnapshotError`] when the buffer is truncated or corrupt.
pub fn decode_staged_aggregator(mut data: &[u8]) -> Result<ShardedAggregator, SnapshotError> {
    let buf = &mut data;
    let magic = checkpoint::take(buf, STAGED_MAGIC.len())?;
    if magic != STAGED_MAGIC {
        return Err(SnapshotError::Corrupt(
            "staged aggregator: bad magic".into(),
        ));
    }
    let num_shards = checkpoint::get_u32(buf)? as usize;
    if num_shards == 0 || num_shards > 65_536 {
        return Err(SnapshotError::Corrupt(format!(
            "staged aggregator: implausible shard count {num_shards}"
        )));
    }
    let mut shards = Vec::with_capacity(num_shards);
    for _ in 0..num_shards {
        let count = checkpoint::get_u32(buf)? as usize;
        if count > 1_000_000 {
            return Err(SnapshotError::Corrupt(
                "staged aggregator: implausible staged count".into(),
            ));
        }
        let mut staged = Vec::with_capacity(count);
        for _ in 0..count {
            let pid = checkpoint::get_u64(buf)? as usize;
            let layer = checkpoint::get_u32(buf)? as usize;
            let expert_idx = checkpoint::get_u32(buf)? as usize;
            let weight = checkpoint::get_f32(buf)?;
            let expert = checkpoint::get_expert(buf)?;
            staged.push((
                pid,
                ExpertUpdate {
                    key: ExpertKey::new(layer, expert_idx),
                    expert,
                    weight,
                },
            ));
        }
        shards.push(staged);
    }
    let head_count = checkpoint::get_u32(buf)? as usize;
    if head_count > 1_000_000 {
        return Err(SnapshotError::Corrupt(
            "staged aggregator: implausible head count".into(),
        ));
    }
    let mut heads = Vec::with_capacity(head_count);
    for _ in 0..head_count {
        let pid = checkpoint::get_u64(buf)? as usize;
        let weight = checkpoint::get_f32(buf)?;
        let head = checkpoint::get_matrix(buf)?;
        heads.push((pid, head, weight));
    }
    let submitted_count = checkpoint::get_u32(buf)? as usize;
    if submitted_count > 10_000_000 {
        return Err(SnapshotError::Corrupt(
            "staged aggregator: implausible submitted count".into(),
        ));
    }
    let mut submitted = Vec::with_capacity(submitted_count);
    for _ in 0..submitted_count {
        submitted.push(checkpoint::get_u64(buf)? as usize);
    }
    Ok(ShardedAggregator::from_staged(StagedRound {
        shards,
        heads,
        submitted,
    }))
}

/// Deterministically corrupts one byte of `path` (for tests and the fault
/// harness): byte at `offset % len` gets XORed with a nonzero mask.
///
/// # Errors
///
/// Returns a [`SnapshotError`] when the file cannot be read or written.
pub fn corrupt_file_byte(path: impl AsRef<Path>, offset: u64) -> Result<(), SnapshotError> {
    let path: PathBuf = path.as_ref().to_path_buf();
    let mut data = fs::read(&path)?;
    if data.is_empty() {
        return Err(SnapshotError::Corrupt(
            "cannot corrupt an empty file".into(),
        ));
    }
    let i = (offset as usize) % data.len();
    data[i] ^= 0x5A;
    fs::write(&path, data)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_moe::{MoeConfig, MoeModel};
    use flux_tensor::SeededRng;
    use std::collections::HashMap;

    fn tiny_model(seed: u64) -> MoeModel {
        let mut rng = SeededRng::new(seed);
        MoeModel::new(MoeConfig::tiny(), &mut rng)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("flux_snapshot_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_and_load_round_trip_bit_identical() {
        let dir = temp_dir("round_trip");
        let store = ShardedStore::new(tiny_model(1), 4);
        let checksum = store.snapshot().param_checksum();
        let stats = store.checkpoint(&dir, b"meta-blob").unwrap();
        assert_eq!(stats.epoch, 0);
        assert_eq!(stats.shards_written, 4);
        assert!(stats.frozen_written);
        assert!(stats.head_written);

        let loaded = load_store(&dir).unwrap();
        assert_eq!(loaded.epoch, 0);
        assert_eq!(loaded.meta, b"meta-blob");
        assert_eq!(loaded.store.snapshot().param_checksum(), checksum);
        assert_eq!(loaded.store.rounds_completed(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_checkpoint_rewrites_only_dirty_shards() {
        let dir = temp_dir("incremental");
        let store = ShardedStore::new(tiny_model(2), 4);
        store.checkpoint(&dir, b"").unwrap();

        // Dirty exactly one shard.
        let key = ExpertKey::new(0, 1);
        let shard = crate::store::shard_of_key(key, 4);
        let mut rng = SeededRng::new(3);
        let expert = flux_moe::Expert::new(16, 32, &mut rng);
        store.install_shard(shard, HashMap::from([(key, expert.clone())]));
        store.complete_round();

        let stats = store.checkpoint(&dir, b"round-1").unwrap();
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.shards_written, 1, "only the dirty shard flushes");
        assert_eq!(stats.shards_skipped, 3);
        assert!(!stats.frozen_written, "frozen model written once");
        assert!(!stats.head_written, "head untouched");

        let loaded = load_store(&dir).unwrap();
        assert_eq!(loaded.epoch, 1);
        assert_eq!(loaded.store.expert(key), expert);
        assert_eq!(
            loaded.store.snapshot().param_checksum(),
            store.snapshot().param_checksum()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupting_one_shard_is_detected_and_attributed() {
        let dir = temp_dir("corrupt");
        let store = ShardedStore::new(tiny_model(4), 4);
        store.checkpoint(&dir, b"").unwrap();
        corrupt_file_byte(dir.join(shard_file(2)), 100).unwrap();
        let err = load_store(&dir).unwrap_err();
        match err {
            SnapshotError::ChecksumMismatch { file } => assert_eq!(file, shard_file(2)),
            other => panic!("expected checksum mismatch, got {other}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupting_the_manifest_is_detected() {
        let dir = temp_dir("manifest");
        let store = ShardedStore::new(tiny_model(5), 2);
        store.checkpoint(&dir, b"abc").unwrap();
        corrupt_file_byte(dir.join(MANIFEST_FILE), 40).unwrap();
        let err = load_store(&dir).unwrap_err();
        assert!(matches!(err, SnapshotError::ChecksumMismatch { file } if file == MANIFEST_FILE));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_shard_file_is_named() {
        let dir = temp_dir("missing");
        let store = ShardedStore::new(tiny_model(6), 3);
        store.checkpoint(&dir, b"").unwrap();
        fs::remove_file(dir.join(shard_file(1))).unwrap();
        let err = load_store(&dir).unwrap_err();
        assert!(matches!(err, SnapshotError::Missing(f) if f == shard_file(1)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn staged_aggregator_round_trips() {
        let store = ShardedStore::new(tiny_model(7), 4);
        let agg = store.begin_round();
        let model = store.snapshot();
        let keys = model.expert_keys();
        for pid in [4usize, 1, 2] {
            let updates: Vec<ExpertUpdate> = keys
                .iter()
                .take(3)
                .map(|&key| ExpertUpdate {
                    key,
                    expert: model.expert(key).clone(),
                    weight: 1.0 + pid as f32,
                })
                .collect();
            let head = Some((model.lm_head.clone(), pid as f32 + 0.5));
            assert!(agg.submit(pid, updates, head));
        }
        let restored = decode_staged_aggregator(&encode_staged_aggregator(&agg)).unwrap();
        assert_eq!(restored.num_shards(), 4);
        assert_eq!(restored.submitted_participants(), 3);
        // The submitted set survives: duplicates still rejected.
        assert!(!restored.submit(2, Vec::new(), None));
        // And both aggregators finalize to identical results.
        let pool = threadpool::ThreadPool::new(2);
        let (ea, ha) = agg.finalize(&pool);
        let (eb, hb) = restored.finalize(&pool);
        assert_eq!(ea.len(), eb.len());
        for (k, e) in &ea {
            assert_eq!(e.w1, eb[k].w1);
            assert_eq!(e.b2, eb[k].b2);
        }
        assert_eq!(ha, hb);
    }

    #[test]
    fn staged_aggregator_rejects_garbage() {
        assert!(decode_staged_aggregator(b"not an aggregator").is_err());
        let data = encode_staged_aggregator(&ShardedAggregator::new(2));
        assert!(decode_staged_aggregator(&data[..data.len() / 2]).is_err());
    }
}
