//! Durable per-shard checkpoints of a [`ShardedStore`] (snapshot format v2).
//!
//! A tenant's on-disk checkpoint is a directory of versioned files:
//!
//! ```text
//! <dir>/
//!   MANIFEST.bin    head of the checkpoint: format version, round epoch,
//!                   per-file checksums + sizes, an opaque run-state blob,
//!                   and a trailing self-checksum.
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
//! Version 2 kept every file's layout and size and changed what the
//! manifest records about them: each checksum (and the manifest's own) is
//! the word-folded [`flux_tensor::codec::checksum`] — one multiply per
//! eight bytes, where version 1's byte-wise FNV-1a paid one per byte over
//! megabytes. There is one reader: the manifest's magic and version are
//! read before its self-checksum is verified, so a directory written by
//! another version is refused with a [`SnapshotError::Mismatch`] naming
//! that version rather than misreported as a corrupt manifest.
//!
//! The manifest's meta blob is opaque to this module: the driver stores
//! its serialized round state there (round index, clock, records, and the
//! mid-round aggregator), making one directory the complete recovery
//! point for a run.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use flux_moe::checkpoint::CheckpointError;
use flux_moe::{Expert, ExpertKey};
use flux_tensor::codec::{checksum, Reader, TooLong, Truncated, Writer};
use flux_tensor::Matrix;

use crate::aggregate::{ExpertUpdate, ShardedAggregator, StagedRound};
use crate::store::ShardedStore;
use crate::sync::{lock, read};

/// Magic bytes of a shard file.
const SHARD_MAGIC: &[u8; 8] = b"FLUXSHD1";
/// Magic bytes of the head file.
const HEAD_MAGIC: &[u8; 8] = b"FLUXHED1";
/// Magic bytes of the manifest.
const MANIFEST_MAGIC: &[u8; 8] = b"FLUXMAN1";
/// Magic bytes of a serialized aggregator staging state.
const STAGED_MAGIC: &[u8; 8] = b"FLUXAGG1";
/// On-disk format version: 2 records word-folded checksums (see the module
/// docs); the only version this build reads or writes.
const FORMAT_VERSION: u32 = 2;
/// Bytes of one [`FileRecord`] in the manifest.
const RECORD_BYTES: usize = 24;

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

impl From<Truncated> for SnapshotError {
    fn from(e: Truncated) -> Self {
        SnapshotError::Corrupt(e.to_string())
    }
}

impl From<TooLong> for SnapshotError {
    fn from(e: TooLong) -> Self {
        SnapshotError::TooLarge(e.to_string())
    }
}

/// What one durable file currently holds, as tracked in memory by the
/// store (to skip clean shards) and recorded in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FileRecord {
    /// Store version counter the file was written at.
    pub version: u64,
    /// Word-folded checksum of the file content
    /// ([`flux_tensor::codec::checksum`]).
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
    if data.len() as u64 != record.len || checksum(data) != record.checksum {
        return Err(SnapshotError::ChecksumMismatch {
            file: name.to_string(),
        });
    }
    Ok(())
}

/// Writes one content file atomically and returns what the manifest records
/// about it.
fn write_recorded(path: &Path, data: &[u8], version: u64) -> Result<FileRecord, SnapshotError> {
    Ok(FileRecord {
        version,
        checksum: checksum(data),
        len: write_atomic(path, data)?,
    })
}

/// Serializes one shard: every expert it owns, sorted by key.
fn encode_shard(shard: usize, num_shards: usize, experts: &[(ExpertKey, &Expert)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bytes(SHARD_MAGIC);
    w.put_count(shard);
    w.put_count(num_shards);
    w.put_count(experts.len());
    for (key, expert) in experts {
        key.write_to(&mut w);
        expert.write_to(&mut w);
    }
    w.into_vec()
}

/// Parses a shard file into its key→expert entries.
fn decode_shard(
    data: &[u8],
    expected_shard: usize,
    expected_num_shards: usize,
) -> Result<Vec<(ExpertKey, Expert)>, SnapshotError> {
    let r = &mut Reader::new(data);
    if r.take(SHARD_MAGIC.len())? != SHARD_MAGIC {
        return Err(SnapshotError::Corrupt("bad shard magic".into()));
    }
    let shard = r.u32()? as usize;
    let num_shards = r.u32()? as usize;
    if shard != expected_shard || num_shards != expected_num_shards {
        return Err(SnapshotError::Mismatch(format!(
            "holds shard {shard}/{num_shards}, expected {expected_shard}/{expected_num_shards}"
        )));
    }
    let count = r.count(8 + Expert::MIN_ENCODED_BYTES)?;
    let entries = (0..count)
        .map(|_| Ok((ExpertKey::read_from(r)?, Expert::read_from(r)?)))
        .collect::<Result<_, Truncated>>()?;
    Ok(entries)
}

/// Serializes the head file.
fn encode_head(lm_head: &Matrix, cls_head: Option<&Matrix>) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bytes(HEAD_MAGIC);
    w.put_matrix(lm_head);
    w.put_opt_matrix(cls_head);
    w.into_vec()
}

/// Parses the head file.
fn decode_head(data: &[u8]) -> Result<(Matrix, Option<Matrix>), SnapshotError> {
    let r = &mut Reader::new(data);
    if r.take(HEAD_MAGIC.len())? != HEAD_MAGIC {
        return Err(SnapshotError::Corrupt("bad head magic".into()));
    }
    Ok((r.matrix()?, r.opt_matrix()?))
}

/// The manifest's parsed content; `meta` borrows the caller's blob on the
/// way out and the file's bytes on the way in.
struct Manifest<'a> {
    epoch: u64,
    num_shards: usize,
    frozen: FileRecord,
    head: FileRecord,
    shards: Vec<FileRecord>,
    meta: &'a [u8],
}

fn encode_manifest(m: &Manifest<'_>) -> Result<Vec<u8>, SnapshotError> {
    let mut w = Writer::new();
    w.put_bytes(MANIFEST_MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u64(m.epoch);
    w.put_count(m.num_shards);
    for record in [&m.frozen, &m.head].into_iter().chain(&m.shards) {
        w.put_u64(record.version);
        w.put_u64(record.checksum);
        w.put_u64(record.len);
    }
    w.put_byte_slice(m.meta)?;
    let self_checksum = checksum(w.as_slice());
    w.put_u64(self_checksum);
    Ok(w.into_vec())
}

fn get_record(r: &mut Reader<'_>) -> Result<FileRecord, Truncated> {
    Ok(FileRecord {
        version: r.u64()?,
        checksum: r.u64()?,
        len: r.u64()?,
    })
}

fn decode_manifest(data: &[u8]) -> Result<Manifest<'_>, SnapshotError> {
    // Magic and version first: a directory another version wrote is that,
    // not a manifest that fails a checksum this version defines.
    let r = &mut Reader::new(data);
    if r.take(MANIFEST_MAGIC.len())? != MANIFEST_MAGIC {
        return Err(SnapshotError::Corrupt("bad manifest magic".into()));
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::Mismatch(format!(
            "format version {version}, this build reads {FORMAT_VERSION}"
        )));
    }
    // The trailing self-checksum covers every byte before it.
    let fields = r.take(r.remaining().saturating_sub(8))?;
    if r.u64()? != checksum(&data[..data.len() - 8]) {
        return Err(SnapshotError::ChecksumMismatch {
            file: MANIFEST_FILE.to_string(),
        });
    }
    let r = &mut Reader::new(fields);
    let epoch = r.u64()?;
    let num_shards = r.count(RECORD_BYTES)?;
    if num_shards == 0 {
        return Err(SnapshotError::Corrupt("no shards recorded".into()));
    }
    let frozen = get_record(r)?;
    let head = get_record(r)?;
    let shards = (0..num_shards)
        .map(|_| get_record(r))
        .collect::<Result<_, _>>()?;
    let meta = r.byte_slice()?;
    Ok(Manifest {
        epoch,
        num_shards,
        frozen,
        head,
        shards,
        meta,
    })
}

/// Attributes a structural error to the checkpoint file it was found in.
fn in_file(name: &str, e: impl Into<SnapshotError>) -> SnapshotError {
    match e.into() {
        SnapshotError::Corrupt(msg) => SnapshotError::Corrupt(format!("{name}: {msg}")),
        SnapshotError::Mismatch(msg) => SnapshotError::Mismatch(format!("{name}: {msg}")),
        other => other,
    }
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
    /// Returns a [`SnapshotError`] on filesystem failure, and
    /// [`SnapshotError::TooLarge`] (before the manifest is touched) when
    /// `meta` exceeds the manifest's `u32` length prefix.
    pub fn checkpoint(
        &self,
        dir: impl AsRef<Path>,
        meta: &[u8],
    ) -> Result<CheckpointStats, SnapshotError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        // The persist lock serializes concurrent checkpoints of one store.
        let mut persist = lock(&self.persist);
        let mut bytes_written = 0u64;

        // Frozen parameters: written once. Which round's snapshot seeds it
        // is irrelevant — the shard/head files supersede every trainable
        // parameter on load.
        let mut frozen_written = false;
        if persist.frozen.is_none() || !dir.join(FROZEN_FILE).exists() {
            let data = flux_moe::checkpoint::to_bytes(&self.snapshot());
            let record = write_recorded(&dir.join(FROZEN_FILE), &data, 0)?;
            bytes_written += record.len;
            persist.frozen = Some(record);
            frozen_written = true;
        }

        // Dirty shards only: skip every shard whose version is already on
        // disk. O(dirty shards), not O(model).
        let mut shards_written = 0usize;
        let mut shards_skipped = 0usize;
        for s in 0..self.num_shards {
            let version = read(&self.shards[s]).version;
            let clean = persist.shards[s].is_some_and(|r| r.version == version)
                && dir.join(shard_file(s)).exists();
            if clean {
                shards_skipped += 1;
                continue;
            }
            let data = {
                let guard = read(&self.shards[s]);
                let mut entries: Vec<(ExpertKey, &Expert)> =
                    guard.experts.iter().map(|(k, e)| (*k, e)).collect();
                entries.sort_by_key(|(k, _)| (k.layer, k.expert));
                encode_shard(s, self.num_shards, &entries)
            };
            let record = write_recorded(&dir.join(shard_file(s)), &data, version)?;
            bytes_written += record.len;
            persist.shards[s] = Some(record);
            shards_written += 1;
        }

        // The head file, when dirty.
        let head_version = read(&self.head).version;
        let mut head_written = false;
        if !(persist.head.is_some_and(|r| r.version == head_version)
            && dir.join(HEAD_FILE).exists())
        {
            let data = {
                let guard = read(&self.head);
                encode_head(&guard.lm_head, guard.cls_head.as_ref())
            };
            let record = write_recorded(&dir.join(HEAD_FILE), &data, head_version)?;
            bytes_written += record.len;
            persist.head = Some(record);
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
            meta,
        };
        let data = encode_manifest(&manifest)?;
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
    let manifest_bytes = read_file(dir, MANIFEST_FILE)?;
    let manifest = decode_manifest(&manifest_bytes).map_err(|e| in_file(MANIFEST_FILE, e))?;

    let frozen_bytes = read_file(dir, FROZEN_FILE)?;
    verify(FROZEN_FILE, &frozen_bytes, manifest.frozen)?;
    let mut model =
        flux_moe::checkpoint::from_bytes(&frozen_bytes).map_err(|e| in_file(FROZEN_FILE, e))?;
    let per_layer = model.experts_per_layer();

    for s in 0..manifest.num_shards {
        let name = shard_file(s);
        let data = read_file(dir, &name)?;
        verify(&name, &data, manifest.shards[s])?;
        let entries = decode_shard(&data, s, manifest.num_shards).map_err(|e| in_file(&name, e))?;
        for (key, expert) in entries {
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
    let (lm_head, cls_head) = decode_head(&head_bytes).map_err(|e| in_file(HEAD_FILE, e))?;
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
        meta: manifest.meta.to_vec(),
    })
}

/// Serializes the staged (mid-round) state of an aggregator: per-shard
/// `(pid, update)` pairs, staged heads, and the submitted-pid set — the
/// set that keeps rejecting re-delivered uploads after a restore.
pub fn encode_staged_aggregator(aggregator: &ShardedAggregator) -> Vec<u8> {
    let state = aggregator.staged_state();
    let mut w = Writer::new();
    w.put_bytes(STAGED_MAGIC);
    w.put_count(state.shards.len());
    for shard in &state.shards {
        w.put_count(shard.len());
        for (pid, update) in shard {
            w.put_u64(*pid as u64);
            update.key.write_to(&mut w);
            w.put_f32(update.weight);
            update.expert.write_to(&mut w);
        }
    }
    w.put_count(state.heads.len());
    for (pid, head, weight) in &state.heads {
        w.put_u64(*pid as u64);
        w.put_f32(*weight);
        w.put_matrix(head);
    }
    w.put_count(state.submitted.len());
    for pid in &state.submitted {
        w.put_u64(*pid as u64);
    }
    w.into_vec()
}

/// Rebuilds an aggregator from [`encode_staged_aggregator`] output.
///
/// # Errors
///
/// Returns a [`SnapshotError`] when the buffer is truncated or corrupt; no
/// count in it can make this allocate more than the buffer holds.
pub fn decode_staged_aggregator(data: &[u8]) -> Result<ShardedAggregator, SnapshotError> {
    let r = &mut Reader::new(data);
    if r.take(STAGED_MAGIC.len())? != STAGED_MAGIC {
        return Err(SnapshotError::Corrupt(
            "staged aggregator: bad magic".into(),
        ));
    }
    // A shard is at least its own count.
    let num_shards = r.count(4)?;
    if num_shards == 0 {
        return Err(SnapshotError::Corrupt(
            "staged aggregator: no shards".into(),
        ));
    }
    let mut shards = Vec::new();
    for _ in 0..num_shards {
        let count = r.count(8 + 8 + 4 + Expert::MIN_ENCODED_BYTES)?;
        let staged = (0..count)
            .map(|_| {
                let pid = r.u64()? as usize;
                let key = ExpertKey::read_from(r)?;
                let weight = r.f32()?;
                let expert = Expert::read_from(r)?;
                Ok((
                    pid,
                    ExpertUpdate {
                        key,
                        expert,
                        weight,
                    },
                ))
            })
            .collect::<Result<_, Truncated>>()?;
        shards.push(staged);
    }
    let heads = (0..r.count(8 + 4 + 8)?)
        .map(|_| {
            let pid = r.u64()? as usize;
            let weight = r.f32()?;
            Ok((pid, r.matrix()?, weight))
        })
        .collect::<Result<_, Truncated>>()?;
    let submitted = (0..r.count(8)?)
        .map(|_| Ok(r.u64()? as usize))
        .collect::<Result<_, Truncated>>()?;
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
    fn a_v1_directory_is_refused_by_version_not_as_a_corrupt_manifest() {
        use flux_tensor::codec::{fnv_bytes, FNV_OFFSET};
        let dir = temp_dir("v1");
        let store = ShardedStore::new(tiny_model(8), 2);
        store.checkpoint(&dir, b"abc").unwrap();
        // The manifest as version 1 wrote it: version field 1, byte-wise
        // FNV-1a self-checksum.
        let path = dir.join(MANIFEST_FILE);
        let mut v1 = fs::read(&path).unwrap();
        let body = v1.len() - 8;
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        let self_checksum = fnv_bytes(FNV_OFFSET, &v1[..body]);
        v1[body..].copy_from_slice(&self_checksum.to_le_bytes());
        fs::write(&path, v1).unwrap();
        match load_store(&dir).unwrap_err() {
            SnapshotError::Mismatch(msg) => {
                assert!(msg.contains("version 1"), "{msg}");
                assert!(msg.starts_with(MANIFEST_FILE), "{msg}");
            }
            other => panic!("expected a version mismatch, got {other}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A shard or staged-aggregator count inflated to `u32::MAX` is a typed
    /// error: nothing is reserved for entries the input cannot hold.
    #[test]
    fn inflated_counts_are_refused_without_allocating() {
        let model = tiny_model(9);
        let entries: Vec<(ExpertKey, &Expert)> = model
            .expert_keys()
            .into_iter()
            .take(3)
            .map(|key| (key, model.expert(key)))
            .collect();
        let shard = encode_shard(1, 4, &entries);
        assert_eq!(decode_shard(&shard, 1, 4).unwrap().len(), 3);
        let mut hostile = shard.clone();
        // magic, shard, num_shards, then the count.
        assert_eq!(hostile[16..20], 3u32.to_le_bytes());
        hostile[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_shard(&hostile, 1, 4).unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Corrupt(m) if m.contains("truncated")),
            "{err}"
        );

        // An empty two-shard aggregator is its magic and five counts.
        let staged = encode_staged_aggregator(&ShardedAggregator::new(2));
        assert_eq!(staged.len(), 8 + 5 * 4);
        for offset in (8..staged.len()).step_by(4) {
            let mut hostile = staged.clone();
            hostile[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let err = decode_staged_aggregator(&hostile).expect_err("inflated count");
            assert!(
                matches!(&err, SnapshotError::Corrupt(m) if m.contains("truncated")),
                "{err}"
            );
        }
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
