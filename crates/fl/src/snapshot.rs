//! Durable per-shard checkpoints of a [`ShardedStore`] (snapshot format v3).
//!
//! A tenant's on-disk checkpoint is a directory of versioned files. Every
//! file a later checkpoint may have to change exists in **two generation
//! slots**, `a` and `b`; the manifest says which slot of each file is live:
//!
//! ```text
//! <dir>/
//!   MANIFEST.bin    head of the checkpoint: format version, round epoch,
//!                   per-file slot + checksum + size, an opaque run-state
//!                   blob, and a trailing self-checksum. Written to
//!                   MANIFEST.tmp and renamed into place on every
//!                   checkpoint — LAST. That rename is the commit point.
//!   frozen.bin      full model checkpoint (FLUXMOE1) written once (temp +
//!                   rename); only its frozen parameters (embedding,
//!                   attention, gating) and config matter — expert/head
//!                   overlays supersede the rest on load.
//!   shard_000.a     every expert that routes to shard 0, sorted by key.
//!   shard_000.b     One of the two is the content the manifest references;
//!   ...             the other is the previous generation's, or whatever a
//!   shard_N.a|b     killed checkpoint left there. Rewritten only when the
//!                   shard's version counter moved since the last flush: a
//!                   checkpoint costs O(dirty shards), not O(model).
//!   head.a|b        the task heads (generation + optional classification).
//! ```
//!
//! # The commit point, and what a kill leaves
//!
//! A checkpoint writes each dirty file into the slot the on-disk manifest
//! does **not** reference — overwriting that slot in place, no temp file,
//! no rename — and then replaces the manifest with one `rename`. Until that
//! rename the directory still *is* the previous checkpoint: the old
//! manifest names only files this checkpoint never touched. After it the
//! directory is the new checkpoint, whose manifest names only files that
//! were complete before it was written. A process killed at any instant
//! therefore leaves a directory that [`load_store`] restores to exactly the
//! previous epoch or exactly the new one — weights, epoch and meta blob
//! from the same generation — and never to an error or a mix; the slots a
//! killed attempt tore are ones no manifest references, and the next
//! checkpoint overwrites them. `crates/fl/tests/proptest_snapshot.rs`
//! constructs every such state from outside, the unit tests below drive
//! the writer's own effect sequence and stop it after every step, and
//! `tests/integration_recovery.rs` replays a run from each of them.
//!
//! The guarantee covers one lineage in one directory: a store, or the
//! stores restored from it, checkpointing one at a time. A *fresh* store
//! pointed at a directory that already holds somebody else's checkpoint
//! knows nothing of that manifest and replaces `frozen.bin` under it.
//!
//! The failure model is **process death**: the operating system survives
//! and completes the writes it accepted, in the order the page cache shows
//! them. Nothing here calls `fsync`, so nothing is promised about power
//! loss — neither did the temp-file protocol this replaces.
//!
//! # Why two slots and not one big file
//!
//! Format v2 wrote every dirty file to a temp name and renamed it over the
//! previous generation's, which cost 2.0–2.3 ms per checkpoint of eight
//! 271 KB shards — and, being a rename *over* the file the old manifest
//! still named, left a directory that restored to neither epoch when the
//! process died between the first shard and the manifest. The cost is not
//! the file count: one 2.1 MB file through temp + rename reads 1.8 ms. It
//! is fresh page-cache pages for a new inode plus freeing the replaced
//! one. Overwriting an existing file in place is 0.17–0.18 ms for the same
//! bytes (a `memcpy` of them is 0.10), and two slots are what make
//! overwriting safe.
//!
//! # Detection
//!
//! Every referenced file's length and word-folded
//! [`flux_tensor::codec::checksum`] are held against the manifest's record
//! of it, and the manifest against its own trailing checksum: corruption
//! is *detected and attributed* — [`SnapshotError`] names the file whose
//! content diverged. Files the manifest does not reference are never read.
//! There is one reader: the manifest's magic and version are read before
//! its self-checksum is verified, so a directory written by another format
//! version is refused with a [`SnapshotError::Mismatch`] naming that
//! version rather than misreported as a corrupt manifest.
//!
//! The manifest's meta blob is opaque to this module: the driver stores
//! its serialized top-of-round state there (round index, clock, records,
//! client states), making one directory the complete recovery point for a
//! run.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use flux_moe::checkpoint::CheckpointError;
use flux_moe::{Expert, ExpertKey};
use flux_tensor::codec::{checksum, BadOption, Reader, TooLong, Truncated, Writer};
use flux_tensor::Matrix;

use crate::store::{shard_of_key, ShardedStore};
use crate::sync::lock;

/// Magic bytes of a shard file.
const SHARD_MAGIC: &[u8; 8] = b"FLUXSHD1";
/// Magic bytes of the head file.
const HEAD_MAGIC: &[u8; 8] = b"FLUXHED1";
/// Magic bytes of the manifest.
const MANIFEST_MAGIC: &[u8; 8] = b"FLUXMAN1";
/// On-disk format version: 3 keeps two generation slots of every mutable
/// file and records the live one (see the module docs); the only version
/// this build reads or writes.
const FORMAT_VERSION: u32 = 3;
/// Bytes of one [`FileRecord`] in the manifest.
const RECORD_BYTES: usize = 25;

/// Manifest file name.
pub const MANIFEST_FILE: &str = "MANIFEST.bin";
/// Frozen-parameters file name.
pub const FROZEN_FILE: &str = "frozen.bin";
/// Where the next manifest is written before it is renamed into place.
const MANIFEST_TEMP: &str = "MANIFEST.tmp";
/// Where the frozen model is written before it is renamed into place.
const FROZEN_TEMP: &str = "frozen.tmp";

/// One of the two generation slots of a mutable checkpoint file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// The slot a file is first written into.
    A,
    /// The other one.
    B,
}

impl Slot {
    /// The slot a checkpoint writes when the manifest references `self`.
    pub fn other(self) -> Slot {
        match self {
            Slot::A => Slot::B,
            Slot::B => Slot::A,
        }
    }

    fn extension(self) -> char {
        match self {
            Slot::A => 'a',
            Slot::B => 'b',
        }
    }
}

/// File name of generation slot `slot` of shard `s`.
pub fn shard_file(s: usize, slot: Slot) -> String {
    format!("shard_{s:03}.{}", slot.extension())
}

/// File name of generation slot `slot` of the head file.
pub fn head_file(slot: Slot) -> String {
    format!("head.{}", slot.extension())
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
        SnapshotError::Corrupt(e.to_string())
    }
}

impl From<Truncated> for SnapshotError {
    fn from(e: Truncated) -> Self {
        SnapshotError::Corrupt(e.to_string())
    }
}

impl From<BadOption> for SnapshotError {
    fn from(e: BadOption) -> Self {
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
    /// The generation slot holding this content ([`Slot::A`] for the
    /// write-once frozen file, which has no other).
    pub slot: Slot,
    /// Word-folded checksum of the file content
    /// ([`flux_tensor::codec::checksum`]).
    pub checksum: u64,
    /// File length in bytes.
    pub len: u64,
}

impl FileRecord {
    /// The record of `data` written into `slot` at store version `version`.
    fn of(data: &[u8], version: u64, slot: Slot) -> Self {
        Self {
            version,
            slot,
            checksum: checksum(data),
            len: data.len() as u64,
        }
    }
}

/// In-memory copy of what the manifest on disk records: the checkpoint
/// backing a store. It changes only when a manifest rename succeeded, so
/// "the slot this does not name" is always a slot no manifest references.
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
    /// The restored store (model, round epoch and persist bookkeeping all
    /// rebuilt).
    pub store: ShardedStore,
    /// Round epoch recorded in the manifest.
    pub epoch: u64,
    /// The opaque meta blob the checkpointing caller stored (the driver's
    /// serialized run state).
    pub meta: Vec<u8>,
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

/// Bytes of a matrix in the codec's encoding.
fn matrix_len(m: &Matrix) -> usize {
    8 + 4 * m.as_slice().len()
}

/// Serializes one shard: every expert it owns, sorted by key. The buffer
/// is sized once — every length is known before the first byte is written.
fn encode_shard(shard: usize, num_shards: usize, experts: &[(ExpertKey, &Expert)]) -> Vec<u8> {
    let len = SHARD_MAGIC.len()
        + 3 * 4
        + experts
            .iter()
            .map(|(_, e)| 8 + e.encoded_len())
            .sum::<usize>();
    let mut w = Writer::with_capacity(len);
    w.put_bytes(SHARD_MAGIC);
    w.put_count(shard);
    w.put_count(num_shards);
    w.put_count(experts.len());
    for (key, expert) in experts {
        key.write_to(&mut w);
        expert.write_to(&mut w);
    }
    debug_assert_eq!(w.as_slice().len(), len);
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

/// Whether two experts' projections and biases have the same shapes.
fn same_shape(a: &Expert, b: &Expert) -> bool {
    a.w1.shape() == b.w1.shape()
        && a.b1.len() == b.b1.len()
        && a.w2.shape() == b.w2.shape()
        && a.b2.len() == b.b2.len()
}

/// Serializes the head file.
fn encode_head(lm_head: &Matrix, cls_head: Option<&Matrix>) -> Vec<u8> {
    let len = HEAD_MAGIC.len() + matrix_len(lm_head) + 1 + cls_head.map_or(0, matrix_len);
    let mut w = Writer::with_capacity(len);
    w.put_bytes(HEAD_MAGIC);
    w.put_matrix(lm_head);
    w.put_opt_matrix(cls_head);
    debug_assert_eq!(w.as_slice().len(), len);
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
    frozen: FileRecord,
    head: FileRecord,
    shards: Vec<FileRecord>,
    meta: &'a [u8],
}

fn encode_manifest(m: &Manifest<'_>) -> Result<Vec<u8>, SnapshotError> {
    let len = MANIFEST_MAGIC.len() + 4 + 8 + 4 + RECORD_BYTES * (2 + m.shards.len());
    let mut w = Writer::with_capacity(len + 4 + m.meta.len() + 8);
    w.put_bytes(MANIFEST_MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u64(m.epoch);
    w.put_count(m.shards.len());
    for record in [&m.frozen, &m.head].into_iter().chain(&m.shards) {
        w.put_u64(record.version);
        w.put_u8(match record.slot {
            Slot::A => 0,
            Slot::B => 1,
        });
        w.put_u64(record.checksum);
        w.put_u64(record.len);
    }
    debug_assert_eq!(w.as_slice().len(), len);
    w.put_byte_slice(m.meta)?;
    let self_checksum = checksum(w.as_slice());
    w.put_u64(self_checksum);
    Ok(w.into_vec())
}

fn get_record(r: &mut Reader<'_>) -> Result<FileRecord, SnapshotError> {
    Ok(FileRecord {
        version: r.u64()?,
        slot: match r.u8()? {
            0 => Slot::A,
            1 => Slot::B,
            other => return Err(SnapshotError::Corrupt(format!("unknown slot tag {other}"))),
        },
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
    if frozen.slot != Slot::A {
        return Err(SnapshotError::Corrupt(
            "the frozen file has no second slot".into(),
        ));
    }
    let head = get_record(r)?;
    let shards = (0..num_shards)
        .map(|_| get_record(r))
        .collect::<Result<_, _>>()?;
    let meta = r.byte_slice()?;
    Ok(Manifest {
        epoch,
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

/// The slot files of `dir` its manifest references: with the manifest and
/// [`FROZEN_FILE`], the ones — and the only ones — a restore reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferencedFiles {
    /// The live slot of the head file.
    pub head: String,
    /// The live slot of every shard file, by shard index.
    pub shards: Vec<String>,
}

/// Names the slot files the manifest of `dir` references, reading nothing
/// but the manifest.
///
/// # Errors
///
/// Returns a [`SnapshotError`] when the manifest is missing, damaged or of
/// another format version.
pub fn referenced_files(dir: impl AsRef<Path>) -> Result<ReferencedFiles, SnapshotError> {
    let bytes = read_file(dir.as_ref(), MANIFEST_FILE)?;
    let manifest = decode_manifest(&bytes).map_err(|e| in_file(MANIFEST_FILE, e))?;
    Ok(ReferencedFiles {
        head: head_file(manifest.head.slot),
        shards: manifest
            .shards
            .iter()
            .enumerate()
            .map(|(s, record)| shard_file(s, record.slot))
            .collect(),
    })
}

/// One filesystem effect of a checkpoint, on a name inside its directory.
#[derive(Debug)]
enum Effect {
    /// Overwrites `name` from its first byte (creating it when absent) and
    /// then fixes its length: no new inode, no rename.
    Write { name: String, data: Vec<u8> },
    /// Renames `from` over `to`.
    Rename {
        from: &'static str,
        to: &'static str,
    },
}

/// What one checkpoint decided: the writer's two halves are
/// [`ShardedStore::plan_checkpoint`], which touches no file, and
/// [`apply_effects`], which decides nothing — so a test can stop the
/// writer after any step.
struct CheckpointPlan {
    /// In the order they reach the directory: the frozen model on a first
    /// flush, every dirty file into its free slot, the manifest's temp
    /// file, and the one rename that commits them all.
    effects: Vec<Effect>,
    /// What the manifest on disk records once the last effect is applied.
    committed: PersistState,
    stats: CheckpointStats,
}

/// Decides one mutable file of a checkpoint: `on_disk` is the manifest's
/// record of it, `version` what the store holds now, `name` its file name
/// per slot. When the slot the manifest references already holds that
/// version there is nothing to write and the record stands; otherwise a
/// write of `encode()` into the slot the manifest does **not** reference is
/// pushed onto `effects`. Returns the record the next manifest carries and
/// whether the file is written.
fn place_file(
    effects: &mut Vec<Effect>,
    dir: &Path,
    on_disk: Option<FileRecord>,
    version: u64,
    name: impl Fn(Slot) -> String,
    encode: impl FnOnce() -> Vec<u8>,
) -> (FileRecord, bool) {
    if let Some(record) = on_disk {
        if record.version == version && dir.join(name(record.slot)).exists() {
            return (record, false);
        }
    }
    let slot = on_disk.map_or(Slot::A, |record| record.slot.other());
    let data = encode();
    let record = FileRecord::of(&data, version, slot);
    effects.push(Effect::Write {
        name: name(slot),
        data,
    });
    (record, true)
}

/// Performs `effects` on `dir`, in order.
fn apply_effects(dir: &Path, effects: &[Effect]) -> Result<(), SnapshotError> {
    for effect in effects {
        match effect {
            Effect::Write { name, data } => {
                let mut file = fs::OpenOptions::new()
                    .write(true)
                    .create(true)
                    .truncate(false)
                    .open(dir.join(name))?;
                file.write_all(data)?;
                file.set_len(data.len() as u64)?;
            }
            Effect::Rename { from, to } => fs::rename(dir.join(from), dir.join(to))?,
        }
    }
    Ok(())
}

impl ShardedStore {
    /// Flushes this store to `dir` as a durable checkpoint, rewriting only
    /// shard files whose version moved since the last flush (plus the head
    /// when dirty, the frozen model on the first flush, and the manifest
    /// always). `meta` is an opaque blob stored in the manifest — the
    /// driver keeps its serialized run state there.
    ///
    /// Dirty files go into the generation slot the manifest on disk does
    /// not reference, and renaming the new manifest into place — last —
    /// commits them all at once: a process killed mid-flush leaves the
    /// previous checkpoint, whole (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on filesystem failure, and
    /// [`SnapshotError::TooLarge`] (before any file is touched) when
    /// `meta` exceeds the manifest's `u32` length prefix. After either the
    /// directory still restores to the previous checkpoint and the next
    /// call starts over.
    pub fn checkpoint(
        &self,
        dir: impl AsRef<Path>,
        meta: &[u8],
    ) -> Result<CheckpointStats, SnapshotError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        // The persist lock serializes concurrent checkpoints of one store.
        let mut persist = lock(&self.persist);
        let plan = self.plan_checkpoint(dir, &persist, meta)?;
        apply_effects(dir, &plan.effects)?;
        *persist = plan.committed;
        Ok(plan.stats)
    }

    /// Decides a checkpoint of this store into `dir`, whose manifest
    /// records `on_disk`: which files are dirty, the slot and bytes of
    /// each, and the manifest that references them.
    fn plan_checkpoint(
        &self,
        dir: &Path,
        on_disk: &PersistState,
        meta: &[u8],
    ) -> Result<CheckpointPlan, SnapshotError> {
        let mut effects = Vec::new();
        let (model, shard_versions, head_version, epoch) = {
            let state = lock(&self.state);
            (
                Arc::clone(&state.model),
                state.shard_versions.clone(),
                state.head_version,
                state.rounds_completed as u64,
            )
        };

        // Frozen parameters: written once. Which round's snapshot seeds it
        // is irrelevant — the shard/head files supersede every trainable
        // parameter on load.
        let frozen = match on_disk.frozen {
            Some(record) if dir.join(FROZEN_FILE).exists() => record,
            _ => {
                let data = flux_moe::checkpoint::to_bytes(&model);
                let record = FileRecord::of(&data, 0, Slot::A);
                effects.push(Effect::Write {
                    name: FROZEN_TEMP.to_string(),
                    data,
                });
                effects.push(Effect::Rename {
                    from: FROZEN_TEMP,
                    to: FROZEN_FILE,
                });
                record
            }
        };
        let frozen_written = !effects.is_empty();

        // Dirty shards only: skip every shard whose version is already on
        // disk. O(dirty shards), not O(model). Keys come in (layer, expert)
        // order, so every shard's entries are sorted.
        let num_shards = self.num_shards();
        let mut by_shard: Vec<Vec<(ExpertKey, &Expert)>> = vec![Vec::new(); num_shards];
        for key in model.expert_keys() {
            by_shard[shard_of_key(key, num_shards)].push((key, model.expert(key)));
        }
        let mut shards_written = 0usize;
        let shards: Vec<FileRecord> = (0..num_shards)
            .map(|s| {
                let (record, written) = place_file(
                    &mut effects,
                    dir,
                    on_disk.shards[s],
                    shard_versions[s],
                    |slot| shard_file(s, slot),
                    || encode_shard(s, num_shards, &by_shard[s]),
                );
                shards_written += usize::from(written);
                record
            })
            .collect();

        // The head file, when dirty.
        let (head, head_written) = place_file(
            &mut effects,
            dir,
            on_disk.head,
            head_version,
            head_file,
            || encode_head(&model.lm_head, model.cls_head.as_ref()),
        );

        // The manifest goes last: it only ever references complete files,
        // and its rename is the commit point.
        let data = encode_manifest(&Manifest {
            epoch,
            frozen,
            head,
            shards: shards.clone(),
            meta,
        })?;
        effects.push(Effect::Write {
            name: MANIFEST_TEMP.to_string(),
            data,
        });
        effects.push(Effect::Rename {
            from: MANIFEST_TEMP,
            to: MANIFEST_FILE,
        });

        let bytes_written = effects
            .iter()
            .map(|effect| match effect {
                Effect::Write { data, .. } => data.len() as u64,
                Effect::Rename { .. } => 0,
            })
            .sum();
        Ok(CheckpointPlan {
            effects,
            stats: CheckpointStats {
                epoch,
                shards_written,
                shards_skipped: num_shards - shards_written,
                head_written,
                frozen_written,
                bytes_written,
            },
            committed: PersistState {
                shards: shards.into_iter().map(Some).collect(),
                head: Some(head),
                frozen: Some(frozen),
            },
        })
    }
}

/// Loads a store back from a checkpoint directory, reading the files its
/// manifest references — no others — and verifying each one's checksum
/// against the manifest.
///
/// # Errors
///
/// Returns a [`SnapshotError`] naming the offending file on checksum
/// mismatch or missing content, or describing the structural problem.
pub fn load_store(dir: impl AsRef<Path>) -> Result<LoadedSnapshot, SnapshotError> {
    let dir = dir.as_ref();
    let manifest_bytes = read_file(dir, MANIFEST_FILE)?;
    let manifest = decode_manifest(&manifest_bytes).map_err(|e| in_file(MANIFEST_FILE, e))?;
    let num_shards = manifest.shards.len();

    let frozen_bytes = read_file(dir, FROZEN_FILE)?;
    verify(FROZEN_FILE, &frozen_bytes, manifest.frozen)?;
    let mut model =
        flux_moe::checkpoint::from_bytes(&frozen_bytes).map_err(|e| in_file(FROZEN_FILE, e))?;
    let per_layer = model.experts_per_layer();

    for (s, record) in manifest.shards.iter().enumerate() {
        let name = shard_file(s, record.slot);
        let data = read_file(dir, &name)?;
        verify(&name, &data, *record)?;
        let entries = decode_shard(&data, s, num_shards).map_err(|e| in_file(&name, e))?;
        for (key, expert) in entries {
            let in_range = per_layer.get(key.layer).is_some_and(|&n| key.expert < n);
            if !in_range {
                return Err(SnapshotError::Corrupt(format!(
                    "{name}: expert key ({}, {}) out of range",
                    key.layer, key.expert
                )));
            }
            if shard_of_key(key, num_shards) != s {
                return Err(SnapshotError::Corrupt(format!(
                    "{name}: expert key ({}, {}) routed to the wrong shard",
                    key.layer, key.expert
                )));
            }
            if !same_shape(&expert, model.expert(key)) {
                return Err(SnapshotError::Mismatch(format!(
                    "{name}: expert key ({}, {}) differs in shape from the frozen model",
                    key.layer, key.expert
                )));
            }
            model.set_expert(key, expert);
        }
    }

    let name = head_file(manifest.head.slot);
    let head_bytes = read_file(dir, &name)?;
    verify(&name, &head_bytes, manifest.head)?;
    let (lm_head, cls_head) = decode_head(&head_bytes).map_err(|e| in_file(&name, e))?;
    if lm_head.shape() != model.lm_head.shape() {
        return Err(SnapshotError::Mismatch(format!(
            "{name}: generation head shape differs from the frozen model"
        )));
    }
    if cls_head.as_ref().map(Matrix::shape) != model.cls_head.as_ref().map(Matrix::shape) {
        return Err(SnapshotError::Mismatch(format!(
            "{name}: classification head presence/shape differs from the frozen model"
        )));
    }
    model.lm_head = lm_head;
    model.cls_head = cls_head;

    // The restored store's bookkeeping is the manifest's — slots included,
    // so its next checkpoint writes the slots this manifest does not name —
    // at the restored store's version counters (all zero), so that
    // checkpoint skips clean shards.
    let at_restore = |record: FileRecord| {
        Some(FileRecord {
            version: 0,
            ..record
        })
    };
    let persist = PersistState {
        shards: manifest.shards.iter().copied().map(at_restore).collect(),
        head: at_restore(manifest.head),
        frozen: Some(manifest.frozen),
    };

    let store = ShardedStore::from_persisted(model, num_shards, manifest.epoch as usize, persist);
    Ok(LoadedSnapshot {
        store,
        epoch: manifest.epoch,
        meta: manifest.meta.to_vec(),
    })
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
    use crate::aggregate::ExpertUpdate;
    use flux_moe::{MoeConfig, MoeModel};
    use flux_tensor::SeededRng;

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
        store.aggregate(
            &[ExpertUpdate {
                key,
                expert: expert.clone(),
                weight: 1.0,
            }],
            &[],
        );

        let stats = store.checkpoint(&dir, b"round-1").unwrap();
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.shards_written, 1, "only the dirty shard flushes");
        assert_eq!(stats.shards_skipped, 3);
        assert!(!stats.frozen_written, "frozen model written once");
        assert!(!stats.head_written, "head untouched");
        // The dirty shard moved to its other slot; clean files kept theirs.
        let live = referenced_files(&dir).unwrap();
        assert_eq!(live.head, head_file(Slot::A));
        for (s, name) in live.shards.iter().enumerate() {
            let slot = if s == shard { Slot::B } else { Slot::A };
            assert_eq!(name, &shard_file(s, slot));
        }

        let loaded = load_store(&dir).unwrap();
        assert_eq!(loaded.epoch, 1);
        assert_eq!(loaded.store.snapshot().expert(key), &expert);
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
        corrupt_file_byte(dir.join(shard_file(2, Slot::A)), 100).unwrap();
        let err = load_store(&dir).unwrap_err();
        match err {
            SnapshotError::ChecksumMismatch { file } => assert_eq!(file, shard_file(2, Slot::A)),
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
    fn a_v1_or_v2_directory_is_refused_by_version_not_as_a_corrupt_manifest() {
        use flux_tensor::codec::{fnv_bytes, FNV_OFFSET};
        let dir = temp_dir("older");
        let store = ShardedStore::new(tiny_model(8), 2);
        store.checkpoint(&dir, b"abc").unwrap();
        let path = dir.join(MANIFEST_FILE);
        let v3 = fs::read(&path).unwrap();
        let body = v3.len() - 8;
        // A manifest under each older version number, closed by the
        // self-checksum that version wrote: 1 byte-wise FNV-1a, 2 the
        // word-folded one. (Their records were a byte shorter; the version
        // is refused before any record is read.)
        type SelfChecksum = fn(&[u8]) -> u64;
        let self_checksums: [(u32, SelfChecksum); 2] =
            [(1, |body| fnv_bytes(FNV_OFFSET, body)), (2, checksum)];
        for (version, self_checksum) in self_checksums {
            let mut older = v3.clone();
            older[8..12].copy_from_slice(&version.to_le_bytes());
            let sum = self_checksum(&older[..body]);
            older[body..].copy_from_slice(&sum.to_le_bytes());
            fs::write(&path, older).unwrap();
            match load_store(&dir).unwrap_err() {
                SnapshotError::Mismatch(msg) => {
                    assert!(msg.contains(&format!("version {version},")), "{msg}");
                    assert!(msg.starts_with(MANIFEST_FILE), "{msg}");
                }
                other => panic!("expected a version mismatch, got {other}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A slot byte is 0 or 1, and the write-once frozen file has only the
    /// first: anything else in a manifest whose checksum holds is refused.
    #[test]
    fn undefined_slot_tags_are_refused() {
        let dir = temp_dir("slot_tag");
        let store = ShardedStore::new(tiny_model(11), 2);
        store.checkpoint(&dir, b"").unwrap();
        let path = dir.join(MANIFEST_FILE);
        let clean = fs::read(&path).unwrap();
        let body = clean.len() - 8;
        // magic, version, epoch, shard count, then the records, each led by
        // its version counter.
        let slot_of = |record: usize| 8 + 4 + 8 + 4 + RECORD_BYTES * record + 8;
        for (record, tag, needle) in [(0, 1u8, "frozen"), (1, 2, "slot tag 2"), (3, 255, "255")] {
            let mut hostile = clean.clone();
            assert_eq!(hostile[slot_of(record)], 0);
            hostile[slot_of(record)] = tag;
            let sum = checksum(&hostile[..body]);
            hostile[body..].copy_from_slice(&sum.to_le_bytes());
            fs::write(&path, hostile).unwrap();
            match load_store(&dir).unwrap_err() {
                SnapshotError::Corrupt(msg) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("expected Corrupt, got {other}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A shard file whose checksum holds but which carries an expert of
    /// another shape than the frozen model's is refused by file and key,
    /// not installed to fail the first forward.
    #[test]
    fn wrong_shaped_shard_experts_are_refused() {
        let dir = temp_dir("shape");
        let store = ShardedStore::new(tiny_model(15), 2);
        store.checkpoint(&dir, b"").unwrap();
        let name = shard_file(1, Slot::A);
        let mut entries = decode_shard(&fs::read(dir.join(&name)).unwrap(), 1, 2).unwrap();
        let (key, expert) = &mut entries[0];
        let key = *key;
        *expert = Expert::new(expert.d_model(), expert.d_ff() + 1, &mut SeededRng::new(16));
        let borrowed: Vec<(ExpertKey, &Expert)> = entries.iter().map(|(k, e)| (*k, e)).collect();
        let forged = encode_shard(1, 2, &borrowed);
        fs::write(dir.join(&name), &forged).unwrap();
        // Reseal the manifest over the forged shard.
        let path = dir.join(MANIFEST_FILE);
        let clean = fs::read(&path).unwrap();
        let mut manifest = decode_manifest(&clean).unwrap();
        manifest.shards[1] = FileRecord::of(&forged, manifest.shards[1].version, Slot::A);
        fs::write(&path, encode_manifest(&manifest).unwrap()).unwrap();
        match load_store(&dir) {
            Err(SnapshotError::Mismatch(msg)) => {
                assert!(msg.starts_with(&name), "{msg}");
                assert!(
                    msg.contains(&format!("({}, {})", key.layer, key.expert)),
                    "{msg}"
                );
            }
            Err(other) => panic!("expected Mismatch, got {other}"),
            Ok(_) => panic!("a wrong-shaped expert restored"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Dirties every shard and the head, and closes a round.
    fn dirty_everything(store: &ShardedStore, rng: &mut SeededRng) {
        let model = store.snapshot();
        let updates: Vec<ExpertUpdate> = model
            .expert_keys()
            .into_iter()
            .map(|key| ExpertUpdate {
                key,
                expert: Expert::new(16, 32, rng),
                weight: 1.0,
            })
            .collect();
        let (rows, cols) = model.lm_head.shape();
        let head = Matrix::random_normal(rows, cols, 1.0, rng);
        store.aggregate(&updates, &[(head, 1.0)]);
    }

    fn copy_dir(from: &Path, to: &Path) {
        let _ = fs::remove_dir_all(to);
        fs::create_dir_all(to).unwrap();
        for entry in fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }

    /// The writer's own effect sequence, stopped after every step and in
    /// the middle of every write, over four generations (so each slot is
    /// written twice): the directory restores to the previous checkpoint
    /// until the last effect — the manifest's rename — and to the new one
    /// after it. The order is pinned with it: slots the old manifest does
    /// not reference, then the manifest's temp file, then one rename.
    #[test]
    fn a_writer_stopped_after_any_effect_leaves_the_previous_or_the_new_checkpoint() {
        let dir = temp_dir("effects");
        let scratch = temp_dir("effects_scratch");
        fs::create_dir_all(&dir).unwrap();
        let store = ShardedStore::new(tiny_model(10), 4);
        let mut rng = SeededRng::new(11);
        // (epoch, param checksum, meta) of the checkpoint `dir` holds.
        let mut previous: Option<(u64, u64, Vec<u8>)> = None;
        for generation in 0..4u64 {
            if generation > 0 {
                dirty_everything(&store, &mut rng);
            }
            let meta = format!("meta of generation {generation}").into_bytes();
            let new = (generation, store.snapshot().param_checksum(), meta.clone());
            let plan = store
                .plan_checkpoint(&dir, &lock(&store.persist), &meta)
                .unwrap();

            let live = referenced_files(&dir).ok();
            let (commit, writes) = plan.effects.split_last().unwrap();
            assert!(
                matches!(commit, Effect::Rename { from, to } if (*from, *to) == (MANIFEST_TEMP, MANIFEST_FILE)),
                "the manifest's rename is the last effect: {commit:?}"
            );
            let (manifest, content) = writes.split_last().unwrap();
            assert!(
                matches!(manifest, Effect::Write { name, .. } if name == MANIFEST_TEMP),
                "the manifest is written after every content file: {manifest:?}"
            );
            // First flush: frozen temp + rename, then slot A of all five
            // files. Later: the five free slots, no rename before the last.
            assert_eq!(content.len(), if generation == 0 { 7 } else { 5 });
            for effect in content.iter().skip(if generation == 0 { 2 } else { 0 }) {
                let Effect::Write { name, .. } = effect else {
                    panic!("no rename before the commit: {effect:?}");
                };
                let slot = if generation % 2 == 0 { 'a' } else { 'b' };
                assert!(name.ends_with(slot), "{name} in generation {generation}");
                if let Some(live) = &live {
                    assert!(!live.shards.contains(name) && &live.head != name, "{name}");
                }
            }

            let check = |what: &str, expected: &Option<(u64, u64, Vec<u8>)>| {
                match (load_store(&scratch), expected) {
                    (Ok(loaded), Some((epoch, checksum, meta))) => {
                        let got = loaded.store.snapshot().param_checksum();
                        assert_eq!((loaded.epoch, got), (*epoch, *checksum), "{what}");
                        assert_eq!(&loaded.meta, meta, "{what}");
                    }
                    // Before the first commit there is nothing to restore.
                    (Err(SnapshotError::Missing(file)), None) => assert_eq!(file, MANIFEST_FILE),
                    (Err(err), _) => panic!("{what}: {err}"),
                    (Ok(_), None) => panic!("{what}: restored a checkpoint nobody committed"),
                }
            };
            for done in 0..plan.effects.len() {
                copy_dir(&dir, &scratch);
                apply_effects(&scratch, &plan.effects[..done]).unwrap();
                check(
                    &format!("generation {generation}, {done} effects"),
                    &previous,
                );
                // The next effect torn: half its bytes over whatever the
                // slot held, its length not yet fixed.
                if let Effect::Write { name, data } = &plan.effects[done] {
                    let mut file = fs::OpenOptions::new()
                        .write(true)
                        .create(true)
                        .truncate(false)
                        .open(scratch.join(name))
                        .unwrap();
                    file.write_all(&data[..data.len() / 2]).unwrap();
                    drop(file);
                    check(
                        &format!("generation {generation}, effect {done} torn"),
                        &previous,
                    );
                }
            }
            copy_dir(&dir, &scratch);
            apply_effects(&scratch, &plan.effects).unwrap();
            check(
                &format!("generation {generation}, every effect"),
                &Some(new.clone()),
            );

            // The real writer takes the same steps.
            let stats = store.checkpoint(&dir, &meta).unwrap();
            assert_eq!(stats, plan.stats);
            previous = Some(new);
        }
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&scratch);
    }

    /// A checkpoint that failed part-way changes nothing the store
    /// remembers: the retry targets the same free slots, not the live ones.
    #[test]
    fn a_failed_checkpoint_is_retried_into_the_same_slots() {
        let dir = temp_dir("retry");
        let store = ShardedStore::new(tiny_model(12), 2);
        let mut rng = SeededRng::new(13);
        store.checkpoint(&dir, b"zero").unwrap();
        let committed = store.snapshot().param_checksum();
        dirty_everything(&store, &mut rng);
        // A directory where the manifest's temp file should go fails the
        // write after every slot has been overwritten.
        fs::create_dir(dir.join(MANIFEST_TEMP)).unwrap();
        assert!(matches!(
            store.checkpoint(&dir, b"one"),
            Err(SnapshotError::Io(_))
        ));
        let loaded = load_store(&dir).unwrap();
        assert_eq!(loaded.meta, b"zero");
        assert_eq!(loaded.store.snapshot().param_checksum(), committed);

        fs::remove_dir(dir.join(MANIFEST_TEMP)).unwrap();
        let stats = store.checkpoint(&dir, b"one").unwrap();
        assert_eq!((stats.shards_written, stats.head_written), (2, true));
        let live = referenced_files(&dir).unwrap();
        assert_eq!(live.head, head_file(Slot::B));
        assert_eq!(
            live.shards,
            [shard_file(0, Slot::B), shard_file(1, Slot::B)]
        );
        let loaded = load_store(&dir).unwrap();
        assert_eq!(
            loaded.store.snapshot().param_checksum(),
            store.snapshot().param_checksum()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A shard's entry count inflated to `u32::MAX` is a typed error:
    /// nothing is reserved for entries the input cannot hold.
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
    }

    /// The head file's presence byte is 0 or 1, as FLUXRUN's tags are.
    #[test]
    fn an_undefined_head_presence_byte_is_refused() {
        let model = tiny_model(14);
        let head = encode_head(&model.lm_head, None);
        assert_eq!(decode_head(&head).unwrap(), (model.lm_head.clone(), None));
        let flag = head.len() - 1;
        assert_eq!(head[flag], 0);
        for tag in [2u8, 255] {
            let mut hostile = head.clone();
            hostile[flag] = tag;
            let err = decode_head(&hostile).unwrap_err();
            assert!(
                matches!(&err, SnapshotError::Corrupt(m) if m.contains(&format!("presence tag {tag}"))),
                "{err}"
            );
        }
    }

    #[test]
    fn missing_shard_file_is_named() {
        let dir = temp_dir("missing");
        let store = ShardedStore::new(tiny_model(6), 3);
        store.checkpoint(&dir, b"").unwrap();
        fs::remove_file(dir.join(shard_file(1, Slot::A))).unwrap();
        let err = load_store(&dir).unwrap_err();
        assert!(matches!(err, SnapshotError::Missing(f) if f == shard_file(1, Slot::A)));
        let _ = fs::remove_dir_all(&dir);
    }
}
