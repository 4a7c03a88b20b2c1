//! Run-state codec for durable checkpoints (`FLUXRUN1`).
//!
//! [`ActiveRun::checkpoint`](crate::driver::ActiveRun::checkpoint) stores
//! the model itself through the store's versioned per-shard snapshot
//! (`flux_fl::snapshot`); everything *else* a run needs to resume — the
//! fingerprint identifying which run this is, the round index, the
//! simulated clock, per-round records, the assigner's utility tables and
//! the stale-profiling pipelines — rides in the snapshot manifest's opaque
//! `meta` blob, encoded here. It is always the top-of-round state: a round
//! in flight is replayed on restore, never persisted. The
//! manifest's trailing self-checksum covers the blob, so corruption is
//! detected before this module ever parses a byte.
//!
//! The format is little-endian and length-prefixed like every other Flux
//! format, written and read through the one byte codec
//! ([`flux_tensor::codec`]): every count and byte length is held against the
//! input that remains before anything is allocated for it, so a damaged
//! blob fails with [`SnapshotError::Corrupt`] instead of attempting a huge
//! allocation.

use flux_fl::{PhaseTimes, RoundCostBreakdown, SnapshotError};
use flux_moe::{ActivationProfile, ExpertKey};
use flux_tensor::codec::{Reader, Truncated, Writer};

use crate::assignment::ExpertUtility;
use crate::driver::{ExecutionMode, Method, RoundFaults, RoundRecord};

const MAGIC: &[u8; 8] = b"FLUXRUN1";
/// The only version this build reads or writes. Version 2 added the
/// cohort-sampling fingerprint (cohort size and edge aggregator count)
/// after the participant count; version 3 dropped the trailing mid-round
/// staged-aggregator tag. No version-1 blob was ever written outside a
/// test, so anything else is refused as corrupt.
const VERSION: u32 = 3;

/// What identifies a run to its checkpoints: resuming someone else's
/// shards would silently diverge instead of failing loudly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fingerprint {
    pub(crate) seed: u64,
    pub(crate) method: Method,
    pub(crate) mode: ExecutionMode,
    pub(crate) rounds: u32,
    pub(crate) participants: u32,
    /// Clients sampled into each round's cohort (`None` = every registered
    /// client participates every round, the legacy behavior).
    pub(crate) cohort_size: Option<u32>,
    /// Edge aggregators pre-reducing each round (`1` = flat aggregation).
    pub(crate) aggregation_edges: u32,
}

/// Everything the checkpoint persists about a run beyond the model shards.
pub(crate) struct RunState {
    pub(crate) fingerprint: Fingerprint,
    pub(crate) next_round: u32,
    pub(crate) elapsed_s: f64,
    pub(crate) phases: PhaseTimes,
    pub(crate) records: Vec<RoundRecord>,
    /// A pipelined round still awaiting its evaluation (stored without a
    /// score).
    pub(crate) pending: Option<RoundRecord>,
    pub(crate) utilities: Vec<(usize, ExpertUtility)>,
    /// Per-participant Flux profiling state: `(stale profile, refreshes)`.
    pub(crate) flux: Vec<(Option<ActivationProfile>, usize)>,
    /// Per-participant FMES activation profiles.
    pub(crate) fmes: Vec<Option<ActivationProfile>>,
}

impl RunState {
    /// Rejects a checkpoint written by a run other than `run`.
    pub(crate) fn verify_fingerprint(&self, run: &Fingerprint) -> Result<(), SnapshotError> {
        if self.fingerprint != *run {
            return Err(SnapshotError::Mismatch(format!(
                "checkpoint fingerprint {:?} does not match the run {run:?}",
                self.fingerprint
            )));
        }
        Ok(())
    }
}

fn method_tag(method: Method) -> u8 {
    match method {
        Method::Flux => 0,
        Method::Fmd => 1,
        Method::Fmq => 2,
        Method::Fmes => 3,
    }
}

fn method_from_tag(tag: u8) -> Result<Method, SnapshotError> {
    match tag {
        0 => Ok(Method::Flux),
        1 => Ok(Method::Fmd),
        2 => Ok(Method::Fmq),
        3 => Ok(Method::Fmes),
        other => Err(corrupt(format!("unknown method tag {other}"))),
    }
}

fn mode_tag(mode: ExecutionMode) -> u8 {
    match mode {
        ExecutionMode::Barriered => 0,
        ExecutionMode::Pipelined => 1,
    }
}

fn mode_from_tag(tag: u8) -> Result<ExecutionMode, SnapshotError> {
    match tag {
        0 => Ok(ExecutionMode::Barriered),
        1 => Ok(ExecutionMode::Pipelined),
        other => Err(corrupt(format!("unknown execution-mode tag {other}"))),
    }
}

fn corrupt(message: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(message.into())
}

fn put_breakdown(w: &mut Writer, b: &RoundCostBreakdown) {
    w.put_f64(b.profiling_s);
    w.put_f64(b.merging_s);
    w.put_f64(b.assignment_s);
    w.put_f64(b.fine_tuning_s);
    w.put_f64(b.offloading_s);
    w.put_f64(b.communication_s);
}

fn get_breakdown(r: &mut Reader<'_>) -> Result<RoundCostBreakdown, Truncated> {
    Ok(RoundCostBreakdown {
        profiling_s: r.f64()?,
        merging_s: r.f64()?,
        assignment_s: r.f64()?,
        fine_tuning_s: r.f64()?,
        offloading_s: r.f64()?,
        communication_s: r.f64()?,
    })
}

/// Appends a count-prefixed list of ids (participants, sample indices).
fn put_ids(w: &mut Writer, ids: &[usize]) {
    w.put_count(ids.len());
    for &id in ids {
        w.put_u64(id as u64);
    }
}

fn get_ids(r: &mut Reader<'_>) -> Result<Vec<usize>, Truncated> {
    (0..r.count(8)?).map(|_| Ok(r.u64()? as usize)).collect()
}

fn put_faults(w: &mut Writer, faults: &RoundFaults) {
    put_ids(w, &faults.dropped);
    put_ids(w, &faults.retried);
    put_ids(w, &faults.rejected);
}

fn get_faults(r: &mut Reader<'_>) -> Result<RoundFaults, Truncated> {
    Ok(RoundFaults {
        dropped: get_ids(r)?,
        retried: get_ids(r)?,
        rejected: get_ids(r)?,
    })
}

/// Appends a round record; a pending one (`scored == false`) has no score
/// yet and writes none.
fn put_record(w: &mut Writer, r: &RoundRecord, scored: bool) {
    w.put_u64(r.round as u64);
    w.put_f64(r.elapsed_hours);
    if scored {
        w.put_f32(r.score);
    }
    w.put_f32(r.train_loss);
    w.put_f64(r.round_seconds);
    w.put_u64(r.tokens_trained as u64);
    w.put_u64(r.upload_bytes_dense as u64);
    w.put_u64(r.upload_bytes_compressed as u64);
    put_breakdown(w, &r.breakdown);
    put_faults(w, &r.faults);
}

fn get_record(r: &mut Reader<'_>, scored: bool) -> Result<RoundRecord, Truncated> {
    Ok(RoundRecord {
        round: r.u64()? as usize,
        elapsed_hours: r.f64()?,
        score: if scored { r.f32()? } else { 0.0 },
        train_loss: r.f32()?,
        round_seconds: r.f64()?,
        tokens_trained: r.u64()? as usize,
        upload_bytes_dense: r.u64()? as usize,
        upload_bytes_compressed: r.u64()? as usize,
        breakdown: get_breakdown(r)?,
        faults: get_faults(r)?,
    })
}

fn put_profile(w: &mut Writer, p: &ActivationProfile) {
    let layers = p.frequencies.len();
    w.put_count(layers);
    for layer in 0..layers {
        w.put_f32_slice(&p.frequencies[layer]);
        w.put_f32_slice(&p.attention[layer]);
        let sets = &p.sample_sets[layer];
        w.put_count(sets.len());
        for set in sets {
            put_ids(w, set);
        }
    }
}

fn get_profile(r: &mut Reader<'_>) -> Result<ActivationProfile, Truncated> {
    let mut profile = ActivationProfile {
        frequencies: Vec::new(),
        attention: Vec::new(),
        sample_sets: Vec::new(),
    };
    for _ in 0..r.count(3 * 4)? {
        profile.frequencies.push(r.f32_slice()?);
        profile.attention.push(r.f32_slice()?);
        let sets = (0..r.count(4)?)
            .map(|_| get_ids(r))
            .collect::<Result<_, _>>()?;
        profile.sample_sets.push(sets);
    }
    Ok(profile)
}

fn put_opt_profile(w: &mut Writer, p: Option<&ActivationProfile>) {
    match p {
        Some(profile) => {
            w.put_u8(1);
            put_profile(w, profile);
        }
        None => w.put_u8(0),
    }
}

fn get_opt_profile(r: &mut Reader<'_>) -> Result<Option<ActivationProfile>, SnapshotError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_profile(r)?)),
        other => Err(corrupt(format!("unknown profile tag {other}"))),
    }
}

/// Encodes a run's resumable state into the snapshot-manifest `meta` blob.
pub(crate) fn encode_run_state(state: &RunState) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bytes(MAGIC);
    w.put_u32(VERSION);
    let fingerprint = &state.fingerprint;
    w.put_u64(fingerprint.seed);
    w.put_u8(method_tag(fingerprint.method));
    w.put_u8(mode_tag(fingerprint.mode));
    w.put_u32(fingerprint.rounds);
    w.put_u32(fingerprint.participants);
    match fingerprint.cohort_size {
        Some(k) => {
            w.put_u8(1);
            w.put_u32(k);
        }
        None => w.put_u8(0),
    }
    w.put_u32(fingerprint.aggregation_edges);
    // Position and clocks.
    w.put_u32(state.next_round);
    w.put_f64(state.elapsed_s);
    put_breakdown(
        &mut w,
        &RoundCostBreakdown {
            profiling_s: state.phases.profiling_s,
            merging_s: state.phases.merging_s,
            assignment_s: state.phases.assignment_s,
            fine_tuning_s: state.phases.fine_tuning_s,
            offloading_s: state.phases.offloading_s,
            communication_s: state.phases.communication_s,
        },
    );
    // History.
    w.put_count(state.records.len());
    for record in &state.records {
        put_record(&mut w, record, true);
    }
    match &state.pending {
        Some(pending) => {
            w.put_u8(1);
            put_record(&mut w, pending, false);
        }
        None => w.put_u8(0),
    }
    // Assigner utilities.
    w.put_count(state.utilities.len());
    for (pid, utility) in &state.utilities {
        w.put_u64(*pid as u64);
        utility.key.write_to(&mut w);
        w.put_f32(utility.value);
        w.put_u8(u8::from(utility.estimated));
    }
    // Profiling pipelines.
    w.put_count(state.flux.len());
    for (profile, refreshes) in &state.flux {
        w.put_u64(*refreshes as u64);
        put_opt_profile(&mut w, profile.as_ref());
    }
    w.put_count(state.fmes.len());
    for profile in &state.fmes {
        put_opt_profile(&mut w, profile.as_ref());
    }
    w.into_vec()
}

/// Decodes a `meta` blob back into a [`RunState`].
///
/// # Errors
///
/// Fails with [`SnapshotError::Corrupt`] on a bad magic, unknown version or
/// any structurally implausible field.
pub(crate) fn decode_run_state(bytes: &[u8]) -> Result<RunState, SnapshotError> {
    let r = &mut Reader::new(bytes);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(corrupt("run-state blob has a bad magic"));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(corrupt(format!("unsupported run-state version {version}")));
    }
    let fingerprint = Fingerprint {
        seed: r.u64()?,
        method: method_from_tag(r.u8()?)?,
        mode: mode_from_tag(r.u8()?)?,
        rounds: r.u32()?,
        participants: r.u32()?,
        cohort_size: match r.u8()? {
            0 => None,
            1 => Some(r.u32()?),
            other => return Err(corrupt(format!("unknown cohort tag {other}"))),
        },
        aggregation_edges: r.u32()?,
    };
    let next_round = r.u32()?;
    let elapsed_s = r.f64()?;
    let phase_breakdown = get_breakdown(r)?;
    let phases = PhaseTimes {
        profiling_s: phase_breakdown.profiling_s,
        merging_s: phase_breakdown.merging_s,
        assignment_s: phase_breakdown.assignment_s,
        fine_tuning_s: phase_breakdown.fine_tuning_s,
        offloading_s: phase_breakdown.offloading_s,
        communication_s: phase_breakdown.communication_s,
    };
    let records = (0..r.count(8)?)
        .map(|_| get_record(r, true))
        .collect::<Result<_, _>>()?;
    let pending = match r.u8()? {
        0 => None,
        1 => Some(get_record(r, false)?),
        other => return Err(corrupt(format!("unknown pending tag {other}"))),
    };
    let mut utilities = Vec::new();
    for _ in 0..r.count(8 + 4 + 4 + 4 + 1)? {
        let pid = r.u64()? as usize;
        let key = ExpertKey::read_from(r)?;
        let value = r.f32()?;
        let estimated = match r.u8()? {
            0 => false,
            1 => true,
            other => return Err(corrupt(format!("unknown estimated tag {other}"))),
        };
        utilities.push((
            pid,
            ExpertUtility {
                key,
                value,
                estimated,
            },
        ));
    }
    let mut flux = Vec::new();
    for _ in 0..r.count(8 + 1)? {
        let refreshes = r.u64()? as usize;
        flux.push((get_opt_profile(r)?, refreshes));
    }
    let fmes = (0..r.count(1)?)
        .map(|_| get_opt_profile(r))
        .collect::<Result<_, _>>()?;
    if r.remaining() != 0 {
        return Err(corrupt(format!(
            "{} trailing bytes after the run state",
            r.remaining()
        )));
    }
    Ok(RunState {
        fingerprint,
        next_round,
        elapsed_s,
        phases,
        records,
        pending,
        utilities,
        flux,
        fmes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> ActivationProfile {
        ActivationProfile {
            frequencies: vec![vec![0.5, 0.25], vec![0.75, 0.0]],
            attention: vec![vec![0.1, 0.2], vec![0.3, 0.4]],
            sample_sets: vec![vec![vec![0, 2], vec![]], vec![vec![1], vec![0, 1, 2]]],
        }
    }

    fn sample_fingerprint() -> Fingerprint {
        Fingerprint {
            seed: 42,
            method: Method::Flux,
            mode: ExecutionMode::Pipelined,
            rounds: 5,
            participants: 2,
            cohort_size: Some(2),
            aggregation_edges: 3,
        }
    }

    fn sample_state() -> RunState {
        RunState {
            fingerprint: sample_fingerprint(),
            next_round: 3,
            elapsed_s: 1234.5,
            phases: PhaseTimes {
                profiling_s: 1.0,
                merging_s: 2.0,
                assignment_s: 3.0,
                fine_tuning_s: 4.0,
                offloading_s: 5.0,
                communication_s: 6.0,
            },
            records: vec![RoundRecord {
                round: 0,
                elapsed_hours: 0.25,
                score: 0.5,
                train_loss: 1.5,
                round_seconds: 900.0,
                tokens_trained: 1000,
                upload_bytes_dense: 2048,
                upload_bytes_compressed: 512,
                breakdown: RoundCostBreakdown {
                    profiling_s: 1.0,
                    merging_s: 0.5,
                    assignment_s: 0.25,
                    fine_tuning_s: 10.0,
                    offloading_s: 0.0,
                    communication_s: 2.0,
                },
                faults: RoundFaults {
                    dropped: vec![1],
                    retried: vec![0],
                    rejected: vec![0, 1],
                },
            }],
            pending: Some(RoundRecord {
                round: 1,
                elapsed_hours: 0.5,
                score: 0.0,
                train_loss: 1.25,
                round_seconds: 800.0,
                tokens_trained: 900,
                upload_bytes_dense: 1024,
                upload_bytes_compressed: 256,
                breakdown: RoundCostBreakdown::default(),
                faults: RoundFaults::default(),
            }),
            utilities: vec![(
                0,
                ExpertUtility {
                    key: ExpertKey {
                        layer: 1,
                        expert: 3,
                    },
                    value: 0.125,
                    estimated: true,
                },
            )],
            flux: vec![(Some(sample_profile()), 4), (None, 0)],
            fmes: vec![None, Some(sample_profile())],
        }
    }

    fn assert_states_equal(a: &RunState, b: &RunState) {
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.next_round, b.next_round);
        assert_eq!(a.elapsed_s, b.elapsed_s);
        assert_eq!(a.phases, b.phases);
        assert_eq!(a.records, b.records);
        assert_eq!(a.pending, b.pending);
        assert_eq!(a.utilities.len(), b.utilities.len());
        for ((pa, ua), (pb, ub)) in a.utilities.iter().zip(b.utilities.iter()) {
            assert_eq!(pa, pb);
            assert_eq!(ua.key, ub.key);
            assert_eq!(ua.value, ub.value);
            assert_eq!(ua.estimated, ub.estimated);
        }
        let profile_eq = |x: &Option<ActivationProfile>, y: &Option<ActivationProfile>| match (x, y)
        {
            (None, None) => true,
            (Some(x), Some(y)) => {
                x.frequencies == y.frequencies
                    && x.attention == y.attention
                    && x.sample_sets == y.sample_sets
            }
            _ => false,
        };
        assert_eq!(a.flux.len(), b.flux.len());
        for ((xp, xr), (yp, yr)) in a.flux.iter().zip(b.flux.iter()) {
            assert_eq!(xr, yr);
            assert!(profile_eq(xp, yp));
        }
        assert_eq!(a.fmes.len(), b.fmes.len());
        for (x, y) in a.fmes.iter().zip(b.fmes.iter()) {
            assert!(profile_eq(x, y));
        }
    }

    #[test]
    fn run_state_round_trips() {
        let state = sample_state();
        let bytes = encode_run_state(&state);
        let decoded = decode_run_state(&bytes).expect("clean blob decodes");
        assert_states_equal(&state, &decoded);
    }

    /// The FLUXRUN bytes of `sample_state()`, by length and byte-wise
    /// FNV-1a digest (written out here so the pin depends on no codec),
    /// re-recorded at version 3: the version-2 bytes recorded at the parent
    /// of the byte-codec migration, minus the staged-aggregator tag.
    #[test]
    fn run_state_bytes_are_pinned() {
        let bytes = encode_run_state(&sample_state());
        let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(
            (bytes.len(), digest),
            (665, 0xc7ab_8d6d_7309_5775),
            "digest {digest:#x}"
        );
    }

    #[test]
    fn empty_run_state_round_trips() {
        let state = RunState {
            records: Vec::new(),
            pending: None,
            utilities: Vec::new(),
            flux: Vec::new(),
            fmes: Vec::new(),
            ..sample_state()
        };
        let bytes = encode_run_state(&state);
        let decoded = decode_run_state(&bytes).expect("clean blob decodes");
        assert_states_equal(&state, &decoded);
    }

    #[test]
    fn bad_magic_and_truncation_are_rejected() {
        let state = sample_state();
        let mut bytes = encode_run_state(&state);
        assert!(decode_run_state(&bytes[..bytes.len() - 1]).is_err());
        bytes[0] ^= 0xFF;
        assert!(decode_run_state(&bytes).is_err());
        assert!(decode_run_state(b"short").is_err());
    }

    /// Every count a hostile blob can inflate fails as a typed error, not
    /// as an allocation sized by the lie.
    #[test]
    fn inflated_counts_are_refused() {
        let state = RunState {
            pending: None,
            utilities: Vec::new(),
            flux: Vec::new(),
            fmes: Vec::new(),
            ..sample_state()
        };
        let bytes = encode_run_state(&state);
        // magic, version, fingerprint (8+1+1+4+4+5+4), next_round, elapsed,
        // phases: then the record count.
        let record_count = 8 + 4 + 27 + 4 + 8 + 6 * 8;
        assert_eq!(bytes[record_count..record_count + 4], 1u32.to_le_bytes());
        // The tail is pending tag and three empty counts.
        let utility_count = bytes.len() - 12;
        for offset in [
            record_count,
            utility_count,
            utility_count + 4,
            utility_count + 8,
        ] {
            let mut hostile = bytes.clone();
            hostile[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            match decode_run_state(&hostile) {
                Err(SnapshotError::Corrupt(message)) => {
                    assert!(message.contains("truncated"), "{message}")
                }
                Err(other) => panic!("offset {offset}: expected Corrupt, got {other}"),
                Ok(_) => panic!("offset {offset}: an inflated count must not decode"),
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_run_state(&sample_state());
        bytes.push(0);
        let err = match decode_run_state(&bytes) {
            Err(err) => err,
            Ok(_) => panic!("trailing bytes must fail"),
        };
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn fingerprint_mismatches_are_attributed() {
        let state = sample_state();
        let run = sample_fingerprint();
        assert!(state.verify_fingerprint(&run).is_ok());
        // Every field is part of the fingerprint — cohort size and tree
        // shape included: resuming a sampled run with a different K (or
        // tree shape) must fail loudly, naming both sides.
        let foreign = [
            Fingerprint { seed: 43, ..run },
            Fingerprint {
                method: Method::Fmd,
                ..run
            },
            Fingerprint {
                mode: ExecutionMode::Barriered,
                ..run
            },
            Fingerprint { rounds: 6, ..run },
            Fingerprint {
                participants: 3,
                ..run
            },
            Fingerprint {
                cohort_size: Some(3),
                ..run
            },
            Fingerprint {
                cohort_size: None,
                ..run
            },
            Fingerprint {
                aggregation_edges: 2,
                ..run
            },
        ];
        for other in foreign {
            match state.verify_fingerprint(&other) {
                Err(SnapshotError::Mismatch(message)) => {
                    assert!(message.contains(&format!("{run:?}")), "{message}");
                    assert!(message.contains(&format!("{other:?}")), "{message}");
                }
                Err(err) => panic!("{other:?}: expected a mismatch, got {err}"),
                Ok(()) => panic!("{other:?} must not match {run:?}"),
            }
        }
    }

    #[test]
    fn unsupported_versions_are_rejected() {
        // Re-encode sample_state() in the older layouts by hand. No build
        // writes them any more, and none reads them.
        let v3 = encode_run_state(&sample_state());
        let version_at = MAGIC.len()..MAGIC.len() + 4;
        // Version 2: the current layout plus a trailing staged-aggregator
        // tag (0 = none).
        let mut v2 = v3.clone();
        v2[version_at.clone()].copy_from_slice(&2u32.to_le_bytes());
        v2.push(0);
        // Version 1: version 2 minus the cohort fields. seed(8) + method(1)
        // + mode(1) + rounds(4) + participants(4), then skip the cohort
        // tag+value (5 bytes for Some) and edges (4 bytes).
        let fp_end = version_at.end + 18;
        let mut v1 = v2[..version_at.start].to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&v2[version_at.end..fp_end]);
        v1.extend_from_slice(&v2[fp_end + 9..]);
        // A blob from a newer build: the current layout under the next
        // version number.
        let mut newer = v3.clone();
        newer[version_at].copy_from_slice(&(VERSION + 1).to_le_bytes());
        for (blob, version) in [(v1, 1), (v2, 2), (newer, VERSION + 1)] {
            match decode_run_state(&blob) {
                Err(SnapshotError::Corrupt(message)) => {
                    assert_eq!(message, format!("unsupported run-state version {version}"))
                }
                Err(other) => panic!("version {version}: expected Corrupt, got {other}"),
                Ok(_) => panic!("a version-{version} blob must be refused"),
            }
        }
    }
}
