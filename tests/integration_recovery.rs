//! Crash-recovery golden traces for durable per-shard checkpoints.
//!
//! The invariant: a run killed at round *k* — at a round boundary or in
//! the middle of a round, after its fan-out but before its reduction —
//! and restored from its durable checkpoint replays to per-round losses,
//! per-round scores and final global weights **bit-identical** to the
//! uninterrupted run, under both schedules and every
//! `FLUX_THREADS` setting (CI re-runs this suite at 1/4/8). Nothing the
//! checkpoint does not persist may influence the result: dataset, fleet
//! and RNG chain are rebuilt deterministically from the seed.
//!
//! A kill *inside* a checkpoint is part of the invariant: every directory
//! it can leave restores to the previous checkpoint or the new one — the
//! run state in the manifest's meta blob with the weights of the same
//! generation — and replays to the same bits.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use threadpool::ThreadPool;

use flux_core::driver::{ExecutionMode, FederatedRun, Method, RunConfig, RunPhase, RunResult};
use flux_core::scheduler::{JobSpec, SchedulePolicy, Scheduler};
use flux_data::DatasetKind;
use flux_fl::snapshot::{corrupt_file_byte, referenced_files, MANIFEST_FILE};
use flux_fl::{ParameterServer, SnapshotError};
use flux_moe::MoeConfig;
use flux_tensor::simd::{self, SimdLevel};

fn quick() -> RunConfig {
    RunConfig::quick_demo(MoeConfig::tiny(), DatasetKind::Gsm8k)
}

fn pool() -> ThreadPool {
    ThreadPool::from_env()
}

/// A unique scratch directory per test (parallel tests, repeated runs).
fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "flux_recovery_{tag}_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[derive(Debug, Clone, PartialEq)]
struct Trace {
    rounds: Vec<(f32, f32, f64)>,
    checksum: u64,
}

fn trace_of(result: &RunResult) -> Trace {
    Trace {
        rounds: result
            .rounds
            .iter()
            .map(|r| (r.train_loss, r.score, r.elapsed_hours))
            .collect(),
        checksum: result.final_model.param_checksum(),
    }
}

/// Runs to completion, checkpointing at the requested point and simulating
/// the kill by dropping the live run, then restoring and finishing.
fn run_with_kill(run: &FederatedRun, method: Method, kill_round: usize, mid_round: bool) -> Trace {
    let pool = pool();
    let dir = temp_dir("kill");
    {
        let mut active = run.start(method);
        for _ in 0..kill_round {
            active.step_round(&pool);
        }
        if mid_round {
            active.start_round(&pool);
            assert_eq!(active.poll(), RunPhase::ReadyToFinish { round: kill_round });
        }
        active.checkpoint(&dir).expect("checkpoint succeeds");
        // The process "crashes" here: the live run is dropped on the floor.
    }
    let mut restored = run.restore(method, &dir).expect("checkpoint restores");
    assert_eq!(
        restored.poll(),
        RunPhase::ReadyToStart { round: kill_round },
        "a restored run re-enters the interrupted round"
    );
    while !restored.is_done() {
        restored.step_round(&pool);
    }
    let result = restored.finish();
    let _ = std::fs::remove_dir_all(&dir);
    trace_of(&result)
}

#[test]
fn kill_at_round_boundary_replays_bit_identically() {
    let run = FederatedRun::new(quick(), 21);
    let reference = trace_of(&run.run(Method::Flux));
    for kill_round in [1, 2] {
        let recovered = run_with_kill(&run, Method::Flux, kill_round, false);
        assert_eq!(
            recovered, reference,
            "kill at round {kill_round} boundary must replay bit-identically"
        );
    }
}

#[test]
fn kill_mid_round_replays_bit_identically() {
    // Under either schedule the fan-out has already staged its uploads when
    // the kill lands, so the checkpoint carries them and the replayed
    // fan-out's re-submissions are rejected as duplicates.
    for mode in [ExecutionMode::Pipelined, ExecutionMode::Barriered] {
        let run = FederatedRun::new(quick(), 22).with_mode(mode);
        let reference = trace_of(&run.run(Method::Flux));
        for kill_round in [0, 1] {
            let recovered = run_with_kill(&run, Method::Flux, kill_round, true);
            assert_eq!(
                recovered, reference,
                "{mode:?}: kill inside round {kill_round} must replay bit-identically"
            );
        }
    }
}

#[test]
fn mid_round_checkpoint_with_megabytes_staged_restores() {
    // Regression: the staged aggregator's byte length was bounded by the
    // record-count cap (1 000 000), so the mid-round checkpoint of a
    // fault-free pipelined run whose uploads had already streamed into the
    // aggregator — megabytes on `MoeConfig::small()`, where FMD uploads
    // every expert — was written fine and then refused by `restore` as
    // corrupt. The run must restore and finish on the uninterrupted run's
    // weights.
    let config = RunConfig::quick_demo(MoeConfig::small(), DatasetKind::Gsm8k).with_rounds(2);
    let run = FederatedRun::new(config, 24);
    let reference = trace_of(&run.run(Method::Fmd));
    let recovered = run_with_kill(&run, Method::Fmd, 1, true);
    assert_eq!(recovered.checksum, reference.checksum);
    assert_eq!(recovered, reference);
}

#[test]
fn every_method_survives_a_mid_run_kill() {
    // Killed at the boundary after round 1, and inside rounds 0 and 1
    // (fan-out done, reduction not), under both schedules.
    for mode in [ExecutionMode::Pipelined, ExecutionMode::Barriered] {
        let run = FederatedRun::new(quick(), 23).with_mode(mode);
        for method in Method::all() {
            let reference = trace_of(&run.run(method));
            for (kill_round, mid_round) in [(1, false), (0, true), (1, true)] {
                let recovered = run_with_kill(&run, method, kill_round, mid_round);
                assert_eq!(
                    recovered,
                    reference,
                    "{} ({mode:?}) killed at round {kill_round} (mid-round: {mid_round}) \
                     must recover bit-identically",
                    method.label()
                );
            }
        }
    }
}

/// Every file of a checkpoint directory, by name.
type Files = BTreeMap<String, Vec<u8>>;

fn read_dir(dir: &Path) -> Files {
    std::fs::read_dir(dir)
        .expect("the checkpoint directory exists")
        .map(|entry| {
            let entry = entry.expect("directory entry");
            let name = entry.file_name().into_string().expect("ASCII file names");
            (name, std::fs::read(entry.path()).expect("readable file"))
        })
        .collect()
}

fn write_dir(dir: &Path, files: &Files) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("scratch directory");
    for (name, data) in files {
        std::fs::write(dir.join(name), data).expect("writable scratch file");
    }
}

/// The shard and head files the manifest of `dir` references.
fn live_slot_files(dir: &Path) -> Vec<String> {
    let live = referenced_files(dir).expect("committed manifest");
    let mut names = live.shards;
    names.push(live.head);
    names
}

/// A run that checkpoints at every round boundary is killed inside the
/// checkpoint that follows round `kill_round`, at each state that kill can
/// leave: the new generation's slot files written up to any point, the
/// next one torn over whatever its slot held, the manifest not yet renamed
/// (with or without its temp file) — or renamed. Each directory is rebuilt
/// from the directory before that checkpoint and the one after it,
/// restored, and run to the end, checkpointing on (so the torn slots are
/// overwritten by the writer they were left for).
fn killed_inside_a_checkpoint_replays_bit_identically(method: Method, seed: u64) {
    let pool = pool();
    let run = FederatedRun::new(quick(), seed);
    let reference = trace_of(&run.run(method));
    for kill_round in [1, 2] {
        let dir = temp_dir("torn");
        let scratch = temp_dir("torn_state");
        let (before, after, new_files) = {
            let mut active = run.start(method);
            for _ in 0..kill_round {
                active.step_round(&pool);
                active.checkpoint(&dir).expect("checkpoint succeeds");
            }
            let before = read_dir(&dir);
            let old_live = live_slot_files(&dir);
            active.step_round(&pool);
            active.checkpoint(&dir).expect("checkpoint succeeds");
            let new_files: Vec<String> = live_slot_files(&dir)
                .into_iter()
                .filter(|name| !old_live.contains(name))
                .collect();
            (before, read_dir(&dir), new_files)
        };
        assert!(
            !new_files.is_empty(),
            "a round of {} dirties at least one file",
            method.label()
        );

        // (what the kill left, the round the restored run re-enters)
        let mut states: Vec<(String, Files, usize)> = Vec::new();
        let mut partial = before.clone();
        for (written, name) in new_files.iter().enumerate() {
            // `written` files complete; this one torn: its first half over
            // the older bytes of its slot, length not yet fixed.
            let complete = &after[name];
            let mut torn = complete[..complete.len() / 2].to_vec();
            if let Some(older) = before.get(name) {
                torn.extend(older.iter().skip(torn.len()));
            }
            let mut state = partial.clone();
            state.insert(name.clone(), torn);
            states.push((format!("{written} files, {name} torn"), state, kill_round));
            partial.insert(name.clone(), complete.clone());
        }
        states.push((
            "every file, no manifest".into(),
            partial.clone(),
            kill_round,
        ));
        partial.insert("MANIFEST.tmp".into(), after[MANIFEST_FILE].clone());
        states.push(("manifest not renamed".into(), partial, kill_round));
        states.push(("manifest renamed".into(), after.clone(), kill_round + 1));

        for (what, state, resume_round) in states {
            let what = format!(
                "{}, checkpoint after round {kill_round}: {what}",
                method.label()
            );
            write_dir(&scratch, &state);
            let mut restored = match run.restore(method, &scratch) {
                Ok(restored) => restored,
                Err(err) => panic!("{what}: {err}"),
            };
            if resume_round < 3 {
                let resumes = RunPhase::ReadyToStart {
                    round: resume_round,
                };
                assert_eq!(restored.poll(), resumes, "{what}");
            }
            while !restored.is_done() {
                restored.step_round(&pool);
                restored.checkpoint(&scratch).expect("checkpoint succeeds");
            }
            assert_eq!(trace_of(&restored.finish()), reference, "{what}");
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&scratch);
    }
}

#[test]
fn fmd_killed_inside_a_checkpoint_replays_bit_identically() {
    killed_inside_a_checkpoint_replays_bit_identically(Method::Fmd, 30);
}

#[test]
fn flux_killed_inside_a_checkpoint_replays_bit_identically() {
    // Stale profiles and assigner utilities ride in the meta blob: the
    // previous checkpoint's must come back with the previous weights.
    killed_inside_a_checkpoint_replays_bit_identically(Method::Flux, 31);
}

/// What a checkpoint persists for each method's client state, held to
/// literals: every method is checkpointed after round 1 and inside round 1
/// (fan-out done, reduction not), and every file of the eight directories
/// — name, then bytes — is folded into one FNV-1a digest. One literal per
/// kernel level (`FLUX_SIMD`); thread counts share it.
#[test]
fn checkpoint_directories_of_every_method_are_pinned() {
    let fnv = |hash: u64, bytes: &[u8]| {
        bytes.iter().fold(hash, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let pool = pool();
    let run = FederatedRun::new(quick(), 32);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for method in Method::all() {
        for mid_round in [false, true] {
            let dir = temp_dir("pin");
            let mut active = run.start(method);
            active.step_round(&pool);
            if mid_round {
                active.start_round(&pool);
            }
            active.checkpoint(&dir).expect("checkpoint succeeds");
            for (name, bytes) in read_dir(&dir) {
                digest = fnv(fnv(digest, name.as_bytes()), &bytes);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let expected = match simd::global_level() {
        SimdLevel::Avx2 => 0xb4f0_d7e6_bd81_834c,
        SimdLevel::Scalar => 0x0cc6_4572_90d3_48aa,
    };
    assert_eq!(digest, expected, "digest {digest:#x}");
}

/// What a restored store writes into the directory it came from, held to
/// literals: every method is checkpointed after round 0, restored from that
/// directory, stepped through round 1 and checkpointed into the same
/// directory. The second checkpoint starts from the restored store's
/// version counters and the manifest's slots, so the folded directory —
/// both generations of every file, name then bytes — pins which files it
/// rewrites and where. One literal per kernel level (`FLUX_SIMD`).
#[test]
fn restored_lineage_directories_are_pinned() {
    let fnv = |hash: u64, bytes: &[u8]| {
        bytes.iter().fold(hash, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let pool = pool();
    let run = FederatedRun::new(quick(), 33);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for method in Method::all() {
        let dir = temp_dir("lineage");
        {
            let mut active = run.start(method);
            active.step_round(&pool);
            active.checkpoint(&dir).expect("checkpoint succeeds");
        }
        let mut restored = run.restore(method, &dir).expect("checkpoint restores");
        restored.step_round(&pool);
        restored.checkpoint(&dir).expect("checkpoint succeeds");
        for (name, bytes) in read_dir(&dir) {
            digest = fnv(fnv(digest, name.as_bytes()), &bytes);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let expected = match simd::global_level() {
        SimdLevel::Avx2 => 0x4663_a711_0eec_0e3e,
        SimdLevel::Scalar => 0x7523_23e8_4f93_b063,
    };
    assert_eq!(digest, expected, "digest {digest:#x}");
}

#[test]
fn checkpoints_after_a_quiet_interval_are_incremental() {
    let pool = pool();
    let dir = temp_dir("incremental");
    let run = FederatedRun::new(quick(), 24);
    let mut active = run.start(Method::Flux);
    active.step_round(&pool);
    let first = active.checkpoint(&dir).expect("first checkpoint");
    assert!(first.shards_written > 0);
    assert!(
        first.frozen_written,
        "first checkpoint writes the frozen base"
    );
    // Nothing changed since: only the manifest is rewritten.
    let second = active.checkpoint(&dir).expect("second checkpoint");
    assert_eq!(second.shards_written, 0, "clean shards are skipped");
    assert!(!second.frozen_written);
    assert!(!second.head_written);
    assert!(second.bytes_written < first.bytes_written);
    // Another round dirties only the shards it touched.
    active.step_round(&pool);
    let third = active.checkpoint(&dir).expect("third checkpoint");
    assert!(third.shards_written >= 1);
    assert!(
        !third.frozen_written,
        "the frozen base is written exactly once"
    );
    assert_eq!(
        third.shards_written + third.shards_skipped,
        first.shards_written + first.shards_skipped,
        "every shard is either written or skipped"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_shard_is_detected_and_named() {
    let pool = pool();
    let dir = temp_dir("corrupt");
    let run = FederatedRun::new(quick(), 25);
    let mut active = run.start(Method::Flux);
    active.step_round(&pool);
    active.checkpoint(&dir).expect("checkpoint succeeds");
    // After one round every file sits in its first slot; the manifest says
    // which file a restore reads for shard 3, whatever slot that is.
    let shard_3 = referenced_files(&dir).expect("committed manifest").shards[3].clone();
    corrupt_file_byte(dir.join(&shard_3), 17).expect("damage one shard file");
    let err = match run.restore(Method::Flux, &dir) {
        Err(err) => err,
        Ok(_) => panic!("a damaged shard must fail the restore"),
    };
    match &err {
        SnapshotError::ChecksumMismatch { file } => {
            assert_eq!(file, &shard_3, "the error names the damaged shard")
        }
        other => panic!("expected a checksum mismatch, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_rejects_a_foreign_fingerprint() {
    let pool = pool();
    let dir = temp_dir("fingerprint");
    let run = FederatedRun::new(quick(), 26);
    let mut active = run.start(Method::Flux);
    active.step_round(&pool);
    active.checkpoint(&dir).expect("checkpoint succeeds");
    // Wrong seed.
    let other_seed = FederatedRun::new(quick(), 27);
    assert!(matches!(
        other_seed.restore(Method::Flux, &dir),
        Err(SnapshotError::Mismatch(_))
    ));
    // Wrong method.
    assert!(matches!(
        run.restore(Method::Fmd, &dir),
        Err(SnapshotError::Mismatch(_))
    ));
    // Missing directory.
    assert!(run
        .restore(Method::Flux, temp_dir("does_not_exist"))
        .is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scheduler_resumes_a_tenant_from_its_checkpoint() {
    let pool = pool();
    let run = FederatedRun::new(quick(), 28);
    let reference = trace_of(&run.run(Method::Fmes));
    // Kill a standalone run after one round.
    let dir = temp_dir("scheduler");
    {
        let mut active = run.start(Method::Fmes);
        active.step_round(&pool);
        active.checkpoint(&dir).expect("checkpoint succeeds");
    }
    // Resume it as one tenant among others on a shared server.
    let server = ParameterServer::empty();
    let scheduler = Scheduler::on_pool(pool, SchedulePolicy::RoundRobin);
    let results = scheduler.run_all_on(
        &server,
        vec![
            JobSpec::new("resumed", run, Method::Fmes).with_resume(&dir),
            JobSpec::new("fresh", FederatedRun::new(quick(), 29), Method::Fmd),
        ],
    );
    assert_eq!(trace_of(&results[0].result), reference);
    assert_eq!(results[1].result.rounds.len(), 3);
    assert_eq!(server.num_tenants(), 0, "finished tenants deregister");
    let _ = std::fs::remove_dir_all(&dir);
}
