//! Durable per-shard checkpoints and crash recovery.
//!
//! The invariant: a run killed at round *k* — at a round boundary, in the
//! middle of a round (after its fan-out, before its reduction) or inside a
//! checkpoint — restores and replays **bit-identically** to the
//! uninterrupted run, under both schedules. Nothing the checkpoint does not
//! persist may influence the result: dataset, fleet and RNG chain are
//! rebuilt deterministically from the seed. A kill inside a checkpoint
//! leaves a directory that restores to the previous checkpoint or the new
//! one. Those replays are the `Kill*` and `ResumedTenant` groups of the
//! equivalence table (`tests/common/mod.rs`); this suite adds the checkpoint
//! directories' digests, incremental writes, and refused restores.

mod common;

use flux_core::driver::{ExecutionMode, FederatedRun, Method, RunConfig};
use flux_data::DatasetKind;
use flux_fl::snapshot::{corrupt_file_byte, referenced_files, MANIFEST_FILE};
use flux_fl::SnapshotError;
use flux_moe::MoeConfig;
use flux_tensor::simd::{self, SimdLevel};

use common::{check, killed, pool, quick, read_dir, trace_of, Files, Group, Kill, TempDir};

#[test]
fn kill_at_round_boundary_replays_bit_identically() {
    check(Group::KillAtBoundary);
}

#[test]
fn kill_mid_round_replays_bit_identically() {
    // Under either schedule the fan-out has already staged its uploads when
    // the kill lands. The checkpoint keeps none of them: it is the
    // top-of-round state, and the replayed fan-out recomputes every upload.
    check(Group::KillMidRound);
}

#[test]
fn mid_round_checkpoint_with_megabytes_staged_restores() {
    // A fault-free pipelined round on `MoeConfig::small()` has streamed
    // megabytes of uploads into its aggregator by the time the kill lands
    // (FMD uploads every expert). The checkpoint keeps none of them: the
    // run must restore, replay the round and finish on the uninterrupted
    // run's weights.
    let config = RunConfig::quick_demo(MoeConfig::small(), DatasetKind::Gsm8k).with_rounds(2);
    let run = FederatedRun::new(config, 24);
    let reference = trace_of(&run.run(Method::Fmd));
    let [(_, recovered)] = &killed(&run, Method::Fmd, Kill::MidRound(1), &pool(None))[..] else {
        panic!("a mid-round kill leaves one directory")
    };
    assert_eq!(trace_of(recovered), reference);
}

#[test]
fn every_method_survives_a_mid_run_kill() {
    check(Group::KillEveryMethod);
}

#[test]
fn fmd_killed_inside_a_checkpoint_replays_bit_identically() {
    check(Group::KillInsideCheckpointFmd);
}

#[test]
fn flux_killed_inside_a_checkpoint_replays_bit_identically() {
    // Stale profiles and assigner utilities ride in the meta blob: the
    // previous checkpoint's must come back with the previous weights.
    check(Group::KillInsideCheckpointFlux);
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Folds a checkpoint directory — every file's name, then its bytes — into
/// two digests: one over every file but the manifest, one over the
/// manifest alone (it carries the FLUXRUN run state).
fn fold_dir(digests: &mut (u64, u64), files: &Files) {
    for (name, bytes) in files {
        let digest = if name == MANIFEST_FILE {
            &mut digests.1
        } else {
            &mut digests.0
        };
        *digest = fnv(fnv(*digest, name.as_bytes()), bytes);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What a checkpoint persists for each method's client state, held to
/// literals: every method is checkpointed at the top of round 1 and inside
/// round 1 (fan-out done, reduction not), and the eight pipelined
/// directories are folded into one digest over the model files and one
/// over the manifests. One pair of literals per kernel level
/// (`FLUX_SIMD`); thread counts share them. Under both schedules the
/// mid-round directory is the top-of-round one, byte for byte: a
/// checkpoint keeps nothing a replayed fan-out recomputes.
#[test]
fn checkpoint_directories_of_every_method_are_pinned() {
    let pool = pool(None);
    let mut digests = (FNV_OFFSET, FNV_OFFSET);
    for method in Method::all() {
        for mode in [ExecutionMode::Pipelined, ExecutionMode::Barriered] {
            let run = FederatedRun::new(quick(), 32).with_mode(mode);
            let [boundary, mid_round] = [false, true].map(|mid_round| {
                let dir = TempDir::new("pin");
                let mut active = run.start(method);
                active.step_round(&pool);
                if mid_round {
                    active.start_round(&pool);
                }
                active.checkpoint(&dir).expect("checkpoint succeeds");
                read_dir(&dir)
            });
            assert!(
                mid_round == boundary,
                "{method:?} {mode:?}: the mid-round directory differs from the top-of-round one"
            );
            if mode == ExecutionMode::Pipelined {
                fold_dir(&mut digests, &boundary);
                fold_dir(&mut digests, &mid_round);
            }
        }
    }
    let files = match simd::global_level() {
        SimdLevel::Avx2 => 0x8f1c_8ddb_1813_f021,
        SimdLevel::Scalar => 0x8e64_89e5_47b6_c889,
    };
    let manifests = match simd::global_level() {
        SimdLevel::Avx2 => 0x582f_b0ee_9fb6_0c1d,
        SimdLevel::Scalar => 0x8f20_de72_50a5_ae31,
    };
    assert_eq!(digests.0, files, "files digest {:#x}", digests.0);
    assert_eq!(digests.1, manifests, "manifest digest {:#x}", digests.1);
}

/// What a restored store writes into the directory it came from, held to
/// literals: every method is checkpointed after round 0, restored from that
/// directory, stepped through round 1 and checkpointed into the same
/// directory. The second checkpoint starts from the restored store's
/// version counters and the manifest's slots, so the folded directory —
/// both generations of every file, name then bytes — pins which files it
/// rewrites and where. One pair of literals (model files, manifests) per
/// kernel level (`FLUX_SIMD`).
#[test]
fn restored_lineage_directories_are_pinned() {
    let pool = pool(None);
    let run = FederatedRun::new(quick(), 33);
    let mut digests = (FNV_OFFSET, FNV_OFFSET);
    for method in Method::all() {
        let dir = TempDir::new("lineage");
        {
            let mut active = run.start(method);
            active.step_round(&pool);
            active.checkpoint(&dir).expect("checkpoint succeeds");
        }
        let mut restored = run.restore(method, &dir).expect("checkpoint restores");
        restored.step_round(&pool);
        restored.checkpoint(&dir).expect("checkpoint succeeds");
        fold_dir(&mut digests, &read_dir(&dir));
    }
    let files = match simd::global_level() {
        SimdLevel::Avx2 => 0xf6f9_c454_29c3_c960,
        SimdLevel::Scalar => 0xd1ad_b2c7_1091_b51d,
    };
    let manifests = match simd::global_level() {
        SimdLevel::Avx2 => 0xfa32_fc4a_57b6_7208,
        SimdLevel::Scalar => 0x26e4_b9f1_14c7_a32f,
    };
    assert_eq!(digests.0, files, "files digest {:#x}", digests.0);
    assert_eq!(digests.1, manifests, "manifest digest {:#x}", digests.1);
}

#[test]
fn checkpoints_after_a_quiet_interval_are_incremental() {
    let pool = pool(None);
    let dir = TempDir::new("incremental");
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
}

#[test]
fn corrupted_shard_is_detected_and_named() {
    let pool = pool(None);
    let dir = TempDir::new("corrupt");
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
}

#[test]
fn restore_rejects_a_foreign_fingerprint() {
    let pool = pool(None);
    let dir = TempDir::new("fingerprint");
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
        .restore(Method::Flux, TempDir::new("does_not_exist"))
        .is_err());
}

#[test]
fn scheduler_resumes_a_tenant_from_its_checkpoint() {
    check(Group::ResumedTenant);
}
