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

use flux_core::driver::{FederatedRun, Method, RunConfig};
use flux_data::DatasetKind;
use flux_fl::snapshot::{corrupt_file_byte, referenced_files};
use flux_fl::SnapshotError;
use flux_moe::MoeConfig;
use flux_tensor::simd::{self, SimdLevel};

use common::{check, killed, pool, quick, read_dir, trace_of, Group, Kill, TempDir};

#[test]
fn kill_at_round_boundary_replays_bit_identically() {
    check(Group::KillAtBoundary);
}

#[test]
fn kill_mid_round_replays_bit_identically() {
    // Under either schedule the fan-out has already staged its uploads when
    // the kill lands, so the checkpoint carries them and the replayed
    // fan-out's re-submissions are rejected as duplicates.
    check(Group::KillMidRound);
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
    let pool = pool(None);
    let run = FederatedRun::new(quick(), 32);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for method in Method::all() {
        for mid_round in [false, true] {
            let dir = TempDir::new("pin");
            let mut active = run.start(method);
            active.step_round(&pool);
            if mid_round {
                active.start_round(&pool);
            }
            active.checkpoint(&dir).expect("checkpoint succeeds");
            for (name, bytes) in read_dir(&dir) {
                digest = fnv(fnv(digest, name.as_bytes()), &bytes);
            }
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
    let pool = pool(None);
    let run = FederatedRun::new(quick(), 33);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
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
        for (name, bytes) in read_dir(&dir) {
            digest = fnv(fnv(digest, name.as_bytes()), &bytes);
        }
    }
    let expected = match simd::global_level() {
        SimdLevel::Avx2 => 0x4663_a711_0eec_0e3e,
        SimdLevel::Scalar => 0x7523_23e8_4f93_b063,
    };
    assert_eq!(digest, expected, "digest {digest:#x}");
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
