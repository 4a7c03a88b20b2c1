//! Fault-injection and graceful-degradation suite.
//!
//! Uploads can crash, arrive bit-flipped or truncated, or stall past the
//! delivery window — scripted per participant with one-shot
//! [`ParticipantBehavior`] incidents or drawn from a seeded
//! `FaultPlan`. The server must *degrade*, never panic: damaged
//! payloads are rejected by the checksum-validated decode, transient
//! failures are retried within the round deadline, and rounds finalize on
//! a quorum. Every fault draw is a pure function of the seeds, so faulty
//! runs stay bit-identical across thread counts, schedules and a mid-round
//! kill, and a retried fault leaves the clean run's aggregate — the
//! `RetriedCorruption`, `RetriedStall`, `FaultPlan` and `FaultyKill`
//! groups of the equivalence table (`tests/common/mod.rs`).

mod common;

use common::{check, quick, reference, Config, Group};
use flux_core::driver::{ExecutionMode, FederatedRun, Method};
use flux_fl::{CompressionConfig, FaultToleranceConfig, ParticipantBehavior};

#[test]
fn corrupt_upload_is_rejected_not_panicking() {
    for compression in [CompressionConfig::Dense, CompressionConfig::LosslessDelta] {
        let result = FederatedRun::new(quick().with_compression(compression), 31)
            .with_behavior(0, ParticipantBehavior::CorruptAt { round: 1 })
            .run(Method::Flux);
        assert_eq!(result.rounds.len(), 3);
        let faulty = &result.rounds[1].faults;
        assert_eq!(faulty.rejected, vec![0], "the damaged upload is rejected");
        assert_eq!(
            faulty.dropped,
            vec![0],
            "with no retry budget the participant misses the round"
        );
        assert!(result.rounds[0].faults.is_clean());
        assert!(result.rounds[2].faults.is_clean());
        assert!(result.final_score.is_finite());
    }
}

#[test]
fn transient_corruption_recovers_with_a_retry() {
    // The retried upload leaves the clean aggregate (the table's row); the
    // ledger shows the rejected attempt and the retry that landed.
    let faulty = &check(Group::RetriedCorruption)[0].rounds[1].faults;
    assert_eq!(faulty.rejected, vec![0]);
    assert_eq!(faulty.retried, vec![0], "the second attempt lands");
    assert!(faulty.dropped.is_empty());
}

#[test]
fn stalled_upload_drops_without_retry_and_lands_with_one() {
    let no_retry = FederatedRun::new(quick(), 33)
        .with_behavior(2, ParticipantBehavior::StallAt { round: 0 })
        .run(Method::Flux);
    assert_eq!(no_retry.rounds[0].faults.dropped, vec![2]);
    // With one retry the stall recovers the clean aggregate (the table's
    // row) and the ledger shows the retry.
    let with_retry = &check(Group::RetriedStall)[0].rounds[0].faults;
    assert_eq!(with_retry.retried, vec![2]);
    assert!(with_retry.dropped.is_empty());
}

#[test]
fn crash_excludes_exactly_one_round() {
    let result = FederatedRun::new(quick(), 34)
        .with_behavior(1, ParticipantBehavior::CrashAt { round: 1 })
        .run(Method::Flux);
    assert!(result.rounds[0].faults.is_clean());
    assert_eq!(result.rounds[1].faults.dropped, vec![1]);
    assert!(result.rounds[1].faults.rejected.is_empty());
    assert!(
        result.rounds[2].faults.is_clean(),
        "a crashed participant returns healthy next round"
    );
}

#[test]
fn quorum_finalizes_rounds_on_the_earliest_arrivals() {
    let result = FederatedRun::new(
        quick().with_fault_tolerance(FaultToleranceConfig::default().with_quorum(0.5)),
        35,
    )
    .run(Method::Flux);
    for record in &result.rounds {
        assert_eq!(
            record.faults.dropped.len(),
            2,
            "quorum 0.5 of 4 keeps the 2 earliest arrivals (round {})",
            record.round
        );
    }
    assert!(result.final_score.is_finite());
}

#[test]
fn fault_plan_runs_are_deterministic_across_schedules() {
    // Identical seeds draw identical faults across thread counts and both
    // schedules: the ledger is part of every trace the table compares.
    check(Group::FaultPlan);
    let faulty = reference(Config::Faulty, Method::Flux, ExecutionMode::Pipelined);
    assert!(
        faulty.rounds.iter().any(|r| !r.faults.is_clean()),
        "the plan's rates must actually fire at these seeds"
    );
}

#[test]
fn mid_round_recovery_under_faults_is_bit_identical() {
    check(Group::FaultyKill);
}
