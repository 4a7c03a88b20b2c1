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
use flux_core::driver::{ExecutionMode, FederatedRun, Method, RoundRecord};
use flux_fl::{CompressionConfig, FaultPlan, FaultToleranceConfig, ParticipantBehavior};
use threadpool::ThreadPool;

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

/// A round nobody's upload reached: nothing trained, counted or shipped.
fn assert_empty_round(record: &RoundRecord) {
    assert_eq!(record.train_loss, 0.0, "round {}", record.round);
    assert_eq!(record.tokens_trained, 0, "round {}", record.round);
    assert_eq!(record.upload_bytes_dense, 0, "round {}", record.round);
    assert!(record.score.is_finite(), "round {}", record.round);
}

#[test]
fn a_round_with_no_upload_stages_nothing_and_the_run_finishes() {
    // An empty cohort reaches the delivery layer like any other: its
    // quorum is zero, nothing stages, and the round installs nothing.
    assert_eq!(FaultToleranceConfig::default().quorum_count(0), 0);
    let config = quick();
    let pool = ThreadPool::new(2);

    // Every cohort member drops out from round 1 on: rounds 1 and 2 run
    // with an empty cohort and leave round 0's model as it was.
    let everyone_drops = (0..config.num_participants)
        .fold(FederatedRun::new(config.clone(), 36), |run, pid| {
            run.with_behavior(pid, ParticipantBehavior::DropoutAt { round: 1 })
        });
    for mode in [ExecutionMode::Pipelined, ExecutionMode::Barriered] {
        let mut active = everyone_drops.clone().with_mode(mode).start(Method::Flux);
        let initial = active.store().snapshot().param_checksum();
        active.step_round(&pool);
        let after_round_0 = active.store().snapshot().param_checksum();
        assert_ne!(after_round_0, initial, "{mode:?}: round 0 trains");
        while !active.is_done() {
            active.step_round(&pool);
            assert_eq!(
                active.store().snapshot().param_checksum(),
                after_round_0,
                "{mode:?}: an empty round changes no parameter"
            );
        }
        let result = active.finish();
        assert_eq!(result.rounds.len(), 3);
        assert!(result.rounds[0].train_loss > 0.0);
        for record in &result.rounds[1..] {
            assert_empty_round(record);
            assert!(record.faults.is_clean(), "a dropout is not a fault");
        }
    }

    // Every upload crashes in every round: the cohort ran, nothing landed,
    // and the final model is the initial one.
    let crash_all = quick().with_fault_plan(FaultPlan::new(7).with_crashes(1.0));
    let run = FederatedRun::new(crash_all, 37);
    let initial = run.start(Method::Flux).store().snapshot().param_checksum();
    let result = run.run(Method::Flux);
    assert_eq!(result.rounds.len(), 3);
    let everyone: Vec<usize> = (0..config.num_participants).collect();
    for record in &result.rounds {
        assert_empty_round(record);
        assert_eq!(record.faults.dropped, everyone, "round {}", record.round);
    }
    assert_eq!(result.final_model.param_checksum(), initial);
}
