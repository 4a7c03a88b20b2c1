//! Cross-crate integration tests of the full federated pipeline,
//! including straggler and mid-run dropout scenarios. That a rerun, a
//! straggler and a dropout's schedule change no bit is the `Rerun`,
//! `Straggler`, `Dropout` and `StragglerUnderDropout` groups of the
//! equivalence table (`tests/common/mod.rs`).

mod common;

use flux_core::driver::{ExecutionMode, FederatedRun, Method};
use flux_data::DatasetKind;

use common::{check, quick, quick_on, reference, Config, Group};

#[test]
fn flux_end_to_end_produces_monotone_clock_and_scores() {
    let result = FederatedRun::new(quick(), 101).run(Method::Flux);
    assert_eq!(result.rounds.len(), 3);
    // The simulated clock must advance strictly.
    for pair in result.rounds.windows(2) {
        assert!(pair[1].elapsed_hours > pair[0].elapsed_hours);
    }
    // Every phase total is non-negative and fine-tuning dominates.
    let (p, m, a, f) = result.phase_times.fractions();
    assert!(p >= 0.0 && m >= 0.0 && a >= 0.0);
    assert!(
        f > 0.5,
        "fine-tuning should dominate the breakdown, got {f}"
    );
}

#[test]
fn flux_round_time_beats_fmd_and_fmq() {
    let run = FederatedRun::new(quick_on(DatasetKind::Piqa), 102);
    let flux: f64 = run
        .run(Method::Flux)
        .rounds
        .iter()
        .map(|r| r.round_seconds)
        .sum();
    let fmd: f64 = run
        .run(Method::Fmd)
        .rounds
        .iter()
        .map(|r| r.round_seconds)
        .sum();
    let fmq: f64 = run
        .run(Method::Fmq)
        .rounds
        .iter()
        .map(|r| r.round_seconds)
        .sum();
    assert!(
        flux < fmd,
        "Flux {flux} should be faster per round than FMD {fmd}"
    );
    assert!(
        flux < fmq,
        "Flux {flux} should be faster per round than FMQ {fmq}"
    );
}

#[test]
fn generation_and_classification_datasets_both_run() {
    for dataset in [DatasetKind::Dolly, DatasetKind::Mmlu] {
        let result = FederatedRun::new(quick_on(dataset), 103).run(Method::Flux);
        assert_eq!(result.rounds.len(), 3);
        assert!(result.final_score >= 0.0 && result.final_score <= 1.2);
    }
}

#[test]
fn runs_are_reproducible_across_invocations() {
    check(Group::Rerun);
}

#[test]
fn different_seeds_change_the_run() {
    let a = FederatedRun::new(quick(), 1).run(Method::Flux);
    let b = FederatedRun::new(quick(), 2).run(Method::Flux);
    let same = a
        .rounds
        .iter()
        .zip(b.rounds.iter())
        .filter(|(x, y)| x.score == y.score)
        .count();
    assert!(same < a.rounds.len(), "different seeds should diverge");
}

#[test]
fn straggler_changes_arrival_order_but_not_results() {
    // A participant whose local round returns late finishes last in the
    // fan-out: the run must neither deadlock nor change a single bit.
    check(Group::Straggler);
}

#[test]
fn dropout_participant_is_excluded_once_not_double_counted() {
    // Participant 2 drops out from round 1 on: the pipelined and barriered
    // schedules must agree exactly on how its absence is handled, so
    // neither can be dropping it twice or keeping a stale copy.
    check(Group::Dropout);
    // The dropout must actually bite: before the dropout round the run is
    // identical to a healthy one, afterwards its weight leaves the
    // aggregate.
    let run = |config| reference(config, Method::Flux, ExecutionMode::Pipelined);
    let (healthy, dropout) = (run(Config::Quick), run(Config::Dropout));
    assert_eq!(healthy.rounds[0], dropout.rounds[0]);
    assert_ne!(
        healthy.rounds[1].tokens_trained,
        dropout.rounds[1].tokens_trained
    );
    assert_ne!(
        healthy.param_checksum, dropout.param_checksum,
        "dropping a participant must change the aggregate"
    );
}

#[test]
fn straggler_and_dropout_combined_complete_under_pipeline() {
    // Worst case both at once, threaded: a late participant plus a dropout
    // in the final round, whose aggregation the pipeline cannot hide, must
    // still terminate with a full set of records, the same under both
    // schedules.
    check(Group::StragglerUnderDropout);
}

#[test]
fn more_participants_do_not_slow_down_rounds() {
    // With the same total dataset, more participants means less local data
    // each, so the critical-path round time must not grow.
    let few = FederatedRun::new(quick().with_participants(2), 7).run(Method::Flux);
    let many = FederatedRun::new(quick().with_participants(8), 7).run(Method::Flux);
    let mean = |r: &flux_core::driver::RunResult| {
        r.rounds.iter().map(|x| x.round_seconds).sum::<f64>() / r.rounds.len() as f64
    };
    assert!(mean(&many) <= mean(&few) * 1.2);
}
