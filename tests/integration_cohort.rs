//! Golden traces for sampled-cohort rounds and hierarchical aggregation.
//!
//! The invariants: a run that registers N clients and samples K per round
//! produces per-round losses, scores, clocks and final weights that are
//! **bit-identical** across thread counts, both execution schedules,
//! shuffled arrival orders and a mid-round checkpoint/restore; routing the
//! same run through edge aggregators of any width changes nothing; fault
//! draws key off stable client ids, so injected faults hit the same
//! clients no matter how the round executes; and a 10,000-client registry
//! completes with only the sampled cohort materialized. The equivalences
//! are the `Sampled`, `SampledTree`, `SampledTreeKill` and `SampledFaults`
//! groups of the equivalence table (`tests/common/mod.rs`).

mod common;

use flux_core::driver::{ExecutionMode, FederatedRun, Method};

use common::{check, pool, quick, reference, sampled, Config, Group, TempDir};

#[test]
fn sampled_runs_are_pinned_across_threads_schedules_and_arrivals() {
    check(Group::Sampled);
}

/// Edge aggregators pre-reduce structurally, so any tree width yields the
/// flat result bit-for-bit — for sampled cohorts under both schedules.
#[test]
fn tree_aggregation_matches_flat_for_sampled_runs() {
    check(Group::SampledTree);
}

/// Every round dispatches exactly the sampler's cohort: K materialized
/// participants, stable ids, identical across separately started runs.
#[test]
fn cohorts_are_deterministic_and_materialize_k_of_n() {
    let pool = pool(None);
    let run = FederatedRun::new(sampled(), 33);
    let mut active = run.start(Method::Flux);
    assert_eq!(active.registered_clients(), 12);
    assert_eq!(active.active_participants(), 0, "no cohort before round 0");
    let twin = run.start(Method::Flux);
    for round in 0..3 {
        let cohort = active.cohort_of(round);
        assert_eq!(cohort.len(), 4);
        assert!(cohort.windows(2).all(|w| w[0] < w[1]), "sorted stable ids");
        assert!(cohort.iter().all(|&id| id < 12));
        assert_eq!(
            cohort,
            twin.cohort_of(round),
            "cohort differs across starts"
        );
        active.step_round(&pool);
        assert_eq!(
            active.active_participants(),
            4,
            "round {round} kept O(K) state"
        );
    }
}

/// A sampled + tree-aggregated run killed mid-round (fan-out done, reduce
/// pending) restores from its durable checkpoint and replays the rest of
/// the schedule bit-identically, re-deriving the interrupted round's
/// cohort from the seed.
#[test]
fn mid_round_kill_of_a_sampled_tree_run_replays_bit_identically() {
    check(Group::SampledTreeKill);
}

/// Resuming a sampled run under a different cohort size or tree shape is
/// refused: both are part of the checkpoint fingerprint.
#[test]
fn restore_rejects_mismatched_cohort_configuration() {
    let pool = pool(None);
    let dir = TempDir::new("fingerprint");
    let run = FederatedRun::new(sampled().with_aggregation_edges(2), 35);
    let mut active = run.start(Method::Flux);
    active.step_round(&pool);
    active.checkpoint(&dir).expect("checkpoint succeeds");
    let wrong_k = FederatedRun::new(sampled().with_participants(12).with_cohort(5), 35);
    assert!(
        wrong_k.restore(Method::Flux, &dir).is_err(),
        "a different cohort size must not resume this checkpoint"
    );
    let wrong_edges = FederatedRun::new(sampled().with_aggregation_edges(4), 35);
    assert!(
        wrong_edges.restore(Method::Flux, &dir).is_err(),
        "a different tree width must not resume this checkpoint"
    );
}

/// Fault draws are pure in the **stable client id**, so under sampling the
/// same clients fault no matter the thread count or schedule (the table's
/// rows), and every faulted id is a member of that round's cohort.
#[test]
fn fault_injection_under_sampling_keys_off_stable_client_ids() {
    let reference = reference(
        Config::SampledFaulty,
        Method::Flux,
        ExecutionMode::Pipelined,
    );
    assert!(
        reference
            .rounds
            .iter()
            .any(|r| !r.faults.dropped.is_empty()),
        "the plan must actually drop someone for this test to bite"
    );
    // Dropped ids are stable client ids drawn from the round's cohort.
    let probe = Config::SampledFaulty.run().start(Method::Flux);
    for (round, record) in reference.rounds.iter().enumerate() {
        let cohort = probe.cohort_of(round);
        for id in &record.faults.dropped {
            assert!(
                cohort.contains(id),
                "round {round} dropped non-cohort id {id}"
            );
        }
    }
    check(Group::SampledFaults);
}

/// The scale target: 10,000 registered clients, 4 sampled per round. The
/// registry holds lightweight specs only; per-round heavy state stays
/// O(K), and the run completes.
#[test]
fn ten_thousand_registered_clients_run_with_cohort_sized_state() {
    let pool = pool(None);
    let config = quick()
        .with_participants(10_000)
        .with_cohort(4)
        .with_rounds(2);
    let mut active = FederatedRun::new(config, 37).start(Method::Flux);
    assert_eq!(active.registered_clients(), 10_000);
    while !active.is_done() {
        active.step_round(&pool);
        assert_eq!(
            active.active_participants(),
            4,
            "only the sampled cohort may be materialized"
        );
    }
    let result = active.finish();
    assert_eq!(result.rounds.len(), 2);
    assert!(result.final_model.param_checksum() != 0);
}
