//! The async round pipeline: the barriered fork-join schedule is the
//! reference semantics, and the pipelined schedule must reproduce it for
//! every thread count and arrival order — the `Threads`, `Arrivals` and
//! `Schedule` groups of the equivalence table (`tests/common/mod.rs`). The
//! two schedules differ only in the simulated timeline.

mod common;

use common::{check, reference, Config, Group};
use flux_core::driver::{ExecutionMode, Method};

#[test]
fn golden_trace_pipeline_is_bit_identical_across_threads() {
    check(Group::Threads);
}

#[test]
fn golden_trace_survives_shuffled_update_arrival_orders() {
    check(Group::Arrivals);
}

#[test]
fn golden_trace_holds_for_the_baseline_methods_too() {
    check(Group::Schedule);
}

#[test]
fn pipeline_hides_non_final_aggregation_latency_in_simulated_time() {
    // The schedules agree on losses/scores/weights but not on the
    // timeline: the pipeline's simulated clock hides the server tail of
    // every round but the last behind the next dispatch.
    let end = |mode| {
        let trace = reference(Config::Quick, Method::Flux, mode);
        trace.rounds.last().expect("three rounds").elapsed_hours
    };
    let (b_end, p_end) = (end(ExecutionMode::Barriered), end(ExecutionMode::Pipelined));
    assert!(
        p_end < b_end,
        "pipelined timeline {p_end} h must undercut barriered {b_end} h"
    );
}
