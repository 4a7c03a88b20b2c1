//! The concurrent-run scheduler: many federated jobs, each owning its
//! global model's store, execute on one worker pool, and whatever it
//! interleaves — round-robin or concurrent rounds, staggered arrivals,
//! mixed methods and datasets, straggling co-tenants — every job's trace
//! equals running it alone. The interleavings and the hand-driven `poll`
//! loop are the `Interleaved` and `Poll` groups of the equivalence table
//! (`tests/common/mod.rs`); this suite adds what only the scheduler has:
//! the most heterogeneous job mix, and the ticks jobs start and finish at.

mod common;

use flux_core::driver::{ExecutionMode, Method};
use flux_core::scheduler::{JobSpec, SchedulePolicy, Scheduler};
use flux_fl::ParticipantBehavior;
use threadpool::ThreadPool;

use common::{check, reference, trace_of, Config, Group};

#[test]
fn interleaved_runs_match_solo_traces_across_threads_and_policies() {
    check(Group::Interleaved);
}

#[test]
fn mixed_workloads_share_the_server_without_interference() {
    // Four jobs, four methods, two datasets, one of them barriered — the
    // most heterogeneous schedule the driver supports — on one pool.
    let jobs = [
        (Config::Quick, Method::Flux, ExecutionMode::Pipelined),
        (Config::Piqa, Method::Fmd, ExecutionMode::Pipelined),
        (Config::Quick, Method::Fmq, ExecutionMode::Barriered),
        (Config::Piqa, Method::Fmes, ExecutionMode::Pipelined),
    ];
    let scheduler = Scheduler::on_pool(ThreadPool::from_env(), SchedulePolicy::Concurrent);
    let specs = jobs
        .iter()
        .map(|&(config, method, mode)| {
            JobSpec::new(method.label(), config.run().with_mode(mode), method)
        })
        .collect();
    let results = scheduler.run_all(specs);
    for (scheduled, (config, method, mode)) in results.iter().zip(jobs) {
        assert_eq!(
            trace_of(&scheduled.result),
            reference(config, method, mode),
            "job {} diverged under the mixed-workload schedule",
            scheduled.name
        );
    }
}

#[test]
fn staggered_arrivals_and_stragglers_preserve_traces() {
    // Job B arrives two ticks late and carries a straggler and a dropout;
    // job A is healthy. Neither job's trace may depend on the other's
    // presence or on the wall-clock perturbations.
    let late = Config::Dropout
        .run()
        .with_behavior(1, ParticipantBehavior::Straggler { delay_ms: 15 });
    let scheduler = Scheduler::on_pool(ThreadPool::from_env(), SchedulePolicy::Concurrent);
    let results = scheduler.run_all(vec![
        JobSpec::new("healthy", Config::Quick.run(), Method::Flux),
        JobSpec::new("faulty-late", late, Method::Flux).with_arrival(2),
    ]);
    let solo = |config| reference(config, Method::Flux, ExecutionMode::Pipelined);
    assert_eq!(trace_of(&results[0].result), solo(Config::Quick));
    assert_eq!(trace_of(&results[1].result), solo(Config::Dropout));
    assert_eq!(results[1].started_tick, 2);
    assert!(results[1].finished_tick > results[0].finished_tick);
}

#[test]
fn state_machine_poll_sequence_matches_run() {
    check(Group::Poll);
}
