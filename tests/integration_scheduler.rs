//! Golden-trace determinism suite for the concurrent-run scheduler.
//!
//! Many independent federated jobs execute against one multi-tenant
//! parameter server and one worker pool. Whatever the scheduler interleaves
//! — round-robin or fully concurrent rounds, staggered arrivals, mixed
//! methods and datasets, per-run straggler profiles — every job's per-round
//! losses, scores, and final weight checksum must be **bit-identical** to
//! running that job alone, at every thread count. The CI determinism legs
//! re-run this suite under `FLUX_THREADS` 1, 4 and 8.

use flux_core::driver::{ExecutionMode, FederatedRun, Method, RunConfig, RunResult};
use flux_core::scheduler::{JobSpec, SchedulePolicy, Scheduler};
use flux_data::DatasetKind;
use flux_fl::ParameterServer;
use flux_moe::MoeConfig;
use threadpool::ThreadPool;

fn quick(dataset: DatasetKind) -> RunConfig {
    RunConfig::quick_demo(MoeConfig::tiny(), dataset)
}

/// The golden trace of one run: (train_loss, score) per round plus the
/// final weight checksum.
#[derive(Debug, Clone, PartialEq)]
struct Trace {
    rounds: Vec<(f32, f32)>,
    checksum: u64,
}

fn trace_of(result: &RunResult) -> Trace {
    Trace {
        rounds: result
            .rounds
            .iter()
            .map(|r| (r.train_loss, r.score))
            .collect(),
        checksum: result.final_model.param_checksum(),
    }
}

/// The two standard jobs of the multi-run scenarios: different seeds,
/// different data partitions, same quick-demo scale.
fn two_jobs() -> Vec<JobSpec> {
    vec![
        JobSpec::new(
            "flux-a",
            FederatedRun::new(quick(DatasetKind::Gsm8k), 501),
            Method::Flux,
        ),
        JobSpec::new(
            "flux-b",
            FederatedRun::new(quick(DatasetKind::Gsm8k), 502),
            Method::Flux,
        ),
    ]
}

#[test]
fn interleaved_runs_match_solo_traces_across_threads_and_policies() {
    // Solo references, fully sequential.
    let solo: Vec<Trace> = [501u64, 502]
        .iter()
        .map(|&seed| {
            trace_of(
                &FederatedRun::new(quick(DatasetKind::Gsm8k), seed)
                    .with_threads(1)
                    .run(Method::Flux),
            )
        })
        .collect();

    for threads in [1usize, 4, 8] {
        for policy in [SchedulePolicy::RoundRobin, SchedulePolicy::Concurrent] {
            let scheduler = Scheduler::on_pool(ThreadPool::new(threads), policy);
            let results = scheduler.run_all(two_jobs());
            for (scheduled, reference) in results.iter().zip(&solo) {
                assert_eq!(
                    &trace_of(&scheduled.result),
                    reference,
                    "job {} diverged from its solo trace ({policy:?}, {threads} threads)",
                    scheduled.name
                );
            }
        }
    }
}

#[test]
fn mixed_workloads_share_the_server_without_interference() {
    // Four jobs, four methods, two datasets, one of them barriered —
    // the most heterogeneous schedule the driver supports.
    let specs = || {
        vec![
            JobSpec::new(
                "flux",
                FederatedRun::new(quick(DatasetKind::Gsm8k), 601),
                Method::Flux,
            ),
            JobSpec::new(
                "fmd",
                FederatedRun::new(quick(DatasetKind::Piqa), 602),
                Method::Fmd,
            ),
            JobSpec::new(
                "fmq-barriered",
                FederatedRun::new(quick(DatasetKind::Gsm8k), 603)
                    .with_mode(ExecutionMode::Barriered),
                Method::Fmq,
            ),
            JobSpec::new(
                "fmes",
                FederatedRun::new(quick(DatasetKind::Piqa), 604),
                Method::Fmes,
            ),
        ]
    };
    let solo: Vec<Trace> = specs()
        .into_iter()
        .map(|spec| trace_of(&spec.run.run(spec.method)))
        .collect();

    let server = ParameterServer::empty();
    let scheduler = Scheduler::on_pool(ThreadPool::from_env(), SchedulePolicy::Concurrent);
    let results = scheduler.run_all_on(&server, specs());
    // Every finished job deregistered its tenant from the shared server.
    assert_eq!(server.num_tenants(), 0);
    for (scheduled, reference) in results.iter().zip(&solo) {
        assert_eq!(
            &trace_of(&scheduled.result),
            reference,
            "job {} diverged under the mixed-workload schedule",
            scheduled.name
        );
    }
}

#[test]
fn staggered_arrivals_and_stragglers_preserve_traces() {
    // Job B arrives two ticks late and carries a straggler + a dropout;
    // job A is healthy. Neither job's trace may depend on the other's
    // presence or on the wall-clock perturbations.
    let job_a = || FederatedRun::new(quick(DatasetKind::Gsm8k), 701);
    let job_b = || {
        FederatedRun::new(quick(DatasetKind::Gsm8k), 702)
            .with_behavior(1, flux_fl::ParticipantBehavior::Straggler { delay_ms: 15 })
            .with_behavior(2, flux_fl::ParticipantBehavior::DropoutAt { round: 1 })
    };
    let solo_a = trace_of(&job_a().run(Method::Flux));
    let solo_b = trace_of(&job_b().run(Method::Flux));

    let scheduler = Scheduler::on_pool(ThreadPool::from_env(), SchedulePolicy::Concurrent);
    let results = scheduler.run_all(vec![
        JobSpec::new("healthy", job_a(), Method::Flux),
        JobSpec::new("faulty-late", job_b(), Method::Flux).with_arrival(2),
    ]);
    assert_eq!(trace_of(&results[0].result), solo_a);
    assert_eq!(trace_of(&results[1].result), solo_b);
    assert_eq!(results[1].started_tick, 2);
    assert!(results[1].finished_tick > results[0].finished_tick);
}

#[test]
fn state_machine_poll_sequence_matches_run() {
    // Drive the resumable state machine by hand through poll() and compare
    // against the one-shot loop.
    use flux_core::driver::RunPhase;
    let reference = FederatedRun::new(quick(DatasetKind::Gsm8k), 801).run(Method::Fmes);
    let pool = ThreadPool::from_env();
    let mut active = FederatedRun::new(quick(DatasetKind::Gsm8k), 801).start(Method::Fmes);
    let mut started = 0;
    loop {
        match active.poll() {
            RunPhase::ReadyToStart { round } => {
                assert_eq!(round, started);
                active.start_round(&pool);
                started += 1;
            }
            RunPhase::ReadyToFinish { round } => {
                assert_eq!(round + 1, started);
                active.finish_round(&pool);
            }
            RunPhase::Done => break,
        }
    }
    assert_eq!(started, 3);
    let result = active.finish();
    assert_eq!(result.rounds, reference.rounds);
    assert_eq!(
        result.final_model.param_checksum(),
        reference.final_model.param_checksum()
    );
}
