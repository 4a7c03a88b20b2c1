//! Concurrent-run scheduler: many federated jobs, one pool.
//!
//! The [`Scheduler`] serves many simultaneous fine-tuning jobs from one
//! process. It owns a set of [`RunHandle`]s — each an independent
//! [`FederatedRun`] with its own method, dataset partition, participant
//! fleet, execution mode, simulated clock, per-run straggler/dropout
//! behaviors and global-model store — and multiplexes their rounds onto
//! one shared persistent worker pool through the driver's resumable state
//! machine ([`ActiveRun::start_round`] / [`ActiveRun::finish_round`])
//! instead of blocking inside any single run's loop.
//!
//! Jobs may arrive staggered ([`JobSpec::with_arrival`]): a job joins the
//! schedule at its arrival tick while earlier jobs are mid-flight.
//!
//! Per-run knobs ride the [`FederatedRun`]'s `RunConfig` — including the
//! upload-compression mode, link profile, per-round cohort sampling
//! (`RunConfig::with_cohort`) and aggregation-tree width
//! (`RunConfig::with_aggregation_edges`) — so a scheduled job compresses,
//! prices communication, and samples its cohorts exactly like its
//! standalone twin (`tests/integration_compression.rs` and the test below
//! pin this).
//!
//! # Determinism
//!
//! Every run's trace (per-round losses, scores, final weight checksum) is
//! **bit-identical to executing that run alone**, under both policies, for
//! every thread count and every interleaving: each run owns its RNG chain
//! and reduction order, its store shares no mutable state with other
//! runs, and the compute kernels are thread-count-invariant.
//! `tests/integration_scheduler.rs` pins this under `FLUX_THREADS` 1/4/8.

use std::path::PathBuf;

use threadpool::ThreadPool;

use crate::driver::{ActiveRun, FederatedRun, Method, RunResult};

/// How the scheduler lays concurrent runs onto the worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// One round of each runnable job per tick, executed serially in job
    /// order. Each round's *internal* fan-out still uses the full pool.
    /// The deterministic reference interleaving.
    RoundRobin,
    /// Every runnable job's round executes concurrently: one pool task per
    /// job per tick, each driving its round's fan-out inline on the worker
    /// it lands on. Job-level parallelism replaces participant-level
    /// parallelism — aggregation of different jobs overlaps, each into
    /// its own store.
    #[default]
    Concurrent,
}

/// Specification of one job handed to [`Scheduler::run_all`].
#[derive(Clone)]
pub struct JobSpec {
    /// Label carried through to the result (reports, benches).
    pub name: String,
    /// The run configuration (its own data partition, mode, behaviors).
    pub run: FederatedRun,
    /// Which method the job fine-tunes with.
    pub method: Method,
    /// Scheduler tick at which the job arrives (0 = present from the
    /// start). One tick ≈ one interleaved round slot.
    pub arrival_tick: usize,
    /// Resume the job from a durable checkpoint directory instead of
    /// starting it fresh.
    pub resume_from: Option<PathBuf>,
}

impl JobSpec {
    /// A job present from tick 0.
    pub fn new(name: impl Into<String>, run: FederatedRun, method: Method) -> Self {
        Self {
            name: name.into(),
            run,
            method,
            arrival_tick: 0,
            resume_from: None,
        }
    }

    /// Delays the job's arrival to `tick` (staggered-arrival scenarios).
    pub fn with_arrival(mut self, tick: usize) -> Self {
        self.arrival_tick = tick;
        self
    }

    /// Resumes the job from a checkpoint written by
    /// [`ActiveRun::checkpoint`] when it activates.
    pub fn with_resume(mut self, dir: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(dir.into());
        self
    }
}

/// One job's lifecycle inside the scheduler: waiting for its arrival tick,
/// active (stepping rounds through the resumable driver), then finished.
enum HandleState {
    Waiting(Box<FederatedRun>, Method),
    Active(Box<ActiveRun>),
    Finished(Box<RunResult>),
    /// Transient marker while ownership moves between states.
    Moving,
}

/// One scheduled job the [`Scheduler`] owns: its spec plus its resumable
/// run state.
pub struct RunHandle {
    name: String,
    arrival_tick: usize,
    started_tick: Option<usize>,
    finished_tick: Option<usize>,
    state: HandleState,
    resume_from: Option<PathBuf>,
}

impl RunHandle {
    fn new(spec: JobSpec) -> Self {
        Self {
            name: spec.name,
            arrival_tick: spec.arrival_tick,
            started_tick: None,
            finished_tick: None,
            state: HandleState::Waiting(Box::new(spec.run), spec.method),
            resume_from: spec.resume_from,
        }
    }

    /// Activates the job once its arrival tick is reached — fresh, or
    /// resumed from its checkpoint directory.
    ///
    /// # Panics
    ///
    /// Panics when a [`JobSpec::with_resume`] checkpoint fails to load: a
    /// job scripted to resume has no sensible fresh-start fallback.
    fn activate_if_arrived(&mut self, tick: usize) {
        if tick < self.arrival_tick {
            return;
        }
        if let HandleState::Waiting(..) = self.state {
            let HandleState::Waiting(run, method) =
                std::mem::replace(&mut self.state, HandleState::Moving)
            else {
                unreachable!("checked above")
            };
            self.started_tick = Some(tick);
            let active = match &self.resume_from {
                Some(dir) => run
                    .restore(method, dir)
                    .unwrap_or_else(|err| panic!("job {:?} failed to resume: {err}", self.name)),
                None => run.start(method),
            };
            self.state = HandleState::Active(Box::new(active));
        }
    }

    fn is_active(&self) -> bool {
        matches!(self.state, HandleState::Active(_))
    }

    fn is_finished(&self) -> bool {
        matches!(self.state, HandleState::Finished(_))
    }

    /// Advances an active job by one round; a job whose rounds are all
    /// executed drains its pipeline and finishes, dropping its store.
    fn tick(&mut self, tick: usize, pool: &ThreadPool) {
        let HandleState::Active(mut active) =
            std::mem::replace(&mut self.state, HandleState::Moving)
        else {
            unreachable!("tick is only called on active handles");
        };
        if !active.is_done() {
            active.step_round(pool);
        }
        if active.is_done() {
            self.finished_tick = Some(tick);
            self.state = HandleState::Finished(Box::new(active.finish()));
        } else {
            self.state = HandleState::Active(active);
        }
    }

    fn into_scheduled(self) -> ScheduledRun {
        let HandleState::Finished(result) = self.state else {
            unreachable!("run_all only returns finished handles")
        };
        let result = *result;
        ScheduledRun {
            name: self.name,
            arrival_tick: self.arrival_tick,
            started_tick: self.started_tick.unwrap_or(0),
            finished_tick: self.finished_tick.unwrap_or(0),
            result,
        }
    }
}

/// A completed job with its scheduling metadata.
pub struct ScheduledRun {
    /// The job's label.
    pub name: String,
    /// Tick the job was eligible from.
    pub arrival_tick: usize,
    /// Tick the job was started.
    pub started_tick: usize,
    /// Tick the job's last round (and pipeline drain) completed.
    pub finished_tick: usize,
    /// The run's full result — bit-identical to running the job alone.
    pub result: RunResult,
}

/// Multiplexes many federated runs onto one worker pool.
pub struct Scheduler {
    pool: ThreadPool,
    policy: SchedulePolicy,
}

impl Scheduler {
    /// A scheduler on an explicit pool.
    pub fn on_pool(pool: ThreadPool, policy: SchedulePolicy) -> Self {
        Self { pool, policy }
    }

    /// Runs every job to completion, interleaving rounds according to the
    /// policy. Results come back in job order.
    pub fn run_all(&self, jobs: Vec<JobSpec>) -> Vec<ScheduledRun> {
        let mut handles: Vec<RunHandle> = jobs.into_iter().map(RunHandle::new).collect();
        let mut tick = 0usize;
        while !handles.iter().all(RunHandle::is_finished) {
            for handle in handles.iter_mut() {
                handle.activate_if_arrived(tick);
            }
            match self.policy {
                SchedulePolicy::RoundRobin => {
                    for handle in handles.iter_mut().filter(|h| h.is_active()) {
                        handle.tick(tick, &self.pool);
                    }
                }
                SchedulePolicy::Concurrent => {
                    let pool = &self.pool;
                    pool.scope(|scope| {
                        for handle in handles.iter_mut().filter(|h| h.is_active()) {
                            scope.spawn(move || handle.tick(tick, pool));
                        }
                    });
                }
            }
            tick += 1;
        }
        handles.into_iter().map(RunHandle::into_scheduled).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::RunConfig;
    use flux_data::DatasetKind;
    use flux_moe::MoeConfig;

    fn quick(seed: u64) -> FederatedRun {
        FederatedRun::new(
            RunConfig::quick_demo(MoeConfig::tiny(), DatasetKind::Gsm8k),
            seed,
        )
    }

    #[test]
    fn round_robin_matches_solo_execution() {
        let solo = quick(7).run(Method::Fmes);
        let scheduler = Scheduler::on_pool(ThreadPool::new(1), SchedulePolicy::RoundRobin);
        let mut results = scheduler.run_all(vec![
            JobSpec::new("a", quick(7), Method::Fmes),
            JobSpec::new("b", quick(8), Method::Fmes),
        ]);
        let a = results.remove(0);
        assert_eq!(a.result.rounds, solo.rounds);
        assert_eq!(
            a.result.final_model.param_checksum(),
            solo.final_model.param_checksum()
        );
        // Both jobs ran 3 rounds, interleaved from tick 0.
        assert_eq!(a.started_tick, 0);
        assert_eq!(a.finished_tick, 2);
    }

    #[test]
    fn staggered_arrival_starts_late_and_still_matches_solo() {
        let solo = quick(9).run(Method::Fmes);
        let scheduler = Scheduler::on_pool(ThreadPool::new(2), SchedulePolicy::RoundRobin);
        let results = scheduler.run_all(vec![
            JobSpec::new("early", quick(10), Method::Fmes),
            JobSpec::new("late", quick(9), Method::Fmes).with_arrival(2),
        ]);
        let late = &results[1];
        assert_eq!(late.started_tick, 2);
        assert!(late.finished_tick >= late.started_tick + 2);
        assert_eq!(late.result.rounds, solo.rounds);
    }

    #[test]
    fn concurrent_policy_runs_every_job_to_completion() {
        let scheduler = Scheduler::on_pool(ThreadPool::new(4), SchedulePolicy::Concurrent);
        let results = scheduler.run_all(vec![
            JobSpec::new("a", quick(11), Method::Fmes),
            JobSpec::new("b", quick(12), Method::Fmd),
        ]);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].name, "a");
        assert_eq!(results[1].result.method, Method::Fmd);
        assert!(results.iter().all(|r| r.result.rounds.len() == 3));
    }

    #[test]
    fn sampled_cohort_jobs_match_their_standalone_twin() {
        // A job registering 10 clients and sampling 3 per round, reduced
        // through 2 edge aggregators, scheduled next to an ordinary job on
        // one pool: trace bit-identical to running it alone.
        let sampled = |seed| {
            FederatedRun::new(
                RunConfig::quick_demo(MoeConfig::tiny(), DatasetKind::Gsm8k)
                    .with_participants(10)
                    .with_cohort(3)
                    .with_aggregation_edges(2),
                seed,
            )
        };
        let solo = sampled(13).run(Method::Flux);
        let scheduler = Scheduler::on_pool(ThreadPool::new(2), SchedulePolicy::Concurrent);
        let results = scheduler.run_all(vec![
            JobSpec::new("sampled", sampled(13), Method::Flux),
            JobSpec::new("full", quick(14), Method::Fmes),
        ]);
        assert_eq!(results[0].result.rounds, solo.rounds);
        assert_eq!(
            results[0].result.final_model.param_checksum(),
            solo.final_model.param_checksum()
        );
    }

    #[test]
    fn empty_job_list_returns_immediately() {
        let scheduler = Scheduler::on_pool(ThreadPool::new(1), SchedulePolicy::RoundRobin);
        assert!(scheduler.run_all(Vec::new()).is_empty());
    }
}
