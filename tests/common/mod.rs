//! The equivalence contract, written once.
//!
//! A run's bits do not depend on thread count, schedule, arrival order,
//! wire encoding, aggregation-tree shape, cohort path, kill point,
//! co-tenants, straggling, a retried fault or polling. This module is that
//! contract: one [`Trace`] and its two projections, one set of builders,
//! one scratch directory guard, one kill/restore helper, and one
//! [`table`] of rows — each a method, a config and a variant of how the
//! run executes — that must reproduce their config's single-threaded
//! reference.
//!
//! Each row belongs to a [`Group`], the test that runs it through
//! [`check`]; that test lives in the suite of the subsystem it exercises.
//! The [`Axis`] values a row covers follow from what it runs, and
//! `tests/equivalence.rs` fails when an axis has no row. A reference is
//! computed once per test binary and shared by every row (and every test)
//! that compares against it.
//!
//! `FLUX_SIMD` is the one axis no row can vary: the kernel level is
//! process-global. CI sweeps it over the test binaries instead; the
//! [`Axis::Simd`] rows are plain reruns, so that sweep has rows of its own.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use threadpool::ThreadPool;

use flux_core::driver::{
    ExecutionMode, FederatedRun, Method, RoundFaults, RunConfig, RunPhase, RunResult,
};
use flux_core::scheduler::{JobSpec, SchedulePolicy, Scheduler};
use flux_data::DatasetKind;
use flux_fl::snapshot::{referenced_files, MANIFEST_FILE};
use flux_fl::{
    CompressionConfig, FaultPlan, FaultToleranceConfig, ParticipantBehavior, RoundCostBreakdown,
};
use flux_moe::MoeConfig;
use flux_quant::BitWidth;

/// The seed every table row runs at.
pub const SEED: u64 = 404;

/// The quick demo: tiny model, four participants, three rounds.
pub fn quick_on(dataset: DatasetKind) -> RunConfig {
    RunConfig::quick_demo(MoeConfig::tiny(), dataset)
}

/// The quick demo on GSM8K.
pub fn quick() -> RunConfig {
    quick_on(DatasetKind::Gsm8k)
}

/// 12 registered clients, 4 sampled per round: every round's cohort is a
/// strict subset.
pub fn sampled() -> RunConfig {
    quick().with_participants(12).with_cohort(4)
}

/// A scratch directory unique to this call, removed when dropped — also
/// when the test holding it fails.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "flux_{tag}_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One round of a [`Trace`]. Floats are kept as bits, so `-0.0 != 0.0`.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTrace {
    pub loss_bits: u32,
    pub score_bits: u32,
    pub tokens_trained: usize,
    pub upload_bytes_dense: usize,
    pub upload_bytes_encoded: usize,
    pub faults: RoundFaults,
    pub breakdown: RoundCostBreakdown,
    pub elapsed_hours: f64,
}

/// What a run produced: every round's record plus the final weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    pub rounds: Vec<RoundTrace>,
    pub param_checksum: u64,
}

impl Trace {
    /// Everything but the simulated clock: the pipelined schedule hides
    /// the aggregation tail of every round but the last.
    pub fn schedule_invariant(&self) -> Trace {
        let mut trace = self.clone();
        for round in &mut trace.rounds {
            round.elapsed_hours = 0.0;
        }
        trace
    }

    /// The schedule-invariant part without the encoded bytes and the
    /// communication term: `encode_upload` prices communication from the
    /// real payload bytes, so a lossless run keeps the dense run's weights
    /// on a different clock by design.
    pub fn wire_invariant(&self) -> Trace {
        let mut trace = self.schedule_invariant();
        for round in &mut trace.rounds {
            round.upload_bytes_encoded = 0;
            round.breakdown.communication_s = 0.0;
        }
        trace
    }
}

pub fn trace_of(result: &RunResult) -> Trace {
    Trace {
        rounds: result
            .rounds
            .iter()
            .map(|r| RoundTrace {
                loss_bits: r.train_loss.to_bits(),
                score_bits: r.score.to_bits(),
                tokens_trained: r.tokens_trained,
                upload_bytes_dense: r.upload_bytes_dense,
                upload_bytes_encoded: r.upload_bytes_compressed,
                faults: r.faults.clone(),
                breakdown: r.breakdown,
                elapsed_hours: r.elapsed_hours,
            })
            .collect(),
        param_checksum: result.final_model.param_checksum(),
    }
}

/// A pool of `threads` workers, or sized from `FLUX_THREADS`.
pub fn pool(threads: Option<usize>) -> ThreadPool {
    threads.map_or_else(ThreadPool::from_env, ThreadPool::new)
}

/// Where a run is killed: after round `k` completed, inside round `k`
/// (fan-out done, reduction not), or inside the checkpoint that follows
/// round `k` — at every state that kill can leave on disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kill {
    Boundary(usize),
    MidRound(usize),
    InsideCheckpoint(usize),
}

/// Starts `run`, advances it to `kill` (a boundary or mid-round kill) and
/// checkpoints into `dir`; the live run is then dropped, as by a crash.
pub fn checkpoint_at(
    run: &FederatedRun,
    method: Method,
    kill: Kill,
    dir: &Path,
    pool: &ThreadPool,
) {
    let mut active = run.start(method);
    let (round, mid_round) = match kill {
        Kill::Boundary(round) => (round, false),
        Kill::MidRound(round) => (round, true),
        Kill::InsideCheckpoint(_) => panic!("a kill inside a checkpoint has many states"),
    };
    for _ in 0..round {
        active.step_round(pool);
    }
    if mid_round {
        active.start_round(pool);
        assert_eq!(active.poll(), RunPhase::ReadyToFinish { round });
    }
    active.checkpoint(dir).expect("checkpoint succeeds");
}

/// Runs `method` killed at `kill`, restores from the checkpoint and runs to
/// the end: one labelled result per directory the kill can leave.
pub fn killed(
    run: &FederatedRun,
    method: Method,
    kill: Kill,
    pool: &ThreadPool,
) -> Vec<(String, RunResult)> {
    let round = match kill {
        Kill::Boundary(round) | Kill::MidRound(round) => {
            let dir = TempDir::new("kill");
            checkpoint_at(run, method, kill, &dir, pool);
            let mut restored = run.restore(method, &dir).expect("checkpoint restores");
            assert_eq!(
                restored.poll(),
                RunPhase::ReadyToStart { round },
                "a restored run re-enters the interrupted round"
            );
            while !restored.is_done() {
                restored.step_round(pool);
            }
            return vec![(format!("{kill:?}"), restored.finish())];
        }
        Kill::InsideCheckpoint(round) => round,
    };
    torn_checkpoint_states(run, method, round, pool)
        .into_iter()
        .map(|(what, files, resume_round)| {
            let scratch = TempDir::new("torn_state");
            write_dir(&scratch, &files);
            let mut restored = match run.restore(method, &scratch) {
                Ok(restored) => restored,
                Err(err) => panic!("{what}: {err}"),
            };
            if resume_round < run.config().rounds {
                let resumes = RunPhase::ReadyToStart {
                    round: resume_round,
                };
                assert_eq!(restored.poll(), resumes, "{what}");
            }
            // Checkpointing on: the torn slots are overwritten by the
            // writer they were left for.
            while !restored.is_done() {
                restored.step_round(pool);
                restored.checkpoint(&scratch).expect("checkpoint succeeds");
            }
            (what, restored.finish())
        })
        .collect()
}

/// Every file of a checkpoint directory, by name.
pub type Files = std::collections::BTreeMap<String, Vec<u8>>;

pub fn read_dir(dir: &Path) -> Files {
    std::fs::read_dir(dir)
        .expect("the checkpoint directory exists")
        .map(|entry| {
            let entry = entry.expect("directory entry");
            let name = entry.file_name().into_string().expect("ASCII file names");
            (name, std::fs::read(entry.path()).expect("readable file"))
        })
        .collect()
}

fn write_dir(dir: &Path, files: &Files) {
    std::fs::create_dir_all(dir).expect("scratch directory");
    for (name, data) in files {
        std::fs::write(dir.join(name), data).expect("writable scratch file");
    }
}

/// The shard and head files the manifest of `dir` references.
fn live_slot_files(dir: &Path) -> Vec<String> {
    let live = referenced_files(dir).expect("committed manifest");
    let mut names = live.shards;
    names.push(live.head);
    names
}

/// A run that checkpoints at every round boundary is killed inside the
/// checkpoint that follows round `round`, at each state that kill can
/// leave: the new generation's slot files written up to any point, the
/// next one torn over whatever its slot held, the manifest not yet renamed
/// (with or without its temp file) — or renamed. Each state is rebuilt from
/// the directory before that checkpoint and the one after it, and comes
/// with the round a restore re-enters.
fn torn_checkpoint_states(
    run: &FederatedRun,
    method: Method,
    round: usize,
    pool: &ThreadPool,
) -> Vec<(String, Files, usize)> {
    let dir = TempDir::new("torn");
    let mut active = run.start(method);
    for _ in 0..round {
        active.step_round(pool);
        active.checkpoint(&dir).expect("checkpoint succeeds");
    }
    let before = read_dir(&dir);
    active.step_round(pool);
    active.checkpoint(&dir).expect("checkpoint succeeds");
    let after = read_dir(&dir);
    // The files this checkpoint wrote, in the order it wrote them.
    let new_files: Vec<String> = live_slot_files(&dir)
        .into_iter()
        .filter(|name| before.get(name) != after.get(name))
        .collect();
    assert!(
        !new_files.is_empty(),
        "a round of {} dirties at least one file",
        method.label()
    );

    let label = |what: &str| format!("{}, checkpoint after round {round}: {what}", method.label());
    let mut states = Vec::new();
    let mut partial = before.clone();
    for (written, name) in new_files.iter().enumerate() {
        // `written` files complete; this one torn: its first half over the
        // older bytes of its slot, length not yet fixed.
        let complete = &after[name];
        let mut torn = complete[..complete.len() / 2].to_vec();
        if let Some(older) = before.get(name) {
            torn.extend(older.iter().skip(torn.len()));
        }
        let mut state = partial.clone();
        state.insert(name.clone(), torn);
        states.push((
            label(&format!("{written} files, {name} torn")),
            state,
            round,
        ));
        partial.insert(name.clone(), complete.clone());
    }
    states.push((label("every file, no manifest"), partial.clone(), round));
    partial.insert("MANIFEST.tmp".into(), after[MANIFEST_FILE].clone());
    states.push((label("manifest not renamed"), partial, round));
    states.push((label("manifest renamed"), after, round + 1));
    states
}

/// The configurations the table runs. Each is a [`RunConfig`] plus the
/// participant behaviors that belong to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    Quick,
    /// [`Config::Quick`] on PIQA, a classification dataset.
    Piqa,
    /// [`Config::Quick`] with lossless XOR-delta uploads.
    Lossless,
    /// [`Config::Quick`] with int4 + top-25 % uploads.
    Lossy,
    /// [`Config::Quick`] under a seeded crash and corruption plan, with
    /// retries and no deadline.
    Faulty,
    /// [`Config::Quick`] under a seeded corruption-only plan, one retry and
    /// the default deadline.
    SeededCorruption,
    /// [`Config::Quick`] where participant 0's round-1 upload arrives
    /// corrupted once and one retry is allowed.
    RetriedCorruption,
    /// [`Config::Quick`] where participant 2's round-0 upload stalls once
    /// and one retry is allowed.
    RetriedStall,
    /// [`Config::Quick`] where participant 2 drops out from round 1 on.
    Dropout,
    /// [`Config::Piqa`] where participant 3 drops out in round 2, the final
    /// round, whose aggregation the pipeline cannot hide.
    FinalDropout,
    Sampled,
    /// [`Config::Sampled`] under a seeded crash plan.
    SampledFaulty,
}

impl Config {
    pub fn config(self) -> RunConfig {
        match self {
            Config::Quick | Config::Dropout => quick(),
            Config::Piqa | Config::FinalDropout => quick_on(DatasetKind::Piqa),
            Config::Lossless => quick().with_compression(CompressionConfig::LosslessDelta),
            Config::Lossy => {
                quick().with_compression(CompressionConfig::quantized_sparse(BitWidth::Int4, 0.25))
            }
            Config::Faulty => quick()
                .with_fault_plan(FaultPlan::new(9).with_crashes(0.2).with_corruption(0.2))
                .with_fault_tolerance(
                    FaultToleranceConfig::default()
                        .with_retries(2, 10.0)
                        .with_deadline(1e9),
                ),
            Config::SeededCorruption => quick()
                .with_fault_plan(FaultPlan::new(5).with_corruption(0.3))
                .with_fault_tolerance(FaultToleranceConfig::default().with_retries(1, 5.0)),
            Config::RetriedCorruption => quick().with_fault_tolerance(
                FaultToleranceConfig::default()
                    .with_retries(1, 30.0)
                    .with_deadline(1e9),
            ),
            Config::RetriedStall => {
                quick().with_fault_tolerance(FaultToleranceConfig::default().with_retries(1, 15.0))
            }
            Config::Sampled => sampled(),
            Config::SampledFaulty => {
                sampled().with_fault_plan(FaultPlan::new(77).with_crashes(0.35))
            }
        }
    }

    /// `config` at [`SEED`], with this config's participant behaviors.
    pub fn run_of(self, config: RunConfig) -> FederatedRun {
        let run = FederatedRun::new(config, SEED);
        match self {
            Config::RetriedCorruption => {
                run.with_behavior(0, ParticipantBehavior::CorruptAt { round: 1 })
            }
            Config::RetriedStall => run.with_behavior(2, ParticipantBehavior::StallAt { round: 0 }),
            Config::Dropout => run.with_behavior(2, ParticipantBehavior::DropoutAt { round: 1 }),
            Config::FinalDropout => {
                run.with_behavior(3, ParticipantBehavior::DropoutAt { round: 2 })
            }
            _ => run,
        }
    }

    pub fn run(self) -> FederatedRun {
        self.run_of(self.config())
    }
}

/// The single-threaded run of `config` under `mode`, computed once per
/// test binary. The barriered one is the reference semantics; the
/// pipelined one equals it on [`Trace::schedule_invariant`] (the
/// [`Axis::Schedule`] rows) and is what pipelined rows, clock included,
/// are held to.
pub fn reference(config: Config, method: Method, mode: ExecutionMode) -> Trace {
    type Key = (Config, Method, ExecutionMode);
    type Slot = Arc<OnceLock<Trace>>;
    static CACHE: Mutex<Vec<(Key, Slot)>> = Mutex::new(Vec::new());
    let key = (config, method, mode);
    let slot = {
        let mut cache = CACHE.lock().unwrap_or_else(|e| e.into_inner());
        match cache.iter().find(|(k, _)| *k == key) {
            Some((_, slot)) => Arc::clone(slot),
            None => {
                let slot = Slot::default();
                cache.push((key, Arc::clone(&slot)));
                slot
            }
        }
    };
    slot.get_or_init(|| trace_of(&config.run().with_mode(mode).with_threads(1).run(method)))
        .clone()
}

/// Declares [`Axis`] together with [`Axis::ALL`], so the list cannot miss
/// a variant.
macro_rules! axes {
    ($($(#[$doc:meta])* $axis:ident,)*) => {
        /// What the contract holds a run's bits invariant under. A row's
        /// axes follow from what it runs ([`Row::covers`]).
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum Axis {
            $($(#[$doc])* $axis,)*
        }

        impl Axis {
            pub const ALL: &'static [Axis] = &[$(Axis::$axis,)*];
        }
    };
}

axes! {
    /// Participant fan-out width 2/4/8, or the `FLUX_THREADS` pool.
    Threads,
    /// Pipelined against barriered, compared without the clock.
    Schedule,
    /// The delivery layer stages the landed uploads in a seeded shuffle
    /// instead of arrival order.
    Arrivals,
    /// Lossless delta uploads against the dense run, compared
    /// [`Trace::wire_invariant`].
    Wire,
    /// Lossy uploads: not the dense run's bits, but their own, held by rows
    /// of the other axes on a lossy config.
    Lossy,
    /// Edge aggregators of width 2–5 against flat aggregation.
    Tree,
    /// A sampled cohort of K of N registered clients.
    Cohort,
    /// Killed at a boundary, mid-round or inside a checkpoint, restored and
    /// replayed.
    Kill,
    /// Interleaved with a co-tenant by the scheduler, or resumed there as a
    /// tenant from a checkpoint.
    Scheduler,
    /// One participant's local round returns late in wall-clock time, so
    /// the fan-out completes in another order (nothing stages before
    /// `finish_round`).
    Straggler,
    /// A transient fault retried to success, against the clean run.
    Retry,
    /// Stepped by hand through `poll` instead of `run`.
    Poll,
    /// Rerun at the kernel level `FLUX_SIMD` selects. The level is
    /// process-global, so CI sweeps it over the test binaries.
    Simd,
}

/// How a row drives its run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// `FederatedRun::run`.
    Run,
    /// `poll` → `start_round` / `finish_round` until done.
    Poll,
    /// Killed, restored and replayed.
    Kill(Kill),
    /// One of two jobs on the scheduler; the co-tenant is an FMD run on
    /// PIQA, barriered, arriving a tick late with a straggler, and is held
    /// to its own reference too.
    Scheduled(SchedulePolicy),
    /// Killed after round 1, then resumed as a scheduler tenant beside the
    /// same co-tenant.
    Resumed(SchedulePolicy),
}

/// Which reference a row's trace is compared with, and on which fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Compare {
    /// Its config's reference under the row's schedule, every field.
    Own,
    /// Its config's barriered reference, [`Trace::schedule_invariant`].
    Schedule,
    /// The dense run's reference, [`Trace::wire_invariant`].
    Wire,
    /// The clean run's reference, wire-invariant and without the fault
    /// ledger: the retry shows there and costs a retransmission and its
    /// backoff, but the weights, losses and scores are the clean run's.
    Retry,
    /// As [`Compare::Own`]: a plain rerun at the kernel level `FLUX_SIMD`
    /// selects, which CI sweeps.
    Simd,
}

/// How a row's run executes, relative to its reference: the pipelined
/// schedule on one thread, run to the end, compared on every field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Variant {
    /// Participant fan-out width; `None` sizes it from `FLUX_THREADS`.
    pub threads: Option<usize>,
    pub mode: ExecutionMode,
    pub arrivals: Option<u64>,
    pub edges: usize,
    /// `(participant, delay_ms)`.
    pub straggler: Option<(usize, u64)>,
    pub drive: Drive,
    pub compare: Compare,
}

pub const PIPELINED: Variant = Variant {
    threads: Some(1),
    mode: ExecutionMode::Pipelined,
    arrivals: None,
    edges: 0,
    straggler: None,
    drive: Drive::Run,
    compare: Compare::Own,
};

pub const BARRIERED: Variant = Variant {
    mode: ExecutionMode::Barriered,
    ..PIPELINED
};

impl Variant {
    fn threads(self, threads: usize) -> Self {
        let threads = Some(threads);
        Self { threads, ..self }
    }
    fn env_pool(self) -> Self {
        let threads = None;
        Self { threads, ..self }
    }
    fn shuffled(self, seed: u64) -> Self {
        let arrivals = Some(seed);
        Self { arrivals, ..self }
    }
    fn edges(self, edges: usize) -> Self {
        Self { edges, ..self }
    }
    fn straggler(self, participant: usize, delay_ms: u64) -> Self {
        let straggler = Some((participant, delay_ms));
        Self { straggler, ..self }
    }
    fn drive(self, drive: Drive) -> Self {
        Self { drive, ..self }
    }
    fn kill(self, kill: Kill) -> Self {
        self.drive(Drive::Kill(kill))
    }
    fn scheduled(self, policy: SchedulePolicy) -> Self {
        self.drive(Drive::Scheduled(policy))
    }
    fn compare(self, compare: Compare) -> Self {
        Self { compare, ..self }
    }
}

/// One row of the contract: `method` on `config`, executed as `variant`,
/// equals the reference its [`Compare`] names. `group` is the test that
/// runs it.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub group: Group,
    pub method: Method,
    pub config: Config,
    pub variant: Variant,
}

/// The tests that run the table, one group of rows each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Group {
    Threads,
    Arrivals,
    Schedule,
    Wire,
    LosslessArrivals,
    Lossy,
    CompressedScheduled,
    RetriedCorruption,
    RetriedStall,
    FaultPlan,
    FaultyKill,
    KillAtBoundary,
    KillMidRound,
    KillEveryMethod,
    KillInsideCheckpointFmd,
    KillInsideCheckpointFlux,
    ResumedTenant,
    Sampled,
    SampledFaults,
    Tree,
    SampledTree,
    SampledTreeKill,
    Interleaved,
    Poll,
    Straggler,
    Dropout,
    StragglerUnderDropout,
    Rerun,
}

/// The table. A comment above each group names the test that runs it.
pub fn table() -> Vec<Row> {
    use Compare::{Retry, Schedule, Simd, Wire};
    use Config as C;
    use Group as G;
    use Kill::{Boundary, InsideCheckpoint, MidRound};
    use Method::{Flux, Fmd, Fmes, Fmq};
    use SchedulePolicy::{Concurrent, RoundRobin};
    let r = |group, config, method, variant| Row {
        group,
        method,
        config,
        variant,
    };
    let (p, b) = (PIPELINED, BARRIERED);
    let (e, eb) = (p.env_pool(), b.env_pool());
    #[rustfmt::skip]
    let mut rows = vec![
        // integration_pipeline::golden_trace_pipeline_is_bit_identical_across_threads
        r(G::Threads,                  C::Quick,             Flux, p.threads(2)),
        r(G::Threads,                  C::Quick,             Flux, p.threads(4)),
        r(G::Threads,                  C::Quick,             Flux, e),
        r(G::Threads,                  C::Quick,             Flux, b.threads(4)),
        r(G::Threads,                  C::Quick,             Fmd,  p.threads(4)),
        r(G::Threads,                  C::Quick,             Fmq,  p.threads(4)),
        r(G::Threads,                  C::Quick,             Fmes, p.threads(8)),
        // integration_pipeline::golden_trace_survives_shuffled_update_arrival_orders
        r(G::Arrivals,                 C::Quick,             Flux, p.shuffled(1)),
        r(G::Arrivals,                 C::Quick,             Flux, p.shuffled(2)),
        r(G::Arrivals,                 C::Quick,             Flux, p.shuffled(3)),
        r(G::Arrivals,                 C::Quick,             Flux, p.threads(4).shuffled(1)),
        r(G::Arrivals,                 C::Quick,             Flux, p.threads(4).shuffled(2)),
        r(G::Arrivals,                 C::Quick,             Flux, p.threads(4).shuffled(3)),
        r(G::Arrivals,                 C::Quick,             Fmd,  p.threads(4).shuffled(1)),
        // integration_pipeline::golden_trace_holds_for_the_baseline_methods_too
        r(G::Schedule,                 C::Quick,             Flux, p.compare(Schedule)),
        r(G::Schedule,                 C::Quick,             Fmd,  p.compare(Schedule)),
        r(G::Schedule,                 C::Quick,             Fmq,  p.compare(Schedule)),
        r(G::Schedule,                 C::Quick,             Fmes, p.compare(Schedule)),
        // integration_compression::lossless_delta_is_bit_identical_to_dense_uploads
        r(G::Wire,                     C::Lossless,          Flux, p.compare(Wire)),
        r(G::Wire,                     C::Lossless,          Flux, p.threads(4).compare(Wire)),
        r(G::Wire,                     C::Lossless,          Flux, e.compare(Wire)),
        r(G::Wire,                     C::Lossless,          Flux, eb.compare(Wire)),
        r(G::Wire,                     C::Lossless,          Fmd,  p.threads(4).compare(Wire)),
        // integration_compression::lossless_delta_survives_shuffled_arrival_orders
        r(G::LosslessArrivals,         C::Lossless,          Flux, p.threads(4).shuffled(1)),
        r(G::LosslessArrivals,         C::Lossless,          Flux, p.threads(4).shuffled(2)),
        r(G::LosslessArrivals,         C::Lossless,          Flux, e.shuffled(3)),
        // integration_compression::lossy_runs_are_bit_identical_across_thread_counts_and_arrivals
        r(G::Lossy,                    C::Lossy,             Flux, p.threads(2)),
        r(G::Lossy,                    C::Lossy,             Flux, p.threads(4)),
        r(G::Lossy,                    C::Lossy,             Flux, p.threads(4).shuffled(7)),
        r(G::Lossy,                    C::Lossy,             Flux, b.threads(4)),
        // integration_compression::compression_threads_through_the_scheduler
        r(G::CompressedScheduled,      C::Lossless,          Flux, p.threads(2).scheduled(Concurrent)),
        // integration_faults::transient_corruption_recovers_with_a_retry
        r(G::RetriedCorruption,        C::RetriedCorruption, Flux, e.compare(Retry)),
        // integration_faults::stalled_upload_drops_without_retry_and_lands_with_one
        r(G::RetriedStall,             C::RetriedStall,      Flux, e.compare(Retry)),
        // integration_faults::fault_plan_runs_are_deterministic_across_schedules
        r(G::FaultPlan,                C::Faulty,            Flux, p.compare(Schedule)),
        r(G::FaultPlan,                C::Faulty,            Flux, p.threads(4)),
        r(G::FaultPlan,                C::Faulty,            Flux, eb),
        // integration_faults::mid_round_recovery_under_faults_is_bit_identical
        r(G::FaultyKill,               C::SeededCorruption,  Flux, e.kill(MidRound(1))),
        r(G::FaultyKill,               C::Faulty,            Flux, e.kill(MidRound(1))),
        // integration_recovery::kill_at_round_boundary_replays_bit_identically
        r(G::KillAtBoundary,           C::Quick,             Flux, e.kill(Boundary(1))),
        r(G::KillAtBoundary,           C::Quick,             Flux, e.kill(Boundary(2))),
        r(G::KillAtBoundary,           C::Quick,             Flux, eb.kill(Boundary(1))),
        // integration_recovery::kill_mid_round_replays_bit_identically
        r(G::KillMidRound,             C::Quick,             Flux, e.kill(MidRound(0))),
        r(G::KillMidRound,             C::Quick,             Flux, e.kill(MidRound(1))),
        r(G::KillMidRound,             C::Quick,             Flux, eb.kill(MidRound(0))),
        r(G::KillMidRound,             C::Quick,             Flux, eb.kill(MidRound(1))),
        // integration_recovery::fmd_killed_inside_a_checkpoint_replays_bit_identically
        r(G::KillInsideCheckpointFmd,  C::Quick,             Fmd,  e.kill(InsideCheckpoint(1))),
        r(G::KillInsideCheckpointFmd,  C::Quick,             Fmd,  e.kill(InsideCheckpoint(2))),
        // integration_recovery::flux_killed_inside_a_checkpoint_replays_bit_identically
        r(G::KillInsideCheckpointFlux, C::Quick,             Flux, e.kill(InsideCheckpoint(1))),
        r(G::KillInsideCheckpointFlux, C::Quick,             Flux, e.kill(InsideCheckpoint(2))),
        // integration_recovery::scheduler_resumes_a_tenant_from_its_checkpoint
        r(G::ResumedTenant,            C::Quick,             Fmes, e.drive(Drive::Resumed(RoundRobin))),
        // integration_cohort::sampled_runs_are_pinned_across_threads_schedules_and_arrivals
        r(G::Sampled,                  C::Sampled,           Flux, p.threads(4)),
        r(G::Sampled,                  C::Sampled,           Flux, p.threads(4).shuffled(97)),
        r(G::Sampled,                  C::Sampled,           Flux, e),
        r(G::Sampled,                  C::Sampled,           Flux, b.threads(4)),
        r(G::Sampled,                  C::Sampled,           Flux, p.compare(Schedule)),
        // integration_cohort::fault_injection_under_sampling_keys_off_stable_client_ids
        r(G::SampledFaults,            C::SampledFaulty,     Flux, p.threads(4)),
        r(G::SampledFaults,            C::SampledFaulty,     Flux, p.compare(Schedule)),
        // equivalence::edge_aggregators_reproduce_flat_aggregation
        r(G::Tree,                     C::Quick,             Flux, e.edges(2)),
        r(G::Tree,                     C::Quick,             Flux, e.edges(3)),
        r(G::Tree,                     C::Quick,             Flux, e.edges(5)),
        r(G::Tree,                     C::Quick,             Flux, eb.edges(3)),
        // integration_cohort::tree_aggregation_matches_flat_for_sampled_runs
        r(G::SampledTree,              C::Sampled,           Flux, e.edges(2)),
        r(G::SampledTree,              C::Sampled,           Flux, e.edges(4)),
        r(G::SampledTree,              C::Sampled,           Flux, eb.edges(2)),
        r(G::SampledTree,              C::Sampled,           Flux, eb.edges(4)),
        r(G::SampledTree,              C::Sampled,           Fmq,  e.edges(2)),
        r(G::SampledTree,              C::Sampled,           Fmq,  e.edges(4)),
        r(G::SampledTree,              C::Sampled,           Fmq,  eb.edges(2)),
        r(G::SampledTree,              C::Sampled,           Fmq,  eb.edges(4)),
        // integration_cohort::mid_round_kill_of_a_sampled_tree_run_replays_bit_identically
        r(G::SampledTreeKill,          C::Sampled,           Flux, e.edges(3).kill(MidRound(0))),
        r(G::SampledTreeKill,          C::Sampled,           Flux, e.edges(3).kill(MidRound(1))),
        // integration_scheduler::interleaved_runs_match_solo_traces_across_threads_and_policies
        // (every method shares the scheduler in mixed_workloads_share_the_server_without_interference)
        r(G::Interleaved,              C::Quick,             Flux, p.scheduled(RoundRobin)),
        r(G::Interleaved,              C::Quick,             Flux, p.scheduled(Concurrent)),
        r(G::Interleaved,              C::Quick,             Flux, p.threads(4).scheduled(RoundRobin)),
        r(G::Interleaved,              C::Quick,             Flux, p.threads(4).scheduled(Concurrent)),
        r(G::Interleaved,              C::Quick,             Flux, p.threads(8).scheduled(RoundRobin)),
        r(G::Interleaved,              C::Quick,             Flux, p.threads(8).scheduled(Concurrent)),
        // integration_scheduler::state_machine_poll_sequence_matches_run
        r(G::Poll,                     C::Quick,             Fmes, e.drive(Drive::Poll)),
        r(G::Poll,                     C::Quick,             Flux, p.threads(2).drive(Drive::Poll)),
        // integration_federated::straggler_changes_arrival_order_but_not_results
        r(G::Straggler,                C::Quick,             Flux, p.threads(4).straggler(0, 30)),
        r(G::Straggler,                C::Quick,             Fmd,  b.threads(2).straggler(1, 20)),
        // integration_federated::dropout_participant_is_excluded_once_not_double_counted
        r(G::Dropout,                  C::Dropout,           Flux, p.threads(4).compare(Schedule)),
        // integration_federated::straggler_and_dropout_combined_complete_under_pipeline
        r(G::StragglerUnderDropout,    C::FinalDropout,      Flux, p.threads(4).straggler(1, 20)),
        r(G::StragglerUnderDropout,    C::FinalDropout,      Flux, p.compare(Schedule)),
        // integration_federated::runs_are_reproducible_across_invocations
        r(G::Rerun,                    C::Quick,             Flux, e.compare(Simd)),
        r(G::Rerun,                    C::Quick,             Fmes, e.compare(Simd)),
    ];
    // integration_recovery::every_method_survives_a_mid_run_kill: the
    // baselines under both schedules at three kills (Flux's six are the
    // kill_at_round_boundary and kill_mid_round rows)
    for method in [Fmd, Fmq, Fmes] {
        for variant in [e, eb] {
            for at in [Boundary(1), MidRound(0), MidRound(1)] {
                rows.push(r(G::KillEveryMethod, C::Quick, method, variant.kill(at)));
            }
        }
    }
    rows
}

impl Row {
    /// Whether this row's run varies `axis`. Every axis has a rule, read
    /// off what the row runs; only the projections are named by its
    /// [`Compare`].
    pub fn covers(&self, axis: Axis) -> bool {
        let v = self.variant;
        let config = self.config.config();
        match axis {
            Axis::Threads => v.threads != Some(1),
            Axis::Schedule => v.compare == Compare::Schedule,
            Axis::Arrivals => v.arrivals.is_some(),
            Axis::Wire => v.compare == Compare::Wire,
            Axis::Lossy => matches!(config.compression, CompressionConfig::LossyDelta { .. }),
            Axis::Tree => v.edges > 1,
            Axis::Cohort => config
                .cohort_size
                .is_some_and(|k| k < config.num_participants),
            Axis::Kill => matches!(v.drive, Drive::Kill(_)),
            Axis::Scheduler => matches!(v.drive, Drive::Scheduled(_) | Drive::Resumed(_)),
            Axis::Straggler => v.straggler.is_some(),
            Axis::Retry => v.compare == Compare::Retry,
            Axis::Poll => v.drive == Drive::Poll,
            Axis::Simd => v.compare == Compare::Simd,
        }
    }

    /// The config whose reference run this row is held to.
    fn against(&self) -> Config {
        match self.variant.compare {
            Compare::Wire | Compare::Retry => Config::Quick,
            _ => self.config,
        }
    }

    /// Runs the row: one labelled trace, or one per directory a kill inside
    /// a checkpoint can leave.
    pub fn traces(&self) -> Vec<(String, Trace)> {
        let v = self.variant;
        let executes = Variant {
            compare: Compare::Own,
            ..v
        };
        if executes == PIPELINED || executes == BARRIERED {
            // The row's run is a reference run: share it.
            let trace = reference(self.config, self.method, v.mode);
            return vec![(format!("{:?}", v.mode), trace)];
        }
        let mut config = self.config.config();
        if v.edges > 0 {
            config = config.with_aggregation_edges(v.edges);
        }
        let mut run = self.config.run_of(config).with_mode(v.mode);
        if let Some(threads) = v.threads {
            run = run.with_threads(threads);
        }
        if let Some(seed) = v.arrivals {
            run = run.with_shuffled_arrivals(seed);
        }
        if let Some((participant, delay_ms)) = v.straggler {
            run = run.with_behavior(participant, ParticipantBehavior::Straggler { delay_ms });
        }
        let pool = pool(v.threads);
        let results = match v.drive {
            Drive::Run => vec![("run".to_string(), run.run(self.method))],
            Drive::Poll => vec![("poll".to_string(), polled(&run, self.method, &pool))],
            Drive::Kill(kill) => killed(&run, self.method, kill, &pool),
            Drive::Scheduled(policy) => {
                vec![(
                    format!("{policy:?}"),
                    scheduled(run, self.method, pool, policy, None),
                )]
            }
            Drive::Resumed(policy) => {
                let dir = TempDir::new("resume");
                checkpoint_at(&run, self.method, Kill::Boundary(1), &dir, &pool);
                let result = scheduled(run, self.method, pool, policy, Some(&dir));
                vec![(format!("resumed, {policy:?}"), result)]
            }
        };
        results
            .into_iter()
            .map(|(what, result)| (what, trace_of(&result)))
            .collect()
    }

    /// The reference this row is held to, under the row's projection.
    fn expected(&self) -> Trace {
        let reference_mode = match self.variant.compare {
            Compare::Schedule => ExecutionMode::Barriered,
            _ => self.variant.mode,
        };
        self.project(&reference(self.against(), self.method, reference_mode))
    }

    fn project(&self, trace: &Trace) -> Trace {
        match self.variant.compare {
            Compare::Own | Compare::Simd => trace.clone(),
            Compare::Schedule => trace.schedule_invariant(),
            Compare::Wire => trace.wire_invariant(),
            Compare::Retry => {
                let mut trace = trace.wire_invariant();
                for round in &mut trace.rounds {
                    round.faults = RoundFaults::default();
                }
                trace
            }
        }
    }

    /// Runs the row and asserts it reproduces its reference; returns the
    /// traces it ran.
    pub fn check(&self) -> Vec<Trace> {
        let expected = self.expected();
        assert_eq!(expected.rounds.len(), self.against().config().rounds);
        self.traces()
            .into_iter()
            .map(|(what, trace)| {
                assert_eq!(
                    self.project(&trace),
                    expected,
                    "{self:?} diverged from its reference ({what})"
                );
                trace
            })
            .collect()
    }
}

/// Runs every row of `group` against its reference; returns every trace
/// the rows ran, in table order.
pub fn check(group: Group) -> Vec<Trace> {
    let rows: Vec<Row> = table()
        .into_iter()
        .filter(|row| row.group == group)
        .collect();
    assert!(!rows.is_empty(), "{group:?} has no rows");
    for row in &rows {
        let varies = Axis::ALL.iter().any(|&axis| row.covers(axis));
        assert!(varies, "{row:?} varies no axis: it is its own reference");
    }
    // Rows are independent: run them side by side.
    let checks: Vec<_> = rows.iter().map(|row| move || row.check()).collect();
    pool(None).run(checks).into_iter().flatten().collect()
}

/// Drives `run` by hand through `poll` on `pool`.
fn polled(run: &FederatedRun, method: Method, pool: &ThreadPool) -> RunResult {
    let mut active = run.start(method);
    let mut started = 0;
    loop {
        match active.poll() {
            RunPhase::ReadyToStart { round } => {
                assert_eq!(round, started);
                active.start_round(pool);
                started += 1;
            }
            RunPhase::ReadyToFinish { round } => {
                assert_eq!(round + 1, started);
                active.finish_round(pool);
            }
            RunPhase::Done => break,
        }
    }
    assert_eq!(started, run.config().rounds);
    active.finish()
}

/// Runs `run` as one of two jobs of a fresh scheduler (resumed from
/// `resume` if given), checks the co-tenant against its own reference, and
/// returns `run`'s result.
fn scheduled(
    run: FederatedRun,
    method: Method,
    pool: ThreadPool,
    policy: SchedulePolicy,
    resume: Option<&Path>,
) -> RunResult {
    let mut job = JobSpec::new("row", run, method);
    if let Some(dir) = resume {
        job = job.with_resume(dir);
    }
    let mode = ExecutionMode::Barriered;
    let co_tenant = Config::Piqa
        .run()
        .with_mode(mode)
        .with_behavior(1, ParticipantBehavior::Straggler { delay_ms: 15 });
    let mut results = Scheduler::on_pool(pool, policy).run_all(vec![
        job,
        JobSpec::new("co-tenant", co_tenant, Method::Fmd).with_arrival(1),
    ]);
    assert_eq!(
        trace_of(&results[1].result),
        reference(Config::Piqa, Method::Fmd, mode),
        "the co-tenant diverged from its reference ({policy:?})"
    );
    results.swap_remove(0).result
}
