//! The method-agnostic round state machine: [`ActiveRun`], its
//! `start_round → poll → finish_round` cycle, checkpoint and resume.

use std::path::Path;
use std::sync::Arc;

use threadpool::ThreadPool;

use flux_data::{Dataset, DatasetConfig, DatasetGenerator};
use flux_fl::{
    AggregationTree, CheckpointStats, CostModel, FleetSpec, Participant, PhaseTimes,
    RoundCostBreakdown, ShardedStore, SimClock, SnapshotError,
};
use flux_metrics::TimeToAccuracyTracker;
use flux_moe::{EvalResult, MoeModel};
use flux_tensor::SeededRng;

use crate::assignment::RoleAssigner;
use crate::cohort::CohortSampler;
use crate::merging::{ExpertGramCache, GramCacheStats};
use crate::profiling::QuantizedModelCache;
use crate::recovery::{encode_run_state, RunState};

use super::delivery::{simulate_deliveries, submit_shuffled, submit_upload};
use super::local_round::{ClientStates, ParticipantRound, RoundContext};
use super::{ExecutionMode, FederatedRun, Method, RoundFaults, RoundRecord, RunResult};

/// Simulated server-side aggregation latency per round, in seconds
/// (constant, small). The pipelined schedule hides it behind the next
/// round's dispatch for every round but the last.
pub(super) const AGGREGATION_S: f64 = 1.0;

/// One task's result in a round's fan-out.
pub(super) enum TaskOut {
    /// A participant finished its local round.
    Participant(Box<ParticipantRound>),
    /// The participant was absent this round (dropout scenario).
    Dropped,
    /// The overlapped evaluation of the *previous* round's aggregated
    /// model (pipelined mode only).
    Eval(EvalResult),
}

/// Everything a round's ordered reduction produces.
#[derive(Default)]
struct RoundReduction {
    loss_sum: f32,
    active: usize,
    tokens_trained: usize,
    upload_bytes_dense: usize,
    upload_bytes_compressed: usize,
    critical: RoundCostBreakdown,
}

/// Where a resumable run currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPhase {
    /// The next call must be [`ActiveRun::start_round`] for this round.
    ReadyToStart {
        /// The round `start_round` will execute (0-based).
        round: usize,
    },
    /// A round's compute has finished; the next call must be
    /// [`ActiveRun::finish_round`].
    ReadyToFinish {
        /// The computed round awaiting its reduction/aggregation.
        round: usize,
    },
    /// Every round has been executed; [`ActiveRun::finish`] drains the
    /// pipeline and yields the [`RunResult`].
    Done,
}

/// A round whose participant fan-out has completed but whose reduction and
/// aggregation have not run yet (between `start_round` and `finish_round`).
struct ComputedRound {
    aggregator: AggregationTree,
    results: Vec<TaskOut>,
    eval_of_pending: Option<EvalResult>,
    /// The round-start snapshot: the base encoded uploads decode against.
    snapshot: Arc<MoeModel>,
}

/// The resumable state of one federated run.
///
/// Produced by [`FederatedRun::start`] / [`FederatedRun::start_on`], it
/// owns everything a run accumulates across rounds (fleet, store handle,
/// clock, tracker, assigner state) and advances one round at a time:
///
/// ```text
/// ReadyToStart(r) --start_round--> ReadyToFinish(r) --finish_round--> ReadyToStart(r+1) | Done
/// ```
///
/// `start_round` performs the round's participant fan-out on the given
/// worker pool (plus the overlapped evaluation of the previous round in
/// pipelined mode), staging uploads into the round's aggregation tree;
/// `finish_round` applies the participant-id-ordered reduction and
/// installs the staged round into the store. Splitting the loop this way lets
/// the [`crate::scheduler::Scheduler`] interleave rounds from many runs on
/// one pool; a run stepped to completion produces results bit-identical to
/// [`FederatedRun::run`] executed alone, whatever is interleaved between
/// its rounds — every source of state is owned by the run or keyed by its
/// tenant store.
pub struct ActiveRun {
    driver: FederatedRun,
    method: Method,
    /// The registered client fleet as lightweight specs (corpus indices +
    /// device profile); participants materialize from here.
    registry: FleetSpec,
    /// The per-round seeded cohort sampler (every client, every round,
    /// under full participation).
    sampler: CohortSampler,
    /// The participants active in the current (or most recent) round,
    /// replaced whenever a round's cohort differs from the previous one, so
    /// heavy participant state stays O(cohort) — and full participation
    /// materializes the whole fleet exactly once.
    fleet: Vec<Participant>,
    eval_set: Dataset,
    store: Arc<ShardedStore>,
    cost: CostModel,
    clock: SimClock,
    phases: PhaseTimes,
    tracker: TimeToAccuracyTracker,
    assigner: RoleAssigner,
    /// What each registered client carries between its rounds. Only
    /// `finish_round` writes it, so until then it is the top-of-round state
    /// a replayed fan-out must read.
    client_states: ClientStates,
    records: Vec<RoundRecord>,
    round_rng: SeededRng,
    /// A pipelined round whose evaluation rides in the next fan-out; its
    /// score is filled in when that evaluation lands.
    pending: Option<RoundRecord>,
    next_round: usize,
    computed: Option<ComputedRound>,
    /// Per-round `(hits, misses)` of the round-scoped
    /// [`QuantizedModelCache`]: misses count actual quantizations, so each
    /// entry proves the cache was fresh that round and deduplicated within
    /// it.
    cache_stats: Vec<(usize, usize)>,
    /// What the last round's [`ExpertGramCache`] did.
    last_gram_stats: GramCacheStats,
}

impl ActiveRun {
    /// Shared setup: synthesizes the dataset, partitions the fleet, takes
    /// the global model's store from `register`, and returns the resumable
    /// run state positioned before round 0. `register` is handed the random
    /// initialisation of the global model as a thunk, so the model is only
    /// built when a fresh store is wanted (a restore brings its own).
    pub(super) fn new(
        driver: &FederatedRun,
        method: Method,
        register: impl FnOnce(&mut dyn FnMut() -> MoeModel) -> Arc<ShardedStore>,
    ) -> ActiveRun {
        let cfg = &driver.config;
        let root = SeededRng::new(driver.seed);
        let mut data_rng = root.derive(1);
        let mut fleet_rng = root.derive(2);
        let mut model_rng = root.derive(3);
        let round_rng = root.derive(4);

        // Dataset and fleet.
        let model_config = match cfg.dataset_kind.num_classes() {
            Some(classes) => cfg.model_config.clone().with_classes(classes),
            None => cfg.model_config.clone(),
        };
        let data_config = DatasetConfig::for_kind(cfg.dataset_kind, model_config.vocab_size)
            .with_num_samples(cfg.num_samples);
        let dataset = DatasetGenerator::new(data_config).generate(&mut data_rng);
        let (train, test) = dataset.train_test_split(0.8);
        let eval_indices: Vec<usize> = (0..test.len().min(cfg.eval_samples)).collect();
        let eval_set = test.subset(&eval_indices);
        // The fleet registers as lightweight specs (shared corpus + index
        // shards + device profiles); the partition and device draws consume
        // `fleet_rng` exactly as the eager builder did, so existing seeds
        // reproduce bit-for-bit.
        let mut registry = FleetSpec::build(
            Arc::new(train),
            cfg.num_participants,
            cfg.non_iid_alpha,
            &mut fleet_rng,
        );
        if let Some(link) = cfg.link {
            registry.override_link(link);
        }
        // Full participation is a cohort of everyone: the sampler then
        // returns `0..N` every round and the fleet materializes once.
        let sampler = CohortSampler::new(
            cfg.num_participants,
            cfg.cohort_size.unwrap_or(cfg.num_participants),
            driver.seed,
        );

        let store = register(&mut || MoeModel::new(model_config.clone(), &mut model_rng));
        ActiveRun {
            driver: driver.clone(),
            method,
            registry,
            sampler,
            fleet: Vec::new(),
            eval_set,
            store,
            cost: CostModel::default(),
            clock: SimClock::new(),
            phases: PhaseTimes::default(),
            tracker: TimeToAccuracyTracker::new(cfg.metric()),
            assigner: RoleAssigner::new(cfg.epsilon),
            client_states: ClientStates::default(),
            records: Vec::new(),
            round_rng,
            pending: None,
            next_round: 0,
            computed: None,
            cache_stats: Vec::new(),
            last_gram_stats: GramCacheStats::default(),
        }
    }

    /// Overlays the state a checkpoint persisted onto a freshly rebuilt run.
    pub(super) fn resume(&mut self, state: RunState) -> Result<(), SnapshotError> {
        let registered = self.registry.len();
        if state.flux.len() != registered || state.fmes.len() != registered {
            return Err(SnapshotError::Mismatch(format!(
                "checkpoint profiles cover {} clients, run registers {registered}",
                state.flux.len(),
            )));
        }
        let cfg = &self.driver.config;
        self.clock = SimClock::from_elapsed_s(state.elapsed_s);
        self.phases = state.phases;
        for record in &state.records {
            self.tracker
                .record(record.round, record.elapsed_hours, record.score);
        }
        self.records = state.records;
        self.assigner = RoleAssigner::from_utilities(cfg.epsilon, state.utilities);
        self.client_states = ClientStates::from_lists(cfg.profiling, state.flux, state.fmes);
        self.pending = state.pending;
        self.next_round = state.next_round as usize;
        Ok(())
    }

    /// The method this run executes.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The tenant store holding this run's global model.
    pub fn store(&self) -> &Arc<ShardedStore> {
        &self.store
    }

    /// Number of registered clients (the sampling universe).
    pub fn registered_clients(&self) -> usize {
        self.registry.len()
    }

    /// Number of participants materialized for the current (or most
    /// recent) round: the cohort size when sampling, the whole fleet
    /// otherwise (zero before any run's first round).
    pub fn active_participants(&self) -> usize {
        self.fleet.len()
    }

    /// The stable client ids round `round` dispatches (every registered
    /// client under full participation).
    pub fn cohort_of(&self, round: usize) -> Vec<usize> {
        self.sampler.cohort(round)
    }

    /// Per-round `(hits, misses)` of the round-scoped quantized-model
    /// cache, one entry per `start_round` executed so far. Misses count
    /// actual quantizations: within a round each bit width quantizes once
    /// (then hits), and a fresh cache per round means refreshed global
    /// weights are never profiled through a stale quantized copy.
    pub fn quant_cache_stats(&self) -> &[(usize, usize)] {
        &self.cache_stats
    }

    /// What the round-scoped expert Gram cache of the most recent
    /// `start_round` did (all zero before the first). A Flux round computes
    /// every panel of its snapshot's Gram matrix exactly once
    /// (`panels_computed == panels`) however many participants request it,
    /// and the next round starts from an empty cache again — the matrix of
    /// one snapshot is never used for another. Methods that never cluster
    /// leave it untouched.
    pub fn last_gram_cache_stats(&self) -> GramCacheStats {
        self.last_gram_stats
    }

    /// Writes a durable checkpoint of this run into `dir`: the store's
    /// versioned per-shard snapshot (dirty shards only after the first
    /// write) plus the run state needed to resume — round index, clock,
    /// per-round records, assigner utilities and client states.
    ///
    /// Valid at any [`RunPhase`], and always the *top-of-round* state: only
    /// `finish_round` changes run state, so a checkpoint taken between
    /// `start_round` and `finish_round` writes the same directory as one
    /// taken just before `start_round`. What the round has staged is not
    /// persisted: on restore the round's fan-out replays deterministically,
    /// every participant recomputes its upload bit for bit, and the run
    /// continues to results bit-identical to an uninterrupted one.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors; a partially written file is never one the
    /// previous good checkpoint's manifest references (two generation
    /// slots per file, the manifest's rename last — see
    /// `flux_fl::snapshot`).
    pub fn checkpoint(&self, dir: impl AsRef<Path>) -> Result<CheckpointStats, SnapshotError> {
        let (flux, fmes) = self.client_states.to_lists(self.registry.len());
        let meta = encode_run_state(&RunState {
            fingerprint: self.driver.fingerprint(self.method),
            next_round: self.next_round as u32,
            elapsed_s: self.clock.elapsed_s(),
            phases: self.phases,
            records: self.records.clone(),
            pending: self.pending.clone(),
            utilities: self.assigner.export_utilities(),
            flux,
            fmes,
        });
        self.store.checkpoint(dir.as_ref(), &meta)
    }

    /// Where the run currently stands.
    pub fn poll(&self) -> RunPhase {
        if self.computed.is_some() {
            RunPhase::ReadyToFinish {
                round: self.next_round,
            }
        } else if self.next_round < self.driver.config.rounds {
            RunPhase::ReadyToStart {
                round: self.next_round,
            }
        } else {
            RunPhase::Done
        }
    }

    /// Whether every round has been executed (the pipeline may still hold
    /// one pending evaluation, which [`ActiveRun::finish`] drains).
    pub fn is_done(&self) -> bool {
        self.poll() == RunPhase::Done
    }

    /// Convenience: `start_round` + `finish_round`.
    pub fn step_round(&mut self, pool: &ThreadPool) {
        self.start_round(pool);
        self.finish_round(pool);
    }

    /// Executes the next round's participant fan-out on `pool`.
    ///
    /// Every participant (and, in pipelined mode, the overlapped evaluation
    /// of the previous round) reads the same store snapshot; no store lock
    /// is held while they compute. Uploads stage into the round's
    /// aggregation tree the moment each participant finishes, under either
    /// schedule — unless the delivery layer or the arrival-shuffle knob is
    /// active, which retain them for `finish_round` to stage.
    ///
    /// # Panics
    ///
    /// Panics when the run is not in [`RunPhase::ReadyToStart`].
    pub fn start_round(&mut self, pool: &ThreadPool) {
        assert!(
            self.computed.is_none(),
            "finish_round must close the previous round first"
        );
        let round = self.next_round;
        assert!(
            round < self.driver.config.rounds,
            "run already executed every round"
        );
        // Materialize only this round's cohort, replacing the previous one
        // when it differs (so heavy participant state stays O(K), and full
        // participation materializes once). The sampler is a pure function
        // of (seed, round), so a restored run re-derives the identical
        // cohort.
        let cohort = self.sampler.cohort(round);
        if !self.fleet.iter().map(|p| p.id).eq(cohort.iter().copied()) {
            self.fleet = cohort
                .iter()
                .map(|&id| self.registry.materialize(id))
                .collect();
        }
        let driver = &self.driver;
        let aggregator =
            AggregationTree::new(self.store.begin_round(), driver.config.aggregation_edges);
        // Uploads stream into the aggregator the moment each participant
        // finishes — unless the arrival shuffle knob is on, in which case
        // they are replayed in a seeded order during finish_round (either
        // way the aggregator's pid-ordered finalize makes arrival order
        // unobservable), or the delivery layer is active, which decides
        // per upload what arrives at all.
        let submit_on_completion = driver.arrival_seed.is_none() && !driver.faults_active();

        // One snapshot per round: participants and the overlapped
        // evaluation share the store's `Arc`, holding no store lock while
        // they compute.
        let global = self.store.snapshot();
        let ctx = RoundContext {
            config: &driver.config,
            method: self.method,
            round,
            snapshot: &global,
            cost: &self.cost,
            quant_cache: QuantizedModelCache::new(),
            gram_cache: ExpertGramCache::new(),
            assigner: &self.assigner,
            round_rng: &self.round_rng,
        };
        let (mut results, eval_of_pending) = {
            let (ctx, aggregator) = (&ctx, &aggregator);
            let (states, eval_set) = (&self.client_states, &self.eval_set);
            let mut tasks: Vec<Box<dyn FnOnce() -> TaskOut + Send + '_>> = Vec::new();
            for participant in &self.fleet {
                let behavior = driver
                    .behaviors
                    .get(&participant.id)
                    .copied()
                    .unwrap_or_default();
                if behavior.is_dropped(round) {
                    tasks.push(Box::new(|| TaskOut::Dropped));
                    continue;
                }
                tasks.push(Box::new(move || {
                    let mut result = ctx.local_round(participant, states.get(participant.id));
                    // A straggler computes the same result, it just
                    // reaches the server late.
                    let delay = behavior.delay_ms();
                    if delay > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(delay));
                    }
                    if submit_on_completion {
                        let upload = result.upload.take().expect("a local round ships an upload");
                        submit_upload(aggregator, participant.id, upload, ctx.snapshot);
                    }
                    TaskOut::Participant(Box::new(result))
                }));
            }
            // The pipelined server tail: evaluate the *previous* round's
            // aggregated model (this round's snapshot) while this round's
            // participants compute.
            let evaluating_pending =
                driver.mode == ExecutionMode::Pipelined && self.pending.is_some();
            if evaluating_pending {
                tasks.push(Box::new(move || {
                    TaskOut::Eval(ctx.snapshot.evaluate(eval_set))
                }));
            }
            let mut results = pool.run(tasks);
            let eval = if evaluating_pending {
                match results.pop() {
                    Some(TaskOut::Eval(eval)) => Some(eval),
                    _ => unreachable!("eval task is always submitted last"),
                }
            } else {
                None
            };
            (results, eval)
        };
        // The round-scoped caches die with the context; record their
        // ledgers so tests can pin "one quantization per bit width and one
        // Gram matrix per round, never reused across rounds".
        self.cache_stats.push(ctx.quant_cache.stats());
        self.last_gram_stats = ctx.gram_cache.stats();
        // Keep slot order aligned with the fleet for the ordered
        // reduction (the eval slot was popped above).
        debug_assert_eq!(results.len(), self.fleet.len());
        results.shrink_to_fit();
        self.computed = Some(ComputedRound {
            aggregator,
            results,
            eval_of_pending,
            snapshot: global,
        });
    }

    /// Closes the computed round: stages whatever uploads the delivery
    /// layer or the arrival-shuffle knob retained, applies utility reports
    /// and the participant-id-ordered reduction, installs the staged round
    /// into the tenant store with one `apply_round` (in place: the round's
    /// snapshot is released first), advances the simulated clock, and
    /// records the round (immediately when barriered; one round later when
    /// pipelined, as the evaluation overlaps the next dispatch).
    ///
    /// # Panics
    ///
    /// Panics when the run is not in [`RunPhase::ReadyToFinish`].
    pub fn finish_round(&mut self, pool: &ThreadPool) {
        let round = self.next_round;
        let ComputedRound {
            aggregator,
            mut results,
            eval_of_pending,
            snapshot,
        } = self
            .computed
            .take()
            .expect("start_round must compute a round first");
        let pipelined = self.driver.mode == ExecutionMode::Pipelined;

        // The previous round's record completes as soon as its overlapped
        // evaluation lands (order is preserved: one round is in flight at
        // a time).
        if let Some(previous) = self.pending.take() {
            let eval = eval_of_pending.expect("pipelined rounds evaluate their predecessor");
            self.record(previous, eval.score);
        }

        // The delivery layer: under faults every upload was retained, and
        // the simulation decides which of them reach the aggregator (and
        // what the retries cost), purely from the seeds.
        let (landed_extra_s, round_faults) = if self.driver.faults_active() {
            simulate_deliveries(
                &self.driver,
                round,
                &aggregator,
                &self.fleet,
                &mut results,
                &snapshot,
            )
        } else {
            (vec![Some(0.0); self.fleet.len()], RoundFaults::default())
        };

        // Ordered reduction: participant-id order, same as the old
        // sequential loop, regardless of completion order.
        let mut reduction = RoundReduction::default();
        let registered = self.registry.len();
        for (slot, (participant, task_out)) in self.fleet.iter().zip(results.iter_mut()).enumerate()
        {
            let result = match task_out {
                TaskOut::Participant(result) => result,
                TaskOut::Dropped => continue,
                TaskOut::Eval(_) => unreachable!("eval result was popped in start_round"),
            };
            // Every participant that ran refreshed its state, whether or
            // not its upload lands.
            if let Some(state) = result.state.take() {
                self.client_states
                    .install(participant.id, state, registered);
            }
            // Under faults, an upload that never landed excludes its
            // participant from the round entirely — no utility reports, no
            // loss/token/byte contribution — exactly like a dropout.
            let Some(extra_comm_s) = landed_extra_s[slot] else {
                continue;
            };
            if let Some(bootstrap) = &result.bootstrap_utilities {
                self.assigner.report_utilities(participant.id, bootstrap);
            }
            if !result.reported_utilities.is_empty() {
                self.assigner
                    .report_utilities(participant.id, &result.reported_utilities);
            }
            let out = &result.output;
            reduction.loss_sum += out.train_loss;
            reduction.active += 1;
            reduction.tokens_trained += out.trained_tokens;
            reduction.upload_bytes_dense += result.upload_bytes_dense;
            reduction.upload_bytes_compressed += result.upload_bytes_encoded;
            let mut cost = out.cost;
            cost.communication_s += extra_comm_s;
            if cost.total_s() > reduction.critical.total_s() {
                reduction.critical = cost;
            }
        }

        if let Some(seed) = self.driver.arrival_seed {
            // Replay the retained uploads in a seeded-shuffled participant
            // order: a deterministic stand-in for the scheduler's arbitrary
            // completion order. (Under faults the delivery layer already
            // took every upload, so nothing is left to replay.)
            submit_shuffled(&aggregator, &self.fleet, results, round, seed, &snapshot);
        }
        // The one door into the global model: whatever staged the uploads
        // (completion order, the delivery layer, the shuffle), the root's
        // pid-ordered finalize reduces them identically for every schedule
        // and tree shape. The round's snapshot goes first, so the install
        // changes the one model in place instead of copying it.
        drop(snapshot);
        self.store.apply_round(aggregator.collapse(), pool);

        let critical = reduction.critical;
        // Every round but the last hides the aggregation latency behind
        // the next round's dispatch when pipelined: the next round starts
        // immediately, but this round's aggregated model (and hence its
        // evaluation score) only exists AGGREGATION_S into that window.
        // The score timestamp must include that tail even though the
        // dispatch does not wait for it — otherwise the time-to-accuracy
        // tracker would credit scores before the aggregated model could
        // physically be available.
        let overlapped = pipelined && round + 1 < self.driver.config.rounds;
        let round_seconds =
            self.clock
                .advance_round_s(critical.total_s(), AGGREGATION_S, overlapped);
        self.phases.accumulate(&critical);
        let hidden_tail_hours = if overlapped {
            AGGREGATION_S / 3600.0
        } else {
            0.0
        };
        let this_round = RoundRecord {
            round,
            elapsed_hours: self.clock.elapsed_hours() + hidden_tail_hours,
            score: 0.0,
            train_loss: reduction.loss_sum / reduction.active.max(1) as f32,
            round_seconds,
            tokens_trained: reduction.tokens_trained,
            upload_bytes_dense: reduction.upload_bytes_dense,
            upload_bytes_compressed: reduction.upload_bytes_compressed,
            breakdown: critical,
            faults: round_faults,
        };
        if pipelined {
            self.pending = Some(this_round);
        } else {
            let eval = self.store.with_global(|m| m.evaluate(&self.eval_set));
            self.record(this_round, eval.score);
        }
        self.next_round = round + 1;
    }

    /// Completes a round's record with its evaluation score.
    fn record(&mut self, mut record: RoundRecord, score: f32) {
        record.score = score;
        self.tracker
            .record(record.round, record.elapsed_hours, score);
        self.records.push(record);
    }

    /// Drains the pipeline (the final round's evaluation has nothing to
    /// overlap with) and yields the run's result.
    ///
    /// # Panics
    ///
    /// Panics when rounds remain; poll until [`RunPhase::Done`] first.
    pub fn finish(mut self) -> RunResult {
        assert!(self.is_done(), "finish called before every round executed");
        if let Some(last) = self.pending.take() {
            let eval = self.store.with_global(|m| m.evaluate(&self.eval_set));
            self.record(last, eval.score);
        }
        let final_score = self.records.last().map(|r| r.score).unwrap_or(0.0);
        let upload_bytes_dense = self.records.iter().map(|r| r.upload_bytes_dense).sum();
        let upload_bytes_compressed = self.records.iter().map(|r| r.upload_bytes_compressed).sum();
        RunResult {
            method: self.method,
            tracker: self.tracker,
            rounds: self.records,
            phase_times: self.phases,
            final_score,
            upload_bytes_dense,
            upload_bytes_compressed,
            final_model: self.store.global_model(),
        }
    }
}
