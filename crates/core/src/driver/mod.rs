//! End-to-end federated fine-tuning driver.
//!
//! [`FederatedRun`] wires the substrate together: it synthesizes the
//! dataset, partitions it non-IID across a heterogeneous device fleet,
//! initializes the global MoE model on the parameter server, and then runs
//! federated rounds with one of the four [`Method`]s (Flux or a baseline).
//! Convergence comes from really training the scaled model; per-round time
//! comes from the `flux-fl` cost model; both feed the
//! [`flux_metrics::TimeToAccuracyTracker`] that the experiment harness uses
//! to regenerate the paper's convergence and time-to-accuracy figures.
//!
//! # Where a round lives
//!
//! * `config.rs` — what a run is configured with ([`RunConfig`],
//!   [`Method`], [`ExecutionMode`]) and what it reports ([`RoundRecord`],
//!   [`RoundFaults`], [`RunResult`]).
//! * this file — [`FederatedRun`]: the builders, start and restore.
//! * `active.rs` — the method-agnostic state machine [`ActiveRun`]:
//!   `start_round` materializes the round's cohort and fans its local
//!   rounds out on the pool; `finish_round` runs the delivery layer,
//!   reduces in participant-id order, installs the round into the store,
//!   advances the simulated clock and records; checkpoint and resume.
//! * `local_round.rs` — one participant's round: the single `match` on
//!   [`Method`], Flux's body (profiling §4, role assignment §6, merging §5,
//!   local training, utility reports), the baseline bodies of
//!   [`crate::baselines`], and the upload's wire form.
//! * `delivery.rs` — how uploads reach the round's aggregation tree: as
//!   each participant finishes, through the fault-simulating delivery
//!   layer, or in a seeded shuffle.
//!
//! # A local round never mutates run state
//!
//! A local round reads its client's state (Flux's stale profiler, FMES's
//! activation profile) and returns what changed — the new state, its
//! utility reports, its upload — and `finish_round` applies it in
//! participant-id order, for every participant that ran. Until then the
//! live state *is* the top-of-round state, so a mid-round checkpoint
//! persists live state and a restored run replays the round's fan-out
//! from exactly what the interrupted one read.
//!
//! # Round execution modes
//!
//! Every upload reaches the global model the same way, whatever the
//! schedule: it is staged into the round's [`AggregationTree`] (as the
//! participant finishes, from any thread in any order — or by the delivery
//! layer / the arrival-shuffle knob when one of those decides what arrives
//! and when), and `finish_round` closes the round with one
//! [`ShardedStore::apply_round`]. The aggregator sorts its shards by
//! participant id before the weighted merges, so losses, scores and
//! weights are **bit-identical** for every thread count, arrival order and
//! schedule.
//!
//! [`AggregationTree`]: flux_fl::AggregationTree
//! [`ShardedStore::apply_round`]: flux_fl::ShardedStore::apply_round
//!
//! The schedule (see [`ExecutionMode`]) decides only where a round's
//! server-side tail — evaluation of the freshly aggregated model, plus the
//! simulated aggregation latency — runs:
//!
//! * **Barriered** — after the round, before the next dispatch: the round
//!   is evaluated and recorded as soon as it is aggregated.
//! * **Pipelined** (default) — overlapping round *k+1*'s participant
//!   dispatch on the same worker pool: the evaluation rides in the next
//!   fan-out, the simulated clock hides the aggregation latency of every
//!   round but the last, and the record lands one round later.
//!
//! Only the simulated timeline differs between the two.
//! `tests/integration_pipeline.rs` pins the equivalence with a golden
//! trace.
//!
//! # Resumable execution
//!
//! [`FederatedRun::run`] is a convenience loop over a resumable state
//! machine: [`FederatedRun::start`] (or [`FederatedRun::start_on`] to join
//! a shared multi-tenant [`ParameterServer`]) yields an [`ActiveRun`] that
//! advances one round at a time through
//! [`ActiveRun::start_round`] → [`ActiveRun::finish_round`] (query with
//! [`ActiveRun::poll`], drain with [`ActiveRun::finish`]). The
//! concurrent-run [`crate::scheduler::Scheduler`] interleaves rounds from
//! many independent runs on one worker pool this way instead of blocking
//! inside a single run's loop.

mod active;
mod config;
mod delivery;
mod local_round;

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use threadpool::ThreadPool;

use flux_fl::{
    load_store, FaultToleranceConfig, ParameterServer, ParticipantBehavior, ShardedStore,
    SnapshotError, DEFAULT_SHARDS,
};

pub use active::{ActiveRun, RunPhase};
pub use config::{ExecutionMode, Method, RoundFaults, RoundRecord, RunConfig, RunResult};

use crate::recovery::{decode_run_state, Fingerprint};

/// A federated fine-tuning run.
#[derive(Clone)]
pub struct FederatedRun {
    config: RunConfig,
    seed: u64,
    threads: Option<usize>,
    mode: ExecutionMode,
    behaviors: HashMap<usize, ParticipantBehavior>,
    arrival_seed: Option<u64>,
}

impl FederatedRun {
    /// Creates a run with the given configuration and seed.
    ///
    /// Participant-local rounds run concurrently on a pool sized from the
    /// `FLUX_THREADS` environment variable (default: available
    /// parallelism), in the [`ExecutionMode::Pipelined`] schedule. That
    /// width bounds the participant fan-out only: nested fan-outs inside a
    /// local round (e.g. the per-expert batches of a heavy MoE layer) size
    /// themselves from `FLUX_THREADS` / host parallelism on their own, so
    /// only `FLUX_THREADS=1` runs everything on the calling thread. Results
    /// are reduced in participant-id order, so neither the thread count nor
    /// the schedule ever changes the output.
    pub fn new(config: RunConfig, seed: u64) -> Self {
        Self {
            config,
            seed,
            threads: None,
            mode: ExecutionMode::Pipelined,
            behaviors: HashMap::new(),
            arrival_seed: None,
        }
    }

    /// Overrides the width of the participant fan-out, taking precedence
    /// over the `FLUX_THREADS` environment variable there. Nested fan-outs
    /// are not reached by this override and keep following `FLUX_THREADS` /
    /// host parallelism (see [`FederatedRun::new`]): `with_threads(1)`
    /// serialises participants, not every kernel. Results are bit-identical
    /// either way.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Overrides the round schedule (default: [`ExecutionMode::Pipelined`]).
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Assigns a fault/latency behavior to one participant (straggler and
    /// dropout scenarios).
    pub fn with_behavior(mut self, participant_id: usize, behavior: ParticipantBehavior) -> Self {
        self.behaviors.insert(participant_id, behavior);
        self
    }

    /// Verification knob: defer the incremental upload submissions and
    /// replay them in a seeded-shuffled participant order instead of
    /// completion order. Results must not change — the golden-trace suite
    /// uses this to prove arrival-order invariance deterministically.
    pub fn with_shuffled_arrivals(mut self, seed: u64) -> Self {
        self.arrival_seed = Some(seed);
        self
    }

    /// The run configuration.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Whether any fault source or non-default delivery policy is active —
    /// the switch that routes uploads through the delivery layer instead of
    /// streaming them straight into the aggregator.
    fn faults_active(&self) -> bool {
        self.config.fault_plan.is_some()
            || self.config.fault_tolerance != FaultToleranceConfig::default()
            || self.behaviors.values().any(|b| {
                matches!(
                    b,
                    ParticipantBehavior::CrashAt { .. }
                        | ParticipantBehavior::CorruptAt { .. }
                        | ParticipantBehavior::StallAt { .. }
                )
            })
    }

    /// Executes the full federated fine-tuning process with one method:
    /// the convenience loop over the resumable state machine.
    pub fn run(&self, method: Method) -> RunResult {
        let pool = match self.threads {
            Some(threads) => ThreadPool::new(threads),
            None => ThreadPool::from_env(),
        };
        let mut active = self.start(method);
        while !active.is_done() {
            active.step_round(&pool);
        }
        active.finish()
    }

    /// Starts a standalone run: the global model lives in a private store
    /// (its own single-tenant server, in effect).
    pub fn start(&self, method: Method) -> ActiveRun {
        ActiveRun::new(self, method, |fresh| {
            Arc::new(ShardedStore::new(fresh(), DEFAULT_SHARDS))
        })
    }

    /// Starts a run as one tenant of a shared multi-tenant
    /// [`ParameterServer`]: its global model is registered as a new tenant,
    /// so concurrent runs on the same server aggregate into disjoint
    /// stores.
    pub fn start_on(&self, method: Method, server: &ParameterServer) -> ActiveRun {
        ActiveRun::new(self, method, |fresh| server.register_tenant(fresh()))
    }

    /// Restores a standalone run from a durable checkpoint directory
    /// (written by [`ActiveRun::checkpoint`]) and returns it positioned to
    /// re-enter its next round.
    ///
    /// The checkpoint's fingerprint (seed, method, schedule, round and
    /// fleet shape) must match this run; everything the checkpoint does not
    /// persist — dataset, fleet, RNG chain — is rebuilt deterministically
    /// from the seed, so a restored run replays to results bit-identical
    /// to the uninterrupted one.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, corrupt or truncated checkpoint files (each
    /// attributed to the shard that failed its checksum), and fingerprint
    /// mismatches.
    pub fn restore(
        &self,
        method: Method,
        dir: impl AsRef<Path>,
    ) -> Result<ActiveRun, SnapshotError> {
        self.restore_with(method, dir, |store| store)
    }

    /// Like [`FederatedRun::restore`], but the restored store joins a
    /// shared multi-tenant [`ParameterServer`] as a tenant.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`FederatedRun::restore`].
    pub fn restore_on(
        &self,
        method: Method,
        server: &ParameterServer,
        dir: impl AsRef<Path>,
    ) -> Result<ActiveRun, SnapshotError> {
        self.restore_with(method, dir, |store| server.adopt_tenant(store))
    }

    fn restore_with(
        &self,
        method: Method,
        dir: impl AsRef<Path>,
        adopt: impl FnOnce(Arc<ShardedStore>) -> Arc<ShardedStore>,
    ) -> Result<ActiveRun, SnapshotError> {
        let loaded = load_store(dir.as_ref())?;
        let state = decode_run_state(&loaded.meta)?;
        state.verify_fingerprint(&self.fingerprint(method))?;
        let restored = Arc::new(loaded.store);
        // Deterministic rebuild of everything the checkpoint does not
        // carry (dataset, fleet, eval set, RNG chain). The restored store
        // takes the place of a freshly initialized model, which is therefore
        // never built: its draws come from a stream of their own, so no
        // other draw moves.
        let mut active = ActiveRun::new(self, method, move |_fresh| adopt(restored));
        active.resume(state)?;
        Ok(active)
    }

    /// What identifies this run, executing `method`, to its checkpoints.
    fn fingerprint(&self, method: Method) -> Fingerprint {
        Fingerprint {
            seed: self.seed,
            method,
            mode: self.mode,
            rounds: self.config.rounds as u32,
            participants: self.config.num_participants as u32,
            cohort_size: self.config.cohort_size.map(|k| k as u32),
            aggregation_edges: self.config.aggregation_edges.max(1) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use flux_data::DatasetKind;
    use flux_moe::MoeConfig;

    use super::active::AGGREGATION_S;
    use super::*;
    use crate::merging::GramCacheStats;

    fn quick_config() -> RunConfig {
        RunConfig::quick_demo(MoeConfig::tiny(), DatasetKind::Gsm8k)
    }

    #[test]
    fn flux_run_produces_records_and_advancing_clock() {
        let result = FederatedRun::new(quick_config(), 7).run(Method::Flux);
        assert_eq!(result.rounds.len(), 3);
        assert!(result.rounds[0].elapsed_hours > 0.0);
        assert!(result.rounds[2].elapsed_hours > result.rounds[0].elapsed_hours);
        assert_eq!(result.tracker.points().len(), 3);
        assert!(result.phase_times.total_s() > 0.0);
    }

    #[test]
    fn all_methods_complete_a_quick_run() {
        let run = FederatedRun::new(quick_config(), 11);
        for method in Method::all() {
            let result = run.run(method);
            assert_eq!(result.method, method);
            assert_eq!(result.rounds.len(), 3);
            assert!(result.final_score >= 0.0);
            assert!(result.rounds.iter().all(|r| r.round_seconds > 0.0));
        }
    }

    #[test]
    fn flux_rounds_are_cheaper_than_fmd_rounds() {
        let run = FederatedRun::new(quick_config(), 13);
        let flux = run.run(Method::Flux);
        let fmd = run.run(Method::Fmd);
        let flux_round = flux.rounds.iter().map(|r| r.round_seconds).sum::<f64>();
        let fmd_round = fmd.rounds.iter().map(|r| r.round_seconds).sum::<f64>();
        assert!(
            flux_round < fmd_round,
            "Flux total round time {flux_round} should undercut FMD {fmd_round}"
        );
    }

    #[test]
    fn run_is_deterministic_given_seed() {
        let a = FederatedRun::new(quick_config(), 17).run(Method::Flux);
        let b = FederatedRun::new(quick_config(), 17).run(Method::Flux);
        for (x, y) in a.rounds.iter().zip(b.rounds.iter()) {
            assert_eq!(x.score, y.score);
            assert_eq!(x.round_seconds, y.round_seconds);
        }
    }

    #[test]
    fn run_is_bit_identical_across_thread_counts() {
        // The parallel round fan-out must never change results: worker
        // outputs are reduced in participant-id order (and the sharded
        // aggregator reduces its shards in participant-id order), so one
        // thread and four threads produce bit-identical records for every
        // method under the default pipelined schedule.
        //
        // Local training inside each round runs the *batched*
        // multi-sample path, whose per-expert GEMM fan-out sizes its own
        // pool from FLUX_THREADS — CI re-runs this test under
        // FLUX_THREADS=1, =4 and =8, so the batched path is pinned
        // bit-identical across expert-pool widths too.
        for method in Method::all() {
            let sequential = FederatedRun::new(quick_config(), 17)
                .with_threads(1)
                .run(method);
            let threaded = FederatedRun::new(quick_config(), 17)
                .with_threads(4)
                .run(method);
            assert_eq!(
                sequential.rounds,
                threaded.rounds,
                "{} rounds diverged across thread counts",
                method.label()
            );
            assert_eq!(sequential.final_score, threaded.final_score);
            assert_eq!(
                sequential.tracker.points(),
                threaded.tracker.points(),
                "{} tracker diverged across thread counts",
                method.label()
            );
        }
    }

    #[test]
    fn pipelined_matches_barriered_losses_scores_and_weights() {
        // The async pipeline must be observationally identical to the
        // fork-join reference: same per-round losses and scores, same
        // final weights — only the simulated timeline may differ (the
        // pipeline hides non-final aggregation tails).
        let barriered = FederatedRun::new(quick_config(), 29)
            .with_mode(ExecutionMode::Barriered)
            .run(Method::Flux);
        let pipelined = FederatedRun::new(quick_config(), 29)
            .with_mode(ExecutionMode::Pipelined)
            .run(Method::Flux);
        assert_eq!(barriered.rounds.len(), pipelined.rounds.len());
        for (b, p) in barriered.rounds.iter().zip(pipelined.rounds.iter()) {
            assert_eq!(b.score, p.score, "round {} score diverged", b.round);
            assert_eq!(
                b.train_loss, p.train_loss,
                "round {} loss diverged",
                b.round
            );
            assert_eq!(b.tokens_trained, p.tokens_trained);
            assert_eq!(b.breakdown, p.breakdown);
        }
        assert_eq!(barriered.final_model.lm_head, pipelined.final_model.lm_head);
        for key in barriered.final_model.expert_keys() {
            assert_eq!(
                barriered.final_model.expert(key),
                pipelined.final_model.expert(key),
                "{key:?} diverged between schedules"
            );
        }
        // The pipeline hides 1 s of aggregation behind each of the first
        // rounds-1 dispatches.
        let b_total: f64 = barriered.rounds.iter().map(|r| r.round_seconds).sum();
        let p_total: f64 = pipelined.rounds.iter().map(|r| r.round_seconds).sum();
        assert!(
            (b_total - p_total - 2.0 * AGGREGATION_S).abs() < 1e-9,
            "pipeline should hide exactly {} s, barriered={b_total} pipelined={p_total}",
            2.0 * AGGREGATION_S
        );
    }

    #[test]
    fn shuffled_arrival_orders_do_not_change_results() {
        let reference = FederatedRun::new(quick_config(), 31).run(Method::Flux);
        for arrival_seed in [1u64, 2, 3] {
            let shuffled = FederatedRun::new(quick_config(), 31)
                .with_shuffled_arrivals(arrival_seed)
                .run(Method::Flux);
            assert_eq!(
                reference.rounds, shuffled.rounds,
                "arrival seed {arrival_seed} changed the rounds"
            );
            assert_eq!(reference.final_model.lm_head, shuffled.final_model.lm_head);
        }
    }

    #[test]
    fn method_labels() {
        assert_eq!(Method::Flux.label(), "FLUX");
        assert_eq!(Method::all().len(), 4);
    }

    #[test]
    fn cohort_sampling_dispatches_k_of_n_and_is_deterministic() {
        let config = quick_config().with_participants(12).with_cohort(3);
        let pool = ThreadPool::new(2);
        let mut active = FederatedRun::new(config.clone(), 19).start(Method::Flux);
        assert_eq!(active.registered_clients(), 12);
        assert_eq!(active.active_participants(), 0, "no one materialized yet");
        let mut cohorts = Vec::new();
        while !active.is_done() {
            let RunPhase::ReadyToStart { round } = active.poll() else {
                panic!("expected a startable round");
            };
            cohorts.push(active.cohort_of(round));
            active.step_round(&pool);
            assert_eq!(active.active_participants(), 3);
        }
        let result = active.finish();
        assert_eq!(result.rounds.len(), 3);
        // Cohorts are sorted stable ids and vary across rounds.
        for cohort in &cohorts {
            assert_eq!(cohort.len(), 3);
            assert!(cohort.windows(2).all(|w| w[0] < w[1]));
            assert!(cohort.iter().all(|&id| id < 12));
        }
        assert!(cohorts.windows(2).any(|w| w[0] != w[1]));
        // Same seed, same everything.
        let again = FederatedRun::new(config, 19).run(Method::Flux);
        assert_eq!(result.rounds, again.rounds);
        assert_eq!(result.final_model.lm_head, again.final_model.lm_head);
    }

    #[test]
    fn sampled_runs_are_bit_identical_across_thread_counts_and_schedules() {
        let config = quick_config().with_participants(10).with_cohort(4);
        let reference = FederatedRun::new(config.clone(), 23)
            .with_threads(1)
            .run(Method::Flux);
        let threaded = FederatedRun::new(config.clone(), 23)
            .with_threads(4)
            .run(Method::Flux);
        assert_eq!(reference.rounds, threaded.rounds);
        let barriered = FederatedRun::new(config, 23)
            .with_mode(ExecutionMode::Barriered)
            .run(Method::Flux);
        for (p, b) in reference.rounds.iter().zip(barriered.rounds.iter()) {
            assert_eq!(p.score, b.score, "round {} diverged", p.round);
            assert_eq!(p.train_loss, b.train_loss);
        }
        assert_eq!(reference.final_model.lm_head, barriered.final_model.lm_head);
    }

    #[test]
    fn aggregation_tree_matches_flat_reduction_bit_for_bit() {
        for edges in [2usize, 3, 5] {
            let flat = FederatedRun::new(quick_config(), 37).run(Method::Flux);
            let tree = FederatedRun::new(quick_config().with_aggregation_edges(edges), 37)
                .run(Method::Flux);
            assert_eq!(flat.rounds, tree.rounds, "{edges} edges diverged");
            assert_eq!(flat.final_model.lm_head, tree.final_model.lm_head);
            for key in flat.final_model.expert_keys() {
                assert_eq!(
                    flat.final_model.expert(key),
                    tree.final_model.expert(key),
                    "{key:?} diverged under {edges} edges"
                );
            }
            // Barriered routes through the same tree and must agree too.
            let barriered = FederatedRun::new(quick_config().with_aggregation_edges(edges), 37)
                .with_mode(ExecutionMode::Barriered)
                .run(Method::Flux);
            assert_eq!(flat.final_model.lm_head, barriered.final_model.lm_head);
        }
    }

    #[test]
    fn quantized_cache_is_fresh_per_round_and_deduplicated_within_it() {
        // Every Flux participant profiles through the round's shared cache
        // at the configured width, so each round must quantize exactly once
        // (one distinct width) and serve every other request from memory.
        // A nonzero miss count in *every* round is the regression guard
        // against reusing a cache (and thus a stale quantized model) across
        // rounds.
        let config = quick_config().with_participants(6);
        let pool = ThreadPool::new(2);
        let mut active = FederatedRun::new(config, 41).start(Method::Flux);
        while !active.is_done() {
            active.step_round(&pool);
        }
        let stats = active.quant_cache_stats().to_vec();
        assert_eq!(stats.len(), 3, "one ledger entry per round");
        for (round, &(hits, misses)) in stats.iter().enumerate() {
            assert_eq!(
                misses, 1,
                "round {round} must quantize exactly once per bit width"
            );
            assert_eq!(
                hits + misses,
                6,
                "round {round}: every participant profiles through the cache"
            );
        }
    }

    #[test]
    fn expert_gram_is_computed_once_per_round_and_never_reused() {
        // Every Flux participant builds its plan through the round's Gram
        // cache: each round computes every panel exactly once however the
        // six requesters interleave on two workers, and *every* round does
        // so again — a cache carried over would describe last round's
        // weights (and count twelve requests by the second round). Methods
        // that never cluster never touch it.
        let config = quick_config().with_participants(6);
        let pool = ThreadPool::new(2);
        let mut active = FederatedRun::new(config.clone(), 41).start(Method::Flux);
        assert_eq!(active.last_gram_cache_stats(), GramCacheStats::default());
        let mut rounds = 0;
        while !active.is_done() {
            active.step_round(&pool);
            let stats = active.last_gram_cache_stats();
            assert_eq!(stats.requests, 6, "round {rounds}: one request per plan");
            assert!(stats.panels > 0, "round {rounds} computed nothing");
            assert_eq!(stats.panels_computed, stats.panels, "round {rounds}");
            rounds += 1;
        }
        assert_eq!(rounds, 3);
        let mut dense = FederatedRun::new(config, 41).start(Method::Fmd);
        dense.step_round(&pool);
        assert_eq!(dense.last_gram_cache_stats(), GramCacheStats::default());
    }

    #[test]
    fn run_config_metric_uses_dataset_target_by_default() {
        let cfg = RunConfig {
            target_score: None,
            ..quick_config()
        };
        assert_eq!(cfg.metric().target(), DatasetKind::Gsm8k.target_score());
        let with_target = quick_config().with_target(0.33);
        assert!((with_target.metric().target() - 0.33).abs() < 1e-6);
    }

    #[test]
    fn time_to_score_and_best_score() {
        let result = FederatedRun::new(quick_config(), 23).run(Method::Flux);
        let best = result.best_score();
        assert!(result.time_to_score(best).is_some());
        assert!(result.time_to_score(best + 1.0).is_none());
    }
}
