//! One repetition of a workload, driven round by round through the public
//! `ActiveRun` state machine, and the end-to-end metrics and correctness
//! checks computed from a set of repetitions.

use std::path::{Path, PathBuf};

use flux_core::driver::{FederatedRun, RunConfig, RunResult};
use threadpool::ThreadPool;

use crate::host;
use crate::stats::{median, percentile, Stat};
use crate::trace::Recorder;
use crate::workloads::{Workload, FLEET_WIRE_COHORT};

/// What a finished run produced, reduced to what the checks compare (the
/// final model itself is dropped so repetitions do not pile up in memory).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    pub param_checksum: u64,
    /// Bit patterns of each round's mean training loss.
    pub loss_bits: Vec<u32>,
    /// Bit patterns of each round's evaluation score.
    pub score_bits: Vec<u32>,
    pub tokens_trained: Vec<usize>,
    pub upload_bytes_dense: usize,
    pub upload_bytes_compressed: usize,
    /// Simulated clock after the last round, in hours.
    pub sim_total_h: f64,
    pub final_score: f32,
    /// Participant-rounds whose upload never landed.
    pub dropped: usize,
    pub retried: usize,
    pub rejected: usize,
}

impl Outcome {
    fn of(result: &RunResult) -> Self {
        let rounds = &result.rounds;
        Self {
            param_checksum: result.final_model.param_checksum(),
            loss_bits: rounds.iter().map(|r| r.train_loss.to_bits()).collect(),
            score_bits: rounds.iter().map(|r| r.score.to_bits()).collect(),
            tokens_trained: rounds.iter().map(|r| r.tokens_trained).collect(),
            upload_bytes_dense: result.upload_bytes_dense,
            upload_bytes_compressed: result.upload_bytes_compressed,
            sim_total_h: result.tracker.total_hours(),
            final_score: result.final_score,
            dropped: rounds.iter().map(|r| r.faults.dropped.len()).sum(),
            retried: rounds.iter().map(|r| r.faults.retried.len()).sum(),
            rejected: rounds.iter().map(|r| r.faults.rejected.len()).sum(),
        }
    }

    pub fn tokens(&self) -> usize {
        self.tokens_trained.iter().sum()
    }

    pub fn losses_finite(&self) -> bool {
        self.loss_bits
            .iter()
            .all(|&b| f32::from_bits(b).is_finite())
    }

    /// FNV-1a over the per-round loss, score and token trace: written to
    /// the output so a parent/change pair can be compared step by step.
    pub fn trace_checksum(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |word: u64| {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for i in 0..self.loss_bits.len() {
            fold(u64::from(self.loss_bits[i]));
            fold(u64::from(self.score_bits[i]));
            fold(self.tokens_trained[i] as u64);
        }
        hash
    }
}

/// Timings and results of one repetition.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// `FederatedRun::new` + `start`.
    pub setup_s: f64,
    /// First `start_round` through `finish()`.
    pub run_wall_s: f64,
    /// Per round: from its `start_round` until the next round may start
    /// (so a checkpoint, a restore or a replayed fan-out counts).
    pub round_ms: Vec<f64>,
    pub start_round_ms: Vec<f64>,
    pub finish_round_ms: Vec<f64>,
    pub finish_ms: f64,
    pub checkpoint_ms: Vec<f64>,
    pub midround_ckpt_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    /// Participants materialized for each round.
    pub materialized: Vec<usize>,
    /// Σ `(hits, misses)` of the per-round quantized-model caches.
    pub quant_cache: (usize, usize),
    pub outcome: Outcome,
}

impl Rep {
    /// Participant-rounds dispatched (a fan-out replayed after a restore is
    /// the same round, not a new operation).
    pub fn ops_attempted(&self) -> usize {
        self.materialized.iter().sum()
    }
}

/// How one repetition treats durability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// What the workload specifies: `ckpt_recover` checkpoints and is
    /// killed; the others take no checkpoint.
    AsSpecified,
    /// Never checkpoint or kill: the uninterrupted reference run.
    Uninterrupted,
}

/// Inputs whose seed-determined results (bytes, simulated hours, score,
/// operations, faults) a pass reports, as their mean: every pass but a
/// smoke one runs at least these, however short its budget.
pub const EXACT_INPUTS: usize = 4;

/// The run seed of input `index` of a pass started with `--seed seed`.
///
/// One federated run's wall depends on its inputs — the device fleet sets
/// Flux's budgets, routing sets how many deltas the codec packs — by 15–25 %
/// from seed to seed on four of the five workloads. So a pass does not
/// repeat one input: every repetition runs the next input of a sequence
/// derived from the seed, and a timing's median is taken over many inputs.
/// Input 0 is the seed itself; the rest are splitmix64 draws, so the
/// sequences of neighbouring seeds share nothing.
pub fn input_seed(seed: u64, index: usize) -> u64 {
    if index == 0 {
        return seed;
    }
    let mut z = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What every repetition of a pass shares.
pub struct RepContext {
    pub workload: Workload,
    /// The pass's `--seed`.
    pub seed: u64,
    pub smoke: bool,
    pub threads: usize,
    pub pool: ThreadPool,
    /// Scratch directory for this process's checkpoints.
    pub ckpt_dir: PathBuf,
}

impl RepContext {
    pub fn new(workload: Workload, seed: u64, smoke: bool, out_dir: &Path) -> Self {
        let threads = host::bench_threads();
        Self {
            workload,
            seed,
            smoke,
            threads,
            pool: ThreadPool::new(threads),
            ckpt_dir: out_dir.join(format!("ckpt-{}-{}", workload.name, std::process::id())),
        }
    }

    /// The run seed and configuration of input `index`.
    pub fn input(&self, index: usize) -> (u64, RunConfig) {
        let run_seed = input_seed(self.seed, index);
        (run_seed, self.workload.config(run_seed, self.smoke))
    }

    /// Rounds of one run.
    pub fn rounds(&self) -> usize {
        self.input(0).1.rounds
    }
}

/// Runs one repetition on input `input`: set-up, every round, `finish()`.
pub fn run_rep(ctx: &RepContext, rec: &Recorder, input: usize, durability: Durability) -> Rep {
    let (run_seed, config) = ctx.input(input);
    let method = ctx.workload.method;
    let interrupted = durability == Durability::AsSpecified && ctx.workload.checkpoints();
    let kill_rounds: &[usize] = if interrupted {
        ctx.workload.kill_rounds(ctx.smoke)
    } else {
        &[]
    };
    if interrupted {
        // A fresh directory per repetition, so every repetition's first
        // checkpoint is a full write.
        let _ = std::fs::remove_dir_all(&ctx.ckpt_dir);
    }

    rec.next_run();
    let rounds = config.rounds;
    let run = FederatedRun::new(config, run_seed).with_threads(ctx.threads);
    let (mut active, setup_ms) = rec.span("setup.start", || run.start(method));

    let mut rep = Rep {
        setup_s: setup_ms / 1e3,
        ..Rep::default()
    };
    // Built before the clock starts: the span's time is the system's.
    let round_names: Vec<String> = (0..rounds).map(|r| format!("round[{r}]")).collect();
    let (result, run_ms) = rec.span("run", || {
        for (round, round_name) in round_names.iter().enumerate() {
            let ((), round_ms) = rec.span(round_name, || {
                let ((), ms) =
                    rec.span("core.driver.start_round", || active.start_round(&ctx.pool));
                rep.start_round_ms.push(ms);
                if kill_rounds.contains(&round) {
                    let (stats, ms) = rec.span("core.recovery.midround_checkpoint", || {
                        active.checkpoint(&ctx.ckpt_dir)
                    });
                    stats.expect("mid-round checkpoint writes");
                    rep.midround_ckpt_ms.push(ms);
                    // The kill: only the checkpoint directory survives (the
                    // old run is dropped when the restored one replaces it).
                    let (restored, ms) = rec.span("core.recovery.restore", || {
                        run.restore(method, &ctx.ckpt_dir)
                    });
                    active = restored.expect("restore from the checkpoint just written");
                    rep.restore_ms.push(ms);
                    // The fan-out the kill threw away runs again: recovery
                    // work, though the call is `start_round`.
                    let ((), ms) = rec.span("core.recovery.replayed_start_round", || {
                        active.start_round(&ctx.pool)
                    });
                    rep.start_round_ms.push(ms);
                }
                rep.materialized.push(active.active_participants());
                let ((), ms) = rec.span("core.driver.finish_round", || {
                    active.finish_round(&ctx.pool)
                });
                rep.finish_round_ms.push(ms);
                if interrupted {
                    let (stats, ms) = rec.span("core.recovery.checkpoint", || {
                        active.checkpoint(&ctx.ckpt_dir)
                    });
                    stats.expect("round-boundary checkpoint writes");
                    rep.checkpoint_ms.push(ms);
                }
            });
            rep.round_ms.push(round_ms);
        }
        // A restored run's ledger restarts at the restore point, so after a
        // kill this is a lower bound on the whole run's cache traffic.
        rep.quant_cache = active
            .quant_cache_stats()
            .iter()
            .fold((0, 0), |(h, m), &(hits, misses)| (h + hits, m + misses));
        let (result, ms) = rec.span("core.driver.finish", || active.finish());
        rep.finish_ms = ms;
        result
    });
    rep.run_wall_s = run_ms / 1e3;
    // After the clock stops: checksumming the final model is the
    // benchmark's bookkeeping, not the run's.
    rep.outcome = Outcome::of(&result);
    rep
}

/// One correctness check and what it found.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

pub fn check(name: &str, ok: bool, detail: String) -> Check {
    Check {
        name: name.to_string(),
        ok,
        detail,
    }
}

/// Inputs a pass runs a second time, untimed, to check that a run is a
/// function of its input alone (input 0's second run is the warm-up).
pub const RERUN_INPUTS: usize = 3;

/// The checks every workload runs over its timed repetitions.
/// `reruns[i]` is another run of input `i`, which `reps[i]` ran too;
/// `reference` is the uninterrupted run of input 0 (`ckpt_recover` only).
pub fn check_reps(
    workload: Workload,
    rounds: usize,
    reps: &[Rep],
    reruns: &[Rep],
    reference: Option<&Rep>,
) -> Vec<Check> {
    let first = &reps[0].outcome;
    let mut checks = Vec::new();
    let diverged: Vec<String> = reruns
        .iter()
        .zip(reps)
        .enumerate()
        .filter(|(_, (rerun, rep))| rerun.outcome != rep.outcome)
        .map(|(input, (rerun, rep))| {
            format!(
                "input {input}: final model {:016x} vs {:016x}",
                rerun.outcome.param_checksum, rep.outcome.param_checksum
            )
        })
        .collect();
    checks.push(check(
        "rerun_identical",
        diverged.is_empty(),
        format!(
            "inputs run twice: {}; final model, loss/score trace, tokens and bytes compared{}{}",
            reruns.len().min(reps.len()),
            if diverged.is_empty() { "" } else { " — " },
            diverged.join("; ")
        ),
    ));
    checks.push(check(
        "losses_finite",
        reps.iter().all(|r| r.outcome.losses_finite()),
        format!("{} repetitions of {rounds} rounds", reps.len()),
    ));
    let short = reps
        .iter()
        .filter(|r| r.outcome.loss_bits.len() != rounds)
        .count();
    checks.push(check(
        "all_rounds_recorded",
        short == 0,
        format!("{short} repetitions recorded another number of rounds than {rounds}"),
    ));
    if let Some(reference) = reference {
        checks.push(check(
            "restored_equals_uninterrupted",
            reference.outcome == *first,
            format!(
                "checksum {:016x} restored vs {:016x} uninterrupted",
                first.param_checksum, reference.outcome.param_checksum
            ),
        ));
    }
    if workload.is_fleet_wire() {
        let wrong = reps
            .iter()
            .flat_map(|r| r.materialized.iter())
            .filter(|&&n| n != FLEET_WIRE_COHORT)
            .count();
        checks.push(check(
            "cohort_materializes_64",
            wrong == 0,
            format!("{wrong} rounds materialized another number of clients"),
        ));
        let ratio = reps
            .iter()
            .map(|r| byte_ratio(&r.outcome))
            .fold(f64::INFINITY, f64::min);
        checks.push(check(
            "compression_byte_ratio_above_1",
            ratio > 1.0,
            format!("smallest dense/encoded = {ratio:.3}"),
        ));
    }
    if workload.fault_free() {
        let lost: usize = reps
            .iter()
            .map(|r| r.outcome.dropped + r.outcome.rejected)
            .sum();
        checks.push(check(
            "no_failed_operations",
            lost == 0,
            format!("{lost} uploads dropped or rejected"),
        ));
    }
    checks
}

/// Dense bytes per encoded byte over the whole run (1 for dense uploads).
pub fn byte_ratio(outcome: &Outcome) -> f64 {
    outcome.upload_bytes_dense as f64 / outcome.upload_bytes_compressed.max(1) as f64
}

/// Process-level readings taken around the timed repetitions.
pub struct ProcessReadings {
    /// User + system CPU seconds over the timed repetitions only.
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Set-up times of the extra set-up-only passes.
    pub extra_setup_s: Vec<f64>,
}

/// The per-input samples behind the five timing metrics that have them, in
/// input order (sample `i` ran input `i`): what lets `compare` pair two runs
/// of one seed input by input. Set-up has samples beyond the repetitions,
/// from the set-up-only passes on the inputs that follow.
pub fn timing_samples(reps: &[Rep], extra_setup_s: &[f64]) -> Vec<(&'static str, Vec<f64>)> {
    let per_rep = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let mut setups = per_rep(|r| r.setup_s);
    setups.extend_from_slice(extra_setup_s);
    vec![
        ("setup_s", setups),
        ("run_wall_s", per_rep(|r| r.run_wall_s)),
        (
            "tokens_per_s",
            per_rep(|r| r.outcome.tokens() as f64 / r.run_wall_s),
        ),
        ("round_ms_p50", per_rep(|r| median(&r.round_ms))),
        ("round_ms_p90", per_rep(|r| percentile(&r.round_ms, 0.9))),
    ]
}

/// The twelve end-to-end metrics, in `names::END_TO_END` order. `reps` are
/// in input order (repetition `i` ran input `i`): timings are medians over
/// all of them, seed-determined results are means over the first
/// [`EXACT_INPUTS`].
pub fn end_to_end(reps: &[Rep], process: &ProcessReadings) -> Vec<(&'static str, Stat)> {
    let samples = timing_samples(reps, &process.extra_setup_s);
    let all_rounds: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.round_ms.iter().copied())
        .collect();
    let exact = &reps[..reps.len().min(EXACT_INPUTS)];
    let mean = |f: fn(&Rep) -> f64| exact.iter().map(f).sum::<f64>() / exact.len() as f64;
    let attempted = mean(|r| r.ops_attempted() as f64);
    vec![
        ("setup_s", Stat::of(&samples[0].1)),
        ("run_wall_s", Stat::of(&samples[1].1)),
        ("tokens_per_s", Stat::of(&samples[2].1)),
        // Pooled over every timed round; the spread is that of the
        // per-repetition estimates.
        (
            "round_ms_p50",
            Stat::with_spread_of(median(&all_rounds), &samples[3].1),
        ),
        (
            "round_ms_p90",
            Stat::with_spread_of(percentile(&all_rounds, 0.9), &samples[4].1),
        ),
        (
            "cpu_s_per_run",
            Stat::single(process.cpu_s / reps.len() as f64),
        ),
        ("peak_rss_mb", Stat::single(process.peak_rss_mb)),
        (
            "upload_mb",
            Stat::single(mean(|r| r.outcome.upload_bytes_compressed as f64 / 1e6)),
        ),
        ("sim_total_h", Stat::single(mean(|r| r.outcome.sim_total_h))),
        (
            "final_score",
            Stat::single(mean(|r| f64::from(r.outcome.final_score))),
        ),
        ("ops_attempted", Stat::single(attempted)),
        (
            "failed_share",
            Stat::single(mean(|r| r.outcome.dropped as f64) / attempted.max(1.0)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            param_checksum: 7,
            loss_bits: vec![1.5f32.to_bits(), 1.25f32.to_bits()],
            score_bits: vec![0.5f32.to_bits(), 0.75f32.to_bits()],
            tokens_trained: vec![100, 120],
            upload_bytes_dense: 4_000_000,
            upload_bytes_compressed: 1_000_000,
            sim_total_h: 3.5,
            final_score: 0.75,
            dropped: 1,
            retried: 0,
            rejected: 0,
        }
    }

    fn rep(wall: f64) -> Rep {
        Rep {
            setup_s: 0.01,
            run_wall_s: wall,
            round_ms: vec![wall * 400.0, wall * 600.0],
            start_round_ms: vec![],
            finish_round_ms: vec![],
            finish_ms: 0.0,
            checkpoint_ms: vec![],
            midround_ckpt_ms: vec![],
            restore_ms: vec![],
            materialized: vec![10, 10],
            quant_cache: (0, 0),
            outcome: outcome(),
        }
    }

    #[test]
    fn inputs_derive_from_the_seed_and_neighbouring_seeds_share_none() {
        assert_eq!(input_seed(42, 0), 42);
        assert_eq!(input_seed(42, 3), input_seed(42, 3));
        let of = |seed| (0..16).map(|i| input_seed(seed, i)).collect::<Vec<_>>();
        let (a, b) = (of(42), of(43));
        assert!(a.iter().all(|s| !b.contains(s)));
        let mut unique = a.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), a.len());
    }

    #[test]
    fn trace_checksum_sees_every_round() {
        let a = outcome();
        let mut b = outcome();
        assert_eq!(a.trace_checksum(), b.trace_checksum());
        b.loss_bits[1] ^= 1;
        assert_ne!(a.trace_checksum(), b.trace_checksum());
        b = outcome();
        b.loss_bits[0] = f32::NAN.to_bits();
        assert!(a.losses_finite() && !b.losses_finite());
    }

    #[test]
    fn end_to_end_metrics_are_medians_over_repetitions() {
        let reps = [rep(1.0), rep(2.0), rep(4.0)];
        let process = ProcessReadings {
            cpu_s: 9.0,
            peak_rss_mb: 50.0,
            extra_setup_s: vec![0.03, 0.03],
        };
        let metrics = end_to_end(&reps, &process);
        let get = |name: &str| metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(metrics.len(), crate::names::END_TO_END.len());
        for ((name, _), listed) in metrics.iter().zip(crate::names::END_TO_END.iter()) {
            assert_eq!(*name, listed.name);
        }
        assert_eq!(get("run_wall_s").value, 2.0);
        assert_eq!(get("tokens_per_s").value, 110.0);
        assert_eq!(get("setup_s").n, 5);
        assert_eq!(get("cpu_s_per_run").value, 3.0);
        assert_eq!(get("upload_mb").value, 1.0);
        assert_eq!(get("ops_attempted").value, 20.0);
        assert_eq!(get("failed_share").value, 0.05);
        // Pooled over all six rounds: 400 600 800 1200 1600 2400.
        assert_eq!(get("round_ms_p50").value, 1000.0);
    }

    #[test]
    fn checks_catch_a_diverging_repetition_and_a_lost_upload() {
        let workload = crate::workloads::by_name("dense_small").unwrap();
        let mut clean = rep(1.0);
        clean.outcome.dropped = 0;
        let all_ok = check_reps(
            workload,
            2,
            &[clean.clone(), clean.clone()],
            &[clean.clone(), clean.clone()],
            None,
        );
        assert!(all_ok.iter().all(|c| c.ok), "{all_ok:?}");

        let mut other = clean.clone();
        other.outcome.param_checksum = 8;
        // The second input's rerun diverges, the first one's does not.
        let diverged = check_reps(
            workload,
            2,
            &[clean.clone(), clean.clone()],
            &[clean.clone(), other],
            None,
        );
        assert!(
            !diverged
                .iter()
                .find(|c| c.name == "rerun_identical")
                .unwrap()
                .ok
        );
        let short = check_reps(workload, 3, &[clean.clone()], &[clean.clone()], None);
        assert!(
            !short
                .iter()
                .find(|c| c.name == "all_rounds_recorded")
                .unwrap()
                .ok
        );

        let lossy = check_reps(workload, 2, &[rep(1.0)], &[rep(1.0)], None);
        assert!(
            !lossy
                .iter()
                .find(|c| c.name == "no_failed_operations")
                .unwrap()
                .ok
        );

        let mut reference = clean.clone();
        reference.outcome.sim_total_h += 1.0;
        let restored = check_reps(
            workload,
            2,
            &[clean.clone()],
            &[clean.clone()],
            Some(&reference),
        );
        assert!(
            !restored
                .iter()
                .find(|c| c.name == "restored_equals_uninterrupted")
                .unwrap()
                .ok
        );
    }
}
