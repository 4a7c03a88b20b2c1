//! Running one workload in this process (what the acceptance driver calls,
//! and what the full run spawns once per workload and pass), and the full
//! run that spawns those children and gathers their results.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use flux_core::driver::FederatedRun;

use crate::host::{self, Host};
use crate::json::Value;
use crate::measure::{
    check, check_reps, end_to_end, run_rep, timing_samples, Check, Durability, ProcessReadings,
    Rep, RepContext, EXACT_INPUTS, RERUN_INPUTS,
};
use crate::names::{self, is_gated};
use crate::replay::{extra_runs, from_traced_rep, replay_round0, LayerMetrics};
use crate::stats::{median, Stat};
use crate::trace::{self_ms_by_layer, Recorder};
use crate::workloads::{self, Workload};

/// Seconds a pass measures unless `--seconds` says otherwise:
/// `run_seconds` in `BENCHMARK.json`, so the full run measures each
/// workload exactly as the acceptance driver does.
pub const RUN_SECONDS: f64 = 15.0;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub smoke: bool,
    /// `false`: the end-to-end pass, recorder off. `true`: the per-layer
    /// pass — a traced repetition, the layer replay, probes and extra runs.
    pub trace: bool,
    /// The pass runs repetitions until it has measured this long, and at
    /// least [`Options::min_inputs`] of them.
    pub seconds: f64,
    /// Where checkpoints, traces and result files go.
    pub out_dir: PathBuf,
}

impl Options {
    /// Inputs a pass runs at least: the ones its seed-determined results
    /// are means over (a smoke pass makes do with two).
    fn min_inputs(&self) -> usize {
        if self.smoke {
            2
        } else {
            EXACT_INPUTS
        }
    }
}

/// Calibration drift above which a workload's timings are not trusted.
pub const MAX_CALIB_DRIFT: f64 = 0.10;

/// Set-up samples a pass collects at least (set-up is milliseconds long, so
/// its median needs more samples than the repetitions alone give).
const MIN_SETUP_SAMPLES: usize = 15;

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub smoke: bool,
    pub host: Host,
    /// Timed repetitions, each on an input of its own (the untraced ones in
    /// the per-layer pass).
    pub reps: usize,
    pub rounds_timed: usize,
    pub calib_before_ms: f64,
    pub calib_after_ms: f64,
    /// Set by the full run when a re-run did not cure the drift.
    pub noisy: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Final-model checksum of every timed input, in input order.
    pub param_checksums: Vec<u64>,
    /// Checksum of the per-round loss/score/token trace of every timed
    /// input, in input order.
    pub loss_trace_checksums: Vec<u64>,
    pub checks: Vec<Check>,
    pub metrics: Vec<(String, String, Stat)>,
    /// Per-input samples of the timing metrics, in input order.
    pub samples: Vec<(String, Vec<f64>)>,
    /// Layer → share of the traced run's wall (per-layer pass only).
    pub run_shares: Vec<(String, f64)>,
    /// Layer → share of the replayed round (per-layer pass only).
    pub replay_shares: Vec<(String, f64)>,
}

impl WorkloadResult {
    /// A result that identifies the pass and holds nothing measured yet.
    fn blank(opts: &Options) -> Self {
        Self {
            workload: opts.workload.name.to_string(),
            seed: opts.seed,
            trace: opts.trace,
            smoke: opts.smoke,
            host: Host::fingerprint(),
            reps: 0,
            rounds_timed: 0,
            calib_before_ms: 0.0,
            calib_after_ms: 0.0,
            noisy: false,
            attempted: 0,
            failed: 0,
            param_checksums: Vec::new(),
            loss_trace_checksums: Vec::new(),
            checks: Vec::new(),
            metrics: Vec::new(),
            samples: Vec::new(),
            run_shares: Vec::new(),
            replay_shares: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    pub fn calib_drift(&self) -> f64 {
        (self.calib_after_ms - self.calib_before_ms).abs() / self.calib_before_ms.max(1e-9)
    }

    pub fn metric(&self, name: &str) -> Option<Stat> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, _, stat)| stat)
    }

    pub fn to_json(&self) -> Value {
        let shares = |shares: &[(String, f64)]| {
            Value::Obj(
                shares
                    .iter()
                    .map(|(layer, share)| (layer.clone(), Value::Num(*share)))
                    .collect(),
            )
        };
        // Checksums are 64-bit: hex strings, not JSON numbers.
        let hex = |sums: &[u64]| {
            Value::Arr(
                sums.iter()
                    .map(|sum| Value::Str(format!("{sum:016x}")))
                    .collect(),
            )
        };
        Value::object([
            ("workload", Value::Str(self.workload.clone())),
            ("seed", Value::Num(self.seed as f64)),
            ("trace", Value::Bool(self.trace)),
            ("smoke", Value::Bool(self.smoke)),
            ("host", self.host.to_json()),
            ("reps", Value::Num(self.reps as f64)),
            ("rounds_timed", Value::Num(self.rounds_timed as f64)),
            ("calib_before_ms", Value::Num(self.calib_before_ms)),
            ("calib_after_ms", Value::Num(self.calib_after_ms)),
            ("noisy", Value::Bool(self.noisy)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("param_checksums", hex(&self.param_checksums)),
            ("loss_trace_checksums", hex(&self.loss_trace_checksums)),
            (
                "checks",
                Value::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Value::object([
                                ("name", Value::Str(c.name.clone())),
                                ("ok", Value::Bool(c.ok)),
                                ("detail", Value::Str(c.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, unit, stat)| (name.clone(), stat.to_json(unit)))
                        .collect(),
                ),
            ),
            (
                "samples",
                Value::Obj(
                    self.samples
                        .iter()
                        .map(|(name, values)| {
                            let values = values.iter().map(|v| Value::Num(*v)).collect();
                            (name.clone(), Value::Arr(values))
                        })
                        .collect(),
                ),
            ),
            ("run_shares", shares(&self.run_shares)),
            ("replay_shares", shares(&self.replay_shares)),
        ])
    }

    pub fn samples_of(&self, name: &str) -> Option<&[f64]> {
        self.samples
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, values)| values.as_slice())
    }

    pub fn from_json(doc: &Value) -> Result<Self, String> {
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("result has no `{key}`"));
        let num = |key: &str| {
            field(key)?
                .as_f64()
                .ok_or_else(|| format!("`{key}` is not a number"))
        };
        let flag = |key: &str| {
            field(key)?
                .as_bool()
                .ok_or_else(|| format!("`{key}` is not a flag"))
        };
        let text = |key: &str| {
            field(key)?
                .as_str()
                .ok_or_else(|| format!("`{key}` is not text"))
        };
        let hex = |key: &str| -> Result<Vec<u64>, String> {
            field(key)?
                .as_array()
                .ok_or_else(|| format!("`{key}` is not a list"))?
                .iter()
                .map(|sum| {
                    sum.as_str()
                        .and_then(|text| u64::from_str_radix(text, 16).ok())
                        .ok_or_else(|| format!("`{key}` holds something that is not hex"))
                })
                .collect()
        };
        let shares = |key: &str| -> Result<Vec<(String, f64)>, String> {
            field(key)?
                .as_object()
                .ok_or_else(|| format!("`{key}` is not an object"))?
                .iter()
                .map(|(layer, share)| {
                    Ok((
                        layer.clone(),
                        share.as_f64().ok_or("share is not a number")?,
                    ))
                })
                .collect()
        };
        let host = field("host")?;
        let host_text = |key: &str| {
            host.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("host has no `{key}`"))
        };
        let host_num = |key: &str| {
            host.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("host has no `{key}`"))
        };
        let checks = field("checks")?
            .as_array()
            .ok_or("`checks` is not a list")?
            .iter()
            .map(|c| {
                let name = c
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("check has no name")?;
                Ok(Check {
                    name: name.to_string(),
                    ok: c
                        .get("ok")
                        .and_then(Value::as_bool)
                        .ok_or("check has no verdict")?,
                    detail: c
                        .get("detail")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let metrics = field("metrics")?
            .as_object()
            .ok_or("`metrics` is not an object")?
            .iter()
            .map(|(name, value)| {
                let (stat, unit) = Stat::from_json(value)
                    .ok_or_else(|| format!("metric `{name}` is malformed"))?;
                Ok((name.clone(), unit, stat))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let samples = field("samples")?
            .as_object()
            .ok_or("`samples` is not an object")?
            .iter()
            .map(|(name, values)| {
                let values = values
                    .as_array()
                    .ok_or_else(|| format!("samples of `{name}` are not a list"))?
                    .iter()
                    .map(|v| v.as_f64().ok_or("a sample is not a number"))
                    .collect::<Result<Vec<f64>, _>>()?;
                Ok((name.clone(), values))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            workload: text("workload")?.to_string(),
            seed: num("seed")? as u64,
            trace: flag("trace")?,
            smoke: flag("smoke")?,
            host: Host {
                nproc: host_num("nproc")? as usize,
                threads: host_num("threads")? as usize,
                simd: host_text("simd")?,
                cpu_model: host_text("cpu_model")?,
            },
            reps: num("reps")? as usize,
            rounds_timed: num("rounds_timed")? as usize,
            calib_before_ms: num("calib_before_ms")?,
            calib_after_ms: num("calib_after_ms")?,
            noisy: flag("noisy")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            param_checksums: hex("param_checksums")?,
            loss_trace_checksums: hex("loss_trace_checksums")?,
            checks,
            metrics,
            samples,
            run_shares: shares("run_shares")?,
            replay_shares: shares("replay_shares")?,
        })
    }

    /// The one-line result the acceptance driver reads.
    pub fn contract_line(&self) -> String {
        Value::object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, unit, stat)| {
                            (
                                name.clone(),
                                Value::object([
                                    ("value", Value::Num(stat.value)),
                                    ("unit", Value::Str(unit.clone())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Every metric by name with its unit, the checks and the share tables.
    pub fn print(&self) {
        let pass = if self.trace {
            "per-layer"
        } else {
            "end-to-end"
        };
        println!(
            "== {} seed {} · {pass} pass · {} reps, {} rounds timed · T={} nproc={} simd={} · {}",
            self.workload,
            self.seed,
            self.reps,
            self.rounds_timed,
            self.host.threads,
            self.host.nproc,
            self.host.simd,
            self.host.cpu_model,
        );
        if let Some(workload) = workloads::by_name(&self.workload) {
            println!("  why: {}", workload.why);
        }
        for (name, unit, stat) in &self.metrics {
            if stat.n > 1 {
                println!(
                    "  {name:<40} {:>16.6} {unit:<8} q1 {:.6} q3 {:.6} n {}",
                    stat.value, stat.q1, stat.q3, stat.n
                );
            } else {
                println!("  {name:<40} {:>16.6} {unit}", stat.value);
            }
        }
        for (title, shares) in [
            ("share of the traced run's wall", &self.run_shares),
            ("share of the replayed round", &self.replay_shares),
        ] {
            if !shares.is_empty() {
                println!("  {title}:");
                for (layer, share) in shares {
                    println!("    {layer:<24} {:>6.1} %", share * 100.0);
                }
            }
        }
        println!(
            "  calibration {:.2} ms before, {:.2} ms after (drift {:.1} %){}",
            self.calib_before_ms,
            self.calib_after_ms,
            self.calib_drift() * 100.0,
            if self.calib_drift() > MAX_CALIB_DRIFT {
                " — NOISY: timings of this pass are suspect"
            } else {
                ""
            }
        );
        println!(
            "  {} operations, {} failed · input 0: final model {:016x}, loss/score/token trace {:016x} ({} inputs in the result file)",
            self.attempted,
            self.failed,
            self.param_checksums.first().copied().unwrap_or(0),
            self.loss_trace_checksums.first().copied().unwrap_or(0),
            self.param_checksums.len(),
        );
        for c in &self.checks {
            println!(
                "  [{}] {} — {}",
                if c.ok { "ok" } else { "FAILED" },
                c.name,
                c.detail
            );
        }
    }
}

fn metric_rows(values: Vec<(&'static str, Stat)>) -> Vec<(String, String, Stat)> {
    values
        .into_iter()
        .map(|(name, stat)| {
            let unit = names::find(name).map_or("", |m| m.unit);
            (name.to_string(), unit.to_string(), stat)
        })
        .collect()
}

/// Runs `workload` in this process and returns its result. A repetition
/// that panics fails the workload: every operation counts as failed.
pub fn run_workload(opts: &Options) -> WorkloadResult {
    let config = opts.workload.config(opts.seed, opts.smoke);
    let planned_ops = config.cohort_size.unwrap_or(config.num_participants) * config.rounds;
    let calib_before_ms = host::calib_ms();
    let measured = catch_unwind(AssertUnwindSafe(|| {
        if opts.trace {
            per_layer_pass(opts)
        } else {
            end_to_end_pass(opts)
        }
    }));
    let calib_after_ms = host::calib_ms();
    let mut result = measured.unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("a repetition panicked");
        let listed: Vec<(&'static str, Stat)> = if opts.trace {
            traced_metric_names()
                .map(|name| (name, Stat::single(0.0)))
                .collect()
        } else {
            names::gated()
                .map(|name| (name, Stat::single(0.0)))
                .collect()
        };
        WorkloadResult {
            attempted: planned_ops as u64,
            failed: planned_ops as u64,
            checks: vec![check("no_panic", false, message.to_string())],
            metrics: metric_rows(listed),
            ..WorkloadResult::blank(opts)
        }
    });
    result.calib_before_ms = calib_before_ms;
    result.calib_after_ms = calib_after_ms;
    if let Some(row) = result
        .metrics
        .iter_mut()
        .find(|(n, _, _)| n == "host.calib_ms")
    {
        row.2 = Stat::single(calib_before_ms);
    }
    result
}

/// Names printed by the per-layer pass: the seed-determined end-to-end
/// metrics, then every per-layer metric.
fn traced_metric_names() -> impl Iterator<Item = &'static str> {
    names::END_TO_END
        .iter()
        .map(|m| m.name)
        .filter(|name| !is_gated(name))
        .chain(names::PER_LAYER.iter().map(|m| m.name))
}

/// What every pass reports about its repetitions, before its metrics.
fn pass_result(opts: &Options, reps: &[Rep], checks: Vec<Check>) -> WorkloadResult {
    let attempted: usize = reps.iter().map(Rep::ops_attempted).sum();
    let correct = checks.iter().all(|c| c.ok);
    WorkloadResult {
        reps: reps.len(),
        rounds_timed: reps.iter().map(|r| r.round_ms.len()).sum(),
        attempted: attempted as u64,
        // Operations whose outcome was wrong. Uploads the seeded fault
        // plan and the quorum cut drop on purpose are the workload's
        // designed behaviour: they are `failed_share`, not failures.
        failed: if correct { 0 } else { attempted as u64 },
        param_checksums: reps.iter().map(|r| r.outcome.param_checksum).collect(),
        loss_trace_checksums: reps.iter().map(|r| r.outcome.trace_checksum()).collect(),
        checks,
        ..WorkloadResult::blank(opts)
    }
}

/// The end-to-end pass: warm-up, timed repetitions with the recorder off —
/// repetition `i` on input `i` — extra set-ups, the checks.
fn end_to_end_pass(opts: &Options) -> WorkloadResult {
    let ctx = RepContext::new(opts.workload, opts.seed, opts.smoke, &opts.out_dir);
    let off = Recorder::new(false);

    // Untimed: pool workers spawned, scratch arenas at their high water.
    // It runs input 0, which the first timed repetition runs again: the
    // two must agree bit for bit.
    let mut reruns = vec![run_rep(&ctx, &off, 0, Durability::AsSpecified)];

    let cpu_before = host::cpu_seconds();
    let started = Instant::now();
    let mut reps = Vec::new();
    loop {
        reps.push(run_rep(&ctx, &off, reps.len(), Durability::AsSpecified));
        if reps.len() >= opts.min_inputs() && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let cpu_s = host::cpu_seconds() - cpu_before;

    let mut extra_setup_s = Vec::new();
    for index in reps.len()..MIN_SETUP_SAMPLES {
        let (run_seed, config) = ctx.input(index);
        let start = Instant::now();
        let run = FederatedRun::new(config, run_seed).with_threads(ctx.threads);
        std::hint::black_box(run.start(ctx.workload.method));
        extra_setup_s.push(start.elapsed().as_secs_f64());
    }

    for input in 1..RERUN_INPUTS.min(reps.len()) {
        reruns.push(run_rep(&ctx, &off, input, Durability::AsSpecified));
    }
    let reference = ctx
        .workload
        .checkpoints()
        .then(|| run_rep(&ctx, &off, 0, Durability::Uninterrupted));
    let checks = check_reps(
        ctx.workload,
        ctx.rounds(),
        &reps,
        &reruns,
        reference.as_ref(),
    );
    let _ = std::fs::remove_dir_all(&ctx.ckpt_dir);

    let process = ProcessReadings {
        cpu_s,
        peak_rss_mb: host::peak_rss_mb(),
        extra_setup_s,
    };
    let mut result = pass_result(opts, &reps, checks);
    result.metrics = metric_rows(
        end_to_end(&reps, &process)
            .into_iter()
            .filter(|(name, _)| is_gated(name))
            .collect(),
    );
    result.samples = timing_samples(&reps, &process.extra_setup_s)
        .into_iter()
        .map(|(name, values)| (name.to_string(), values))
        .collect();
    result
}

/// The per-layer pass: pairs of an untraced and a traced repetition, the
/// layer replay, the probes and the extra runs.
fn per_layer_pass(opts: &Options) -> WorkloadResult {
    let ctx = RepContext::new(opts.workload, opts.seed, opts.smoke, &opts.out_dir);
    let off = Recorder::new(false);
    let on = Recorder::new(true);

    let warm_up = run_rep(&ctx, &off, 0, Durability::AsSpecified);
    // Pair `p` runs input `p` untraced, then traced: the two must agree bit
    // for bit, and alternating them puts slow drift of the host on both
    // sides of the overhead comparison. About half of the budget goes to
    // the pairs; the rest to the replay and the extra runs.
    let pairs = ((0.25 * opts.seconds / warm_up.run_wall_s.max(1e-3)) as usize).clamp(1, 3);
    let mut reps = Vec::new();
    let mut traced_reps = Vec::new();
    // What is read off "the traced run" — its shares, counts and medians —
    // is read off input 0's, whatever the number of pairs.
    let mut scratch_misses = 0;
    let mut traced_run = 0;
    for input in 0..pairs {
        reps.push(run_rep(&ctx, &off, input, Durability::AsSpecified));
        let before = flux_tensor::scratch::stats();
        traced_reps.push(run_rep(&ctx, &on, input, Durability::AsSpecified));
        if input == 0 {
            let after = flux_tensor::scratch::stats();
            scratch_misses =
                (after.misses - before.misses) + (after.arena_misses - before.arena_misses);
            traced_run = on.spans().last().map_or(0, |s| s.run);
        }
    }
    // Round by round within each pair: the same round does the same work
    // traced or not, and one disturbed round then moves one sample of many
    // instead of a whole run's wall.
    let overhead: Vec<f64> = reps
        .iter()
        .zip(&traced_reps)
        .flat_map(|(untraced, traced)| {
            traced
                .round_ms
                .iter()
                .zip(&untraced.round_ms)
                .map(|(t, u)| t / u - 1.0)
        })
        .collect();
    let perturbed = reps
        .iter()
        .zip(&traced_reps)
        .filter(|(untraced, traced)| untraced.outcome != traced.outcome)
        .count();
    // The seed-determined results are means over the first inputs; run
    // the ones the pairs did not reach.
    for input in pairs..opts.min_inputs() {
        reps.push(run_rep(&ctx, &off, input, Durability::AsSpecified));
    }
    let traced = &traced_reps[0];

    let mut m = LayerMetrics::default();
    from_traced_rep(traced, &mut m);
    m.set("tensor.scratch_misses", scratch_misses as f64);
    m.set("trace.overhead_share", median(&overhead));
    on.count("tensor.scratch_misses", m.get("tensor.scratch_misses"));
    on.count(
        "core.profiling.quant_cache_hits",
        traced.quant_cache.0 as f64,
    );
    on.count(
        "core.profiling.quant_cache_misses",
        traced.quant_cache.1 as f64,
    );
    on.count("fl.fault.dropped", traced.outcome.dropped as f64);
    on.count("fl.fault.retried", traced.outcome.retried as f64);
    on.count("fl.fault.rejected", traced.outcome.rejected as f64);

    // Shares of that traced run.
    let run_ms = traced.run_wall_s * 1e3;
    let mut run_shares: Vec<(String, f64)> = self_ms_by_layer(&on.spans(), traced_run)
        .into_iter()
        .filter(|(layer, _)| layer != "setup")
        .map(|(layer, ms)| (layer, ms / run_ms))
        .collect();
    run_shares.sort_by(|a, b| b.1.total_cmp(&a.1));

    // The replay and the extra runs use input 0 too.
    let replay = replay_round0(&ctx, &on, traced.round_ms[0], &mut m);
    extra_runs(&ctx, reps[0].run_wall_s, &mut m);
    // The replay checkpoints below this directory too.
    let _ = std::fs::remove_dir_all(&ctx.ckpt_dir);

    let trace_path = opts
        .out_dir
        .join(format!("trace-{}.jsonl", ctx.workload.name));
    if let Err(error) =
        std::fs::create_dir_all(&opts.out_dir).and_then(|()| on.write_jsonl(&trace_path))
    {
        eprintln!(
            "benchmark: could not write {}: {error}",
            trace_path.display()
        );
    }

    // Every pair is a rerun too: its traced run must equal its untraced.
    let mut checks = check_reps(ctx.workload, ctx.rounds(), &reps, &[warm_up], None);
    checks.push(check(
        "tracing_does_not_perturb",
        perturbed == 0,
        format!("{pairs} pairs on one input each, {perturbed} whose traced run differs from the untraced"),
    ));
    checks.extend(replay.checks);

    let process = ProcessReadings {
        cpu_s: 0.0,
        peak_rss_mb: 0.0,
        extra_setup_s: Vec::new(),
    };
    let mut rows: Vec<(&'static str, Stat)> = end_to_end(&reps, &process)
        .into_iter()
        .filter(|(name, _)| !is_gated(name))
        .collect();
    rows.extend(
        names::PER_LAYER
            .iter()
            .map(|metric| (metric.name, Stat::single(m.get(metric.name)))),
    );
    let mut result = pass_result(opts, &reps, checks);
    result.metrics = metric_rows(rows);
    result.run_shares = run_shares;
    result.replay_shares = replay.shares;
    result
}

fn result_file(out_dir: &Path, workload: &str, seed: u64, trace: bool) -> PathBuf {
    out_dir.join(format!(
        "{workload}-seed{seed}-{}.json",
        if trace { "layers" } else { "e2e" }
    ))
}

/// Runs one workload and writes its result where the full run looks for it.
pub fn run_and_save(opts: &Options) -> WorkloadResult {
    let result = run_workload(opts);
    let path = result_file(&opts.out_dir, opts.workload.name, opts.seed, opts.trace);
    let written = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, result.to_json().render() + "\n"));
    if let Err(error) = written {
        eprintln!("benchmark: could not write {}: {error}", path.display());
    }
    result
}

/// Spawns this binary for one workload and pass, waits for it and reads the
/// result it wrote. One child at a time, so only one process makes load.
fn spawn_pass(
    workload: Workload,
    seed: u64,
    smoke: bool,
    trace: bool,
    out_dir: &Path,
) -> Result<WorkloadResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir);
    if smoke {
        command.arg("--smoke");
    }
    let status = command
        .status()
        .map_err(|e| format!("cannot start {}: {e}", workload.name))?;
    if !status.success() {
        return Err(format!("{} ({status})", workload.name));
    }
    let path = result_file(out_dir, workload.name, seed, trace);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    WorkloadResult::from_json(&Value::parse(&text)?)
}

/// A pass under the noise guard: when the calibration loop reads more than
/// 10 % apart before and after, the pass is run once more; if the second
/// run drifts too, its result is kept and marked noisy.
fn guarded_pass(
    workload: Workload,
    seed: u64,
    smoke: bool,
    trace: bool,
    out_dir: &Path,
) -> Result<WorkloadResult, String> {
    let mut result = spawn_pass(workload, seed, smoke, trace, out_dir)?;
    if result.calib_drift() > MAX_CALIB_DRIFT {
        println!(
            "-- {}: calibration drifted {:.1} %, running the pass again",
            workload.name,
            result.calib_drift() * 100.0
        );
        result = spawn_pass(workload, seed, smoke, trace, out_dir)?;
        result.noisy = result.calib_drift() > MAX_CALIB_DRIFT;
    }
    Ok(result)
}

/// The whole benchmark: every workload, both passes, each in a fresh child
/// process. Writes `results-seed<N>.json` and returns whether every check
/// of every workload passed.
pub fn run_all(seed: u64, smoke: bool, out_dir: &Path) -> Result<bool, String> {
    let started = Instant::now();
    let mut runs = Vec::new();
    for &workload in workloads::all() {
        for trace in [false, true] {
            runs.push(guarded_pass(workload, seed, smoke, trace, out_dir)?);
        }
    }
    let all_correct = runs.iter().all(WorkloadResult::correct);
    let doc = Value::object([
        ("schema", Value::Num(1.0)),
        ("seed", Value::Num(seed as f64)),
        ("smoke", Value::Bool(smoke)),
        ("host", Host::fingerprint().to_json()),
        ("correct", Value::Bool(all_correct)),
        (
            "runs",
            Value::Arr(runs.iter().map(WorkloadResult::to_json).collect()),
        ),
    ]);
    let name = if smoke { "smoke" } else { "results" };
    let path = out_dir.join(format!("{name}-seed{seed}.json"));
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;

    println!(
        "== summary (seed {seed}{})",
        if smoke { ", smoke" } else { "" }
    );
    for run in runs.iter().filter(|r| !r.trace) {
        let wall = run.metric("run_wall_s").map_or(0.0, |s| s.value);
        let tokens = run.metric("tokens_per_s").map_or(0.0, |s| s.value);
        println!(
            "  {:<18} run_wall_s {wall:>9.4}  tokens_per_s {tokens:>10.1}  {}{}",
            run.workload,
            if runs
                .iter()
                .filter(|r| r.workload == run.workload)
                .all(WorkloadResult::correct)
            {
                "checks ok"
            } else {
                "CHECKS FAILED"
            },
            if runs.iter().any(|r| r.workload == run.workload && r.noisy) {
                "  noisy"
            } else {
                ""
            },
        );
    }
    println!(
        "  wrote {} in {:.1} s",
        path.display(),
        started.elapsed().as_secs_f64()
    );
    Ok(all_correct)
}

/// The workload results stored in a file written by [`run_all`] (or a
/// single result written by [`run_and_save`]).
pub fn load_results(path: &Path) -> Result<Vec<WorkloadResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match doc.get("runs").and_then(Value::as_array) {
        Some(runs) => runs.iter().map(WorkloadResult::from_json).collect(),
        None => Ok(vec![WorkloadResult::from_json(&doc)?]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_options(name: &str, trace: bool, tag: &str) -> Options {
        Options {
            workload: workloads::by_name(name).unwrap(),
            seed: 42,
            smoke: true,
            trace,
            seconds: 0.0,
            // Below the package's own git-ignored build directory: the
            // tests write nothing outside the repository.
            out_dir: Path::new(env!("CARGO_MANIFEST_DIR"))
                .join(format!("target/test-{tag}-{}", std::process::id())),
        }
    }

    #[test]
    fn smoke_workload_runs_end_to_end_and_round_trips_through_json() {
        let opts = smoke_options("ckpt_recover", false, "e2e");
        let result = run_and_save(&opts);
        assert!(result.correct(), "{:?}", result.checks);
        assert!(result
            .checks
            .iter()
            .any(|c| c.name == "restored_equals_uninterrupted"));
        assert_eq!(result.reps, 2);
        assert_eq!(result.failed, 0);
        assert!(result.attempted > 0);
        let printed: Vec<&str> = result.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(printed, names::gated().collect::<Vec<_>>());
        assert!(result.metrics.iter().all(|(_, _, stat)| stat.value > 0.0));

        let line = Value::parse(&result.contract_line()).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

        let path = result_file(&opts.out_dir, "ckpt_recover", 42, false);
        let loaded = load_results(&path).unwrap();
        assert_eq!(loaded, vec![result]);
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }

    #[test]
    fn smoke_per_layer_pass_replays_round0_bit_for_bit_and_times_the_layers_that_run() {
        // A Flux workload with dense uploads, and an FMD one with encoded
        // uploads: each reads 0 on the layers its own rounds never call.
        for (name, largest_layer, runs, idle) in [
            (
                "flux_small",
                "core.merging",
                "core.merging.build_ms",
                "fl.compress.encode_ms",
            ),
            (
                "fleet_wire",
                "fl.compress",
                "fl.compress.encode_ms",
                "core.merging.build_ms",
            ),
        ] {
            let opts = smoke_options(name, true, name);
            let result = run_workload(&opts);
            assert!(result.correct(), "{name}: {:?}", result.checks);
            for check in [
                "replay_reproduces_round0_model",
                "replay_local_train_matches_library",
            ] {
                assert!(
                    result.checks.iter().any(|c| c.name == check),
                    "{name}: {check} did not run"
                );
            }
            let printed: Vec<&str> = result.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
            assert_eq!(printed, traced_metric_names().collect::<Vec<_>>());
            assert!(result.metric(runs).unwrap().value > 0.0, "{name}: {runs}");
            assert_eq!(result.metric(idle).unwrap().value, 0.0, "{name}: {idle}");
            assert_eq!(
                result.metric("core.recovery.restore_ms").unwrap().value,
                0.0
            );
            assert!(result.metric("tensor.gemm_gflops").unwrap().value > 0.0);
            assert!(result.metric("final_score").unwrap().value > 0.0);
            assert_eq!(result.replay_shares[0].0, largest_layer, "{name}");
            assert!(opts.out_dir.join(format!("trace-{name}.jsonl")).exists());
            let _ = std::fs::remove_dir_all(&opts.out_dir);
        }
    }
}
