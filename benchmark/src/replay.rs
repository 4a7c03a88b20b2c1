//! The per-layer pass: an outside-in replay of round 0 through the public
//! functions each phase of a round is made of, plus the probes and the
//! extra runs that give the remaining per-layer metrics.
//!
//! Nothing here reaches inside the program. The replay rebuilds the
//! dataset and the fleet from the same generator configuration and seed as
//! `FederatedRun::start`, takes the round-0 global snapshot from a real
//! `ActiveRun`, and then calls — in the driver's order, once per cohort
//! participant — profiling, assignment, merging, local training, SPSA,
//! encoding and staging, followed by the server tail. On fault-free
//! workloads it then checks that the model it aggregated is bit-identical
//! to the one the real driver produces for round 0, so the timed calls are
//! known to be the calls a round makes. A call the workload's own round
//! never makes (the Flux layers under FMD, the codec on dense uploads,
//! checkpoints where none are taken) is not made here either: its metric
//! reads 0 on that workload.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use flux_core::assignment::{initial_utilities, ExpertUtility, ForwardGradEstimator, RoleAssigner};
use flux_core::baselines::local_train;
use flux_core::driver::{ExecutionMode, FederatedRun, Method, RunConfig};
use flux_core::merging::CompactModelPlan;
use flux_core::profiling::{QuantizedModelCache, StaleProfiler};
use flux_core::scheduler::{JobSpec, SchedulePolicy, Scheduler};
use flux_core::CohortSampler;
use flux_data::{DatasetConfig, DatasetGenerator, Sample, SampleStream};
use flux_fl::{
    load_store, AggregationTree, EncodedUpload, ExpertUpdate, FleetSpec, Participant,
    ShardedAggregator, ShardedStore, DEFAULT_SHARDS,
};
use flux_metrics::exact_match_accuracy;
use flux_moe::{ExpertKey, GradientSet, MoeModel};
use flux_quant::{quantized_matmul, QuantizedMatrix};
use flux_tensor::kmeans::KMeans;
use flux_tensor::pca::Pca;
use flux_tensor::{Matrix, SeededRng};
use threadpool::ThreadPool;

use crate::host;
use crate::measure::{byte_ratio, check, Check, Rep, RepContext};
use crate::stats::median;
use crate::trace::{self_ms_by_layer, Recorder, Span};

/// Per-layer metric values by name; anything never set reads 0.
#[derive(Default)]
pub struct LayerMetrics(Vec<(&'static str, f64)>);

impl LayerMetrics {
    /// Sets `name`, replacing an earlier value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(crate::names::find(name).is_some(), "unlisted metric {name}");
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

pub struct Replay {
    pub checks: Vec<Check>,
    /// Each layer's share of the replayed round (its self time ÷ the wall
    /// of the replayed round), largest first. `replay` is the harness's own
    /// share: clones, bookkeeping and the spans themselves.
    pub shares: Vec<(String, f64)>,
}

/// Median milliseconds of `iters` calls of `f`.
fn bench_ms<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// `local_train`'s loop, call for call, with a span around each call into
/// the model, so the time inside local training is attributed to `moe`.
fn train_decomposed(
    rec: &Recorder,
    model: &mut MoeModel,
    samples: &[Sample],
    tuning: Option<&HashSet<ExpertKey>>,
    learning_rate: f32,
    batch_size: usize,
) -> (f32, Option<GradientSet>) {
    let mut total_loss = 0.0;
    let mut total_samples = 0usize;
    let mut last_grads = None;
    for chunk in samples.chunks(batch_size.max(1)) {
        let (mut grads, _) = rec.span("moe.batch_gradients", || {
            model.batch_gradients(chunk, tuning)
        });
        let scale = 1.0 / grads.samples.max(1) as f32;
        grads.head_grad.scale_in_place(scale);
        for g in grads.expert_grads.values_mut() {
            g.scale(scale);
        }
        rec.span("moe.apply_gradients", || {
            model.apply_gradients(&grads, learning_rate)
        });
        total_loss += grads.loss * grads.samples as f32;
        total_samples += grads.samples;
        last_grads = Some(grads);
    }
    (total_loss / total_samples.max(1) as f32, last_grads)
}

/// One participant's dense upload: its id, expert updates and task head.
type Upload = (usize, Vec<ExpertUpdate>, Option<(Matrix, f32)>);

/// What one replayed participant hands to the staging layer, and what the
/// probes after its span need.
struct Local {
    /// The compact model local training starts from; `None` under FMD,
    /// which starts from the global model itself.
    pretrain: Option<MoeModel>,
    /// The model after local training (and the SPSA probes, which restore
    /// every expert they perturb bit for bit).
    trained: MoeModel,
    loss: f32,
    samples: Vec<Sample>,
    tuning: Option<HashSet<ExpertKey>>,
    updates: Vec<ExpertUpdate>,
    head: (Matrix, f32),
    compact_experts: usize,
}

/// One Flux participant's round 0, mirroring the driver's private
/// `flux_local_round` through public calls only (same order, same RNG
/// stream, so the upload is the one the driver would produce).
fn flux_local(
    rec: &Recorder,
    cfg: &RunConfig,
    participant: &Participant,
    global: &MoeModel,
    quant_cache: &QuantizedModelCache,
    assigner: &RoleAssigner,
    rng: &mut SeededRng,
) -> Local {
    let config = &global.config;
    let reference_tokens = participant
        .tokens_per_round()
        .saturating_mul(cfg.reference_token_scale)
        .max(1);

    // Round 0 has no stale profile: quantize (once per width per round,
    // through the shared cache) and profile on the critical path.
    rec.span("quant.quantize_model", || {
        quant_cache.get_or_quantize(global, cfg.profiling.width)
    });
    let mut profiler = StaleProfiler::new(cfg.profiling);
    let (profile, _) = rec.span("core.profiling.refresh", || {
        profiler.refresh_blocking_cached(global, &participant.train_data, quant_cache)
    });

    let capacity = participant.expert_capacity(config);
    let tuning_budget = participant
        .device
        .tuning_capacity(config, reference_tokens)
        .min(capacity);
    let non_tuning_budget = capacity.saturating_sub(tuning_budget).max(1);
    let (assignment, _) = rec.span("core.assignment.assign", || {
        let bootstrap = initial_utilities(&profile);
        let table: HashMap<ExpertKey, ExpertUtility> =
            bootstrap.iter().map(|u| (u.key, *u)).collect();
        let all_keys = global.expert_keys();
        assigner.assign_with_table(Some(&table), &all_keys, tuning_budget, 0, rng)
    });
    let tuning_set = assignment.tuning_set();

    let (plan, _) = rec.span("core.merging.build", || {
        CompactModelPlan::build(
            global,
            &profile,
            &tuning_set,
            non_tuning_budget,
            cfg.merging,
            rng,
        )
    });
    let (mut compact, _) = rec.span("core.merging.apply", || plan.apply(global, &profile));
    let key_map = plan.tuning_key_map();

    let mut selected: BTreeSet<usize> = BTreeSet::new();
    for key in &assignment.exploitation {
        selected.extend(profile.samples_of(*key).iter().copied());
    }
    let samples: Vec<Sample> = if selected.is_empty() {
        participant.train_data.samples.clone()
    } else {
        selected
            .iter()
            .filter_map(|&i| participant.train_data.samples.get(i).cloned())
            .collect()
    };
    let tuning: HashSet<ExpertKey> = assignment
        .exploitation
        .iter()
        .filter_map(|k| key_map.get(k).copied())
        .collect();

    let pretrain = compact.clone();
    let ((loss, _), _) = rec.span("core.baselines.local_train", || {
        train_decomposed(
            rec,
            &mut compact,
            &samples,
            Some(&tuning),
            cfg.learning_rate,
            cfg.batch_size,
        )
    });
    // The driver's estimator and its cap of four exploration experts.
    let estimator = ForwardGradEstimator {
        sigma: 0.02,
        num_perturbations: 1,
        samples_per_eval: 1,
    };
    rec.span("core.assignment.spsa", || {
        for original in assignment.exploration.iter().take(4) {
            if let Some(compact_key) = key_map.get(original) {
                estimator.estimate_utility_in_place(
                    &mut compact,
                    *compact_key,
                    &samples,
                    profile.samples_of(*original).len(),
                    rng,
                );
            }
        }
    });

    let weight = samples.len().max(1) as f32;
    let updates = assignment
        .exploitation
        .iter()
        .filter_map(|original| {
            key_map.get(original).map(|compact_key| ExpertUpdate {
                key: *original,
                expert: compact.expert(*compact_key).clone(),
                weight,
            })
        })
        .collect();
    Local {
        pretrain: Some(pretrain),
        head: (compact.active_head().clone(), weight),
        trained: compact,
        loss,
        samples,
        tuning: Some(tuning),
        updates,
        compact_experts: plan.total_compact_experts(),
    }
}

/// One FMD participant's round 0: train a copy of the full model, upload
/// every expert (`fmd_local_round` through public calls).
fn fmd_local(
    rec: &Recorder,
    cfg: &RunConfig,
    participant: &Participant,
    global: &MoeModel,
) -> Local {
    let samples = participant.train_data.samples.clone();
    let mut model = global.clone();
    let ((loss, _), _) = rec.span("core.baselines.local_train", || {
        train_decomposed(
            rec,
            &mut model,
            &samples,
            None,
            cfg.learning_rate,
            cfg.batch_size,
        )
    });
    let weight = samples.len().max(1) as f32;
    let updates = model
        .expert_keys()
        .into_iter()
        .map(|key| ExpertUpdate {
            key,
            expert: model.expert(key).clone(),
            weight,
        })
        .collect();
    Local {
        pretrain: None,
        head: (model.active_head().clone(), weight),
        trained: model,
        loss,
        samples,
        tuning: None,
        updates,
        compact_experts: 0,
    }
}

/// Durations (ms) of the spans called `name`.
fn span_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
}

/// Replays round 0 of input 0 and runs the probes. `round0_ms` is the wall
/// of that round in the traced run, the base of
/// `core.driver.replay_coverage`.
pub fn replay_round0(
    ctx: &RepContext,
    rec: &Recorder,
    round0_ms: f64,
    m: &mut LayerMetrics,
) -> Replay {
    let cfg = &ctx.input(0).1;
    let method = ctx.workload.method;
    let mut checks = Vec::new();
    rec.next_run();
    let first_span = rec.spans().len();

    // The inputs, derived exactly as `FederatedRun::start` derives them.
    let root = SeededRng::new(ctx.seed);
    let mut data_rng = root.derive(1);
    let mut fleet_rng = root.derive(2);
    let round_rng = root.derive(4);
    let model_config = match cfg.dataset_kind.num_classes() {
        Some(classes) => cfg.model_config.clone().with_classes(classes),
        None => cfg.model_config.clone(),
    };
    let generator = DatasetGenerator::new(
        DatasetConfig::for_kind(cfg.dataset_kind, model_config.vocab_size)
            .with_num_samples(cfg.num_samples),
    );
    let (dataset, generate_ms) = rec.span("data.generate", || generator.generate(&mut data_rng));
    m.set("data.generate_ms", generate_ms);
    let (train, test) = dataset.train_test_split(0.8);
    let eval_indices: Vec<usize> = (0..test.len().min(cfg.eval_samples)).collect();
    let eval_set = test.subset(&eval_indices);
    let train = Arc::new(train);
    let (mut registry, registry_ms) = rec.span("fl.participant.registry_build", || {
        FleetSpec::build(
            Arc::clone(&train),
            cfg.num_participants,
            cfg.non_iid_alpha,
            &mut fleet_rng,
        )
    });
    m.set("fl.participant.registry_build_ms", registry_ms);
    if let Some(link) = cfg.link {
        registry.override_link(link);
    }

    // The round-0 global snapshot and cohort come from a real run, which
    // afterwards executes round 0 itself as the replay's reference.
    let run = FederatedRun::new(cfg.clone(), ctx.seed).with_threads(ctx.threads);
    let mut real = run.start(method);
    let global: Arc<MoeModel> = real.store().snapshot();
    let cohort = real.cohort_of(0);

    let store = ShardedStore::new((*global).clone(), DEFAULT_SHARDS);
    // Where the workload checkpoints, the store's share of a checkpoint
    // (`ActiveRun::checkpoint` calls it) is timed on the replay's store,
    // outside the replayed round: full now, incremental after the round.
    let ckpt_dir = ctx.ckpt_dir.join("replay");
    if ctx.workload.checkpoints() {
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let (stats, ms) = rec.span("fl.snapshot.checkpoint_full", || {
            store.checkpoint(&ckpt_dir, &[])
        });
        stats.expect("full checkpoint of the replay store writes");
        m.set("fl.snapshot.ckpt_full_ms", ms);
    }
    let aggregator = AggregationTree::new(store.begin_round(), cfg.aggregation_edges);
    let quant_cache = QuantizedModelCache::new();
    let assigner = RoleAssigner::new(cfg.epsilon);

    let mut local_train_ms = Vec::new();
    let mut decode_ms = Vec::new();
    let mut compact_experts = Vec::new();
    let mut decomposition_faithful = true;
    let mut first_local: Option<(MoeModel, Vec<Sample>, Option<HashSet<ExpertKey>>)> = None;
    let mut encoded_uploads: Vec<(usize, EncodedUpload)> = Vec::new();
    // Dense copies of every upload, to stage a second aggregator with.
    let mut staged: Vec<Upload> = Vec::new();
    // The replayed round gets a run identifier of its own, so its spans can
    // be told from the set-up before it and the probes after it. Its
    // top-level spans are the participants, one after another, then the
    // server tail; what runs between them is not part of the round.
    rec.next_run();
    let round_run = rec.spans().len();
    for &id in &cohort {
        let (local, _) = rec.span("replay.participant", || {
            let (participant, _) =
                rec.span("fl.participant.materialize", || registry.materialize(id));
            let local = match method {
                Method::Flux => {
                    let mut rng = round_rng.derive(id as u64);
                    rec.span("core.driver.flux_local_round", || {
                        flux_local(
                            rec,
                            cfg,
                            &participant,
                            &global,
                            &quant_cache,
                            &assigner,
                            &mut rng,
                        )
                    })
                    .0
                }
                _ => {
                    rec.span("core.baselines.fmd_local_round", || {
                        fmd_local(rec, cfg, &participant, &global)
                    })
                    .0
                }
            };
            let head = Some(local.head.clone());
            if cfg.compression.is_dense() {
                let updates = local.updates.clone();
                rec.span("fl.aggregate.submit", || {
                    aggregator.submit(id, updates, head)
                });
            } else {
                let (encoded, _) = rec.span("fl.compress.encode", || {
                    EncodedUpload::encode(&local.updates, head.as_ref(), &global, cfg.compression)
                });
                let (accepted, _) = rec.span("fl.aggregate.submit", || {
                    aggregator.submit_encoded(id, &encoded, &global)
                });
                accepted.expect("an upload encoded against this snapshot decodes against it");
                encoded_uploads.push((id, encoded));
            }
            local
        });

        // Between participants, outside every span: the real `local_train`
        // from the same starting model must land on the same weights and
        // loss as the decomposed loop the span tree timed.
        let mut model = local.pretrain.unwrap_or_else(|| (*global).clone());
        if first_local.is_none() {
            first_local = Some((model.clone(), local.samples.clone(), local.tuning.clone()));
        }
        let start = Instant::now();
        let (loss, _) = local_train(
            &mut model,
            &local.samples,
            local.tuning.as_ref(),
            cfg.learning_rate,
            cfg.batch_size,
        );
        local_train_ms.push(start.elapsed().as_secs_f64() * 1e3);
        decomposition_faithful &= loss.to_bits() == local.loss.to_bits()
            && model.param_checksum() == local.trained.param_checksum();
        compact_experts.push(local.compact_experts as f64);
        if cfg.compression.is_dense() {
            staged.push((id, local.updates, Some(local.head)));
        }
    }

    // The server tail.
    let (root_aggregator, ms) = rec.span("fl.aggregate.collapse", || aggregator.collapse());
    m.set("fl.aggregate.collapse_ms", ms);
    let ((), ms) = rec.span("fl.store.apply_round", || {
        store.apply_round(root_aggregator, &ctx.pool)
    });
    m.set("fl.store.apply_round_ms", ms);
    let (after, ms) = rec.span("fl.store.snapshot", || store.snapshot());
    m.set("fl.store.snapshot_ms", ms);
    let (_, ms) = rec.span("moe.evaluate", || after.evaluate(&eval_set));
    m.set("moe.eval_ms", ms);
    rec.next_run();

    checks.push(check(
        "replay_local_train_matches_library",
        decomposition_faithful,
        format!(
            "{} participants: decomposed loop vs local_train, loss bits and weight checksum",
            cohort.len()
        ),
    ));
    if ctx.workload.fault_free() {
        real.step_round(&ctx.pool);
        let expected = real.store().snapshot().param_checksum();
        let replayed = store.snapshot().param_checksum();
        checks.push(check(
            "replay_reproduces_round0_model",
            expected == replayed,
            format!("driver {expected:016x} vs replay {replayed:016x}"),
        ));
    }
    drop(real);

    if ctx.workload.checkpoints() {
        let (stats, ms) = rec.span("fl.snapshot.checkpoint_incr", || {
            store.checkpoint(&ckpt_dir, &[])
        });
        let stats = stats.expect("incremental checkpoint of the replay store writes");
        m.set("fl.snapshot.ckpt_incr_ms", ms);
        m.set("fl.snapshot.ckpt_incr_bytes", stats.bytes_written as f64);
        let (loaded, ms) = rec.span("fl.snapshot.load", || load_store(&ckpt_dir));
        loaded.expect("the checkpoint just written loads");
        m.set("fl.snapshot.load_ms", ms);
    }

    // Decoding happens inside `submit_encoded`; time it on its own here.
    for (id, encoded) in encoded_uploads {
        let start = Instant::now();
        let decoded = encoded.decode(&global);
        decode_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let (updates, head) = decoded.expect("same upload, same snapshot");
        staged.push((id, updates, head));
    }

    // A second, flat aggregator staged with the same uploads, to time the
    // one-shot reduction the store's per-shard install bypasses.
    let flat = ShardedAggregator::new(DEFAULT_SHARDS);
    for (id, updates, head) in staged {
        flat.submit(id, updates, head);
    }
    let (_, ms) = rec.span("fl.aggregate.finalize", || flat.finalize(&ctx.pool));
    m.set("fl.aggregate.finalize_ms", ms);

    m.set("core.baselines.local_train_ms", median(&local_train_ms));
    m.set("fl.compress.decode_ms", median(&decode_ms));
    let spans = rec.spans();
    let replayed = &spans[first_span..];
    // The quantization is paid once (the first call misses the cache):
    // report that call, not the median over the hits that follow.
    let quantize_ms = span_ms(replayed, "quant.quantize_model");
    m.set(
        "quant.quantize_model_ms",
        quantize_ms.first().copied().unwrap_or(0.0),
    );
    for (metric, span, scale) in [
        ("core.profiling.profile_ms", "core.profiling.refresh", 1.0),
        ("core.assignment.assign_us", "core.assignment.assign", 1e3),
        ("core.assignment.spsa_ms", "core.assignment.spsa", 1.0),
        ("core.merging.build_ms", "core.merging.build", 1.0),
        ("core.merging.apply_ms", "core.merging.apply", 1.0),
        (
            "fl.participant.materialize_us",
            "fl.participant.materialize",
            1e3,
        ),
        ("fl.compress.encode_ms", "fl.compress.encode", 1.0),
        ("fl.aggregate.submit_us", "fl.aggregate.submit", 1e3),
    ] {
        m.set(metric, median(&span_ms(replayed, span)) * scale);
    }
    m.set("core.merging.compact_experts", median(&compact_experts));

    // Shares of the replayed round, from self times. The round's wall is
    // the sum of its top-level spans.
    let round_id = spans[round_run].run;
    let replayed_ms: f64 = spans
        .iter()
        .filter(|s| s.run == round_id && s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .sum();
    let by_layer = self_ms_by_layer(&spans, round_id);
    let attributed: f64 = by_layer
        .iter()
        .filter(|(layer, _)| *layer != "replay")
        .map(|(_, ms)| ms)
        .sum();
    let mut shares: Vec<(String, f64)> = by_layer
        .into_iter()
        .map(|(layer, ms)| (layer, ms / replayed_ms.max(f64::MIN_POSITIVE)))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    // The real round spreads the participants over `threads` workers; the
    // replay runs them one after another.
    m.set(
        "core.driver.replay_coverage",
        attributed / (ctx.threads as f64 * round0_ms).max(f64::MIN_POSITIVE),
    );

    let (pretrain, samples, tuning) = first_local.expect("a cohort is never empty");
    probes(
        ctx,
        &global,
        &registry,
        &cohort,
        &pretrain,
        &samples,
        tuning.as_ref(),
        m,
    );
    Replay { checks, shares }
}

/// Micro-measurements of single public calls at this workload's shapes.
#[allow(clippy::too_many_arguments)]
fn probes(
    ctx: &RepContext,
    global: &MoeModel,
    registry: &FleetSpec,
    cohort: &[usize],
    train_model: &MoeModel,
    samples: &[Sample],
    tuning: Option<&HashSet<ExpertKey>>,
    m: &mut LayerMetrics,
) {
    let cfg = &ctx.input(0).1;
    let config = &global.config;
    let batch: Vec<Sample> = samples
        .iter()
        .take(cfg.batch_size.max(1))
        .cloned()
        .collect();
    let refs: Vec<&Sample> = batch.iter().collect();

    // moe: one training batch through the model local training uses.
    let fwd_ms = bench_ms(9, || train_model.forward_batch(&refs));
    let grads_ms = bench_ms(9, || train_model.batch_gradients(&batch, tuning));
    let grads = train_model.batch_gradients(&batch, tuning);
    let mut scratch_model = train_model.clone();
    let apply_ms = bench_ms(9, || {
        scratch_model.apply_gradients(&grads, cfg.learning_rate)
    });
    let (embedded, packed) = train_model.embed_batch(&refs);
    let attention_ms = bench_ms(9, || {
        for layer in &train_model.layers {
            black_box(layer.attention.forward_batch(&embedded, packed.bounds()));
        }
    });
    m.set("moe.fwd_ms", fwd_ms);
    m.set("moe.bwd_ms", (grads_ms - fwd_ms).max(0.0));
    m.set("moe.apply_ms", apply_ms);
    m.set(
        "moe.attention_share",
        attention_ms / fwd_ms.max(f64::MIN_POSITIVE),
    );

    // tensor: the three GEMM shapes of one layer's forward over that batch —
    // the fused QKV projection, then an expert's up and down projections
    // over the rows top-k routing sends it.
    let tokens = packed.total_tokens().max(1);
    let experts = config
        .experts_per_layer
        .first()
        .copied()
        .unwrap_or(1)
        .max(1);
    let routed = (tokens * config.top_k).div_ceil(experts).max(1);
    let (d, ff) = (config.d_model, config.d_ff);
    let mut rng = SeededRng::new(ctx.seed).derive(99);
    let mut random = |rows, cols| Matrix::random_normal(rows, cols, 1.0, &mut rng);
    let (x, wqkv) = (random(tokens, d), random(d, 3 * d));
    let (xr, w1) = (random(routed, d), random(d, ff));
    let (hr, w2) = (random(routed, ff), random(ff, d));
    let flops_per_pass =
        2.0 * (tokens * d * 3 * d + experts * (routed * d * ff + routed * ff * d)) as f64;
    let pass_ms = bench_ms(25, || {
        x.matmul(&wqkv).recycle();
        for _ in 0..experts {
            xr.matmul(&w1).recycle();
            hr.matmul(&w2).recycle();
        }
    });
    let gemm_gflops = flops_per_pass / (pass_ms / 1e3) / 1e9;
    let fma_gflops = host::fma_gflops();
    m.set("tensor.gemm_gflops", gemm_gflops);
    m.set("host.fma_gflops", fma_gflops);
    m.set("tensor.gemm_peak_share", gemm_gflops / fma_gflops);
    m.set("host.stream_gbps", host::stream_gbps());

    // The fused expert-feature matrix merging clusters (one row per expert
    // of the model, `[w1 | b1 | w2 | b2]`), reduced and clustered as
    // `ClusteringMode::Fused` does.
    let rows: Vec<Vec<f32>> = global
        .expert_keys()
        .into_iter()
        .map(|key| global.expert(key).flatten_params())
        .collect();
    let raw = Matrix::from_rows(&rows);
    let dims = cfg.merging.pca_dims.clamp(1, raw.rows().min(raw.cols()));
    let mut rng = SeededRng::new(ctx.seed).derive(98);
    m.set(
        "tensor.pca_ms",
        bench_ms(3, || Pca::fit_transform(&raw, dims, &mut rng)),
    );
    let features = Pca::fit_transform(&raw, dims, &mut rng).expect("PCA of a non-empty matrix");
    let clusters = (features.rows() / 4).max(1);
    m.set(
        "tensor.kmeans_ms",
        bench_ms(3, || KMeans::new(clusters).fit(&features, &mut rng)),
    );
    // quant: the profiling-shape product against a quantized weight.
    let quantized = QuantizedMatrix::quantize(&w1, cfg.profiling.width);
    let qmatmul_ms = bench_ms(25, || quantized_matmul(&x, &quantized).map(Matrix::recycle));
    m.set(
        "quant.qmatmul_gops",
        2.0 * (tokens * d * ff) as f64 / (qmatmul_ms / 1e3) / 1e9,
    );

    // data: batch pulls through the streaming view of each cohort client.
    let mut pulls = 0usize;
    let start = Instant::now();
    for &id in cohort {
        let mut view = registry.view(id);
        let mut pulled = 0usize;
        while let Some(sample) = view.next_sample() {
            black_box(sample);
            pulled += 1;
        }
        pulls += pulled.div_ceil(cfg.batch_size.max(1));
    }
    m.set(
        "data.stream_batch_us",
        start.elapsed().as_secs_f64() * 1e6 / pulls.max(1) as f64,
    );

    // metrics: scoring one evaluation's predictions. A call takes tens of
    // nanoseconds, so a sample times a thousand of them.
    let labels: Vec<usize> = (0..cfg.eval_samples).map(|i| i % 8).collect();
    let predictions: Vec<usize> = (0..cfg.eval_samples).map(|i| (i * 3) % 8).collect();
    let thousand_ms = bench_ms(25, || {
        for _ in 0..1000 {
            black_box(exact_match_accuracy(
                black_box(&predictions),
                black_box(&labels),
            ));
        }
    });
    m.set("metrics.score_us", thousand_ms);

    // core.cohort: drawing a round's cohort at this workload's N and K (the
    // whole fleet where every client takes part in every round).
    // A sample times a hundred rounds' draws.
    let k = cfg.cohort_size.unwrap_or(cfg.num_participants);
    let sampler = CohortSampler::new(cfg.num_participants, k, ctx.seed);
    let mut round = 0usize;
    let hundred_ms = bench_ms(9, || {
        for _ in 0..100 {
            round += 1;
            black_box(sampler.cohort(round));
        }
    });
    m.set("core.cohort.sample_us", hundred_ms * 10.0);

    m.set(
        "threadpool.region_overhead_us",
        bench_ms(201, || {
            let jobs: Vec<_> = (0..64).map(|_| || ()).collect();
            ctx.pool.run(jobs)
        }) * 1e3,
    );
}

/// First `start_round` through `finish()` of a plain run, in seconds.
fn plain_run_wall_s(run: &FederatedRun, method: Method, pool: &ThreadPool) -> f64 {
    let mut active = run.start(method);
    let start = Instant::now();
    while !active.is_done() {
        active.step_round(pool);
    }
    black_box(active.finish());
    start.elapsed().as_secs_f64()
}

/// The extra runs two workloads carry, all on input 0: schedule and
/// multi-tenant verdicts on `flux_small`, the fan-out speed-up on
/// `flux_paper_shape`. `pipelined_wall_s` is the untraced `run_wall_s` of
/// input 0 in the default schedule.
pub fn extra_runs(ctx: &RepContext, pipelined_wall_s: f64, m: &mut LayerMetrics) {
    let cfg = &ctx.input(0).1;
    let method = ctx.workload.method;
    if ctx.workload.is_flux_small() {
        let barriered = FederatedRun::new(cfg.clone(), ctx.seed)
            .with_threads(ctx.threads)
            .with_mode(ExecutionMode::Barriered);
        m.set(
            "core.driver.pipelined_over_barriered",
            pipelined_wall_s / plain_run_wall_s(&barriered, method, &ctx.pool),
        );

        let jobs = || {
            vec![
                JobSpec::new(
                    "tenant-a",
                    FederatedRun::new(cfg.clone(), ctx.seed).with_threads(ctx.threads),
                    method,
                ),
                JobSpec::new(
                    "tenant-b",
                    FederatedRun::new(cfg.clone(), ctx.seed + 1).with_threads(ctx.threads),
                    method,
                ),
            ]
        };
        let start = Instant::now();
        for job in jobs() {
            black_box(job.run.run(job.method));
        }
        let back_to_back_s = start.elapsed().as_secs_f64();
        let scheduler = Scheduler::on_pool(ctx.pool, SchedulePolicy::Concurrent);
        let start = Instant::now();
        black_box(scheduler.run_all(jobs()));
        m.set(
            "core.scheduler.two_tenant_speedup",
            back_to_back_s / start.elapsed().as_secs_f64(),
        );
    }
    if ctx.workload.is_paper_shape() {
        // The round-0 fan-out with the outer pool at one thread and at
        // `threads`. Nested per-expert fan-outs size themselves from
        // `FLUX_THREADS` either way, so this isolates the participant-level
        // fan-out.
        let fan_out_ms = |threads: usize| {
            let run = FederatedRun::new(cfg.clone(), ctx.seed).with_threads(threads);
            let mut active = run.start(method);
            let pool = ThreadPool::new(threads);
            let start = Instant::now();
            active.start_round(&pool);
            start.elapsed().as_secs_f64() * 1e3
        };
        m.set(
            "threadpool.fanout_speedup",
            fan_out_ms(1) / fan_out_ms(ctx.threads),
        );
    }
}

/// The per-layer metrics that come straight from the traced repetition.
pub fn from_traced_rep(rep: &Rep, m: &mut LayerMetrics) {
    m.set("core.driver.start_round_ms", median(&rep.start_round_ms));
    m.set("core.driver.finish_round_ms", median(&rep.finish_round_ms));
    m.set("core.driver.finish_ms", rep.finish_ms);
    m.set("core.recovery.checkpoint_ms", median(&rep.checkpoint_ms));
    m.set(
        "core.recovery.midround_ckpt_ms",
        median(&rep.midround_ckpt_ms),
    );
    m.set("core.recovery.restore_ms", median(&rep.restore_ms));
    m.set("core.profiling.quant_cache_hits", rep.quant_cache.0 as f64);
    m.set(
        "core.profiling.quant_cache_misses",
        rep.quant_cache.1 as f64,
    );
    m.set("fl.fault.retried", rep.outcome.retried as f64);
    m.set("fl.fault.dropped", rep.outcome.dropped as f64);
    m.set("fl.fault.rejected", rep.outcome.rejected as f64);
    m.set("fl.compress.byte_ratio", byte_ratio(&rep.outcome));
}
