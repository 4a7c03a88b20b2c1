//! Cross-crate integration tests of the merging pipeline: profiling feeds
//! budgets, clustering, merging, and gate re-routing on a real model.

use std::collections::HashSet;

use flux_core::baselines::top_frequency_experts;
use flux_core::merging::{
    layer_budgets, merge_cluster, BudgetPolicy, ClusteringMode, CompactModelPlan, ExpertGramCache,
    ExpertSlot, GramCacheStats, MergeStrategy, MergingConfig,
};
use flux_data::{DatasetConfig, DatasetGenerator, DatasetKind};
use flux_moe::{Expert, ExpertKey, MoeConfig, MoeModel, RoutingMap};
use flux_tensor::{stats, Matrix, SeededRng};

fn setup() -> (MoeModel, flux_data::Dataset) {
    let config = MoeConfig::tiny();
    let mut rng = SeededRng::new(1);
    let model = MoeModel::new(config.clone(), &mut rng);
    let data = DatasetGenerator::new(
        DatasetConfig::for_kind(DatasetKind::Dolly, config.vocab_size)
            .with_num_samples(20)
            .with_mean_seq_len(12),
    )
    .generate(&mut rng);
    (model, data)
}

#[test]
fn adaptive_budgets_feed_a_valid_plan() {
    let (model, data) = setup();
    let profile = model.profile(&data);
    let tuning: HashSet<ExpertKey> = top_frequency_experts(&profile, 8);
    let non_tuning_counts: Vec<usize> = model
        .experts_per_layer()
        .iter()
        .enumerate()
        .map(|(layer, &n)| n - tuning.iter().filter(|k| k.layer == layer).count())
        .collect();
    let budgets = layer_budgets(BudgetPolicy::Adaptive, &profile, &non_tuning_counts, 8);
    assert_eq!(budgets.len(), 4);
    assert!(budgets.iter().sum::<usize>() >= 4);

    let mut rng = SeededRng::new(2);
    let plan = CompactModelPlan::build(
        &model,
        &profile,
        &tuning,
        8,
        MergingConfig::default(),
        &mut rng,
    );
    let compact = plan.apply(&model, &profile);
    // The compact model is smaller and still runs end to end.
    assert!(compact.num_params() < model.num_params());
    let eval = compact.evaluate(&data);
    assert!(eval.loss.is_finite());
}

#[test]
fn merging_preserves_outputs_better_than_discarding() {
    let (model, data) = setup();
    let profile = model.profile(&data);
    let tuning: HashSet<ExpertKey> = top_frequency_experts(&profile, 8);
    let discard = CompactModelPlan::build_discard(&model, &tuning).apply(&model, &profile);
    let discard_err = mean_output_error(&model, &discard, &data);
    for strategy in MergeStrategy::all() {
        let mut rng = SeededRng::new(3);
        let merged = CompactModelPlan::build(
            &model,
            &profile,
            &tuning,
            8,
            MergingConfig::default().with_strategy(strategy),
            &mut rng,
        )
        .apply(&model, &profile);
        let merged_err = mean_output_error(&model, &merged, &data);
        if strategy == MergeStrategy::AttentionFrequency {
            // The paper's strategy must strictly beat discarding.
            assert!(
                merged_err < discard_err,
                "{}: merged error {merged_err} should beat discard {discard_err}",
                strategy.label()
            );
        } else {
            // The ablation strategies may be close to discarding on this
            // tiny random model, but must not be dramatically worse.
            assert!(
                merged_err < discard_err * 1.25,
                "{}: merged error {merged_err} far worse than discard {discard_err}",
                strategy.label()
            );
        }
    }
}

#[test]
fn gate_rerouting_covers_every_original_expert() {
    let (model, data) = setup();
    let profile = model.profile(&data);
    let tuning: HashSet<ExpertKey> = top_frequency_experts(&profile, 6);
    let mut rng = SeededRng::new(4);
    let plan = CompactModelPlan::build(
        &model,
        &profile,
        &tuning,
        6,
        MergingConfig::default(),
        &mut rng,
    );
    let compact = plan.apply(&model, &profile);
    for (layer_idx, layer) in compact.layers.iter().enumerate() {
        let map = &layer.moe.routing_map;
        assert_eq!(
            map.num_original(),
            model.layers[layer_idx].moe.num_experts()
        );
        assert_eq!(map.num_compact(), layer.moe.num_experts());
        for original in 0..map.num_original() {
            assert!(map.redirect(original) < layer.moe.num_experts());
        }
    }
}

#[test]
fn tuning_experts_keep_their_exact_parameters() {
    let (model, data) = setup();
    let profile = model.profile(&data);
    let tuning: HashSet<ExpertKey> = top_frequency_experts(&profile, 8);
    let mut rng = SeededRng::new(5);
    let plan = CompactModelPlan::build(
        &model,
        &profile,
        &tuning,
        8,
        MergingConfig::default(),
        &mut rng,
    );
    let compact = plan.apply(&model, &profile);
    for (&original, &compact_key) in &plan.tuning_key_map() {
        assert_eq!(compact.expert(compact_key), model.expert(original));
    }
}

#[test]
fn shared_gram_plans_equal_standalone_plans_for_every_participant() {
    // One round: every participant clusters its own non-tuning experts of
    // the same snapshot. Reading the inner products from the round's cache
    // (the driver's path) and computing them per plan (`build`, what the
    // benchmark's replay calls) must give the same plan bit for bit — for
    // any tuning set, either clustering mode, and whichever participant
    // happened to fill the cache. CI repeats this under FLUX_THREADS=1/4/8
    // and FLUX_SIMD=0/1; `integration_kernels` sweeps the levels in-process.
    let config = MoeConfig::tiny().with_experts_per_layer(vec![30, 8, 30, 17]);
    let mut rng = SeededRng::new(11);
    let model = MoeModel::new(config.clone(), &mut rng);
    let data = DatasetGenerator::new(
        DatasetConfig::for_kind(DatasetKind::Dolly, config.vocab_size)
            .with_num_samples(12)
            .with_mean_seq_len(10),
    )
    .generate(&mut rng);
    let profile = model.profile(&data);
    let all_keys = model.expert_keys();
    for clustering in [ClusteringMode::Fused, ClusteringMode::PerLayer] {
        let merging = MergingConfig::default().with_clustering(clustering);
        let cache = ExpertGramCache::new();
        for participant in 0..8u64 {
            let mut pick = rng.derive(participant);
            let tuning: HashSet<ExpertKey> = pick
                .choose_indices(all_keys.len(), 3 + 5 * participant as usize)
                .into_iter()
                .map(|i| all_keys[i])
                .collect();
            let budget = 6 + 3 * participant as usize;
            let build_rng = || SeededRng::new(1000 + participant);
            let standalone = CompactModelPlan::build(
                &model,
                &profile,
                &tuning,
                budget,
                merging,
                &mut build_rng(),
            );
            let shared = CompactModelPlan::build_shared(
                &model,
                &profile,
                &tuning,
                budget,
                merging,
                &cache,
                &mut build_rng(),
            );
            assert_eq!(
                shared, standalone,
                "{clustering:?}, participant {participant}"
            );
        }
        // Fused plans share the round's matrix; PerLayer only ever needs
        // within-layer products, computes them per layer and never forms it.
        let stats = cache.stats();
        if clustering == ClusteringMode::Fused {
            assert_eq!(stats.requests, 8);
            assert!(stats.panels > 0);
            assert_eq!(stats.panels_computed, stats.panels);
        } else {
            assert_eq!(stats, GramCacheStats::default());
        }
    }
}

#[test]
fn apply_equals_cloning_the_global_model_and_replacing_its_experts() {
    // `apply` assembles the compact model without first copying the experts
    // it is about to replace; the result must be the model the
    // clone-then-overwrite construction produced.
    let (model, data) = setup();
    let profile = model.profile(&data);
    let tuning: HashSet<ExpertKey> = top_frequency_experts(&profile, 8);
    let plans = [
        CompactModelPlan::build(
            &model,
            &profile,
            &tuning,
            8,
            MergingConfig::default(),
            &mut SeededRng::new(5),
        ),
        CompactModelPlan::build_discard(&model, &tuning),
    ];
    for plan in plans {
        let mut reference = model.clone();
        for (layer, slots) in plan.slots.iter().enumerate() {
            let experts = slots
                .iter()
                .map(|slot| match slot {
                    ExpertSlot::Keep { original } => {
                        model.expert(ExpertKey::new(layer, *original)).clone()
                    }
                    ExpertSlot::Merged { originals } => {
                        merge_cluster(&model, &profile, layer, originals, plan.config.strategy)
                    }
                    ExpertSlot::Zero { .. } => {
                        let like = model.expert(ExpertKey::new(layer, 0));
                        Expert {
                            w1: Matrix::zeros(like.w1.rows(), like.w1.cols()),
                            b1: vec![0.0; like.b1.len()],
                            w2: Matrix::zeros(like.w2.rows(), like.w2.cols()),
                            b2: vec![0.0; like.b2.len()],
                        }
                    }
                })
                .collect();
            let map = RoutingMap::from_table(plan.routing_tables[layer].clone());
            reference.set_layer_experts(layer, experts, map);
        }
        reference.config.experts_per_layer = reference.experts_per_layer();

        let compact = plan.apply(&model, &profile);
        assert_eq!(compact.param_checksum(), reference.param_checksum());
        assert_eq!(compact.config, reference.config);
        assert_eq!(compact.num_params(), reference.num_params());
        let (ours, theirs) = (compact.evaluate(&data), reference.evaluate(&data));
        assert_eq!(ours.loss.to_bits(), theirs.loss.to_bits());
    }
}

fn mean_output_error(reference: &MoeModel, other: &MoeModel, data: &flux_data::Dataset) -> f32 {
    let n = data.len().min(10);
    let mut error = 0.0;
    for sample in data.samples.iter().take(n) {
        error += stats::cosine_distance(
            &reference.final_embedding(sample),
            &other.final_embedding(sample),
        );
    }
    error / n as f32
}
