//! Cross-crate integration tests of the baseline methods against a real
//! fleet and parameter server.

use flux_core::baselines::{fmd_local_round, fmes_local_round, fmq_local_round};
use flux_core::profiling::QuantizedModelCache;
use flux_data::{DatasetConfig, DatasetGenerator, DatasetKind};
use flux_fl::{build_fleet, CostModel, ExpertUpdate, ParameterServer, Participant};
use flux_moe::{MoeConfig, MoeModel};
use flux_tensor::SeededRng;

fn setup() -> (MoeModel, Vec<Participant>, CostModel) {
    let config = MoeConfig::tiny().with_classes(2);
    let mut rng = SeededRng::new(1);
    let model = MoeModel::new(config.clone(), &mut rng);
    let data = DatasetGenerator::new(
        DatasetConfig::for_kind(DatasetKind::Piqa, config.vocab_size)
            .with_num_samples(30)
            .with_mean_seq_len(10),
    )
    .generate(&mut rng);
    let fleet = build_fleet(&data, 4, 0.5, &mut rng);
    (model, fleet, CostModel::default())
}

#[test]
fn fmd_aggregation_changes_the_global_model() {
    let (model, fleet, cost) = setup();
    let store = ParameterServer::empty().register_tenant(model.clone());
    let global = store.global_model();
    let mut all_updates = Vec::new();
    let mut heads = Vec::new();
    for p in &fleet {
        let out = fmd_local_round(p, &global, &cost, 50_000, 0.05, 4);
        all_updates.extend(out.expert_updates.into_iter().map(ExpertUpdate::into_owned));
        if let Some(h) = out.head_update {
            heads.push(h);
        }
    }
    store.aggregate(&all_updates, &heads);
    let updated = store.global_model();
    // At least one expert changed after aggregation.
    let changed = model
        .expert_keys()
        .iter()
        .any(|&k| updated.expert(k) != model.expert(k));
    assert!(changed, "aggregation should modify the global model");
    assert_eq!(store.rounds_completed(), 1);
}

#[test]
fn method_round_costs_are_ordered_fmd_heaviest() {
    let (model, fleet, cost) = setup();
    let p = &fleet[0];
    let reference_tokens = p.tokens_per_round() * 500;
    let profile = model.profile(&p.train_data);
    let fmd = fmd_local_round(p, &model, &cost, reference_tokens, 0.01, 4);
    let fmq = fmq_local_round(
        p,
        &model,
        &cost,
        &QuantizedModelCache::new(),
        reference_tokens,
        0.01,
        4,
    );
    let fmes = fmes_local_round(p, &model, &profile, &cost, reference_tokens, 0.01, 4);
    assert!(fmd.cost.total_s() > fmq.cost.total_s());
    assert!(fmd.cost.total_s() > fmes.cost.total_s());
    // Only FMD pays offloading.
    assert!(fmd.cost.offloading_s > 0.0);
    assert_eq!(fmq.cost.offloading_s, 0.0);
    assert_eq!(fmes.cost.offloading_s, 0.0);
}

#[test]
fn fmes_respects_device_capacity() {
    let (model, fleet, cost) = setup();
    for p in &fleet {
        let profile = model.profile(&p.train_data);
        let out = fmes_local_round(p, &model, &profile, &cost, 50_000, 0.01, 4);
        assert!(out.expert_updates.len() <= p.tuning_capacity(&model.config));
    }
}

#[test]
fn fmq_updates_diverge_from_full_precision_training() {
    let (model, fleet, cost) = setup();
    let p = &fleet[0];
    let cache = QuantizedModelCache::new();
    let fmq = fmq_local_round(p, &model, &cost, &cache, 50_000, 0.05, 4);
    let fmd = fmd_local_round(p, &model, &cost, 50_000, 0.05, 4);
    // Same data, same learning rate: the quantized run must produce
    // different (noisier) expert parameters than full precision.
    let mut total_diff = 0.0f32;
    for (a, b) in fmq.expert_updates.iter().zip(fmd.expert_updates.iter()) {
        assert_eq!(a.key, b.key);
        total_diff += a
            .expert
            .w1
            .sub(&b.expert.w1)
            .expect("same shape")
            .frobenius_norm();
    }
    assert!(total_diff > 0.0);
}
