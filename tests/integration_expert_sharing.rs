//! Copy-on-write experts: a participant holds only the experts it writes.
//!
//! Cloning a model shares its experts, a compact model shares every kept
//! expert with the global model it was built from, and `expert_mut`
//! (`Arc::make_mut`) is the only write path, so a write copies the one
//! expert it touches. These tests hold both halves: nothing a round's
//! participants do reaches the round's snapshot, and a Flux compact model
//! owns privately only its merged and zero experts plus the experts it
//! trained or probed. An upload carries the trained model's own `Arc`s to
//! the server, so staging a round holds no copy of an expert nobody wrote.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use flux_core::assignment::{
    initial_utilities, DynamicEpsilon, ExpertUtility, ForwardGradEstimator, RoleAssigner,
};
use flux_core::baselines::{fmd_local_round, local_train};
use flux_core::driver::{FederatedRun, Method, RunConfig};
use flux_core::merging::{CompactModelPlan, ExpertSlot, MergingConfig};
use flux_data::{DatasetConfig, DatasetGenerator, DatasetKind, Sample};
use flux_fl::{build_fleet, CostModel, ShardedStore};
use flux_moe::{ExpertKey, MoeConfig, MoeModel};
use flux_tensor::SeededRng;
use threadpool::ThreadPool;

/// Every method's two-round quick run: the snapshot each round's
/// participants train from reads the same bits after the fan-out as
/// before it.
#[test]
fn the_round_snapshot_is_untouched_by_every_methods_fan_out() {
    let pool = ThreadPool::from_env();
    let config = RunConfig::quick_demo(MoeConfig::tiny(), DatasetKind::Gsm8k).with_rounds(2);
    for method in [Method::Fmd, Method::Fmq, Method::Fmes, Method::Flux] {
        let mut active = FederatedRun::new(config.clone(), 17).start(method);
        for round in 0..2 {
            let snapshot = active.store().snapshot();
            let before = snapshot.param_checksum();
            active.start_round(&pool);
            assert_eq!(
                snapshot.param_checksum(),
                before,
                "{method:?} round {round}: a participant wrote the snapshot"
            );
            drop(snapshot);
            active.finish_round(&pool);
        }
    }
}

/// Compact expert `(layer, compact)` is the global model's own allocation.
fn shared(compact: &MoeModel, global: &MoeModel, key: ExpertKey, original: usize) -> bool {
    Arc::ptr_eq(
        &compact.layers[key.layer].moe.experts[key.expert],
        &global.layers[key.layer].moe.experts[original],
    )
}

/// Compact experts that are not an allocation of `global`'s.
fn private_keys(
    compact: &MoeModel,
    plan: &CompactModelPlan,
    global: &MoeModel,
) -> BTreeSet<ExpertKey> {
    compact
        .expert_keys()
        .into_iter()
        .filter(|&key| match plan.original_of_compact(key) {
            Some(original) => !shared(compact, global, key, original.expert),
            None => true,
        })
        .collect()
}

/// A forward-gradient probe writes the expert it perturbs through
/// `expert_mut`: on a clone that shares the expert, the write lands on a
/// copy, and the original's bits never move, even mid-probe.
#[test]
fn a_probe_on_a_shared_expert_leaves_the_original_bit_identical() {
    let mut rng = SeededRng::new(2034);
    let global = MoeModel::new(MoeConfig::tiny(), &mut rng);
    let samples = DatasetGenerator::new(
        DatasetConfig::for_kind(DatasetKind::Dolly, global.config.vocab_size)
            .with_num_samples(4)
            .with_mean_seq_len(10),
    )
    .generate(&mut rng)
    .samples;
    let checksum = global.param_checksum();
    let estimator = ForwardGradEstimator {
        sigma: 0.02,
        num_perturbations: 2,
        samples_per_eval: 1,
    };
    let mut clone = global.clone();
    let base = estimator.record_base(&clone, &samples);
    let reached: Vec<ExpertKey> = global
        .expert_keys()
        .into_iter()
        .filter(|&key| base.reaches(key))
        .collect();
    assert!(!reached.is_empty());
    for key in reached {
        assert!(shared(&clone, &global, key, key.expert));
        let (grad, _) = estimator.estimate_in_place(&mut clone, &base, key, &mut rng);
        assert!(grad.iter().any(|&g| g != 0.0), "the probe moved the loss");
        assert!(
            !shared(&clone, &global, key, key.expert),
            "the write copied"
        );
        assert_eq!(clone.expert(key), global.expert(key));
        assert_eq!(global.param_checksum(), checksum);
    }
}

/// One Flux participant at the paper's 32 x 16 shape, through the driver's
/// steps: assign, merge, train the exploitation experts, probe up to four
/// exploration experts. After each step, the experts the compact model
/// owns are exactly the merged and zero ones plus those it has written.
#[test]
fn a_paper_shape_compact_model_owns_only_what_it_writes() {
    let mut rng = SeededRng::new(2033);
    let global = MoeModel::new(MoeConfig::llama_moe_sim(), &mut rng);
    let config = &global.config;
    let data = DatasetGenerator::new(
        DatasetConfig::for_kind(DatasetKind::Dolly, config.vocab_size)
            .with_num_samples(48)
            .with_mean_seq_len(8),
    )
    .generate(&mut rng);
    let participant = build_fleet(&data, 2, 0.5, &mut rng).swap_remove(0);
    let checksum = global.param_checksum();

    // The driver's budgets for this participant at the quick demo's
    // reference-token scale.
    let tokens: usize = participant
        .train_data
        .samples
        .iter()
        .map(|s| s.tokens.len())
        .sum();
    let capacity = participant.expert_capacity(config);
    let tuning_budget = participant
        .device
        .tuning_capacity(config, tokens * 500)
        .min(capacity);
    let non_tuning_budget = capacity.saturating_sub(tuning_budget).max(1);

    let profile = global.profile(&participant.train_data);
    let table: HashMap<ExpertKey, ExpertUtility> = initial_utilities(&profile)
        .into_iter()
        .map(|u| (u.key, u))
        .collect();
    let assignment = RoleAssigner::new(DynamicEpsilon::paper_default()).assign_with_table(
        Some(&table),
        &global.expert_keys(),
        tuning_budget,
        0,
        &mut rng,
    );
    let plan = CompactModelPlan::build(
        &global,
        &profile,
        &assignment.tuning_set(),
        non_tuning_budget,
        MergingConfig::default(),
        &mut rng,
    );
    let mut compact = plan.apply(&global, &profile);
    let key_map = plan.tuning_key_map();

    // Straight after `apply`, every kept expert is the global's own.
    let kept = key_map.len();
    let built = plan.total_compact_experts() - kept;
    let slots = plan.slots.iter().flatten();
    assert_eq!(
        slots
            .filter(|s| matches!(s, ExpertSlot::Keep { .. }))
            .count(),
        kept
    );
    assert_eq!(private_keys(&compact, &plan, &global).len(), built);

    // Training writes (and so copies) only exploitation experts.
    let selected: BTreeSet<usize> = assignment
        .exploitation
        .iter()
        .flat_map(|key| profile.samples_of(*key).iter().copied())
        .collect();
    let samples: Vec<Sample> = selected
        .iter()
        .map(|&i| participant.train_data.samples[i].clone())
        .collect();
    let exploited: HashSet<ExpertKey> = assignment
        .exploitation
        .iter()
        .filter_map(|k| key_map.get(k).copied())
        .collect();
    local_train(&mut compact, &samples, Some(&exploited), 0.03, 8);
    let trained: BTreeSet<ExpertKey> = private_keys(&compact, &plan, &global)
        .into_iter()
        .filter(|key| plan.original_of_compact(*key).is_some())
        .collect();
    assert!(!trained.is_empty(), "training wrote an exploitation expert");
    assert!(trained.iter().all(|key| exploited.contains(key)));

    // Probes perturb in place: one that reaches its shared expert copies
    // it, and the restored copy equals the global's, which kept its bits.
    let estimator = ForwardGradEstimator {
        sigma: 0.02,
        num_perturbations: 1,
        samples_per_eval: 1,
    };
    let base = estimator.record_base(&compact, &samples);
    let mut probed = BTreeSet::new();
    for original in assignment.exploration.iter().take(4) {
        let Some(&key) = key_map.get(original) else {
            continue;
        };
        assert!(shared(&compact, &global, key, original.expert));
        let before = global.expert(*original).clone();
        estimator.estimate_in_place(&mut compact, &base, key, &mut rng);
        assert_eq!(global.expert(*original), &before);
        assert_eq!(compact.expert(key), &before);
        if !shared(&compact, &global, key, original.expert) {
            probed.insert(key);
        }
    }

    // Whatever was neither trained nor probed is still shared, and the
    // global model kept every bit.
    let private = private_keys(&compact, &plan, &global);
    let written: BTreeSet<ExpertKey> = trained.union(&probed).copied().collect();
    assert_eq!(private.len(), built + written.len());
    assert!(private.len() <= built + exploited.len() + 4);
    assert_eq!(global.param_checksum(), checksum);
    println!(
        "paper-shape compact model: {} experts ({kept} kept, {built} merged or zero); \
         owned privately: {} = {built} merged or zero + {} of {} exploited + {} of {} probed; \
         without sharing it would own all {}",
        plan.total_compact_experts(),
        private.len(),
        trained.len(),
        exploited.len(),
        probed.len(),
        assignment.exploration.len().min(4),
        plan.total_compact_experts(),
    );
}

/// Staged-bytes accounting for one tiny FMD round: every participant
/// uploads all 32 experts, and the ones no token reached are the
/// snapshot's own `Arc`s. So the round stages exactly (uploaded −
/// untouched) experts of its own, and no expert that was written came
/// back bit-identical to the snapshot's (sharing is found at the source,
/// with nothing left for a byte compare to find).
#[test]
fn an_fmd_round_stages_only_the_experts_its_participants_wrote() {
    let mut rng = SeededRng::new(42);
    let model = MoeModel::new(MoeConfig::tiny().with_classes(4), &mut rng);
    let data = DatasetGenerator::new(
        DatasetConfig::for_kind(DatasetKind::Mmlu, 64)
            .with_num_samples(12)
            .with_mean_seq_len(6),
    )
    .generate(&mut rng);
    let fleet = build_fleet(&data, 3, 0.5, &mut rng);
    let store = ShardedStore::new(model, 4);
    let global = store.snapshot();
    let expert_bytes = global.expert(ExpertKey::new(0, 0)).num_params() * 4;
    let aggregator = store.begin_round();
    let (mut uploaded, mut untouched, mut identical) = (0, 0, 0);
    for participant in &fleet {
        let out = fmd_local_round(participant, &global, &CostModel::default(), 10_000, 0.05, 4);
        for update in &out.expert_updates {
            let base = global.shared_expert(update.key);
            untouched += usize::from(Arc::ptr_eq(&update.expert, base));
            identical += usize::from(*update.expert == **base);
        }
        uploaded += out.expert_updates.len();
        assert!(aggregator.submit(participant.id, out.expert_updates, out.head_update));
    }
    assert_eq!((uploaded, untouched, identical), (96, 57, 57));
    assert_eq!(
        aggregator.staged_owned_bytes(),
        (uploaded - untouched) * expert_bytes
    );
    drop(global);
    store.apply_round(&aggregator, &ThreadPool::new(2));
    assert_eq!(aggregator.staged_owned_bytes(), 0);
}
