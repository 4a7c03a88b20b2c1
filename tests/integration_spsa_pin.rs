//! Literals recorded at the commit *before* the forward-gradient estimator
//! was rebuilt on a recorded base forward (PR 21), when every probe still
//! ran a full forward over every layer. The estimator may pay less than
//! that; it may not return a different bit. Unlike the golden-trace suites,
//! which compare two schedules of the same build against each other, these
//! values do not move with the code: a change that is meant to alter the
//! utilities a participant reports has to re-record them and say so. There
//! is one set per kernel level (`FLUX_SIMD`), since a level's accumulation
//! order is part of its result; thread counts share a set.

use std::collections::{BTreeSet, HashMap};

use flux_core::assignment::{
    expert_utility, initial_utilities, DynamicEpsilon, ExpertUtility, ForwardGradEstimator,
    RoleAssigner,
};
use flux_core::baselines::local_train;
use flux_core::driver::{FederatedRun, Method, RunConfig};
use flux_core::merging::{CompactModelPlan, MergingConfig};
use flux_data::{DatasetConfig, DatasetGenerator, DatasetKind, Sample};
use flux_moe::{ExpertKey, MoeConfig, MoeModel};
use flux_tensor::simd::{self, SimdLevel};
use flux_tensor::SeededRng;

/// `(final param_checksum, per-round train-loss bits)` of a 4-round
/// `Method::Flux` quick-demo run. Rounds 1–3 assign from the utilities the
/// rounds before reported, so an estimate that moved shows here.
fn flux_run(seed: u64) -> (u64, Vec<u32>) {
    let config = RunConfig::quick_demo(MoeConfig::tiny(), DatasetKind::Gsm8k).with_rounds(4);
    let result = FederatedRun::new(config, seed).run(Method::Flux);
    (
        result.final_model.param_checksum(),
        result
            .rounds
            .iter()
            .map(|r| r.train_loss.to_bits())
            .collect(),
    )
}

#[test]
fn flux_runs_match_the_parent_commit() {
    let (seed_42, seed_7) = match simd::global_level() {
        SimdLevel::Avx2 => (
            (
                14662662673461921918,
                vec![1079721142, 1070160440, 1062143219, 1056982938],
            ),
            (
                14412757606520228980,
                vec![1070987859, 1066850918, 1065176835, 1063330994],
            ),
        ),
        SimdLevel::Scalar => (
            (
                1557947220359920627,
                vec![1079721143, 1070160441, 1062143219, 1056982938],
            ),
            (
                15879536272632909777,
                vec![1070987859, 1066850918, 1065176836, 1063330995],
            ),
        ),
    };
    assert_eq!(flux_run(42), seed_42);
    assert_eq!(flux_run(7), seed_7);
}

/// One participant's utility report, through the public calls
/// `flux_local_round` is made of and in its order: profile, bootstrap,
/// assign, merge, train the exploitation experts, then true-gradient
/// utilities for those and forward-only estimates (the driver's estimator
/// settings) for the explored ones. Also returns the next draw of the
/// participant's RNG stream, which the estimator must leave where the
/// parent's left it.
fn participant_report() -> (Vec<(usize, usize, u32, bool)>, u32) {
    let mut rng = SeededRng::new(2024);
    let global = MoeModel::new(MoeConfig::tiny(), &mut rng);
    let data = DatasetGenerator::new(
        DatasetConfig::for_kind(DatasetKind::Dolly, global.config.vocab_size)
            .with_num_samples(12)
            .with_mean_seq_len(10),
    )
    .generate(&mut rng);
    let profile = global.profile(&data);
    let table: HashMap<ExpertKey, ExpertUtility> = initial_utilities(&profile)
        .into_iter()
        .map(|u| (u.key, u))
        .collect();
    let assignment = RoleAssigner::new(DynamicEpsilon::paper_default()).assign_with_table(
        Some(&table),
        &global.expert_keys(),
        12,
        0,
        &mut rng,
    );
    let plan = CompactModelPlan::build(
        &global,
        &profile,
        &assignment.tuning_set(),
        8,
        MergingConfig::default(),
        &mut rng,
    );
    let mut compact = plan.apply(&global, &profile);
    let key_map = plan.tuning_key_map();
    let selected: BTreeSet<usize> = assignment
        .exploitation
        .iter()
        .flat_map(|key| profile.samples_of(*key).iter().copied())
        .collect();
    let samples: Vec<Sample> = selected.iter().map(|&i| data.samples[i].clone()).collect();
    let tuning = assignment
        .exploitation
        .iter()
        .filter_map(|k| key_map.get(k).copied())
        .collect();
    let (_, grads) = local_train(&mut compact, &samples, Some(&tuning), 0.02, 4);

    let mut trained: Vec<ExpertUtility> = grads
        .expect("the exploitation experts saw samples")
        .expert_grads
        .iter()
        .filter_map(|(compact_key, grad)| {
            let original = plan.original_of_compact(*compact_key)?;
            Some(expert_utility(
                original,
                grad,
                profile.samples_of(original).len(),
            ))
        })
        .collect();
    trained.sort_by_key(|u| (u.key.layer, u.key.expert));
    let estimator = ForwardGradEstimator {
        sigma: 0.02,
        num_perturbations: 1,
        samples_per_eval: 1,
    };
    let estimated = assignment.exploration.iter().map(|original| {
        let mut estimate = estimator.estimate_utility_in_place(
            &mut compact,
            key_map[original],
            &samples,
            profile.samples_of(*original).len(),
            &mut rng,
        );
        estimate.key = *original;
        estimate
    });
    let report = trained
        .into_iter()
        .chain(estimated)
        .map(|u| (u.key.layer, u.key.expert, u.value.to_bits(), u.estimated))
        .collect();
    (report, rng.uniform().to_bits())
}

#[test]
fn a_participants_utility_report_matches_the_parent_commit() {
    let (report, draw_after) = participant_report();
    // (layer, expert, utility bits, estimated): four trained experts, then
    // the eight explored ones. Six of those receive no token of the one
    // evaluation sample, and their estimate is exactly zero.
    let (trained, routed) = match simd::global_level() {
        SimdLevel::Avx2 => (
            [1076292659, 1069693275, 1066301893, 1066510681],
            [1082189718, 1029867828],
        ),
        SimdLevel::Scalar => (
            [1076292660, 1069693275, 1066301894, 1066510682],
            [1082189747, 1029864749],
        ),
    };
    let expected = vec![
        (0, 1, trained[0], false),
        (1, 2, trained[1], false),
        (1, 5, trained[2], false),
        (2, 1, trained[3], false),
        (2, 0, 0, true),
        (1, 6, 0, true),
        (0, 5, routed[0], true),
        (1, 0, 0, true),
        (2, 6, 0, true),
        (3, 7, 0, true),
        (2, 2, routed[1], true),
        (1, 3, 0, true),
    ];
    assert_eq!(report, expected);
    assert_eq!(draw_after, 1050919558);
}
