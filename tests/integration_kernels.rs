//! End-to-end scalar-vs-SIMD equivalence of the kernel dispatch layer.
//!
//! The scalar kernels are the pinned reference semantics; the SIMD level
//! (AVX2+FMA, tolerance-equal) must not change what the system *learns*:
//! the final evaluation score of every method in the
//! paper's comparison must be identical whether the whole federated run
//! executes on scalar or on the best vectorized kernels. CI additionally
//! sweeps `FLUX_SIMD=0/1` over the golden-trace suites, which pins the full
//! per-round traces bit-identically for each fixed level.
//!
//! Merging adds one per-level contract of its own: at *every* level the plan
//! built on the round's shared expert Gram matrix equals the plan built
//! standalone (an entry of the matrix is a pure function of its two experts
//! for a fixed level), which the same test sweeps in-process.
//!
//! This file holds exactly one `#[test]`: [`flux_tensor::simd::set_global_level`]
//! is process-global (it must reach the worker pool's threads, which a
//! thread-local override cannot), so concurrently running tests in the same
//! binary would race on it.

use std::collections::HashSet;

use flux_core::driver::{FederatedRun, Method, RunConfig};
use flux_core::merging::{CompactModelPlan, ExpertGramCache, MergingConfig};
use flux_data::{DatasetConfig, DatasetGenerator, DatasetKind};
use flux_moe::{ExpertKey, MoeConfig, MoeModel};
use flux_tensor::simd::{self, SimdLevel};
use flux_tensor::SeededRng;

/// At the current global level: four participants of one round, each with
/// its own tuning set, get the same plan from the shared Gram cache as from
/// a standalone build.
fn shared_gram_plans_equal_standalone_plans(level: SimdLevel) {
    let config = MoeConfig::tiny().with_experts_per_layer(vec![30, 30, 30, 13]);
    let mut rng = SeededRng::new(31);
    let model = MoeModel::new(config.clone(), &mut rng);
    let data = DatasetGenerator::new(
        DatasetConfig::for_kind(DatasetKind::Gsm8k, config.vocab_size).with_num_samples(8),
    )
    .generate(&mut rng);
    let profile = model.profile(&data);
    let keys = model.expert_keys();
    let cache = ExpertGramCache::new();
    for participant in 0..4usize {
        let tuning: HashSet<ExpertKey> = rng
            .choose_indices(keys.len(), 4 + 9 * participant)
            .into_iter()
            .map(|i| keys[i])
            .collect();
        let seed = 70 + participant as u64;
        let merging = MergingConfig::default();
        let standalone = CompactModelPlan::build(
            &model,
            &profile,
            &tuning,
            12,
            merging,
            &mut SeededRng::new(seed),
        );
        let shared = CompactModelPlan::build_shared(
            &model,
            &profile,
            &tuning,
            12,
            merging,
            &cache,
            &mut SeededRng::new(seed),
        );
        assert_eq!(shared, standalone, "{level:?}, participant {participant}");
    }
}

#[test]
fn final_scores_are_identical_across_simd_levels() {
    for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
        if simd::is_supported(level) {
            simd::set_global_level(level);
            shared_gram_plans_equal_standalone_plans(level);
        }
    }

    let best = simd::detect_best();
    if best == SimdLevel::Scalar {
        eprintln!("host has no SIMD support; scalar-vs-SIMD equivalence is vacuous");
        return;
    }
    let quick = || RunConfig::quick_demo(MoeConfig::tiny(), DatasetKind::Gsm8k);
    let methods = [Method::Flux, Method::Fmd, Method::Fmq, Method::Fmes];

    simd::set_global_level(SimdLevel::Scalar);
    let scalar_scores: Vec<f32> = methods
        .iter()
        .map(|&m| {
            let result = FederatedRun::new(quick(), 404).run(m);
            result.rounds.last().expect("quick demo has rounds").score
        })
        .collect();

    simd::set_global_level(best);
    for (&method, &expected) in methods.iter().zip(&scalar_scores) {
        let result = FederatedRun::new(quick(), 404).run(method);
        let got = result.rounds.last().expect("quick demo has rounds").score;
        assert_eq!(
            got, expected,
            "{method:?}: final score diverged between scalar and {best:?} kernels"
        );
    }
}
