//! The forward-gradient estimator against the loop it replaced.
//!
//! [`reference_estimate`] is that loop, kept here as the ground truth: two
//! *full* forwards ([`MoeModel::batch_loss`]) per perturbation, every
//! direction drawn. The estimator in the library records one unperturbed
//! forward, resumes probes at the perturbed layer and runs none for an
//! expert no row reaches — and must be indistinguishable from the loop in
//! everything a caller can observe: gradient bits, mean-loss bits, the RNG
//! stream it leaves behind, and a model restored exactly. The counting
//! test below holds the other half of the bargain: the work that cannot
//! matter is really not done.

use proptest::prelude::*;

use flux_core::assignment::ForwardGradEstimator;
use flux_data::{DatasetConfig, DatasetGenerator, DatasetKind, Sample};
use flux_moe::layer::expert_fanouts;
use flux_moe::{Expert, ExpertKey, MoeConfig, MoeModel, RecordedForward, RoutingMap};
use flux_tensor::{stats, SeededRng};

/// `ForwardGradEstimator::estimate_in_place` as it stood before it took a
/// recorded base: perturb, full forward, perturb the other way, full
/// forward, restore.
fn reference_estimate(
    estimator: &ForwardGradEstimator,
    model: &mut MoeModel,
    expert: ExpertKey,
    samples: &[Sample],
    rng: &mut SeededRng,
) -> (Vec<f32>, f32) {
    let base_expert = model.expert(expert).clone();
    let dims = base_expert.num_params();
    let mut grad = vec![0.0f32; dims];
    if samples.is_empty() || estimator.num_perturbations == 0 {
        return (grad, 0.0);
    }
    let eval_samples: Vec<&Sample> = samples
        .iter()
        .take(estimator.samples_per_eval.max(1))
        .collect();
    let mut mean_loss = 0.0;
    let mut evaluations = 0.0f32;
    let mut direction = vec![0.0f32; dims];
    for _ in 0..estimator.num_perturbations {
        for d in &mut direction {
            *d = rng.normal();
        }
        model
            .expert_mut(expert)
            .assign_perturbed(&base_expert, &direction, estimator.sigma);
        let loss_plus = model.batch_loss(&eval_samples);
        model
            .expert_mut(expert)
            .assign_perturbed(&base_expert, &direction, -estimator.sigma);
        let loss_minus = model.batch_loss(&eval_samples);
        mean_loss += 0.5 * (loss_plus + loss_minus);
        evaluations += 1.0;
        let directional = (loss_plus - loss_minus) / (2.0 * estimator.sigma);
        for (g, &d) in grad.iter_mut().zip(direction.iter()) {
            *g += directional * d / estimator.num_perturbations as f32;
        }
    }
    model.expert_mut(expert).copy_from(&base_expert);
    (grad, mean_loss / evaluations.max(1.0))
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A model of the given shape, optionally with the last two experts of one
/// layer merged behind a routing map, and always with one *orphan*: an
/// extra expert appended to a layer's list that the routing map never
/// redirects to, so no token can reach it whatever the gate decides.
fn model_with_orphan(
    seed: u64,
    layers: usize,
    experts: usize,
    top_k: usize,
    classes: Option<usize>,
    merged: bool,
) -> (MoeModel, ExpertKey) {
    let mut rng = SeededRng::new(seed);
    let mut config = MoeConfig::tiny().with_num_layers(layers);
    config.experts_per_layer = vec![experts; layers];
    config.top_k = top_k;
    config.num_classes = classes;
    let mut model = MoeModel::new(config, &mut rng);
    if merged {
        let layer = rng.below(layers);
        let list = &model.layers[layer].moe.experts;
        let merged = Expert::weighted_merge(&[&list[experts - 2], &list[experts - 1]], &[1.0, 3.0]);
        let mut compact: Vec<Expert> = list[..experts - 2].to_vec();
        compact.push(merged);
        let mut table: Vec<usize> = (0..experts - 1).collect();
        table.push(experts - 2);
        model.set_layer_experts(layer, compact, RoutingMap::from_table(table));
    }
    let layer = rng.below(layers);
    let orphan = Expert::new(model.config.d_model, model.config.d_ff, &mut rng);
    model.layers[layer].moe.experts.push(orphan);
    let key = ExpertKey::new(layer, model.layers[layer].moe.num_experts() - 1);
    (model, key)
}

fn samples_for(model: &MoeModel, seed: u64) -> Vec<Sample> {
    let kind = if model.config.num_classes.is_some() {
        DatasetKind::Piqa
    } else {
        DatasetKind::Dolly
    };
    let config = DatasetConfig::for_kind(kind, model.config.vocab_size)
        .with_num_samples(4)
        .with_mean_seq_len(7);
    DatasetGenerator::new(config)
        .generate(&mut SeededRng::new(seed ^ 0x5eed))
        .samples
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every expert of a random model — routed ones at every layer, unrouted
    /// ones, the orphan — through every entry point, against the reference.
    #[test]
    fn estimator_equals_the_full_forward_loop(
        seed in 0u64..10_000,
        layers in 1usize..4,
        experts in 3usize..7,
        top_k in 1usize..4,
        classification in 0usize..2,
        merged in 0usize..2,
        num_perturbations in 1usize..4,
        samples_per_eval in 1usize..4,
    ) {
        let classes = (classification == 1).then_some(2);
        let (mut model, orphan) =
            model_with_orphan(seed, layers, experts, top_k, classes, merged == 1);
        let samples = samples_for(&model, seed);
        let estimator = ForwardGradEstimator { sigma: 0.02, num_perturbations, samples_per_eval };
        let checksum = model.param_checksum();
        let keys = model.expert_keys();
        prop_assert!(keys.contains(&orphan));

        // Single-expert entry points, each from its own stream.
        let mut reference = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            let mut rng_ref = SeededRng::new(seed).derive(i as u64);
            let mut rng_new = rng_ref.clone();
            let mut rng_utility = rng_ref.clone();
            let (grad_ref, loss_ref) =
                reference_estimate(&estimator, &mut model, key, &samples, &mut rng_ref);
            let (grad, loss) = estimator.estimate(&model, key, &samples, &mut rng_new);
            prop_assert_eq!(bits(&grad), bits(&grad_ref), "gradient of {:?}", key);
            prop_assert_eq!(loss.to_bits(), loss_ref.to_bits(), "mean loss of {:?}", key);
            let next_draw = rng_ref.uniform().to_bits();
            prop_assert_eq!(rng_new.uniform().to_bits(), next_draw);

            let utility =
                estimator.estimate_utility_in_place(&mut model, key, &samples, 5, &mut rng_utility);
            let magnitude = stats::l2_norm(&grad_ref) / (grad_ref.len().max(1) as f32).sqrt();
            prop_assert_eq!(utility.key, key);
            prop_assert!(utility.estimated);
            prop_assert_eq!(utility.value.to_bits(), (5.0 * magnitude).to_bits());
            prop_assert_eq!(rng_utility.uniform().to_bits(), next_draw);
            prop_assert_eq!(model.param_checksum(), checksum, "{:?} not restored", key);
            reference.push(grad_ref);
        }

        // One base shared by every expert, one stream running through all of
        // them: each estimate must leave model and stream as the loop does.
        let base = estimator.record_base(&model, &samples);
        prop_assert!(!base.reaches(orphan), "a token reached the orphan");
        prop_assert!(keys.iter().any(|&k| base.reaches(k)));
        let mut rng_ref = SeededRng::new(seed).derive(99);
        let mut rng_new = rng_ref.clone();
        for &key in &keys {
            let (grad_ref, loss_ref) =
                reference_estimate(&estimator, &mut model, key, &samples, &mut rng_ref);
            let (grad, loss) = estimator.estimate_in_place(&mut model, &base, key, &mut rng_new);
            prop_assert_eq!(bits(&grad), bits(&grad_ref), "shared base, {:?}", key);
            prop_assert_eq!(loss.to_bits(), loss_ref.to_bits());
            if !base.reaches(key) {
                prop_assert!(grad.iter().all(|g| g.to_bits() == 0), "unreached {:?}", key);
            }
        }
        prop_assert_eq!(rng_new.below(1 << 20), rng_ref.below(1 << 20));
        prop_assert_eq!(model.param_checksum(), checksum);
        // The orphan's estimate is exactly zero; some routed expert's is not.
        let orphan_at = keys.iter().position(|&k| k == orphan).expect("listed above");
        prop_assert!(reference[orphan_at].iter().all(|g| g.to_bits() == 0));
        prop_assert!(reference.iter().flatten().any(|&g| g != 0.0));
    }
}

fn tiny_setup() -> (MoeModel, Vec<Sample>) {
    let model = MoeModel::new(MoeConfig::tiny(), &mut SeededRng::new(11));
    let samples = samples_for(&model, 12);
    (model, samples)
}

/// One routed and one unrouted expert of `layer`, as the base sees them.
fn routed_and_unrouted(
    model: &MoeModel,
    base: &RecordedForward<'_>,
    layer: usize,
) -> (ExpertKey, ExpertKey) {
    let keys = || (0..model.layers[layer].moe.num_experts()).map(|e| ExpertKey::new(layer, e));
    (
        keys().find(|&k| base.reaches(k)).expect("a routed expert"),
        keys()
            .find(|&k| !base.reaches(k))
            .expect("an unrouted expert"),
    )
}

/// Expert fan-outs — one per layer forward — that `f` starts. Read on this
/// thread, where the layer calls are made whatever the pool does.
fn fanouts<R>(f: impl FnOnce() -> R) -> usize {
    let before = expert_fanouts();
    f();
    expert_fanouts() - before
}

#[test]
fn probes_run_only_the_layers_a_perturbation_can_change() {
    let (mut model, samples) = tiny_setup();
    let layers = model.layers.len();
    for num_perturbations in [1usize, 3] {
        let estimator = ForwardGradEstimator {
            sigma: 0.02,
            num_perturbations,
            samples_per_eval: 1,
        };
        let mut rng = SeededRng::new(13);
        let mut base = None;
        assert_eq!(
            fanouts(|| base = Some(estimator.record_base(&model, &samples))),
            layers,
            "the base is one full forward"
        );
        let base = base.expect("just recorded");
        // Four experts on one base, as a participant explores them: an
        // unrouted one runs nothing, a routed one at layer L of n runs both
        // probes of each perturbation from L up.
        for layer in [0, layers - 1] {
            let (routed, unrouted) = routed_and_unrouted(&model, &base, layer);
            assert_eq!(
                fanouts(|| estimator.estimate_in_place(&mut model, &base, unrouted, &mut rng)),
                0,
                "unrouted expert at layer {layer}"
            );
            assert_eq!(
                fanouts(|| { estimator.estimate_in_place(&mut model, &base, routed, &mut rng) }),
                2 * num_perturbations * (layers - layer),
                "routed expert at layer {layer}"
            );
        }
        // The single-expert wrappers pay for a base of their own.
        let (routed, unrouted) = routed_and_unrouted(&model, &base, 1);
        assert_eq!(
            fanouts(|| estimator.estimate(&model, unrouted, &samples, &mut rng)),
            layers
        );
        assert_eq!(
            fanouts(|| {
                estimator.estimate_utility_in_place(&mut model, routed, &samples, 3, &mut rng)
            }),
            layers + 2 * num_perturbations * (layers - 1)
        );
    }
}

#[test]
fn no_samples_or_no_perturbations_draw_nothing() {
    let (model, samples) = tiny_setup();
    let key = ExpertKey::new(0, 0);
    for (num_perturbations, samples) in [(0usize, &samples[..]), (2, &samples[..0])] {
        let estimator = ForwardGradEstimator {
            sigma: 0.02,
            num_perturbations,
            samples_per_eval: 2,
        };
        let mut rng = SeededRng::new(15);
        let (grad, loss) = estimator.estimate(&model, key, samples, &mut rng);
        assert!(grad.iter().all(|g| g.to_bits() == 0));
        assert_eq!(grad.len(), model.expert(key).num_params());
        assert_eq!(loss.to_bits(), 0);
        assert_eq!(
            rng.uniform().to_bits(),
            SeededRng::new(15).uniform().to_bits()
        );
    }
}
