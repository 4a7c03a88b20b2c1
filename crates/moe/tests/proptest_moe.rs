//! Property-based tests for the MoE substrate: routing, merging,
//! checkpointing (including hostile checkpoint bytes), and gradient-shape
//! invariants.

use proptest::prelude::*;

use flux_data::{Sample, Task};
use flux_moe::checkpoint;
use flux_moe::gating::Gate;
use flux_moe::{Expert, ExpertKey, MoeConfig, MoeModel, RoutingMap};
use flux_tensor::SeededRng;

fn tiny_model(seed: u64) -> MoeModel {
    let mut rng = SeededRng::new(seed);
    MoeModel::new(MoeConfig::tiny(), &mut rng)
}

fn tiny_cls_model(seed: u64) -> MoeModel {
    let mut rng = SeededRng::new(seed);
    MoeModel::new(MoeConfig::tiny().with_classes(3), &mut rng)
}

/// A sample of `tokens` with a generation task.
fn token_sample(tokens: &[u32]) -> Sample {
    Sample {
        tokens: tokens.to_vec(),
        topic: 0,
        task: Task::Generation {
            reference: vec![1, 2],
        },
    }
}

/// Byte offsets of the `u32` integers at the head of a FLUXMOE1 checkpoint:
/// the config's fields (name length, vocabulary, model and FFN widths,
/// layer count, the per-layer expert-count list, top-k, heads, the class
/// count when present, sequence length), then the embedding's two
/// dimensions.
fn header_ints(config: &MoeConfig) -> Vec<usize> {
    let mut ints = vec![8];
    let mut at = 12 + config.name.len();
    let fixed = 5 + config.experts_per_layer.len() + 2;
    ints.extend((0..fixed).map(|i| at + 4 * i));
    // The class count's presence byte.
    at += 4 * fixed + 1;
    let tail = 1 + usize::from(config.num_classes.is_some());
    ints.extend((0..tail).map(|i| at + 4 * i));
    // The `f32` reference size.
    at += 4 * tail + 4;
    ints.extend([at, at + 4]);
    ints
}

#[test]
fn header_ints_point_at_the_header_integers() {
    for model in [tiny_model(1), tiny_cls_model(1)] {
        let bytes = checkpoint::to_bytes(&model);
        let read: Vec<usize> = header_ints(&model.config)
            .into_iter()
            .map(|at| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize)
            .collect();
        let c = &model.config;
        let mut expected = vec![c.name.len(), c.vocab_size, c.d_model, c.d_ff, c.num_layers];
        expected.push(c.experts_per_layer.len());
        expected.extend(&c.experts_per_layer);
        expected.extend([c.top_k, c.num_heads]);
        expected.extend(c.num_classes);
        expected.extend([c.max_seq_len, c.vocab_size, c.d_model]);
        assert_eq!(read, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Top-k routing weights are a probability distribution and experts are
    /// distinct, for any token vector.
    #[test]
    fn routing_weights_form_distribution(
        seed in 0u64..500,
        token in prop::collection::vec(-3.0f32..3.0, 16),
        top_k in 1usize..5,
    ) {
        let mut rng = SeededRng::new(seed);
        let gate = Gate::new(16, 8, top_k, &mut rng);
        let routing = gate.route(&token);
        prop_assert_eq!(routing.experts.len(), top_k.min(8));
        let sum: f32 = routing.weights.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        let mut distinct = routing.experts.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(distinct.len(), routing.experts.len());
        // Full distribution is also a distribution.
        let full: f32 = routing.full_distribution.iter().sum();
        prop_assert!((full - 1.0).abs() < 1e-4);
    }

    /// A weighted merge of experts is always a convex combination: every
    /// parameter lies within the min/max envelope of the inputs.
    #[test]
    fn weighted_merge_is_convex_combination(
        seed in 0u64..500,
        w1 in 0.01f32..10.0,
        w2 in 0.01f32..10.0,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = Expert::new(4, 8, &mut rng);
        let b = Expert::new(4, 8, &mut rng);
        let merged = Expert::weighted_merge(&[&a, &b], &[w1, w2]);
        for ((m, x), y) in merged
            .w1
            .as_slice()
            .iter()
            .zip(a.w1.as_slice())
            .zip(b.w1.as_slice())
        {
            let lo = x.min(*y) - 1e-5;
            let hi = x.max(*y) + 1e-5;
            prop_assert!((lo..=hi).contains(m), "{m} outside [{lo}, {hi}]");
        }
    }

    /// Checkpoint serialization round-trips the model exactly.
    #[test]
    fn checkpoint_round_trip(seed in 0u64..200) {
        let model = tiny_model(seed);
        let restored = checkpoint::from_bytes(&checkpoint::to_bytes(&model)).unwrap();
        prop_assert_eq!(restored.config, model.config);
        prop_assert_eq!(restored.embedding, model.embedding);
        prop_assert_eq!(restored.layers.len(), model.layers.len());
        for (a, b) in restored.layers.iter().zip(model.layers.iter()) {
            prop_assert_eq!(&a.moe.experts, &b.moe.experts);
        }
    }

    /// The forward pass is deterministic and finite for arbitrary token ids
    /// (out-of-vocabulary ids are clamped).
    #[test]
    fn forward_is_total_and_deterministic(
        seed in 0u64..100,
        tokens in prop::collection::vec(0u32..10_000, 1..12),
    ) {
        let model = tiny_model(seed);
        let sample = token_sample(&tokens);
        let (a, _) = model.forward_no_cache_batch(&[&sample]);
        let (b, _) = model.forward_no_cache_batch(&[&sample]);
        prop_assert_eq!(a.shape(), (tokens.len(), 16));
        prop_assert!(a.as_slice().iter().all(|x| x.is_finite()));
        prop_assert_eq!(a, b);
    }

    /// A routing map built from any valid merge grouping redirects every
    /// original expert to a valid compact expert.
    #[test]
    fn routing_map_total_coverage(groups in prop::collection::vec(0usize..4, 8)) {
        // Make the table dense: ensure every compact id up to the max is hit.
        let max = *groups.iter().max().unwrap();
        let mut table = groups.clone();
        let len = table.len();
        for compact in 0..=max {
            if !table.contains(&compact) {
                table[compact % len] = compact;
            }
        }
        let max = *table.iter().max().unwrap();
        for compact in 0..=max {
            prop_assume!(table.contains(&compact));
        }
        let map = RoutingMap::from_table(table.clone());
        prop_assert_eq!(map.num_original(), table.len());
        for (original, &compact) in table.iter().enumerate() {
            prop_assert_eq!(map.redirect(original), compact);
            prop_assert!(map.originals_of(compact).contains(&original));
        }
    }

    /// Expert gradients restricted to a tuning set never contain keys outside
    /// that set, for arbitrary tuning subsets.
    #[test]
    fn tuning_restriction_is_respected(seed in 0u64..50, picks in prop::collection::vec(0usize..32, 1..6)) {
        let model = tiny_model(seed);
        let mut rng = SeededRng::new(seed + 1000);
        let sample = flux_data::DatasetGenerator::for_kind(flux_data::DatasetKind::Dolly, 64)
            .generate_sample(0, &mut rng);
        let tuning: std::collections::HashSet<ExpertKey> = picks
            .iter()
            .map(|&p| ExpertKey::new(p / 8, p % 8))
            .collect();
        let grads = model.batch_gradients(std::slice::from_ref(&sample), Some(&tuning));
        prop_assert!(grads.expert_grads.keys().all(|k| tuning.contains(k)));
        prop_assert!(grads.loss.is_finite() && grads.loss >= 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile checkpoint bytes: a truncated buffer, one flipped bit, four
    /// bytes overwritten with a random `u32`, or a header integer
    /// overwritten with a small one. Decoding ends in a typed
    /// `CheckpointError` or in a model that a forward and a loss probe run
    /// on without panicking.
    #[test]
    fn mutated_checkpoints_decode_or_fail_typed(
        seed in 0u64..4,
        classification in 0usize..2,
        mutation in 0usize..4,
        at in 0usize..1 << 24,
        value in 0u32..u32::MAX,
    ) {
        let model = if classification == 1 { tiny_cls_model(seed) } else { tiny_model(seed) };
        let mut bytes = checkpoint::to_bytes(&model);
        match mutation {
            0 => bytes.truncate(at % bytes.len()),
            1 => {
                let byte = at / 8 % bytes.len();
                bytes[byte] ^= 1 << (at % 8);
            }
            2 => {
                let at = at % (bytes.len() - 3);
                bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
            }
            _ => {
                let ints = header_ints(&model.config);
                let at = ints[at % ints.len()];
                bytes[at..at + 4].copy_from_slice(&(value % 65).to_le_bytes());
            }
        }
        match checkpoint::from_bytes(&bytes) {
            Err(e) => prop_assert!(!e.to_string().is_empty()),
            Ok(decoded) => {
                let mut sample = token_sample(&[0, 5, 63, 9999]);
                if decoded.cls_head.is_some() {
                    sample.task = Task::Classification { label: 0, num_classes: 3 };
                }
                let (hidden, _) = decoded.forward_no_cache_batch(&[&sample]);
                prop_assert_eq!(hidden.rows(), 4);
                let _ = decoded.batch_loss(&[&sample]);
            }
        }
    }
}
