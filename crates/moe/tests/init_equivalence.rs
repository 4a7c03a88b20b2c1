//! Model initialization against the sequential pass it stands for.
//!
//! `MoeModel::new` builds every layer as a pool task, each from a
//! generator advanced to its own offset into the caller's stream.
//! The reference here is the pass those offsets are computed from: one
//! generator drawn from start to end — embedding, each layer's attention,
//! experts and gate, then the heads. Every tensor must match it bit for
//! bit, and the caller's generator must be left where the pass leaves it,
//! at every pool width.

use flux_moe::layer::TransformerLayer;
use flux_moe::{MoeConfig, MoeModel};
use flux_tensor::{init, SeededRng};
use threadpool::ThreadPool;

/// The one-generator pass, in the order the model has always drawn.
fn sequential(config: &MoeConfig, rng: &mut SeededRng) -> MoeModel {
    let embedding = init::embedding(config.vocab_size, config.d_model, rng);
    let layers = (0..config.num_layers)
        .map(|l| {
            TransformerLayer::new(
                config.d_model,
                config.d_ff,
                config.experts_in_layer(l),
                config.top_k,
                rng,
            )
        })
        .collect();
    let lm_head = init::xavier_uniform(config.d_model, config.vocab_size, rng);
    let cls_head = config
        .num_classes
        .map(|c| init::xavier_uniform(config.d_model, c, rng));
    MoeModel {
        config: config.clone(),
        embedding,
        layers,
        lm_head,
        cls_head,
    }
}

/// Every tensor of the model with its name and bits, in a fixed
/// order.
fn tensors(model: &MoeModel) -> Vec<(String, Vec<u32>)> {
    let mut out = Vec::new();
    let mut push = |name: String, values: &[f32]| {
        out.push((name, values.iter().map(|v| v.to_bits()).collect()));
    };
    push("embedding".into(), model.embedding.as_slice());
    for (l, layer) in model.layers.iter().enumerate() {
        let a = &layer.attention;
        for (part, m) in [("wq", &a.wq), ("wk", &a.wk), ("wv", &a.wv), ("wo", &a.wo)] {
            push(format!("layer {l} {part}"), m.as_slice());
        }
        push(format!("layer {l} gate"), layer.moe.gate.weight.as_slice());
        for (e, expert) in layer.moe.experts.iter().enumerate() {
            push(format!("layer {l} expert {e} w1"), expert.w1.as_slice());
            push(format!("layer {l} expert {e} b1"), &expert.b1);
            push(format!("layer {l} expert {e} w2"), expert.w2.as_slice());
            push(format!("layer {l} expert {e} b2"), &expert.b2);
        }
    }
    push("lm_head".into(), model.lm_head.as_slice());
    if let Some(head) = &model.cls_head {
        push("cls_head".into(), head.as_slice());
    }
    out
}

fn next_draws(rng: &mut SeededRng) -> Vec<u32> {
    (0..4).map(|_| rng.uniform().to_bits()).collect()
}

#[test]
fn parallel_init_matches_the_sequential_pass() {
    let configs = [
        MoeConfig::tiny(),
        MoeConfig::small(),
        MoeConfig::llama_moe_sim(),
        MoeConfig::deepseek_moe_sim(),
        MoeConfig::small().with_classes(4),
        // Uneven layers: every layer's offset depends on the expert counts
        // of the layers before it.
        MoeConfig::tiny().with_experts_per_layer(vec![3, 8, 1, 5]),
    ];
    for config in configs {
        let root = SeededRng::new(0x5EED).derive(3);
        let mut reference_rng = root.clone();
        let reference = tensors(&sequential(&config, &mut reference_rng));
        let reference_next = next_draws(&mut reference_rng);
        for width in [1, 2, 8] {
            let mut rng = root.clone();
            let model = ThreadPool::new(width).install(|| MoeModel::new(config.clone(), &mut rng));
            let built = tensors(&model);
            assert_eq!(
                built.len(),
                reference.len(),
                "{} at width {width}",
                config.name
            );
            for (got, want) in built.iter().zip(&reference) {
                assert!(
                    got == want,
                    "{} at width {width}: {} differs from the sequential pass",
                    config.name,
                    want.0
                );
            }
            assert_eq!(
                next_draws(&mut rng),
                reference_next,
                "{} at width {width}: the caller's stream moved differently",
                config.name
            );
        }
    }
}
