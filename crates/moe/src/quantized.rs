//! The low-bit model a participant profiles with (§4.1).
//!
//! A participant cannot hold the `f32` model, which is why the paper
//! profiles on a quantized one. [`QuantizedMoe`] keeps every weight matrix
//! as a packed [`QuantizedMatrix`] (biases, routing maps and `top_k` are
//! kept as they are) and profiles without ever materializing the whole
//! `f32` model: [`QuantizedMoe::profile`] dequantizes one transformer block
//! at a time into reused buffers, pushes every batch through it, and moves
//! on. The dequantized block is exactly `level as f32 * scale` per weight —
//! the values [`QuantizedMoe::dequantize`] produces for the whole model —
//! so the profile is bit-identical to profiling that `f32` copy.

use std::sync::Arc;

use flux_data::Dataset;
use flux_quant::{BitWidth, QuantizedMatrix};
use flux_tensor::Matrix;

use crate::attention::Attention;
use crate::config::MoeConfig;
use crate::expert::Expert;
use crate::gating::{Gate, RoutingMap};
use crate::layer::{MoeLayer, TransformerLayer};
use crate::model::{embed_packed, MoeModel, ProfilePass};
use crate::tracker::ActivationProfile;

/// An MoE model whose weight matrices stay quantized at one bit width.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMoe {
    config: MoeConfig,
    embedding: QuantizedMatrix,
    layers: Vec<QuantizedLayer>,
    lm_head: QuantizedMatrix,
    cls_head: Option<QuantizedMatrix>,
}

/// One quantized transformer block.
#[derive(Debug, Clone, PartialEq)]
struct QuantizedLayer {
    wq: QuantizedMatrix,
    wk: QuantizedMatrix,
    wv: QuantizedMatrix,
    wo: QuantizedMatrix,
    gate: QuantizedMatrix,
    top_k: usize,
    experts: Vec<QuantizedExpert>,
    routing_map: RoutingMap,
}

/// One quantized expert; the biases stay `f32`.
#[derive(Debug, Clone, PartialEq)]
struct QuantizedExpert {
    w1: QuantizedMatrix,
    b1: Vec<f32>,
    w2: QuantizedMatrix,
    b2: Vec<f32>,
}

impl QuantizedMoe {
    /// Quantizes every weight matrix of `model` at `width` (symmetric,
    /// per row); biases, routing maps and the configuration are copied.
    pub fn quantize(model: &MoeModel, width: BitWidth) -> Self {
        let q = |m: &Matrix| QuantizedMatrix::quantize(m, width);
        let layers = model
            .layers
            .iter()
            .map(|layer| QuantizedLayer {
                wq: q(&layer.attention.wq),
                wk: q(&layer.attention.wk),
                wv: q(&layer.attention.wv),
                wo: q(&layer.attention.wo),
                gate: q(&layer.moe.gate.weight),
                top_k: layer.moe.gate.top_k,
                experts: layer
                    .moe
                    .experts
                    .iter()
                    .map(|expert| QuantizedExpert {
                        w1: q(&expert.w1),
                        b1: expert.b1.clone(),
                        w2: q(&expert.w2),
                        b2: expert.b2.clone(),
                    })
                    .collect(),
                routing_map: layer.moe.routing_map.clone(),
            })
            .collect();
        Self {
            config: model.config.clone(),
            embedding: q(&model.embedding),
            layers,
            lm_head: q(&model.lm_head),
            cls_head: model.cls_head.as_ref().map(q),
        }
    }

    /// The whole model in `f32`: every weight `level as f32 * scale`.
    pub fn dequantize(&self) -> MoeModel {
        MoeModel {
            config: self.config.clone(),
            embedding: self.embedding.dequantize(),
            layers: self
                .layers
                .iter()
                .map(|layer| {
                    let mut out = empty_layer();
                    layer.dequantize_into(&mut out, true);
                    out
                })
                .collect(),
            lm_head: self.lm_head.dequantize(),
            cls_head: self.cls_head.as_ref().map(QuantizedMatrix::dequantize),
        }
    }

    /// Bytes of parameters held: packed levels and row scales of every
    /// matrix, plus the `f32` expert biases.
    pub fn storage_bytes(&self) -> usize {
        let mut total = self.embedding.storage_bytes()
            + self.lm_head.storage_bytes()
            + self.cls_head.as_ref().map_or(0, |h| h.storage_bytes());
        for layer in &self.layers {
            total += [&layer.wq, &layer.wk, &layer.wv, &layer.wo, &layer.gate]
                .iter()
                .map(|m| m.storage_bytes())
                .sum::<usize>();
            for expert in &layer.experts {
                total += expert.w1.storage_bytes()
                    + expert.w2.storage_bytes()
                    + (expert.b1.len() + expert.b2.len()) * 4;
            }
        }
        total
    }

    /// Profiles expert activation over `dataset` — the same profile as
    /// `self.dequantize().profile(dataset)` — holding one dequantized block
    /// at a time: every batch is embedded once (embedding rows dequantized
    /// per token), then each block is dequantized into the same buffers and
    /// every batch goes through it. The last block only routes, so its
    /// experts are never dequantized.
    pub fn profile(&self, dataset: &Dataset) -> ActivationProfile {
        let mut pass = ProfilePass::new(
            dataset,
            self.layers.iter().map(|l| l.gate.cols()).collect(),
            |samples| {
                embed_packed(&self.config, samples, |tok, row| {
                    self.embedding.dequantize_row_into(tok, row)
                })
            },
        );
        let mut block = empty_layer();
        for (idx, layer) in self.layers.iter().enumerate() {
            layer.dequantize_into(&mut block, !pass.routes_only(idx));
            pass.run_layer(idx, &block);
        }
        pass.finish()
    }
}

impl QuantizedLayer {
    /// Dequantizes this block into `out`, reusing every buffer whose shape
    /// already matches. Without `experts`, `out` keeps no experts: it can
    /// route (the gate and routing map are set) but not run the MoE FFN.
    fn dequantize_into(&self, out: &mut TransformerLayer, experts: bool) {
        let attention = &mut out.attention;
        self.wq.dequantize_into(&mut attention.wq);
        self.wk.dequantize_into(&mut attention.wk);
        self.wv.dequantize_into(&mut attention.wv);
        self.wo.dequantize_into(&mut attention.wo);
        attention.invalidate_fused();
        let moe = &mut out.moe;
        self.gate.dequantize_into(&mut moe.gate.weight);
        moe.gate.top_k = self.top_k;
        moe.routing_map.clone_from(&self.routing_map);
        if !experts {
            moe.experts.clear();
            return;
        }
        moe.experts
            .resize_with(self.experts.len(), || Arc::new(empty_expert()));
        for (q, e) in self.experts.iter().zip(&mut moe.experts) {
            let e = Arc::make_mut(e);
            q.w1.dequantize_into(&mut e.w1);
            e.b1.clone_from(&q.b1);
            q.w2.dequantize_into(&mut e.w2);
            e.b2.clone_from(&q.b2);
        }
    }
}

/// A block with no weights yet, for [`QuantizedLayer::dequantize_into`] to
/// fill.
fn empty_layer() -> TransformerLayer {
    let none = || Matrix::zeros(0, 0);
    TransformerLayer {
        attention: Attention::from_parts(none(), none(), none(), none()),
        moe: MoeLayer {
            gate: Gate {
                weight: none(),
                top_k: 0,
            },
            experts: Vec::new(),
            routing_map: RoutingMap::identity(0),
        },
    }
}

fn empty_expert() -> Expert {
    Expert {
        w1: Matrix::zeros(0, 0),
        b1: Vec::new(),
        w2: Matrix::zeros(0, 0),
        b2: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_data::{DatasetConfig, DatasetGenerator, DatasetKind, Sample};
    use flux_tensor::SeededRng;

    fn model(config: MoeConfig, seed: u64) -> MoeModel {
        MoeModel::new(config, &mut SeededRng::new(seed))
    }

    fn data(seed: u64, samples: usize) -> Dataset {
        DatasetGenerator::new(
            DatasetConfig::for_kind(DatasetKind::Dolly, 64)
                .with_num_samples(samples)
                .with_mean_seq_len(9),
        )
        .generate(&mut SeededRng::new(seed))
    }

    /// The profile of the dequantized `f32` model, which the layer-at-a-time
    /// pass must reproduce bit for bit.
    fn assert_profiles_match(model: &MoeModel, data: &Dataset) {
        for width in BitWidth::all() {
            let quantized = QuantizedMoe::quantize(model, width);
            assert_eq!(
                quantized.profile(data),
                quantized.dequantize().profile(data),
                "{width:?}"
            );
        }
    }

    #[test]
    fn profiles_match_the_dequantized_model_on_degenerate_inputs_too() {
        let m = model(MoeConfig::tiny(), 6);
        // Three profiling batches, so the layer-major order is exercised.
        assert_profiles_match(&m, &data(3, 37));

        let mut empty = data(7, 4);
        empty.samples.clear();
        assert_profiles_match(&m, &empty);

        let mut with_empty_sample = data(8, 5);
        with_empty_sample.samples.insert(
            2,
            Sample {
                tokens: Vec::new(),
                ..with_empty_sample.samples[0].clone()
            },
        );
        assert_profiles_match(&m, &with_empty_sample);

        let mut only_empty = data(9, 1);
        only_empty.samples[0].tokens.clear();
        assert_profiles_match(&m, &only_empty);

        let one_layer = model(MoeConfig::tiny().with_num_layers(1), 10);
        assert_profiles_match(&one_layer, &data(11, 20));
    }

    #[test]
    fn packed_storage_is_a_fraction_of_the_f32_model() {
        let m = model(MoeConfig::small(), 12);
        for (width, at_most) in [
            (BitWidth::Int2, 0.11),
            (BitWidth::Int4, 0.17),
            (BitWidth::Int8, 0.30),
        ] {
            let share =
                QuantizedMoe::quantize(&m, width).storage_bytes() as f64 / m.param_bytes() as f64;
            assert!(share <= at_most, "{width:?}: {share}");
        }
    }
}
