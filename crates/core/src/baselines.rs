//! Baseline federated MoE fine-tuning methods (§8.1).
//!
//! The paper compares Flux against three baselines, each implemented here as
//! the participant-side logic of one federated round:
//!
//! * **FMD** — federated MoE fine-tuning with *dynamic offloading*: the full
//!   model is fine-tuned; experts that do not fit in GPU memory are swapped
//!   over PCIe every batch. Converges in the fewest rounds but pays for
//!   tuning every expert plus the offloading traffic.
//! * **FMQ** — federated MoE fine-tuning with *quantization*: all experts
//!   are quantized to INT4 so the model fits in memory, and training runs on
//!   the quantized weights. Rounds are cheap but quantization errors corrupt
//!   the updates, so convergence is unstable and plateaus below the others.
//! * **FMES** — federated MoE fine-tuning with *expert selection* (FedMoE
//!   style): the most frequently activated experts are kept and tuned, all
//!   other experts are discarded outright, which damages the forward pass.
//!
//! The shared [`local_train`] helper is also used by the Flux path in the
//! driver.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use flux_data::Sample;
use flux_fl::{CostModel, ExpertUpdate, Participant, RoundCostBreakdown, SharedExpertUpdate};
use flux_moe::{ActivationProfile, Expert, ExpertKey, GradientSet, MoeModel};
use flux_quant::{BitWidth, QuantizedMatrix};
use flux_tensor::{stats, Matrix};

use crate::merging::CompactModelPlan;
use crate::profiling::QuantizedModelCache;

/// Result of one participant-local round, independent of the method.
#[derive(Debug, Clone)]
pub struct LocalRoundOutput {
    /// Fine-tuned expert parameters keyed by *original* (global) expert ids,
    /// in the trained model's own `Arc`s: an expert no token reached is
    /// still the round-start snapshot's.
    pub expert_updates: Vec<SharedExpertUpdate>,
    /// Updated task head and its aggregation weight.
    pub head_update: Option<(Matrix, f32)>,
    /// Mean training loss over the local batches.
    pub train_loss: f32,
    /// Actual training tokens processed locally (wall-clock throughput
    /// accounting, as opposed to the simulated `reference_tokens`).
    pub trained_tokens: usize,
    /// Per-phase simulated cost of this participant's round.
    pub cost: RoundCostBreakdown,
}

impl LocalRoundOutput {
    /// Moves the upload payload (expert updates + task head) out of the
    /// output, leaving the reduction bookkeeping (loss, tokens, cost) in
    /// place. The driver carries the payload (decoded again after its trip
    /// over the wire when the run compresses) to its delivery layer, which
    /// stages it, while the participant-id-ordered reduction consumes the
    /// rest.
    pub fn take_upload(&mut self) -> (Vec<SharedExpertUpdate>, Option<(Matrix, f32)>) {
        (
            std::mem::take(&mut self.expert_updates),
            self.head_update.take(),
        )
    }
}

/// Runs local SGD over the samples in mini-batches, restricted to the given
/// tuning experts (compact ids of `model`). Returns the per-sample mean
/// loss and the gradient set of the *last* batch (used for utility
/// computation). Every other batch's gradients are released once applied,
/// before the next batch's are computed.
///
/// The reported loss weights every batch by its sample count, so a ragged
/// final chunk (10 samples at batch size 4 → 4/4/2) contributes its 2
/// samples' worth — not a full batch's worth — to `train_loss`.
pub fn local_train(
    model: &mut MoeModel,
    samples: &[Sample],
    tuning: Option<&HashSet<ExpertKey>>,
    learning_rate: f32,
    batch_size: usize,
) -> (f32, Option<GradientSet>) {
    if samples.is_empty() {
        return (0.0, None);
    }
    let batch_size = batch_size.max(1);
    let mut total_loss = 0.0;
    let mut total_samples = 0usize;
    let mut last_grads = None;
    let chunks = samples.chunks(batch_size);
    let last = chunks.len() - 1;
    for (i, chunk) in chunks.enumerate() {
        let mut grads = model.batch_gradients(chunk, tuning);
        let scale = 1.0 / grads.samples.max(1) as f32;
        grads.head_grad.scale_in_place(scale);
        for g in grads.expert_grads.values_mut() {
            g.scale(scale);
        }
        model.apply_gradients(&grads, learning_rate);
        total_loss += grads.loss * grads.samples as f32;
        total_samples += grads.samples;
        if i == last {
            last_grads = Some(grads);
        }
    }
    (total_loss / total_samples.max(1) as f32, last_grads)
}

/// Turns a locally trained model with an *identity* expert layout (FMD /
/// FMQ, where the compact and original ids coincide) into its upload: every
/// expert under its original id, in [`MoeModel::expert_keys`] order, and the
/// task head. The model is the participant's copy and is spent here, so
/// every expert moves in its `Arc`: one it wrote is its own, one it never
/// wrote is still the global model's, shared, never copied.
fn into_full_model_upload(model: MoeModel, weight: f32) -> (Vec<SharedExpertUpdate>, Matrix) {
    let MoeModel {
        layers,
        lm_head,
        cls_head,
        ..
    } = model;
    let updates = layers
        .into_iter()
        .enumerate()
        .flat_map(|(layer, l)| {
            l.moe
                .experts
                .into_iter()
                .enumerate()
                .map(move |(expert, parameters)| ExpertUpdate {
                    key: ExpertKey::new(layer, expert),
                    expert: parameters,
                    weight,
                })
        })
        .collect();
    (updates, active_head(lm_head, cls_head))
}

/// Turns a spent compact model into its upload: the compact expert of each
/// of `originals` that `key_map` keeps, in the order given, under its
/// original id, and the task head. Every uploaded expert moves in its
/// `Arc`: a trained one is the model's own, an untouched one is still the
/// global model's, shared, never copied.
pub(crate) fn into_compact_upload<'a>(
    model: MoeModel,
    originals: impl IntoIterator<Item = &'a ExpertKey>,
    key_map: &HashMap<ExpertKey, ExpertKey>,
    weight: f32,
) -> (Vec<SharedExpertUpdate>, Matrix) {
    let MoeModel {
        layers,
        lm_head,
        cls_head,
        ..
    } = model;
    let mut experts: Vec<Vec<Option<Arc<Expert>>>> = layers
        .into_iter()
        .map(|l| l.moe.experts.into_iter().map(Some).collect())
        .collect();
    let updates = originals
        .into_iter()
        .filter_map(|original| {
            let compact = key_map.get(original)?;
            let expert = experts[compact.layer][compact.expert]
                .take()
                .expect("the key map sends each original to a compact slot of its own");
            Some(ExpertUpdate {
                key: *original,
                expert,
                weight,
            })
        })
        .collect();
    (updates, active_head(lm_head, cls_head))
}

/// The head matrix a participant uploads (classification head when present,
/// generation head otherwise), moved out of its spent local model.
fn active_head(lm_head: Matrix, cls_head: Option<Matrix>) -> Matrix {
    cls_head.unwrap_or(lm_head)
}

/// FMD: fine-tune the full model with expert offloading.
///
/// `reference_tokens` is the participant's per-round token count scaled up
/// to the full-scale workload the cost model prices (see
/// `RunConfig::reference_token_scale`).
pub fn fmd_local_round(
    participant: &Participant,
    global: &MoeModel,
    cost: &CostModel,
    reference_tokens: usize,
    learning_rate: f32,
    batch_size: usize,
) -> LocalRoundOutput {
    let mut model = global.clone();
    let samples = &participant.train_data.samples;
    let (loss, _) = local_train(&mut model, samples, None, learning_rate, batch_size);
    let trained_tokens: usize = samples.iter().map(|s| s.tokens.len()).sum();

    let config = &global.config;
    let total_experts = config.total_experts();
    let capacity = participant.expert_capacity(config);
    let batches = reference_tokens.div_ceil(cost.batch_tokens.max(1));
    // Every batch has to stream in the experts that do not fit on the GPU.
    let swaps = total_experts.saturating_sub(capacity) * batches;
    let breakdown = RoundCostBreakdown {
        fine_tuning_s: cost.fine_tune_time_s(
            &participant.device,
            config,
            reference_tokens,
            total_experts,
            total_experts,
        ),
        offloading_s: cost.offload_time_s(&participant.device, config, swaps),
        communication_s: cost.communication_time_s(&participant.device, config, total_experts),
        ..Default::default()
    };
    let weight = samples.len().max(1) as f32;
    let (expert_updates, head) = into_full_model_upload(model, weight);
    LocalRoundOutput {
        expert_updates,
        head_update: Some((head, weight)),
        train_loss: loss,
        trained_tokens,
        cost: breakdown,
    }
}

/// FMQ: fine-tune an INT4-quantized copy of the model.
///
/// The forward/backward passes run on weights that carry INT4 round-trip
/// error, and the uploaded expert updates are re-quantized before upload, so
/// every round injects fresh quantization noise into the global model — the
/// source of FMQ's unstable convergence in the paper.
///
/// The INT4 model is identical for every participant, so it comes from the
/// round's shared [`QuantizedModelCache`]: one quantization per round, one
/// dequantized copy per participant (each participant then trains its copy
/// privately).
pub fn fmq_local_round(
    participant: &Participant,
    global: &MoeModel,
    cost: &CostModel,
    quant_cache: &QuantizedModelCache,
    reference_tokens: usize,
    learning_rate: f32,
    batch_size: usize,
) -> LocalRoundOutput {
    let mut model = quant_cache
        .get_or_quantize(global, BitWidth::Int4)
        .dequantize();
    let samples = &participant.train_data.samples;
    let (loss, _) = local_train(&mut model, samples, None, learning_rate, batch_size);
    let trained_tokens: usize = samples.iter().map(|s| s.tokens.len()).sum();
    // Re-quantize the fine-tuned experts before upload (INT4 both ways).
    for key in model.expert_keys() {
        let expert = model.expert_mut(key);
        expert.w1 = QuantizedMatrix::quantize(&expert.w1, BitWidth::Int4).dequantize();
        expert.w2 = QuantizedMatrix::quantize(&expert.w2, BitWidth::Int4).dequantize();
    }

    let config = &global.config;
    let total_experts = config.total_experts();
    let breakdown = RoundCostBreakdown {
        // INT4 compute is cheaper than FP16/FP32 training but still touches
        // every expert; quantizing the downloaded model is part of the round.
        fine_tuning_s: 0.6
            * cost.fine_tune_time_s(
                &participant.device,
                config,
                reference_tokens,
                total_experts,
                total_experts,
            )
            + cost.quantize_time_s(&participant.device, config, BitWidth::Int4),
        // INT4 updates are an 8th of the FP32 traffic.
        communication_s: cost.communication_time_s(&participant.device, config, total_experts)
            / 8.0,
        ..Default::default()
    };
    let weight = samples.len().max(1) as f32;
    let (expert_updates, head) = into_full_model_upload(model, weight);
    LocalRoundOutput {
        expert_updates,
        head_update: Some((head, weight)),
        train_loss: loss,
        trained_tokens,
        cost: breakdown,
    }
}

/// FMES: keep and tune the most frequently activated experts, discard the
/// rest (FedMoE-style selection).
///
/// `profile` supplies the activation frequencies; the paper notes FMES-style
/// systems assume this information is simply available, so its cost is not
/// charged to the round.
pub fn fmes_local_round(
    participant: &Participant,
    global: &MoeModel,
    profile: &ActivationProfile,
    cost: &CostModel,
    reference_tokens: usize,
    learning_rate: f32,
    batch_size: usize,
) -> LocalRoundOutput {
    let config = &global.config;
    let capacity = participant.expert_capacity(config);
    let tuning_capacity = participant.tuning_capacity(config);

    // Keep the top-`capacity` experts by activation frequency, spread across
    // layers proportionally to each layer's expert count.
    let keep = top_frequency_experts(profile, capacity);
    let plan = CompactModelPlan::build_discard(global, &keep);
    let mut compact = plan.apply(global, profile);
    let key_map = plan.tuning_key_map();

    // Of the kept experts, only the `tuning_capacity` most frequent are
    // actually trained. They upload in key order: a hash set's order
    // changes from process to process, and an upload's wire bytes keep
    // upload order.
    let trained_originals: BTreeSet<ExpertKey> =
        top_frequency_experts(profile, tuning_capacity.min(capacity))
            .into_iter()
            .collect();
    let tuning_compact: HashSet<ExpertKey> = trained_originals
        .iter()
        .filter_map(|k| key_map.get(k).copied())
        .collect();

    let samples = &participant.train_data.samples;
    let (loss, _) = local_train(
        &mut compact,
        samples,
        Some(&tuning_compact),
        learning_rate,
        batch_size,
    );
    let trained_tokens: usize = samples.iter().map(|s| s.tokens.len()).sum();

    // Upload only the trained experts, remapped to their original ids and
    // moved out of the compact model, which is spent here.
    let weight = samples.len().max(1) as f32;
    let (expert_updates, head) = into_compact_upload(compact, &trained_originals, &key_map, weight);

    let breakdown = RoundCostBreakdown {
        fine_tuning_s: cost.fine_tune_time_s(
            &participant.device,
            config,
            reference_tokens,
            tuning_compact.len(),
            capacity,
        ),
        communication_s: cost.communication_time_s(
            &participant.device,
            config,
            tuning_compact.len(),
        ),
        ..Default::default()
    };
    LocalRoundOutput {
        expert_updates,
        head_update: Some((head, weight)),
        train_loss: loss,
        trained_tokens,
        cost: breakdown,
    }
}

/// The `count` experts with the highest activation frequency across the
/// whole model (global ranking, as FedMoE does).
pub fn top_frequency_experts(profile: &ActivationProfile, count: usize) -> HashSet<ExpertKey> {
    let mut all: Vec<(ExpertKey, f32)> = Vec::new();
    for layer in 0..profile.num_layers() {
        for (expert, &f) in profile.frequencies[layer].iter().enumerate() {
            all.push((ExpertKey::new(layer, expert), f));
        }
    }
    let order = stats::top_k_indices(&all.iter().map(|&(_, f)| f).collect::<Vec<_>>(), count);
    order.into_iter().map(|i| all[i].0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_data::{DatasetGenerator, DatasetKind};
    use flux_fl::build_fleet;
    use flux_moe::MoeConfig;
    use flux_tensor::SeededRng;

    fn setup() -> (MoeModel, Vec<Participant>, CostModel) {
        let mut rng = SeededRng::new(1);
        let model = MoeModel::new(MoeConfig::tiny().with_classes(4), &mut rng);
        let cfg = flux_data::DatasetConfig::for_kind(DatasetKind::Mmlu, 64)
            .with_num_samples(24)
            .with_mean_seq_len(8);
        let data = DatasetGenerator::new(cfg).generate(&mut rng);
        let fleet = build_fleet(&data, 3, 0.5, &mut rng);
        (model, fleet, CostModel::default())
    }

    #[test]
    fn fmd_updates_every_expert_and_pays_offloading() {
        let (model, fleet, cost) = setup();
        let out = fmd_local_round(&fleet[0], &model, &cost, 40_000, 0.01, 4);
        assert_eq!(out.expert_updates.len(), model.expert_keys().len());
        assert!(out.head_update.is_some());
        assert!(out.cost.fine_tuning_s > 0.0);
        assert!(out.cost.communication_s > 0.0);
        assert!(out.train_loss > 0.0);
    }

    #[test]
    fn fmq_injects_quantization_error_into_updates() {
        let (model, fleet, cost) = setup();
        let cache = QuantizedModelCache::new();
        let out = fmq_local_round(&fleet[0], &model, &cost, &cache, 40_000, 0.01, 4);
        // Updates carry INT4 round-trip error relative to the true weights.
        let key = out.expert_updates[0].key;
        let uploaded = &out.expert_updates[0].expert;
        let original = model.expert(key);
        let diff = uploaded.w1.sub(&original.w1).unwrap().frobenius_norm();
        assert!(diff > 0.0, "FMQ update should differ from the original");
        // Quantized communication is cheaper than FMD's.
        let fmd = fmd_local_round(&fleet[0], &model, &cost, 40_000, 0.01, 4);
        assert!(out.cost.communication_s < fmd.cost.communication_s);
        assert_eq!(out.cost.offloading_s, 0.0);
    }

    #[test]
    fn fmes_uploads_only_selected_experts() {
        let (model, fleet, cost) = setup();
        let profile = model.profile(&fleet[0].train_data);
        let out = fmes_local_round(&fleet[0], &model, &profile, &cost, 40_000, 0.01, 4);
        let tuning_capacity = fleet[0].tuning_capacity(&model.config);
        assert!(out.expert_updates.len() <= tuning_capacity);
        assert!(!out.expert_updates.is_empty());
        // FMES must be cheaper per round than FMD.
        let fmd = fmd_local_round(&fleet[0], &model, &cost, 40_000, 0.01, 4);
        assert!(out.cost.total_s() < fmd.cost.total_s());
    }

    #[test]
    fn fmes_selects_most_frequent_experts() {
        let (model, fleet, _) = setup();
        let profile = model.profile(&fleet[0].train_data);
        let top = top_frequency_experts(&profile, 5);
        assert_eq!(top.len(), 5);
        // Every selected expert's frequency is at least the best frequency
        // among unselected experts of the same ranking pool.
        let min_selected = top
            .iter()
            .map(|k| profile.frequency(*k))
            .fold(f32::INFINITY, f32::min);
        let max_unselected = profile
            .keys()
            .into_iter()
            .filter(|k| !top.contains(k))
            .map(|k| profile.frequency(k))
            .fold(0.0f32, f32::max);
        assert!(min_selected >= max_unselected - 1e-6);
    }

    #[test]
    fn local_train_reduces_loss_and_reports_grads() {
        let (model, fleet, _) = setup();
        let mut local = model.clone();
        let samples = &fleet[0].train_data.samples;
        let (first_loss, grads) = local_train(&mut local, samples, None, 0.05, 4);
        assert!(grads.is_some());
        let (second_loss, _) = local_train(&mut local, samples, None, 0.05, 4);
        assert!(
            second_loss <= first_loss * 1.2,
            "{first_loss} -> {second_loss}"
        );
    }

    #[test]
    fn local_train_weights_ragged_last_batch_by_sample_count() {
        // Regression: with 10 samples at batch size 4 (chunks of 4/4/2) the
        // reported loss used to be the mean of batch means, over-weighting
        // the 2-sample tail. It must be the per-sample mean: each chunk's
        // loss weighted by its sample count.
        let (model, fleet, _) = setup();
        let samples: Vec<_> = fleet
            .iter()
            .flat_map(|p| p.train_data.samples.iter().cloned())
            .take(10)
            .collect();
        assert_eq!(samples.len(), 10);
        let mut trained = model.clone();
        let (reported, _) = local_train(&mut trained, &samples, None, 0.05, 4);
        // Replay the same schedule manually to get per-chunk losses.
        let mut replay = model.clone();
        let mut expected_num = 0.0f32;
        for chunk in samples.chunks(4) {
            let mut grads = replay.batch_gradients(chunk, None);
            let scale = 1.0 / grads.samples.max(1) as f32;
            grads.head_grad.scale_in_place(scale);
            for g in grads.expert_grads.values_mut() {
                g.scale(scale);
            }
            replay.apply_gradients(&grads, 0.05);
            expected_num += grads.loss * grads.samples as f32;
        }
        let expected = expected_num / 10.0;
        assert!(
            (reported - expected).abs() < 1e-6,
            "ragged loss weighting: reported {reported}, expected {expected}"
        );
        // And it must differ from the buggy mean-of-batch-means whenever the
        // chunk losses differ (which they do here).
        let batch_means: Vec<f32> = {
            let mut replay = model.clone();
            samples
                .chunks(4)
                .map(|chunk| {
                    let mut grads = replay.batch_gradients(chunk, None);
                    let scale = 1.0 / grads.samples.max(1) as f32;
                    grads.head_grad.scale_in_place(scale);
                    for g in grads.expert_grads.values_mut() {
                        g.scale(scale);
                    }
                    replay.apply_gradients(&grads, 0.05);
                    grads.loss
                })
                .collect()
        };
        let buggy = batch_means.iter().sum::<f32>() / batch_means.len() as f32;
        assert!(
            (reported - buggy).abs() > 1e-7,
            "test vacuous: weighted and unweighted means coincide ({reported} vs {buggy})"
        );
    }

    #[test]
    fn local_train_empty_samples() {
        let (model, _, _) = setup();
        let mut local = model.clone();
        let (loss, grads) = local_train(&mut local, &[], None, 0.05, 4);
        assert_eq!(loss, 0.0);
        assert!(grads.is_none());
    }
}
