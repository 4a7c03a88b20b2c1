//! Compact model construction: keep tuning experts, merge the rest,
//! re-route the gate.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use flux_moe::{ActivationProfile, Expert, ExpertKey, MoeModel, RoutingMap};
use flux_tensor::{Matrix, SeededRng};

use super::budget::layer_budgets;
use super::cluster::{cluster_non_tuning_experts_shared, ClusteringMode};
use super::gram::ExpertGramCache;
use super::strategy::merge_cluster;
use super::MergingConfig;

/// One expert position in the compact per-participant model.
#[derive(Debug, Clone, PartialEq)]
pub enum ExpertSlot {
    /// A tuning expert kept at full fidelity.
    Keep {
        /// Original expert id within the layer.
        original: usize,
    },
    /// A frozen merged expert standing in for several non-tuning experts.
    Merged {
        /// Original expert ids merged into this slot.
        originals: Vec<usize>,
    },
    /// A zero expert: the originals are *discarded* (FMES-style), tokens
    /// routed to them receive no FFN contribution at this layer.
    Zero {
        /// Original expert ids that were discarded.
        originals: Vec<usize>,
    },
}

impl ExpertSlot {
    /// Original experts represented by this slot.
    pub fn originals(&self) -> Vec<usize> {
        match self {
            ExpertSlot::Keep { original } => vec![*original],
            ExpertSlot::Merged { originals } | ExpertSlot::Zero { originals } => originals.clone(),
        }
    }
}

/// A full plan describing how each layer of the global model is compacted
/// for one participant.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactModelPlan {
    /// Per-layer expert slots, compact index order.
    pub slots: Vec<Vec<ExpertSlot>>,
    /// Per-layer gate re-routing tables (`table[original] = compact`).
    pub routing_tables: Vec<Vec<usize>>,
    /// Merge strategy used when the plan is applied.
    pub config: MergingConfig,
}

impl CompactModelPlan {
    /// Builds the Flux merging plan.
    ///
    /// * `tuning` — the set of original experts this participant will tune.
    /// * `non_tuning_budget` — the participant's `B_non_i` (total merged
    ///   experts across layers).
    ///
    /// The non-tuning experts cluster fused across layers
    /// ([`ClusteringMode::Fused`], the Flux design).
    ///
    /// The inner products clustering needs are computed here, for the
    /// non-tuning experts only; a caller building plans for many
    /// participants against one model shares them through
    /// [`CompactModelPlan::build_shared`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the profile shape does not match the model.
    pub fn build(
        model: &MoeModel,
        profile: &ActivationProfile,
        tuning: &HashSet<ExpertKey>,
        non_tuning_budget: usize,
        config: MergingConfig,
        rng: &mut SeededRng,
    ) -> Self {
        Self::build_with(model, profile, tuning, non_tuning_budget, config, None, rng)
    }

    /// [`CompactModelPlan::build`] reading the experts' inner products from
    /// `gram_cache`, which must be the cache of `model`'s round: the first
    /// plans of the round compute them (together, if they arrive together),
    /// the rest copy their sub-block. The plan equals `build`'s bit for
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics if the profile shape does not match the model.
    pub fn build_shared(
        model: &MoeModel,
        profile: &ActivationProfile,
        tuning: &HashSet<ExpertKey>,
        non_tuning_budget: usize,
        config: MergingConfig,
        gram_cache: &ExpertGramCache,
        rng: &mut SeededRng,
    ) -> Self {
        Self::build_with(
            model,
            profile,
            tuning,
            non_tuning_budget,
            config,
            Some(gram_cache),
            rng,
        )
    }

    fn build_with(
        model: &MoeModel,
        profile: &ActivationProfile,
        tuning: &HashSet<ExpertKey>,
        non_tuning_budget: usize,
        config: MergingConfig,
        gram_cache: Option<&ExpertGramCache>,
        rng: &mut SeededRng,
    ) -> Self {
        let num_layers = model.layers.len();
        assert_eq!(profile.num_layers(), num_layers, "profile/model mismatch");
        // Partition experts into tuning / non-tuning per layer.
        let mut tuning_per_layer: Vec<Vec<usize>> = vec![Vec::new(); num_layers];
        let mut non_tuning_per_layer: Vec<Vec<usize>> = vec![Vec::new(); num_layers];
        for layer in 0..num_layers {
            let total = model.layers[layer].moe.num_original_experts();
            for e in 0..total {
                if tuning.contains(&ExpertKey::new(layer, e)) {
                    tuning_per_layer[layer].push(e);
                } else {
                    non_tuning_per_layer[layer].push(e);
                }
            }
        }
        let non_tuning_counts: Vec<usize> = non_tuning_per_layer.iter().map(Vec::len).collect();
        let budgets = layer_budgets(
            config.budget_policy,
            profile,
            &non_tuning_counts,
            non_tuning_budget,
        );
        let clusters = cluster_non_tuning_experts_shared(
            model,
            &non_tuning_per_layer,
            &budgets,
            ClusteringMode::Fused,
            config.pca_dims,
            gram_cache,
            rng,
        );

        let mut slots = Vec::with_capacity(num_layers);
        let mut routing_tables = Vec::with_capacity(num_layers);
        for (layer, layer_tuning) in tuning_per_layer.iter().enumerate() {
            let total = model.layers[layer].moe.num_original_experts();
            let mut layer_slots = Vec::new();
            let mut table = vec![usize::MAX; total];
            for &e in layer_tuning {
                table[e] = layer_slots.len();
                layer_slots.push(ExpertSlot::Keep { original: e });
            }
            for group in &clusters.clusters[layer] {
                let slot_idx = layer_slots.len();
                for &e in group {
                    table[e] = slot_idx;
                }
                layer_slots.push(ExpertSlot::Merged {
                    originals: group.clone(),
                });
            }
            debug_assert!(
                table.iter().all(|&t| t != usize::MAX),
                "every original expert must be mapped"
            );
            slots.push(layer_slots);
            routing_tables.push(table);
        }
        Self {
            slots,
            routing_tables,
            config,
        }
    }

    /// Builds an FMES-style plan: keep the tuning experts, *discard* all
    /// others (tokens routed to them are skipped at that layer).
    pub fn build_discard(model: &MoeModel, tuning: &HashSet<ExpertKey>) -> Self {
        let num_layers = model.layers.len();
        let mut slots = Vec::with_capacity(num_layers);
        let mut routing_tables = Vec::with_capacity(num_layers);
        for layer in 0..num_layers {
            let total = model.layers[layer].moe.num_original_experts();
            let mut layer_slots = Vec::new();
            let mut table = vec![usize::MAX; total];
            let mut discarded = Vec::new();
            for (e, entry) in table.iter_mut().enumerate() {
                if tuning.contains(&ExpertKey::new(layer, e)) {
                    *entry = layer_slots.len();
                    layer_slots.push(ExpertSlot::Keep { original: e });
                } else {
                    discarded.push(e);
                }
            }
            if !discarded.is_empty() {
                let slot_idx = layer_slots.len();
                for &e in &discarded {
                    table[e] = slot_idx;
                }
                layer_slots.push(ExpertSlot::Zero {
                    originals: discarded,
                });
            }
            slots.push(layer_slots);
            routing_tables.push(table);
        }
        Self {
            slots,
            routing_tables,
            config: MergingConfig::default(),
        }
    }

    /// Materializes the compact model described by this plan. A kept
    /// expert is shared with `global` (an `Arc` clone), so the compact
    /// model owns only its merged and zero experts until it writes a kept
    /// one, which [`MoeModel::expert_mut`] then copies.
    pub fn apply(&self, global: &MoeModel, profile: &ActivationProfile) -> MoeModel {
        // The clone shares the global experts; every layer's list is
        // replaced below.
        let mut compact = global.clone();
        for (layer, layer_slots) in self.slots.iter().enumerate() {
            let mut experts = Vec::with_capacity(layer_slots.len());
            for slot in layer_slots {
                let expert = match slot {
                    ExpertSlot::Keep { original } => {
                        Arc::clone(&global.layers[layer].moe.experts[*original])
                    }
                    ExpertSlot::Merged { originals } => Arc::new(merge_cluster(
                        global,
                        profile,
                        layer,
                        originals,
                        self.config.strategy,
                    )),
                    ExpertSlot::Zero { .. } => Arc::new(zero_expert(global, layer)),
                };
                experts.push(expert);
            }
            let map = RoutingMap::from_table(self.routing_tables[layer].clone());
            compact.set_layer_experts(layer, experts, map);
        }
        compact.config.experts_per_layer = compact.experts_per_layer();
        compact
    }

    /// The original expert a kept compact slot corresponds to, if it is a
    /// tuning slot.
    pub fn original_of_compact(&self, compact: ExpertKey) -> Option<ExpertKey> {
        match self.slots.get(compact.layer)?.get(compact.expert)? {
            ExpertSlot::Keep { original } => Some(ExpertKey::new(compact.layer, *original)),
            _ => None,
        }
    }

    /// Map from every kept original expert to its compact key.
    pub fn tuning_key_map(&self) -> HashMap<ExpertKey, ExpertKey> {
        let mut map = HashMap::new();
        for (layer, layer_slots) in self.slots.iter().enumerate() {
            for (compact, slot) in layer_slots.iter().enumerate() {
                if let ExpertSlot::Keep { original } = slot {
                    map.insert(
                        ExpertKey::new(layer, *original),
                        ExpertKey::new(layer, compact),
                    );
                }
            }
        }
        map
    }

    /// Total number of compact experts materialized across layers.
    pub fn total_compact_experts(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }
}

/// An expert whose output is identically zero (used for discarded experts).
fn zero_expert(global: &MoeModel, layer: usize) -> Expert {
    let reference = &global.layers[layer].moe.experts[0];
    Expert {
        w1: Matrix::zeros(reference.d_model(), reference.d_ff()),
        b1: vec![0.0; reference.d_ff()],
        w2: Matrix::zeros(reference.d_ff(), reference.d_model()),
        b2: vec![0.0; reference.d_model()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_data::{DatasetGenerator, DatasetKind};
    use flux_moe::MoeConfig;

    fn setup() -> (MoeModel, ActivationProfile, flux_data::Dataset) {
        let mut rng = SeededRng::new(1);
        let model = MoeModel::new(MoeConfig::tiny(), &mut rng);
        let cfg = flux_data::DatasetConfig::for_kind(DatasetKind::Gsm8k, 64)
            .with_num_samples(12)
            .with_mean_seq_len(8);
        let data = DatasetGenerator::new(cfg).generate(&mut rng);
        let profile = model.profile(&data);
        (model, profile, data)
    }

    fn tuning_set() -> HashSet<ExpertKey> {
        // Two tuning experts per layer.
        let mut set = HashSet::new();
        for layer in 0..4 {
            set.insert(ExpertKey::new(layer, 0));
            set.insert(ExpertKey::new(layer, 3));
        }
        set
    }

    #[test]
    fn plan_covers_every_original_expert() {
        let (model, profile, _) = setup();
        let mut rng = SeededRng::new(2);
        let plan = CompactModelPlan::build(
            &model,
            &profile,
            &tuning_set(),
            8,
            MergingConfig::default(),
            &mut rng,
        );
        for (layer, table) in plan.routing_tables.iter().enumerate() {
            assert_eq!(table.len(), 8);
            for (original, &compact) in table.iter().enumerate() {
                assert!(
                    compact < plan.slots[layer].len(),
                    "layer {layer} expert {original}"
                );
            }
        }
    }

    #[test]
    fn plan_shrinks_the_model() {
        let (model, profile, _) = setup();
        let mut rng = SeededRng::new(3);
        let plan = CompactModelPlan::build(
            &model,
            &profile,
            &tuning_set(),
            8,
            MergingConfig::default(),
            &mut rng,
        );
        // 8 tuning (2/layer) + at most 8 merged in total-budget, but at least
        // one merged per layer.
        assert!(plan.total_compact_experts() < 32);
        let merged = plan
            .slots
            .iter()
            .flatten()
            .filter(|slot| matches!(slot, ExpertSlot::Merged { .. }))
            .count();
        assert!(merged >= 4);
        let compact = plan.apply(&model, &profile);
        assert!(compact.num_params() < model.num_params());
        assert_eq!(
            compact.config.experts_per_layer,
            compact.experts_per_layer()
        );
    }

    #[test]
    fn compact_model_forward_works_and_is_close_to_global() {
        let (model, profile, data) = setup();
        let mut rng = SeededRng::new(4);
        let plan = CompactModelPlan::build(
            &model,
            &profile,
            &tuning_set(),
            12,
            MergingConfig::default(),
            &mut rng,
        );
        let compact = plan.apply(&model, &profile);
        let sample = &data.samples[0];
        let full = model.final_embedding(sample);
        let merged = compact.final_embedding(sample);
        let err = flux_tensor::stats::cosine_distance(&full, &merged);
        assert!(err < 0.5, "merged model diverges too much: {err}");
    }

    #[test]
    fn merged_model_is_closer_than_discard_model() {
        // The paper's core motivation (Fig. 3): merging non-tuning experts
        // preserves the model output better than discarding them.
        let (model, profile, data) = setup();
        let mut rng = SeededRng::new(5);
        let tuning = tuning_set();
        let merged = CompactModelPlan::build(
            &model,
            &profile,
            &tuning,
            8,
            MergingConfig::default(),
            &mut rng,
        )
        .apply(&model, &profile);
        let discarded = CompactModelPlan::build_discard(&model, &tuning).apply(&model, &profile);
        let mut merged_err = 0.0;
        let mut discard_err = 0.0;
        for sample in data.samples.iter().take(8) {
            let full = model.final_embedding(sample);
            merged_err +=
                flux_tensor::stats::cosine_distance(&full, &merged.final_embedding(sample));
            discard_err +=
                flux_tensor::stats::cosine_distance(&full, &discarded.final_embedding(sample));
        }
        assert!(
            merged_err < discard_err,
            "merging ({merged_err}) should beat discarding ({discard_err})"
        );
    }

    #[test]
    fn tuning_key_map_round_trips() {
        let (model, profile, _) = setup();
        let mut rng = SeededRng::new(6);
        let tuning = tuning_set();
        let plan = CompactModelPlan::build(
            &model,
            &profile,
            &tuning,
            8,
            MergingConfig::default(),
            &mut rng,
        );
        let map = plan.tuning_key_map();
        assert_eq!(map.len(), tuning.len());
        for (&original, &compact) in &map {
            assert_eq!(plan.original_of_compact(compact), Some(original));
        }
        // Non-tuning experts have no compact tuning key.
        assert!(!map.contains_key(&ExpertKey::new(0, 1)));
    }

    #[test]
    fn discard_plan_zeroes_non_tuning_contribution() {
        let (model, profile, _) = setup();
        let tuning = tuning_set();
        let plan = CompactModelPlan::build_discard(&model, &tuning);
        // Every layer: 2 keeps + 1 zero slot.
        for layer_slots in &plan.slots {
            assert_eq!(layer_slots.len(), 3);
            assert!(matches!(layer_slots[2], ExpertSlot::Zero { .. }));
        }
        let compact = plan.apply(&model, &profile);
        // The zero expert truly outputs zero.
        let zero = &compact.layers[0].moe.experts[2];
        let x = Matrix::filled(2, zero.d_model(), 1.0);
        let out = zero.forward_no_cache(&x);
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn slot_accessors() {
        let keep = ExpertSlot::Keep { original: 5 };
        assert_eq!(keep.originals(), vec![5]);
        let merged = ExpertSlot::Merged {
            originals: vec![1, 2],
        };
        assert_eq!(merged.originals(), vec![1, 2]);
    }
}
