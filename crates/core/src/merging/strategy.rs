//! Importance-based merging strategies (§5.3, Eq. 2).

use flux_moe::{ActivationProfile, Expert, ExpertKey, MoeModel};

/// How the experts of one cluster are combined into a merged expert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Plain parameter averaging (ablation baseline "Avg." of Fig. 17).
    Average,
    /// Weights proportional to activation frequency only (the prior-work
    /// baseline "Weighted Mer. (Frq.)" of Fig. 17).
    Frequency,
    /// The Flux strategy: weights proportional to activation frequency times
    /// the mean attention of the tokens the expert processes (Eq. 2,
    /// "Weighted Mer. (Att. + Frq.)").
    AttentionFrequency,
}

impl MergeStrategy {
    /// All strategies, in the order the paper's ablation lists them.
    pub fn all() -> [MergeStrategy; 3] {
        [
            MergeStrategy::Average,
            MergeStrategy::Frequency,
            MergeStrategy::AttentionFrequency,
        ]
    }

    /// Short label used by the experiment harness output.
    pub fn label(self) -> &'static str {
        match self {
            MergeStrategy::Average => "avg",
            MergeStrategy::Frequency => "weighted(freq)",
            MergeStrategy::AttentionFrequency => "weighted(att+freq)",
        }
    }

    /// The merge weight α_e assigned to one expert.
    pub fn weight(self, frequency: f32, attention: f32) -> f32 {
        match self {
            MergeStrategy::Average => 1.0,
            MergeStrategy::Frequency => frequency.max(1e-6),
            // Eq. (2): α_e = f_e · ā_e; the floor keeps never-activated
            // experts from being dropped to exactly zero weight, which would
            // erase their parameters entirely instead of merging them.
            MergeStrategy::AttentionFrequency => (frequency * attention).max(1e-6),
        }
    }
}

/// Merges the experts of one cluster in `layer` into a single expert.
///
/// Frequencies and attention scores come from the activation profile; the
/// weights follow the chosen strategy and are normalized inside
/// [`Expert::weighted_merge`].
///
/// # Panics
///
/// Panics if `members` is empty or references an expert outside the layer.
pub fn merge_cluster(
    model: &MoeModel,
    profile: &ActivationProfile,
    layer: usize,
    members: &[usize],
    strategy: MergeStrategy,
) -> Expert {
    assert!(!members.is_empty(), "cannot merge an empty cluster");
    let experts: Vec<&Expert> = members
        .iter()
        .map(|&e| model.expert(ExpertKey::new(layer, e)))
        .collect();
    let weights: Vec<f32> = members
        .iter()
        .map(|&e| {
            let key = ExpertKey::new(layer, e);
            strategy.weight(profile.frequency(key), profile.attention_of(key))
        })
        .collect();
    Expert::weighted_merge(&experts, &weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_moe::{ActivationTracker, MoeConfig};
    use flux_tensor::SeededRng;

    fn model() -> MoeModel {
        let mut rng = SeededRng::new(1);
        MoeModel::new(MoeConfig::tiny(), &mut rng)
    }

    /// Profile where expert 0 of layer 0 is hot with high attention and
    /// expert 1 is cold with low attention.
    fn biased_profile() -> ActivationProfile {
        let mut tracker = ActivationTracker::new(vec![8; 4]);
        for _ in 0..100 {
            tracker.record_layer_token(0);
        }
        for _ in 0..80 {
            tracker.record(0, 0, 0.9);
        }
        for _ in 0..20 {
            tracker.record(0, 1, 0.1);
        }
        tracker.finish()
    }

    #[test]
    fn strategy_weights_ordering() {
        let avg = MergeStrategy::Average;
        assert_eq!(avg.weight(0.1, 0.5), 1.0);
        assert_eq!(avg.weight(0.9, 0.1), 1.0);
        let freq = MergeStrategy::Frequency;
        assert!(freq.weight(0.9, 0.0) > freq.weight(0.1, 0.0));
        let att = MergeStrategy::AttentionFrequency;
        assert!(att.weight(0.5, 0.9) > att.weight(0.5, 0.1));
        // A rarely-activated but high-attention expert can outweigh a more
        // active low-attention expert (the paper's Fig. 9 observation).
        assert!(att.weight(0.2, 0.9) > att.weight(0.6, 0.05));
    }

    #[test]
    fn labels_and_all() {
        assert_eq!(MergeStrategy::all().len(), 3);
        assert_eq!(MergeStrategy::Average.label(), "avg");
        assert!(MergeStrategy::AttentionFrequency.label().contains("att"));
    }

    #[test]
    fn average_merge_is_midpoint_of_two_experts() {
        let model = model();
        let profile = biased_profile();
        let merged = merge_cluster(&model, &profile, 0, &[0, 1], MergeStrategy::Average);
        let a = model.expert(ExpertKey::new(0, 0));
        let b = model.expert(ExpertKey::new(0, 1));
        for ((m, x), y) in merged
            .w1
            .as_slice()
            .iter()
            .zip(a.w1.as_slice())
            .zip(b.w1.as_slice())
        {
            assert!((m - 0.5 * (x + y)).abs() < 1e-5);
        }
    }

    #[test]
    fn attention_frequency_merge_leans_toward_hot_expert() {
        let model = model();
        let profile = biased_profile();
        let merged = merge_cluster(
            &model,
            &profile,
            0,
            &[0, 1],
            MergeStrategy::AttentionFrequency,
        );
        let hot = model.expert(ExpertKey::new(0, 0));
        let cold = model.expert(ExpertKey::new(0, 1));
        // Distance to the hot expert must be much smaller than to the cold.
        let dist = |a: &Expert, b: &Expert| {
            a.w1.sub(&b.w1).unwrap().frobenius_norm() + a.w2.sub(&b.w2).unwrap().frobenius_norm()
        };
        assert!(dist(&merged, hot) < dist(&merged, cold));
    }

    #[test]
    fn singleton_cluster_is_identity() {
        let model = model();
        let profile = biased_profile();
        let merged = merge_cluster(&model, &profile, 0, &[3], MergeStrategy::AttentionFrequency);
        let original = model.expert(ExpertKey::new(0, 3));
        for (a, b) in merged.w2.as_slice().iter().zip(original.w2.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "empty cluster")]
    fn empty_cluster_panics() {
        let model = model();
        let profile = biased_profile();
        merge_cluster(&model, &profile, 0, &[], MergeStrategy::Average);
    }
}
