//! Expert activation and attention tracking.
//!
//! During a profiling pass (and optionally during training) the model
//! records, for every `(layer, expert)` pair, how many tokens were routed to
//! the expert, the attention those tokens received, and which samples
//! contributed them. The resulting [`ActivationProfile`] is the input to all
//! three Flux modules: it provides activation frequencies (profiling, §4),
//! the per-layer variances and attention scores feeding the merging budgets
//! and weights (§5), and the per-expert data subsets `D_e_i` used by the
//! utility definition (§6).

use std::collections::BTreeSet;

use flux_tensor::stats;

/// Identifies one expert in the model by layer and expert index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExpertKey {
    /// Layer index.
    pub layer: usize,
    /// Expert index within the layer (original, pre-merge id).
    pub expert: usize,
}

impl ExpertKey {
    /// Creates a key.
    pub fn new(layer: usize, expert: usize) -> Self {
        Self { layer, expert }
    }
}

/// Accumulates routing events during forward passes.
#[derive(Debug, Clone)]
pub struct ActivationTracker {
    experts_per_layer: Vec<usize>,
    /// Tokens routed to each expert.
    token_counts: Vec<Vec<u64>>,
    /// Total tokens seen by each layer.
    layer_tokens: Vec<u64>,
    /// Sum of received-attention of tokens routed to each expert.
    attention_sums: Vec<Vec<f32>>,
    /// Samples that contributed at least one token to each expert.
    sample_sets: Vec<Vec<BTreeSet<usize>>>,
    /// Sample currently being processed (set by [`ActivationTracker::begin_sample`]).
    current_sample: Option<usize>,
}

impl ActivationTracker {
    /// Creates a tracker for a model with the given per-layer expert counts.
    pub fn new(experts_per_layer: Vec<usize>) -> Self {
        let token_counts = experts_per_layer.iter().map(|&e| vec![0u64; e]).collect();
        let attention_sums = experts_per_layer.iter().map(|&e| vec![0.0f32; e]).collect();
        let sample_sets = experts_per_layer
            .iter()
            .map(|&e| vec![BTreeSet::new(); e])
            .collect();
        let layers = experts_per_layer.len();
        Self {
            experts_per_layer,
            token_counts,
            layer_tokens: vec![0; layers],
            attention_sums,
            sample_sets,
            current_sample: None,
        }
    }

    /// Number of layers tracked.
    pub fn num_layers(&self) -> usize {
        self.experts_per_layer.len()
    }

    /// Expert count of one layer.
    pub fn experts_in_layer(&self, layer: usize) -> usize {
        self.experts_per_layer[layer]
    }

    /// Marks the start of a new sample so routed tokens are attributed to it.
    pub fn begin_sample(&mut self, sample_id: usize) {
        self.current_sample = Some(sample_id);
    }

    /// Records that one token was routed to `expert` in `layer`, carrying the
    /// given received-attention score.
    ///
    /// # Panics
    ///
    /// Panics if the layer or expert index is out of range.
    pub fn record(&mut self, layer: usize, expert: usize, received_attention: f32) {
        self.token_counts[layer][expert] += 1;
        self.attention_sums[layer][expert] += received_attention;
        if let Some(sample) = self.current_sample {
            self.sample_sets[layer][expert].insert(sample);
        }
    }

    /// Records that a layer processed one token (independent of routing).
    pub fn record_layer_token(&mut self, layer: usize) {
        self.layer_tokens[layer] += 1;
    }

    /// Freezes the tracker into an [`ActivationProfile`].
    pub fn finish(&self) -> ActivationProfile {
        let mut frequencies = Vec::with_capacity(self.num_layers());
        let mut attention = Vec::with_capacity(self.num_layers());
        let mut samples = Vec::with_capacity(self.num_layers());
        for layer in 0..self.num_layers() {
            let total = self.layer_tokens[layer].max(1) as f32;
            let freq: Vec<f32> = self.token_counts[layer]
                .iter()
                .map(|&c| c as f32 / total)
                .collect();
            let att: Vec<f32> = self.token_counts[layer]
                .iter()
                .zip(self.attention_sums[layer].iter())
                .map(|(&c, &a)| if c > 0 { a / c as f32 } else { 0.0 })
                .collect();
            let sets: Vec<Vec<usize>> = self.sample_sets[layer]
                .iter()
                .map(|s| s.iter().copied().collect())
                .collect();
            frequencies.push(freq);
            attention.push(att);
            samples.push(sets);
        }
        ActivationProfile {
            frequencies,
            attention,
            sample_sets: samples,
        }
    }
}

/// A frozen summary of expert activation over a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationProfile {
    /// `frequencies[layer][expert]`: fraction of the layer's tokens routed to
    /// the expert. With top-k routing the per-layer frequencies sum to ~k.
    pub frequencies: Vec<Vec<f32>>,
    /// `attention[layer][expert]`: mean received-attention of the tokens the
    /// expert processed.
    pub attention: Vec<Vec<f32>>,
    /// `sample_sets[layer][expert]`: ids of samples that sent at least one
    /// token to the expert (the paper's `D_e_i`).
    pub sample_sets: Vec<Vec<Vec<usize>>>,
}

impl ActivationProfile {
    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.frequencies.len()
    }

    /// Activation frequency of one expert.
    pub fn frequency(&self, key: ExpertKey) -> f32 {
        self.frequencies[key.layer][key.expert]
    }

    /// Mean attention of tokens routed to one expert.
    pub fn attention_of(&self, key: ExpertKey) -> f32 {
        self.attention[key.layer][key.expert]
    }

    /// Samples routed through one expert.
    pub fn samples_of(&self, key: ExpertKey) -> &[usize] {
        &self.sample_sets[key.layer][key.expert]
    }

    /// Variance of activation frequencies in one layer (the per-layer signal
    /// of Fig. 2 and the denominator of the merging-budget formula, Eq. 1).
    pub fn layer_variance(&self, layer: usize) -> f32 {
        stats::variance(&self.frequencies[layer])
    }

    /// Variances for all layers.
    pub fn layer_variances(&self) -> Vec<f32> {
        (0..self.num_layers())
            .map(|l| self.layer_variance(l))
            .collect()
    }

    /// Estimation error (percent) of this profile's activation frequencies
    /// against a reference profile, the metric of Fig. 5/14.
    ///
    /// Computed as the mean absolute frequency error normalized by the mean
    /// reference frequency. Normalizing by the mean (rather than per-expert)
    /// keeps rarely-activated experts from dominating the metric, matching
    /// how the paper reports single-digit percentages.
    ///
    /// # Panics
    ///
    /// Panics if the two profiles have different shapes.
    pub fn estimation_error_pct(&self, reference: &ActivationProfile) -> f32 {
        assert_eq!(
            self.num_layers(),
            reference.num_layers(),
            "profiles must cover the same layers"
        );
        let mut abs_error = 0.0f32;
        let mut truth_sum = 0.0f32;
        let mut count = 0usize;
        for layer in 0..self.num_layers() {
            assert_eq!(
                self.frequencies[layer].len(),
                reference.frequencies[layer].len(),
                "layer {layer} expert counts differ"
            );
            for (&e, &t) in self.frequencies[layer]
                .iter()
                .zip(reference.frequencies[layer].iter())
            {
                abs_error += (e - t).abs();
                truth_sum += t;
                count += 1;
            }
        }
        if count == 0 || truth_sum <= 0.0 {
            return 0.0;
        }
        let mean_truth = truth_sum / count as f32;
        100.0 * (abs_error / count as f32) / mean_truth
    }

    /// All expert keys, layer-major order.
    pub fn keys(&self) -> Vec<ExpertKey> {
        let mut keys = Vec::new();
        for (layer, freqs) in self.frequencies.iter().enumerate() {
            for expert in 0..freqs.len() {
                keys.push(ExpertKey::new(layer, expert));
            }
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> ActivationTracker {
        ActivationTracker::new(vec![4, 4])
    }

    #[test]
    fn records_frequencies() {
        let mut t = tracker();
        t.begin_sample(0);
        for _ in 0..10 {
            t.record_layer_token(0);
        }
        for _ in 0..6 {
            t.record(0, 1, 0.5);
        }
        for _ in 0..4 {
            t.record(0, 2, 0.25);
        }
        let p = t.finish();
        assert!((p.frequency(ExpertKey::new(0, 1)) - 0.6).abs() < 1e-6);
        assert!((p.frequency(ExpertKey::new(0, 2)) - 0.4).abs() < 1e-6);
        assert_eq!(p.frequency(ExpertKey::new(0, 0)), 0.0);
    }

    #[test]
    fn attention_is_averaged_per_expert() {
        let mut t = tracker();
        t.record_layer_token(0);
        t.record(0, 0, 0.2);
        t.record(0, 0, 0.4);
        let p = t.finish();
        assert!((p.attention_of(ExpertKey::new(0, 0)) - 0.3).abs() < 1e-6);
        assert_eq!(p.attention_of(ExpertKey::new(0, 3)), 0.0);
    }

    #[test]
    fn sample_sets_deduplicate() {
        let mut t = tracker();
        t.begin_sample(7);
        t.record(1, 2, 0.1);
        t.record(1, 2, 0.1);
        t.begin_sample(9);
        t.record(1, 2, 0.1);
        let p = t.finish();
        assert_eq!(p.samples_of(ExpertKey::new(1, 2)), &[7, 9]);
    }

    #[test]
    fn layer_variance_reflects_skew() {
        let mut t = ActivationTracker::new(vec![4, 4]);
        for _ in 0..100 {
            t.record_layer_token(0);
            t.record_layer_token(1);
        }
        // Layer 0: heavily skewed. Layer 1: perfectly balanced.
        for _ in 0..90 {
            t.record(0, 0, 0.0);
        }
        for _ in 0..10 {
            t.record(0, 1, 0.0);
        }
        for e in 0..4 {
            for _ in 0..25 {
                t.record(1, e, 0.0);
            }
        }
        let p = t.finish();
        assert!(p.layer_variance(0) > p.layer_variance(1));
        assert!(p.layer_variance(1) < 1e-6);
        assert_eq!(p.layer_variances().len(), 2);
    }

    #[test]
    fn estimation_error_zero_for_identical_profiles() {
        let mut t = tracker();
        t.record_layer_token(0);
        t.record(0, 0, 0.1);
        let p = t.finish();
        assert_eq!(p.estimation_error_pct(&p), 0.0);
    }

    #[test]
    fn estimation_error_positive_for_different_profiles() {
        let mut a = tracker();
        let mut b = tracker();
        for _ in 0..10 {
            a.record_layer_token(0);
            b.record_layer_token(0);
        }
        for _ in 0..5 {
            a.record(0, 0, 0.0);
        }
        for _ in 0..4 {
            b.record(0, 0, 0.0);
        }
        let pa = a.finish();
        let pb = b.finish();
        assert!(pa.estimation_error_pct(&pb) > 0.0);
    }

    #[test]
    fn keys_enumerate_all_experts() {
        let p = tracker().finish();
        let keys = p.keys();
        assert_eq!(keys.len(), 8);
        assert_eq!(keys[0], ExpertKey::new(0, 0));
        assert_eq!(keys[7], ExpertKey::new(1, 3));
    }

    #[test]
    fn empty_layer_has_zero_frequency_not_nan() {
        let t = tracker();
        let p = t.finish();
        for layer in &p.frequencies {
            assert!(layer.iter().all(|f| f.is_finite()));
        }
    }
}
