//! Latent-topic synthetic dataset generator.
//!
//! Each dataset is generated from a topic model: a topic picks a preferred
//! band of the vocabulary, tokens are sampled mostly from that band, and the
//! supervision target is a deterministic-plus-noise function of the tokens.
//! Because different topics occupy different regions of embedding space, a
//! trained MoE gate routes them to different experts — which is the property
//! the whole Flux pipeline (profiling, merging, role assignment) exercises.

use flux_tensor::SeededRng;

use crate::dataset::{Dataset, DatasetKind, Sample, Task};

/// Configuration for synthesizing one dataset.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Which benchmark to synthesize.
    pub kind: DatasetKind,
    /// Vocabulary size (shared with the model config).
    pub vocab_size: usize,
    /// Number of samples to generate.
    pub num_samples: usize,
    /// Mean sequence length; actual lengths vary ±50% around this.
    pub mean_seq_len: usize,
    /// Number of latent topics.
    pub num_topics: usize,
    /// Probability that a token is drawn from the sample's topic band rather
    /// than uniformly from the whole vocabulary. Higher values produce more
    /// skewed expert activation.
    pub topic_concentration: f32,
    /// Label noise: probability that a classification label is replaced by a
    /// uniformly random one (keeps the task from being trivially learnable).
    pub label_noise: f32,
}

impl DatasetConfig {
    /// Default configuration for a dataset kind, using the per-kind shape
    /// parameters from [`DatasetKind`].
    pub fn for_kind(kind: DatasetKind, vocab_size: usize) -> Self {
        Self {
            kind,
            vocab_size,
            num_samples: kind.default_num_samples(),
            mean_seq_len: kind.mean_seq_len(),
            num_topics: kind.num_topics(),
            topic_concentration: 0.85,
            label_noise: 0.05,
        }
    }

    /// Overrides the number of samples.
    pub fn with_num_samples(mut self, n: usize) -> Self {
        self.num_samples = n;
        self
    }

    /// Overrides the mean sequence length.
    pub fn with_mean_seq_len(mut self, len: usize) -> Self {
        self.mean_seq_len = len.max(2);
        self
    }
}

/// Generates synthetic datasets from a [`DatasetConfig`].
#[derive(Debug, Clone)]
pub struct DatasetGenerator {
    config: DatasetConfig,
}

impl DatasetGenerator {
    /// Creates a generator for the given configuration.
    pub fn new(config: DatasetConfig) -> Self {
        Self { config }
    }

    /// Convenience constructor using per-kind defaults.
    pub fn for_kind(kind: DatasetKind, vocab_size: usize) -> Self {
        Self::new(DatasetConfig::for_kind(kind, vocab_size))
    }

    /// The configuration in use.
    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    /// Generates the full dataset.
    ///
    /// Topic proportions are drawn from a moderately skewed Dirichlet so
    /// topics (and therefore experts) are not uniformly popular, matching
    /// the activation-frequency disparities of the paper's Fig. 2.
    pub fn generate(&self, rng: &mut SeededRng) -> Dataset {
        let cfg = &self.config;
        let topic_weights = rng.dirichlet(0.6, cfg.num_topics.max(1));
        let mut samples = Vec::with_capacity(cfg.num_samples);
        for _ in 0..cfg.num_samples {
            let topic = rng.weighted_index(&topic_weights);
            samples.push(self.generate_sample(topic, rng));
        }
        rng.shuffle(&mut samples);
        Dataset {
            kind: cfg.kind,
            vocab_size: cfg.vocab_size,
            samples,
        }
    }

    /// Generates a single sample of the given topic.
    pub fn generate_sample(&self, topic: usize, rng: &mut SeededRng) -> Sample {
        let cfg = &self.config;
        let len = self.sample_length(rng);
        let tokens: Vec<u32> = (0..len).map(|_| self.sample_token(topic, rng)).collect();
        let task = match cfg.kind.num_classes() {
            Some(num_classes) => {
                let mut label = self.derive_label(&tokens, topic, num_classes);
                if rng.chance(cfg.label_noise) {
                    label = rng.below(num_classes);
                }
                Task::Classification { label, num_classes }
            }
            None => Task::Generation {
                reference: self.derive_reference(&tokens),
            },
        };
        Sample {
            tokens,
            topic,
            task,
        }
    }

    /// Sequence length uniform in `[mean/2, 3*mean/2]`.
    fn sample_length(&self, rng: &mut SeededRng) -> usize {
        let mean = self.config.mean_seq_len.max(2);
        let lo = (mean / 2).max(2);
        let hi = (mean * 3 / 2).max(lo + 1);
        rng.range(lo, hi + 1)
    }

    /// Samples a token, usually from the topic's vocabulary band.
    fn sample_token(&self, topic: usize, rng: &mut SeededRng) -> u32 {
        let cfg = &self.config;
        let vocab = cfg.vocab_size.max(2);
        if rng.chance(cfg.topic_concentration) {
            // Topic bands tile the vocabulary; adjacent topics overlap by
            // half a band so that routing is informative but not trivial.
            let band = (vocab / cfg.num_topics.max(1)).max(2);
            let start = (topic * band / 2) % vocab;
            let offset = rng.below(band);
            ((start + offset) % vocab) as u32
        } else {
            rng.below(vocab) as u32
        }
    }

    /// Classification label: a deterministic hash of the token histogram and
    /// the topic, so the mapping is learnable from the inputs alone.
    fn derive_label(&self, tokens: &[u32], topic: usize, num_classes: usize) -> usize {
        let sum: u64 = tokens.iter().map(|&t| t as u64).sum();
        let mix = sum
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(topic as u64 * 0x85EB_CA6B);
        // The label leans heavily on the topic (learnable from routing) with
        // a token-dependent component.
        (topic + (mix % 3) as usize) % num_classes.max(1)
    }

    /// Generation reference: an affine remapping of the input's trailing
    /// tokens, so the target is a learnable function of the input.
    fn derive_reference(&self, tokens: &[u32]) -> Vec<u32> {
        let vocab = self.config.vocab_size.max(2) as u32;
        let tail = tokens.len().min(16);
        tokens[tokens.len() - tail..]
            .iter()
            .map(|&t| (t.wrapping_mul(3).wrapping_add(7)) % vocab)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generate(kind: DatasetKind, seed: u64) -> Dataset {
        let mut rng = SeededRng::new(seed);
        DatasetGenerator::for_kind(kind, 256).generate(&mut rng)
    }

    #[test]
    fn generates_requested_number_of_samples() {
        for kind in DatasetKind::all() {
            let ds = generate(kind, 1);
            assert_eq!(ds.len(), kind.default_num_samples());
            assert_eq!(ds.kind, kind);
        }
    }

    #[test]
    fn tokens_within_vocabulary() {
        let ds = generate(DatasetKind::Mmlu, 2);
        for s in &ds.samples {
            assert!(s.tokens.iter().all(|&t| (t as usize) < ds.vocab_size));
            assert!(!s.tokens.is_empty());
        }
    }

    #[test]
    fn classification_labels_within_range() {
        let ds = generate(DatasetKind::Piqa, 3);
        for s in &ds.samples {
            match &s.task {
                Task::Classification { label, num_classes } => {
                    assert_eq!(*num_classes, 2);
                    assert!(*label < 2);
                }
                Task::Generation { .. } => panic!("PIQA must be classification"),
            }
        }
    }

    #[test]
    fn dolly_is_generation_with_nonempty_reference() {
        let ds = generate(DatasetKind::Dolly, 4);
        for s in &ds.samples {
            match &s.task {
                Task::Generation { reference } => assert!(!reference.is_empty()),
                Task::Classification { .. } => panic!("Dolly must be generation"),
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(DatasetKind::Gsm8k, 7);
        let b = generate(DatasetKind::Gsm8k, 7);
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(DatasetKind::Gsm8k, 7);
        let b = generate(DatasetKind::Gsm8k, 8);
        assert_ne!(a.samples, b.samples);
    }

    #[test]
    fn sequence_lengths_track_config() {
        let dolly = generate(DatasetKind::Dolly, 9);
        let gsm = generate(DatasetKind::Gsm8k, 9);
        assert!(dolly.mean_seq_len() > gsm.mean_seq_len());
    }

    #[test]
    fn topic_distribution_is_skewed() {
        let ds = generate(DatasetKind::Dolly, 11);
        let hist = ds.topic_histogram();
        let max = *hist.iter().max().unwrap() as f32;
        let min = *hist.iter().min().unwrap() as f32;
        // The Dirichlet(0.6) prior should give visibly unequal topic counts.
        assert!(max > 2.0 * (min + 1.0), "hist = {hist:?}");
    }

    #[test]
    fn labels_correlate_with_topics() {
        // Most samples of the same topic should share a label: the task is
        // learnable from routing information.
        let ds = generate(DatasetKind::Mmlu, 13);
        let mut per_topic: std::collections::HashMap<usize, Vec<usize>> = Default::default();
        for s in &ds.samples {
            if let Some(l) = s.label() {
                per_topic.entry(s.topic).or_default().push(l);
            }
        }
        let mut majority_fraction = 0.0;
        let mut total = 0.0;
        for labels in per_topic.values() {
            if labels.len() < 5 {
                continue;
            }
            let mut counts = std::collections::HashMap::new();
            for &l in labels {
                *counts.entry(l).or_insert(0usize) += 1;
            }
            let max = *counts.values().max().unwrap() as f32;
            majority_fraction += max / labels.len() as f32;
            total += 1.0;
        }
        assert!(total > 0.0);
        assert!(
            majority_fraction / total > 0.5,
            "labels should be topic-predictable"
        );
    }

    #[test]
    fn custom_config_overrides() {
        let cfg = DatasetConfig::for_kind(DatasetKind::Piqa, 64)
            .with_num_samples(10)
            .with_mean_seq_len(6);
        let mut rng = SeededRng::new(1);
        let ds = DatasetGenerator::new(cfg).generate(&mut rng);
        assert_eq!(ds.len(), 10);
        assert!(ds.mean_seq_len() <= 9.5);
    }
}
