//! Dataset, sample and task definitions.

/// The four benchmark datasets the paper evaluates on, as synthetic
/// analogues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Dolly-style open instruction following (generation, ROUGE-L 0.5).
    Dolly,
    /// GSM8K-style grade-school math (classification over answer buckets,
    /// accuracy target 0.62, short sequences).
    Gsm8k,
    /// MMLU-style broad multiple choice (4 choices, accuracy target 0.75).
    Mmlu,
    /// PIQA-style physical commonsense (2 choices, accuracy target 0.8).
    Piqa,
}

impl DatasetKind {
    /// All four datasets in the order the paper lists them.
    pub fn all() -> [DatasetKind; 4] {
        [
            DatasetKind::Dolly,
            DatasetKind::Gsm8k,
            DatasetKind::Mmlu,
            DatasetKind::Piqa,
        ]
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Dolly => "Dolly",
            DatasetKind::Gsm8k => "GSM8K",
            DatasetKind::Mmlu => "MMLU",
            DatasetKind::Piqa => "PIQA",
        }
    }

    /// The paper's target score for time-to-accuracy (§8.1).
    pub fn target_score(self) -> f32 {
        match self {
            DatasetKind::Dolly => 0.5,
            DatasetKind::Gsm8k => 0.62,
            DatasetKind::Mmlu => 0.75,
            DatasetKind::Piqa => 0.8,
        }
    }

    /// Whether the dataset is scored with ROUGE-L (true) or accuracy (false).
    pub fn uses_rouge(self) -> bool {
        matches!(self, DatasetKind::Dolly)
    }

    /// Number of output classes for the classification datasets, or the
    /// vocabulary-sized generation head for Dolly (`None`).
    pub fn num_classes(self) -> Option<usize> {
        match self {
            DatasetKind::Dolly => None,
            DatasetKind::Gsm8k => Some(8),
            DatasetKind::Mmlu => Some(4),
            DatasetKind::Piqa => Some(2),
        }
    }

    /// Typical (mean) sequence length of the synthetic analogue. GSM8K is
    /// deliberately the shortest, matching the paper's observation that its
    /// shorter sequences shrink both fine-tuning time and merging error.
    pub fn mean_seq_len(self) -> usize {
        match self {
            DatasetKind::Dolly => 48,
            DatasetKind::Gsm8k => 20,
            DatasetKind::Mmlu => 36,
            DatasetKind::Piqa => 28,
        }
    }

    /// Default number of synthetic samples, proportional to the real
    /// dataset sizes (Dolly 15K, GSM8K 8.5K, ...), scaled down ~50×.
    pub fn default_num_samples(self) -> usize {
        match self {
            DatasetKind::Dolly => 300,
            DatasetKind::Gsm8k => 170,
            DatasetKind::Mmlu => 280,
            DatasetKind::Piqa => 220,
        }
    }

    /// Number of latent topics used by the generator. MMLU spans the most
    /// knowledge domains, so it gets the most topics.
    pub fn num_topics(self) -> usize {
        match self {
            DatasetKind::Dolly => 8,
            DatasetKind::Gsm8k => 4,
            DatasetKind::Mmlu => 12,
            DatasetKind::Piqa => 6,
        }
    }
}

/// The supervised target attached to a sample.
#[derive(Debug, Clone, PartialEq)]
pub enum Task {
    /// Generate a continuation; scored with ROUGE-L against the reference.
    Generation {
        /// Reference continuation token ids.
        reference: Vec<u32>,
    },
    /// Predict a class label; scored with exact-match accuracy.
    Classification {
        /// Gold label.
        label: usize,
        /// Total number of classes.
        num_classes: usize,
    },
}

/// One training or evaluation sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Input token ids.
    pub tokens: Vec<u32>,
    /// Latent topic the sample was drawn from (used by analysis code and the
    /// non-IID partitioner; a real system would not observe this).
    pub topic: usize,
    /// Supervision target.
    pub task: Task,
}

impl Sample {
    /// Sequence length of the input.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Returns `true` when the sample has no input tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The class label if this is a classification sample.
    pub fn label(&self) -> Option<usize> {
        match &self.task {
            Task::Classification { label, .. } => Some(*label),
            Task::Generation { .. } => None,
        }
    }
}

/// An in-memory dataset: a list of samples plus its kind and vocabulary size.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Which benchmark this synthesizes.
    pub kind: DatasetKind,
    /// Vocabulary size used by the generator (token ids are `< vocab_size`).
    pub vocab_size: usize,
    /// The samples.
    pub samples: Vec<Sample>,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Splits into `(train, test)` with the given train fraction, preserving
    /// order (callers shuffle during generation). The paper uses 80/20.
    pub fn train_test_split(&self, train_fraction: f32) -> (Dataset, Dataset) {
        let cut = ((self.samples.len() as f32) * train_fraction.clamp(0.0, 1.0)).round() as usize;
        let cut = cut.min(self.samples.len());
        let train = Dataset {
            kind: self.kind,
            vocab_size: self.vocab_size,
            samples: self.samples[..cut].to_vec(),
        };
        let test = Dataset {
            kind: self.kind,
            vocab_size: self.vocab_size,
            samples: self.samples[cut..].to_vec(),
        };
        (train, test)
    }

    /// Returns a dataset containing the selected sample indices.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            kind: self.kind,
            vocab_size: self.vocab_size,
            samples: indices
                .iter()
                .filter_map(|&i| self.samples.get(i).cloned())
                .collect(),
        }
    }

    /// Mean sequence length across samples (0 when empty).
    pub fn mean_seq_len(&self) -> f32 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.len() as f32).sum::<f32>() / self.samples.len() as f32
    }

    /// Histogram of topics across samples.
    pub fn topic_histogram(&self) -> Vec<usize> {
        let max_topic = self.samples.iter().map(|s| s.topic).max().unwrap_or(0);
        let mut hist = vec![0usize; max_topic + 1];
        for s in &self.samples {
            hist[s.topic] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(topic: usize, label: usize) -> Sample {
        Sample {
            tokens: vec![1, 2, 3],
            topic,
            task: Task::Classification {
                label,
                num_classes: 4,
            },
        }
    }

    #[test]
    fn kind_properties_match_paper() {
        assert_eq!(DatasetKind::Dolly.target_score(), 0.5);
        assert_eq!(DatasetKind::Gsm8k.target_score(), 0.62);
        assert_eq!(DatasetKind::Mmlu.target_score(), 0.75);
        assert_eq!(DatasetKind::Piqa.target_score(), 0.8);
        assert!(DatasetKind::Dolly.uses_rouge());
        assert!(!DatasetKind::Gsm8k.uses_rouge());
        assert_eq!(DatasetKind::Mmlu.num_classes(), Some(4));
        assert_eq!(DatasetKind::Piqa.num_classes(), Some(2));
        assert_eq!(DatasetKind::Dolly.num_classes(), None);
    }

    #[test]
    fn gsm8k_is_shortest() {
        let others = [DatasetKind::Dolly, DatasetKind::Mmlu, DatasetKind::Piqa];
        assert!(others
            .iter()
            .all(|k| k.mean_seq_len() > DatasetKind::Gsm8k.mean_seq_len()));
    }

    #[test]
    fn all_lists_four() {
        assert_eq!(DatasetKind::all().len(), 4);
    }

    #[test]
    fn sample_accessors() {
        let s = sample(2, 1);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.label(), Some(1));
        let g = Sample {
            tokens: vec![],
            topic: 0,
            task: Task::Generation {
                reference: vec![5, 6],
            },
        };
        assert!(g.is_empty());
        assert_eq!(g.label(), None);
    }

    #[test]
    fn train_test_split_sizes() {
        let ds = Dataset {
            kind: DatasetKind::Mmlu,
            vocab_size: 100,
            samples: (0..10).map(|i| sample(0, i % 4)).collect(),
        };
        let (train, test) = ds.train_test_split(0.8);
        assert_eq!(train.len(), 8);
        assert_eq!(test.len(), 2);
        let (all, none) = ds.train_test_split(1.5);
        assert_eq!(all.len(), 10);
        assert_eq!(none.len(), 0);
    }

    #[test]
    fn subset_ignores_out_of_range() {
        let ds = Dataset {
            kind: DatasetKind::Piqa,
            vocab_size: 10,
            samples: (0..3).map(|i| sample(i, 0)).collect(),
        };
        let sub = ds.subset(&[0, 2, 99]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.samples[1].topic, 2);
    }

    #[test]
    fn topic_histogram_counts() {
        let ds = Dataset {
            kind: DatasetKind::Dolly,
            vocab_size: 10,
            samples: vec![sample(0, 0), sample(0, 1), sample(2, 0)],
        };
        assert_eq!(ds.topic_histogram(), vec![2, 0, 1]);
    }

    #[test]
    fn mean_seq_len_empty_and_nonempty() {
        let empty = Dataset {
            kind: DatasetKind::Dolly,
            vocab_size: 10,
            samples: vec![],
        };
        assert_eq!(empty.mean_seq_len(), 0.0);
        let ds = Dataset {
            kind: DatasetKind::Dolly,
            vocab_size: 10,
            samples: vec![sample(0, 0)],
        };
        assert_eq!(ds.mean_seq_len(), 3.0);
    }
}
