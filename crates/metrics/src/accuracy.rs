//! Accuracy metrics and per-dataset target values.

/// The evaluation metric a dataset uses, together with the paper's target
/// value for the time-to-accuracy measurements (§8.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TargetMetric {
    /// ROUGE-L with the given target (Dolly uses 0.5).
    RougeL {
        /// Target score counted as "reaching accuracy".
        target: f32,
    },
    /// Exact-match accuracy with the given target (GSM8K 0.62, MMLU 0.75,
    /// PIQA 0.8).
    Accuracy {
        /// Target score counted as "reaching accuracy".
        target: f32,
    },
}

impl TargetMetric {
    /// The numeric target value.
    pub fn target(&self) -> f32 {
        match self {
            TargetMetric::RougeL { target } | TargetMetric::Accuracy { target } => *target,
        }
    }

    /// Short human-readable name ("ROUGE-L" or "Accuracy").
    pub fn name(&self) -> &'static str {
        match self {
            TargetMetric::RougeL { .. } => "ROUGE-L",
            TargetMetric::Accuracy { .. } => "Accuracy",
        }
    }
}

/// Fraction of predictions equal to their label; 0 for empty input.
pub fn exact_match_accuracy(predictions: &[usize], labels: &[usize]) -> f32 {
    assert_eq!(
        predictions.len(),
        labels.len(),
        "predictions and labels must align"
    );
    if predictions.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .zip(labels.iter())
        .filter(|(p, l)| p == l)
        .count();
    correct as f32 / predictions.len() as f32
}

/// Relative accuracy: the obtained score divided by the dataset target,
/// clamped to `[0, 1.2]` as in the paper's convergence plots.
pub fn relative_accuracy(score: f32, metric: TargetMetric) -> f32 {
    let target = metric.target();
    if target <= 0.0 {
        return 0.0;
    }
    (score / target).clamp(0.0, 1.2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_basics() {
        assert_eq!(exact_match_accuracy(&[], &[]), 0.0);
        assert_eq!(exact_match_accuracy(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(exact_match_accuracy(&[1, 0, 3], &[1, 2, 3]), 2.0 / 3.0);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn exact_match_length_mismatch_panics() {
        exact_match_accuracy(&[1], &[1, 2]);
    }

    #[test]
    fn relative_accuracy_scales_by_target() {
        let m = TargetMetric::Accuracy { target: 0.8 };
        assert!((relative_accuracy(0.4, m) - 0.5).abs() < 1e-6);
        assert!((relative_accuracy(0.8, m) - 1.0).abs() < 1e-6);
        // Clamped above 1.2.
        assert!((relative_accuracy(2.0, m) - 1.2).abs() < 1e-6);
    }

    #[test]
    fn relative_accuracy_zero_target() {
        assert_eq!(
            relative_accuracy(0.5, TargetMetric::Accuracy { target: 0.0 }),
            0.0
        );
    }

    #[test]
    fn metric_names_and_targets() {
        let r = TargetMetric::RougeL { target: 0.5 };
        assert_eq!(r.name(), "ROUGE-L");
        assert_eq!(r.target(), 0.5);
        let a = TargetMetric::Accuracy { target: 0.62 };
        assert_eq!(a.name(), "Accuracy");
        assert_eq!(a.target(), 0.62);
    }
}
