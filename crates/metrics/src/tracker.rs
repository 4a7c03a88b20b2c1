//! Convergence and time-to-accuracy tracking.
//!
//! Every federated run records a `(simulated time, round, score)` point per
//! round; the tracker converts those into the relative-accuracy convergence
//! curves of Fig. 10/11 and the time-to-accuracy bars of Fig. 12/13.

use crate::accuracy::{relative_accuracy, TargetMetric};

/// One point on a convergence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergencePoint {
    /// Federated round index (0-based).
    pub round: usize,
    /// Simulated elapsed time in hours since fine-tuning started.
    pub elapsed_hours: f64,
    /// Raw evaluation score (ROUGE-L or accuracy).
    pub score: f32,
    /// Score divided by the dataset target, clamped as in the paper.
    pub relative_accuracy: f32,
}

/// Records per-round scores and answers time-to-accuracy queries.
#[derive(Debug, Clone)]
pub struct TimeToAccuracyTracker {
    metric: TargetMetric,
    points: Vec<ConvergencePoint>,
}

impl TimeToAccuracyTracker {
    /// Creates a tracker for the given dataset metric/target.
    pub fn new(metric: TargetMetric) -> Self {
        Self {
            metric,
            points: Vec::new(),
        }
    }

    /// The metric this tracker scores against.
    pub fn metric(&self) -> TargetMetric {
        self.metric
    }

    /// Records the evaluation result of one round.
    pub fn record(&mut self, round: usize, elapsed_hours: f64, score: f32) {
        let rel = relative_accuracy(score, self.metric);
        self.points.push(ConvergencePoint {
            round,
            elapsed_hours,
            score,
            relative_accuracy: rel,
        });
    }

    /// All recorded points, in insertion order.
    pub fn points(&self) -> &[ConvergencePoint] {
        &self.points
    }

    /// Simulated hours until the target was first reached, if ever.
    pub fn time_to_target_hours(&self) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.score >= self.metric.target())
            .map(|p| p.elapsed_hours)
    }

    /// Best (maximum) raw score observed so far; 0 when empty.
    pub fn best_score(&self) -> f32 {
        self.points.iter().map(|p| p.score).fold(0.0, f32::max)
    }

    /// Final (most recently recorded) score; `None` when empty.
    pub fn final_score(&self) -> Option<f32> {
        self.points.last().map(|p| p.score)
    }

    /// Total simulated duration covered by the recorded points.
    pub fn total_hours(&self) -> f64 {
        self.points.last().map(|p| p.elapsed_hours).unwrap_or(0.0)
    }

    /// Convergence curve as `(elapsed_hours, relative_accuracy)` pairs, the
    /// series plotted in Fig. 10/11.
    pub fn curve(&self) -> Vec<(f64, f32)> {
        self.points
            .iter()
            .map(|p| (p.elapsed_hours, p.relative_accuracy))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker_with_scores(scores: &[f32]) -> TimeToAccuracyTracker {
        let mut t = TimeToAccuracyTracker::new(TargetMetric::Accuracy { target: 0.8 });
        for (i, &s) in scores.iter().enumerate() {
            t.record(i, i as f64 * 0.5, s);
        }
        t
    }

    #[test]
    fn empty_tracker() {
        let t = TimeToAccuracyTracker::new(TargetMetric::RougeL { target: 0.5 });
        assert!(t.points().is_empty());
        assert_eq!(t.time_to_target_hours(), None);
        assert_eq!(t.best_score(), 0.0);
        assert_eq!(t.final_score(), None);
        assert_eq!(t.total_hours(), 0.0);
    }

    #[test]
    fn records_and_finds_target_crossing() {
        let t = tracker_with_scores(&[0.2, 0.5, 0.81, 0.85]);
        assert_eq!(t.points().len(), 4);
        assert_eq!(t.time_to_target_hours(), Some(1.0));
    }

    #[test]
    fn target_never_reached() {
        let t = tracker_with_scores(&[0.1, 0.2, 0.3]);
        assert_eq!(t.time_to_target_hours(), None);
        assert!((t.best_score() - 0.3).abs() < 1e-6);
    }

    #[test]
    fn relative_accuracy_in_curve() {
        let t = tracker_with_scores(&[0.4]);
        let curve = t.curve();
        assert_eq!(curve.len(), 1);
        assert!((curve[0].1 - 0.5).abs() < 1e-6);
    }

    #[test]
    fn final_and_total() {
        let t = tracker_with_scores(&[0.4, 0.6]);
        assert_eq!(t.final_score(), Some(0.6));
        assert!((t.total_hours() - 0.5).abs() < 1e-9);
    }
}
