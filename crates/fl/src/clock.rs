//! Simulated clock and per-phase time accounting.

use crate::cost::RoundCostBreakdown;

/// Accumulated per-phase times over a whole federated run, in seconds.
///
/// This is the data behind the paper's overhead breakdown (Fig. 20) and the
/// stale-profiling round-time comparison (Fig. 14).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Quantization + profiling.
    pub profiling_s: f64,
    /// Non-tuning expert merging.
    pub merging_s: f64,
    /// Expert role assignment.
    pub assignment_s: f64,
    /// Local fine-tuning.
    pub fine_tuning_s: f64,
    /// Expert offloading traffic.
    pub offloading_s: f64,
    /// Communication with the parameter server.
    pub communication_s: f64,
}

impl PhaseTimes {
    /// Adds a per-round breakdown into the running totals.
    pub fn accumulate(&mut self, round: &RoundCostBreakdown) {
        self.profiling_s += round.profiling_s;
        self.merging_s += round.merging_s;
        self.assignment_s += round.assignment_s;
        self.fine_tuning_s += round.fine_tuning_s;
        self.offloading_s += round.offloading_s;
        self.communication_s += round.communication_s;
    }

    /// Total seconds across all phases.
    pub fn total_s(&self) -> f64 {
        self.profiling_s
            + self.merging_s
            + self.assignment_s
            + self.fine_tuning_s
            + self.offloading_s
            + self.communication_s
    }

    /// Fraction of the total spent per phase, as
    /// `(profiling, merging, assignment, fine_tuning + offloading + comm)`.
    ///
    /// Matches the four-way split of the paper's Fig. 20 (offloading and
    /// communication are folded into fine-tuning there).
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        let total = self.total_s().max(f64::EPSILON);
        (
            self.profiling_s / total,
            self.merging_s / total,
            self.assignment_s / total,
            (self.fine_tuning_s + self.offloading_s + self.communication_s) / total,
        )
    }
}

/// Simulated wall clock for one federated run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimClock {
    elapsed_s: f64,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restores a clock at an already-elapsed point in time (checkpoint
    /// recovery).
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite elapsed times.
    pub fn from_elapsed_s(elapsed_s: f64) -> Self {
        assert!(
            elapsed_s.is_finite() && elapsed_s >= 0.0,
            "invalid elapsed time {elapsed_s}"
        );
        Self { elapsed_s }
    }

    /// Advances the clock by `seconds`.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite durations, which would silently
    /// corrupt every downstream time-to-accuracy number.
    pub fn advance_s(&mut self, seconds: f64) {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "invalid duration {seconds}"
        );
        self.elapsed_s += seconds;
    }

    /// Advances the clock by one federated round and returns the seconds
    /// this round contributed to the timeline.
    ///
    /// `critical_path_s` is the slowest participant's local round;
    /// `server_tail_s` is the server-side work after the last upload
    /// (aggregation latency). In the barriered schedule the tail always
    /// elapses before the next round starts. In the pipelined schedule the
    /// tail of every round but the last is hidden behind the next round's
    /// participant dispatch (`overlapped = true`), which is exactly the
    /// paper's overlap claim expressed in simulated time: only the final
    /// round pays its server tail on the critical path.
    pub fn advance_round_s(
        &mut self,
        critical_path_s: f64,
        server_tail_s: f64,
        overlapped: bool,
    ) -> f64 {
        let round_s = if overlapped {
            critical_path_s
        } else {
            critical_path_s + server_tail_s
        };
        self.advance_s(round_s);
        round_s
    }

    /// Elapsed simulated seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_s
    }

    /// Elapsed simulated hours.
    pub fn elapsed_hours(&self) -> f64 {
        self.elapsed_s / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accumulates_and_converts() {
        let mut clock = SimClock::new();
        assert_eq!(clock.elapsed_s(), 0.0);
        clock.advance_s(1800.0);
        clock.advance_s(1800.0);
        assert_eq!(clock.elapsed_s(), 3600.0);
        assert!((clock.elapsed_hours() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn clock_rejects_negative_durations() {
        SimClock::new().advance_s(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn clock_rejects_nan() {
        SimClock::new().advance_s(f64::NAN);
    }

    #[test]
    fn advance_round_hides_server_tail_only_when_overlapped() {
        let mut clock = SimClock::new();
        assert_eq!(clock.advance_round_s(10.0, 1.0, true), 10.0);
        assert_eq!(clock.advance_round_s(10.0, 1.0, false), 11.0);
        assert_eq!(clock.elapsed_s(), 21.0);
    }

    #[test]
    fn phase_times_accumulate_and_fraction() {
        let mut phases = PhaseTimes::default();
        phases.accumulate(&RoundCostBreakdown {
            profiling_s: 10.0,
            merging_s: 5.0,
            assignment_s: 5.0,
            fine_tuning_s: 70.0,
            offloading_s: 5.0,
            communication_s: 5.0,
        });
        assert_eq!(phases.total_s(), 100.0);
        let (p, m, a, f) = phases.fractions();
        assert!((p - 0.10).abs() < 1e-9);
        assert!((m - 0.05).abs() < 1e-9);
        assert!((a - 0.05).abs() < 1e-9);
        assert!((f - 0.80).abs() < 1e-9);
    }

    #[test]
    fn empty_phase_times_fraction_is_finite() {
        let (p, m, a, f) = PhaseTimes::default().fractions();
        assert!(p.is_finite() && m.is_finite() && a.is_finite() && f.is_finite());
    }
}
