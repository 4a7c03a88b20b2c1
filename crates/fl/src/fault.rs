//! Seeded, deterministic fault injection for federated rounds.
//!
//! The paper's deployment target — fleets of flaky edge devices on
//! best-effort uplinks — loses participants mid-round, corrupts payloads
//! in flight, and stalls uploads past any reasonable deadline. The
//! simulator injects exactly those failures through a [`FaultPlan`]: a
//! pure function `(round, participant, attempt) → FaultKind` keyed by a
//! seed, so a given plan reproduces the identical failure schedule on
//! every thread count, execution mode and replay — which is what lets the
//! crash-recovery golden traces stay bit-identical under injected faults.
//!
//! The server-side response — retry with backoff, per-round deadlines and
//! quorum finalization — is configured by [`FaultToleranceConfig`] on the
//! run config. The default config is inert: every pre-existing run
//! executes byte-identically with fault tolerance compiled in.

use flux_tensor::rng::{mix64, GOLDEN_GAMMA};

/// What happens to one delivery attempt of one participant's upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultKind {
    /// The attempt succeeds (no fault).
    #[default]
    None,
    /// The participant crashes for the round: no attempt ever arrives and
    /// retrying is pointless (the device is gone until next round).
    Crash,
    /// The payload arrives bit-flipped; the server's checksum-validated
    /// decode rejects it and the attempt counts as failed.
    Corrupt,
    /// The upload stalls: nothing arrives within the attempt's window and
    /// the server retries after its backoff.
    Stall,
}

/// The first output of the splitmix64 stream seeded with `state`.
fn splitmix(state: u64) -> u64 {
    mix64(state.wrapping_add(GOLDEN_GAMMA))
}

/// Seeded, deterministic failure schedule for a run.
///
/// Each `(round, participant, attempt)` triple hashes to one uniform draw
/// in `[0, 1)`, mapped onto the configured probability bands — crash,
/// then corrupt, then stall. The plan is a pure function: it holds no
/// mutable state, so checkpoint/restore replays the identical schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the failure schedule.
    pub seed: u64,
    /// Probability a participant crashes for the round.
    pub crash_prob: f32,
    /// Probability a delivery attempt arrives corrupted.
    pub corrupt_prob: f32,
    /// Probability a delivery attempt stalls past its window.
    pub stall_prob: f32,
}

impl FaultPlan {
    /// A plan with the given seed and no faults (compose with the
    /// `with_*` builders).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            crash_prob: 0.0,
            corrupt_prob: 0.0,
            stall_prob: 0.0,
        }
    }

    /// Sets the per-round crash probability (clamped to `[0, 1]`).
    pub fn with_crashes(mut self, prob: f32) -> Self {
        self.crash_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-attempt corruption probability (clamped to `[0, 1]`).
    pub fn with_corruption(mut self, prob: f32) -> Self {
        self.corrupt_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-attempt stall probability (clamped to `[0, 1]`).
    pub fn with_stalls(mut self, prob: f32) -> Self {
        self.stall_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// The fault injected into delivery `attempt` (0 = the original
    /// upload) of `participant`'s round-`round` upload. Pure and
    /// deterministic in `(seed, round, participant, attempt)`.
    pub fn fault_for(&self, round: usize, participant: usize, attempt: u32) -> FaultKind {
        let mut h = self.seed;
        h = splitmix(h ^ (round as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        h = splitmix(h ^ (participant as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB));
        h = splitmix(h ^ (attempt as u64).wrapping_mul(0x8EBC_6AF0_9C88_C6E3));
        // 53 high bits → uniform double in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let crash = self.crash_prob as f64;
        let corrupt = crash + self.corrupt_prob as f64;
        let stall = corrupt + self.stall_prob as f64;
        if u < crash {
            FaultKind::Crash
        } else if u < corrupt {
            FaultKind::Corrupt
        } else if u < stall {
            FaultKind::Stall
        } else {
            FaultKind::None
        }
    }

    /// A seed for deterministically damaging the payload of this attempt
    /// (fed to `EncodedUpload::corrupted`).
    pub fn corruption_seed(&self, round: usize, participant: usize, attempt: u32) -> u64 {
        let mut h = self.seed ^ 0x5DEE_CE66;
        h = splitmix(h ^ round as u64);
        h = splitmix(h ^ participant as u64);
        splitmix(h ^ attempt as u64)
    }
}

/// Server-side degradation policy: retries, deadlines and quorum.
///
/// The default is inert — infinite deadline, no retries, full quorum — so
/// runs without faults behave (and price communication) exactly as before.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultToleranceConfig {
    /// Fraction of the round's cohort whose uploads must land before the
    /// round finalizes; later arrivals are dropped from the round.
    /// `1.0` waits for everyone.
    pub quorum: f32,
    /// Delivery attempts retried after a transient failure (corrupt or
    /// stalled upload). `0` = the original attempt only.
    pub max_retries: u32,
    /// Simulated seconds between delivery attempts; retried uploads pay
    /// this penalty on their arrival time.
    pub retry_backoff_s: f64,
    /// Simulated per-round deadline: attempts that would land after it
    /// are dropped. `f64::INFINITY` = no deadline.
    pub round_deadline_s: f64,
}

impl Default for FaultToleranceConfig {
    fn default() -> Self {
        Self {
            quorum: 1.0,
            max_retries: 0,
            retry_backoff_s: 0.0,
            round_deadline_s: f64::INFINITY,
        }
    }
}

impl FaultToleranceConfig {
    /// Finalize a round once `quorum` of the cohort has landed.
    pub fn with_quorum(mut self, quorum: f32) -> Self {
        self.quorum = quorum.clamp(0.0, 1.0);
        self
    }

    /// Retry transient delivery failures up to `retries` times, waiting
    /// `backoff_s` simulated seconds between attempts.
    pub fn with_retries(mut self, retries: u32, backoff_s: f64) -> Self {
        self.max_retries = retries;
        self.retry_backoff_s = backoff_s.max(0.0);
        self
    }

    /// Drop uploads that would land after `deadline_s` simulated seconds.
    pub fn with_deadline(mut self, deadline_s: f64) -> Self {
        self.round_deadline_s = deadline_s.max(0.0);
        self
    }

    /// Smallest number of participants (of a cohort of `cohort`) whose
    /// uploads must land to satisfy the quorum.
    pub fn quorum_count(&self, cohort: usize) -> usize {
        if cohort == 0 {
            return 0;
        }
        // Nudge below the product before ceiling: the f32→f64 widening of
        // e.g. 0.6 lands a hair above 3/5, and ceil would overshoot the
        // intended count by one. The widening error is relative, so the
        // nudge is too.
        let target = self.quorum as f64 * cohort as f64;
        let q = (target * (1.0 - 1e-6)).ceil() as usize;
        q.clamp(1, cohort)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_is_deterministic() {
        let plan = FaultPlan::new(42)
            .with_crashes(0.2)
            .with_corruption(0.2)
            .with_stalls(0.2);
        for round in 0..4 {
            for pid in 0..16 {
                for attempt in 0..3 {
                    assert_eq!(
                        plan.fault_for(round, pid, attempt),
                        plan.fault_for(round, pid, attempt)
                    );
                    assert_eq!(
                        plan.corruption_seed(round, pid, attempt),
                        plan.corruption_seed(round, pid, attempt)
                    );
                }
            }
        }
    }

    #[test]
    fn probability_bands_saturate_and_clamp() {
        let all_crash = FaultPlan::new(1).with_crashes(1.0);
        let all_stall = FaultPlan::new(1).with_stalls(5.0); // clamped to 1
        let none = FaultPlan::new(1);
        for pid in 0..32 {
            assert_eq!(all_crash.fault_for(0, pid, 0), FaultKind::Crash);
            assert_eq!(all_stall.fault_for(0, pid, 0), FaultKind::Stall);
            assert_eq!(none.fault_for(0, pid, 0), FaultKind::None);
        }
    }

    #[test]
    fn mixed_plan_hits_every_band() {
        let plan = FaultPlan::new(7)
            .with_crashes(0.25)
            .with_corruption(0.25)
            .with_stalls(0.25);
        let mut seen = [0usize; 4];
        for pid in 0..256 {
            match plan.fault_for(0, pid, 0) {
                FaultKind::None => seen[0] += 1,
                FaultKind::Crash => seen[1] += 1,
                FaultKind::Corrupt => seen[2] += 1,
                FaultKind::Stall => seen[3] += 1,
            }
        }
        assert!(seen.iter().all(|&c| c > 20), "bands unbalanced: {seen:?}");
    }

    #[test]
    fn attempts_draw_independently() {
        let plan = FaultPlan::new(3).with_stalls(0.5);
        // With per-attempt draws, some stalled first attempts must succeed
        // on retry across a modest cohort.
        let recovered = (0..64)
            .filter(|&pid| {
                plan.fault_for(0, pid, 0) == FaultKind::Stall
                    && plan.fault_for(0, pid, 1) == FaultKind::None
            })
            .count();
        assert!(recovered > 0);
    }

    #[test]
    fn default_tolerance_is_inert() {
        let cfg = FaultToleranceConfig::default();
        assert_eq!(cfg.quorum, 1.0);
        assert_eq!(cfg.max_retries, 0);
        assert_eq!(cfg.retry_backoff_s, 0.0);
        assert!(cfg.round_deadline_s.is_infinite());
        assert_eq!(cfg.quorum_count(10), 10);
    }

    #[test]
    fn quorum_count_rounds_up_and_clamps() {
        let cfg = FaultToleranceConfig::default().with_quorum(0.6);
        assert_eq!(cfg.quorum_count(5), 3);
        assert_eq!(cfg.quorum_count(10), 6);
        assert_eq!(cfg.quorum_count(0), 0);
        // At least one participant must land, even with quorum 0.
        assert_eq!(cfg.quorum_count(4), 3);
        assert_eq!(
            FaultToleranceConfig::default()
                .with_quorum(0.0)
                .quorum_count(4),
            1
        );
    }
}
