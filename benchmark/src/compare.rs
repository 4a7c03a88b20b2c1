//! `benchmark compare A.json B.json`: the verdict, per end-to-end metric
//! and workload, on whether B differs from A by more than the benchmark's
//! own bounds — the tool behind "two sets of runs agree".
//!
//! Two runs of one seed measured the same inputs in the same order, so
//! their timings are compared input by input: the quartiles that decide a
//! verdict are those of the paired ratios `B_i ÷ A_i`, which the difference
//! between one input and the next does not widen.

use std::path::Path;

use crate::names::{self, Better, Bound};
use crate::report::{load_results, WorkloadResult};
use crate::stats::Stat;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The spread of either side exceeds the bound and the two
    /// interquartile ranges overlap: the runs cannot tell.
    Unresolved,
    /// An exact metric that reads differently.
    Differs,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "DIFFERS",
        }
    }

    /// Whether this verdict means the two sets do not agree.
    pub fn disagrees(self) -> bool {
        matches!(
            self,
            Verdict::Worse | Verdict::Unresolved | Verdict::Differs
        )
    }
}

/// The verdict on B against A for one metric.
pub fn verdict(a: Stat, b: Stat, better: Better, bound: Bound) -> Verdict {
    let share = match bound {
        Bound::Exact => {
            return if a.value == b.value {
                Verdict::Same
            } else {
                Verdict::Differs
            }
        }
        Bound::None => return Verdict::Same,
        Bound::Share(share) => share,
    };
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    if a.spread().max(b.spread()) > share && overlap {
        return Verdict::Unresolved;
    }
    // Positive when B is worse than A, as a share of A's median.
    let worse_by = match better {
        Better::Higher => (a.value - b.value) / a.value.abs().max(f64::MIN_POSITIVE),
        _ => (b.value - a.value) / a.value.abs().max(f64::MIN_POSITIVE),
    };
    if worse_by > share {
        Verdict::Worse
    } else if worse_by < -share {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// B against A as one [`Stat`] of paired ratios: ratio `i` is `B_i ÷ A_i`
/// over the inputs both sides measured (sample `i` is input `i` on both
/// when the seeds agree). A itself then reads 1.
fn paired_ratios(a: &[f64], b: &[f64]) -> Option<Stat> {
    let ratios: Vec<f64> = a.iter().zip(b).map(|(a, b)| b / a).collect();
    (ratios.len() >= 2).then(|| Stat::of(&ratios))
}

/// Prints one row per (metric, workload) and returns whether the two files
/// agree: no `worse`, no `unresolved`, every exact metric identical.
pub fn compare_files(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let a_runs = load_results(a_path)?;
    let b_runs = load_results(b_path)?;
    let mut agree = true;
    let mut compared = 0usize;
    println!(
        "{:<18} {:<36} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "delta"
    );
    for a in &a_runs {
        let Some(b) = b_runs
            .iter()
            .find(|b| b.workload == a.workload && b.trace == a.trace)
        else {
            println!("{:<18} missing from {}", a.workload, b_path.display());
            agree = false;
            continue;
        };
        agree &= compare_run(a, b, &mut compared);
    }
    if compared == 0 {
        return Err("the two files share no workload".to_string());
    }
    println!(
        "{compared} comparisons: the two sets {}",
        if agree { "agree" } else { "DO NOT agree" }
    );
    Ok(agree)
}

fn compare_run(a: &WorkloadResult, b: &WorkloadResult, compared: &mut usize) -> bool {
    let mut agree = true;
    for (name, unit, a_stat) in &a.metrics {
        let (Some(metric), Some(b_stat)) = (names::find(name), b.metric(name)) else {
            continue;
        };
        // Per-layer timings are diagnostics: only counts are compared.
        if metric.bound == Bound::None {
            continue;
        }
        let ratios = match (a.samples_of(name), b.samples_of(name)) {
            (Some(a_samples), Some(b_samples)) if a.seed == b.seed => {
                paired_ratios(a_samples, b_samples)
            }
            _ => None,
        };
        let v = match ratios {
            Some(ratios) => verdict(Stat::single(1.0), ratios, metric.better, metric.bound),
            None => verdict(*a_stat, b_stat, metric.better, metric.bound),
        };
        *compared += 1;
        agree &= !v.disagrees();
        let delta = (b_stat.value - a_stat.value) / a_stat.value.abs().max(f64::MIN_POSITIVE);
        let quartiles = match ratios {
            Some(r) => format!("B/A over {} inputs: q {:.4}..{:.4}", r.n, r.q1, r.q3),
            None => format!(
                "A q {:.4}..{:.4}, B q {:.4}..{:.4}",
                a_stat.q1, a_stat.q3, b_stat.q1, b_stat.q3
            ),
        };
        println!(
            "{:<18} {:<36} {:>14.6} {:>14.6} {:>+7.1}%  {} ({unit}; {quartiles})",
            a.workload,
            name,
            a_stat.value,
            b_stat.value,
            delta * 100.0,
            v.label(),
        );
    }
    // Every input both sides ran must have ended on the same model by the
    // same loss trace (the sides may have had time for different numbers).
    let shared = a.param_checksums.len().min(b.param_checksums.len());
    for input in 0..shared {
        let of = |r: &WorkloadResult| (r.param_checksums[input], r.loss_trace_checksums[input]);
        if of(a) != of(b) {
            println!(
                "{:<18} input {input}: final model / loss trace checksums DIFFER ({:016x}/{:016x} vs {:016x}/{:016x})",
                a.workload,
                of(a).0,
                of(a).1,
                of(b).0,
                of(b).1
            );
            agree = false;
        }
    }
    if shared == 0 {
        println!("{:<18} no input checksums to compare", a.workload);
        agree = false;
    }
    agree
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(value: f64, q1: f64, q3: f64) -> Stat {
        Stat {
            value,
            q1,
            q3,
            n: 9,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let bound = Bound::Share(0.05);
        let a = stat(100.0, 99.0, 101.0);
        assert_eq!(
            verdict(a, stat(103.0, 102.0, 104.0), Better::Lower, bound),
            Verdict::Same
        );
        assert_eq!(
            verdict(a, stat(110.0, 109.0, 111.0), Better::Lower, bound),
            Verdict::Worse
        );
        assert_eq!(
            verdict(a, stat(90.0, 89.0, 91.0), Better::Lower, bound),
            Verdict::Better
        );
        assert_eq!(
            verdict(a, stat(110.0, 109.0, 111.0), Better::Higher, bound),
            Verdict::Better
        );
        assert_eq!(
            verdict(a, stat(90.0, 89.0, 91.0), Better::Higher, bound),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_and_separated_ones_are_not() {
        let bound = Bound::Share(0.05);
        let wide = stat(100.0, 90.0, 110.0);
        assert_eq!(
            verdict(wide, stat(104.0, 95.0, 112.0), Better::Lower, bound),
            Verdict::Unresolved
        );
        // Just as wide, but every quartile of B lies beyond A's.
        assert_eq!(
            verdict(wide, stat(140.0, 130.0, 150.0), Better::Lower, bound),
            Verdict::Worse
        );
    }

    #[test]
    fn pairing_by_input_resolves_what_the_spread_between_inputs_hides() {
        let bound = Bound::Share(0.05);
        // Inputs whose cost differs two-fold; B is 2 % slower on each.
        let a = [1.0, 2.0, 1.2, 1.9, 1.1, 1.6];
        let b: Vec<f64> = a.iter().map(|v| v * 1.02).collect();
        assert_eq!(
            verdict(Stat::of(&a), Stat::of(&b), Better::Lower, bound),
            Verdict::Unresolved
        );
        let ratios = paired_ratios(&a, &b).unwrap();
        assert_eq!(
            verdict(Stat::single(1.0), ratios, Better::Lower, bound),
            Verdict::Same
        );
        let slower: Vec<f64> = a.iter().map(|v| v * 1.2).collect();
        let ratios = paired_ratios(&a, &slower).unwrap();
        assert_eq!(
            verdict(Stat::single(1.0), ratios, Better::Lower, bound),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Stat::single(1.0), ratios, Better::Higher, bound),
            Verdict::Better
        );
        // B measured fewer inputs: only the shared ones pair; one is too few.
        assert_eq!(paired_ratios(&a, &b[..3]).unwrap().n, 3);
        assert!(paired_ratios(&a, &b[..1]).is_none());
    }

    #[test]
    fn every_shared_input_must_end_on_the_same_checksums() {
        let result = |models: &[u64]| WorkloadResult {
            workload: "dense_small".to_string(),
            seed: 42,
            trace: false,
            smoke: false,
            host: crate::host::Host::fingerprint(),
            reps: models.len(),
            rounds_timed: 0,
            calib_before_ms: 1.0,
            calib_after_ms: 1.0,
            noisy: false,
            attempted: 1,
            failed: 0,
            param_checksums: models.to_vec(),
            loss_trace_checksums: vec![7; models.len()],
            checks: Vec::new(),
            metrics: Vec::new(),
            samples: Vec::new(),
            run_shares: Vec::new(),
            replay_shares: Vec::new(),
        };
        let mut compared = 0;
        // B had time for fewer inputs: the shared ones agree.
        assert!(compare_run(
            &result(&[1, 2, 3, 4, 5]),
            &result(&[1, 2, 3]),
            &mut compared
        ));
        // One late input ended on another model.
        assert!(!compare_run(
            &result(&[1, 2, 3, 4]),
            &result(&[1, 2, 9, 4]),
            &mut compared
        ));
        assert!(!compare_run(&result(&[]), &result(&[1]), &mut compared));
    }

    #[test]
    fn exact_metrics_compare_for_equality() {
        let a = Stat::single(257.679360);
        assert_eq!(verdict(a, a, Better::Lower, Bound::Exact), Verdict::Same);
        assert_eq!(
            verdict(a, Stat::single(257.679361), Better::Lower, Bound::Exact),
            Verdict::Differs
        );
        assert!(Verdict::Differs.disagrees() && Verdict::Unresolved.disagrees());
        assert!(!Verdict::Better.disagrees() && !Verdict::Same.disagrees());
    }
}
