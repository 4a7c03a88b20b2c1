//! Per-layer merging budgets (Eq. 1).

use flux_moe::ActivationProfile;

/// Policy for splitting the non-tuning budget across layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetPolicy {
    /// The paper's adaptive policy (Eq. 1): layer `l` receives a share
    /// proportional to `(L - l + 1) / v_l`, i.e. earlier layers (whose
    /// merging errors accumulate through the rest of the network) and layers
    /// with *balanced* activation (where merging hurts most) get more
    /// merged experts.
    Adaptive,
    /// Uniform split across layers (ablation baseline of Fig. 15).
    Uniform,
    /// A single merged expert per layer regardless of the budget (the
    /// "single non-tuning expert" ablation of Fig. 15).
    SinglePerLayer,
}

/// Computes per-layer merged-expert budgets.
///
/// * `total_budget` is the participant's non-tuning budget `B_non_i`.
/// * `non_tuning_counts[l]` is how many non-tuning experts layer `l` has; a
///   layer's budget never exceeds that count and is at least 1 whenever the
///   layer has any non-tuning expert.
///
/// The returned budgets sum to at most `max(total_budget, #layers with
/// non-tuning experts)` — the floor of one merged expert per layer is a hard
/// correctness requirement (discarding is handled elsewhere), so a very
/// small `total_budget` is rounded up to that floor.
pub fn layer_budgets(
    policy: BudgetPolicy,
    profile: &ActivationProfile,
    non_tuning_counts: &[usize],
    total_budget: usize,
) -> Vec<usize> {
    let layers = non_tuning_counts.len();
    assert_eq!(
        profile.num_layers(),
        layers,
        "profile and layer counts must agree"
    );
    match policy {
        BudgetPolicy::SinglePerLayer => non_tuning_counts
            .iter()
            .map(|&n| usize::from(n > 0))
            .collect(),
        BudgetPolicy::Uniform => {
            let active_layers = non_tuning_counts.iter().filter(|&&n| n > 0).count().max(1);
            let per_layer = (total_budget / active_layers).max(1);
            non_tuning_counts
                .iter()
                .map(|&n| if n == 0 { 0 } else { per_layer.min(n) })
                .collect()
        }
        BudgetPolicy::Adaptive => adaptive_budgets(profile, non_tuning_counts, total_budget),
    }
}

fn adaptive_budgets(
    profile: &ActivationProfile,
    non_tuning_counts: &[usize],
    total_budget: usize,
) -> Vec<usize> {
    let layers = non_tuning_counts.len();
    // Eq. (1): b_l = (L - l + 1) / v_l with 1-based layer index; guard tiny
    // variances so one perfectly balanced layer does not absorb everything.
    let weights: Vec<f64> = (0..layers)
        .map(|l| {
            if non_tuning_counts[l] == 0 {
                return 0.0;
            }
            let variance = profile.layer_variance(l).max(1e-6) as f64;
            (layers - l) as f64 / variance
        })
        .collect();
    let total_weight: f64 = weights.iter().sum();
    let mut budgets: Vec<usize> = if total_weight <= 0.0 {
        non_tuning_counts
            .iter()
            .map(|&n| usize::from(n > 0))
            .collect()
    } else {
        weights
            .iter()
            .enumerate()
            .map(|(l, w)| {
                if non_tuning_counts[l] == 0 {
                    0
                } else {
                    ((w / total_weight * total_budget as f64).floor() as usize)
                        .clamp(1, non_tuning_counts[l])
                }
            })
            .collect()
    };
    // Distribute any remaining budget to the layers with the largest weights
    // that still have headroom.
    let mut assigned: usize = budgets.iter().sum();
    if assigned < total_budget {
        let mut order: Vec<usize> = (0..layers).collect();
        order.sort_by(|&a, &b| {
            weights[b]
                .partial_cmp(&weights[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        'outer: loop {
            let mut progressed = false;
            for &l in &order {
                if assigned >= total_budget {
                    break 'outer;
                }
                if budgets[l] < non_tuning_counts[l] {
                    budgets[l] += 1;
                    assigned += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }
    budgets
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_moe::{ActivationTracker, ExpertKey};

    /// Builds a profile with controlled per-layer skew: layer 0 is very
    /// skewed (high variance), the last layer is balanced (low variance).
    fn skewed_profile(layers: usize, experts: usize) -> ActivationProfile {
        let mut tracker = ActivationTracker::new(vec![experts; layers]);
        for layer in 0..layers {
            for _ in 0..100 {
                tracker.record_layer_token(layer);
            }
            // Interpolate between fully skewed and fully balanced.
            let balance = layer as f32 / (layers - 1).max(1) as f32;
            let hot_share = 1.0 - 0.9 * balance;
            let hot_tokens = (100.0 * hot_share) as usize;
            for _ in 0..hot_tokens {
                tracker.record(layer, 0, 0.1);
            }
            let rest = 100 - hot_tokens;
            for t in 0..rest {
                tracker.record(layer, 1 + (t % (experts - 1)), 0.1);
            }
        }
        tracker.finish()
    }

    #[test]
    fn adaptive_budgets_respect_total_and_bounds() {
        let profile = skewed_profile(4, 8);
        let counts = vec![6, 6, 6, 6];
        let budgets = layer_budgets(BudgetPolicy::Adaptive, &profile, &counts, 12);
        assert_eq!(budgets.len(), 4);
        assert!(budgets.iter().zip(&counts).all(|(&b, &n)| b >= 1 && b <= n));
        let total: usize = budgets.iter().sum();
        assert!(total >= 12.min(counts.iter().sum()), "total = {total}");
    }

    #[test]
    fn balanced_layers_get_more_budget_than_skewed_layers() {
        // Two layers at the same depth factor except the first: compare the
        // last (balanced) layer against the middle (more skewed) one — with
        // depth favouring earlier layers and variance favouring balanced
        // ones, a balanced late layer should still beat a skewed later-middle
        // layer of equal depth weight. Simplest check: the most balanced
        // layer never receives the minimum while a maximally skewed deeper
        // layer receives more than it.
        let profile = skewed_profile(6, 8);
        let counts = vec![7; 6];
        let budgets = layer_budgets(BudgetPolicy::Adaptive, &profile, &counts, 18);
        // Layer 0 is both earliest (depth weight max) and most skewed
        // (variance max); the two effects trade off. The last layer is
        // balanced, so despite being deepest it must get at least as much as
        // a mid skewed layer.
        assert!(
            budgets[5] >= budgets[2],
            "balanced final layer should not starve: {budgets:?}"
        );
    }

    #[test]
    fn uniform_budget_splits_evenly() {
        let profile = skewed_profile(4, 8);
        let counts = vec![6, 6, 6, 6];
        let budgets = layer_budgets(BudgetPolicy::Uniform, &profile, &counts, 12);
        assert_eq!(budgets, vec![3, 3, 3, 3]);
    }

    #[test]
    fn single_per_layer_budget() {
        let profile = skewed_profile(3, 4);
        let budgets = layer_budgets(BudgetPolicy::SinglePerLayer, &profile, &[3, 3, 3], 100);
        assert_eq!(budgets, vec![1, 1, 1]);
    }

    #[test]
    fn layers_without_non_tuning_experts_get_zero() {
        let profile = skewed_profile(3, 4);
        let budgets = layer_budgets(BudgetPolicy::Adaptive, &profile, &[3, 0, 3], 6);
        assert_eq!(budgets[1], 0);
        assert!(budgets[0] >= 1 && budgets[2] >= 1);
    }

    #[test]
    fn tiny_total_budget_still_gives_every_layer_one() {
        let profile = skewed_profile(4, 8);
        let budgets = layer_budgets(BudgetPolicy::Adaptive, &profile, &[7, 7, 7, 7], 2);
        assert!(budgets.iter().all(|&b| b >= 1));
    }

    #[test]
    fn earlier_layers_preferred_when_variance_equal() {
        // Build a profile where every layer has identical (balanced)
        // activation; only the depth factor differs.
        let mut tracker = ActivationTracker::new(vec![4; 4]);
        for layer in 0..4 {
            for _ in 0..80 {
                tracker.record_layer_token(layer);
            }
            for e in 0..4 {
                for _ in 0..20 {
                    tracker.record(layer, e, 0.0);
                }
            }
        }
        let profile = tracker.finish();
        assert!(profile.frequency(ExpertKey::new(0, 0)) > 0.0);
        let budgets = layer_budgets(BudgetPolicy::Adaptive, &profile, &[4, 4, 4, 4], 10);
        assert!(
            budgets[0] >= budgets[3],
            "earlier layers should get at least as much: {budgets:?}"
        );
    }
}
