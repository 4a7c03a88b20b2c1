//! Gating network and post-merge routing map.

use flux_tensor::{init, ops, stats, Matrix, SeededRng};

/// The gating network of one MoE layer.
///
/// A single linear projection from the hidden state to per-expert logits.
/// Routing selects the top-k experts per token and renormalizes their
/// probabilities, the standard switch/top-k MoE scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Projection matrix `(d_model, num_experts)`.
    pub weight: Matrix,
    /// Number of experts routed per token.
    pub top_k: usize,
}

/// Routing decision for one token.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenRouting {
    /// Selected expert indices (original, pre-remap ids), highest prob first.
    pub experts: Vec<usize>,
    /// Renormalized probabilities aligned with `experts`.
    pub weights: Vec<f32>,
    /// Full softmax distribution over experts (pre-top-k), used by profiling.
    pub full_distribution: Vec<f32>,
}

impl Gate {
    /// Creates a randomly initialized gate for `num_experts` experts.
    pub fn new(d_model: usize, num_experts: usize, top_k: usize, rng: &mut SeededRng) -> Self {
        Self {
            weight: init::xavier_uniform(d_model, num_experts, rng),
            top_k: top_k.max(1),
        }
    }

    /// Number of experts this gate routes over.
    pub fn num_experts(&self) -> usize {
        self.weight.cols()
    }

    /// Routes a single token row, returning its top-k routing decision.
    pub fn route(&self, token: &[f32]) -> TokenRouting {
        debug_assert_eq!(token.len(), self.weight.rows());
        // Vector–matrix fast path: streams the weight rows once instead of
        // gathering one column per expert.
        let logits = self.weight.vecmat(token).expect("token width matches");
        self.route_logits(&logits)
    }

    fn route_logits(&self, logits: &[f32]) -> TokenRouting {
        let probs = ops::softmax_row(logits);
        let k = self.top_k.min(probs.len());
        let top = stats::top_k_indices(&probs, k);
        let mass: f32 = top.iter().map(|&i| probs[i]).sum();
        let weights: Vec<f32> = top
            .iter()
            .map(|&i| {
                if mass > 0.0 {
                    probs[i] / mass
                } else {
                    1.0 / k as f32
                }
            })
            .collect();
        TokenRouting {
            experts: top,
            weights,
            full_distribution: probs,
        }
    }

    /// Routes every row of a hidden-state matrix.
    ///
    /// All logits come from one blocked matmul; because the matmul kernel
    /// and [`flux_tensor::Matrix::vecmat`] share their accumulation order,
    /// the decisions are bit-identical to routing each row via
    /// [`Gate::route`].
    pub fn route_all(&self, hidden: &Matrix) -> Vec<TokenRouting> {
        let logits = hidden.matmul(&self.weight);
        (0..hidden.rows())
            .map(|r| self.route_logits(logits.row(r)))
            .collect()
    }
}

/// Remapping of original expert ids to compact (post-merge) expert ids.
///
/// After non-tuning experts are merged, the gate still produces logits over
/// the *original* expert ids; the routing map redirects a selected original
/// expert to the compact model's expert that now serves it. This is the
/// paper's "gate re-routing" (§7).
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingMap {
    /// `map[original_expert] = compact_expert`.
    map: Vec<usize>,
    /// Number of compact experts.
    num_compact: usize,
}

impl RoutingMap {
    /// Identity mapping over `n` experts.
    pub fn identity(n: usize) -> Self {
        Self {
            map: (0..n).collect(),
            num_compact: n,
        }
    }

    /// Builds a map from an explicit original→compact table.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty or references a compact id that is not
    /// dense in `0..num_compact`. For a table this program built; one read
    /// from a file goes through [`RoutingMap::try_from_table`].
    pub fn from_table(map: Vec<usize>) -> Self {
        Self::try_from_table(map).unwrap_or_else(|reason| panic!("{reason}"))
    }

    /// [`RoutingMap::from_table`] for a table from outside the program.
    ///
    /// # Errors
    ///
    /// Says why when the table is empty or its compact ids are not dense in
    /// `0..num_compact`.
    pub fn try_from_table(map: Vec<usize>) -> Result<Self, String> {
        let Some(&max) = map.iter().max() else {
            return Err("routing map cannot be empty".into());
        };
        let num_compact = max.saturating_add(1);
        // Dense ids take at least as many entries as there are ids, so
        // `seen` is never larger than the input, whatever maximum a hostile
        // table names: with every flag below set, `max` is below the length.
        let mut seen = vec![false; num_compact.min(map.len())];
        for &compact in &map {
            if let Some(flag) = seen.get_mut(compact) {
                *flag = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&flag| !flag) {
            return Err(format!(
                "compact expert {missing} has no originals mapped to it"
            ));
        }
        Ok(Self { map, num_compact })
    }

    /// Number of original experts.
    pub fn num_original(&self) -> usize {
        self.map.len()
    }

    /// Number of compact experts.
    pub fn num_compact(&self) -> usize {
        self.num_compact
    }

    /// Redirects an original expert id to its compact id.
    ///
    /// # Panics
    ///
    /// Panics if `original` is out of range.
    pub fn redirect(&self, original: usize) -> usize {
        self.map[original]
    }

    /// Original experts that map to the given compact expert.
    pub fn originals_of(&self, compact: usize) -> Vec<usize> {
        self.map
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == compact)
            .map(|(o, _)| o)
            .collect()
    }

    /// The raw table.
    pub fn table(&self) -> &[usize] {
        &self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_selects_top_k_and_normalizes() {
        let mut rng = SeededRng::new(1);
        let gate = Gate::new(8, 6, 2, &mut rng);
        let token: Vec<f32> = (0..8).map(|_| rng.normal()).collect();
        let routing = gate.route(&token);
        assert_eq!(routing.experts.len(), 2);
        assert_eq!(routing.weights.len(), 2);
        assert!((routing.weights.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(routing.weights[0] >= routing.weights[1]);
        assert_eq!(routing.full_distribution.len(), 6);
        assert!((routing.full_distribution.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn top_k_larger_than_experts_is_clamped() {
        let mut rng = SeededRng::new(2);
        let gate = Gate::new(4, 3, 10, &mut rng);
        let routing = gate.route(&[0.1, -0.2, 0.3, 0.4]);
        assert_eq!(routing.experts.len(), 3);
    }

    #[test]
    fn route_all_covers_every_row() {
        let mut rng = SeededRng::new(3);
        let gate = Gate::new(4, 8, 2, &mut rng);
        let hidden = Matrix::random_normal(5, 4, 1.0, &mut rng);
        let routings = gate.route_all(&hidden);
        assert_eq!(routings.len(), 5);
    }

    #[test]
    fn routing_is_deterministic() {
        let mut rng = SeededRng::new(4);
        let gate = Gate::new(4, 8, 2, &mut rng);
        let token = [0.5, -0.5, 0.25, 1.0];
        assert_eq!(gate.route(&token), gate.route(&token));
    }

    #[test]
    fn different_tokens_can_route_differently() {
        let mut rng = SeededRng::new(5);
        let gate = Gate::new(8, 16, 1, &mut rng);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..32 {
            let token: Vec<f32> = (0..8).map(|_| rng.normal() * 3.0).collect();
            distinct.insert(gate.route(&token).experts[0]);
        }
        assert!(distinct.len() > 1, "expected multiple experts to be used");
    }

    #[test]
    fn identity_map_is_noop() {
        let map = RoutingMap::identity(8);
        assert_eq!(map.num_original(), 8);
        assert_eq!(map.num_compact(), 8);
        for i in 0..8 {
            assert_eq!(map.redirect(i), i);
        }
    }

    #[test]
    fn from_table_redirects_and_inverts() {
        // Experts 0 and 2 merge into compact 0; 1 and 3 into compact 1.
        let map = RoutingMap::from_table(vec![0, 1, 0, 1]);
        assert_eq!(map.num_compact(), 2);
        assert_eq!(map.redirect(2), 0);
        assert_eq!(map.originals_of(1), vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "no originals")]
    fn from_table_rejects_sparse_compacts() {
        // Compact id 1 is skipped.
        RoutingMap::from_table(vec![0, 2, 0]);
    }

    #[test]
    fn try_from_table_says_why_instead_of_panicking() {
        let map = RoutingMap::try_from_table(vec![0, 1, 2, 1]).unwrap();
        assert_eq!(map, RoutingMap::from_table(vec![0, 1, 2, 1]));
        let err = RoutingMap::try_from_table(vec![0, 2, 0]).unwrap_err();
        assert!(err.contains("compact expert 1"), "{err}");
        // A maximum far above the table's length reserves nothing for it.
        let err = RoutingMap::try_from_table(vec![0, usize::MAX]).unwrap_err();
        assert!(err.contains("compact expert 1"), "{err}");
        assert!(RoutingMap::try_from_table(vec![]).is_err());
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn from_table_rejects_empty() {
        RoutingMap::from_table(vec![]);
    }
}
