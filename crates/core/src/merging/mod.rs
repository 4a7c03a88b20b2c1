//! Adaptive merging of non-tuning experts (§5).
//!
//! Each participant keeps its tuning experts at full fidelity and replaces
//! the remaining (non-tuning) experts with a much smaller set of *merged*
//! experts so that the whole working set fits the memory budget `B_i`. The
//! pipeline has three stages, each in its own sub-module:
//!
//! 1. [`budget`] — split the non-tuning budget `B_non_i` across layers
//!    (Eq. 1): earlier layers and layers with balanced activation get more
//!    merged experts because errors there hurt more.
//! 2. [`cluster`] — group similar non-tuning experts with PCA-reduced
//!    features and a cross-layer *fused* constrained K-Means (one clustering
//!    problem for the whole model instead of one per layer).
//! 3. [`strategy`] — merge each cluster into a single expert with weights
//!    combining activation frequency and token attention (Eq. 2).
//!
//! [`CompactModelPlan`] stitches the stages together and builds the compact
//! per-participant model with a re-routed gate.
//!
//! # One expert Gram matrix per round
//!
//! The paper prices merging at 0.04 simulated seconds a round; in
//! wall-clock it used to be the largest line of a Flux round, because every
//! participant ran its PCA as a power iteration over its own `m×d` matrix
//! of flattened experts. The PCA now runs in Gram space
//! ([`flux_tensor::pca`]): the features are read off the eigenvectors of
//! the `m×m` matrix of inner products between the experts, and the only
//! pass over the parameters is the one that forms those inner products.
//! All participants of a round cluster subsets of the same snapshot, so
//! that pass is shared ([`gram`]):
//!
//! * the driver opens an [`ExpertGramCache`] in `ActiveRun::start_round`,
//!   next to the quantized-model cache, and drops it when the fan-out
//!   returns — a Gram matrix describes one snapshot and must never see the
//!   next round's weights;
//! * the first participants to reach merging fill it cooperatively (row
//!   panels of the lower triangle, claimed one at a time; idle pool workers
//!   join through a nested region), everyone else finds it complete;
//! * each participant copies out the sub-block of its non-tuning experts,
//!   centres it in `f64` and solves — `O(m²·k)` per participant instead of
//!   `O(m·d·k·iterations)`.
//!
//! Plans always cluster [`ClusteringMode::Fused`], whose one clustering
//! problem spans every layer, so sharing pays. The `PerLayer` ablation of
//! Fig. 16 ([`cluster_non_tuning_experts`]) reads only within-layer inner
//! products, `1/L` of the shared matrix, so it computes each layer's own
//! small matrix and takes no cache.
//!
//! [`CompactModelPlan::build`] takes no cache and computes the inner
//! products of just the experts it clusters;
//! [`CompactModelPlan::build_shared`] is the driver's path. They return
//! equal plans bit for bit, because an inner product is a pure function of
//! its two experts: same reduction order whatever other experts are in the
//! matrix, whichever panel or thread computed it
//! ([`flux_tensor::gram`]).

pub mod budget;
pub mod cluster;
pub mod gram;
pub mod plan;
pub mod strategy;

pub use budget::{layer_budgets, BudgetPolicy};
pub use cluster::{cluster_non_tuning_experts, ClusteringMode, ExpertClusters};
pub use gram::{ExpertGramCache, GramCacheStats};
pub use plan::{CompactModelPlan, ExpertSlot};
pub use strategy::{merge_cluster, MergeStrategy};

/// Configuration of the merging module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergingConfig {
    /// How the per-layer budgets are chosen.
    pub budget_policy: BudgetPolicy,
    /// How experts inside one cluster are combined.
    pub strategy: MergeStrategy,
    /// Dimensionality the expert features are reduced to before clustering.
    pub pca_dims: usize,
}

impl Default for MergingConfig {
    fn default() -> Self {
        Self {
            budget_policy: BudgetPolicy::Adaptive,
            strategy: MergeStrategy::AttentionFrequency,
            pca_dims: 8,
        }
    }
}

impl MergingConfig {
    /// Overrides the budget policy.
    pub fn with_budget_policy(mut self, policy: BudgetPolicy) -> Self {
        self.budget_policy = policy;
        self
    }

    /// Overrides the merge strategy.
    pub fn with_strategy(mut self, strategy: MergeStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}
