//! Dynamic expert role assignment (§6).
//!
//! Every round the parameter server decides, per participant, which experts
//! are *tuning* (trained locally at full fidelity) and which are
//! *non-tuning* (merged and frozen). The decision maximizes total expert
//! utility under the per-participant capacity `B_tune_i` (Eq. 4), where
//! utility is a gradient-magnitude × data-utilization signal (Eq. 3).
//! Because only previously-selected experts have fresh gradients, the
//! assigner mixes exploitation (top-utility experts) with exploration
//! (randomly sampled experts whose utility is refreshed with a forward-only
//! gradient estimate that recomputes only what a perturbation can change),
//! and the exploitation share ε grows as training progresses.

use std::collections::{HashMap, HashSet};

use flux_data::Sample;
use flux_moe::{ActivationProfile, ExpertGrad, ExpertKey, MoeModel, RecordedForward};
use flux_tensor::{stats, SeededRng};

/// Expert utility (Eq. 3): `u_e = |D_e| · sqrt(mean per-token gradient
/// magnitude)`.
///
/// `|D_e|` is the number of local samples routed through the expert (data
/// utilization) and the gradient term measures how much the expert would
/// move if trained. Both pieces come for free: the sample sets from the
/// profiling module and the gradients from the previous round's training
/// (or from forward-only estimation for exploration experts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpertUtility {
    /// The expert this utility describes (original/global id).
    pub key: ExpertKey,
    /// Utility value; higher means more useful to tune.
    pub value: f32,
    /// Whether the value came from true backpropagation (exploitation) or a
    /// forward-only estimate (exploration).
    pub estimated: bool,
}

/// Computes the utility of an expert from its gradient and data utilization.
pub fn expert_utility(key: ExpertKey, grad: &ExpertGrad, samples_routed: usize) -> ExpertUtility {
    let tokens = grad.token_count.max(1) as f32;
    let mean_grad_magnitude = grad.norm() / tokens.sqrt();
    ExpertUtility {
        key,
        value: samples_routed as f32 * mean_grad_magnitude,
        estimated: false,
    }
}

/// Initial utility used in round 0, before any gradients exist: the
/// normalized activation frequency (the paper initializes `u = Norm(a)`).
pub fn initial_utilities(profile: &ActivationProfile) -> Vec<ExpertUtility> {
    let mut utilities = Vec::new();
    for layer in 0..profile.num_layers() {
        let normalized = stats::min_max_normalize(&profile.frequencies[layer]);
        for (expert, &value) in normalized.iter().enumerate() {
            utilities.push(ExpertUtility {
                key: ExpertKey::new(layer, expert),
                value,
                estimated: true,
            });
        }
    }
    utilities
}

/// Schedule for the exploitation share ε.
///
/// ε is the fraction of the selected experts chosen by utility
/// (exploitation); the remaining `1 − ε` are random exploration picks. Flux
/// grows ε over rounds as utility estimates become reliable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicEpsilon {
    /// ε used in the first round.
    pub start: f32,
    /// Upper bound ε approaches.
    pub end: f32,
    /// Increase per round.
    pub step: f32,
}

impl DynamicEpsilon {
    /// The paper's dynamic schedule: start exploring heavily (ε = 0.3) and
    /// end almost fully exploiting (ε = 0.9).
    pub fn paper_default() -> Self {
        Self {
            start: 0.3,
            end: 0.9,
            step: 0.1,
        }
    }

    /// A fixed ε (the ablation baselines of Fig. 19).
    pub fn fixed(epsilon: f32) -> Self {
        Self {
            start: epsilon,
            end: epsilon,
            step: 0.0,
        }
    }

    /// ε for the given round.
    pub fn at_round(&self, round: usize) -> f32 {
        (self.start + self.step * round as f32)
            .clamp(self.start.min(self.end), self.start.max(self.end))
    }
}

/// The assignment produced for one participant in one round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoleAssignment {
    /// Experts selected for exploitation (highest utility).
    pub exploitation: Vec<ExpertKey>,
    /// Experts selected for exploration (random refresh of utility).
    pub exploration: Vec<ExpertKey>,
}

impl RoleAssignment {
    /// All tuning experts (exploitation ∪ exploration).
    pub fn tuning_set(&self) -> HashSet<ExpertKey> {
        self.exploitation
            .iter()
            .chain(self.exploration.iter())
            .copied()
            .collect()
    }

    /// Number of tuning experts.
    pub fn len(&self) -> usize {
        self.exploitation.len() + self.exploration.len()
    }

    /// True when no expert was assigned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Server-side role assigner (Algorithm 1).
#[derive(Debug, Clone)]
pub struct RoleAssigner {
    epsilon: DynamicEpsilon,
    /// Latest known utility per (participant, expert).
    utilities: HashMap<usize, HashMap<ExpertKey, ExpertUtility>>,
}

impl RoleAssigner {
    /// Creates an assigner with the given ε schedule.
    pub fn new(epsilon: DynamicEpsilon) -> Self {
        Self {
            epsilon,
            utilities: HashMap::new(),
        }
    }

    /// The ε schedule in use.
    pub fn epsilon(&self) -> DynamicEpsilon {
        self.epsilon
    }

    /// Records utilities reported by a participant (overwrites previous
    /// values for the same experts).
    pub fn report_utilities(&mut self, participant: usize, utilities: &[ExpertUtility]) {
        let entry = self.utilities.entry(participant).or_default();
        for &u in utilities {
            entry.insert(u.key, u);
        }
    }

    /// Latest utility table for a participant.
    pub fn utilities_of(&self, participant: usize) -> Option<&HashMap<ExpertKey, ExpertUtility>> {
        self.utilities.get(&participant)
    }

    /// Every recorded utility, sorted by `(participant, layer, expert)` —
    /// a canonical order, so a checkpoint of the table is byte-stable no
    /// matter what order reports arrived in.
    pub fn export_utilities(&self) -> Vec<(usize, ExpertUtility)> {
        let mut all: Vec<(usize, ExpertUtility)> = self
            .utilities
            .iter()
            .flat_map(|(&pid, table)| table.values().map(move |&u| (pid, u)))
            .collect();
        all.sort_by_key(|(pid, u)| (*pid, u.key.layer, u.key.expert));
        all
    }

    /// Rebuilds an assigner from checkpointed state: the ε schedule plus
    /// the utility table exported by [`RoleAssigner::export_utilities`].
    pub fn from_utilities(
        epsilon: DynamicEpsilon,
        utilities: impl IntoIterator<Item = (usize, ExpertUtility)>,
    ) -> Self {
        let mut assigner = Self::new(epsilon);
        for (pid, u) in utilities {
            assigner.utilities.entry(pid).or_default().insert(u.key, u);
        }
        assigner
    }

    /// Runs Algorithm 1 for one participant.
    ///
    /// * Solves the per-participant budgeted selection (Eq. 4): take the
    ///   `B_tune_i` experts with the highest known utility as candidates
    ///   `E_i` (the per-participant constraint makes the greedy choice
    ///   optimal).
    /// * Splits the budget into `ε·|E_i|` exploitation picks (highest
    ///   utility) and `(1-ε)·|E_i|` exploration picks drawn uniformly from
    ///   experts *not* in the candidate set, refreshing their utility
    ///   estimates over time.
    pub fn assign(
        &self,
        participant: usize,
        all_experts: &[ExpertKey],
        tuning_budget: usize,
        round: usize,
        rng: &mut SeededRng,
    ) -> RoleAssignment {
        self.assign_with_table(
            self.utilities.get(&participant),
            all_experts,
            tuning_budget,
            round,
            rng,
        )
    }

    /// Runs Algorithm 1 against an explicit utility table.
    ///
    /// This is the read-only core of [`RoleAssigner::assign`]: passing the
    /// table directly lets a participant running on a worker thread assign
    /// against freshly bootstrapped utilities without mutating the shared
    /// assigner mid-round (the bootstrap is reported back to the server in
    /// participant-id order once the round joins).
    pub fn assign_with_table(
        &self,
        table: Option<&HashMap<ExpertKey, ExpertUtility>>,
        all_experts: &[ExpertKey],
        tuning_budget: usize,
        round: usize,
        rng: &mut SeededRng,
    ) -> RoleAssignment {
        if tuning_budget == 0 || all_experts.is_empty() {
            return RoleAssignment {
                exploitation: Vec::new(),
                exploration: Vec::new(),
            };
        }
        let budget = tuning_budget.min(all_experts.len());
        // Rank all experts by known utility (unknown experts rank last but
        // above nothing, so they are reachable through exploration).
        let mut ranked: Vec<(ExpertKey, f32)> = all_experts
            .iter()
            .map(|&k| {
                let value = table
                    .and_then(|t| t.get(&k))
                    .map(|u| u.value)
                    .unwrap_or(0.0);
                (k, value)
            })
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let candidates: Vec<ExpertKey> = ranked.iter().take(budget).map(|&(k, _)| k).collect();

        let epsilon = self.epsilon.at_round(round);
        let exploit_count = ((budget as f32) * epsilon).round() as usize;
        let exploit_count = exploit_count.min(budget);
        let explore_count = budget - exploit_count;

        let exploitation: Vec<ExpertKey> = candidates[..exploit_count].to_vec();
        // Exploration pool: experts outside the candidate set.
        let candidate_set: HashSet<ExpertKey> = candidates.iter().copied().collect();
        let mut pool: Vec<ExpertKey> = all_experts
            .iter()
            .copied()
            .filter(|k| !candidate_set.contains(k))
            .collect();
        rng.shuffle(&mut pool);
        let mut exploration: Vec<ExpertKey> = pool.into_iter().take(explore_count).collect();
        // If the pool was too small (budget ≈ all experts), fall back to the
        // remaining candidates so the budget is still used.
        let mut next_candidate = exploit_count;
        while exploration.len() < explore_count && next_candidate < candidates.len() {
            exploration.push(candidates[next_candidate]);
            next_candidate += 1;
        }
        RoleAssignment {
            exploitation,
            exploration,
        }
    }
}

/// Forward-only gradient estimation for exploration experts (§6.2).
///
/// Instead of running backpropagation, the expert's parameters are perturbed
/// with Gaussian noise and the loss difference over a handful of samples is
/// used to estimate the gradient direction (simultaneous-perturbation /
/// zeroth-order estimation, as in BAFFLE and FwdLLM). Only the estimated
/// *gradient* is produced — parameters are never updated from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForwardGradEstimator {
    /// Standard deviation of the parameter perturbations.
    pub sigma: f32,
    /// Number of perturbation pairs averaged.
    pub num_perturbations: usize,
    /// Samples drawn from the local shard per loss evaluation.
    pub samples_per_eval: usize,
}

impl Default for ForwardGradEstimator {
    fn default() -> Self {
        Self {
            sigma: 0.02,
            num_perturbations: 4,
            samples_per_eval: 2,
        }
    }
}

impl ForwardGradEstimator {
    /// Estimates the gradient of one expert with forward passes only.
    ///
    /// Returns a flattened gradient estimate over the expert's parameters
    /// (same layout as [`ExpertGrad::flatten`]) and the mean loss observed.
    pub fn estimate(
        &self,
        model: &MoeModel,
        expert: ExpertKey,
        samples: &[Sample],
        rng: &mut SeededRng,
    ) -> (Vec<f32>, f32) {
        let base = self.record_base(model, samples);
        self.estimate_in_place(&mut model.clone(), &base, expert, rng)
    }

    /// [`estimated_utility`] of one expert, estimated in place (no model copy).
    pub fn estimate_utility_in_place(
        &self,
        model: &mut MoeModel,
        expert: ExpertKey,
        samples: &[Sample],
        samples_routed: usize,
        rng: &mut SeededRng,
    ) -> ExpertUtility {
        let base = self.record_base(model, samples);
        let (grad, _) = self.estimate_in_place(model, &base, expert, rng);
        estimated_utility(expert, &grad, samples_routed)
    }

    /// Records the unperturbed forward over the evaluation samples (the
    /// first `samples_per_eval`) that probes start from. It serves every
    /// expert explored on `model`, as each estimate restores what it touched.
    pub fn record_base<'a>(&self, model: &MoeModel, samples: &'a [Sample]) -> RecordedForward<'a> {
        model.record_forward(samples.iter().take(self.samples_per_eval.max(1)))
    }

    /// [`ForwardGradEstimator::estimate`] without the defensive model copy
    /// (the expert is perturbed in place and restored exactly on return),
    /// from a `base` recorded off `model` as it is now; every entry point
    /// ends here. Probes resume at the expert's layer, and an expert the
    /// base routed no row to gets its exact zero without a forward or a
    /// drawn direction: gradient, loss and RNG position are, bit for bit,
    /// those of two full forwards per perturbation.
    pub fn estimate_in_place(
        &self,
        model: &mut MoeModel,
        base: &RecordedForward<'_>,
        expert: ExpertKey,
        rng: &mut SeededRng,
    ) -> (Vec<f32>, f32) {
        let dims = model.expert(expert).num_params();
        let mut grad = vec![0.0f32; dims];
        if base.is_empty() || self.num_perturbations == 0 {
            return (grad, 0.0);
        }
        let pairs = self.num_perturbations as f32;
        if !base.reaches(expert) {
            rng.skip_normals(self.num_perturbations * dims);
            // Summed the way the probes sum it, so the mean keeps its bits.
            let each = 0.5 * (base.loss() + base.loss());
            let sum = (0..self.num_perturbations).fold(0.0, |sum, _| sum + each);
            return (grad, sum / pairs);
        }
        let base_expert = model.expert(expert).clone();
        let mut mean_loss = 0.0;
        // One reusable direction buffer; the plus/minus experts are written
        // in place over the model's expert (no per-perturbation clones).
        let mut direction = vec![0.0f32; dims];
        for _ in 0..self.num_perturbations {
            // Draw a perturbation direction over all expert parameters.
            for d in &mut direction {
                *d = rng.normal();
            }
            model
                .expert_mut(expert)
                .assign_perturbed(&base_expert, &direction, self.sigma);
            let loss_plus = model.batch_loss_from(base, expert.layer);
            model
                .expert_mut(expert)
                .assign_perturbed(&base_expert, &direction, -self.sigma);
            let loss_minus = model.batch_loss_from(base, expert.layer);
            mean_loss += 0.5 * (loss_plus + loss_minus);

            // Central-difference directional derivative projected back onto
            // the perturbation direction.
            let directional = (loss_plus - loss_minus) / (2.0 * self.sigma);
            for (g, &d) in grad.iter_mut().zip(direction.iter()) {
                *g += directional * d / pairs;
            }
        }
        // Restore the unperturbed parameters bit-exactly.
        model.expert_mut(expert).copy_from(&base_expert);
        (grad, mean_loss / pairs)
    }
}

/// Utility of an exploration expert: its forward-only gradient estimate's
/// magnitude combined with data utilization, mirroring Eq. 3.
pub fn estimated_utility(key: ExpertKey, grad: &[f32], samples_routed: usize) -> ExpertUtility {
    let magnitude = stats::l2_norm(grad) / (grad.len().max(1) as f32).sqrt();
    ExpertUtility {
        key,
        value: samples_routed as f32 * magnitude,
        estimated: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_data::{DatasetGenerator, DatasetKind};
    use flux_moe::{ExpertGrad, MoeConfig};

    fn model_and_data() -> (MoeModel, flux_data::Dataset) {
        let mut rng = SeededRng::new(1);
        let model = MoeModel::new(MoeConfig::tiny().with_classes(8), &mut rng);
        let cfg = flux_data::DatasetConfig::for_kind(DatasetKind::Gsm8k, 64)
            .with_num_samples(10)
            .with_mean_seq_len(8);
        let data = DatasetGenerator::new(cfg).generate(&mut rng);
        (model, data)
    }

    #[test]
    fn utility_scales_with_data_and_gradient() {
        let mut grad = ExpertGrad::zeros(4, 8);
        grad.w1.set(0, 0, 2.0);
        grad.token_count = 4;
        let small = expert_utility(ExpertKey::new(0, 0), &grad, 5);
        let big_data = expert_utility(ExpertKey::new(0, 0), &grad, 50);
        assert!(big_data.value > small.value);
        let mut bigger_grad = grad.clone();
        bigger_grad.w1.set(0, 0, 8.0);
        let big_grad = expert_utility(ExpertKey::new(0, 0), &bigger_grad, 5);
        assert!(big_grad.value > small.value);
        assert!(!small.estimated);
    }

    #[test]
    fn initial_utilities_follow_activation_frequency() {
        let (model, data) = model_and_data();
        let profile = model.profile(&data);
        let utilities = initial_utilities(&profile);
        assert_eq!(utilities.len(), 32);
        // The most frequent expert of layer 0 has the maximum (1.0) utility.
        let layer0: Vec<&ExpertUtility> = utilities.iter().filter(|u| u.key.layer == 0).collect();
        let max = layer0
            .iter()
            .max_by(|a, b| a.value.partial_cmp(&b.value).unwrap())
            .unwrap();
        let best_freq = stats::argmax(&profile.frequencies[0]).unwrap();
        assert_eq!(max.key.expert, best_freq);
        assert!(utilities.iter().all(|u| u.estimated));
    }

    #[test]
    fn dynamic_epsilon_grows_and_clamps() {
        let eps = DynamicEpsilon::paper_default();
        assert!((eps.at_round(0) - 0.3).abs() < 1e-6);
        assert!(eps.at_round(3) > eps.at_round(1));
        assert!((eps.at_round(100) - 0.9).abs() < 1e-6);
        let fixed = DynamicEpsilon::fixed(0.7);
        assert_eq!(fixed.at_round(0), 0.7);
        assert_eq!(fixed.at_round(50), 0.7);
    }

    #[test]
    fn assignment_respects_budget_and_disjointness() {
        let (model, data) = model_and_data();
        let profile = model.profile(&data);
        let mut assigner = RoleAssigner::new(DynamicEpsilon::paper_default());
        assigner.report_utilities(0, &initial_utilities(&profile));
        let all = model.expert_keys();
        let mut rng = SeededRng::new(2);
        let assignment = assigner.assign(0, &all, 8, 0, &mut rng);
        assert_eq!(assignment.len(), 8);
        let set = assignment.tuning_set();
        assert_eq!(
            set.len(),
            8,
            "exploitation and exploration must not overlap"
        );
        // ε = 0.3 at round 0: ~2-3 exploitation picks, rest exploration.
        assert!(assignment.exploitation.len() <= 3);
        assert!(!assignment.exploration.is_empty());
    }

    #[test]
    fn later_rounds_exploit_more() {
        let (model, data) = model_and_data();
        let profile = model.profile(&data);
        let mut assigner = RoleAssigner::new(DynamicEpsilon::paper_default());
        assigner.report_utilities(0, &initial_utilities(&profile));
        let all = model.expert_keys();
        let early = assigner.assign(0, &all, 10, 0, &mut SeededRng::new(3));
        let late = assigner.assign(0, &all, 10, 10, &mut SeededRng::new(3));
        assert!(late.exploitation.len() > early.exploitation.len());
    }

    #[test]
    fn exploitation_picks_highest_utility_experts() {
        let mut assigner = RoleAssigner::new(DynamicEpsilon::fixed(1.0));
        let all: Vec<ExpertKey> = (0..10).map(|e| ExpertKey::new(0, e)).collect();
        let utilities: Vec<ExpertUtility> = all
            .iter()
            .enumerate()
            .map(|(i, &key)| ExpertUtility {
                key,
                value: i as f32,
                estimated: false,
            })
            .collect();
        assigner.report_utilities(3, &utilities);
        let assignment = assigner.assign(3, &all, 3, 5, &mut SeededRng::new(4));
        // With ε = 1.0 everything is exploitation: the top-3 utilities are
        // experts 9, 8, 7.
        let chosen: HashSet<usize> = assignment.exploitation.iter().map(|k| k.expert).collect();
        assert_eq!(chosen, HashSet::from([9, 8, 7]));
        assert!(assignment.exploration.is_empty());
    }

    #[test]
    fn unknown_participant_still_gets_assignment() {
        let assigner = RoleAssigner::new(DynamicEpsilon::fixed(0.5));
        let all: Vec<ExpertKey> = (0..6).map(|e| ExpertKey::new(0, e)).collect();
        let assignment = assigner.assign(42, &all, 4, 0, &mut SeededRng::new(5));
        assert_eq!(assignment.len(), 4);
    }

    #[test]
    fn zero_budget_gives_empty_assignment() {
        let assigner = RoleAssigner::new(DynamicEpsilon::paper_default());
        let all: Vec<ExpertKey> = (0..6).map(|e| ExpertKey::new(0, e)).collect();
        let assignment = assigner.assign(0, &all, 0, 0, &mut SeededRng::new(6));
        assert!(assignment.is_empty());
    }

    #[test]
    fn forward_estimate_correlates_with_true_gradient() {
        // Fig. 18: the forward-only estimate should point in a direction
        // similar to the backpropagated gradient (cosine distance well below
        // the ~1.0 expected of random vectors).
        let (model, data) = model_and_data();
        let expert = ExpertKey::new(0, 0);
        let mut tuning = HashSet::new();
        tuning.insert(expert);
        let grads = model.batch_gradients(&data.samples[..4], Some(&tuning));
        let Some(true_grad) = grads.expert_grads.get(&expert) else {
            // Expert never activated in this tiny setup; nothing to compare.
            return;
        };
        let estimator = ForwardGradEstimator {
            sigma: 0.02,
            num_perturbations: 24,
            samples_per_eval: 4,
        };
        let mut rng = SeededRng::new(7);
        let (estimate, _) = estimator.estimate(&model, expert, &data.samples[..4], &mut rng);
        let distance = stats::cosine_distance(&estimate, &true_grad.flatten());
        assert!(
            distance < 0.95,
            "estimate should beat a random direction: distance {distance}"
        );
    }

    #[test]
    fn forward_estimate_empty_samples_is_zero() {
        let (model, _) = model_and_data();
        let estimator = ForwardGradEstimator::default();
        let mut rng = SeededRng::new(8);
        let (grad, loss) = estimator.estimate(&model, ExpertKey::new(0, 0), &[], &mut rng);
        assert!(grad.iter().all(|&g| g == 0.0));
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn estimate_utility_is_positive_for_active_expert() {
        let (mut model, data) = model_and_data();
        let estimator = ForwardGradEstimator::default();
        let mut rng = SeededRng::new(9);
        let utility = estimator.estimate_utility_in_place(
            &mut model,
            ExpertKey::new(0, 0),
            &data.samples[..2],
            12,
            &mut rng,
        );
        assert!(utility.estimated);
        assert!(utility.value >= 0.0);
    }
}
