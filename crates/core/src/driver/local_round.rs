//! One participant's local round: the single dispatch on [`Method`] and
//! Flux's round body. It reads its client's state and returns what
//! changed in [`ParticipantRound`].

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};

use flux_data::Sample;
use flux_fl::{
    dense_upload_payload_bytes, CostModel, EncodedUpload, ExpertUpdate, Participant,
    RoundCostBreakdown,
};
use flux_moe::{ActivationProfile, ExpertKey, MoeModel};
use flux_tensor::SeededRng;

use crate::assignment::{
    estimated_utility, expert_utility, initial_utilities, ExpertUtility, ForwardGradEstimator,
    RoleAssigner,
};
use crate::baselines::{
    fmd_local_round, fmes_local_round, fmq_local_round, local_train, LocalRoundOutput,
};
use crate::merging::{ClusteringMode, CompactModelPlan, ExpertGramCache};
use crate::profiling::{LocalProfiler, ProfilingConfig, QuantizedModelCache, StaleProfiler};

use super::delivery::RoundUpload;
use super::{Method, RunConfig};

/// What one registered client carries from one of its rounds to the next.
pub(super) enum ClientState {
    /// Flux: the stale-profiling pipeline (§4.2).
    Flux(StaleProfiler),
    /// FMES: the activation profile its expert selection ranks by,
    /// measured in the client's first round and kept.
    Fmes(ActivationProfile),
}

/// A Flux client's state as a checkpoint persists it: `(stale profile,
/// refreshes)`.
type PersistedFlux = (Option<ActivationProfile>, usize);

/// The registry-indexed client-state vector. It is allocated when the
/// first state is installed, so a method that keeps nothing per client
/// (FMD, FMQ) never allocates it.
#[derive(Default)]
pub(super) struct ClientStates(Vec<Option<ClientState>>);

impl ClientStates {
    /// Client `id`'s state, if it has one.
    pub(super) fn get(&self, id: usize) -> Option<&ClientState> {
        self.0.get(id).and_then(Option::as_ref)
    }

    /// Replaces client `id`'s state (one of `registered` clients).
    pub(super) fn install(&mut self, id: usize, state: ClientState, registered: usize) {
        if self.0.is_empty() {
            self.0.resize_with(registered, || None);
        }
        self.0[id] = Some(state);
    }

    /// The checkpoint form: FLUXRUN's two registry-wide lists, Flux's
    /// `(stale profile, refreshes)` and FMES's profile, one entry per
    /// registered client whatever the method.
    pub(super) fn to_lists(
        &self,
        registered: usize,
    ) -> (Vec<PersistedFlux>, Vec<Option<ActivationProfile>>) {
        (0..registered)
            .map(|id| match self.get(id) {
                Some(ClientState::Flux(profiler)) => (
                    (profiler.stale_profile().cloned(), profiler.refreshes()),
                    None,
                ),
                Some(ClientState::Fmes(profile)) => ((None, 0), Some(profile.clone())),
                None => ((None, 0), None),
            })
            .unzip()
    }

    /// Rebuilds the vector from the checkpoint form
    /// ([`ClientStates::to_lists`]).
    pub(super) fn from_lists(
        profiling: ProfilingConfig,
        flux: Vec<PersistedFlux>,
        fmes: Vec<Option<ActivationProfile>>,
    ) -> Self {
        let (registered, mut states) = (flux.len(), Self::default());
        for (id, persisted) in flux.into_iter().zip(fmes).enumerate() {
            let state =
                match persisted {
                    ((Some(profile), refreshes), _) => ClientState::Flux(
                        StaleProfiler::from_parts(profiling, Some(profile), refreshes),
                    ),
                    (_, Some(profile)) => ClientState::Fmes(profile),
                    _ => continue,
                };
            states.install(id, state, registered);
        }
        states
    }
}

/// What one participant's local round hands back to the server loop.
///
/// Local rounds run on worker threads against a read-only view of the
/// run; everything they would have changed (the client's state, utility
/// reports) is returned here and applied sequentially in participant-id
/// order, which keeps runs bit-identical for every thread count.
pub(super) struct ParticipantRound {
    pub(super) output: LocalRoundOutput,
    /// Round-0 bootstrap utilities (applied before the refreshed ones,
    /// exactly as the sequential protocol did).
    pub(super) bootstrap_utilities: Option<Vec<ExpertUtility>>,
    /// Utilities measured during this round's local training.
    pub(super) reported_utilities: Vec<ExpertUtility>,
    /// The client's new state, when the round changed it.
    pub(super) state: Option<ClientState>,
    /// The upload in wire form until it is staged: the moment the
    /// participant finishes, or in `finish_round` when the delivery layer
    /// or the arrival-shuffle knob decides what arrives and when.
    pub(super) upload: Option<RoundUpload>,
    /// Bytes a dense upload of this participant's payload occupies.
    pub(super) upload_bytes_dense: usize,
    /// Bytes the encoded upload actually occupies.
    pub(super) upload_bytes_encoded: usize,
}

impl ParticipantRound {
    /// A round result that carries no utility reports (the baselines).
    fn plain(output: LocalRoundOutput, state: Option<ClientState>) -> Self {
        Self {
            output,
            bootstrap_utilities: None,
            reported_utilities: Vec::new(),
            state,
            upload: None,
            upload_bytes_dense: 0,
            upload_bytes_encoded: 0,
        }
    }
}

/// Everything a round's local bodies read: one per round, shared by the
/// whole fan-out. Its caches die with it, so nothing computed from one
/// snapshot is ever used for another.
pub(super) struct RoundContext<'a> {
    pub(super) config: &'a RunConfig,
    pub(super) method: Method,
    pub(super) round: usize,
    /// The round-start snapshot every participant trains from and encoded
    /// uploads decode against.
    pub(super) snapshot: &'a MoeModel,
    pub(super) cost: &'a CostModel,
    /// One quantized profiling copy per bit width per round.
    pub(super) quant_cache: QuantizedModelCache,
    /// One matrix of expert inner products per round: merging's PCA works
    /// on sub-blocks of it, so the pass over the parameters is paid once,
    /// by whichever participants reach merging first.
    pub(super) gram_cache: ExpertGramCache,
    pub(super) assigner: &'a RoleAssigner,
    pub(super) round_rng: &'a SeededRng,
}

impl RoundContext<'_> {
    /// Runs `participant`'s local round for the run's method against the
    /// client's `state`, then puts the upload into its wire form.
    pub(super) fn local_round(
        &self,
        participant: &Participant,
        state: Option<&ClientState>,
    ) -> ParticipantRound {
        let (cfg, global, cost) = (self.config, self.snapshot, self.cost);
        let (lr, batch, cache) = (cfg.learning_rate, cfg.batch_size, &self.quant_cache);
        let tokens = participant
            .tokens_per_round()
            .saturating_mul(cfg.reference_token_scale)
            .max(1);
        let mut round = match self.method {
            Method::Fmd => {
                let output = fmd_local_round(participant, global, cost, tokens, lr, batch);
                ParticipantRound::plain(output, None)
            }
            Method::Fmq => {
                let output = fmq_local_round(participant, global, cost, cache, tokens, lr, batch);
                ParticipantRound::plain(output, None)
            }
            Method::Fmes => {
                let profile = match state {
                    Some(ClientState::Fmes(profile)) => Cow::Borrowed(profile),
                    _ => Cow::Owned(global.profile(&participant.train_data)),
                };
                let output =
                    fmes_local_round(participant, global, &profile, cost, tokens, lr, batch);
                let measured = match profile {
                    Cow::Owned(profile) => Some(ClientState::Fmes(profile)),
                    Cow::Borrowed(_) => None,
                };
                ParticipantRound::plain(output, measured)
            }
            Method::Flux => {
                let stale = match state {
                    Some(ClientState::Flux(profiler)) => Some(profiler),
                    _ => None,
                };
                self.flux_local_round(participant, stale, tokens)
            }
        };
        self.encode_upload(participant, &mut round);
        round
    }

    /// Moves the round's payload into its wire form and accounts its bytes
    /// (encoding is participant-side compute, so it runs on the worker).
    /// The dense form is exactly the legacy payload.
    fn encode_upload(&self, participant: &Participant, round: &mut ParticipantRound) {
        let compression = self.config.compression;
        let (updates, head) = round.output.take_upload();
        round.upload_bytes_dense = dense_upload_payload_bytes(&updates, head.as_ref());
        let upload = if compression.is_dense() {
            round.upload_bytes_encoded = round.upload_bytes_dense;
            RoundUpload::Dense(updates, head)
        } else {
            let encoded =
                EncodedUpload::encode(&updates, head.as_ref(), self.snapshot, compression);
            round.upload_bytes_encoded = encoded.encoded_bytes();
            // Re-price communication from real payload bytes: the upload
            // ships at the encoded/dense ratio of the reference-scale dense
            // payload, the download of refreshed experts stays dense.
            let dense_ref =
                CostModel::dense_upload_bytes(&self.snapshot.config, updates.len().max(1));
            let ratio = if round.upload_bytes_dense > 0 {
                round.upload_bytes_encoded as f64 / round.upload_bytes_dense as f64
            } else {
                1.0
            };
            round.output.cost.communication_s = self.cost.communication_time_s_bytes(
                &participant.device,
                dense_ref * ratio,
                dense_ref,
            );
            RoundUpload::Encoded(encoded)
        };
        round.upload = Some(upload);
    }

    /// One Flux participant round: profiling, role assignment, adaptive
    /// merging, local fine-tuning of exploitation experts, utility
    /// reporting and cost accounting.
    ///
    /// Reads the client's stale profiler and a *read-only* assigner, so
    /// rounds can execute on worker threads; the refreshed profiler and the
    /// utility reports are returned for the driver to apply in
    /// participant-id order.
    fn flux_local_round(
        &self,
        participant: &Participant,
        stale: Option<&StaleProfiler>,
        reference_tokens: usize,
    ) -> ParticipantRound {
        let (cfg, global, cost) = (self.config, self.snapshot, self.cost);
        let (round, assigner) = (self.round, self.assigner);
        let config = &global.config;
        let device = &participant.device;
        let width = participant.profile_width;
        let rng = &mut self
            .round_rng
            .derive((round * 1000 + participant.id) as u64);

        // Profiling (§4): every round profiles the snapshot it received,
        // and that profile is the client's next stale one. A stale profile
        // comes for free (it was refreshed during the previous round's
        // aggregation window); a cold start or the non-stale ablation uses
        // the fresh one and pays quantization + profiling on the critical
        // path.
        let fresh = LocalProfiler::new(cfg.profiling).profile_cached(
            global,
            &participant.train_data,
            &self.quant_cache,
        );
        let (profile, profiling_s) = match stale.and_then(StaleProfiler::stale_profile) {
            Some(stale_profile) if cfg.profiling.stale => (stale_profile, 0.0),
            _ => (
                &fresh,
                cost.quantize_time_s(device, config, width)
                    + cost.profile_time_s(device, config, reference_tokens, width),
            ),
        };

        // Bootstrap utilities from activation frequencies in the first
        // round. The bootstrap is used locally for this round's assignment
        // and handed back to the driver, which reports it to the shared
        // assigner before the refreshed utilities — the same order the
        // sequential protocol produced.
        let bootstrap_utilities: Option<Vec<ExpertUtility>> =
            if assigner.utilities_of(participant.id).is_none() {
                Some(initial_utilities(profile))
            } else {
                None
            };

        // Role assignment (§6).
        let capacity = participant.expert_capacity(config);
        let tuning_budget = device
            .tuning_capacity(config, reference_tokens)
            .min(capacity);
        let non_tuning_budget = capacity.saturating_sub(tuning_budget).max(1);
        let all_keys = global.expert_keys();
        let assignment = match &bootstrap_utilities {
            Some(bootstrap) => {
                let table: HashMap<ExpertKey, ExpertUtility> =
                    bootstrap.iter().map(|u| (u.key, *u)).collect();
                assigner.assign_with_table(Some(&table), &all_keys, tuning_budget, round, rng)
            }
            None => assigner.assign(participant.id, &all_keys, tuning_budget, round, rng),
        };
        let tuning_set = assignment.tuning_set();

        // Adaptive merging (§5), clustering on the round's shared expert
        // inner products.
        let plan = CompactModelPlan::build_shared(
            global,
            profile,
            &tuning_set,
            non_tuning_budget,
            cfg.merging,
            &self.gram_cache,
            rng,
        );
        let mut compact = plan.apply(global, profile);
        let key_map = plan.tuning_key_map();

        // Data selection: train on the samples routed through the
        // exploitation experts (falling back to the full shard).
        let mut selected: BTreeSet<usize> = BTreeSet::new();
        for key in &assignment.exploitation {
            for &sample in profile.samples_of(*key) {
                selected.insert(sample);
            }
        }
        let train_samples: Vec<Sample> = if selected.is_empty() {
            participant.train_data.samples.clone()
        } else {
            selected
                .iter()
                .filter_map(|&i| participant.train_data.samples.get(i).cloned())
                .collect()
        };

        // Local fine-tuning of the exploitation experts.
        let exploitation_compact: HashSet<ExpertKey> = assignment
            .exploitation
            .iter()
            .filter_map(|k| key_map.get(k).copied())
            .collect();
        let (loss, last_grads) = local_train(
            &mut compact,
            &train_samples,
            Some(&exploitation_compact),
            cfg.learning_rate,
            cfg.batch_size,
        );

        // Utility refresh: true gradients for exploitation experts,
        // forward-only estimates for (a few) exploration experts.
        let mut utilities: Vec<ExpertUtility> = Vec::new();
        if let Some(grads) = &last_grads {
            for (compact_key, grad) in &grads.expert_grads {
                if let Some(original) = plan.original_of_compact(*compact_key) {
                    utilities.push(expert_utility(
                        original,
                        grad,
                        profile.samples_of(original).len(),
                    ));
                }
            }
        }
        let estimator = ForwardGradEstimator {
            sigma: 0.02,
            num_perturbations: 1,
            samples_per_eval: 1,
        };
        let explored = assignment.exploration.iter().take(4);
        let mut exploration_estimates = 0usize;
        // One unperturbed forward, recorded when the first expert needs it
        // and shared by the rest: each estimate perturbs the compact
        // model's expert in place and restores it exactly.
        let mut base = None;
        for original in explored {
            if let Some(compact_key) = key_map.get(original) {
                let base =
                    base.get_or_insert_with(|| estimator.record_base(&compact, &train_samples));
                let (grad, _) = estimator.estimate_in_place(&mut compact, base, *compact_key, rng);
                let samples_routed = profile.samples_of(*original).len();
                utilities.push(estimated_utility(*original, &grad, samples_routed));
                exploration_estimates += 1;
            }
        }

        // Upload the exploitation experts' updated parameters.
        let weight = train_samples.len().max(1) as f32;
        let expert_updates: Vec<ExpertUpdate> = assignment
            .exploitation
            .iter()
            .filter_map(|original| {
                key_map.get(original).map(|compact_key| ExpertUpdate {
                    key: *original,
                    expert: compact.expert(*compact_key).clone(),
                    weight,
                })
            })
            .collect();
        let head = compact.active_head().clone();

        // Cost accounting.
        let train_tokens: usize = train_samples.iter().map(|s| s.tokens.len()).sum();
        let reference_train_tokens = train_tokens.saturating_mul(cfg.reference_token_scale);
        let non_tuning_total = config.total_experts().saturating_sub(tuning_set.len());
        let fused = matches!(cfg.merging.clustering, ClusteringMode::Fused);
        // Exploration gradient estimation: two forward passes per
        // perturbation over one reference-scale sample.
        let estimation_tokens = exploration_estimates
            * 2
            * estimator.num_perturbations
            * cfg.reference_token_scale
            * participant
                .train_data
                .samples
                .first()
                .map(|s| s.tokens.len())
                .unwrap_or(16);
        let breakdown = RoundCostBreakdown {
            profiling_s,
            merging_s: cost.merge_time_s(non_tuning_total, fused),
            assignment_s: cost.assignment_time_s(config.total_experts())
                + cost.forward_time_s(device, config, estimation_tokens, config.top_k),
            fine_tuning_s: cost.fine_tune_time_s(
                device,
                config,
                reference_train_tokens,
                assignment.exploitation.len().max(1),
                capacity,
            ),
            offloading_s: 0.0,
            communication_s: cost.communication_time_s(device, config, expert_updates.len().max(1)),
        };
        let refreshes = stale.map_or(0, StaleProfiler::refreshes) + 1;
        let refreshed = StaleProfiler::from_parts(cfg.profiling, Some(fresh), refreshes);
        ParticipantRound {
            bootstrap_utilities,
            reported_utilities: utilities,
            ..ParticipantRound::plain(
                LocalRoundOutput {
                    expert_updates,
                    head_update: Some((head, weight)),
                    train_loss: loss,
                    trained_tokens: train_tokens,
                    cost: breakdown,
                },
                Some(ClientState::Flux(refreshed)),
            )
        }
    }
}
