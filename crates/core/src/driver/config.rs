//! What a run is configured with and what it reports: the method and
//! schedule, [`RunConfig`], and the per-round and per-run records.

use flux_data::DatasetKind;
use flux_fl::{
    CompressionConfig, FaultPlan, FaultToleranceConfig, LinkProfile, PhaseTimes, RoundCostBreakdown,
};
use flux_metrics::{TargetMetric, TimeToAccuracyTracker};
use flux_moe::{MoeConfig, MoeModel};

use crate::assignment::DynamicEpsilon;
use crate::merging::MergingConfig;
use crate::profiling::ProfilingConfig;

/// Federated fine-tuning methods compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// The paper's system.
    Flux,
    /// Full-model fine-tuning with expert offloading.
    Fmd,
    /// INT4-quantized fine-tuning.
    Fmq,
    /// Activation-frequency expert selection with discarded non-tuning
    /// experts.
    Fmes,
}

impl Method {
    /// All methods in the order the paper's figures list them.
    pub fn all() -> [Method; 4] {
        [Method::Fmd, Method::Fmq, Method::Fmes, Method::Flux]
    }

    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Method::Flux => "FLUX",
            Method::Fmd => "FMD",
            Method::Fmq => "FMQ",
            Method::Fmes => "FMES",
        }
    }
}

/// Where each round's server-side tail runs. Uploads stage and aggregate
/// identically under both variants; the mode decides whether the previous
/// round's evaluation rides in the next fan-out, whether the simulated
/// clock overlaps the aggregation latency, and whether a round's record is
/// pushed at once or one round later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Dispatch, aggregate, evaluate, record, repeat: nothing of round *k*
    /// is still in flight when round *k+1* dispatches.
    Barriered,
    /// Each round's evaluation and aggregation latency overlap the next
    /// round's dispatch. Bit-identical results to
    /// [`ExecutionMode::Barriered`]; only the simulated timeline is shorter.
    Pipelined,
}

/// Configuration of one federated run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Model topology to fine-tune (scaled preset).
    pub model_config: MoeConfig,
    /// Which benchmark dataset analogue to use.
    pub dataset_kind: DatasetKind,
    /// Total synthetic samples generated (80/20 train/test split).
    pub num_samples: usize,
    /// Number of federated participants.
    pub num_participants: usize,
    /// Number of federated rounds to run.
    pub rounds: usize,
    /// Local mini-batch size (the paper uses 16).
    pub batch_size: usize,
    /// Local learning rate.
    pub learning_rate: f32,
    /// Dirichlet concentration of the non-IID split.
    pub non_iid_alpha: f32,
    /// Target score for time-to-accuracy; `None` uses the paper's per-dataset
    /// target, which the scaled models cannot always reach from random
    /// initialization — experiments typically set a calibrated target.
    pub target_score: Option<f32>,
    /// Exploration/exploitation schedule for the Flux role assigner.
    pub epsilon: DynamicEpsilon,
    /// Merging configuration for Flux.
    pub merging: MergingConfig,
    /// Profiling configuration for Flux.
    pub profiling: ProfilingConfig,
    /// Maximum test samples used for the per-round evaluation.
    pub eval_samples: usize,
    /// Factor translating the scaled dataset's token counts into the
    /// full-scale workload the cost model and `B_tune_i` derivation assume
    /// (the synthetic datasets are ~50× smaller and ~10× shorter than the
    /// real ones).
    pub reference_token_scale: usize,
    /// How participant uploads are encoded on the wire.
    /// [`CompressionConfig::Dense`] (the default) reproduces the legacy
    /// full-precision uploads bit-for-bit; `LosslessDelta` compresses
    /// without changing any result; `LossyDelta` trades accuracy for
    /// bytes.
    pub compression: CompressionConfig,
    /// Overrides every participant's last-mile link (3G/4G/WiFi presets or
    /// custom). `None` keeps each device's default symmetric link at its
    /// `network_mbps`.
    pub link: Option<LinkProfile>,
    /// Seeded random fault injection across the fleet (`None` disables it;
    /// one-shot incidents can still be scripted per participant with
    /// [`ParticipantBehavior`](flux_fl::ParticipantBehavior)).
    pub fault_plan: Option<FaultPlan>,
    /// Server-side delivery policy: quorum fraction, retry budget, backoff
    /// and per-round deadline. The default accepts every upload and never
    /// retries, which reproduces the fault-free pipeline bit-for-bit.
    pub fault_tolerance: FaultToleranceConfig,
    /// Clients sampled into each round's cohort. `None` (the default) is
    /// full participation — a cohort of all `num_participants` registered
    /// clients, materialized once in round 0. `Some(k)` materializes only
    /// the `k` clients a seeded per-round sampler picks, so
    /// participant-state memory stays O(k) however many clients register.
    pub cohort_size: Option<usize>,
    /// Edge aggregators pre-reducing each round's uploads before the root
    /// reduces into the store (`<= 1` = flat aggregation). Edges do
    /// structural work only — shard bucketing, checksum-validated decode,
    /// duplicate rejection — and the root re-sorts by participant id, so
    /// every tree shape produces a bit-identical global model.
    pub aggregation_edges: usize,
}

impl RunConfig {
    /// A configuration that finishes in seconds on one CPU core: the tiny
    /// model preset, a few dozen samples, a handful of rounds.
    pub fn quick_demo(model_config: MoeConfig, dataset_kind: DatasetKind) -> Self {
        Self {
            model_config,
            dataset_kind,
            num_samples: 48,
            num_participants: 4,
            rounds: 3,
            batch_size: 4,
            learning_rate: 0.02,
            non_iid_alpha: 0.5,
            target_score: Some(0.2),
            epsilon: DynamicEpsilon::paper_default(),
            merging: MergingConfig::default(),
            profiling: ProfilingConfig::default(),
            eval_samples: 12,
            reference_token_scale: 500,
            compression: CompressionConfig::Dense,
            link: None,
            fault_plan: None,
            fault_tolerance: FaultToleranceConfig::default(),
            cohort_size: None,
            aggregation_edges: 1,
        }
    }

    /// The configuration used by the experiment harness for the convergence
    /// and scalability figures: the `small` model preset with a moderate
    /// sample count, balancing fidelity against single-core runtime.
    pub fn experiment(model_config: MoeConfig, dataset_kind: DatasetKind) -> Self {
        Self {
            num_samples: 160,
            num_participants: 10,
            rounds: 12,
            batch_size: 8,
            learning_rate: 0.03,
            eval_samples: 24,
            target_score: None,
            ..Self::quick_demo(model_config, dataset_kind)
        }
    }

    /// Overrides the number of participants.
    pub fn with_participants(mut self, n: usize) -> Self {
        self.num_participants = n;
        self
    }

    /// Overrides the number of rounds.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Overrides the time-to-accuracy target score.
    pub fn with_target(mut self, target: f32) -> Self {
        self.target_score = Some(target);
        self
    }

    /// Overrides the ε schedule.
    pub fn with_epsilon(mut self, epsilon: DynamicEpsilon) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Overrides the merging configuration.
    pub fn with_merging(mut self, merging: MergingConfig) -> Self {
        self.merging = merging;
        self
    }

    /// Overrides the profiling configuration.
    pub fn with_profiling(mut self, profiling: ProfilingConfig) -> Self {
        self.profiling = profiling;
        self
    }

    /// Overrides the upload compression mode.
    pub fn with_compression(mut self, compression: CompressionConfig) -> Self {
        self.compression = compression;
        self
    }

    /// Overrides every participant's last-mile link profile.
    pub fn with_link(mut self, link: LinkProfile) -> Self {
        self.link = Some(link);
        self
    }

    /// Enables seeded random fault injection across the fleet.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Overrides the server-side delivery policy (quorum, retries,
    /// deadline).
    pub fn with_fault_tolerance(mut self, tolerance: FaultToleranceConfig) -> Self {
        self.fault_tolerance = tolerance;
        self
    }

    /// Samples `k` of the registered clients into each round's cohort
    /// (clamped to the fleet size at run start).
    pub fn with_cohort(mut self, k: usize) -> Self {
        self.cohort_size = Some(k);
        self
    }

    /// Routes each round's uploads through `n` edge aggregators that
    /// pre-reduce before the root (`<= 1` keeps flat aggregation).
    pub fn with_aggregation_edges(mut self, n: usize) -> Self {
        self.aggregation_edges = n;
        self
    }

    /// The evaluation metric (with target) for this run.
    pub fn metric(&self) -> TargetMetric {
        let target = self
            .target_score
            .unwrap_or_else(|| self.dataset_kind.target_score());
        if self.dataset_kind.uses_rouge() {
            TargetMetric::RougeL { target }
        } else {
            TargetMetric::Accuracy { target }
        }
    }
}

/// What the delivery layer did to this round's uploads (empty in a
/// fault-free round).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundFaults {
    /// Participants whose upload never landed (crash, stall-out, deadline
    /// miss, or cut by the quorum); their weight is excluded this round.
    pub dropped: Vec<usize>,
    /// Participants whose upload landed only after at least one retry.
    pub retried: Vec<usize>,
    /// Participants that shipped at least one payload the server's
    /// checksum-validated decode rejected.
    pub rejected: Vec<usize>,
}

impl RoundFaults {
    /// Whether the round saw no faults at all.
    pub fn is_clean(&self) -> bool {
        self.dropped.is_empty() && self.retried.is_empty() && self.rejected.is_empty()
    }
}

/// Record of one federated round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: usize,
    /// Simulated time at the end of the round, in hours.
    pub elapsed_hours: f64,
    /// Global-model evaluation score after aggregation.
    pub score: f32,
    /// Mean local training loss across participants.
    pub train_loss: f32,
    /// Simulated duration of this round in seconds.
    pub round_seconds: f64,
    /// Actual training tokens processed across all participants this round
    /// (the numerator of wall-clock tokens/sec throughput measurements).
    pub tokens_trained: usize,
    /// Bytes a dense (uncompressed) upload of this round's payloads would
    /// occupy, summed over participants.
    pub upload_bytes_dense: usize,
    /// Bytes the round's uploads actually occupied after encoding (equals
    /// `upload_bytes_dense` when compression is off).
    pub upload_bytes_compressed: usize,
    /// Critical-path participant's per-phase breakdown.
    pub breakdown: RoundCostBreakdown,
    /// Dropped/retried/rejected participants this round (fault scenarios).
    pub faults: RoundFaults,
}

/// Result of a complete federated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The method that produced this run.
    pub method: Method,
    /// Convergence tracker (relative accuracy vs simulated time).
    pub tracker: TimeToAccuracyTracker,
    /// Per-round records.
    pub rounds: Vec<RoundRecord>,
    /// Accumulated per-phase times (critical-path participant per round).
    pub phase_times: PhaseTimes,
    /// Final evaluation score.
    pub final_score: f32,
    /// Dense-equivalent upload bytes across the whole run.
    pub upload_bytes_dense: usize,
    /// Encoded upload bytes across the whole run.
    pub upload_bytes_compressed: usize,
    /// The aggregated global model at the end of the run (the artifact the
    /// golden-trace suite checksums).
    pub final_model: MoeModel,
}

impl RunResult {
    /// Simulated hours until `target` was first reached, if ever.
    pub fn time_to_score(&self, target: f32) -> Option<f64> {
        self.rounds
            .iter()
            .find(|r| r.score >= target)
            .map(|r| r.elapsed_hours)
    }

    /// Best score reached during the run.
    pub fn best_score(&self) -> f32 {
        self.rounds.iter().map(|r| r.score).fold(0.0, f32::max)
    }
}
