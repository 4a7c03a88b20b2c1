//! Flux: federated fine-tuning of MoE-based LLMs on resource-constrained
//! devices.
//!
//! This crate implements the paper's contribution on top of the substrate
//! crates (`flux-tensor`, `flux-quant`, `flux-data`, `flux-moe`, `flux-fl`,
//! `flux-metrics`):
//!
//! * **Expert activation profiling (§4)** — [`profiling`] runs a quantized
//!   copy of the model over local data to estimate per-expert activation
//!   frequencies, token attention and per-expert data subsets, and the
//!   [`profiling::StaleProfiler`] overlaps profiling with aggregation so its
//!   cost is hidden (§4.2).
//! * **Adaptive merging of non-tuning experts (§5)** — [`merging`] allocates
//!   per-layer merging budgets (Eq. 1), clusters similar experts with a
//!   PCA + cross-layer-fused K-Means, merges each cluster with
//!   attention-and-frequency weights (Eq. 2), and produces compact
//!   participant models with re-routed gates.
//! * **Dynamic expert role assignment (§6)** — [`assignment`] defines
//!   gradient-based expert utility (Eq. 3), solves the budgeted selection
//!   problem (Eq. 4), balances exploration and exploitation with a dynamic
//!   ε, and estimates gradients of exploration experts with a forward-only
//!   perturbation method.
//! * **Baselines (§8.1)** — [`baselines`] implements FMD (full model with
//!   expert offloading), FMQ (INT4 quantized fine-tuning) and FMES
//!   (top-activation expert selection with discarded non-tuning experts).
//! * **The federated driver** — [`driver`] wires everything into the
//!   parameter-server training loop, advances the simulated clock with the
//!   `flux-fl` cost model, and records convergence/time-to-accuracy. Runs
//!   execute through a resumable per-round state machine
//!   ([`driver::ActiveRun`]).
//! * **The concurrent-run scheduler** — [`scheduler`] multiplexes many
//!   independent runs (mixed methods, datasets, arrival times, straggler
//!   profiles), each owning its global model's store, onto one worker
//!   pool, with per-run results bit-identical to running each job alone.
//!
//! # Examples
//!
//! ```no_run
//! use flux_core::driver::{FederatedRun, Method, RunConfig};
//! use flux_data::DatasetKind;
//! use flux_moe::MoeConfig;
//!
//! let config = RunConfig::quick_demo(MoeConfig::tiny(), DatasetKind::Gsm8k);
//! let result = FederatedRun::new(config, 42).run(Method::Flux);
//! println!("time to target: {:?} h", result.tracker.time_to_target_hours());
//! ```

pub mod assignment;
pub mod baselines;
pub mod cohort;
pub mod driver;
pub mod merging;
pub mod profiling;
mod recovery;
pub mod scheduler;

pub use assignment::{DynamicEpsilon, ExpertUtility, RoleAssigner, RoleAssignment};
pub use cohort::CohortSampler;
pub use driver::{
    ActiveRun, ExecutionMode, FederatedRun, Method, RoundFaults, RoundRecord, RunConfig, RunPhase,
    RunResult,
};
pub use merging::{CompactModelPlan, MergeStrategy, MergingConfig};
pub use profiling::{LocalProfiler, ProfilingConfig, QuantizedModelCache, StaleProfiler};
pub use scheduler::{JobSpec, RunHandle, SchedulePolicy, ScheduledRun, Scheduler};
