//! Scaled-down trainable Mixture-of-Experts transformer.
//!
//! The Flux paper fine-tunes LLaMA-MoE (32 layers × 16 experts, 6.7 B
//! parameters) and DeepSeek-MoE (28 × 64, 16.4 B). Real checkpoints and GPUs
//! are unavailable to this reproduction, so this crate provides an MoE
//! transformer with the *same topology* (layer count, expert count, top-k
//! routing, per-token gating, attention) at a laptop-scale width, trained
//! from scratch on the synthetic datasets of `flux-data`. The structural
//! properties Flux exploits — skewed expert activation, per-layer activation
//! variance, error accumulation when experts are merged or dropped, and
//! per-expert gradients — all emerge from this substrate.
//!
//! Supported operations mirror the paper's implementation section (§7):
//!
//! * **Customized MoE construction** — a different number of experts per
//!   layer ([`config::MoeConfig::with_experts_per_layer`]), used after
//!   non-tuning experts are merged.
//! * **Parameter loading for customized models** — building a compact model
//!   from a full model plus an expert keep/merge plan
//!   ([`model::MoeModel::set_layer_experts`]).
//! * **Gate re-routing** — the gating output of a merged expert is remapped
//!   to its merged replacement ([`gating::RoutingMap`]).
//! * **Expert-only fine-tuning** — backward produces per-expert gradients
//!   for a caller-selected tuning set, plus task-head gradients.
//! * **Quantized profiling copies** — [`model::MoeModel::quantized_copy`]
//!   produces a model whose weights carry INT2/4/8 round-trip error, used by
//!   Flux's local profiling.

pub mod attention;
pub mod batch;
pub mod checkpoint;
pub mod config;
pub mod expert;
pub mod gating;
pub mod layer;
pub mod model;
pub mod tracker;

pub use batch::PackedBatch;
pub use config::{ModelCatalogEntry, MoeConfig};
pub use expert::{Expert, ExpertGrad};
pub use gating::RoutingMap;
pub use model::{
    BatchForwardCache, EvalResult, ForwardCache, GradientSet, MoeModel, RecordedForward,
};
pub use tracker::{ActivationProfile, ActivationTracker, ExpertKey};
