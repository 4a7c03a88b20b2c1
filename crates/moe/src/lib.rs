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
//! * **Quantized profiling** — [`quantized::QuantizedMoe`] holds every
//!   weight packed at INT2/4/8 and profiles expert activation one
//!   dequantized block at a time, so Flux's local profiling never holds an
//!   `f32` copy of the model.
//! * **Copy-on-write experts** — a layer holds its experts behind `Arc`s, so
//!   a cloned or compact model shares every expert it has not written
//!   ([`layer::MoeLayer::experts`]), and training caches only the layers
//!   its backward reaches ([`model::MoeModel::batch_gradients`]).

pub mod attention;
pub mod batch;
pub mod checkpoint;
pub mod config;
pub mod expert;
pub mod gating;
pub mod layer;
pub mod model;
pub mod quantized;
pub mod tracker;

pub use batch::PackedBatch;
pub use config::{ModelCatalogEntry, MoeConfig};
pub use expert::{Expert, ExpertGrad};
pub use gating::RoutingMap;
pub use model::{BatchForwardCache, EvalResult, GradientSet, MoeModel, RecordedForward};
pub use quantized::QuantizedMoe;
pub use tracker::{ActivationProfile, ActivationTracker, ExpertKey};
