//! Federated-learning substrate: devices, cost model, clock, aggregation.
//!
//! The paper evaluates Flux on a physical testbed (NVIDIA L20 servers acting
//! as resource-constrained participants) and reports *time-to-accuracy*.
//! This crate replaces the testbed with an explicit simulation substrate:
//!
//! * [`device::DeviceProfile`] describes a participant's GPU memory, compute
//!   throughput, PCIe bandwidth and network bandwidth, and derives the
//!   paper's per-participant budgets `B_i` (experts that fit in memory) and
//!   `B_tune_i` (experts that can be tuned within the round deadline);
//! * [`cost::CostModel`] converts work items (profiling a dataset with an
//!   INT4 model, fine-tuning k experts on t tokens, offloading experts over
//!   PCIe, uploading updates) into simulated seconds;
//! * [`clock::SimClock`] and [`clock::PhaseTimes`] accumulate those seconds
//!   into per-round and per-phase totals (the basis of Fig. 14/20 and all
//!   time-to-accuracy numbers);
//! * [`aggregate`] implements FedAvg over expert parameters and task heads;
//! * [`participant::Participant`] bundles a device with its non-IID data
//!   shard, and [`store::ShardedStore`] is the server side of one federated
//!   job: its global model, held once. Every run owns its own store, so
//!   concurrent runs aggregate into disjoint stores.
//!
//! Convergence behaviour (rounds to target) comes from really training the
//! scaled model; this crate only accounts for how long each round takes.

pub mod aggregate;
pub mod clock;
pub mod compress;
pub mod cost;
pub mod device;
pub mod fault;
pub mod participant;
pub mod snapshot;
pub mod store;
pub mod sync;

pub use aggregate::{
    fedavg_experts, fedavg_matrices, AggregationTree, ExpertUpdate, ShardedAggregator,
    SharedExpertUpdate,
};
pub use clock::{PhaseTimes, SimClock};
pub use compress::{
    dense_upload_payload_bytes, CompressionConfig, DecodeError, EncodedExpertUpdate, EncodedTensor,
    EncodedUpload,
};
pub use cost::{CostModel, RoundCostBreakdown};
pub use device::{DeviceClass, DeviceProfile, LinkProfile};
pub use fault::{FaultKind, FaultPlan, FaultToleranceConfig};
pub use participant::{build_fleet, ClientSpec, FleetSpec, Participant, ParticipantBehavior};
pub use snapshot::{load_store, CheckpointStats, LoadedSnapshot, SnapshotError};
pub use store::{shard_of_key, ShardedStore, DEFAULT_SHARDS};
