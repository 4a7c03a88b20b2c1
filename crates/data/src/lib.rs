//! Synthetic datasets and non-IID partitioning for the Flux reproduction.
//!
//! The paper fine-tunes on Dolly, GSM8K, MMLU and PIQA, partitioned non-IID
//! across participants with the FedNLP benchmark splitter. Neither the
//! datasets nor a tokenizer is available offline, so this crate generates
//! synthetic analogues that preserve the properties the system actually
//! interacts with:
//!
//! * a **latent-topic token generator** — every sample is drawn from one of
//!   a small number of topics with a distinct token distribution, which is
//!   what makes MoE gating route different samples to different experts and
//!   yields the skewed per-layer activation patterns of the paper's Fig. 2;
//! * **task labels that depend on the tokens**, so that a model can actually
//!   learn the task and convergence curves are meaningful (generation
//!   targets for the Dolly analogue scored with ROUGE-L, class labels for
//!   the GSM8K/MMLU/PIQA analogues scored with exact-match accuracy);
//! * **matching shape parameters** — relative dataset sizes, sequence-length
//!   distributions (GSM8K noticeably shorter than Dolly, matching §8.2's
//!   "differences in sequence length" remark), class counts, and the paper's
//!   per-dataset target scores;
//! * **Dirichlet label-skew partitioning** across participants, the standard
//!   FedNLP-style non-IID split.

pub mod dataset;
pub mod generator;
pub mod partition;
pub mod stream;

pub use dataset::{Dataset, DatasetKind, Sample, Task};
pub use generator::{DatasetConfig, DatasetGenerator};
pub use partition::{
    partition_iid, partition_indices_iid, partition_indices_non_iid, partition_non_iid,
    PartitionConfig,
};
pub use stream::{PartitionView, SampleStream};
