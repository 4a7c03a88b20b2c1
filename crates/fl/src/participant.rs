//! Federated participants and fleet construction.

use std::sync::Arc;

use flux_data::{partition_indices_non_iid, Dataset, PartitionConfig, PartitionView};
use flux_moe::MoeConfig;
use flux_quant::BitWidth;
use flux_tensor::SeededRng;

use crate::device::{sample_fleet, DeviceProfile, LinkProfile};
use crate::fault::FaultKind;

/// One federated participant: a device plus its local (private) data shard.
#[derive(Debug, Clone)]
pub struct Participant {
    /// Stable participant id.
    pub id: usize,
    /// Hardware profile.
    pub device: DeviceProfile,
    /// Local training shard (never leaves the participant).
    pub train_data: Dataset,
    /// Profiling bit width this participant can afford (weaker devices pick
    /// lower widths, §4.1 "each participant flexibly chooses the appropriate
    /// quantization level").
    pub profile_width: BitWidth,
}

impl Participant {
    /// Memory budget `B_i`: experts that fit on this device.
    pub fn expert_capacity(&self, config: &MoeConfig) -> usize {
        self.device.expert_capacity(config)
    }

    /// Compute budget `B_tune_i`: experts that can be tuned per round.
    pub fn tuning_capacity(&self, config: &MoeConfig) -> usize {
        self.device.tuning_capacity(config, self.tokens_per_round())
    }

    /// Tokens processed in one local round (all local samples, one epoch).
    pub fn tokens_per_round(&self) -> usize {
        self.train_data
            .samples
            .iter()
            .map(|s| s.tokens.len())
            .sum::<usize>()
            .max(1)
    }

    /// Number of local samples.
    pub fn num_samples(&self) -> usize {
        self.train_data.len()
    }
}

/// Fault/latency behavior of one participant, used by the driver's
/// straggler and dropout scenarios.
///
/// The simulated *cost model* already prices slow devices; this knob instead
/// perturbs the **wall-clock execution** of the round pipeline, so tests can
/// prove that arrival order and mid-round failures change neither the
/// aggregate (no deadlock, no double-counted weight) nor the bit-exact
/// results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ParticipantBehavior {
    /// Trains and uploads normally.
    #[default]
    Healthy,
    /// Returns late: its local round stalls for this many wall-clock
    /// milliseconds before the upload reaches the server, pushing it to the
    /// back of the arrival order without changing what it computes.
    Straggler {
        /// Wall-clock delay before the upload is produced.
        delay_ms: u64,
    },
    /// Drops out mid-run: from round `round` (0-based) onward the
    /// participant neither trains nor uploads, and the server must exclude
    /// its weight entirely.
    DropoutAt {
        /// First round the participant misses.
        round: usize,
    },
    /// Crashes during exactly one round: trains, but its upload never
    /// reaches the server that round (and, unlike [`Self::DropoutAt`],
    /// it returns healthy next round).
    CrashAt {
        /// The single round whose upload is lost.
        round: usize,
    },
    /// Its round-`round` upload arrives bit-flipped; the server's
    /// checksum-validated decode must reject (not crash on) it.
    CorruptAt {
        /// The round whose upload arrives damaged.
        round: usize,
    },
    /// Its round-`round` upload stalls past the delivery window and is
    /// only recovered by a server-side retry.
    StallAt {
        /// The round whose upload stalls.
        round: usize,
    },
}

impl ParticipantBehavior {
    /// Whether the participant is absent in `round`.
    pub fn is_dropped(&self, round: usize) -> bool {
        matches!(self, ParticipantBehavior::DropoutAt { round: r } if round >= *r)
    }

    /// Wall-clock stall applied before the participant's upload, in
    /// milliseconds.
    pub fn delay_ms(&self) -> u64 {
        match self {
            ParticipantBehavior::Straggler { delay_ms } => *delay_ms,
            _ => 0,
        }
    }

    /// The fault this behavior injects into the *first* delivery attempt of
    /// the participant's round-`round` upload (retries are clean — behaviors
    /// model one-shot incidents; use a
    /// [`FaultPlan`](crate::fault::FaultPlan) for sustained failure rates).
    pub fn fault_at(&self, round: usize, attempt: u32) -> FaultKind {
        if attempt > 0 {
            return FaultKind::None;
        }
        match self {
            ParticipantBehavior::CrashAt { round: r } if *r == round => FaultKind::Crash,
            ParticipantBehavior::CorruptAt { round: r } if *r == round => FaultKind::Corrupt,
            ParticipantBehavior::StallAt { round: r } if *r == round => FaultKind::Stall,
            _ => FaultKind::None,
        }
    }
}

/// Profiling bit width a device can afford: 8 GB cards use INT2, mid-range
/// cards INT4, larger cards INT8 (§4.1 "each participant flexibly chooses
/// the appropriate quantization level").
fn profile_width_for(device: &DeviceProfile) -> BitWidth {
    if device.gpu_memory_gb <= 8.0 {
        BitWidth::Int2
    } else if device.gpu_memory_gb <= 16.0 {
        BitWidth::Int4
    } else {
        BitWidth::Int8
    }
}

/// One registered client: everything needed to materialize a
/// [`Participant`] on demand, without holding its data shard.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    /// Stable client id (also the participant id once materialized).
    pub id: usize,
    /// Hardware profile.
    pub device: DeviceProfile,
    /// Profiling bit width this client's device affords.
    pub profile_width: BitWidth,
    /// Rows of the shared corpus forming this client's shard.
    indices: Arc<Vec<usize>>,
}

impl ClientSpec {}

/// Lightweight registry of N federated clients over one shared corpus.
///
/// Registration stores per client only a device profile and a shard index
/// list against an `Arc`-shared corpus, so a 10k-client fleet costs O(total
/// indices) instead of N cloned [`Dataset`] shards. Participants are
/// materialized lazily — typically just the K clients sampled into a
/// round's cohort — via [`FleetSpec::materialize`], which reproduces the
/// eager [`build_fleet`] shard for that id bit-for-bit.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    corpus: Arc<Dataset>,
    clients: Vec<ClientSpec>,
}

impl FleetSpec {
    /// Registers `num_clients` clients over `corpus`.
    ///
    /// When the fleet is no larger than the corpus, shards come from the
    /// non-IID Dirichlet partitioner with RNG consumption identical to the
    /// eager [`build_fleet`] (so legacy runs replay bit-identically).
    /// Larger fleets — the 10k-cohort regime, where a Dirichlet split
    /// cannot give every client its minimum shard — tile the corpus
    /// cyclically instead: client `i` owns rows `{2i, 2i+1} mod len`,
    /// deterministically and without consuming partition draws.
    pub fn build(
        corpus: Arc<Dataset>,
        num_clients: usize,
        alpha: f32,
        rng: &mut SeededRng,
    ) -> Self {
        assert!(num_clients > 0, "need at least one client");
        let shards: Vec<Vec<usize>> = if corpus.is_empty() {
            // The eager partitioner hands out empty shards (and consumes no
            // draws) for an empty corpus; mirror that.
            vec![Vec::new(); num_clients]
        } else if num_clients <= corpus.len() {
            partition_indices_non_iid(
                &corpus,
                &PartitionConfig::new(num_clients).with_alpha(alpha),
                rng,
            )
        } else {
            let len = corpus.len();
            (0..num_clients)
                .map(|i| vec![(2 * i) % len, (2 * i + 1) % len])
                .collect()
        };
        let devices = sample_fleet(num_clients, rng);
        let clients = shards
            .into_iter()
            .zip(devices)
            .enumerate()
            .map(|(id, (shard, device))| ClientSpec {
                id,
                profile_width: profile_width_for(&device),
                device,
                indices: Arc::new(shard),
            })
            .collect();
        Self { corpus, clients }
    }

    /// Number of registered clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Whether no clients are registered.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// The registration record of client `id`.
    pub fn client(&self, id: usize) -> &ClientSpec {
        &self.clients[id]
    }

    /// All registration records, in id order.
    pub fn clients(&self) -> &[ClientSpec] {
        &self.clients
    }

    /// The shared corpus behind every shard.
    pub fn corpus(&self) -> &Arc<Dataset> {
        &self.corpus
    }

    /// A lazy stream over client `id`'s shard (no samples cloned until
    /// consumed).
    pub fn view(&self, id: usize) -> PartitionView {
        let c = &self.clients[id];
        PartitionView::new(Arc::clone(&self.corpus), Arc::clone(&c.indices))
    }

    /// Materializes client `id` into a full [`Participant`] (clones its
    /// shard out of the corpus).
    pub fn materialize(&self, id: usize) -> Participant {
        let c = &self.clients[id];
        Participant {
            id: c.id,
            device: c.device.clone(),
            train_data: self.corpus.subset(&c.indices),
            profile_width: c.profile_width,
        }
    }

    /// Materializes every client — the legacy full-participation fleet.
    pub fn materialize_all(&self) -> Vec<Participant> {
        (0..self.clients.len())
            .map(|id| self.materialize(id))
            .collect()
    }

    /// Overrides every client's uplink (the `RunConfig::with_link` knob),
    /// so lazily materialized participants inherit it.
    pub fn override_link(&mut self, link: LinkProfile) {
        for c in &mut self.clients {
            c.device.link = link;
        }
    }
}

/// Builds a heterogeneous fleet of participants from a dataset.
///
/// The dataset is split non-IID across participants (Dirichlet topic skew)
/// and each participant is paired with a sampled consumer-GPU profile.
/// This is the eager form of [`FleetSpec::build`]: every client is
/// materialized immediately.
pub fn build_fleet(
    dataset: &Dataset,
    num_participants: usize,
    alpha: f32,
    rng: &mut SeededRng,
) -> Vec<Participant> {
    FleetSpec::build(Arc::new(dataset.clone()), num_participants, alpha, rng).materialize_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_data::{DatasetGenerator, DatasetKind};

    fn dataset() -> Dataset {
        let mut rng = SeededRng::new(1);
        DatasetGenerator::for_kind(DatasetKind::Mmlu, 256).generate(&mut rng)
    }

    #[test]
    fn fleet_covers_all_samples_and_ids() {
        let ds = dataset();
        let mut rng = SeededRng::new(2);
        let fleet = build_fleet(&ds, 10, 0.5, &mut rng);
        assert_eq!(fleet.len(), 10);
        let total: usize = fleet.iter().map(|p| p.num_samples()).sum();
        assert_eq!(total, ds.len());
        for (i, p) in fleet.iter().enumerate() {
            assert_eq!(p.id, i);
        }
    }

    #[test]
    fn budgets_are_consistent() {
        let ds = dataset();
        let mut rng = SeededRng::new(3);
        let cfg = MoeConfig::llama_moe_sim();
        let fleet = build_fleet(&ds, 8, 0.5, &mut rng);
        for p in &fleet {
            let b = p.expert_capacity(&cfg);
            assert!(p.tuning_capacity(&cfg) <= b);
        }
    }

    #[test]
    fn profile_width_matches_device_size() {
        let ds = dataset();
        let mut rng = SeededRng::new(4);
        let fleet = build_fleet(&ds, 30, 0.5, &mut rng);
        for p in &fleet {
            match p.profile_width {
                BitWidth::Int2 => assert!(p.device.gpu_memory_gb <= 8.0),
                BitWidth::Int4 => {
                    assert!(p.device.gpu_memory_gb > 8.0 && p.device.gpu_memory_gb <= 16.0)
                }
                BitWidth::Int8 => assert!(p.device.gpu_memory_gb > 16.0),
            }
        }
    }

    #[test]
    fn tokens_per_round_positive() {
        let ds = dataset();
        let mut rng = SeededRng::new(5);
        let fleet = build_fleet(&ds, 5, 0.5, &mut rng);
        assert!(fleet.iter().all(|p| p.tokens_per_round() > 0));
    }

    #[test]
    fn behavior_dropout_and_delay_semantics() {
        let healthy = ParticipantBehavior::Healthy;
        assert!(!healthy.is_dropped(0));
        assert_eq!(healthy.delay_ms(), 0);
        let straggler = ParticipantBehavior::Straggler { delay_ms: 25 };
        assert!(!straggler.is_dropped(100));
        assert_eq!(straggler.delay_ms(), 25);
        let dropout = ParticipantBehavior::DropoutAt { round: 2 };
        assert!(!dropout.is_dropped(1));
        assert!(dropout.is_dropped(2));
        assert!(dropout.is_dropped(7));
        assert_eq!(dropout.delay_ms(), 0);
    }

    #[test]
    fn fault_behaviors_fire_once_on_the_first_attempt() {
        let crash = ParticipantBehavior::CrashAt { round: 3 };
        assert_eq!(crash.fault_at(3, 0), FaultKind::Crash);
        assert_eq!(crash.fault_at(2, 0), FaultKind::None);
        assert_eq!(crash.fault_at(4, 0), FaultKind::None);
        assert!(!crash.is_dropped(3), "a crash is not a dropout");

        let corrupt = ParticipantBehavior::CorruptAt { round: 1 };
        assert_eq!(corrupt.fault_at(1, 0), FaultKind::Corrupt);
        assert_eq!(corrupt.fault_at(1, 1), FaultKind::None, "retries are clean");

        let stall = ParticipantBehavior::StallAt { round: 0 };
        assert_eq!(stall.fault_at(0, 0), FaultKind::Stall);
        assert_eq!(stall.fault_at(0, 1), FaultKind::None);
        assert_eq!(ParticipantBehavior::Healthy.fault_at(0, 0), FaultKind::None);
    }

    #[test]
    fn lazy_registry_matches_eager_fleet_bit_for_bit() {
        // FleetSpec::build must consume the RNG exactly like build_fleet,
        // and lazy materialization must reproduce the eager shards.
        let ds = dataset();
        let eager = build_fleet(&ds, 9, 0.4, &mut SeededRng::new(21));
        let spec = FleetSpec::build(Arc::new(ds.clone()), 9, 0.4, &mut SeededRng::new(21));
        assert_eq!(spec.len(), eager.len());
        for p in &eager {
            let lazy = spec.materialize(p.id);
            assert_eq!(lazy.id, p.id);
            assert_eq!(lazy.device, p.device);
            assert_eq!(lazy.profile_width, p.profile_width);
            assert_eq!(lazy.train_data.samples, p.train_data.samples);
        }
    }

    #[test]
    fn registry_views_stream_the_same_shard_it_materializes() {
        use flux_data::SampleStream;
        let ds = dataset();
        let spec = FleetSpec::build(Arc::new(ds), 6, 0.5, &mut SeededRng::new(22));
        for id in 0..spec.len() {
            let mut view = spec.view(id);
            assert_eq!(
                view.materialize().samples,
                spec.materialize(id).train_data.samples
            );
        }
    }

    #[test]
    fn oversubscribed_registry_tiles_the_corpus() {
        // More clients than samples: the Dirichlet split cannot give every
        // client its minimum, so the registry tiles cyclically — every
        // client still gets a non-empty deterministic shard and only the
        // sampled cohort is ever materialized.
        let ds = dataset();
        let n = ds.len() * 3 + 7;
        let a = FleetSpec::build(Arc::new(ds.clone()), n, 0.5, &mut SeededRng::new(23));
        let b = FleetSpec::build(Arc::new(ds.clone()), n, 0.5, &mut SeededRng::new(23));
        assert_eq!(a.len(), n);
        for id in [0, 1, ds.len(), n - 1] {
            assert_eq!(a.client(id).indices, b.client(id).indices);
            let p = a.materialize(id);
            assert_eq!(p.id, id);
            assert_eq!(p.num_samples(), 2);
        }
    }

    #[test]
    fn link_override_applies_to_lazy_materialization() {
        let ds = dataset();
        let mut spec = FleetSpec::build(Arc::new(ds), 4, 0.5, &mut SeededRng::new(24));
        let link = LinkProfile::three_g();
        spec.override_link(link);
        for id in 0..spec.len() {
            assert_eq!(spec.materialize(id).device.link, link);
        }
    }

    #[test]
    fn fleet_is_deterministic() {
        let ds = dataset();
        let a = build_fleet(&ds, 6, 0.5, &mut SeededRng::new(7));
        let b = build_fleet(&ds, 6, 0.5, &mut SeededRng::new(7));
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.device, y.device);
            assert_eq!(x.train_data.samples.len(), y.train_data.samples.len());
        }
    }
}
