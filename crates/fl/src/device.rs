//! Participant device profiles and capacity derivation.

use flux_moe::MoeConfig;
use flux_tensor::SeededRng;

/// Consumer / datacenter GPU classes used to build heterogeneous fleets.
///
/// The paper targets "consumer-grade GPUs" for participants and uses NVIDIA
/// L20 (48 GB) servers for its own testbed; the classes below span that
/// range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// 8 GB consumer card (e.g. RTX 3050/4060 class).
    Consumer8G,
    /// 12 GB consumer card (e.g. RTX 3060 class).
    Consumer12G,
    /// 16 GB consumer card (e.g. RTX 4060 Ti 16G class).
    Consumer16G,
    /// 24 GB prosumer card (e.g. RTX 3090/4090 class).
    Prosumer24G,
    /// 48 GB datacenter card (NVIDIA L20, the paper's testbed GPU).
    ServerL20,
}

impl DeviceClass {
    /// All classes, smallest first.
    pub fn all() -> [DeviceClass; 5] {
        [
            DeviceClass::Consumer8G,
            DeviceClass::Consumer12G,
            DeviceClass::Consumer16G,
            DeviceClass::Prosumer24G,
            DeviceClass::ServerL20,
        ]
    }

    /// Builds the canonical profile of this class.
    pub fn profile(self) -> DeviceProfile {
        match self {
            DeviceClass::Consumer8G => DeviceProfile::new("consumer-8g", 8.0, 9.0, 8.0, 100.0),
            DeviceClass::Consumer12G => DeviceProfile::new("consumer-12g", 12.0, 13.0, 12.0, 200.0),
            DeviceClass::Consumer16G => DeviceProfile::new("consumer-16g", 16.0, 22.0, 16.0, 300.0),
            DeviceClass::Prosumer24G => DeviceProfile::new("prosumer-24g", 24.0, 40.0, 25.0, 500.0),
            DeviceClass::ServerL20 => DeviceProfile::new("server-l20", 48.0, 60.0, 32.0, 1000.0),
        }
    }
}

/// Last-mile link of one participant: asymmetric uplink/downlink
/// bandwidth in Mbit/s.
///
/// Federated rounds are uplink-dominated, and real consumer links are far
/// from symmetric — a 3G uplink is ~7× slower than its downlink. The cost
/// model prices uploads against `uplink_mbps` and snapshot downloads
/// against `downlink_mbps`, so upload compression buys exactly the
/// simulated seconds the link actually charges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Participant → server bandwidth in Mbit/s.
    pub uplink_mbps: f64,
    /// Server → participant bandwidth in Mbit/s.
    pub downlink_mbps: f64,
}

impl LinkProfile {
    /// A symmetric link (legacy behavior: one `network_mbps` both ways).
    pub fn symmetric(mbps: f64) -> Self {
        Self {
            uplink_mbps: mbps,
            downlink_mbps: mbps,
        }
    }

    /// HSPA-era cellular: ~1 Mbit/s up, ~7.2 Mbit/s down.
    pub fn three_g() -> Self {
        Self {
            uplink_mbps: 1.0,
            downlink_mbps: 7.2,
        }
    }

    /// LTE: ~15 Mbit/s up, ~60 Mbit/s down.
    pub fn four_g() -> Self {
        Self {
            uplink_mbps: 15.0,
            downlink_mbps: 60.0,
        }
    }

    /// Home WiFi on a cable/fiber backhaul: ~120 Mbit/s up, ~150 down.
    pub fn wifi() -> Self {
        Self {
            uplink_mbps: 120.0,
            downlink_mbps: 150.0,
        }
    }
}

/// Hardware description of one participant.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable device name.
    pub name: String,
    /// GPU memory in gigabytes.
    pub gpu_memory_gb: f64,
    /// Sustained training throughput in TFLOP/s (FP32-equivalent).
    pub compute_tflops: f64,
    /// Host↔GPU (PCIe) bandwidth in GB/s, the offloading bottleneck.
    pub pcie_gbps: f64,
    /// Network bandwidth to the parameter server in Mbit/s (the symmetric
    /// legacy figure; `link` carries the asymmetric up/down split).
    pub network_mbps: f64,
    /// Asymmetric last-mile link. Defaults to a symmetric link at
    /// `network_mbps`, which reproduces the legacy cost model exactly.
    pub link: LinkProfile,
    /// Fraction of GPU memory usable for expert parameters after activations,
    /// optimizer state and the frozen backbone are accounted for.
    pub memory_utilization: f64,
    /// Per-round compute deadline in seconds used to derive `B_tune_i`.
    pub round_deadline_s: f64,
}

impl DeviceProfile {
    /// Creates a profile; utilization and deadline get sensible defaults.
    pub fn new(
        name: &str,
        gpu_memory_gb: f64,
        compute_tflops: f64,
        pcie_gbps: f64,
        network_mbps: f64,
    ) -> Self {
        Self {
            name: name.to_string(),
            gpu_memory_gb,
            compute_tflops,
            pcie_gbps,
            network_mbps,
            link: LinkProfile::symmetric(network_mbps),
            memory_utilization: 0.6,
            round_deadline_s: 120.0,
        }
    }

    /// Overrides the per-round compute deadline.
    pub fn with_round_deadline(mut self, seconds: f64) -> Self {
        self.round_deadline_s = seconds;
        self
    }

    /// Overrides the last-mile link profile.
    pub fn with_link(mut self, link: LinkProfile) -> Self {
        self.link = link;
        self
    }

    /// Maximum number of experts of the *reference* (full-scale) model that
    /// fit in GPU memory: the paper's `B_i`.
    ///
    /// Derived against the full-scale model the scaled config stands in for,
    /// so budgets are in the same regime as the paper (a 12 GB card holds a
    /// fraction of LLaMA-MoE's 512 experts, not all of them).
    pub fn expert_capacity(&self, config: &MoeConfig) -> usize {
        let usable_bytes = self.gpu_memory_gb * 1e9 * self.memory_utilization;
        // Scale the simulated expert size up to the full model's expert size:
        // LLaMA-MoE has ~13.48 GB over 512 experts plus backbone. We model the
        // reference expert as occupying a fixed share of the reference model.
        let reference_expert_bytes = Self::reference_expert_bytes(config);
        let backbone_bytes = Self::reference_backbone_bytes(config);
        let left = (usable_bytes - backbone_bytes).max(0.0);
        let capacity = (left / reference_expert_bytes).floor() as usize;
        capacity.min(config.total_experts()).max(1)
    }

    /// Maximum number of experts that can be *tuned* within the round
    /// deadline: the paper's `B_tune_i`.
    ///
    /// Tuning an expert costs roughly 3× its forward FLOPs (forward +
    /// backward + update) over the local batch.
    pub fn tuning_capacity(&self, config: &MoeConfig, tokens_per_round: usize) -> usize {
        let flops_per_expert_token = 2.0 * Self::reference_expert_params(config) as f64;
        let tune_flops_per_expert = 3.0 * flops_per_expert_token * tokens_per_round as f64;
        let budget_flops = self.compute_tflops * 1e12 * self.round_deadline_s;
        let capacity = (budget_flops / tune_flops_per_expert).floor() as usize;
        capacity.clamp(1, self.expert_capacity(config))
    }

    /// Parameter count of one expert of the full-scale model this config
    /// represents.
    ///
    /// Derived from the config's `reference_size_gb` (the checkpoint size of
    /// the real model it stands in for, e.g. 13.48 GB for LLaMA-MoE) and the
    /// expert parameter share, divided by the expert count. Anchoring on the
    /// reference checkpoint keeps the paper's resource constraints (a
    /// consumer GPU holds only a fraction of the experts) even when the
    /// simulated widths are tiny.
    fn reference_expert_params(config: &MoeConfig) -> usize {
        (Self::reference_expert_bytes(config) / 2.0) as usize
    }

    /// Bytes of one reference expert in FP16 (how checkpoints are stored).
    fn reference_expert_bytes(config: &MoeConfig) -> f64 {
        let total_bytes = config.reference_size_gb as f64 * 1e9;
        let expert_fraction = config.expert_param_fraction() as f64;
        total_bytes * expert_fraction / config.total_experts().max(1) as f64
    }

    /// Bytes of the reference model's non-expert backbone in FP16.
    fn reference_backbone_bytes(config: &MoeConfig) -> f64 {
        let total_bytes = config.reference_size_gb as f64 * 1e9;
        let expert_fraction = config.expert_param_fraction() as f64;
        total_bytes * (1.0 - expert_fraction)
    }

    /// Bytes of the reference backbone, exposed for the cost model.
    pub fn backbone_bytes(config: &MoeConfig) -> f64 {
        Self::reference_backbone_bytes(config)
    }

    /// Bytes of one reference expert, exposed for the cost model.
    pub fn expert_bytes(config: &MoeConfig) -> f64 {
        Self::reference_expert_bytes(config)
    }
}

/// Builds a heterogeneous fleet of device profiles.
///
/// Classes are sampled with weights biased toward mid-range consumer cards,
/// reflecting the paper's "consumer-grade GPUs" setting.
pub fn sample_fleet(n: usize, rng: &mut SeededRng) -> Vec<DeviceProfile> {
    let classes = [
        DeviceClass::Consumer8G,
        DeviceClass::Consumer12G,
        DeviceClass::Consumer16G,
        DeviceClass::Prosumer24G,
    ];
    let weights = [0.25f32, 0.35, 0.25, 0.15];
    (0..n)
        .map(|i| {
            let class = classes[rng.weighted_index(&weights)];
            let mut profile = class.profile();
            profile.name = format!("{}-{i}", profile.name);
            profile
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_profiles_are_ordered_by_memory() {
        let mems: Vec<f64> = DeviceClass::all()
            .iter()
            .map(|c| c.profile().gpu_memory_gb)
            .collect();
        assert!(mems.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn expert_capacity_grows_with_memory() {
        let cfg = MoeConfig::llama_moe_sim();
        let small = DeviceClass::Consumer8G.profile().expert_capacity(&cfg);
        let big = DeviceClass::ServerL20.profile().expert_capacity(&cfg);
        assert!(small < big, "small {small} big {big}");
        assert!(small >= 1);
        assert!(big <= cfg.total_experts());
    }

    #[test]
    fn consumer_cards_cannot_hold_the_full_model() {
        // The motivating constraint of the paper: a consumer GPU cannot hold
        // every expert of an MoE LLM.
        let cfg = MoeConfig::llama_moe_sim();
        for class in [
            DeviceClass::Consumer8G,
            DeviceClass::Consumer12G,
            DeviceClass::Consumer16G,
        ] {
            let cap = class.profile().expert_capacity(&cfg);
            assert!(
                cap < cfg.total_experts(),
                "{class:?} holds {cap} of {} experts",
                cfg.total_experts()
            );
        }
    }

    #[test]
    fn tuning_capacity_at_most_memory_capacity() {
        let cfg = MoeConfig::deepseek_moe_sim();
        for class in DeviceClass::all() {
            let p = class.profile();
            let b = p.expert_capacity(&cfg);
            let bt = p.tuning_capacity(&cfg, 2000);
            assert!(bt <= b, "{class:?}: tune {bt} > mem {b}");
            assert!(bt >= 1);
        }
    }

    #[test]
    fn tuning_capacity_decreases_with_more_tokens() {
        let cfg = MoeConfig::llama_moe_sim();
        let p = DeviceClass::Consumer12G.profile();
        assert!(p.tuning_capacity(&cfg, 500) >= p.tuning_capacity(&cfg, 50_000));
    }

    #[test]
    fn longer_deadline_allows_more_tuning() {
        let cfg = MoeConfig::llama_moe_sim();
        let short = DeviceClass::Consumer12G.profile().with_round_deadline(30.0);
        let long = DeviceClass::Consumer12G
            .profile()
            .with_round_deadline(600.0);
        assert!(long.tuning_capacity(&cfg, 5000) >= short.tuning_capacity(&cfg, 5000));
    }

    #[test]
    fn default_link_is_symmetric_at_network_mbps() {
        for class in DeviceClass::all() {
            let p = class.profile();
            assert_eq!(p.link, LinkProfile::symmetric(p.network_mbps));
            assert_eq!(p.link.uplink_mbps, p.network_mbps);
            assert_eq!(p.link.downlink_mbps, p.network_mbps);
        }
    }

    #[test]
    fn link_presets_order_by_uplink_and_skew_upward() {
        let (g3, g4, wifi) = (
            LinkProfile::three_g(),
            LinkProfile::four_g(),
            LinkProfile::wifi(),
        );
        assert!(g3.uplink_mbps < g4.uplink_mbps);
        assert!(g4.uplink_mbps < wifi.uplink_mbps);
        // Every preset is uplink-constrained — the paper's bottleneck.
        for link in [g3, g4, wifi] {
            assert!(link.uplink_mbps < link.downlink_mbps);
        }
    }

    #[test]
    fn with_link_overrides_only_the_link() {
        let base = DeviceClass::Consumer12G.profile();
        let cellular = base.clone().with_link(LinkProfile::three_g());
        assert_eq!(cellular.link, LinkProfile::three_g());
        assert_eq!(cellular.network_mbps, base.network_mbps);
        assert_eq!(cellular.compute_tflops, base.compute_tflops);
    }

    #[test]
    fn fleet_is_heterogeneous_and_deterministic() {
        let mut rng = SeededRng::new(1);
        let fleet = sample_fleet(20, &mut rng);
        assert_eq!(fleet.len(), 20);
        let distinct: std::collections::HashSet<u64> =
            fleet.iter().map(|p| p.gpu_memory_gb.to_bits()).collect();
        assert!(distinct.len() > 1, "fleet should mix device classes");
        let fleet2 = sample_fleet(20, &mut SeededRng::new(1));
        assert_eq!(fleet, fleet2);
    }
}
