//! Analytic cost model converting work items into simulated seconds.
//!
//! The reproduction cannot measure wall-clock time on real GPUs, so every
//! phase of a federated round is priced analytically against the reference
//! (full-scale) model the scaled configuration stands in for. Constants are
//! chosen so the absolute magnitudes land in the same regime as the paper's
//! measurements (Fig. 1: one round over 60 Dolly samples costs ~60–400 s
//! depending on the number of tuned experts; Fig. 12/13: full runs take
//! hours), and — more importantly — so the *relative* costs that drive the
//! paper's conclusions hold:
//!
//! * fine-tuning cost grows with the number of tuning experts (Fig. 1);
//! * expert offloading over PCIe dominates FMD's round time;
//! * quantized profiling is far cheaper than full-precision fine-tuning and
//!   its cost shrinks with the bit width;
//! * communication grows with participants and with the number of uploaded
//!   expert updates.

use flux_moe::MoeConfig;
use flux_quant::BitWidth;

use crate::device::DeviceProfile;

/// Cost model for one participant device working on one model family.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// GPU utilization achieved by dense training kernels (fraction of peak).
    pub compute_efficiency: f64,
    /// Extra multiplier for the backward pass + optimizer relative to one
    /// forward pass (forward 1×, backward ≈ 2×).
    pub backward_multiplier: f64,
    /// Fraction of a full forward pass that the non-expert backbone
    /// (attention, norms, gating) costs per token.
    pub backbone_forward_fraction: f64,
    /// Fixed per-round scheduling / framework overhead in seconds.
    pub fixed_overhead_s: f64,
    /// Tokens per local mini-batch (the paper uses batch size 16).
    pub batch_tokens: usize,
    /// Framework + backbone seconds per mini-batch on the reference L20
    /// device (kernel launches, data loading, routing bookkeeping).
    pub seconds_per_batch: f64,
    /// Seconds per *tuning* expert per mini-batch on the reference device:
    /// gradient materialization, optimizer step and memory traffic for one
    /// expert module. This is the term that makes fine-tuning cost grow with
    /// the number of tuned experts (Fig. 1).
    pub seconds_per_tuning_expert_per_batch: f64,
    /// Effective fraction of peak PCIe bandwidth reached by expert swapping
    /// (small transfers + synchronization stalls).
    pub pcie_efficiency: f64,
    /// Seconds per expert for the K-Means-based merging pipeline when it
    /// clusters layer by layer. Merging clusters fused across layers,
    /// which divides this by `fused_speedup`.
    pub merge_seconds_per_expert: f64,
    /// Speed-up of cross-layer fused clustering over per-layer clustering.
    pub fused_speedup: f64,
    /// Seconds of server-side optimization per candidate expert during role
    /// assignment.
    pub assignment_seconds_per_expert: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            compute_efficiency: 0.35,
            backward_multiplier: 2.0,
            backbone_forward_fraction: 0.35,
            fixed_overhead_s: 2.0,
            batch_tokens: 768,
            seconds_per_batch: 12.0,
            seconds_per_tuning_expert_per_batch: 0.3,
            pcie_efficiency: 0.2,
            merge_seconds_per_expert: 0.02,
            fused_speedup: 40.0,
            assignment_seconds_per_expert: 0.002,
        }
    }
}

/// Per-phase breakdown of one participant's round, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundCostBreakdown {
    /// Quantization + profiling forward passes.
    pub profiling_s: f64,
    /// Expert clustering + merging.
    pub merging_s: f64,
    /// Expert role assignment (server optimization amortized per participant).
    pub assignment_s: f64,
    /// Local fine-tuning compute.
    pub fine_tuning_s: f64,
    /// Host↔GPU expert offloading traffic (FMD-style swapping).
    pub offloading_s: f64,
    /// Model update upload/download.
    pub communication_s: f64,
}

impl RoundCostBreakdown {
    /// Total seconds across phases.
    pub fn total_s(&self) -> f64 {
        self.profiling_s
            + self.merging_s
            + self.assignment_s
            + self.fine_tuning_s
            + self.offloading_s
            + self.communication_s
    }

    /// Adds another breakdown element-wise.
    pub fn add(&mut self, other: &RoundCostBreakdown) {
        self.profiling_s += other.profiling_s;
        self.merging_s += other.merging_s;
        self.assignment_s += other.assignment_s;
        self.fine_tuning_s += other.fine_tuning_s;
        self.offloading_s += other.offloading_s;
        self.communication_s += other.communication_s;
    }
}

impl CostModel {
    /// FLOPs of one reference expert processing one token (forward only).
    fn expert_forward_flops(config: &MoeConfig) -> f64 {
        // 2 FLOPs per multiply-accumulate over the expert's parameters.
        2.0 * DeviceProfile::expert_bytes(config) / 2.0
    }

    /// FLOPs of the backbone processing one token (forward only).
    fn backbone_forward_flops(&self, config: &MoeConfig) -> f64 {
        let experts_per_layer = config.experts_per_layer.first().copied().unwrap_or(1) as f64;
        // Backbone cost relative to the dense expert path of one layer.
        Self::expert_forward_flops(config)
            * config.top_k as f64
            * self.backbone_forward_fraction
            * config.num_layers as f64
            / experts_per_layer.max(1.0)
            + Self::expert_forward_flops(config) * self.backbone_forward_fraction
    }

    /// Effective FLOP/s of a device.
    fn effective_flops(&self, device: &DeviceProfile) -> f64 {
        device.compute_tflops * 1e12 * self.compute_efficiency
    }

    /// Seconds to run one full-precision forward pass over `tokens` tokens
    /// with `active_experts_per_token` experts active per token per layer.
    pub fn forward_time_s(
        &self,
        device: &DeviceProfile,
        config: &MoeConfig,
        tokens: usize,
        active_experts_per_token: usize,
    ) -> f64 {
        let per_token = self.backbone_forward_flops(config)
            + Self::expert_forward_flops(config)
                * active_experts_per_token as f64
                * config.num_layers as f64;
        per_token * tokens as f64 / self.effective_flops(device)
    }

    /// Speed factor of a device relative to the reference L20 on which the
    /// per-batch and per-expert constants were calibrated.
    fn speed_factor(&self, device: &DeviceProfile) -> f64 {
        60.0 / device.compute_tflops.max(1.0)
    }

    /// Relative size of this config's experts versus the LLaMA-MoE reference
    /// expert the constants were calibrated against.
    fn expert_scale(config: &MoeConfig) -> f64 {
        DeviceProfile::expert_bytes(config)
            / DeviceProfile::expert_bytes(&MoeConfig::llama_moe_sim())
    }

    /// Seconds to fine-tune `tuning_experts` experts over `tokens` tokens
    /// (forward + backward + update on the expert path; forward-only on the
    /// frozen backbone).
    ///
    /// The cost has three parts: a FLOP term for the dense math, a per-batch
    /// framework/backbone term, and a per-tuning-expert-per-batch term
    /// covering gradient materialization, optimizer steps and memory traffic
    /// for each trainable expert module. The last term is what makes cost
    /// grow with the number of tuned experts, reproducing Fig. 1.
    pub fn fine_tune_time_s(
        &self,
        device: &DeviceProfile,
        config: &MoeConfig,
        tokens: usize,
        tuning_experts: usize,
        resident_experts: usize,
    ) -> f64 {
        let resident = resident_experts.max(1) as f64;
        let tuned_fraction = (tuning_experts as f64 / resident).clamp(0.0, 1.0);
        let active = config.top_k as f64;
        let forward_flops = self.backbone_forward_flops(config)
            + Self::expert_forward_flops(config) * active * config.num_layers as f64;
        let backward_flops = Self::expert_forward_flops(config)
            * active
            * config.num_layers as f64
            * tuned_fraction
            * self.backward_multiplier
            + self.backbone_forward_flops(config);
        let flop_time =
            (forward_flops + backward_flops) * tokens as f64 / self.effective_flops(device);

        let batches = tokens.div_ceil(self.batch_tokens.max(1)) as f64;
        let speed = self.speed_factor(device);
        let layer_scale = config.num_layers as f64 / 32.0;
        let batch_time = self.seconds_per_batch * batches * speed * layer_scale;
        let expert_time = self.seconds_per_tuning_expert_per_batch
            * tuning_experts as f64
            * batches
            * speed
            * Self::expert_scale(config);
        self.fixed_overhead_s + flop_time + batch_time + expert_time
    }

    /// Seconds to quantize the local model copy at the given width.
    pub fn quantize_time_s(
        &self,
        device: &DeviceProfile,
        config: &MoeConfig,
        width: BitWidth,
    ) -> f64 {
        // Quantization streams every parameter once; cheaper widths write
        // fewer bytes but the dominant cost is the read + rounding pass.
        let bytes = DeviceProfile::expert_bytes(config) * config.total_experts() as f64
            + DeviceProfile::backbone_bytes(config);
        // The sweep rate tracks the device's compute class (faster cards
        // also have faster memory systems), anchored at 40 GB/s for the L20.
        let pass_rate = 40e9 * (device.compute_tflops / 60.0).clamp(0.1, 1.0);
        let width_factor = 1.0 + 0.1 * (8.0 / width.bits() as f64);
        self.fixed_overhead_s * 0.5 + bytes / pass_rate * width_factor
    }

    /// Seconds to run a profiling pass (forward-only, quantized) over
    /// `tokens` tokens.
    pub fn profile_time_s(
        &self,
        device: &DeviceProfile,
        config: &MoeConfig,
        tokens: usize,
        width: BitWidth,
    ) -> f64 {
        // Weight-only quantized inference speeds up roughly with the memory
        // traffic reduction, capped at 4× for very low widths.
        let speedup = (32.0f64 / width.bits() as f64).clamp(1.0, 4.0);
        self.forward_time_s(device, config, tokens, config.top_k) / speedup
    }

    /// Seconds spent swapping experts between host memory and the GPU.
    ///
    /// Each swap moves the expert in and its gradients/optimizer state out,
    /// at the effective (not peak) PCIe bandwidth small MoE transfers reach.
    pub fn offload_time_s(
        &self,
        device: &DeviceProfile,
        config: &MoeConfig,
        expert_swaps: usize,
    ) -> f64 {
        let bytes = DeviceProfile::expert_bytes(config) * expert_swaps as f64 * 2.0;
        bytes / (device.pcie_gbps * 1e9 * self.pcie_efficiency)
    }

    /// Bytes of a dense (uncompressed) upload of `expert_updates` reference
    /// expert tensors — the download of the refreshed experts is the same
    /// size, since the server ships them back dense.
    pub fn dense_upload_bytes(config: &MoeConfig, expert_updates: usize) -> f64 {
        DeviceProfile::expert_bytes(config) * expert_updates as f64
    }

    /// Seconds to move `upload_bytes` up and `download_bytes` down over the
    /// device's (possibly asymmetric) last-mile link.
    ///
    /// This is the byte-true core of the communication model: upload is
    /// priced from the *encoded* payload, so compression changes simulated
    /// time; download stays dense (the server ships refreshed experts at
    /// full precision).
    pub fn communication_time_s_bytes(
        &self,
        device: &DeviceProfile,
        upload_bytes: f64,
        download_bytes: f64,
    ) -> f64 {
        upload_bytes * 8.0 / (device.link.uplink_mbps * 1e6)
            + download_bytes * 8.0 / (device.link.downlink_mbps * 1e6)
    }

    /// Seconds to exchange `expert_updates` dense expert tensors (upload)
    /// plus the same amount of download with the parameter server.
    ///
    /// Convenience wrapper over [`CostModel::communication_time_s_bytes`]
    /// for the uncompressed path; on a symmetric link it reproduces the
    /// legacy expert-count pricing exactly.
    pub fn communication_time_s(
        &self,
        device: &DeviceProfile,
        config: &MoeConfig,
        expert_updates: usize,
    ) -> f64 {
        let bytes = Self::dense_upload_bytes(config, expert_updates);
        self.communication_time_s_bytes(device, bytes, bytes)
    }

    /// Seconds for the expert clustering + merging pipeline, clustering
    /// fused across layers.
    pub fn merge_time_s(&self, non_tuning_experts: usize) -> f64 {
        self.merge_seconds_per_expert * non_tuning_experts as f64 / self.fused_speedup
    }

    /// Seconds for the server-side role-assignment optimization, amortized
    /// per participant.
    pub fn assignment_time_s(&self, candidate_experts: usize) -> f64 {
        self.assignment_seconds_per_expert * candidate_experts as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceClass;

    fn setup() -> (CostModel, DeviceProfile, MoeConfig) {
        (
            CostModel::default(),
            DeviceClass::ServerL20.profile(),
            MoeConfig::llama_moe_sim(),
        )
    }

    #[test]
    fn fine_tune_cost_grows_with_tuning_experts() {
        let (cost, device, cfg) = setup();
        // Reproduce the shape of Fig. 1: cost grows markedly from 8 to 256
        // tuned experts.
        let tokens = 60 * 48; // 60 Dolly samples
        let t8 = cost.fine_tune_time_s(&device, &cfg, tokens, 8, 512);
        let t32 = cost.fine_tune_time_s(&device, &cfg, tokens, 32, 512);
        let t128 = cost.fine_tune_time_s(&device, &cfg, tokens, 128, 512);
        let t256 = cost.fine_tune_time_s(&device, &cfg, tokens, 256, 512);
        assert!(t8 < t32 && t32 < t128 && t128 < t256);
        assert!(t256 / t8 > 2.0, "expected clear growth: {t8} -> {t256}");
    }

    #[test]
    fn fine_tune_cost_in_paper_regime() {
        // Fig. 1 reports 62–395 s for 8–256 experts on an L20 with 60 samples.
        let (cost, device, cfg) = setup();
        let tokens = 60 * 48;
        let t8 = cost.fine_tune_time_s(&device, &cfg, tokens, 8, 512);
        let t256 = cost.fine_tune_time_s(&device, &cfg, tokens, 256, 512);
        assert!(t8 > 20.0 && t8 < 200.0, "t8 = {t8}");
        assert!(t256 > 150.0 && t256 < 1200.0, "t256 = {t256}");
        // Overall growth factor in the same ballpark as the paper's ~6×.
        let ratio = t256 / t8;
        assert!((3.0..12.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn profiling_cheaper_than_fine_tuning_and_scales_with_width() {
        let (cost, device, cfg) = setup();
        let tokens = 4000;
        let tune = cost.fine_tune_time_s(&device, &cfg, tokens, 64, 512);
        let p2 = cost.profile_time_s(&device, &cfg, tokens, BitWidth::Int2);
        let p4 = cost.profile_time_s(&device, &cfg, tokens, BitWidth::Int4);
        let p8 = cost.profile_time_s(&device, &cfg, tokens, BitWidth::Int8);
        assert!(p2 <= p4 && p4 <= p8);
        assert!(
            p8 < tune,
            "profiling {p8} should be cheaper than tuning {tune}"
        );
    }

    #[test]
    fn offloading_slower_on_weaker_pcie() {
        let cost = CostModel::default();
        let cfg = MoeConfig::llama_moe_sim();
        let fast = DeviceClass::ServerL20.profile();
        let slow = DeviceClass::Consumer8G.profile();
        assert!(cost.offload_time_s(&slow, &cfg, 100) > cost.offload_time_s(&fast, &cfg, 100));
        assert_eq!(cost.offload_time_s(&fast, &cfg, 0), 0.0);
    }

    #[test]
    fn offloading_adds_substantial_time_for_swap_heavy_rounds() {
        // FMD swaps experts in and out for every batch; a round that streams
        // a large share of the 512-expert pool several times adds tens of
        // seconds on a consumer PCIe link.
        let (cost, _, cfg) = setup();
        let device = DeviceClass::Consumer12G.profile();
        let offload = cost.offload_time_s(&device, &cfg, 512 * 4);
        assert!(offload > 10.0, "offload = {offload}");
    }

    #[test]
    fn communication_scales_with_updates_and_bandwidth() {
        let cost = CostModel::default();
        let cfg = MoeConfig::llama_moe_sim();
        let fast = DeviceClass::Prosumer24G.profile();
        let slow = DeviceClass::Consumer8G.profile();
        assert!(
            cost.communication_time_s(&slow, &cfg, 32) > cost.communication_time_s(&fast, &cfg, 32)
        );
        assert!(
            cost.communication_time_s(&fast, &cfg, 64) > cost.communication_time_s(&fast, &cfg, 16)
        );
    }

    #[test]
    fn communication_time_is_byte_based() {
        // Regression test for the expert-count proxy: time must scale
        // exactly linearly with payload bytes on each direction of the
        // link, independent of how many experts those bytes came from.
        let cost = CostModel::default();
        let device = DeviceClass::Consumer12G
            .profile()
            .with_link(crate::device::LinkProfile::three_g());
        let up_only = cost.communication_time_s_bytes(&device, 1e6, 0.0);
        let down_only = cost.communication_time_s_bytes(&device, 0.0, 1e6);
        assert!((cost.communication_time_s_bytes(&device, 2e6, 0.0) - 2.0 * up_only).abs() < 1e-9);
        assert!(
            (cost.communication_time_s_bytes(&device, 1e6, 1e6) - (up_only + down_only)).abs()
                < 1e-9
        );
        // The asymmetric 3G link prices uplink bytes ~7.2× dearer.
        assert!((up_only / down_only - 7.2).abs() < 1e-6);
        // Halving upload bytes (e.g. int8→int4 levels) halves only the
        // upload term, leaving the dense download term untouched.
        let full = cost.communication_time_s_bytes(&device, 4e6, 4e6);
        let compressed = cost.communication_time_s_bytes(&device, 5e5, 4e6);
        assert!((full - compressed - 3.5e6 * 8.0 / (1.0 * 1e6)).abs() < 1e-6);
    }

    #[test]
    fn legacy_wrapper_matches_byte_form_on_symmetric_links() {
        let (cost, device, cfg) = setup();
        let bytes = CostModel::dense_upload_bytes(&cfg, 32);
        assert_eq!(
            cost.communication_time_s(&device, &cfg, 32),
            cost.communication_time_s_bytes(&device, bytes, bytes)
        );
    }

    #[test]
    fn link_profiles_order_round_communication() {
        // Satellite check: 3G < 4G < WiFi in round-communication throughput,
        // i.e. the same round payload takes strictly longer on each slower
        // link.
        let cost = CostModel::default();
        let cfg = MoeConfig::llama_moe_sim();
        let base = DeviceClass::Consumer12G.profile();
        let times: Vec<f64> = [
            crate::device::LinkProfile::three_g(),
            crate::device::LinkProfile::four_g(),
            crate::device::LinkProfile::wifi(),
        ]
        .into_iter()
        .map(|link| {
            let device = base.clone().with_link(link);
            let bytes = CostModel::dense_upload_bytes(&cfg, 32);
            cost.communication_time_s_bytes(&device, bytes, bytes)
        })
        .collect();
        assert!(
            times[0] > times[1] && times[1] > times[2],
            "3G {} 4G {} WiFi {}",
            times[0],
            times[1],
            times[2]
        );
    }

    #[test]
    fn compressed_upload_ratio_matches_bit_width_and_sparsity() {
        // Satellite check: with the dense download held fixed, shrinking the
        // upload payload by the configured width/sparsity factor shrinks
        // the upload *term* by exactly that factor.
        let cost = CostModel::default();
        let cfg = MoeConfig::llama_moe_sim();
        let device = DeviceClass::Consumer12G
            .profile()
            .with_link(crate::device::LinkProfile::three_g());
        let dense = CostModel::dense_upload_bytes(&cfg, 32);
        let download = cost.communication_time_s_bytes(&device, 0.0, dense);
        for factor in [8.0f64, 16.0] {
            // int4 ≈ 8× fewer payload bytes; int4 + 50% top-k ≈ 16×.
            let t_dense = cost.communication_time_s_bytes(&device, dense, dense);
            let t_comp = cost.communication_time_s_bytes(&device, dense / factor, dense);
            let upload_ratio = (t_dense - download) / (t_comp - download);
            assert!(
                (upload_ratio - factor).abs() < 1e-6,
                "factor {factor}: got {upload_ratio}"
            );
        }
    }

    #[test]
    fn fused_merging_is_much_faster() {
        let cost = CostModel::default();
        let layered = cost.merge_seconds_per_expert * 128.0;
        let fused = cost.merge_time_s(128);
        assert!(layered / fused > 10.0, "fusion should give a large speedup");
    }

    #[test]
    fn quantize_time_reasonable_and_width_sensitive() {
        let (cost, device, cfg) = setup();
        let q2 = cost.quantize_time_s(&device, &cfg, BitWidth::Int2);
        let q8 = cost.quantize_time_s(&device, &cfg, BitWidth::Int8);
        assert!(q2 > 0.0 && q8 > 0.0);
        assert!(q2 >= q8, "lower widths pay a little more rounding work");
        assert!(q2 < 60.0, "quantization should take seconds, got {q2}");
    }

    #[test]
    fn breakdown_totals_and_adds() {
        let mut a = RoundCostBreakdown {
            profiling_s: 1.0,
            merging_s: 2.0,
            assignment_s: 3.0,
            fine_tuning_s: 4.0,
            offloading_s: 5.0,
            communication_s: 6.0,
        };
        assert_eq!(a.total_s(), 21.0);
        let b = a;
        a.add(&b);
        assert_eq!(a.total_s(), 42.0);
    }

    #[test]
    fn assignment_time_is_small() {
        let cost = CostModel::default();
        assert!(cost.assignment_time_s(512) < 2.0);
    }
}
