//! Model configurations: scaled presets and the full-scale catalog.

/// Configuration of an MoE transformer.
///
/// Two families of configurations exist:
///
/// * **scaled presets** ([`MoeConfig::llama_moe_sim`],
///   [`MoeConfig::deepseek_moe_sim`], [`MoeConfig::tiny`]) that are actually
///   instantiated and trained in the experiments, and
/// * **catalog entries** ([`ModelCatalogEntry`]) that reproduce the paper's
///   Table 1 by parameter accounting only.
#[derive(Debug, Clone, PartialEq)]
pub struct MoeConfig {
    /// Human-readable model name.
    pub name: String,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Hidden dimension (embedding width).
    pub d_model: usize,
    /// Expert feed-forward inner dimension.
    pub d_ff: usize,
    /// Number of transformer layers (each carries one MoE FFN).
    pub num_layers: usize,
    /// Number of experts in each layer. Uniform for the pristine model;
    /// customized (per-layer) after expert merging.
    pub experts_per_layer: Vec<usize>,
    /// Number of experts each token is routed to.
    pub top_k: usize,
    /// Attention heads (used for parameter accounting; the scaled model
    /// computes single-head attention of width `d_model`).
    pub num_heads: usize,
    /// Number of classification classes; `None` means a generation head over
    /// the vocabulary is used instead.
    pub num_classes: Option<usize>,
    /// Maximum sequence length for positional encoding.
    pub max_seq_len: usize,
    /// Checkpoint size (in GB, FP16) of the full-scale model this scaled
    /// configuration stands in for. Device capacities and the cost model are
    /// derived against this reference so the paper's resource constraints
    /// hold even though the simulated widths are tiny.
    pub reference_size_gb: f32,
}

impl MoeConfig {
    /// Scaled-down LLaMA-MoE: 32 layers × 16 experts, top-2 routing.
    ///
    /// Mirrors the topology of LLaMA-MoE-3.5B (the paper's first target
    /// model) at a width that trains on a CPU in seconds.
    pub fn llama_moe_sim() -> Self {
        Self {
            name: "llama-moe-sim".to_string(),
            vocab_size: 256,
            d_model: 48,
            d_ff: 96,
            num_layers: 32,
            experts_per_layer: vec![16; 32],
            top_k: 2,
            num_heads: 4,
            num_classes: None,
            max_seq_len: 128,
            reference_size_gb: 13.48,
        }
    }

    /// Scaled-down DeepSeek-MoE: 28 layers × 64 experts, top-4 routing.
    pub fn deepseek_moe_sim() -> Self {
        Self {
            name: "deepseek-moe-sim".to_string(),
            vocab_size: 256,
            d_model: 32,
            d_ff: 64,
            num_layers: 28,
            experts_per_layer: vec![64; 28],
            top_k: 4,
            num_heads: 4,
            num_classes: None,
            max_seq_len: 128,
            reference_size_gb: 32.77,
        }
    }

    /// A very small model for unit tests and quick examples: 4 layers × 8
    /// experts.
    pub fn tiny() -> Self {
        Self {
            name: "tiny-moe".to_string(),
            vocab_size: 64,
            d_model: 16,
            d_ff: 32,
            num_layers: 4,
            experts_per_layer: vec![8; 4],
            top_k: 2,
            num_heads: 2,
            num_classes: None,
            max_seq_len: 64,
            reference_size_gb: 13.48,
        }
    }

    /// A small-but-not-trivial model used by the medium-cost experiments:
    /// 8 layers × 16 experts.
    pub fn small() -> Self {
        Self {
            name: "small-moe".to_string(),
            vocab_size: 128,
            d_model: 32,
            d_ff: 64,
            num_layers: 8,
            experts_per_layer: vec![16; 8],
            top_k: 2,
            num_heads: 2,
            num_classes: None,
            max_seq_len: 96,
            reference_size_gb: 13.48,
        }
    }

    /// Sets a classification head with the given number of classes.
    pub fn with_classes(mut self, num_classes: usize) -> Self {
        self.num_classes = Some(num_classes);
        self
    }

    /// Replaces the per-layer expert counts (customized MoE construction,
    /// the analogue of the paper's `Flux.moe.customized_moe` API).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from `num_layers` or any layer has zero
    /// experts.
    pub fn with_experts_per_layer(mut self, experts: Vec<usize>) -> Self {
        assert_eq!(
            experts.len(),
            self.num_layers,
            "expert list must cover every layer"
        );
        assert!(experts.iter().all(|&e| e > 0), "layers need >= 1 expert");
        self.experts_per_layer = experts;
        self
    }

    /// Scales the number of layers (keeping per-layer expert counts uniform
    /// at the first layer's count). Used by the Fig. 1 cost sweep.
    pub fn with_num_layers(mut self, layers: usize) -> Self {
        let per_layer = self.experts_per_layer.first().copied().unwrap_or(1);
        self.num_layers = layers;
        self.experts_per_layer = vec![per_layer; layers];
        self
    }

    /// Total number of experts across layers.
    pub fn total_experts(&self) -> usize {
        self.experts_per_layer.iter().sum()
    }

    /// Number of experts in one layer.
    ///
    /// # Panics
    ///
    /// Panics if `layer >= num_layers`.
    pub fn experts_in_layer(&self, layer: usize) -> usize {
        self.experts_per_layer[layer]
    }

    /// Parameters of a single expert (two projection matrices plus biases).
    pub fn params_per_expert(&self) -> usize {
        self.d_model * self.d_ff + self.d_ff + self.d_ff * self.d_model + self.d_model
    }

    /// Parameters of one layer's attention block (Q, K, V, O projections).
    pub fn params_per_attention(&self) -> usize {
        4 * self.d_model * self.d_model
    }

    /// Parameters of one layer's gate.
    pub fn params_per_gate(&self, layer: usize) -> usize {
        self.d_model * self.experts_in_layer(layer)
    }

    /// Total parameter count (embedding + per-layer blocks + output head).
    pub fn total_params(&self) -> usize {
        let embedding = self.vocab_size * self.d_model;
        let head = match self.num_classes {
            Some(c) => self.d_model * c,
            None => self.d_model * self.vocab_size,
        };
        let mut total = embedding + head;
        for layer in 0..self.num_layers {
            total += self.params_per_attention();
            total += self.params_per_gate(layer);
            total += self.experts_in_layer(layer) * self.params_per_expert();
        }
        total
    }

    /// Fraction of parameters that live in experts. The paper notes experts
    /// account for more than two thirds of MoE models; the presets preserve
    /// that property.
    pub fn expert_param_fraction(&self) -> f32 {
        let expert_params: usize = (0..self.num_layers)
            .map(|l| self.experts_in_layer(l) * self.params_per_expert())
            .sum();
        expert_params as f32 / self.total_params() as f32
    }

    /// FP32 size in bytes of the whole model.
    pub fn model_bytes(&self) -> usize {
        self.total_params() * 4
    }

    /// FP32 size in bytes of a single expert.
    pub fn expert_bytes(&self) -> usize {
        self.params_per_expert() * 4
    }
}

/// One row of the paper's Table 1: a real MoE LLM described by its topology
/// and published parameter count.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCatalogEntry {
    /// Model name as listed in the paper.
    pub name: &'static str,
    /// Number of MoE layers.
    pub num_layers: usize,
    /// Experts per MoE layer.
    pub experts_per_layer: usize,
    /// Published total parameter count (billions).
    pub params_billions: f32,
}

impl ModelCatalogEntry {
    /// The five models of the paper's Table 1.
    pub fn paper_table1() -> Vec<ModelCatalogEntry> {
        vec![
            ModelCatalogEntry {
                name: "LLaMA-MoE",
                num_layers: 32,
                experts_per_layer: 16,
                params_billions: 6.7,
            },
            ModelCatalogEntry {
                name: "DeepSeek-MoE",
                num_layers: 28,
                experts_per_layer: 64,
                params_billions: 16.4,
            },
            ModelCatalogEntry {
                name: "DeepSeek-v2-lite",
                num_layers: 27,
                experts_per_layer: 64,
                params_billions: 15.7,
            },
            ModelCatalogEntry {
                name: "Mixtral-8x7B",
                num_layers: 64,
                experts_per_layer: 8,
                params_billions: 46.7,
            },
            ModelCatalogEntry {
                name: "Qwen2-MoE",
                num_layers: 28,
                experts_per_layer: 64,
                params_billions: 57.4,
            },
        ]
    }

    /// FP16 checkpoint size in gigabytes (2 bytes per parameter), the "Size"
    /// column of Table 1.
    pub fn size_gb(&self) -> f32 {
        self.params_billions * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_mirror_paper_topology() {
        let llama = MoeConfig::llama_moe_sim();
        assert_eq!(llama.num_layers, 32);
        assert!(llama.experts_per_layer.iter().all(|&e| e == 16));
        let deepseek = MoeConfig::deepseek_moe_sim();
        assert_eq!(deepseek.num_layers, 28);
        assert!(deepseek.experts_per_layer.iter().all(|&e| e == 64));
    }

    #[test]
    fn expert_fraction_dominates() {
        // The paper: experts are more than two thirds of the parameters.
        for cfg in [MoeConfig::llama_moe_sim(), MoeConfig::deepseek_moe_sim()] {
            assert!(
                cfg.expert_param_fraction() > 2.0 / 3.0,
                "{} fraction {}",
                cfg.name,
                cfg.expert_param_fraction()
            );
        }
    }

    #[test]
    fn custom_expert_layout() {
        let cfg = MoeConfig::tiny().with_experts_per_layer(vec![8, 4, 2, 1]);
        assert_eq!(cfg.total_experts(), 15);
        assert_eq!(cfg.experts_in_layer(3), 1);
    }

    #[test]
    #[should_panic(expected = "every layer")]
    fn custom_expert_layout_wrong_len_panics() {
        MoeConfig::tiny().with_experts_per_layer(vec![8, 4]);
    }

    #[test]
    #[should_panic(expected = ">= 1 expert")]
    fn custom_expert_layout_zero_panics() {
        MoeConfig::tiny().with_experts_per_layer(vec![8, 4, 0, 1]);
    }

    #[test]
    fn total_params_consistent_with_pieces() {
        let cfg = MoeConfig::tiny();
        let per_layer =
            cfg.params_per_attention() + cfg.params_per_gate(0) + 8 * cfg.params_per_expert();
        let expected = cfg.vocab_size * cfg.d_model + cfg.d_model * cfg.vocab_size + 4 * per_layer;
        assert_eq!(cfg.total_params(), expected);
    }

    #[test]
    fn with_classes_changes_head_size() {
        let gen = MoeConfig::tiny();
        let cls = MoeConfig::tiny().with_classes(4);
        assert!(cls.total_params() < gen.total_params());
        assert_eq!(cls.num_classes, Some(4));
    }

    #[test]
    fn with_num_layers_rescales() {
        let cfg = MoeConfig::small().with_num_layers(2);
        assert_eq!(cfg.num_layers, 2);
        assert_eq!(cfg.experts_per_layer, vec![16, 16]);
    }

    #[test]
    fn catalog_matches_paper_table1() {
        let catalog = ModelCatalogEntry::paper_table1();
        assert_eq!(catalog.len(), 5);
        let llama = &catalog[0];
        assert_eq!(llama.num_layers, 32);
        assert_eq!(llama.experts_per_layer, 16);
        // Paper: 6.7B parameters, 13.48 GB checkpoint.
        assert!((llama.size_gb() - 13.4).abs() < 0.2);
        let qwen = &catalog[4];
        assert!((qwen.size_gb() - 114.8).abs() < 3.0);
    }

    #[test]
    fn byte_accounting() {
        let cfg = MoeConfig::tiny();
        assert_eq!(cfg.model_bytes(), cfg.total_params() * 4);
        assert_eq!(cfg.expert_bytes(), cfg.params_per_expert() * 4);
    }
}
