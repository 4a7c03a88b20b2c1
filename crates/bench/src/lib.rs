//! Experiment harness shared by the per-figure binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it, named after it (`fig10_…`, `table2_…`).
//! The binaries print plain-text tables with the same rows/series the paper
//! plots. Because the full paper-scale topologies (32×16 and 28×64 experts)
//! are slow to train on a single CPU core, every binary honours the
//! `FLUX_SCALE` environment variable:
//!
//! * `quick` (default) — tiny model topologies, small sample counts; every
//!   binary finishes in seconds to a few minutes.
//! * `standard` — the `small` 8-layer topology with more data; minutes each.
//! * `full` — the `llama_moe_sim` / `deepseek_moe_sim` presets with the
//!   paper's layer/expert counts; expect long runtimes.
//!
//! Any other non-empty value stops the binary with a message naming these
//! three.

use std::env;

use flux_core::driver::RunConfig;
use flux_data::DatasetKind;
use flux_moe::MoeConfig;

/// Experiment scale selected via the `FLUX_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smallest models and datasets; seconds per experiment.
    Quick,
    /// Medium models; minutes per experiment.
    Standard,
    /// Paper-topology models; hours for the convergence experiments.
    Full,
}

impl Scale {
    /// Reads the scale from the `FLUX_SCALE` environment variable
    /// (defaults to [`Scale::Quick`] when unset or empty).
    ///
    /// # Panics
    ///
    /// Panics on any other value than `quick`, `standard` or `full`, naming
    /// them: a misspelt scale must not silently run the quick one.
    pub fn from_env() -> Scale {
        parse_scale(&env::var("FLUX_SCALE").unwrap_or_default())
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Standard => "standard",
            Scale::Full => "full",
        }
    }
}

/// Parses a `FLUX_SCALE` value, case-insensitively; empty means quick.
fn parse_scale(value: &str) -> Result<Scale, String> {
    match value.to_lowercase().as_str() {
        "" | "quick" => Ok(Scale::Quick),
        "standard" => Ok(Scale::Standard),
        "full" => Ok(Scale::Full),
        _ => Err(format!(
            "FLUX_SCALE={value:?} is not a scale; use quick, standard or full"
        )),
    }
}

/// The LLaMA-MoE-like model configuration for a scale.
pub fn llama_config(scale: Scale) -> MoeConfig {
    match scale {
        Scale::Quick => MoeConfig::tiny(),
        Scale::Standard => MoeConfig::small(),
        Scale::Full => MoeConfig::llama_moe_sim(),
    }
}

/// The DeepSeek-MoE-like model configuration for a scale (more, smaller
/// experts per layer and top-4 routing, mirroring the architecture family).
pub fn deepseek_config(scale: Scale) -> MoeConfig {
    match scale {
        Scale::Quick => MoeConfig {
            name: "deepseek-tiny".to_string(),
            experts_per_layer: vec![16; 4],
            top_k: 4,
            reference_size_gb: 32.77,
            ..MoeConfig::tiny()
        },
        Scale::Standard => MoeConfig {
            name: "deepseek-small".to_string(),
            experts_per_layer: vec![32; 8],
            top_k: 4,
            reference_size_gb: 32.77,
            ..MoeConfig::small()
        },
        Scale::Full => MoeConfig::deepseek_moe_sim(),
    }
}

/// The run configuration used by the convergence / scalability experiments.
pub fn run_config(scale: Scale, model: MoeConfig, dataset: DatasetKind) -> RunConfig {
    match scale {
        Scale::Quick => RunConfig::quick_demo(model, dataset)
            .with_rounds(6)
            .with_participants(6),
        Scale::Standard => RunConfig::experiment(model, dataset),
        Scale::Full => {
            let mut cfg = RunConfig::experiment(model, dataset);
            cfg.num_samples = 400;
            cfg.rounds = 20;
            cfg.num_participants = 10;
            cfg
        }
    }
}

/// Prints a table header followed by a separator line.
pub fn print_header(title: &str, columns: &[&str]) {
    println!("\n=== {title} ===");
    println!("{}", columns.join("\t"));
    println!("{}", "-".repeat(columns.len() * 12));
}

/// Formats a float with three decimals for table output.
pub fn fmt(value: f64) -> String {
    format!("{value:.3}")
}

/// The base random seed shared by all experiments (reproducibility).
pub const EXPERIMENT_SEED: u64 = 20260614;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_is_quick() {
        // The test environment does not set FLUX_SCALE.
        if env::var("FLUX_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Quick);
        }
    }

    #[test]
    fn unknown_scales_are_refused_naming_the_accepted_ones() {
        assert_eq!(parse_scale(""), Ok(Scale::Quick));
        assert_eq!(parse_scale("quick"), Ok(Scale::Quick));
        assert_eq!(parse_scale("Standard"), Ok(Scale::Standard));
        assert_eq!(parse_scale("FULL"), Ok(Scale::Full));
        let err = parse_scale("paper").expect_err("there is no paper scale");
        for named in ["\"paper\"", "quick", "standard", "full"] {
            assert!(err.contains(named), "{err}");
        }
    }

    #[test]
    fn configs_reflect_architecture_families() {
        for scale in [Scale::Quick, Scale::Standard, Scale::Full] {
            let llama = llama_config(scale);
            let deepseek = deepseek_config(scale);
            assert!(deepseek.top_k >= llama.top_k);
            assert!(
                deepseek.experts_per_layer[0] >= llama.experts_per_layer[0],
                "DeepSeek family uses more experts per layer"
            );
            assert!(deepseek.reference_size_gb > llama.reference_size_gb);
        }
    }

    #[test]
    fn run_config_scales_are_ordered() {
        let quick = run_config(Scale::Quick, MoeConfig::tiny(), DatasetKind::Dolly);
        let full = run_config(Scale::Full, MoeConfig::tiny(), DatasetKind::Dolly);
        assert!(quick.num_samples <= full.num_samples);
        assert!(quick.rounds <= full.rounds);
    }

    #[test]
    fn fmt_rounds_to_three_decimals() {
        assert_eq!(fmt(1.23456), "1.235");
    }
}
