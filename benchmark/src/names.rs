//! Every metric the benchmark reports, by name, with its unit, direction
//! and bound. `BENCHMARK.json` lists the same names; a unit test keeps the
//! two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
    /// A count that has no better direction.
    Neither,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The median may get worse by this share of the parent's median.
    Share(f64),
    /// A pure function of the seed: two runs of one commit read the same.
    Exact,
    /// Reported, never gated.
    None,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
}

const fn metric(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower, Neither};
use Bound::{Exact, Share};

/// The twelve end-to-end metrics, the same on every workload. Three times
/// the largest interquartile spread this host showed over ten seeds exceeds
/// 25 % for every timing but `setup_s` (which is to carry the largest bound),
/// so every share is the 25 % the acceptance contract caps a bound at (see
/// `benchmark/README.md`) — not what one would wish for.
pub const END_TO_END: [Metric; 12] = [
    metric("setup_s", "s", Lower, Share(0.25)),
    metric("run_wall_s", "s", Lower, Share(0.25)),
    metric("tokens_per_s", "tok/s", Higher, Share(0.25)),
    metric("round_ms_p50", "ms", Lower, Share(0.25)),
    metric("round_ms_p90", "ms", Lower, Share(0.25)),
    metric("cpu_s_per_run", "s", Lower, Share(0.25)),
    metric("peak_rss_mb", "MB", Lower, Share(0.25)),
    metric("upload_mb", "MB", Lower, Exact),
    metric("sim_total_h", "h", Lower, Exact),
    metric("final_score", "score", Higher, Exact),
    metric("ops_attempted", "count", Neither, Exact),
    metric("failed_share", "ratio", Lower, Exact),
];

/// The end-to-end metrics the acceptance driver gates (`end_to_end` in
/// `BENCHMARK.json`, printed by `--trace 0`) are those with a share bound:
/// never zero, and steady from seed to seed. The exact ones are functions of
/// the seed (some of them zero on four workloads); they are printed with
/// `--trace 1` and compared for equality by `benchmark compare`.
pub fn is_gated(name: &str) -> bool {
    END_TO_END
        .iter()
        .any(|m| m.name == name && matches!(m.bound, Share(_)))
}

/// Names of the gated end-to-end metrics, in `END_TO_END` order.
pub fn gated() -> impl Iterator<Item = &'static str> {
    END_TO_END
        .iter()
        .map(|m| m.name)
        .filter(|name| is_gated(name))
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    metric(name, unit, better, Bound::None)
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Metric {
    metric(name, unit, better, Exact)
}

/// Per-layer metrics, named after this repository's modules. A metric
/// reads 0 on a workload where its layer does not run.
pub const PER_LAYER: [Metric; 57] = [
    layer("tensor.gemm_gflops", "GFLOP/s", Higher),
    layer("tensor.gemm_peak_share", "ratio", Higher),
    layer("tensor.kmeans_ms", "ms", Lower),
    layer("tensor.pca_ms", "ms", Lower),
    layer("tensor.scratch_misses", "count", Lower),
    layer("quant.quantize_model_ms", "ms", Lower),
    layer("quant.qmatmul_gops", "Gop/s", Higher),
    layer("data.generate_ms", "ms", Lower),
    layer("data.stream_batch_us", "us", Lower),
    layer("moe.fwd_ms", "ms", Lower),
    layer("moe.bwd_ms", "ms", Lower),
    layer("moe.apply_ms", "ms", Lower),
    layer("moe.attention_share", "ratio", Lower),
    layer("moe.eval_ms", "ms", Lower),
    layer("metrics.score_us", "us", Lower),
    layer("core.profiling.profile_ms", "ms", Lower),
    count("core.profiling.quant_cache_hits", "count", Higher),
    count("core.profiling.quant_cache_misses", "count", Lower),
    layer("core.assignment.assign_us", "us", Lower),
    layer("core.assignment.spsa_ms", "ms", Lower),
    layer("core.merging.build_ms", "ms", Lower),
    layer("core.merging.apply_ms", "ms", Lower),
    count("core.merging.compact_experts", "count", Lower),
    layer("core.baselines.local_train_ms", "ms", Lower),
    layer("core.cohort.sample_us", "us", Lower),
    layer("fl.participant.registry_build_ms", "ms", Lower),
    layer("fl.participant.materialize_us", "us", Lower),
    layer("fl.compress.encode_ms", "ms", Lower),
    layer("fl.compress.decode_ms", "ms", Lower),
    count("fl.compress.byte_ratio", "ratio", Higher),
    layer("fl.aggregate.submit_us", "us", Lower),
    layer("fl.aggregate.collapse_ms", "ms", Lower),
    layer("fl.aggregate.finalize_ms", "ms", Lower),
    layer("fl.store.apply_round_ms", "ms", Lower),
    layer("fl.store.snapshot_ms", "ms", Lower),
    layer("fl.snapshot.ckpt_full_ms", "ms", Lower),
    layer("fl.snapshot.ckpt_incr_ms", "ms", Lower),
    count("fl.snapshot.ckpt_incr_bytes", "B", Lower),
    layer("fl.snapshot.load_ms", "ms", Lower),
    layer("core.recovery.checkpoint_ms", "ms", Lower),
    layer("core.recovery.midround_ckpt_ms", "ms", Lower),
    layer("core.recovery.restore_ms", "ms", Lower),
    count("fl.fault.retried", "count", Lower),
    count("fl.fault.dropped", "count", Lower),
    count("fl.fault.rejected", "count", Lower),
    layer("core.driver.start_round_ms", "ms", Lower),
    layer("core.driver.finish_round_ms", "ms", Lower),
    layer("core.driver.finish_ms", "ms", Lower),
    layer("core.driver.replay_coverage", "ratio", Higher),
    layer("core.driver.pipelined_over_barriered", "ratio", Lower),
    layer("core.scheduler.two_tenant_speedup", "ratio", Higher),
    layer("threadpool.fanout_speedup", "ratio", Higher),
    layer("threadpool.region_overhead_us", "us", Lower),
    layer("host.fma_gflops", "GFLOP/s", Higher),
    layer("host.stream_gbps", "GB/s", Higher),
    layer("host.calib_ms", "ms", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

pub fn find(name: &str) -> Option<Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .copied()
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::workloads;

    fn names(doc: &Value, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no list `{key}`"))
            .iter()
            .map(|entry| entry.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; the tables
    /// above are what the binary prints. They must name the same things.
    #[test]
    fn benchmark_json_lists_the_metrics_and_workloads_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).expect(path)).unwrap();

        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::report::RUN_SECONDS)
        );
        let workload_names: Vec<_> = workloads::all().iter().map(|w| w.name).collect();
        assert_eq!(names(&doc, "workloads"), workload_names);
        assert_eq!(names(&doc, "end_to_end"), gated().collect::<Vec<_>>());
        let mut traced: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .filter(|name| !is_gated(name))
            .collect();
        traced.extend(PER_LAYER.iter().map(|m| m.name));
        assert_eq!(names(&doc, "per_layer"), traced);

        for entry in doc.get("end_to_end").unwrap().as_array().unwrap() {
            let metric = find(entry.get("name").unwrap().as_str().unwrap()).unwrap();
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(metric.unit));
            let better = match entry.get("better").unwrap().as_str().unwrap() {
                "lower" => Lower,
                "higher" => Higher,
                other => panic!("better: {other}"),
            };
            assert_eq!(better, metric.better);
            assert_eq!(
                Share(entry.get("bound").unwrap().as_f64().unwrap()),
                metric.bound
            );
        }
        for entry in doc.get("per_layer").unwrap().as_array().unwrap() {
            let metric = find(entry.get("name").unwrap().as_str().unwrap()).unwrap();
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(metric.unit));
        }
    }

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(metric.name), "{} listed twice", metric.name);
            assert!(metric.name.len() <= 64 && metric.unit.len() <= 16);
            assert!(metric
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
