//! The five workloads: what each one runs and why it exists.
//!
//! Every input is made from the seed — through `FederatedRun::new(cfg,
//! seed)` and, for the fault schedule, `FaultPlan::new(seed)` — so the same
//! seed gives the same run.

use flux_core::driver::{Method, RunConfig};
use flux_data::DatasetKind;
use flux_fl::{CompressionConfig, FaultPlan, FaultToleranceConfig, LinkProfile};
use flux_moe::MoeConfig;
use flux_quant::BitWidth;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    DenseSmall,
    FluxSmall,
    FluxPaperShape,
    FleetWire,
    CkptRecover,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: the layers it stresses and what a change should do here.
    pub why: &'static str,
    pub method: Method,
    kind: Kind,
}

/// Cohort size of `fleet_wire`: the number of clients it must materialize
/// every round.
pub const FLEET_WIRE_COHORT: usize = 64;

const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "dense_small",
        why: "plain FMD baseline: tensor+moe fwd/bwd/optimizer do nearly all the work, so a kernel or batching gain shows here and a Flux-only gain must not",
        method: Method::Fmd,
        kind: Kind::DenseSmall,
    },
    Workload {
        name: "flux_small",
        why: "the paper's system on dense_small's exact data: the excess wall is quantized profiling, PCA+K-Means merging and SPSA probes, the paths the paper calls cheap",
        method: Method::Flux,
        kind: Kind::FluxSmall,
    },
    Workload {
        name: "flux_paper_shape",
        why: "32 layers x 16 experts, top-2: 512 experts stress per-expert fan-out, whole-model quantization, key maps and peak memory, so a change tuned to 8x16 that scales badly shows",
        method: Method::Flux,
        kind: Kind::FluxPaperShape,
    },
    Workload {
        name: "fleet_wire",
        why: "10k registered clients, cohort 64, int4+top-k uploads over a 4-edge tree: local compute at its minimum, so codec, aggregation, store, cohort and streaming carry the round",
        method: Method::Fmd,
        kind: Kind::FleetWire,
    },
    Workload {
        name: "ckpt_recover",
        why: "checkpoint every round, three mid-round kills with restore and replay, seeded faults with retries and quorum: durability writes beside reads, and the delivery layer is live",
        method: Method::Fmd,
        kind: Kind::CkptRecover,
    },
];

pub fn all() -> &'static [Workload] {
    &WORKLOADS
}

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The run configuration for `seed`. `smoke` keeps every knob but cuts
    /// the rounds to a tenth, rounded up.
    pub fn config(&self, seed: u64, smoke: bool) -> RunConfig {
        let experiment = |model| RunConfig::experiment(model, DatasetKind::Gsm8k);
        let mut cfg = match self.kind {
            Kind::DenseSmall | Kind::FluxSmall => experiment(MoeConfig::small()),
            Kind::FluxPaperShape => experiment(MoeConfig::llama_moe_sim()).with_rounds(3),
            Kind::FleetWire => {
                let mut cfg = experiment(MoeConfig::tiny())
                    .with_participants(10_000)
                    .with_rounds(20)
                    .with_cohort(FLEET_WIRE_COHORT)
                    .with_aggregation_edges(4)
                    .with_link(LinkProfile::three_g())
                    .with_compression(CompressionConfig::quantized_sparse(BitWidth::Int4, 0.25));
                cfg.num_samples = 10_000;
                cfg
            }
            Kind::CkptRecover => {
                let mut cfg = experiment(MoeConfig::small())
                    .with_rounds(16)
                    .with_fault_plan(
                        FaultPlan::new(seed)
                            .with_crashes(0.05)
                            .with_corruption(0.05)
                            .with_stalls(0.05),
                    )
                    .with_fault_tolerance(
                        FaultToleranceConfig::default()
                            .with_retries(2, 1.0)
                            .with_quorum(0.5),
                    );
                cfg.num_samples = 40;
                cfg
            }
        };
        if smoke {
            cfg.rounds = cfg.rounds.div_ceil(10);
        }
        cfg
    }

    /// Whether the run checkpoints after every round and is killed and
    /// restored mid-round at [`Workload::kill_rounds`].
    pub fn checkpoints(&self) -> bool {
        self.kind == Kind::CkptRecover
    }

    /// Rounds at which the run is checkpointed after `start_round`,
    /// dropped, restored and replayed.
    pub fn kill_rounds(&self, smoke: bool) -> &'static [usize] {
        match (self.checkpoints(), smoke) {
            (false, _) => &[],
            (true, false) => &[3, 7, 11],
            (true, true) => &[1],
        }
    }

    /// Whether no upload may be lost: every workload but the one that
    /// injects faults.
    pub fn fault_free(&self) -> bool {
        self.kind != Kind::CkptRecover
    }

    pub fn is_flux_small(&self) -> bool {
        self.kind == Kind::FluxSmall
    }

    pub fn is_paper_shape(&self) -> bool {
        self.kind == Kind::FluxPaperShape
    }

    pub fn is_fleet_wire(&self) -> bool {
        self.kind == Kind::FleetWire
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flux_small_offers_the_same_tokens_as_dense_small() {
        let dense = by_name("dense_small").unwrap().config(42, false);
        let flux = by_name("flux_small").unwrap().config(42, false);
        assert_eq!(format!("{dense:?}"), format!("{flux:?}"));
    }

    #[test]
    fn smoke_keeps_the_shape_and_cuts_the_rounds() {
        for workload in all() {
            let full = workload.config(7, false);
            let smoke = workload.config(7, true);
            assert_eq!(smoke.rounds, full.rounds.div_ceil(10));
            assert_eq!(smoke.num_participants, full.num_participants);
            assert!(workload.kill_rounds(true).iter().all(|&r| r < smoke.rounds));
            assert!(workload.kill_rounds(false).iter().all(|&r| r < full.rounds));
            assert!(workload.why.len() <= 200, "{}", workload.name);
        }
        assert!(by_name("nope").is_none());
    }
}
