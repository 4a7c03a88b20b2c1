//! Holds the FLUXAGG1 staged-aggregator bytes to a literal recorded at the
//! parent of the byte-codec migration: `encode_staged_aggregator` on a fixed
//! mid-round aggregator, by length and byte-wise FNV-1a digest. A change
//! meant to keep the format keeps the literal.

use flux_fl::{encode_staged_aggregator, ExpertUpdate, ShardedAggregator};
use flux_moe::{MoeConfig, MoeModel};
use flux_tensor::SeededRng;

/// Byte-wise FNV-1a, written out here so the pin depends on nothing the
/// migration touches.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn staged_aggregator_bytes_are_pinned() {
    let model = MoeModel::new(MoeConfig::tiny().with_classes(4), &mut SeededRng::new(7));
    let keys = model.expert_keys();
    let aggregator = ShardedAggregator::new(4);
    // Out-of-order pids, overlapping experts, one upload without a head.
    for (pid, first, count) in [(9usize, 0usize, 5usize), (2, 3, 4), (5, 20, 3)] {
        let updates: Vec<ExpertUpdate> = keys[first..first + count]
            .iter()
            .map(|&key| ExpertUpdate {
                key,
                expert: model.expert(key).clone(),
                weight: 0.5 + pid as f32,
            })
            .collect();
        let head = (pid != 5).then(|| (model.active_head().clone(), pid as f32 + 0.25));
        assert!(aggregator.submit(pid, updates, head));
    }
    let bytes = encode_staged_aggregator(&aggregator);
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (52_596, 0xae03_c9c3_8fdc_d09d),
        "actual: ({}, {:#x})",
        bytes.len(),
        fnv1a(&bytes)
    );
}
