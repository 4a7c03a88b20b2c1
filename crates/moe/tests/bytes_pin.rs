//! Holds the FLUXMOE1 model-checkpoint bytes to literals recorded at the
//! parent of the byte-codec migration: `checkpoint::to_bytes` of two presets
//! at two seeds, with and without a classification head, by length and
//! byte-wise FNV-1a digest. A change meant to keep the format keeps every
//! literal; one meant to move it re-records them and says so.

use flux_moe::{checkpoint, MoeConfig, MoeModel};
use flux_tensor::SeededRng;

/// Byte-wise FNV-1a, written out here so the pin depends on nothing the
/// migration touches.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(config: MoeConfig, seed: u64) -> (usize, u64) {
    let model = MoeModel::new(config, &mut SeededRng::new(seed));
    let bytes = checkpoint::to_bytes(&model);
    (bytes.len(), fnv1a(&bytes))
}

#[test]
fn model_checkpoint_bytes_are_pinned() {
    let actual = [
        digest(MoeConfig::tiny(), 1),
        digest(MoeConfig::tiny(), 42),
        digest(MoeConfig::tiny().with_classes(4), 1),
        digest(MoeConfig::tiny().with_classes(4), 42),
        digest(MoeConfig::small(), 1),
        digest(MoeConfig::small(), 42),
        digest(MoeConfig::small().with_classes(4), 1),
        digest(MoeConfig::small().with_classes(4), 42),
    ];
    let recorded: [(usize, u64); 8] = [
        (165_038, 0x46e9_c01d_fdd7_80ab),
        (165_038, 0x814c_37bd_9e5e_6759),
        (165_306, 0x1879_e4cc_bb2a_27bc),
        (165_306, 0x3dc8_fbc2_99a2_b873),
        (2_330_639, 0x2eef_14d5_dbc6_6428),
        (2_330_639, 0x5559_3c8e_5f04_a5c8),
        (2_331_163, 0xd56c_1ec9_12d2_97aa),
        (2_331_163, 0xd65a_999d_1f84_651f),
    ];
    assert_eq!(actual, recorded, "actual: {actual:#x?}");
}
