//! Holds `MoeModel::batch_gradients` to literals recorded before training
//! stopped caching the layers its backward never reaches: one digest per
//! tuning set over every expert gradient's bits, the head gradient and the
//! loss, on a model of the paper's 32 x 16 shape. The four tuning sets put
//! the lowest tuned layer nowhere (`None`: every layer tuned), at layer 0,
//! in the middle, and at the last layer, so a forward that caches from the
//! wrong layer or a backward that reads a dropped cache shows. A change
//! meant to keep training's arithmetic keeps every literal; one meant to
//! move it re-records them and says so. There is one set per kernel level
//! (`FLUX_SIMD`); thread counts share it.
//!
//! The task heads are held the same way, on small generation and
//! classification models: `evaluate`'s score and loss on a generation and
//! a classification dataset, `batch_loss` (the loss the SPSA probes
//! difference) over a generation, a classification and a mixed batch, and
//! `batch_gradients` digests of a classification and a mixed batch.

use std::collections::HashSet;

use flux_data::{Dataset, DatasetConfig, DatasetGenerator, DatasetKind, Sample};
use flux_moe::{ExpertKey, GradientSet, MoeConfig, MoeModel};
use flux_tensor::codec::{fnv_bytes, FNV_OFFSET};
use flux_tensor::simd::{self, SimdLevel};
use flux_tensor::{Matrix, SeededRng};

fn eat_f32s<'a>(hash: u64, xs: impl IntoIterator<Item = &'a f32>) -> u64 {
    xs.into_iter()
        .fold(hash, |h, x| fnv_bytes(h, &x.to_bits().to_le_bytes()))
}

fn eat_matrix(hash: u64, m: &Matrix) -> u64 {
    let (rows, cols) = m.shape();
    let hash = fnv_bytes(hash, &(rows as u64).to_le_bytes());
    let hash = fnv_bytes(hash, &(cols as u64).to_le_bytes());
    eat_f32s(hash, m.as_slice())
}

/// FNV-1a over a gradient set: the sample count and loss, the head
/// gradient, then every expert gradient in key order (key, token count,
/// `w1`, `b1`, `w2`, `b2`).
fn digest(grads: &GradientSet) -> u64 {
    let mut hash = fnv_bytes(FNV_OFFSET, &(grads.samples as u64).to_le_bytes());
    hash = fnv_bytes(hash, &grads.loss.to_bits().to_le_bytes());
    hash = eat_matrix(hash, &grads.head_grad);
    let mut keys: Vec<ExpertKey> = grads.expert_grads.keys().copied().collect();
    keys.sort_unstable();
    hash = fnv_bytes(hash, &(keys.len() as u64).to_le_bytes());
    for key in keys {
        let g = &grads.expert_grads[&key];
        hash = fnv_bytes(hash, &(key.layer as u64).to_le_bytes());
        hash = fnv_bytes(hash, &(key.expert as u64).to_le_bytes());
        hash = fnv_bytes(hash, &(g.token_count as u64).to_le_bytes());
        hash = eat_matrix(hash, &g.w1);
        hash = eat_f32s(hash, &g.b1);
        hash = eat_matrix(hash, &g.w2);
        hash = eat_f32s(hash, &g.b2);
    }
    hash
}

/// Every expert of the given layers whose id has the given parity.
fn layers_tuned(layers: &[usize], parity: usize) -> HashSet<ExpertKey> {
    layers
        .iter()
        .flat_map(|&l| (parity..16).step_by(2).map(move |e| ExpertKey::new(l, e)))
        .collect()
}

#[test]
fn batch_gradients_match_the_recorded_bits() {
    let mut rng = SeededRng::new(2032);
    let model = MoeModel::new(MoeConfig::llama_moe_sim(), &mut rng);
    let samples = DatasetGenerator::new(
        DatasetConfig::for_kind(DatasetKind::Dolly, model.config.vocab_size)
            .with_num_samples(16)
            .with_mean_seq_len(8),
    )
    .generate(&mut rng)
    .samples;

    let lowest_first = layers_tuned(&[0, 9, 27], 0);
    let lowest_middle = layers_tuned(&[16, 24], 1);
    let last_only: HashSet<ExpertKey> = (0..16).map(|e| ExpertKey::new(31, e)).collect();
    let tunings = [
        None,
        Some(&lowest_first),
        Some(&lowest_middle),
        Some(&last_only),
    ];
    let actual: Vec<u64> = tunings
        .iter()
        .map(|tuning| {
            let grads = model.batch_gradients(&samples, *tuning);
            if let Some(set) = tuning {
                assert!(
                    grads.expert_grads.keys().all(|k| set.contains(k)),
                    "only tuned experts get gradients"
                );
                assert!(
                    !grads.expert_grads.is_empty(),
                    "the seed routes to tuned experts"
                );
            }
            digest(&grads)
        })
        .collect();

    // `None`, lowest tuned layer 0, lowest tuned layer 16, only layer 31.
    let recorded: [u64; 4] = match simd::global_level() {
        SimdLevel::Avx2 => [
            0xcde3_eb9c_9fdb_63c8,
            0x442f_215c_3f21_e506,
            0xd936_6fe1_c630_e579,
            0xc805_3d78_fe2b_2f66,
        ],
        SimdLevel::Scalar => [
            0xca31_b4cb_7752_2a4c,
            0x74e3_8593_1a38_4f11,
            0x51b2_ed75_b3a1_5072,
            0x1de6_6500_c980_9c95,
        ],
    };
    assert_eq!(actual, recorded, "actual: {actual:#x?}");
}

/// The head literals below share one fixture: a generation model and a
/// classification model of the small preset, with a Dolly and a PIQA set
/// of 20 generated samples each (two evaluation chunks), and a mixed batch
/// that alternates their samples, classification first. The generation set
/// ends with a one-token and an empty sample (an empty sample scores no
/// row); the classification set with a one-token one.
struct Heads {
    gen_model: MoeModel,
    cls_model: MoeModel,
    gen: Vec<Sample>,
    cls: Vec<Sample>,
    mixed: Vec<Sample>,
}

fn heads() -> Heads {
    let mut rng = SeededRng::new(2044);
    let gen_model = MoeModel::new(MoeConfig::small(), &mut rng);
    let cls_model = MoeModel::new(MoeConfig::small().with_classes(3), &mut rng);
    let mut generate = |kind| {
        DatasetGenerator::new(
            DatasetConfig::for_kind(kind, gen_model.config.vocab_size)
                .with_num_samples(20)
                .with_mean_seq_len(9),
        )
        .generate(&mut rng)
        .samples
    };
    let mut gen = generate(DatasetKind::Dolly);
    let mut cls = generate(DatasetKind::Piqa);
    let mixed = cls
        .iter()
        .zip(&gen)
        .take(8)
        .flat_map(|(c, g)| [c.clone(), g.clone()])
        .collect();
    for tokens in [vec![3], vec![]] {
        gen.push(Sample {
            tokens,
            topic: 0,
            task: gen[0].task.clone(),
        });
    }
    cls.push(Sample {
        tokens: vec![5],
        topic: 0,
        task: cls[0].task.clone(),
    });
    Heads {
        gen_model,
        cls_model,
        gen,
        cls,
        mixed,
    }
}

fn dataset(kind: DatasetKind, model: &MoeModel, samples: &[Sample]) -> Dataset {
    Dataset {
        kind,
        vocab_size: model.config.vocab_size,
        samples: samples.to_vec(),
    }
}

#[test]
fn evaluation_matches_the_recorded_bits() {
    let h = heads();
    let gen = h
        .gen_model
        .evaluate(&dataset(DatasetKind::Dolly, &h.gen_model, &h.gen));
    let cls = h
        .cls_model
        .evaluate(&dataset(DatasetKind::Piqa, &h.cls_model, &h.cls));
    assert_eq!((gen.samples, cls.samples), (22, 21));
    let actual = [gen.score, gen.loss, cls.score, cls.loss].map(f32::to_bits);

    // Generation score and loss, classification score and loss.
    let recorded: [u32; 4] = match simd::global_level() {
        SimdLevel::Avx2 => [0x3c14_f20a, 0x409a_3738, 0x3f06_1862, 0x3f82_693e],
        SimdLevel::Scalar => [0x3c14_f20a, 0x409a_3738, 0x3f06_1862, 0x3f82_693e],
    };
    assert_eq!(actual, recorded, "actual: {actual:#x?}");
}

#[test]
fn batch_losses_match_the_recorded_bits() {
    let h = heads();
    fn refs(samples: &[Sample]) -> Vec<&Sample> {
        samples.iter().take(16).collect()
    }
    let actual = [
        h.gen_model.batch_loss(&refs(&h.gen)),
        h.cls_model.batch_loss(&refs(&h.cls)),
        h.cls_model.batch_loss(&refs(&h.mixed)),
    ]
    .map(f32::to_bits);

    // Generation batch, classification batch, mixed batch.
    let recorded: [u32; 3] = match simd::global_level() {
        SimdLevel::Avx2 => [0x40a2_a9d8, 0x3f40_3a80, 0x403a_fc61],
        SimdLevel::Scalar => [0x40a2_a9d8, 0x3f40_3a7e, 0x403a_fc60],
    };
    assert_eq!(actual, recorded, "actual: {actual:#x?}");
}

#[test]
fn classification_and_mixed_batch_gradients_match_the_recorded_bits() {
    let h = heads();
    let actual = [&h.cls[..16], &h.mixed[..]].map(|batch| {
        let grads = h.cls_model.batch_gradients(batch, None);
        assert_eq!(grads.samples, 16);
        digest(&grads)
    });

    // Classification batch, mixed batch. The mixed batch's mean loss sums
    // its samples in sample order, as `batch_loss` does; it once added the
    // generation samples first, and the scalar mixed literal was
    // re-recorded for that order (its loss moved one ulp, 0x403afc61 ->
    // 0x403afc60, to `batch_loss`'s bits; the gradients did not move).
    let recorded: [u64; 2] = match simd::global_level() {
        SimdLevel::Avx2 => [0xb7ed_f3f1_7d23_c8af, 0x4e7a_6351_2de9_8e1e],
        SimdLevel::Scalar => [0x6ad8_5c61_eec3_7b3b, 0x5a35_4e34_84c5_60f5],
    };
    assert_eq!(actual, recorded, "actual: {actual:#x?}");
}
