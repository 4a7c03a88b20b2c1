//! Holds `MoeModel::final_embedding` — the mean-pooled final hidden state
//! that Figs. 8, 9, 15a and 17a compare merged models by (§5) — to
//! literals: one digest per model over the embedding bits of every sample.
//! The models are a generation model and a classification model, each
//! with a `CompactModelPlan`-merged copy, over generated samples plus a
//! one-token and an empty sample (whose embedding is all NaN: a mean over
//! no rows). A change meant to keep the forward's arithmetic keeps every
//! literal; one meant to move it re-records them and says so. There is one
//! set per kernel level (`FLUX_SIMD`); thread counts share it.

use flux_core::baselines::top_frequency_experts;
use flux_core::merging::{CompactModelPlan, MergingConfig};
use flux_data::{DatasetConfig, DatasetGenerator, DatasetKind, Sample, Task};
use flux_moe::{MoeConfig, MoeModel};
use flux_tensor::codec::{fnv_bytes, FNV_OFFSET};
use flux_tensor::simd::{self, SimdLevel};
use flux_tensor::SeededRng;

/// FNV-1a over every sample's embedding: its length, then its bits.
fn digest(model: &MoeModel, samples: &[Sample]) -> u64 {
    samples.iter().fold(FNV_OFFSET, |hash, sample| {
        let embedding = model.final_embedding(sample);
        let hash = fnv_bytes(hash, &(embedding.len() as u64).to_le_bytes());
        embedding
            .iter()
            .fold(hash, |h, x| fnv_bytes(h, &x.to_bits().to_le_bytes()))
    })
}

/// Twelve generated samples of `kind`, then a one-token and an empty one.
fn samples(kind: DatasetKind, vocab: usize, rng: &mut SeededRng) -> Vec<Sample> {
    let mut samples = DatasetGenerator::new(
        DatasetConfig::for_kind(kind, vocab)
            .with_num_samples(12)
            .with_mean_seq_len(10),
    )
    .generate(rng)
    .samples;
    let task = samples[0].task.clone();
    for tokens in [vec![3], vec![]] {
        samples.push(Sample {
            tokens,
            topic: 0,
            task: task.clone(),
        });
    }
    samples
}

/// The model and its merged copy: eight tuned experts kept, the rest
/// merged into a budget of eight.
fn with_merged_copy(model: MoeModel, samples: &[Sample], seed: u64) -> [MoeModel; 2] {
    let data = flux_data::Dataset {
        kind: DatasetKind::Dolly,
        vocab_size: model.config.vocab_size,
        samples: samples.to_vec(),
    };
    let profile = model.profile(&data);
    let tuning = top_frequency_experts(&profile, 8);
    let mut rng = SeededRng::new(seed);
    let merged = CompactModelPlan::build(
        &model,
        &profile,
        &tuning,
        8,
        MergingConfig::default(),
        &mut rng,
    )
    .apply(&model, &profile);
    assert!(merged.num_params() < model.num_params());
    [model, merged]
}

#[test]
fn final_embeddings_match_the_recorded_bits() {
    let mut rng = SeededRng::new(2043);
    let gen_model = MoeModel::new(MoeConfig::small(), &mut rng);
    let gen_samples = samples(DatasetKind::Dolly, gen_model.config.vocab_size, &mut rng);
    let cls_model = MoeModel::new(MoeConfig::tiny().with_classes(3), &mut rng);
    let cls_samples = samples(DatasetKind::Piqa, cls_model.config.vocab_size, &mut rng);
    assert!(matches!(gen_samples[0].task, Task::Generation { .. }));
    assert!(matches!(cls_samples[0].task, Task::Classification { .. }));

    let empty = gen_model.final_embedding(gen_samples.last().unwrap());
    assert!(empty.iter().all(|x| x.is_nan()), "a mean over no rows");

    let mut actual = Vec::new();
    for (model, samples, seed) in [(gen_model, &gen_samples, 7), (cls_model, &cls_samples, 8)] {
        for model in with_merged_copy(model, samples, seed) {
            actual.push(digest(&model, samples));
        }
    }

    // Generation, its merged copy, classification, its merged copy.
    let recorded: [u64; 4] = match simd::global_level() {
        SimdLevel::Avx2 => [
            0x5b5f_38b4_9902_fe90,
            0x209f_6abd_4ddb_4be4,
            0x4b37_6925_9669_2818,
            0x6667_49dd_49b2_d08b,
        ],
        SimdLevel::Scalar => [
            0x83c7_3075_a28e_265d,
            0x046d_d154_3127_af48,
            0x873e_98c7_7f50_dc4d,
            0x54d0_30bd_bdb4_ce1d,
        ],
    };
    assert_eq!(actual, recorded, "actual: {actual:#x?}");
}
