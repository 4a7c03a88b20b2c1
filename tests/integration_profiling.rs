//! Cross-crate integration tests of quantization-based profiling.

use flux_core::baselines::fmq_local_round;
use flux_core::profiling::{LocalProfiler, ProfilingConfig, QuantizedModelCache, StaleProfiler};
use flux_data::{DatasetConfig, DatasetGenerator, DatasetKind};
use flux_fl::{build_fleet, CostModel};
use flux_moe::{ActivationProfile, MoeConfig, MoeModel};
use flux_quant::BitWidth;
use flux_tensor::codec::{fnv_bytes, FNV_OFFSET};
use flux_tensor::simd::{self, SimdLevel};
use flux_tensor::{Matrix, SeededRng};

fn setup(kind: DatasetKind) -> (MoeModel, flux_data::Dataset) {
    let base = MoeConfig::tiny();
    let config = match kind.num_classes() {
        Some(c) => base.with_classes(c),
        None => base,
    };
    let mut rng = SeededRng::new(3);
    let model = MoeModel::new(config.clone(), &mut rng);
    let data = DatasetGenerator::new(
        DatasetConfig::for_kind(kind, config.vocab_size)
            .with_num_samples(24)
            .with_mean_seq_len(10),
    )
    .generate(&mut rng);
    (model, data)
}

#[test]
fn quantized_profiles_are_close_to_full_precision_on_every_dataset() {
    for kind in DatasetKind::all() {
        let (model, data) = setup(kind);
        let profiler = LocalProfiler::new(ProfilingConfig::default().with_width(BitWidth::Int8));
        let error = profiler.estimation_error_pct(&model, &data);
        assert!(
            error < 40.0,
            "{}: INT8 profiling error unexpectedly high ({error}%)",
            kind.name()
        );
    }
}

#[test]
fn profile_frequencies_sum_to_top_k_per_layer() {
    let (model, data) = setup(DatasetKind::Dolly);
    let profile = model.profile(&data);
    for layer in 0..profile.num_layers() {
        let total: f32 = profile.frequencies[layer].iter().sum();
        assert!((total - model.config.top_k as f32).abs() < 1e-3);
    }
}

#[test]
fn profile_exposes_per_expert_sample_sets() {
    let (model, data) = setup(DatasetKind::Mmlu);
    let profile = model.profile(&data);
    // Every sample must be routed through at least one expert of layer 0.
    let mut covered = std::collections::HashSet::new();
    for expert in 0..profile.frequencies[0].len() {
        for &sample in profile.samples_of(flux_moe::ExpertKey::new(0, expert)) {
            covered.insert(sample);
        }
    }
    assert_eq!(covered.len(), data.len());
}

#[test]
fn stale_profiler_integrates_with_model_updates() {
    let (mut model, data) = setup(DatasetKind::Gsm8k);
    let mut stale = StaleProfiler::new(ProfilingConfig::default().with_width(BitWidth::Int4));
    let first = stale.refresh_blocking_cached(&model, &data, &QuantizedModelCache::new());
    // One round of training shifts activations only slightly; the stale
    // profile is still a usable estimate of the new ground truth.
    model.train_step(&data.samples[..8], None, 0.02);
    let truth = model.profile(&data);
    let stale_error = first.estimation_error_pct(&truth);
    assert!(stale_error < 60.0, "stale error {stale_error}% too large");
    // Refreshing tracks the new model.
    stale.refresh_blocking_cached(&model, &data, &QuantizedModelCache::new());
    assert_eq!(stale.refreshes(), 2);
}

/// FNV-1a over everything a profile reports: each layer's frequency and
/// attention bit patterns, then each expert's sample set with its length.
fn profile_digest(profile: &ActivationProfile) -> u64 {
    let mut hash = FNV_OFFSET;
    for layer in 0..profile.num_layers() {
        for (f, a) in profile.frequencies[layer]
            .iter()
            .zip(&profile.attention[layer])
        {
            hash = fnv_bytes(hash, &f.to_bits().to_le_bytes());
            hash = fnv_bytes(hash, &a.to_bits().to_le_bytes());
        }
        for set in &profile.sample_sets[layer] {
            hash = fnv_bytes(hash, &(set.len() as u64).to_le_bytes());
            for &sample in set {
                hash = fnv_bytes(hash, &(sample as u64).to_le_bytes());
            }
        }
    }
    hash
}

fn matrix_digest(hash: u64, m: &Matrix) -> u64 {
    m.as_slice()
        .iter()
        .fold(hash, |h, x| fnv_bytes(h, &x.to_bits().to_le_bytes()))
}

/// Quantized profiling and FMQ's quantized starting point, held to literals
/// recorded before the profiling copy stopped being an `f32` model. The
/// model has the benchmark's paper shape (32 layers x 16 experts) and the
/// dataset spans three profiling batches, so a pass that reorders the
/// tracker's accumulation across batches or layers shows. Every route to a
/// quantized profile (the copy itself, the profiler, the round's cache)
/// must land on the one literal of its width. One set per kernel level
/// (`FLUX_SIMD`); thread counts share it.
#[test]
fn quantized_profiles_and_fmq_match_the_recorded_bits() {
    let mut rng = SeededRng::new(2026);
    let model = MoeModel::new(MoeConfig::llama_moe_sim(), &mut rng);
    let data = DatasetGenerator::new(
        DatasetConfig::for_kind(DatasetKind::Dolly, model.config.vocab_size)
            .with_num_samples(33)
            .with_mean_seq_len(8),
    )
    .generate(&mut rng);
    let cache = QuantizedModelCache::new();
    let digests: Vec<[u64; 3]> = BitWidth::all()
        .into_iter()
        .map(|width| {
            let profiler = LocalProfiler::new(ProfilingConfig {
                width,
                stale: false,
                max_samples: data.len(),
            });
            [
                profile_digest(&model.quantized_copy(width).profile(&data)),
                profile_digest(&profiler.profile(&model, &data)),
                profile_digest(&profiler.profile_cached(&model, &data, &cache)),
            ]
        })
        .collect();

    let config = MoeConfig::tiny().with_classes(2);
    let mut rng = SeededRng::new(5);
    let global = MoeModel::new(config.clone(), &mut rng);
    let fleet_data = DatasetGenerator::new(
        DatasetConfig::for_kind(DatasetKind::Piqa, config.vocab_size)
            .with_num_samples(24)
            .with_mean_seq_len(10),
    )
    .generate(&mut rng);
    let fleet = build_fleet(&fleet_data, 2, 0.5, &mut rng);
    let out = fmq_local_round(
        &fleet[0],
        &global,
        &CostModel::default(),
        &QuantizedModelCache::new(),
        50_000,
        0.02,
        4,
    );
    let mut fmq = fnv_bytes(FNV_OFFSET, &out.train_loss.to_bits().to_le_bytes());
    for update in &out.expert_updates {
        fmq = fnv_bytes(fmq, &(update.key.layer as u64).to_le_bytes());
        fmq = fnv_bytes(fmq, &(update.key.expert as u64).to_le_bytes());
        fmq = fnv_bytes(fmq, &update.weight.to_bits().to_le_bytes());
        fmq = matrix_digest(fmq, &update.expert.w1);
        fmq = matrix_digest(fmq, &update.expert.w2);
        for x in update.expert.b1.iter().chain(&update.expert.b2) {
            fmq = fnv_bytes(fmq, &x.to_bits().to_le_bytes());
        }
    }
    let (head, weight) = out.head_update.as_ref().expect("FMQ uploads its head");
    fmq = fnv_bytes(matrix_digest(fmq, head), &weight.to_bits().to_le_bytes());

    // Int2, Int4, Int8 profile digests, then the FMQ upload digest.
    let (expected, expected_fmq): ([u64; 3], u64) = match simd::global_level() {
        SimdLevel::Avx2 => (
            [
                0x5898_b00a_1115_c19b,
                0xe20b_c2fa_f9f1_f37a,
                0x0861_88ea_224b_0fa0,
            ],
            0xe4cb_3a9b_71b2_3057,
        ),
        SimdLevel::Scalar => (
            [
                0xf618_363d_d36b_4393,
                0xb53e_3527_e088_0eb2,
                0x0f37_7540_3dd9_2162,
            ],
            0x145d_643c_f2a4_ccc7,
        ),
    };
    for (got, want) in digests.iter().zip(expected) {
        assert_eq!(got, &[want; 3], "profile digests {digests:#x?}");
    }
    assert_eq!(fmq, expected_fmq, "fmq digest {fmq:#x}");
}
