//! Literals recorded before the upload codec was cut to the two payload
//! forms a run ships (the XOR lossless delta and the int-quantized top-k
//! delta). They hold what those forms put on the wire and what a run does
//! with them: a change to the encoder that is meant to keep results keeps
//! every literal here. A top-k fraction of 1.0 is left out on purpose: its
//! bytes moved by design when it joined the top-k path.
//!
//! The run literals are one set per kernel level (`FLUX_SIMD`), since a
//! level's accumulation order is part of a run's result; thread counts
//! share a set. The fixed upload does no model arithmetic, so its literals
//! hold at every level.

use std::sync::Arc;

use flux_core::driver::{FederatedRun, Method, RunConfig};
use flux_data::DatasetKind;
use flux_fl::{CompressionConfig, EncodedUpload, ExpertUpdate, SharedExpertUpdate};
use flux_moe::{MoeConfig, MoeModel};
use flux_quant::BitWidth;
use flux_tensor::simd::{self, SimdLevel};
use flux_tensor::{Matrix, SeededRng};

/// The configs the literals are recorded under, in table order.
fn configs() -> [CompressionConfig; 4] {
    [
        CompressionConfig::quantized_sparse(BitWidth::Int4, 0.25),
        CompressionConfig::quantized_sparse(BitWidth::Int8, 0.0),
        CompressionConfig::quantized_sparse(BitWidth::Int2, 0.5),
        CompressionConfig::LosslessDelta,
    ]
}

/// `(param_checksum, upload_bytes_compressed, final_score bits)` of a run.
type RunBits = (u64, usize, u32);

/// The [`RunBits`] of a quick-demo run of `method` under `compression`.
fn run(method: Method, compression: CompressionConfig) -> RunBits {
    let config =
        RunConfig::quick_demo(MoeConfig::tiny(), DatasetKind::Gsm8k).with_compression(compression);
    let result = FederatedRun::new(config, 2031).run(method);
    (
        result.final_model.param_checksum(),
        result.upload_bytes_compressed,
        result.final_score.to_bits(),
    )
}

#[test]
fn compressed_runs_match_the_recorded_bits() {
    let (flux, fmd): ([RunBits; 4], [RunBits; 4]) = match simd::global_level() {
        SimdLevel::Avx2 => (
            [
                (4478876578654380071, 28088, 1061997773),
                (9842900994538330123, 4656, 0),
                (12525421969505563437, 28088, 1061997773),
                (1264941814459168366, 230174, 1061997773),
            ],
            [
                (12776205564286757689, 63180, 1061997773),
                (10362577079833469361, 18576, 0),
                (7550787693914681502, 63448, 1061997773),
                (13893747189817968052, 438530, 1061997773),
            ],
        ),
        SimdLevel::Scalar => (
            [
                (15497541727939525111, 28088, 1061997773),
                (9842900994538330123, 4656, 0),
                (11406454698571178848, 28088, 1061997773),
                (2333404900826289463, 230174, 1061997773),
            ],
            [
                (11322978811598730951, 63180, 1061997773),
                (10362577079833469361, 18576, 0),
                (10093607053902314049, 63448, 1061997773),
                (5479555410099836511, 438530, 1061997773),
            ],
        ),
    };
    for (method, expected) in [(Method::Flux, flux), (Method::Fmd, fmd)] {
        let actual = configs().map(|config| run(method, config));
        assert_eq!(actual, expected, "{method:?}");
    }
}

/// One upload against a tiny model: an expert the participant trained
/// (owned), one it shares with the snapshot, and a trained head.
fn fixed_upload(compression: CompressionConfig) -> EncodedUpload {
    let mut rng = SeededRng::new(1733);
    let model = MoeModel::new(MoeConfig::tiny(), &mut rng);
    let keys = model.expert_keys();
    let mut trained = model.expert(keys[0]).clone();
    let (rows, cols) = trained.w1.shape();
    let noise = Matrix::random_normal(rows, cols, 0.01, &mut rng);
    trained.w1.add_scaled(&noise, 1.0).unwrap();
    trained.b1[1] += 0.25;
    trained.b2[0] -= 0.125;
    let updates: Vec<SharedExpertUpdate> = vec![
        ExpertUpdate {
            key: keys[0],
            expert: Arc::new(trained),
            weight: 3.0,
        },
        ExpertUpdate {
            key: keys[5],
            expert: Arc::clone(model.shared_expert(keys[5])),
            weight: 3.0,
        },
    ];
    let (rows, cols) = model.active_head().shape();
    let mut head = model.active_head().clone();
    head.add_scaled(&Matrix::random_normal(rows, cols, 0.02, &mut rng), 1.0)
        .unwrap();
    EncodedUpload::encode(&updates, Some(&(head, 3.0)), &model, compression)
}

#[test]
fn a_fixed_upload_encodes_to_the_recorded_bytes() {
    let expected = [
        (16281202719325631497, 500),
        (11151551937477985599, 108),
        (11253585659080548600, 500),
        (18075121842019660768, 5236),
    ];
    let actual = configs().map(|config| {
        let upload = fixed_upload(config);
        assert_eq!(upload.checksum, upload.content_checksum(), "{config:?}");
        (upload.content_checksum(), upload.encoded_bytes())
    });
    assert_eq!(actual, expected);
}
