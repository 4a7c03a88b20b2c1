//! The upload-compression layer. Lossless delta encoding (XOR bit
//! patterns against the round-start snapshot) reproduces the dense run
//! bit for bit — across thread counts, schedules, arrival orders and the
//! scheduler — while shipping fewer bytes; the lossy mode (the top-k
//! fraction of the delta, quantized at int8/int4/int2 against one shared
//! scale) is a pure function of upload and snapshot, so it holds its own
//! bits the same way. Those are the
//! `Wire`, `LosslessArrivals`, `Lossy` and `CompressedScheduled` groups of
//! the equivalence table (`tests/common/mod.rs`). This suite adds what only
//! compression has: lossy scores within tolerance of the dense run, bytes
//! that shrink with width and sparsity, and the slow-uplink speedup.

mod common;

use common::{check, quick, reference, trace_of, Config, Group, Trace, SEED};
use flux_core::driver::{ExecutionMode, FederatedRun, Method};
use flux_fl::{CompressionConfig, LinkProfile};
use flux_quant::BitWidth;

#[test]
fn lossless_delta_is_bit_identical_to_dense_uploads() {
    check(Group::Wire);
}

#[test]
fn lossless_delta_survives_shuffled_arrival_orders() {
    check(Group::LosslessArrivals);
}

/// A Flux run at the table's seed with `compression`; the three configs
/// the table runs come from its shared references.
fn flux_with(compression: CompressionConfig) -> Trace {
    let config = match compression {
        CompressionConfig::Dense => Config::Quick,
        CompressionConfig::LosslessDelta => Config::Lossless,
        lossy if lossy == Config::Lossy.config().compression => Config::Lossy,
        other => {
            let run = FederatedRun::new(quick().with_compression(other), SEED);
            return trace_of(&run.run(Method::Flux));
        }
    };
    reference(config, Method::Flux, ExecutionMode::Pipelined)
}

#[test]
fn lossy_modes_stay_within_tolerance_of_the_dense_run() {
    let dense = flux_with(CompressionConfig::Dense);
    for (label, config) in [
        (
            "int8",
            CompressionConfig::quantized_sparse(BitWidth::Int8, 1.0),
        ),
        (
            "int4",
            CompressionConfig::quantized_sparse(BitWidth::Int4, 1.0),
        ),
        (
            "int4+topk25",
            CompressionConfig::quantized_sparse(BitWidth::Int4, 0.25),
        ),
    ] {
        let lossy = flux_with(config);
        assert_eq!(lossy.rounds.len(), dense.rounds.len());
        for (round, (d, l)) in dense.rounds.iter().zip(&lossy.rounds).enumerate() {
            let (d_score, l_score) = (f32::from_bits(d.score_bits), f32::from_bits(l.score_bits));
            let (d_loss, l_loss) = (f32::from_bits(d.loss_bits), f32::from_bits(l.loss_bits));
            assert!(
                (d_score - l_score).abs() <= 0.15,
                "{label} round {round}: score {l_score} vs dense {d_score}"
            );
            assert!(
                (d_loss - l_loss).abs() <= 0.25,
                "{label} round {round}: loss {l_loss} vs dense {d_loss}"
            );
        }
    }
}

#[test]
fn lossy_runs_are_bit_identical_across_thread_counts_and_arrivals() {
    check(Group::Lossy);
}

#[test]
fn encoded_bytes_shrink_with_width_and_sparsity() {
    let bytes_of = |config| -> usize {
        flux_with(config)
            .rounds
            .iter()
            .map(|r| r.upload_bytes_encoded)
            .sum()
    };
    let dense = bytes_of(CompressionConfig::Dense);
    let lossless = bytes_of(CompressionConfig::LosslessDelta);
    let int8 = bytes_of(CompressionConfig::quantized_sparse(BitWidth::Int8, 1.0));
    let int4 = bytes_of(CompressionConfig::quantized_sparse(BitWidth::Int4, 1.0));
    let int4_sparse = bytes_of(CompressionConfig::quantized_sparse(BitWidth::Int4, 0.25));
    assert!(lossless < dense, "lossless {lossless} dense {dense}");
    assert!(int8 < dense, "int8 {int8} dense {dense}");
    assert!(int4 < int8, "int4 {int4} int8 {int8}");
    assert!(int4_sparse < int4, "sparse {int4_sparse} int4 {int4}");
}

#[test]
fn compression_cuts_simulated_communication_on_a_slow_uplink() {
    // The acceptance scenario: on a 3G link, int4 + top-k uploads must cut
    // simulated communication seconds by at least 4× versus dense uploads.
    let dense = FederatedRun::new(quick().with_link(LinkProfile::three_g()), 404).run(Method::Flux);
    let compressed = FederatedRun::new(
        quick()
            .with_link(LinkProfile::three_g())
            .with_compression(CompressionConfig::quantized_sparse(BitWidth::Int4, 0.25)),
        404,
    )
    .run(Method::Flux);
    let dense_comm = dense.phase_times.communication_s;
    let compressed_comm = compressed.phase_times.communication_s;
    assert!(
        dense_comm / compressed_comm >= 4.0,
        "3G speedup {:.2}x (dense {dense_comm}s, compressed {compressed_comm}s)",
        dense_comm / compressed_comm
    );
}

#[test]
fn compression_threads_through_the_scheduler() {
    check(Group::CompressedScheduled);
}
