//! Property-based pin of the upload codec against a sort-based model of
//! it: for every [`CompressionConfig`] constructor, tensor shape and top-k
//! fraction, the linear-time encoder must keep exactly the entries a full
//! sort by `|δ|` (ties toward the lower flat index, exact zeros never
//! shipping) would keep, charge exactly the bytes the wire format defines
//! for them, and decode bit-identically to the model's reconstruction.
//!
//! The model below is the selection the encoder replaced, written against
//! public types only; the encoder's payload fields (indices, levels,
//! scale) are pinned field by field against the same sort in the crate's
//! own unit tests.

use proptest::prelude::*;

use flux_fl::{CompressionConfig, EncodedTensor};
use flux_quant::{quantize_row, BitWidth, QuantizedMatrix};
use flux_tensor::{Matrix, SeededRng};

/// Per-tensor header the simulated wire format charges.
const HEADER: usize = 8;

/// How a generated tensor's deltas are distributed.
#[derive(Debug, Clone, Copy)]
enum Style {
    /// Small gaussian noise on a gaussian base: all magnitudes distinct.
    Noise,
    /// Deltas drawn from a few magnitudes of both signs (and exact zero):
    /// the k-th magnitude is almost always tied.
    Ties,
    /// Noise with long runs of untouched entries (exact-zero deltas).
    ZeroRuns,
    /// One magnitude per row, random sign: every row is one big tie.
    EqualRows,
}

const STYLES: [Style; 4] = [Style::Noise, Style::Ties, Style::ZeroRuns, Style::EqualRows];

/// A `(new, base)` pair of the given shape. Planted deltas are dyadic on a
/// dyadic base, so `new − base` reproduces them exactly.
fn make_tensors(seed: u64, rows: usize, cols: usize, style: Style) -> (Matrix, Matrix) {
    let mut rng = SeededRng::new(seed);
    let n = rows * cols;
    let dyadic_base: Vec<f32> = (0..n)
        .map(|_| (rng.below(65) as f32 - 32.0) * 0.25)
        .collect();
    let (base, delta): (Vec<f32>, Vec<f32>) = match style {
        Style::Noise => (
            (0..n).map(|_| rng.normal()).collect(),
            (0..n).map(|_| rng.normal_with(0.0, 0.01)).collect(),
        ),
        Style::Ties => {
            let grid = [0.0f32, 0.125, -0.125, 0.5, -0.5, 2.0, -2.0];
            let delta = (0..n).map(|_| grid[rng.below(grid.len())]).collect();
            (dyadic_base, delta)
        }
        Style::ZeroRuns => {
            let mut delta: Vec<f32> = (0..n)
                .map(|_| (rng.below(33) as f32 - 16.0) * 0.125)
                .collect();
            let mut at = 0;
            while at < n {
                let run = rng.range(1, 12);
                if rng.chance(0.5) {
                    delta[at..(at + run).min(n)].fill(0.0);
                }
                at += run;
            }
            (dyadic_base, delta)
        }
        Style::EqualRows => {
            let mut delta = Vec::with_capacity(n);
            for _ in 0..rows {
                let magnitude = rng.range(1, 9) as f32 * 0.125;
                delta.extend((0..cols).map(|_| {
                    if rng.chance(0.5) {
                        magnitude
                    } else {
                        -magnitude
                    }
                }));
            }
            (dyadic_base, delta)
        }
    };
    let new: Vec<f32> = base.iter().zip(&delta).map(|(b, d)| b + d).collect();
    (
        Matrix::from_vec(rows, cols, new).unwrap(),
        Matrix::from_vec(rows, cols, base).unwrap(),
    )
}

/// The sort-based selection: flat indices of the `⌈fraction·n⌉`
/// largest-magnitude non-zero deltas, ties toward the lower index,
/// returned ascending.
fn model_top_k(delta: &[f32], fraction: f32) -> Vec<usize> {
    let k = (delta.len() as f64 * fraction as f64).ceil() as usize;
    let mut order: Vec<usize> = (0..delta.len()).filter(|&i| delta[i] != 0.0).collect();
    order.sort_by(|&a, &b| delta[b].abs().total_cmp(&delta[a].abs()).then(a.cmp(&b)));
    order.truncate(k);
    order.sort_unstable();
    order
}

/// Bytes naming which `kept` of `n` entries survived.
fn mask_bytes(n: usize, kept: usize) -> usize {
    n.div_ceil(8).min(kept * 4)
}

/// What the codec must produce for `config`: the reconstruction and the
/// simulated wire bytes.
fn model(new: &Matrix, base: &Matrix, config: CompressionConfig) -> (Vec<f32>, usize) {
    let (rows, cols) = new.shape();
    let n = rows * cols;
    let (new_flat, base_flat) = (new.as_slice(), base.as_slice());
    let delta: Vec<f32> = new_flat.iter().zip(base_flat).map(|(n, b)| n - b).collect();
    let xor_bytes = || {
        let significant: usize = new_flat
            .iter()
            .zip(base_flat)
            .map(|(n, b)| n.to_bits() ^ b.to_bits())
            .filter(|&w| w != 0)
            .map(|w| (32 - w.leading_zeros() as usize).div_ceil(8))
            .sum();
        n.div_ceil(8) + significant
    };
    match config {
        CompressionConfig::Dense => (new_flat.to_vec(), HEADER + 4 * n),
        CompressionConfig::LosslessDelta => (new_flat.to_vec(), HEADER + xor_bytes()),
        CompressionConfig::LossyDelta {
            quantization,
            top_k_fraction,
        } => {
            let fraction = top_k_fraction.clamp(0.0, 1.0);
            match (quantization, fraction >= 1.0) {
                (None, true) => (new_flat.to_vec(), HEADER + xor_bytes()),
                (Some(width), true) => {
                    let q = QuantizedMatrix::quantize(
                        &Matrix::from_vec(rows, cols, delta).unwrap(),
                        width,
                    );
                    let decoded = base_flat
                        .iter()
                        .zip(q.dequantize().as_slice())
                        .map(|(b, d)| b + d)
                        .collect();
                    (decoded, HEADER + q.storage_bytes())
                }
                (quantization, false) => {
                    let kept = model_top_k(&delta, fraction);
                    let values: Vec<f32> = kept.iter().map(|&i| delta[i]).collect();
                    let mut decoded = base_flat.to_vec();
                    let body = match quantization {
                        None => {
                            for (&i, v) in kept.iter().zip(&values) {
                                decoded[i] += v;
                            }
                            4 * kept.len()
                        }
                        Some(width) => {
                            let mut levels = vec![0i8; kept.len()];
                            let scale = quantize_row(&values, width, &mut levels);
                            for (&i, &level) in kept.iter().zip(&levels) {
                                decoded[i] += level as f32 * scale;
                            }
                            width.storage_bytes(kept.len()) + 4
                        }
                    };
                    (decoded, HEADER + mask_bytes(n, kept.len()) + body)
                }
            }
        }
    }
}

/// Every constructor of [`CompressionConfig`], the sparsifying ones at each
/// fraction of the sweep for an `n`-entry tensor.
fn configs(n: usize) -> Vec<CompressionConfig> {
    let nf = n.max(1) as f32;
    let mut out = vec![CompressionConfig::Dense, CompressionConfig::LosslessDelta];
    out.extend(BitWidth::all().map(CompressionConfig::quantized));
    for fraction in [0.0, 1.0 / nf, 0.25, 0.5, 1.0 - 1.0 / nf, 1.0] {
        out.push(CompressionConfig::sparse(fraction));
        out.extend(BitWidth::all().map(|w| CompressionConfig::quantized_sparse(w, fraction)));
    }
    out
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Encodes under every config and compares against the model — as a
/// matrix, and (for one-row shapes) through the bias entry points too.
fn assert_codec_matches_model(seed: u64, rows: usize, cols: usize, style: Style) {
    let (new, base) = make_tensors(seed, rows, cols, style);
    for config in configs(rows * cols) {
        let label = format!("seed {seed} {rows}x{cols} {style:?} {config:?}");
        let (decoded, bytes) = model(&new, &base, config);
        let encoded = EncodedTensor::encode(&new, &base, config);
        assert_eq!(encoded.shape(), (rows, cols), "{label}");
        assert_eq!(encoded.encoded_bytes(), bytes, "{label}: wire bytes");
        assert_eq!(
            bits(encoded.decode(&base).unwrap().as_slice()),
            bits(&decoded),
            "{label}: decode"
        );
        if rows == 1 {
            let bias = EncodedTensor::encode_vec(new.as_slice(), base.as_slice(), config);
            assert_eq!(bias.encoded_bytes(), bytes, "{label}: bias wire bytes");
            assert_eq!(
                bits(&bias.decode_vec(base.as_slice()).unwrap()),
                bits(&decoded),
                "{label}: bias decode"
            );
        }
    }
}

/// The shapes the sweep must not miss, whatever the generator draws.
#[test]
fn corner_shapes_match_the_model() {
    for (i, &(rows, cols)) in [(0, 0), (1, 1), (1, 2), (2, 1), (1, 64), (64, 1), (64, 64)]
        .iter()
        .enumerate()
    {
        for (j, &style) in STYLES.iter().enumerate() {
            assert_codec_matches_model((i * 4 + j) as u64, rows, cols, style);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Matrices from 1×1 to 64×64, every delta style.
    #[test]
    fn matrices_match_the_model(
        seed in 0u64..1 << 48,
        rows in 1usize..=64,
        cols in 1usize..=64,
        style in 0usize..4,
    ) {
        assert_codec_matches_model(seed, rows, cols, STYLES[style]);
    }

    /// 1×n bias vectors, through `encode_vec` / `decode_vec` as well.
    #[test]
    fn biases_match_the_model(
        seed in 0u64..1 << 48,
        n in 1usize..=256,
        style in 0usize..4,
    ) {
        assert_codec_matches_model(seed, 1, n, STYLES[style]);
    }
}
