//! Packed-batch equivalence: a batch behaves as its samples run one by one.
//!
//! The model has one forward/backward path, the packed batch
//! (`MoeModel::batch_gradients` packs all samples of a mini-batch into one
//! activation matrix per layer); a single sample is a batch of one. The
//! references here are therefore that path on batches of one, merged in
//! order — which still tests packing — and, for attention, a dense
//! single-sample forward/backward built in this file from the public
//! projections and ops, an oracle independent of the block-diagonal
//! kernels. Per-token activations are bit-identical to the references
//! because every row-parallel kernel's accumulation order is independent
//! of the operand's row count; accumulated parameter gradients differ only
//! by float-summation order. These tests pin both properties across batch
//! sizes 1, the paper's 16, and a ragged batch of mixed sequence lengths.

use std::collections::HashSet;

use flux_data::{DatasetConfig, DatasetGenerator, DatasetKind, Sample};
use flux_moe::attention::Attention;
use flux_moe::{ExpertKey, GradientSet, MoeConfig, MoeModel};
use flux_tensor::simd::{self, SimdLevel};
use flux_tensor::{ops, Matrix, SeededRng};

/// Documented tolerance of the batched path: accumulated f32 gradients may
/// differ from the sequential reference by summation order only.
const REL_TOL: f32 = 1e-4;

/// The sequential reference for `MoeModel::batch_gradients`: the same path
/// on one batch of one per sample, merged in order.
fn batch_gradients_reference(
    model: &MoeModel,
    samples: &[Sample],
    tuning: Option<&HashSet<ExpertKey>>,
) -> GradientSet {
    let (rows, cols) = model.active_head().shape();
    let mut total = GradientSet {
        expert_grads: Default::default(),
        head_grad: Matrix::zeros(rows, cols),
        loss: 0.0,
        samples: 0,
    };
    for sample in samples {
        total.merge(model.batch_gradients(std::slice::from_ref(sample), tuning));
    }
    total
}

/// Dense single-sample attention, `softmax(Q·Kᵀ/√d)·V·Wo` with its
/// backward: the oracle the packed block-diagonal path must reproduce bit
/// for bit. Built from public items only, with the ops the block-diagonal
/// kernels stand in for (`X·Wq`, `X·Wk`, `X·Wv` are bit-identical to the
/// fused QKV GEMM, per `fused_qkv_matches_three_matmuls`).
struct DenseAttention {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Row-softmaxed `(seq, seq)` attention.
    probs: Matrix,
}

impl DenseAttention {
    fn forward(attn: &Attention, x: &Matrix) -> (Matrix, Self) {
        let (q, k, v) = (x.matmul(&attn.wq), x.matmul(&attn.wk), x.matmul(&attn.wv));
        let mut scores = q.matmul_transb(&k).unwrap();
        scores.scale_in_place(1.0 / (attn.d_model() as f32).sqrt());
        let probs = ops::softmax_rows(&scores);
        let output = probs.matmul(&v).matmul(&attn.wo);
        (output, Self { q, k, v, probs })
    }

    /// Column means of the attention matrix.
    fn received_attention(&self) -> Vec<f32> {
        let seq = self.probs.rows();
        let mut received = vec![0.0f32; seq];
        for r in 0..seq {
            for (x, &p) in received.iter_mut().zip(self.probs.row(r)) {
                *x += p;
            }
        }
        received.iter().map(|x| x / seq as f32).collect()
    }

    /// Gradient with respect to the input (the weights are frozen).
    fn backward(&self, attn: &Attention, grad_output: &Matrix) -> Matrix {
        let grad_mixed = grad_output.matmul_transb(&attn.wo).unwrap();
        let grad_probs = grad_mixed.matmul_transb(&self.v).unwrap();
        let grad_v = self.probs.matmul_transa(&grad_mixed).unwrap();
        let mut grad_scores = Matrix::zeros(self.probs.rows(), self.probs.cols());
        for r in 0..self.probs.rows() {
            let (p, g) = (self.probs.row(r), grad_probs.row(r));
            ops::softmax_backward_row_into(p, g, grad_scores.row_mut(r));
        }
        grad_scores.scale_in_place(1.0 / (attn.d_model() as f32).sqrt());
        let grad_q = grad_scores.matmul(&self.k);
        let grad_k = grad_scores.matmul_transa(&self.q).unwrap();
        let mut grad_input = grad_q.matmul_transb(&attn.wq).unwrap();
        let from_k = grad_k.matmul_transb(&attn.wk).unwrap();
        grad_input.add_scaled(&from_k, 1.0).unwrap();
        let from_v = grad_v.matmul_transb(&attn.wv).unwrap();
        grad_input.add_scaled(&from_v, 1.0).unwrap();
        grad_input
    }
}

fn gen_model(seed: u64) -> MoeModel {
    let mut rng = SeededRng::new(seed);
    MoeModel::new(MoeConfig::tiny(), &mut rng)
}

fn cls_model(seed: u64, classes: usize) -> MoeModel {
    let mut rng = SeededRng::new(seed);
    MoeModel::new(MoeConfig::tiny().with_classes(classes), &mut rng)
}

fn gen_samples(seed: u64, n: usize) -> Vec<Sample> {
    let mut rng = SeededRng::new(seed);
    let cfg = DatasetConfig::for_kind(DatasetKind::Dolly, 64)
        .with_num_samples(n)
        .with_mean_seq_len(9);
    DatasetGenerator::new(cfg).generate(&mut rng).samples
}

fn cls_samples(seed: u64, n: usize) -> Vec<Sample> {
    let mut rng = SeededRng::new(seed);
    let cfg = DatasetConfig::for_kind(DatasetKind::Piqa, 64)
        .with_num_samples(n)
        .with_mean_seq_len(8);
    DatasetGenerator::new(cfg).generate(&mut rng).samples
}

fn assert_matrices_close(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what} shape");
    let scale = b.frobenius_norm().max(1.0);
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            (x - y).abs() <= REL_TOL * scale,
            "{what} entry {i}: batched {x} vs reference {y} (scale {scale})"
        );
    }
}

fn assert_gradients_equivalent(batched: &GradientSet, reference: &GradientSet) {
    assert_eq!(batched.samples, reference.samples, "sample counts");
    assert!(
        (batched.loss - reference.loss).abs() <= REL_TOL * reference.loss.abs().max(1.0),
        "loss: batched {} vs reference {}",
        batched.loss,
        reference.loss
    );
    assert_matrices_close(&batched.head_grad, &reference.head_grad, "head_grad");
    let batched_keys: HashSet<_> = batched.expert_grads.keys().copied().collect();
    let reference_keys: HashSet<_> = reference.expert_grads.keys().copied().collect();
    assert_eq!(batched_keys, reference_keys, "activated expert sets");
    for (key, b) in &batched.expert_grads {
        let r = &reference.expert_grads[key];
        assert_eq!(b.token_count, r.token_count, "token_count of {key:?}");
        assert_matrices_close(&b.w1, &r.w1, "w1 grad");
        assert_matrices_close(&b.w2, &r.w2, "w2 grad");
        for ((x, y), name) in
            b.b1.iter()
                .zip(&r.b1)
                .map(|p| (p, "b1"))
                .chain(b.b2.iter().zip(&r.b2).map(|p| (p, "b2")))
        {
            assert!((x - y).abs() <= REL_TOL, "{name} grad: {x} vs {y}");
        }
    }
}

fn check_equivalence(model: &MoeModel, samples: &[Sample], tuning: Option<&HashSet<ExpertKey>>) {
    let batched = model.batch_gradients(samples, tuning);
    let reference = batch_gradients_reference(model, samples, tuning);
    assert_gradients_equivalent(&batched, &reference);
}

#[test]
fn batch_of_one_matches_reference() {
    let model = gen_model(1);
    let samples = gen_samples(2, 1);
    check_equivalence(&model, &samples, None);
}

#[test]
fn paper_batch_of_16_matches_reference() {
    let model = gen_model(3);
    let samples = gen_samples(4, 16);
    assert_eq!(samples.len(), 16);
    check_equivalence(&model, &samples, None);
}

#[test]
fn ragged_batch_matches_reference() {
    // Mixed sequence lengths in one packed batch (the generator draws
    // varying lengths around the mean).
    let model = gen_model(5);
    let samples = gen_samples(6, 10);
    let lengths: HashSet<usize> = samples.iter().map(|s| s.tokens.len()).collect();
    assert!(lengths.len() > 1, "batch should be ragged: {lengths:?}");
    check_equivalence(&model, &samples, None);
}

#[test]
fn classification_batches_match_reference() {
    let model = cls_model(7, 2);
    let samples = cls_samples(8, 16);
    check_equivalence(&model, &samples, None);
    check_equivalence(&model, &samples[..1], None);
    check_equivalence(&model, &samples[..5], None);
}

#[test]
fn tuning_restriction_matches_reference() {
    let model = gen_model(9);
    let samples = gen_samples(10, 8);
    let mut tuning = HashSet::new();
    tuning.insert(ExpertKey::new(0, 0));
    tuning.insert(ExpertKey::new(1, 3));
    tuning.insert(ExpertKey::new(3, 5));
    check_equivalence(&model, &samples, Some(&tuning));
}

#[test]
fn batched_forward_is_bit_identical_to_per_sample() {
    let model = gen_model(11);
    let samples = gen_samples(12, 6);
    let refs: Vec<&Sample> = samples.iter().collect();
    let cache = model.forward_batch(&refs);
    for (sample, &(start, end)) in samples.iter().zip(cache.batch.bounds()) {
        let single = model.forward_batch(&[sample]);
        let segment = cache.final_hidden.copy_rows(start, end);
        assert_eq!(
            segment.as_slice(),
            single.final_hidden.as_slice(),
            "packed final hidden must match the sample's batch of one bitwise"
        );
    }
}

/// The fused block-diagonal attention (one padded GEMM per stage over the
/// packed batch) must be bit-identical to running each sample through the
/// dense [`DenseAttention`] alone — at every SIMD dispatch level, over
/// ragged bounds including length-1 samples.
#[test]
fn block_diag_attention_matches_per_sample_at_every_level() {
    let levels: Vec<SimdLevel> = [SimdLevel::Scalar, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| simd::is_supported(l))
        .collect();
    for level in levels {
        simd::with_level(level, || {
            let mut rng = SeededRng::new(17);
            let attn = Attention::new(8, &mut rng);
            // Ragged sample lengths, including the degenerate length-1 block.
            let lens = [4usize, 1, 7, 2];
            let samples: Vec<Matrix> = lens
                .iter()
                .map(|&l| Matrix::random_normal(l, 8, 1.0, &mut rng))
                .collect();
            let sample_refs: Vec<&Matrix> = samples.iter().collect();
            let packed = Matrix::vstack(&sample_refs).unwrap();
            let mut bounds = Vec::new();
            let mut at = 0;
            for &l in &lens {
                bounds.push((at, at + l));
                at += l;
            }
            let grad = Matrix::random_normal(at, 8, 1.0, &mut rng);

            let (out, cache) = attn.forward_batch(&packed, &bounds);
            let grad_in = attn.backward_batch(&cache, &bounds, &grad);
            for (sample, &(start, end)) in samples.iter().zip(&bounds) {
                let (out_s, cache_s) = DenseAttention::forward(&attn, sample);
                assert_eq!(
                    out.copy_rows(start, end).as_slice(),
                    out_s.as_slice(),
                    "forward diverged at {level:?} bounds {start}..{end}"
                );
                let grad_s = cache_s.backward(&attn, &grad.copy_rows(start, end));
                assert_eq!(
                    grad_in.copy_rows(start, end).as_slice(),
                    grad_s.as_slice(),
                    "backward diverged at {level:?} bounds {start}..{end}"
                );
            }
        });
    }
}

#[test]
fn batched_forward_matches_per_sample_bitwise() {
    let mut rng = SeededRng::new(7);
    let attn = Attention::new(8, &mut rng);
    let a = Matrix::random_normal(5, 8, 1.0, &mut rng);
    let b = Matrix::random_normal(3, 8, 1.0, &mut rng);
    let packed = Matrix::vstack(&[&a, &b]).unwrap();
    let bounds = [(0usize, 5usize), (5, 8)];
    let (out, cache) = attn.forward_batch(&packed, &bounds);
    let (out_a, cache_a) = DenseAttention::forward(&attn, &a);
    let (out_b, cache_b) = DenseAttention::forward(&attn, &b);
    assert_eq!(out.copy_rows(0, 5), out_a);
    assert_eq!(out.copy_rows(5, 8), out_b);
    let mut received = cache_a.received_attention();
    received.extend(cache_b.received_attention());
    assert_eq!(cache.received_attention(), received);
}

#[test]
fn batched_backward_matches_per_sample_bitwise() {
    let mut rng = SeededRng::new(8);
    let attn = Attention::new(8, &mut rng);
    let a = Matrix::random_normal(4, 8, 1.0, &mut rng);
    let b = Matrix::random_normal(6, 8, 1.0, &mut rng);
    let packed = Matrix::vstack(&[&a, &b]).unwrap();
    let bounds = [(0usize, 4usize), (4, 10)];
    let grad = Matrix::random_normal(10, 8, 1.0, &mut rng);
    let (_, batch_cache) = attn.forward_batch(&packed, &bounds);
    let grad_in = attn.backward_batch(&batch_cache, &bounds, &grad);
    let (_, cache_a) = DenseAttention::forward(&attn, &a);
    let (_, cache_b) = DenseAttention::forward(&attn, &b);
    let grad_a = cache_a.backward(&attn, &grad.copy_rows(0, 4));
    let grad_b = cache_b.backward(&attn, &grad.copy_rows(4, 10));
    assert_eq!(grad_in.copy_rows(0, 4), grad_a);
    assert_eq!(grad_in.copy_rows(4, 10), grad_b);
}

#[test]
fn batch_loss_matches_mean_sample_loss() {
    // A classification model scores generation samples through its LM
    // head, so one model takes all three batches; the mixed one alternates
    // the tasks.
    let model = cls_model(13, 4);
    let cls = cls_samples(14, 7);
    let gen = gen_samples(15, 6);
    let mixed: Vec<Sample> = cls
        .iter()
        .zip(&gen)
        .flat_map(|(c, g)| [c.clone(), g.clone()])
        .collect();
    for samples in [&cls, &gen, &mixed] {
        let refs: Vec<&Sample> = samples.iter().collect();
        let batched = model.batch_loss(&refs);
        let mean: f32 =
            samples.iter().map(|s| model.batch_loss(&[s])).sum::<f32>() / samples.len() as f32;
        assert_eq!(batched, mean, "batched loss probe diverged");
        // Training reports the loss the probes measure.
        let trained = model.batch_gradients(samples, None).loss;
        assert_eq!(
            trained.to_bits(),
            batched.to_bits(),
            "training loss diverged"
        );
    }
    assert_eq!(model.batch_loss(&[]), 0.0);
}

#[test]
fn evaluation_matches_the_mean_of_one_sample_evaluations() {
    // Ragged, more than one evaluation chunk, and a one-token sample (the
    // generation one also an empty sample, whose tail scores no row).
    let mut gen = gen_samples(17, 20);
    let mut cls = cls_samples(18, 20);
    let push = |samples: &mut Vec<Sample>, tokens: Vec<u32>| {
        let task = samples[0].task.clone();
        samples.push(Sample {
            tokens,
            topic: 0,
            task,
        });
    };
    push(&mut gen, vec![]);
    push(&mut gen, vec![4]);
    push(&mut cls, vec![5]);
    for (model, kind, samples) in [
        (gen_model(19), DatasetKind::Dolly, gen),
        (cls_model(20, 2), DatasetKind::Piqa, cls),
    ] {
        let dataset = |samples: Vec<Sample>| flux_data::Dataset {
            kind,
            vocab_size: 64,
            samples,
        };
        let whole = model.evaluate(&dataset(samples.clone()));
        let (mut score, mut loss) = (0.0f32, 0.0f32);
        for sample in &samples {
            let one = model.evaluate(&dataset(vec![sample.clone()]));
            score += one.score;
            loss += one.loss;
        }
        let n = samples.len() as f32;
        assert_eq!(whole.samples, samples.len());
        assert_eq!(
            whole.score.to_bits(),
            (score / n).to_bits(),
            "{kind:?} score"
        );
        assert_eq!(whole.loss.to_bits(), (loss / n).to_bits(), "{kind:?} loss");
    }
}

#[test]
fn train_step_on_batched_path_reduces_loss() {
    let mut model = cls_model(15, 2);
    let samples = cls_samples(16, 12);
    let ds = flux_data::Dataset {
        kind: DatasetKind::Piqa,
        vocab_size: 64,
        samples: samples.clone(),
    };
    let before = model.evaluate(&ds).loss;
    for _ in 0..10 {
        model.train_step(&samples, None, 0.05);
    }
    let after = model.evaluate(&ds).loss;
    assert!(after < before, "loss should drop: {before} -> {after}");
}
