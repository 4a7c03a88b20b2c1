//! Single-head self-attention with recorded per-token attention scores.
//!
//! The scaled model uses single-head attention of width `d_model` (the
//! `num_heads` field of the config is used for parameter accounting only).
//! Besides producing the mixed hidden states, the block records the average
//! attention each token *receives* from the rest of the sequence — the
//! signal Flux's importance-based merging (Eq. 2) combines with activation
//! frequency to weight experts.
//!
//! Attention weights are frozen during federated fine-tuning (the paper
//! performs expert-only updates), but a full backward pass with respect to
//! the *input* is implemented so that gradients reach experts in earlier
//! layers.

use std::sync::OnceLock;

use flux_tensor::{init, ops, Matrix, SeededRng};

/// Single-head self-attention block.
///
/// The Q/K/V projections are applied as **one fused wide GEMM** against the
/// cached `[Wq | Wk | Wv]` concatenation: the input panel is packed once
/// instead of three times and the kernel's per-column accumulation order is
/// unchanged, so the fused outputs are bit-identical to three separate
/// matmuls (pinned by `fused_qkv_matches_three_matmuls` below).
///
/// The fused weight is built lazily and invalidated whenever the projection
/// matrices are replaced wholesale (cloning resets it; in-place writes to
/// `wq`/`wk`/`wv` must go through [`Attention::invalidate_fused`]). Attention
/// weights are frozen during federated fine-tuning, so in practice the cache
/// is built once per model instance.
#[derive(Debug)]
pub struct Attention {
    /// Query projection `(d_model, d_model)`.
    pub wq: Matrix,
    /// Key projection.
    pub wk: Matrix,
    /// Value projection.
    pub wv: Matrix,
    /// Output projection.
    pub wo: Matrix,
    /// Lazily built `[Wq | Wk | Wv]` concatenation `(d_model, 3·d_model)`.
    ///
    /// Derived state, never persisted: the binary checkpoint format
    /// (`checkpoint.rs`) writes only the four projections.
    fused_qkv: OnceLock<Matrix>,
}

impl Clone for Attention {
    fn clone(&self) -> Self {
        // The clone starts with an empty cache: callers that clone in order
        // to mutate the projections (e.g. quantized profiling copies) must
        // never inherit the original's fused weights.
        Self::from_parts(
            self.wq.clone(),
            self.wk.clone(),
            self.wv.clone(),
            self.wo.clone(),
        )
    }
}

impl PartialEq for Attention {
    fn eq(&self, other: &Self) -> bool {
        // The fused cache is derived state and deliberately excluded.
        self.wq == other.wq && self.wk == other.wk && self.wv == other.wv && self.wo == other.wo
    }
}

/// Forward-pass cache needed by [`Attention::backward`].
#[derive(Debug, Clone)]
pub struct AttentionCache {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Row-softmaxed attention matrix `(seq, seq)`.
    probs: Matrix,
}

/// Forward-pass cache of [`Attention::forward_batch`]: packed projections
/// plus the padded block-diagonal attention matrix (attention never crosses
/// sample boundaries, so sample `i`'s `(seqᵢ, seqᵢ)` block occupies the
/// leading `seqᵢ` columns of its row range and the padding columns are
/// zero). The sample bounds are stored alongside so tracker paths can read
/// per-sample statistics without re-deriving the partition.
#[derive(Debug, Clone)]
pub struct AttentionBatchCache {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Row-softmaxed attention, padded to `(total_tokens, max_seq)`.
    probs: Matrix,
    /// Per-sample row ranges of the packed batch.
    bounds: Vec<(usize, usize)>,
}

impl AttentionBatchCache {
    /// Average attention received by each token, concatenated across the
    /// batch (per-sample column means, like
    /// [`AttentionCache::received_attention`]).
    pub fn received_attention(&self) -> Vec<f32> {
        let total: usize = self.bounds.iter().map(|&(s, e)| e - s).sum();
        let mut received = Vec::with_capacity(total);
        for &(start, end) in &self.bounds {
            let seq = end - start;
            let offset = received.len();
            received.resize(offset + seq, 0.0);
            let segment = &mut received[offset..];
            for r in 0..seq {
                let row = &self.probs.row(start + r)[..seq];
                for (x, &p) in segment.iter_mut().zip(row) {
                    *x += p;
                }
            }
            for x in segment {
                *x /= seq as f32;
            }
        }
        received
    }
}

impl AttentionCache {
    /// Average attention received by each token (column means of the
    /// attention matrix). Length equals the sequence length.
    pub fn received_attention(&self) -> Vec<f32> {
        let seq = self.probs.rows();
        if seq == 0 {
            return Vec::new();
        }
        let mut received = vec![0.0f32; seq];
        for r in 0..seq {
            for (c, x) in received.iter_mut().enumerate() {
                *x += self.probs.get(r, c);
            }
        }
        for x in &mut received {
            *x /= seq as f32;
        }
        received
    }
}

impl Attention {
    /// Creates a randomly initialized attention block.
    pub fn new(d_model: usize, rng: &mut SeededRng) -> Self {
        Self::from_parts(
            init::xavier_uniform(d_model, d_model, rng),
            init::xavier_uniform(d_model, d_model, rng),
            init::xavier_uniform(d_model, d_model, rng),
            init::xavier_uniform(d_model, d_model, rng),
        )
    }

    /// Builds an attention block from explicit projection matrices
    /// (checkpoint loading, tests). The fused-weight cache starts empty.
    pub fn from_parts(wq: Matrix, wk: Matrix, wv: Matrix, wo: Matrix) -> Self {
        Self {
            wq,
            wk,
            wv,
            wo,
            fused_qkv: OnceLock::new(),
        }
    }

    /// Drops the cached fused `[Wq | Wk | Wv]` weight. Must be called after
    /// writing to `wq`/`wk`/`wv` in place; the next forward rebuilds it.
    pub fn invalidate_fused(&mut self) {
        self.fused_qkv = OnceLock::new();
    }

    /// The cached `[Wq | Wk | Wv]` concatenation, built on first use.
    fn fused_qkv(&self) -> &Matrix {
        self.fused_qkv.get_or_init(|| {
            Matrix::hstack(&[&self.wq, &self.wk, &self.wv]).expect("projections share d_model")
        })
    }

    /// Runs the fused Q/K/V projection over `input` and splits the wide
    /// result back into the three `(rows, d_model)` operands. Bit-identical
    /// to `input·Wq`, `input·Wk`, `input·Wv` because the GEMM kernel's
    /// per-element accumulation order does not depend on the right
    /// operand's column count.
    fn project_qkv(&self, input: &Matrix) -> (Matrix, Matrix, Matrix) {
        let d = self.d_model();
        let qkv = input.matmul(self.fused_qkv());
        let q = qkv.copy_cols(0, d);
        let k = qkv.copy_cols(d, 2 * d);
        let v = qkv.copy_cols(2 * d, 3 * d);
        (q, k, v)
    }

    /// Hidden width.
    pub fn d_model(&self) -> usize {
        self.wq.rows()
    }

    /// Number of parameters (4 projection matrices).
    pub fn num_params(&self) -> usize {
        self.wq.len() + self.wk.len() + self.wv.len() + self.wo.len()
    }

    /// Forward pass over a `(seq, d_model)` input.
    pub fn forward(&self, input: &Matrix) -> (Matrix, AttentionCache) {
        let d = self.d_model() as f32;
        let (q, k, v) = self.project_qkv(input);
        // Q·Kᵀ via the fused-transpose kernel: no transposed copy of K.
        let mut scores = q.matmul_transb(&k).expect("q/k widths match");
        scores.scale_in_place(1.0 / d.sqrt());
        let probs = ops::softmax_rows(&scores);
        let mixed = probs.matmul(&v);
        let output = mixed.matmul(&self.wo);
        (output, AttentionCache { q, k, v, probs })
    }

    /// Forward pass without a cache; also returns the per-token received
    /// attention (the profiling path needs the scores but not gradients).
    /// Numerically identical to [`Attention::forward`].
    pub fn forward_no_cache(&self, input: &Matrix) -> (Matrix, Vec<f32>) {
        let (out, cache) = self.forward(input);
        (out, cache.received_attention())
    }

    /// Batched forward pass over a packed `(total_tokens, d_model)` input.
    ///
    /// The Q/K/V/output projections run as single wide GEMMs over the whole
    /// batch, and the per-sample score/softmax/context stages are fused
    /// into **block-diagonal GEMMs over the packed batch**: sample `i`'s
    /// `(seqᵢ, seqᵢ)` score block lands in the leading columns of its row
    /// range of one padded `(total_tokens, max_seq)` matrix (cross-sample
    /// blocks are never touched and stay zero — tokens must never attend
    /// across sample boundaries), the softmax runs in place on each block
    /// row, and the context GEMM writes straight into the packed mixed
    /// buffer. No per-sample `copy_rows`/`paste_rows` staging remains.
    /// Because the strided kernels perform the same per-element operations
    /// as the dense ones, every token's output is bit-identical to running
    /// [`Attention::forward`] on that sample alone.
    pub fn forward_batch(
        &self,
        input: &Matrix,
        bounds: &[(usize, usize)],
    ) -> (Matrix, AttentionBatchCache) {
        let d = self.d_model() as f32;
        let (q, k, v) = self.project_qkv(input);
        let max_seq = bounds.iter().map(|&(s, e)| e - s).max().unwrap_or(0);
        let mut probs = q.block_diag_matmul_transb(&k, bounds, max_seq);
        probs.scale_in_place(1.0 / d.sqrt());
        for &(start, end) in bounds {
            let len = end - start;
            for r in start..end {
                ops::softmax_row_in_place(&mut probs.row_mut(r)[..len]);
            }
        }
        let mixed = probs.block_diag_matmul(&v, bounds);
        let output = mixed.matmul(&self.wo);
        (
            output,
            AttentionBatchCache {
                q,
                k,
                v,
                probs,
                bounds: bounds.to_vec(),
            },
        )
    }

    /// Batched backward pass mirroring [`Attention::forward_batch`]: the
    /// projection backward GEMMs run packed and the score/softmax backward
    /// stages run as block-diagonal GEMMs over the padded probs matrix — no
    /// per-sample `copy_rows`/`paste_rows` staging. Per-token gradients are
    /// bit-identical to [`Attention::backward`] over each sample alone.
    pub fn backward_batch(
        &self,
        cache: &AttentionBatchCache,
        bounds: &[(usize, usize)],
        grad_output: &Matrix,
    ) -> Matrix {
        let d = self.d_model() as f32;
        let scale = 1.0 / d.sqrt();
        let max_seq = bounds.iter().map(|&(s, e)| e - s).max().unwrap_or(0);
        // output = mixed · Wo.
        let grad_mixed = grad_output.matmul_transb(&self.wo).expect("widths match");
        // mixed = probs · V (block-diagonal).
        let grad_probs = grad_mixed.block_diag_matmul_transb(&cache.v, bounds, max_seq);
        let grad_v = cache.probs.block_diag_matmul_transa(&grad_mixed, bounds);
        // probs = softmax(scores) row-wise inside each sample block; the
        // padding columns of `grad_scores` stay zero so the block-diagonal
        // GEMMs below never mix samples.
        let mut grad_scores = Matrix::zeros(cache.probs.rows(), cache.probs.cols());
        for &(start, end) in bounds {
            let len = end - start;
            for r in start..end {
                ops::softmax_backward_row_into(
                    &cache.probs.row(r)[..len],
                    &grad_probs.row(r)[..len],
                    &mut grad_scores.row_mut(r)[..len],
                );
            }
        }
        grad_scores.scale_in_place(scale);
        // scores = Q · Kᵀ (scaled), block-diagonal.
        let grad_q = grad_scores.block_diag_matmul(&cache.k, bounds);
        let grad_k = grad_scores.block_diag_matmul_transa(&cache.q, bounds);
        // Q = X·Wq, K = X·Wk, V = X·Wv (packed GEMMs).
        let mut grad_input = grad_q.matmul_transb(&self.wq).expect("widths match");
        let from_k = grad_k.matmul_transb(&self.wk).expect("widths match");
        grad_input.add_scaled(&from_k, 1.0).expect("same shape");
        let from_v = grad_v.matmul_transb(&self.wv).expect("widths match");
        grad_input.add_scaled(&from_v, 1.0).expect("same shape");
        grad_input
    }

    /// Backward pass returning the gradient with respect to the input.
    ///
    /// Attention weights are frozen, so their gradients are not computed.
    pub fn backward(&self, cache: &AttentionCache, grad_output: &Matrix) -> Matrix {
        let d = self.d_model() as f32;
        let scale = 1.0 / d.sqrt();
        // output = mixed · Wo.
        let grad_mixed = grad_output.matmul_transb(&self.wo).expect("widths match");
        // mixed = probs · V.
        let grad_probs = grad_mixed.matmul_transb(&cache.v).expect("widths match");
        let grad_v = cache.probs.matmul_transa(&grad_mixed).expect("rows match");
        // probs = softmax(scores) row-wise.
        let mut grad_scores = Matrix::zeros(cache.probs.rows(), cache.probs.cols());
        for r in 0..cache.probs.rows() {
            ops::softmax_backward_row_into(
                cache.probs.row(r),
                grad_probs.row(r),
                grad_scores.row_mut(r),
            );
        }
        grad_scores.scale_in_place(scale);
        // scores = Q · Kᵀ (scaled).
        let grad_q = grad_scores.matmul(&cache.k);
        let grad_k = grad_scores.matmul_transa(&cache.q).expect("rows match");
        // Q = X·Wq, K = X·Wk, V = X·Wv.
        let mut grad_input = grad_q.matmul_transb(&self.wq).expect("widths match");
        let from_k = grad_k.matmul_transb(&self.wk).expect("widths match");
        grad_input.add_scaled(&from_k, 1.0).expect("same shape");
        let from_v = grad_v.matmul_transb(&self.wv).expect("widths match");
        grad_input.add_scaled(&from_v, 1.0).expect("same shape");
        grad_input
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_tensor::SeededRng;

    #[test]
    fn forward_shapes() {
        let mut rng = SeededRng::new(1);
        let attn = Attention::new(16, &mut rng);
        let x = Matrix::random_normal(6, 16, 1.0, &mut rng);
        let (y, cache) = attn.forward(&x);
        assert_eq!(y.shape(), (6, 16));
        assert_eq!(cache.probs.shape(), (6, 6));
    }

    #[test]
    fn attention_rows_are_distributions() {
        let mut rng = SeededRng::new(2);
        let attn = Attention::new(8, &mut rng);
        let x = Matrix::random_normal(5, 8, 1.0, &mut rng);
        let (_, cache) = attn.forward(&x);
        for r in 0..5 {
            let sum: f32 = cache.probs.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn received_attention_sums_to_one_on_average() {
        let mut rng = SeededRng::new(3);
        let attn = Attention::new(8, &mut rng);
        let x = Matrix::random_normal(7, 8, 1.0, &mut rng);
        let (_, cache) = attn.forward(&x);
        let received = cache.received_attention();
        assert_eq!(received.len(), 7);
        // Column means of a row-stochastic matrix sum to 1 across columns.
        let total: f32 = received.iter().sum();
        assert!((total - 1.0).abs() < 1e-4);
    }

    #[test]
    fn no_cache_matches_cached_forward() {
        let mut rng = SeededRng::new(4);
        let attn = Attention::new(8, &mut rng);
        let x = Matrix::random_normal(4, 8, 1.0, &mut rng);
        let (a, cache) = attn.forward(&x);
        let (b, received) = attn.forward_no_cache(&x);
        assert_eq!(a, b);
        assert_eq!(received, cache.received_attention());
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = SeededRng::new(5);
        let attn = Attention::new(6, &mut rng);
        let x = Matrix::random_normal(3, 6, 0.5, &mut rng);
        let (_, cache) = attn.forward(&x);
        // Loss = sum of outputs.
        let grad_out = Matrix::filled(3, 6, 1.0);
        let grad_input = attn.backward(&cache, &grad_out);
        let loss = |m: &Matrix| attn.forward(m).0.sum();
        let eps = 1e-2;
        for &(r, c) in &[(0usize, 0usize), (1, 3), (2, 5)] {
            let mut plus = x.clone();
            plus.set(r, c, plus.get(r, c) + eps);
            let mut minus = x.clone();
            minus.set(r, c, minus.get(r, c) - eps);
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            let analytic = grad_input.get(r, c);
            assert!(
                (numeric - analytic).abs() < 0.05 * numeric.abs().max(0.5),
                "({r},{c}): numeric {numeric} analytic {analytic}"
            );
        }
    }

    #[test]
    fn fused_qkv_matches_three_matmuls() {
        // The fused wide GEMM is the production path; pin it bit-identical
        // to the three-matmul reference it replaced.
        let mut rng = SeededRng::new(21);
        let attn = Attention::new(16, &mut rng);
        let x = Matrix::random_normal(9, 16, 1.0, &mut rng);
        let (q, k, v) = attn.project_qkv(&x);
        assert_eq!(q, x.matmul(&attn.wq));
        assert_eq!(k, x.matmul(&attn.wk));
        assert_eq!(v, x.matmul(&attn.wv));
        // The cache is built exactly once and reused.
        let fused_ptr = attn.fused_qkv() as *const Matrix;
        let _ = attn.forward(&x);
        assert_eq!(attn.fused_qkv() as *const Matrix, fused_ptr);
    }

    #[test]
    fn clone_and_invalidate_reset_the_fused_cache() {
        let mut rng = SeededRng::new(22);
        let mut attn = Attention::new(8, &mut rng);
        let x = Matrix::random_normal(3, 8, 1.0, &mut rng);
        let (before, _) = attn.forward(&x); // populates the cache
        let cloned = attn.clone();
        assert!(cloned.fused_qkv.get().is_none(), "clone inherited cache");
        assert_eq!(cloned.forward(&x).0, before);
        // In-place mutation + invalidate: the next forward must see the new
        // weights instead of the stale fused concatenation.
        attn.wq = Matrix::zeros(8, 8);
        attn.invalidate_fused();
        let (after, _) = attn.forward(&x);
        assert_ne!(after, before);
        let reference = Attention::from_parts(
            attn.wq.clone(),
            attn.wk.clone(),
            attn.wv.clone(),
            attn.wo.clone(),
        );
        assert_eq!(reference.forward(&x).0, after);
    }

    #[test]
    fn num_params_accounting() {
        let mut rng = SeededRng::new(6);
        let attn = Attention::new(16, &mut rng);
        assert_eq!(attn.num_params(), 4 * 16 * 16);
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
        let (out_a, cache_a) = attn.forward(&a);
        let (out_b, cache_b) = attn.forward(&b);
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
        let (_, cache_a) = attn.forward(&a);
        let (_, cache_b) = attn.forward(&b);
        let grad_a = attn.backward(&cache_a, &grad.copy_rows(0, 4));
        let grad_b = attn.backward(&cache_b, &grad.copy_rows(4, 10));
        assert_eq!(grad_in.copy_rows(0, 4), grad_a);
        assert_eq!(grad_in.copy_rows(4, 10), grad_b);
    }
}
