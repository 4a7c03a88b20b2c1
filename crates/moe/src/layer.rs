//! MoE feed-forward layers and full transformer blocks.

use std::collections::HashMap;

use threadpool::ThreadPool;

use flux_tensor::{ops, Matrix, SeededRng};

use crate::attention::{Attention, AttentionBatchCache, AttentionCache};
use crate::expert::{Expert, ExpertCache, ExpertGrad};
use crate::gating::{Gate, RoutingMap};
use crate::tracker::ActivationTracker;

/// Epsilon used by all layer norms in the model.
pub const LN_EPS: f32 = 1e-5;

/// Minimum number of fused multiply-adds in a layer's routed expert work
/// before the per-expert batches are fanned out to worker threads. Below
/// this, thread spawn cost dwarfs the matmuls (the tiny test models stay
/// sequential); above it, expert batches are embarrassingly parallel.
const EXPERT_PARALLEL_FLOP_THRESHOLD: usize = 1 << 21;

/// Pool used for per-expert fan-out: the shared `FLUX_THREADS`-sized pool
/// when the routed work is heavy enough, otherwise an inline single-thread
/// pool. Results are always reduced in ascending compact-expert order, so
/// the choice affects wall time only — never the output bits.
fn expert_pool(routed_rows: usize, d_model: usize, d_ff: usize, experts_used: usize) -> ThreadPool {
    let flops = 4 * routed_rows * d_model * d_ff;
    if experts_used > 1 && flops >= EXPERT_PARALLEL_FLOP_THRESHOLD {
        ThreadPool::from_env()
    } else {
        ThreadPool::new(1)
    }
}

thread_local! {
    static EXPERT_FANOUTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Expert fan-outs started on this thread so far: one per MoE sub-layer
/// forward that ran its routed experts. A count of work, for tests that
/// hold "this call skips the layers it cannot change" to a number instead
/// of a timing; only differences between two readings mean anything.
pub fn expert_fanouts() -> usize {
    EXPERT_FANOUTS.with(|c| c.get())
}

/// `(compact expert, token rows, routing weights)` per expert that received
/// at least one row, in ascending compact-expert order.
type RoutedGroups = Vec<(usize, Vec<usize>, Vec<f32>)>;

/// The MoE feed-forward sub-layer: a gate over the *original* expert ids plus
/// the (possibly merged/compact) expert list and the routing map connecting
/// the two.
#[derive(Debug, Clone, PartialEq)]
pub struct MoeLayer {
    /// Gating network producing logits over the original expert ids.
    pub gate: Gate,
    /// Experts actually materialized on this device (compact ids).
    pub experts: Vec<Expert>,
    /// Original→compact redirection (identity for a pristine model).
    pub routing_map: RoutingMap,
}

/// Per-layer forward cache needed for the backward pass.
#[derive(Debug, Clone)]
pub struct MoeLayerCache {
    /// For each compact expert used: the rows (token indices), routing
    /// weights, and the expert's forward cache.
    pub expert_batches: HashMap<usize, ExpertBatch>,
    /// Shape of the MoE sub-layer input (the backward pass only needs the
    /// dimensions; the per-expert caches hold the routed activations).
    pub input_shape: (usize, usize),
}

/// Tokens routed to a single compact expert within one forward pass.
#[derive(Debug, Clone)]
pub struct ExpertBatch {
    /// Token (row) indices in the sequence.
    pub token_rows: Vec<usize>,
    /// Routing weight each token assigned to this expert.
    pub weights: Vec<f32>,
    /// The expert's forward cache over those rows.
    pub cache: ExpertCache,
}

impl MoeLayer {
    /// Creates a pristine MoE layer with `num_experts` experts.
    pub fn new(
        d_model: usize,
        d_ff: usize,
        num_experts: usize,
        top_k: usize,
        rng: &mut SeededRng,
    ) -> Self {
        let experts = (0..num_experts)
            .map(|_| Expert::new(d_model, d_ff, rng))
            .collect();
        Self {
            gate: Gate::new(d_model, num_experts, top_k, rng),
            experts,
            routing_map: RoutingMap::identity(num_experts),
        }
    }

    /// Number of experts materialized (compact count).
    pub fn num_experts(&self) -> usize {
        self.experts.len()
    }

    /// Number of original experts the gate routes over.
    pub fn num_original_experts(&self) -> usize {
        self.gate.num_experts()
    }

    /// Hidden width the layer operates on.
    fn d_model(&self) -> usize {
        self.gate.weight.rows()
    }

    /// Expert feed-forward width (0 for a layer with no experts).
    fn d_ff(&self) -> usize {
        self.experts.first().map(|e| e.d_ff()).unwrap_or(0)
    }

    /// Forward pass over `(seq, d_model)` hidden states.
    ///
    /// `received_attention` carries the per-token attention scores from the
    /// attention sub-layer (used only for tracking). When a tracker is
    /// given, routing events are recorded against it under `layer_idx`.
    pub fn forward(
        &self,
        hidden: &Matrix,
        layer_idx: usize,
        received_attention: &[f32],
        tracker: Option<&mut ActivationTracker>,
    ) -> (Matrix, MoeLayerCache) {
        let seq = hidden.rows();
        let groups = self.route_and_group(hidden, layer_idx, received_attention, tracker, None);
        EXPERT_FANOUTS.with(|c| c.set(c.get() + 1));
        // Run each used expert on its token batch — fanned out to worker
        // threads when the routed work warrants it — then scatter results
        // sequentially in ascending expert order.
        let routed_rows: usize = groups.iter().map(|(_, rows, _)| rows.len()).sum();
        let pool = expert_pool(routed_rows, self.d_model(), self.d_ff(), groups.len());
        let tasks: Vec<_> = groups
            .into_iter()
            .map(|(compact, rows, weights)| {
                let experts = &self.experts;
                move || {
                    let batch_input = hidden.select_rows(&rows);
                    let (batch_output, cache) = experts[compact].forward_owned(batch_input);
                    (compact, rows, weights, batch_output, cache)
                }
            })
            .collect();
        let mut output = Matrix::zeros(seq, hidden.cols());
        let mut expert_batches = HashMap::new();
        for (compact, rows, weights, batch_output, cache) in pool.run(tasks) {
            for (slot, (&row, &w)) in rows.iter().zip(weights.iter()).enumerate() {
                let out_row = output.row_mut(row);
                for (o, &v) in out_row.iter_mut().zip(batch_output.row(slot)) {
                    *o += w * v;
                }
            }
            expert_batches.insert(
                compact,
                ExpertBatch {
                    token_rows: rows,
                    weights,
                    cache,
                },
            );
        }
        (
            output,
            MoeLayerCache {
                expert_batches,
                input_shape: hidden.shape(),
            },
        )
    }

    /// Routes every token and groups the routed rows by compact expert —
    /// the shared front half of [`MoeLayer::forward`] and
    /// [`MoeLayer::forward_no_cache`], including tracker recording. The
    /// ordered map fixes the expert iteration (and hence float
    /// accumulation) order, which keeps runs bit-identical across
    /// processes and thread counts.
    ///
    /// Routing reuses per-token buffers instead of building
    /// [`TokenRouting`] values: the softmax, stable top-k selection and
    /// renormalized weights follow [`Gate::route`]'s arithmetic exactly,
    /// without its three heap allocations per token (a measurable share of
    /// the forward pass at small model widths). The top-k picks run as a
    /// k-pass stable selection — highest probability first, earlier index
    /// on ties — which selects exactly the same experts in exactly the
    /// same order as the stable descending sort it replaces, without
    /// sorting the full candidate set per token; and the groups accumulate
    /// into a compact-indexed slot table rather than a tree map, removing
    /// the per-token-per-expert map lookups.
    ///
    /// `row_samples`, when given, maps each packed row to its sample id so
    /// a tracker attributes routed tokens correctly inside a multi-sample
    /// batch (the batched profiling path).
    ///
    /// Returns `(compact_expert, token_rows, routing_weights)` triples in
    /// ascending compact-expert order — the fixed iteration (and float
    /// accumulation) order that keeps runs bit-identical across processes
    /// and thread counts.
    fn route_and_group(
        &self,
        hidden: &Matrix,
        layer_idx: usize,
        received_attention: &[f32],
        mut tracker: Option<&mut ActivationTracker>,
        row_samples: Option<&[usize]>,
    ) -> RoutedGroups {
        let num_experts = self.gate.num_experts();
        let k = self.gate.top_k.min(num_experts);
        let logits = hidden.matmul(&self.gate.weight);
        let mut probs = vec![0.0f32; num_experts];
        let mut top: Vec<usize> = Vec::with_capacity(k);
        let mut slots: Vec<(Vec<usize>, Vec<f32>)> =
            vec![(Vec::new(), Vec::new()); self.experts.len()];
        for row in 0..hidden.rows() {
            let logit_row = logits.row(row);
            // Softmax with `ops::softmax_row`'s exact arithmetic.
            let max = logit_row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            for (p, &x) in probs.iter_mut().zip(logit_row) {
                *p = (x - max).exp();
            }
            let sum: f32 = probs.iter().sum();
            if sum <= 0.0 || !sum.is_finite() {
                probs.fill(1.0 / num_experts as f32);
            } else {
                for p in &mut probs {
                    *p /= sum;
                }
            }
            // Stable top-k selection: the same picks, in the same order, as
            // a stable descending sort (`stats::top_k_indices`) — greatest
            // probability wins, the earlier index wins ties.
            top.clear();
            for _ in 0..k {
                let mut best: Option<usize> = None;
                for i in 0..num_experts {
                    if top.contains(&i) {
                        continue;
                    }
                    match best {
                        Some(b) if probs[i] <= probs[b] => {}
                        _ => best = Some(i),
                    }
                }
                top.push(best.expect("k <= num_experts"));
            }
            let mass: f32 = top.iter().map(|&i| probs[i]).sum();
            if let Some(t) = tracker.as_deref_mut() {
                if let Some(rows) = row_samples {
                    t.begin_sample(rows[row]);
                }
                t.record_layer_token(layer_idx);
            }
            for &original in &top {
                let weight = if mass > 0.0 {
                    probs[original] / mass
                } else {
                    1.0 / k as f32
                };
                let compact = self.routing_map.redirect(original);
                let entry = &mut slots[compact];
                entry.0.push(row);
                entry.1.push(weight);
                if let Some(t) = tracker.as_deref_mut() {
                    let att = received_attention.get(row).copied().unwrap_or(0.0);
                    t.record(layer_idx, original, att);
                }
            }
        }
        slots
            .into_iter()
            .enumerate()
            .filter(|(_, (rows, _))| !rows.is_empty())
            .map(|(compact, (rows, weights))| (compact, rows, weights))
            .collect()
    }

    /// Forward pass that keeps no backward cache (inference, profiling and
    /// loss-probe paths). Routing, tracking and output are identical to
    /// [`MoeLayer::forward`]; the expert activations are simply not
    /// retained, which removes the cache clones from every loss-only call.
    pub fn forward_no_cache(
        &self,
        hidden: &Matrix,
        layer_idx: usize,
        received_attention: &[f32],
        tracker: Option<&mut ActivationTracker>,
    ) -> Matrix {
        let groups = self.route_and_group(hidden, layer_idx, received_attention, tracker, None);
        self.run_routed(hidden, groups)
    }

    /// The back half of the no-cache forward: every routed expert runs on
    /// its rows and the weighted outputs scatter back in ascending expert
    /// order.
    fn run_routed(&self, hidden: &Matrix, groups: RoutedGroups) -> Matrix {
        EXPERT_FANOUTS.with(|c| c.set(c.get() + 1));
        let routed_rows: usize = groups.iter().map(|(_, rows, _)| rows.len()).sum();
        let pool = expert_pool(routed_rows, self.d_model(), self.d_ff(), groups.len());
        let tasks: Vec<_> = groups
            .into_iter()
            .map(|(compact, rows, weights)| {
                let experts = &self.experts;
                move || {
                    let batch_input = hidden.select_rows(&rows);
                    let batch_output = experts[compact].forward_no_cache(&batch_input);
                    (rows, weights, batch_output)
                }
            })
            .collect();
        let mut output = Matrix::zeros(hidden.rows(), hidden.cols());
        for (rows, weights, batch_output) in pool.run(tasks) {
            for (slot, (&row, &w)) in rows.iter().zip(weights.iter()).enumerate() {
                let out_row = output.row_mut(row);
                for (o, &v) in out_row.iter_mut().zip(batch_output.row(slot)) {
                    *o += w * v;
                }
            }
        }
        output
    }

    /// Backward pass.
    ///
    /// Computes parameter gradients for the compact experts listed in
    /// `tuning_experts` (pass `None` to collect gradients for every expert)
    /// and, when `want_input` is set, the gradient with respect to the layer
    /// input. Each routed expert runs only the half of its backward that
    /// somebody reads: a frozen expert contributes its input gradient
    /// alone, a tuned expert in the lowest tuned layer (`want_input` unset)
    /// its parameter gradient alone, and a frozen expert there is skipped.
    pub fn backward(
        &self,
        cache: &MoeLayerCache,
        grad_output: &Matrix,
        tuning_experts: Option<&[usize]>,
        want_input: bool,
    ) -> (HashMap<usize, ExpertGrad>, Option<Matrix>) {
        // Ascending expert order, mirroring the forward pass: deterministic
        // float accumulation and a stable parallel reduction order.
        let mut batches: Vec<(usize, &ExpertBatch, bool)> = cache
            .expert_batches
            .iter()
            .map(|(&compact, batch)| {
                let tuned = tuning_experts.is_none_or(|set| set.contains(&compact));
                (compact, batch, tuned)
            })
            .filter(|&(_, _, tuned)| tuned || want_input)
            .collect();
        batches.sort_unstable_by_key(|&(compact, _, _)| compact);
        let routed_rows: usize = batches.iter().map(|(_, b, _)| b.token_rows.len()).sum();
        let pool = expert_pool(routed_rows, self.d_model(), self.d_ff(), batches.len());
        let tasks: Vec<_> = batches
            .into_iter()
            .map(|(compact, batch, tuned)| {
                let expert = &self.experts[compact];
                move || {
                    // Gather the upstream gradient rows for this expert,
                    // scaled by the routing weight each token assigned to it.
                    let mut grad_rows = Matrix::zeros(batch.token_rows.len(), grad_output.cols());
                    for (slot, (&row, &w)) in batch
                        .token_rows
                        .iter()
                        .zip(batch.weights.iter())
                        .enumerate()
                    {
                        for (o, &g) in grad_rows.row_mut(slot).iter_mut().zip(grad_output.row(row))
                        {
                            *o = w * g;
                        }
                    }
                    let (grad, grad_batch_input) =
                        expert.backward_parts(&batch.cache, &grad_rows, tuned, want_input);
                    (compact, batch, grad, grad_batch_input)
                }
            })
            .collect();
        let mut grad_input =
            want_input.then(|| Matrix::zeros(cache.input_shape.0, cache.input_shape.1));
        let mut expert_grads = HashMap::new();
        for (compact, batch, grad, grad_batch_input) in pool.run(tasks) {
            // Scatter the input gradient back to the token rows.
            if let (Some(grad_input), Some(grad_batch_input)) = (&mut grad_input, grad_batch_input)
            {
                for (slot, &row) in batch.token_rows.iter().enumerate() {
                    for (o, &g) in grad_input
                        .row_mut(row)
                        .iter_mut()
                        .zip(grad_batch_input.row(slot))
                    {
                        *o += g;
                    }
                }
            }
            if let Some(grad) = grad {
                expert_grads.insert(compact, grad);
            }
        }
        (expert_grads, grad_input)
    }
}

/// One transformer block: pre-norm attention followed by a pre-norm MoE FFN,
/// both with residual connections.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerLayer {
    /// Self-attention sub-layer (frozen during federated fine-tuning).
    pub attention: Attention,
    /// MoE feed-forward sub-layer.
    pub moe: MoeLayer,
}

/// Forward cache of one transformer block.
#[derive(Debug, Clone)]
pub struct TransformerLayerCache {
    input: Matrix,
    attn_cache: AttentionCache,
    post_attention: Matrix,
    moe_cache: MoeLayerCache,
    /// Per-token attention received, exposed for importance tracking.
    pub received_attention: Vec<f32>,
}

/// Forward cache of one transformer block over a packed multi-sample batch.
///
/// Identical to [`TransformerLayerCache`] except that the attention cache
/// holds per-sample score blocks and no received-attention vector is kept
/// (that signal only feeds activation trackers, which the batched training
/// path never carries); the MoE cache is row-generic and is shared between
/// both paths.
#[derive(Debug, Clone)]
pub struct TransformerLayerBatchCache {
    input: Matrix,
    attn_cache: AttentionBatchCache,
    post_attention: Matrix,
    moe_cache: MoeLayerCache,
}

impl TransformerLayer {
    /// Creates a block with `num_experts` experts.
    pub fn new(
        d_model: usize,
        d_ff: usize,
        num_experts: usize,
        top_k: usize,
        rng: &mut SeededRng,
    ) -> Self {
        Self {
            attention: Attention::new(d_model, rng),
            moe: MoeLayer::new(d_model, d_ff, num_experts, top_k, rng),
        }
    }

    /// Forward pass over `(seq, d_model)` hidden states.
    pub fn forward(
        &self,
        input: &Matrix,
        layer_idx: usize,
        tracker: Option<&mut ActivationTracker>,
    ) -> (Matrix, TransformerLayerCache) {
        let attn_in = ops::layer_norm(input, LN_EPS);
        let (attn_out, attn_cache) = self.attention.forward(&attn_in);
        let received = attn_cache.received_attention();
        let post_attention = input.add(&attn_out).expect("residual shapes match");
        let moe_in = ops::layer_norm(&post_attention, LN_EPS);
        let (moe_out, moe_cache) = self.moe.forward(&moe_in, layer_idx, &received, tracker);
        let output = post_attention.add(&moe_out).expect("residual shapes match");
        (
            output,
            TransformerLayerCache {
                input: input.clone(),
                attn_cache,
                post_attention,
                moe_cache,
                received_attention: received,
            },
        )
    }

    /// Forward pass that keeps no backward cache (see
    /// [`MoeLayer::forward_no_cache`]). Numerically identical to
    /// [`TransformerLayer::forward`].
    pub fn forward_no_cache(
        &self,
        input: &Matrix,
        layer_idx: usize,
        tracker: Option<&mut ActivationTracker>,
    ) -> Matrix {
        let attn_in = ops::layer_norm(input, LN_EPS);
        let (attn_out, received) = self.attention.forward_no_cache(&attn_in);
        let post_attention = input.add(&attn_out).expect("residual shapes match");
        let moe_in = ops::layer_norm(&post_attention, LN_EPS);
        let moe_out = self
            .moe
            .forward_no_cache(&moe_in, layer_idx, &received, tracker);
        post_attention.add(&moe_out).expect("residual shapes match")
    }

    /// Batched forward pass over a packed `(total_tokens, d_model)` batch.
    ///
    /// Layer norms, gating and the expert GEMMs are row-parallel and run
    /// over the whole packed batch (each routed expert sees one wide batch
    /// of rows drawn from every sample); only the attention scores are
    /// computed per sample via [`Attention::forward_batch`]. The training
    /// path keeps no tracker, so none is taken here and the per-token
    /// received attention is not extracted (it is a tracker-only signal) —
    /// profiling stays on the tracked batched no-cache path.
    ///
    /// `input` is taken by value and moved into the returned cache (the
    /// backward pass needs it for the layer-norm backward); callers chain
    /// `hidden` through the layers, so the move replaces a full
    /// activation-matrix clone per layer per step.
    pub fn forward_batch(
        &self,
        input: Matrix,
        bounds: &[(usize, usize)],
        layer_idx: usize,
    ) -> (Matrix, TransformerLayerBatchCache) {
        let attn_in = ops::layer_norm(&input, LN_EPS);
        let (attn_out, attn_cache) = self.attention.forward_batch(&attn_in, bounds);
        let post_attention = input.add(&attn_out).expect("residual shapes match");
        let moe_in = ops::layer_norm(&post_attention, LN_EPS);
        let (moe_out, moe_cache) = self.moe.forward(&moe_in, layer_idx, &[], None);
        let output = post_attention.add(&moe_out).expect("residual shapes match");
        (
            output,
            TransformerLayerBatchCache {
                input,
                attn_cache,
                post_attention,
                moe_cache,
            },
        )
    }

    /// Batched forward pass that keeps no backward cache (loss probes,
    /// batched evaluation and batched profiling).
    ///
    /// `tracking` carries the activation tracker plus the row→sample map of
    /// the packed batch; the per-token received attention is only computed
    /// when a tracker wants it.
    pub fn forward_no_cache_batch(
        &self,
        input: &Matrix,
        bounds: &[(usize, usize)],
        layer_idx: usize,
        tracking: Option<(&mut ActivationTracker, &[usize])>,
    ) -> Matrix {
        let (post_attention, moe_in, groups) = self.route_batch(input, bounds, layer_idx, tracking);
        self.finish_batch(&post_attention, &moe_in, groups)
    }

    /// [`TransformerLayer::forward_no_cache_batch`] that also reports which
    /// compact experts received at least one row (ascending) — what a
    /// recorded forward keeps to tell, later, whether perturbing an expert
    /// can change anything downstream.
    pub(crate) fn forward_recording_batch(
        &self,
        input: &Matrix,
        bounds: &[(usize, usize)],
        layer_idx: usize,
    ) -> (Matrix, Vec<usize>) {
        let (post_attention, moe_in, groups) = self.route_batch(input, bounds, layer_idx, None);
        let routed = groups.iter().map(|&(compact, _, _)| compact).collect();
        (self.finish_batch(&post_attention, &moe_in, groups), routed)
    }

    /// The front half of the no-cache batched forward, up to and including
    /// the routing decisions (recorded into the tracker when one is given):
    /// the post-attention residual stream, the MoE sub-layer input and the
    /// routed groups. Activation profiling calls this alone on the last
    /// block, whose expert outputs no routing decision reads.
    pub(crate) fn route_batch(
        &self,
        input: &Matrix,
        bounds: &[(usize, usize)],
        layer_idx: usize,
        tracking: Option<(&mut ActivationTracker, &[usize])>,
    ) -> (Matrix, Matrix, RoutedGroups) {
        let attn_in = ops::layer_norm(input, LN_EPS);
        let (attn_out, attn_cache) = self.attention.forward_batch(&attn_in, bounds);
        let post_attention = input.add(&attn_out).expect("residual shapes match");
        let moe_in = ops::layer_norm(&post_attention, LN_EPS);
        let groups = match tracking {
            Some((tracker, row_samples)) => self.moe.route_and_group(
                &moe_in,
                layer_idx,
                &attn_cache.received_attention(),
                Some(tracker),
                Some(row_samples),
            ),
            None => self
                .moe
                .route_and_group(&moe_in, layer_idx, &[], None, None),
        };
        (post_attention, moe_in, groups)
    }

    /// The back half: the routed experts run and their output joins the
    /// residual stream.
    fn finish_batch(
        &self,
        post_attention: &Matrix,
        moe_in: &Matrix,
        groups: RoutedGroups,
    ) -> Matrix {
        let moe_out = self.moe.run_routed(moe_in, groups);
        post_attention.add(&moe_out).expect("residual shapes match")
    }

    /// Batched backward pass mirroring [`TransformerLayer::backward`]; the
    /// MoE backward is row-generic and shared, only the attention backward
    /// walks the per-sample blocks.
    pub fn backward_batch(
        &self,
        cache: &TransformerLayerBatchCache,
        bounds: &[(usize, usize)],
        grad_output: &Matrix,
        tuning_experts: Option<&[usize]>,
        want_input: bool,
    ) -> (HashMap<usize, ExpertGrad>, Option<Matrix>) {
        // output = post_attention + moe(ln(post_attention)).
        let (expert_grads, grad_moe_in) =
            self.moe
                .backward(&cache.moe_cache, grad_output, tuning_experts, want_input);
        // Nothing trainable lies below: no reader for the input gradient.
        let Some(grad_moe_in) = grad_moe_in else {
            return (expert_grads, None);
        };
        let mut grad_post_attention = grad_output.clone();
        let grad_from_moe = ops::layer_norm_backward(&cache.post_attention, &grad_moe_in, LN_EPS);
        grad_post_attention
            .add_scaled(&grad_from_moe, 1.0)
            .expect("same shape");
        // post_attention = input + attention(ln(input)).
        let grad_attn_in =
            self.attention
                .backward_batch(&cache.attn_cache, bounds, &grad_post_attention);
        let mut grad_input = grad_post_attention;
        let grad_from_attention = ops::layer_norm_backward(&cache.input, &grad_attn_in, LN_EPS);
        grad_input
            .add_scaled(&grad_from_attention, 1.0)
            .expect("same shape");
        (expert_grads, Some(grad_input))
    }

    /// Backward pass returning expert gradients (for the selected tuning
    /// experts) and, when `want_input` is set, the gradient with respect to
    /// the block input. The block's own parameters besides the experts
    /// (attention, gate) are frozen, so without `want_input` — the lowest
    /// tuned layer, below which nothing is trainable — the attention and
    /// layer-norm backwards are not run at all.
    pub fn backward(
        &self,
        cache: &TransformerLayerCache,
        grad_output: &Matrix,
        tuning_experts: Option<&[usize]>,
        want_input: bool,
    ) -> (HashMap<usize, ExpertGrad>, Option<Matrix>) {
        // output = post_attention + moe(ln(post_attention)).
        let (expert_grads, grad_moe_in) =
            self.moe
                .backward(&cache.moe_cache, grad_output, tuning_experts, want_input);
        // Nothing trainable lies below: no reader for the input gradient.
        let Some(grad_moe_in) = grad_moe_in else {
            return (expert_grads, None);
        };
        let mut grad_post_attention = grad_output.clone();
        let grad_from_moe = ops::layer_norm_backward(&cache.post_attention, &grad_moe_in, LN_EPS);
        grad_post_attention
            .add_scaled(&grad_from_moe, 1.0)
            .expect("same shape");
        // post_attention = input + attention(ln(input)).
        let grad_attn_in = self
            .attention
            .backward(&cache.attn_cache, &grad_post_attention);
        let mut grad_input = grad_post_attention;
        let grad_from_attention = ops::layer_norm_backward(&cache.input, &grad_attn_in, LN_EPS);
        grad_input
            .add_scaled(&grad_from_attention, 1.0)
            .expect("same shape");
        (expert_grads, Some(grad_input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(seed: u64) -> MoeLayer {
        let mut rng = SeededRng::new(seed);
        MoeLayer::new(8, 16, 4, 2, &mut rng)
    }

    #[test]
    fn moe_forward_shapes_and_tracking() {
        let l = layer(1);
        let mut rng = SeededRng::new(2);
        let hidden = Matrix::random_normal(6, 8, 1.0, &mut rng);
        let mut tracker = ActivationTracker::new(vec![4]);
        tracker.begin_sample(0);
        let received = vec![0.1; 6];
        let (out, cache) = l.forward(&hidden, 0, &received, Some(&mut tracker));
        assert_eq!(out.shape(), (6, 8));
        // Every token contributed top_k routed rows across the expert batches.
        let routed_rows: usize = cache
            .expert_batches
            .values()
            .map(|b| b.token_rows.len())
            .sum();
        assert_eq!(routed_rows, 6 * 2);
        let profile = tracker.finish();
        // With top-2 routing, per-layer frequencies sum to ~2.
        let total: f32 = profile.frequencies[0].iter().sum();
        assert!((total - 2.0).abs() < 1e-4, "total = {total}");
    }

    #[test]
    fn moe_backward_produces_grads_for_used_experts() {
        let l = layer(3);
        let mut rng = SeededRng::new(4);
        let hidden = Matrix::random_normal(5, 8, 1.0, &mut rng);
        let (_, cache) = l.forward(&hidden, 0, &[0.0; 5], None);
        let grad_out = Matrix::filled(5, 8, 1.0);
        let (grads, grad_in) = l.backward(&cache, &grad_out, None, true);
        assert_eq!(grad_in.expect("input gradient asked for").shape(), (5, 8));
        assert!(!grads.is_empty());
        for (compact, grad) in &grads {
            assert!(*compact < l.num_experts());
            assert!(grad.token_count > 0);
            assert!(grad.norm() > 0.0);
        }
    }

    #[test]
    fn moe_backward_respects_tuning_set() {
        let l = layer(5);
        let mut rng = SeededRng::new(6);
        let hidden = Matrix::random_normal(8, 8, 1.0, &mut rng);
        let (_, cache) = l.forward(&hidden, 0, &[0.0; 8], None);
        let grad_out = Matrix::filled(8, 8, 1.0);
        let (all, _) = l.backward(&cache, &grad_out, None, true);
        let only_zero = [0usize];
        let (restricted, _) = l.backward(&cache, &grad_out, Some(&only_zero), true);
        assert!(restricted.len() <= all.len());
        assert!(restricted.keys().all(|&k| k == 0));
    }

    #[test]
    fn moe_backward_runs_only_the_halves_somebody_reads() {
        use crate::expert::PARAM_GRAD_CALLS;
        let l = layer(30);
        let mut rng = SeededRng::new(31);
        let hidden = Matrix::random_normal(9, 8, 1.0, &mut rng);
        let (_, cache) = l.forward(&hidden, 0, &[0.0; 9], None);
        let grad_out = Matrix::random_normal(9, 8, 1.0, &mut rng);
        let routed: Vec<usize> = cache.expert_batches.keys().copied().collect();
        assert!(routed.len() >= 2, "the seed must route to several experts");
        // One parameter-gradient computation per routed expert, counted on
        // this thread (the tiny layer never fans out).
        let param_grads = |f: &dyn Fn()| {
            PARAM_GRAD_CALLS.with(|c| c.set(0));
            f();
            PARAM_GRAD_CALLS.with(|c| c.get())
        };
        let (all, full_input) = l.backward(&cache, &grad_out, None, true);
        let full_input = full_input.expect("input gradient asked for");
        assert_eq!(
            param_grads(&|| drop(l.backward(&cache, &grad_out, None, true))),
            routed.len()
        );
        // A tuning set: parameter gradients for its routed members only,
        // bit-identical to the full backward's, and the same input gradient
        // (frozen experts still pass theirs down).
        let tuned = [routed[0], l.num_experts() + 7];
        assert_eq!(
            param_grads(&|| {
                let (grads, input) = l.backward(&cache, &grad_out, Some(&tuned), true);
                assert_eq!(grads.len(), 1);
                assert_eq!(grads[&routed[0]], all[&routed[0]]);
                assert_eq!(input.as_ref(), Some(&full_input));
            }),
            1
        );
        // The lowest tuned layer: no input gradient, same parameter gradients.
        assert_eq!(
            param_grads(&|| {
                let (grads, input) = l.backward(&cache, &grad_out, Some(&tuned), false);
                assert_eq!(grads.len(), 1);
                assert_eq!(grads[&routed[0]], all[&routed[0]]);
                assert!(input.is_none());
            }),
            1
        );
        let (grads, input) = l.backward(&cache, &grad_out, None, false);
        assert_eq!(grads, all);
        assert!(input.is_none());
    }

    #[test]
    fn moe_gradient_matches_finite_difference_through_routing() {
        // Use top-1 routing so the loss is locally smooth in expert params.
        let mut rng = SeededRng::new(7);
        let mut l = MoeLayer::new(6, 12, 3, 1, &mut rng);
        let hidden = Matrix::random_normal(4, 6, 1.0, &mut rng);
        let (_, cache) = l.forward(&hidden, 0, &[0.0; 4], None);
        let grad_out = Matrix::filled(4, 6, 1.0);
        let (grads, _) = l.backward(&cache, &grad_out, None, true);
        let (&expert_id, grad) = grads.iter().next().unwrap();
        let loss = |l: &MoeLayer| l.forward(&hidden, 0, &[0.0; 4], None).0.sum();
        let eps = 1e-2;
        let base_w = l.experts[expert_id].w2.get(0, 0);
        l.experts[expert_id].w2.set(0, 0, base_w + eps);
        let plus = loss(&l);
        l.experts[expert_id].w2.set(0, 0, base_w - eps);
        let minus = loss(&l);
        l.experts[expert_id].w2.set(0, 0, base_w);
        let numeric = (plus - minus) / (2.0 * eps);
        let analytic = grad.w2.get(0, 0);
        assert!(
            (numeric - analytic).abs() < 0.1 * numeric.abs().max(0.5),
            "numeric {numeric} analytic {analytic}"
        );
    }

    #[test]
    fn inlined_routing_matches_gate_route_all() {
        // The forward path's allocation-free routing (route_and_group)
        // duplicates Gate::route's softmax/top-k/renormalize arithmetic;
        // this pins the two implementations to each other bit for bit.
        // Merged routing map so the original→compact redirect is exercised.
        let mut l = layer(20);
        let merged = Expert::weighted_merge(&[&l.experts[1], &l.experts[3]], &[1.0, 1.0]);
        l.experts.truncate(3);
        l.experts[1] = merged;
        l.routing_map = RoutingMap::from_table(vec![0, 1, 2, 1]);
        let mut rng = SeededRng::new(21);
        let hidden = Matrix::random_normal(12, 8, 1.5, &mut rng);
        let (_, cache) = l.forward(&hidden, 0, &[0.0; 12], None);
        // Rebuild the expected per-expert groups from the reference path.
        let mut expected: std::collections::BTreeMap<usize, (Vec<usize>, Vec<f32>)> =
            std::collections::BTreeMap::new();
        for (row, routing) in l.gate.route_all(&hidden).iter().enumerate() {
            for (slot, &original) in routing.experts.iter().enumerate() {
                let entry = expected
                    .entry(l.routing_map.redirect(original))
                    .or_default();
                entry.0.push(row);
                entry.1.push(routing.weights[slot]);
            }
        }
        assert_eq!(
            cache.expert_batches.len(),
            expected.len(),
            "expert coverage diverged"
        );
        for (compact, (rows, weights)) in &expected {
            let batch = &cache.expert_batches[compact];
            assert_eq!(&batch.token_rows, rows, "rows of expert {compact}");
            assert_eq!(&batch.weights, weights, "weights of expert {compact}");
        }
    }

    #[test]
    fn routing_map_redirects_to_merged_expert() {
        let mut l = layer(8);
        // Merge experts 2 and 3 into a single expert (compact id 2).
        let merged = Expert::weighted_merge(&[&l.experts[2], &l.experts[3]], &[1.0, 1.0]);
        l.experts.truncate(2);
        l.experts.push(merged);
        l.routing_map = RoutingMap::from_table(vec![0, 1, 2, 2]);
        let mut rng = SeededRng::new(9);
        let hidden = Matrix::random_normal(10, 8, 1.0, &mut rng);
        let (out, cache) = l.forward(&hidden, 0, &[0.0; 10], None);
        assert_eq!(out.shape(), (10, 8));
        // No batch may reference a compact expert >= 3.
        assert!(cache.expert_batches.keys().all(|&c| c < 3));
    }

    #[test]
    fn transformer_layer_forward_backward_shapes() {
        let mut rng = SeededRng::new(10);
        let block = TransformerLayer::new(8, 16, 4, 2, &mut rng);
        let x = Matrix::random_normal(5, 8, 1.0, &mut rng);
        let (y, cache) = block.forward(&x, 0, None);
        assert_eq!(y.shape(), (5, 8));
        assert_eq!(cache.received_attention.len(), 5);
        let grad_out = Matrix::filled(5, 8, 1.0);
        let (grads, grad_in) = block.backward(&cache, &grad_out, None, true);
        assert_eq!(grad_in.expect("input gradient asked for").shape(), (5, 8));
        assert!(!grads.is_empty());
        // Below the lowest tuned layer nothing is trainable: same expert
        // gradients, no input gradient.
        let (lowest, none) = block.backward(&cache, &grad_out, None, false);
        assert_eq!(lowest, grads);
        assert!(none.is_none());
    }

    #[test]
    fn transformer_layer_input_gradient_is_nonzero() {
        // The residual path alone guarantees gradient flow to the input.
        let mut rng = SeededRng::new(11);
        let block = TransformerLayer::new(8, 16, 4, 2, &mut rng);
        let x = Matrix::random_normal(4, 8, 1.0, &mut rng);
        let (_, cache) = block.forward(&x, 0, None);
        let (_, grad_in) = block.backward(&cache, &Matrix::filled(4, 8, 1.0), None, true);
        assert!(grad_in.expect("input gradient asked for").frobenius_norm() > 0.0);
    }
}
