//! The full MoE transformer model.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use flux_data::{Dataset, Sample, Task};
use flux_metrics::rouge_l;
use flux_quant::BitWidth;
use flux_tensor::codec::{fnv_bytes, FNV_OFFSET};
use flux_tensor::{init, ops, stats, Matrix, SeededRng};
use threadpool::ThreadPool;

use crate::batch::PackedBatch;
use crate::config::MoeConfig;
use crate::expert::{Expert, ExpertGrad};
use crate::gating::RoutingMap;
use crate::layer::{TransformerLayer, TransformerLayerBatchCache, TransformerLayerCache, LN_EPS};
use crate::quantized::QuantizedMoe;
use crate::tracker::{ActivationProfile, ActivationTracker, ExpertKey};

/// Samples evaluated per packed forward pass during [`MoeModel::evaluate`]
/// (the paper's local mini-batch size).
const EVAL_BATCH: usize = 16;

/// A trainable MoE transformer.
///
/// The model follows the paper's fine-tuning regime: expert parameters (and
/// the small task head) are trainable, while embeddings, attention and
/// gating weights stay frozen. All experiments instantiate this type either
/// as the *global* model held by the parameter server or as a *compact*
/// per-participant model produced by expert merging.
///
/// `Clone` copies the frozen weights and heads but *shares* every expert
/// (see [`MoeLayer::experts`](crate::layer::MoeLayer::experts)): a clone
/// owns an expert only once it writes it, through
/// [`MoeModel::expert_mut`], the only write path (`Arc::make_mut`). A
/// participant that trains a few experts of its copy of the global model
/// therefore holds those few, not the whole expert set.
#[derive(Debug, Clone)]
pub struct MoeModel {
    /// Model configuration.
    pub config: MoeConfig,
    /// Token embedding table `(vocab, d_model)`; frozen.
    pub embedding: Matrix,
    /// Transformer blocks.
    pub layers: Vec<TransformerLayer>,
    /// Generation head `(d_model, vocab)`; used when `num_classes` is `None`.
    pub lm_head: Matrix,
    /// Classification head `(d_model, num_classes)` when configured.
    pub cls_head: Option<Matrix>,
}

/// Cache produced by a full forward pass, consumed by the backward pass.
#[derive(Debug, Clone)]
pub struct ForwardCache {
    layer_caches: Vec<TransformerLayerCache>,
    /// Hidden states entering the head (after the final layer norm).
    pub final_hidden: Matrix,
    /// Output of the last transformer block (before the final layer norm).
    last_block_output: Matrix,
}

/// Cache produced by a packed multi-sample forward pass
/// ([`MoeModel::forward_batch`]), consumed by the batched backward.
#[derive(Debug, Clone)]
pub struct BatchForwardCache {
    /// One cache per layer from the first cached layer up (every layer for
    /// [`MoeModel::forward_batch`]).
    layer_caches: Vec<TransformerLayerBatchCache>,
    /// Packed `(total_tokens, d_model)` hidden states after the final layer
    /// norm.
    pub final_hidden: Matrix,
    /// Packed output of the last transformer block (pre final layer norm).
    last_block_output: Matrix,
    /// Row layout of the packed batch.
    pub batch: PackedBatch,
}

/// An unperturbed packed forward over a few samples, recorded so that
/// loss probes which change one expert ([`MoeModel::batch_loss_from`]) pay
/// only for what the change can reach: the layers below the expert are not
/// recomputed, and an expert no row was routed to needs no forward at all
/// ([`RecordedForward::reaches`]) — the loss is the recorded one.
///
/// The record stays valid for as long as the model it was taken from is
/// bit-identical below the layer a probe resumes at; restoring a perturbed
/// expert exactly (as the forward-gradient estimator does) keeps it so.
#[derive(Debug, Clone)]
pub struct RecordedForward<'a> {
    samples: Vec<&'a Sample>,
    batch: PackedBatch,
    /// Packed input of every layer.
    layer_inputs: Vec<Matrix>,
    /// Per layer, the compact experts that received at least one row
    /// (ascending).
    routed: Vec<Vec<usize>>,
    loss: f32,
}

impl RecordedForward<'_> {
    /// True when no sample was recorded (there is nothing to probe).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean per-sample loss of the unperturbed model, exactly as
    /// [`MoeModel::batch_loss`] returns it.
    pub fn loss(&self) -> f32 {
        self.loss
    }

    /// Whether any recorded row was routed to the compact expert `key`. If
    /// none was, no forward over these samples reads the expert's weights.
    pub fn reaches(&self, key: ExpertKey) -> bool {
        self.routed
            .get(key.layer)
            .is_some_and(|routed| routed.binary_search(&key.expert).is_ok())
    }
}

/// Gradients produced by one backward pass (or an accumulation of several).
#[derive(Debug, Clone)]
pub struct GradientSet {
    /// Per-expert gradients keyed by `(layer, compact expert id)`.
    pub expert_grads: HashMap<ExpertKey, ExpertGrad>,
    /// Gradient of the active task head.
    pub head_grad: Matrix,
    /// Mean loss over the contributing samples.
    pub loss: f32,
    /// Number of samples accumulated.
    pub samples: usize,
}

/// Result of evaluating the model on a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Task score: mean ROUGE-L for generation datasets, accuracy otherwise.
    pub score: f32,
    /// Mean loss over the evaluated samples.
    pub loss: f32,
    /// Number of samples evaluated.
    pub samples: usize,
}

impl MoeModel {
    /// Creates a freshly initialized model.
    ///
    /// The weights are the draws of one sequential pass over `rng` —
    /// embedding, then each layer's attention, experts and gate, then the
    /// heads — and `rng` is left where that pass leaves it. The stream is
    /// counter-addressed ([`SeededRng::advance`]), so every layer starts at
    /// its own offset into it and builds as a task on
    /// [`ThreadPool::from_env`], the enclosing region's width; the
    /// embedding and heads (a fraction of a percent of the draws at paper
    /// shape) are drawn on the caller.
    pub fn new(config: MoeConfig, rng: &mut SeededRng) -> Self {
        let embedding = init::embedding(config.vocab_size, config.d_model, rng);
        let (d, d_ff, top_k) = (config.d_model, config.d_ff, config.top_k);
        let layer_tasks: Vec<_> = (0..config.num_layers)
            .map(|l| {
                let experts = config.experts_in_layer(l);
                let mut stream = rng.clone();
                // Attention's four uniform `d × d` projections (one draw a
                // weight), every expert's two normal `d × d_ff` ones (two a
                // weight), then the uniform gate.
                rng.advance((4 * d * d + experts * 4 * d * d_ff + d * experts) as u64);
                move || TransformerLayer::new(d, d_ff, experts, top_k, &mut stream)
            })
            .collect();
        let layers = ThreadPool::from_env().run(layer_tasks);
        let lm_head = init::xavier_uniform(config.d_model, config.vocab_size, rng);
        let cls_head = config
            .num_classes
            .map(|c| init::xavier_uniform(config.d_model, c, rng));
        Self {
            config,
            embedding,
            layers,
            lm_head,
            cls_head,
        }
    }

    /// Total number of parameters actually materialized.
    pub fn num_params(&self) -> usize {
        let mut total = self.embedding.len() + self.lm_head.len();
        if let Some(h) = &self.cls_head {
            total += h.len();
        }
        for layer in &self.layers {
            total += layer.attention.num_params();
            total += layer.moe.gate.weight.len();
            for e in &layer.moe.experts {
                total += e.num_params();
            }
        }
        total
    }

    /// FP32 bytes of the materialized parameters.
    pub fn param_bytes(&self) -> usize {
        self.num_params() * 4
    }

    /// Immutable access to an expert by `(layer, compact id)`.
    pub fn expert(&self, key: ExpertKey) -> &Expert {
        &self.layers[key.layer].moe.experts[key.expert]
    }

    /// The `Arc` that holds an expert, for a caller that shares it instead
    /// of copying it.
    pub fn shared_expert(&self, key: ExpertKey) -> &Arc<Expert> {
        &self.layers[key.layer].moe.experts[key.expert]
    }

    /// Mutable access to an expert by `(layer, compact id)`, copying it
    /// first if another clone of the model still shares it.
    pub fn expert_mut(&mut self, key: ExpertKey) -> &mut Expert {
        self.layers[key.layer].moe.expert_mut(key.expert)
    }

    /// Replaces an expert's parameters (clones that shared the old expert
    /// keep it).
    pub fn set_expert(&mut self, key: ExpertKey, expert: Expert) {
        self.layers[key.layer].moe.experts[key.expert] = Arc::new(expert);
    }

    /// All expert keys of the materialized (compact) experts.
    pub fn expert_keys(&self) -> Vec<ExpertKey> {
        let mut keys = Vec::new();
        for (l, layer) in self.layers.iter().enumerate() {
            for e in 0..layer.moe.num_experts() {
                keys.push(ExpertKey::new(l, e));
            }
        }
        keys
    }

    /// Per-layer compact expert counts.
    pub fn experts_per_layer(&self) -> Vec<usize> {
        self.layers.iter().map(|l| l.moe.num_experts()).collect()
    }

    /// The task head a participant trains and uploads: the classification
    /// head when configured, the generation head otherwise.
    pub fn active_head(&self) -> &Matrix {
        match &self.cls_head {
            Some(h) => h,
            None => &self.lm_head,
        }
    }

    /// Mutable access to the active task head.
    pub fn active_head_mut(&mut self) -> &mut Matrix {
        match &mut self.cls_head {
            Some(h) => h,
            None => &mut self.lm_head,
        }
    }

    /// FNV-1a over the exact f32 bit patterns of every aggregation-visible
    /// parameter — the embedding, all expert weights/biases (enumerated via
    /// [`MoeModel::expert_keys`], the same keys the sharded parameter store
    /// partitions on), and both heads. Two models with equal checksums and
    /// equal shapes are bit-identical in everything federated aggregation
    /// can touch; the golden-trace and store-interleaving suites compare
    /// runs through this.
    pub fn param_checksum(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        let mut eat = |x: f32| hash = fnv_bytes(hash, &x.to_le_bytes());
        for x in self.embedding.as_slice() {
            eat(*x);
        }
        for key in self.expert_keys() {
            let expert = self.expert(key);
            for x in expert.w1.as_slice() {
                eat(*x);
            }
            for x in expert.w2.as_slice() {
                eat(*x);
            }
            for x in &expert.b1 {
                eat(*x);
            }
            for x in &expert.b2 {
                eat(*x);
            }
        }
        for x in self.lm_head.as_slice() {
            eat(*x);
        }
        if let Some(head) = &self.cls_head {
            for x in head.as_slice() {
                eat(*x);
            }
        }
        hash
    }

    /// Replaces the experts and routing map of one layer (customized MoE
    /// construction / gate re-routing after merging). Experts may come as
    /// owned [`Expert`]s or as `Arc`s shared with another model.
    ///
    /// # Panics
    ///
    /// Panics if the routing map's original-expert count differs from the
    /// gate width, or the map references a compact expert that is missing.
    pub fn set_layer_experts<E: Into<Arc<Expert>>>(
        &mut self,
        layer: usize,
        experts: Vec<E>,
        routing_map: RoutingMap,
    ) {
        let moe = &mut self.layers[layer].moe;
        assert_eq!(
            routing_map.num_original(),
            moe.gate.num_experts(),
            "routing map must cover every original expert"
        );
        assert_eq!(
            routing_map.num_compact(),
            experts.len(),
            "routing map targets must match the expert list"
        );
        moe.experts = experts.into_iter().map(Into::into).collect();
        moe.routing_map = routing_map;
    }

    /// A copy whose weights carry the round-trip error of the given
    /// quantization width (§4.1): [`QuantizedMoe::quantize`] then
    /// [`QuantizedMoe::dequantize`], the same shapes and API as the
    /// original. FMQ fine-tunes this; profiling runs on the
    /// [`QuantizedMoe`] itself, which never holds the whole `f32` copy.
    pub fn quantized_copy(&self, width: BitWidth) -> MoeModel {
        QuantizedMoe::quantize(self, width).dequantize()
    }

    /// Embeds a token sequence and adds sinusoidal positional encodings.
    pub fn embed(&self, tokens: &[u32]) -> Matrix {
        let rates = positional_rates(self.config.d_model);
        let mut out = Matrix::zeros(tokens.len(), self.config.d_model);
        embed_sequence(&self.config, tokens, &rates, &mut out, 0, |tok, row| {
            row.copy_from_slice(self.embedding.row(tok))
        });
        out
    }

    /// Embeds every sample of a mini-batch into one packed
    /// `(total_tokens, d_model)` matrix. Positions restart at every sample
    /// boundary, so each row is bit-identical to the corresponding row of
    /// [`MoeModel::embed`] over that sample alone.
    pub fn embed_batch(&self, samples: &[&Sample]) -> (Matrix, PackedBatch) {
        embed_packed(&self.config, samples, |tok, row| {
            row.copy_from_slice(self.embedding.row(tok))
        })
    }

    /// Runs the transformer stack over a token sequence.
    pub fn forward(
        &self,
        tokens: &[u32],
        mut tracker: Option<&mut ActivationTracker>,
    ) -> ForwardCache {
        let mut hidden = self.embed(tokens);
        let mut layer_caches = Vec::with_capacity(self.layers.len());
        for (idx, layer) in self.layers.iter().enumerate() {
            let (next, cache) = layer.forward(&hidden, idx, tracker.as_deref_mut());
            layer_caches.push(cache);
            hidden = next;
        }
        let final_hidden = ops::layer_norm(&hidden, LN_EPS);
        ForwardCache {
            layer_caches,
            final_hidden,
            last_block_output: hidden,
        }
    }

    /// Runs the transformer stack over a packed mini-batch (see
    /// [`MoeModel::embed_batch`]). Per-token hidden states are bit-identical
    /// to running [`MoeModel::forward`] on each sample alone; the speedup
    /// comes from every row-parallel stage (projections, gating, expert
    /// GEMMs) running once over the whole batch, with tokens grouped by
    /// routed expert across all samples.
    pub fn forward_batch(&self, samples: &[&Sample]) -> BatchForwardCache {
        self.forward_batch_from(samples, 0)
    }

    /// [`MoeModel::forward_batch`] keeping backward state only for layers
    /// `first_cached..`: the layers below run the no-cache forward, which
    /// computes the same hidden states bit for bit and keeps nothing. A
    /// backward that stops at `first_cached` reads no cache below it.
    fn forward_batch_from(&self, samples: &[&Sample], first_cached: usize) -> BatchForwardCache {
        let (mut hidden, batch) = self.embed_batch(samples);
        let mut layer_caches = Vec::with_capacity(self.layers.len().saturating_sub(first_cached));
        for (idx, layer) in self.layers.iter().enumerate() {
            if idx < first_cached {
                hidden = layer.forward_no_cache_batch(&hidden, batch.bounds(), idx, None);
                continue;
            }
            let (next, cache) = layer.forward_batch(hidden, batch.bounds(), idx);
            layer_caches.push(cache);
            hidden = next;
        }
        let final_hidden = ops::layer_norm(&hidden, LN_EPS);
        BatchForwardCache {
            layer_caches,
            final_hidden,
            last_block_output: hidden,
            batch,
        }
    }

    /// Packed batched forward keeping no backward state, used by
    /// evaluation: per-token final hidden states bit-identical to
    /// [`MoeModel::forward`]'s on each sample alone.
    /// Returns the packed final hidden states and the batch layout.
    pub fn forward_no_cache_batch(&self, samples: &[&Sample]) -> (Matrix, PackedBatch) {
        let (mut hidden, batch) = self.embed_batch(samples);
        for (idx, layer) in self.layers.iter().enumerate() {
            hidden = layer.forward_no_cache_batch(&hidden, batch.bounds(), idx, None);
        }
        (ops::layer_norm(&hidden, LN_EPS), batch)
    }

    /// Computes the loss and the gradient of the head logits for a sample.
    ///
    /// Returns `(loss, grad_final_hidden, head_grad)`.
    fn loss_and_head_grads(&self, sample: &Sample, cache: &ForwardCache) -> (f32, Matrix, Matrix) {
        match &sample.task {
            Task::Generation { reference } => {
                let seq = cache.final_hidden.rows();
                let r = reference.len().min(seq);
                let tail_start = seq - r;
                let rows: Vec<usize> = (tail_start..seq).collect();
                let tail_hidden = cache.final_hidden.select_rows(&rows);
                let logits = tail_hidden.matmul(&self.lm_head);
                let targets: Vec<usize> = reference[reference.len() - r..]
                    .iter()
                    .map(|&t| (t as usize).min(self.config.vocab_size - 1))
                    .collect();
                let (loss, grad_logits) = ops::cross_entropy(&logits, &targets);
                let head_grad = tail_hidden.matmul_transa(&grad_logits).expect("row counts");
                let grad_tail = grad_logits
                    .matmul_transb(&self.lm_head)
                    .expect("col counts");
                let mut grad_hidden =
                    Matrix::zeros(cache.final_hidden.rows(), cache.final_hidden.cols());
                for (slot, &row) in rows.iter().enumerate() {
                    grad_hidden
                        .row_mut(row)
                        .copy_from_slice(grad_tail.row(slot));
                }
                (loss, grad_hidden, head_grad)
            }
            Task::Classification { label, .. } => {
                let head = self
                    .cls_head
                    .as_ref()
                    .expect("classification sample requires a classification head");
                let seq = cache.final_hidden.rows() as f32;
                let pooled_vec: Vec<f32> = cache
                    .final_hidden
                    .sum_rows()
                    .iter()
                    .map(|x| x / seq)
                    .collect();
                let pooled = Matrix::from_vec(1, self.config.d_model, pooled_vec).expect("shape");
                let logits = pooled.matmul(head);
                let (loss, grad_logits) = ops::cross_entropy(&logits, &[*label]);
                let head_grad = pooled.matmul_transa(&grad_logits).expect("row counts");
                let grad_pooled = grad_logits.matmul_transb(head).expect("col counts");
                // Mean-pool backward: every position receives grad/seq.
                let mut grad_hidden =
                    Matrix::zeros(cache.final_hidden.rows(), cache.final_hidden.cols());
                for r in 0..cache.final_hidden.rows() {
                    for (o, &g) in grad_hidden.row_mut(r).iter_mut().zip(grad_pooled.row(0)) {
                        *o = g / seq;
                    }
                }
                (loss, grad_hidden, head_grad)
            }
        }
    }

    /// Forward + backward over one sample.
    ///
    /// `tuning` restricts which `(layer, compact expert)` pairs get parameter
    /// gradients; `None` collects gradients for every activated expert. The
    /// backward pass propagates input gradients down to the lowest layer
    /// that holds a tuning expert and stops there: embeddings, attention and
    /// gates are frozen, so nothing trainable lies below it.
    pub fn sample_gradients(
        &self,
        sample: &Sample,
        tuning: Option<&HashSet<ExpertKey>>,
    ) -> GradientSet {
        let cache = self.forward(&sample.tokens, None);
        let (loss, grad_final_hidden, head_grad) = self.loss_and_head_grads(sample, &cache);
        // Final layer norm backward.
        let mut grad =
            ops::layer_norm_backward(&cache.last_block_output, &grad_final_hidden, LN_EPS);
        let mut expert_grads: HashMap<ExpertKey, ExpertGrad> = HashMap::new();
        let lowest = lowest_tuned_layer(tuning).unwrap_or(self.layers.len());
        for (idx, layer) in self.layers.iter().enumerate().skip(lowest).rev() {
            let tuning_for_layer: Option<Vec<usize>> = tuning.map(|set| {
                set.iter()
                    .filter(|k| k.layer == idx)
                    .map(|k| k.expert)
                    .collect()
            });
            let (grads, grad_input) = layer.backward(
                &cache.layer_caches[idx],
                &grad,
                tuning_for_layer.as_deref(),
                idx > lowest,
            );
            for (compact, g) in grads {
                expert_grads.insert(ExpertKey::new(idx, compact), g);
            }
            if let Some(grad_input) = grad_input {
                grad = grad_input;
            }
        }
        GradientSet {
            expert_grads,
            head_grad,
            loss,
            samples: 1,
        }
    }

    /// Batched loss + head gradients over a packed batch.
    ///
    /// Returns `(mean_loss, grad_final_hidden, head_grad)` where the loss is
    /// the mean of per-sample losses, `grad_final_hidden` is packed like
    /// `final_hidden`, and `head_grad` is the *sum* of per-sample head
    /// gradients (matching what merging per-sample [`GradientSet`]s
    /// accumulates; callers average by sample count). Generation samples'
    /// tail logits run as one GEMM against the LM head; classification
    /// samples pool per segment and share one GEMM against the class head.
    /// Head-gradient contributions whose shape differs from the active head
    /// (a generation sample in a classification model) are dropped, exactly
    /// as [`GradientSet::merge`] drops them.
    fn batch_loss_and_head_grads(
        &self,
        samples: &[&Sample],
        final_hidden: &Matrix,
        batch: &PackedBatch,
    ) -> (f32, Matrix, Matrix) {
        let head_shape = match &self.cls_head {
            Some(h) => h.shape(),
            None => self.lm_head.shape(),
        };
        let mut head_grad = Matrix::zeros(head_shape.0, head_shape.1);
        let mut grad_hidden = Matrix::zeros(final_hidden.rows(), final_hidden.cols());
        let mut loss_sum = 0.0f32;

        // Generation samples: gather every reference-tail row across the
        // batch. `row_div[i]` is the tail length of the row's sample, so the
        // per-row gradient carries the same 1/r scaling the per-sample
        // cross-entropy applied.
        let mut tail_rows: Vec<usize> = Vec::new();
        let mut targets: Vec<usize> = Vec::new();
        let mut row_div: Vec<f32> = Vec::new();
        // Classification samples, by batch index.
        let mut cls_samples: Vec<usize> = Vec::new();
        for (i, sample) in samples.iter().enumerate() {
            let (start, end) = batch.bounds()[i];
            match &sample.task {
                Task::Generation { reference } => {
                    let seq = end - start;
                    let r = reference.len().min(seq);
                    for (slot, &t) in reference[reference.len() - r..].iter().enumerate() {
                        tail_rows.push(end - r + slot);
                        targets.push((t as usize).min(self.config.vocab_size - 1));
                        row_div.push(r as f32);
                    }
                }
                Task::Classification { .. } => cls_samples.push(i),
            }
        }

        if !tail_rows.is_empty() {
            let tail_hidden = final_hidden.select_rows(&tail_rows);
            let logits = tail_hidden.matmul(&self.lm_head);
            let mut grad_logits = Matrix::zeros(logits.rows(), logits.cols());
            let mut row = 0;
            while row < logits.rows() {
                // Rows of one sample share a divisor; its loss is the mean
                // of its rows' raw losses, accumulated per sample so the
                // value matches the per-sample cross-entropy bit for bit.
                let div = row_div[row];
                let mut sample_raw = 0.0f32;
                let sample_end = row + div as usize;
                while row < sample_end {
                    let probs = ops::softmax_row(logits.row(row));
                    sample_raw += -(probs[targets[row]].max(1e-12)).ln();
                    let g = grad_logits.row_mut(row);
                    for (c, &p) in probs.iter().enumerate() {
                        g[c] = (p - if c == targets[row] { 1.0 } else { 0.0 }) / div;
                    }
                    row += 1;
                }
                loss_sum += sample_raw / div;
            }
            let head_contrib = tail_hidden.matmul_transa(&grad_logits).expect("row counts");
            if head_contrib.shape() == head_grad.shape() {
                head_grad
                    .add_scaled(&head_contrib, 1.0)
                    .expect("same shape");
            }
            let grad_tail = grad_logits
                .matmul_transb(&self.lm_head)
                .expect("col counts");
            for (slot, &row) in tail_rows.iter().enumerate() {
                grad_hidden
                    .row_mut(row)
                    .copy_from_slice(grad_tail.row(slot));
            }
        }

        if !cls_samples.is_empty() {
            let head = self
                .cls_head
                .as_ref()
                .expect("classification sample requires a classification head");
            let mut pooled = Matrix::zeros(cls_samples.len(), self.config.d_model);
            let mut labels = Vec::with_capacity(cls_samples.len());
            for (slot, &i) in cls_samples.iter().enumerate() {
                let (start, end) = batch.bounds()[i];
                let seq = (end - start) as f32;
                let row = pooled.row_mut(slot);
                for r in start..end {
                    for (o, &v) in row.iter_mut().zip(final_hidden.row(r)) {
                        *o += v;
                    }
                }
                for o in row.iter_mut() {
                    *o /= seq;
                }
                match &samples[i].task {
                    Task::Classification { label, .. } => labels.push(*label),
                    Task::Generation { .. } => unreachable!("partitioned above"),
                }
            }
            let logits = pooled.matmul(head);
            let mut grad_logits = Matrix::zeros(logits.rows(), logits.cols());
            for (slot, &label) in labels.iter().enumerate() {
                let probs = ops::softmax_row(logits.row(slot));
                loss_sum += -(probs[label].max(1e-12)).ln();
                let g = grad_logits.row_mut(slot);
                for (c, &p) in probs.iter().enumerate() {
                    g[c] = p - if c == label { 1.0 } else { 0.0 };
                }
            }
            let head_contrib = pooled.matmul_transa(&grad_logits).expect("row counts");
            if head_contrib.shape() == head_grad.shape() {
                head_grad
                    .add_scaled(&head_contrib, 1.0)
                    .expect("same shape");
            }
            let grad_pooled = grad_logits.matmul_transb(head).expect("col counts");
            // Mean-pool backward: every position receives grad/seq.
            for (slot, &i) in cls_samples.iter().enumerate() {
                let (start, end) = batch.bounds()[i];
                let seq = (end - start) as f32;
                for r in start..end {
                    for (o, &g) in grad_hidden.row_mut(r).iter_mut().zip(grad_pooled.row(slot)) {
                        *o = g / seq;
                    }
                }
            }
        }

        let mean_loss = loss_sum / samples.len().max(1) as f32;
        (mean_loss, grad_hidden, head_grad)
    }

    /// Forward + backward over a batch of samples, accumulating gradients.
    ///
    /// This is the batched training path: all samples' tokens are packed
    /// into one activation matrix per layer, tokens are grouped by routed
    /// expert across the whole batch (one wide GEMM per expert instead of
    /// one skinny matmul per sample), and parameter gradients accumulate
    /// batch-wise inside the kernels. Per-token activations and input
    /// gradients are bit-identical to the per-sample reference
    /// ([`MoeModel::batch_gradients_reference`]); accumulated quantities
    /// (expert/head parameter gradients, the mean loss) differ only by
    /// float-summation order, within ~1e-4 relative tolerance at f32.
    ///
    /// Only what the backward reads is held: the forward caches no layer
    /// below the lowest tuned one (none at all for an empty tuning set),
    /// and each layer's cache is dropped as soon as its backward has run.
    pub fn batch_gradients(
        &self,
        samples: &[Sample],
        tuning: Option<&HashSet<ExpertKey>>,
    ) -> GradientSet {
        let head_shape = match &self.cls_head {
            Some(h) => h.shape(),
            None => self.lm_head.shape(),
        };
        if samples.is_empty() {
            return GradientSet {
                expert_grads: HashMap::new(),
                head_grad: Matrix::zeros(head_shape.0, head_shape.1),
                loss: 0.0,
                samples: 0,
            };
        }
        let refs: Vec<&Sample> = samples.iter().collect();
        let lowest = lowest_tuned_layer(tuning).unwrap_or(self.layers.len());
        let BatchForwardCache {
            mut layer_caches,
            final_hidden,
            last_block_output,
            batch,
        } = self.forward_batch_from(&refs, lowest);
        let (loss, grad_final_hidden, head_grad) =
            self.batch_loss_and_head_grads(&refs, &final_hidden, &batch);
        let mut grad = ops::layer_norm_backward(&last_block_output, &grad_final_hidden, LN_EPS);
        let mut expert_grads: HashMap<ExpertKey, ExpertGrad> = HashMap::new();
        for (idx, layer) in self.layers.iter().enumerate().skip(lowest).rev() {
            let tuning_for_layer: Option<Vec<usize>> = tuning.map(|set| {
                set.iter()
                    .filter(|k| k.layer == idx)
                    .map(|k| k.expert)
                    .collect()
            });
            // Caches run from `lowest` up, so the last one is this layer's;
            // it drops at the end of the iteration.
            let cache = layer_caches
                .pop()
                .expect("one cache per layer from the lowest tuned one");
            let (grads, grad_input) = layer.backward_batch(
                &cache,
                batch.bounds(),
                &grad,
                tuning_for_layer.as_deref(),
                idx > lowest,
            );
            for (compact, g) in grads {
                expert_grads.insert(ExpertKey::new(idx, compact), g);
            }
            if let Some(grad_input) = grad_input {
                grad = grad_input;
            }
        }
        GradientSet {
            expert_grads,
            head_grad,
            loss,
            samples: samples.len(),
        }
    }

    /// The per-sample reference implementation of
    /// [`MoeModel::batch_gradients`]: one forward/backward per sample,
    /// merged sequentially. Kept as the ground truth the batched path is
    /// equivalence-tested against.
    pub fn batch_gradients_reference(
        &self,
        samples: &[Sample],
        tuning: Option<&HashSet<ExpertKey>>,
    ) -> GradientSet {
        let head_shape = match &self.cls_head {
            Some(h) => h.shape(),
            None => self.lm_head.shape(),
        };
        let mut total = GradientSet {
            expert_grads: HashMap::new(),
            head_grad: Matrix::zeros(head_shape.0, head_shape.1),
            loss: 0.0,
            samples: 0,
        };
        for sample in samples {
            let g = self.sample_gradients(sample, tuning);
            total.merge(g);
        }
        total
    }

    /// One local SGD step on a batch: accumulates gradients, averages them,
    /// and updates the tuning experts plus the task head. Returns the mean
    /// loss.
    pub fn train_step(
        &mut self,
        samples: &[Sample],
        tuning: Option<&HashSet<ExpertKey>>,
        learning_rate: f32,
    ) -> f32 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut grads = self.batch_gradients(samples, tuning);
        let scale = 1.0 / grads.samples.max(1) as f32;
        grads.head_grad.scale_in_place(scale);
        for g in grads.expert_grads.values_mut() {
            g.scale(scale);
        }
        self.apply_gradients(&grads, learning_rate);
        grads.loss
    }

    /// Applies a gradient set with plain SGD.
    pub fn apply_gradients(&mut self, grads: &GradientSet, learning_rate: f32) {
        for (key, grad) in &grads.expert_grads {
            if key.layer < self.layers.len()
                && key.expert < self.layers[key.layer].moe.num_experts()
            {
                self.expert_mut(*key).apply_sgd(grad, learning_rate);
            }
        }
        let head = match &mut self.cls_head {
            Some(h) => h,
            None => &mut self.lm_head,
        };
        if head.shape() == grads.head_grad.shape() {
            head.add_scaled(&grads.head_grad, -learning_rate)
                .expect("head gradient shape");
        }
    }

    /// Loss of one sample (forward only — no parameter or input gradients).
    pub fn sample_loss(&self, sample: &Sample) -> f32 {
        let final_hidden = self.forward(&sample.tokens, None).final_hidden;
        self.head_loss(sample, &final_hidden)
    }

    /// Mean per-sample loss over a mini-batch, with one packed forward pass
    /// (no parameter or input gradients). The batched analogue of averaging
    /// [`MoeModel::sample_loss`] over the samples.
    pub fn batch_loss(&self, samples: &[&Sample]) -> f32 {
        if samples.is_empty() {
            return 0.0;
        }
        let (hidden, batch) = self.embed_batch(samples);
        self.loss_from_layer(samples, &batch, &hidden, 0)
    }

    /// Runs the packed forward once, unperturbed, and records what a later
    /// probe needs to skip the work a one-expert change cannot affect:
    /// every layer's input, which experts each layer routed rows to, and
    /// the loss.
    pub fn record_forward<'a>(
        &self,
        samples: impl IntoIterator<Item = &'a Sample>,
    ) -> RecordedForward<'a> {
        let samples: Vec<&Sample> = samples.into_iter().collect();
        let (mut hidden, batch) = self.embed_batch(&samples);
        let mut layer_inputs = Vec::with_capacity(self.layers.len());
        let mut routed = Vec::with_capacity(self.layers.len());
        let mut loss = 0.0;
        if !samples.is_empty() {
            for (idx, layer) in self.layers.iter().enumerate() {
                let (next, layer_routed) =
                    layer.forward_recording_batch(&hidden, batch.bounds(), idx);
                layer_inputs.push(std::mem::replace(&mut hidden, next));
                routed.push(layer_routed);
            }
            loss = self.loss_from_layer(&samples, &batch, &hidden, self.layers.len());
        }
        RecordedForward {
            samples,
            batch,
            layer_inputs,
            routed,
            loss,
        }
    }

    /// [`MoeModel::batch_loss`] over the recorded samples, resuming at
    /// `layer` from its recorded input instead of recomputing the layers
    /// below. With the model unchanged below `layer` since the record was
    /// taken, these are the calls a full forward makes from that layer up,
    /// on the same inputs: the result is the full forward's, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is not a layer of the recorded forward.
    pub fn batch_loss_from(&self, base: &RecordedForward<'_>, layer: usize) -> f32 {
        self.loss_from_layer(&base.samples, &base.batch, &base.layer_inputs[layer], layer)
    }

    /// The tail every loss-only batched forward shares: layers `layer..`
    /// over the packed `input` of `layer`, the final layer norm, and the
    /// mean of the per-sample head losses.
    fn loss_from_layer(
        &self,
        samples: &[&Sample],
        batch: &PackedBatch,
        input: &Matrix,
        layer: usize,
    ) -> f32 {
        let mut hidden: Option<Matrix> = None;
        for (idx, block) in self.layers.iter().enumerate().skip(layer) {
            let current = hidden.as_ref().unwrap_or(input);
            hidden = Some(block.forward_no_cache_batch(current, batch.bounds(), idx, None));
        }
        let final_hidden = ops::layer_norm(hidden.as_ref().unwrap_or(input), LN_EPS);
        let mut sum = 0.0;
        for (sample, &(start, end)) in samples.iter().zip(batch.bounds()) {
            let segment = final_hidden.copy_rows(start, end);
            sum += self.head_loss(sample, &segment);
        }
        sum / samples.len() as f32
    }

    /// Head loss from the final hidden states, with no gradient work: the
    /// loss halves of the [`MoeModel::loss_and_head_grads`] branches without
    /// the head/hidden gradient matmuls those also pay.
    fn head_loss(&self, sample: &Sample, final_hidden: &Matrix) -> f32 {
        let (logits, targets) = self.head_logits(sample, final_hidden);
        ops::cross_entropy_loss(&logits, &targets)
    }

    /// The head's logits for one sample and the targets its loss scores
    /// them against: for generation, the last `|reference|` rows through
    /// the LM head against the reference tokens; for classification, the
    /// mean-pooled row through the classification head against the label.
    fn head_logits(&self, sample: &Sample, final_hidden: &Matrix) -> (Matrix, Vec<usize>) {
        match &sample.task {
            Task::Generation { reference } => {
                let seq = final_hidden.rows();
                let r = reference.len().min(seq);
                let tail_start = seq - r;
                let rows: Vec<usize> = (tail_start..seq).collect();
                let tail_hidden = final_hidden.select_rows(&rows);
                let targets = reference[reference.len() - r..]
                    .iter()
                    .map(|&t| (t as usize).min(self.config.vocab_size - 1))
                    .collect();
                (tail_hidden.matmul(&self.lm_head), targets)
            }
            Task::Classification { label, .. } => {
                let head = self
                    .cls_head
                    .as_ref()
                    .expect("classification sample requires a classification head");
                let seq = final_hidden.rows() as f32;
                let pooled_vec: Vec<f32> =
                    final_hidden.sum_rows().iter().map(|x| x / seq).collect();
                let pooled = Matrix::from_vec(1, self.config.d_model, pooled_vec).expect("shape");
                (pooled.matmul(head), vec![*label])
            }
        }
    }

    /// Evaluates the model on a dataset: mean ROUGE-L for generation, exact
    /// match accuracy for classification, plus the mean loss.
    pub fn evaluate(&self, dataset: &Dataset) -> EvalResult {
        if dataset.is_empty() {
            return EvalResult {
                score: 0.0,
                loss: 0.0,
                samples: 0,
            };
        }
        let mut score_sum = 0.0;
        let mut loss_sum = 0.0;
        // Packed batched forward per chunk; per-sample scoring reads each
        // sample's row block (bit-identical to the per-sample forward).
        for chunk in dataset.samples.chunks(EVAL_BATCH) {
            let refs: Vec<&Sample> = chunk.iter().collect();
            let (final_hidden, batch) = self.forward_no_cache_batch(&refs);
            for (sample, &(start, end)) in chunk.iter().zip(batch.bounds()) {
                let (logits, targets) =
                    self.head_logits(sample, &final_hidden.copy_rows(start, end));
                loss_sum += ops::cross_entropy_loss(&logits, &targets);
                score_sum += match &sample.task {
                    Task::Generation { reference } => {
                        let tokens: Vec<u32> = (0..logits.rows())
                            .map(|i| stats::argmax(logits.row(i)).unwrap_or(0) as u32)
                            .collect();
                        rouge_l(&tokens, reference)
                    }
                    Task::Classification { label, .. } => {
                        let predicted = stats::argmax(logits.row(0)).unwrap_or(0);
                        if predicted == *label {
                            1.0
                        } else {
                            0.0
                        }
                    }
                };
            }
        }
        let n = dataset.len() as f32;
        EvalResult {
            score: score_sum / n,
            loss: loss_sum / n,
            samples: dataset.len(),
        }
    }

    /// Mean-pooled final hidden state of a sample, used as the "final token
    /// embeddings" in the paper's output-error measurements (Fig. 8).
    pub fn final_embedding(&self, sample: &Sample) -> Vec<f32> {
        let final_hidden = self.forward(&sample.tokens, None).final_hidden;
        let seq = final_hidden.rows() as f32;
        final_hidden.sum_rows().iter().map(|x| x / seq).collect()
    }

    /// Runs a forward-only profiling pass over a dataset, recording expert
    /// activation into a fresh tracker and returning the resulting profile.
    ///
    /// Samples are packed `EVAL_BATCH` at a time and the pass runs layer by
    /// layer over all batches; the profile is the one a per-sample pass
    /// produces, bit for bit. Only routing decisions are read, so the last
    /// layer only routes. [`QuantizedMoe::profile`] is the same pass over
    /// one dequantized layer at a time.
    pub fn profile(&self, dataset: &Dataset) -> ActivationProfile {
        let mut pass = ProfilePass::new(
            dataset,
            self.layers
                .iter()
                .map(|l| l.moe.num_original_experts())
                .collect(),
            |samples| self.embed_batch(samples),
        );
        for (idx, layer) in self.layers.iter().enumerate() {
            pass.run_layer(idx, layer);
        }
        pass.finish()
    }
}

/// The per-dimension sinusoidal rates. They depend only on the dimension
/// index, so the embed paths hoist the `powf` out of the token loop (it
/// dominated the embed cost at small d_model).
fn positional_rates(d_model: usize) -> Vec<f32> {
    (0..d_model)
        .map(|i| 1.0 / 10_000f32.powf((2 * (i / 2)) as f32 / d_model as f32))
        .collect()
}

/// Embeds one token sequence into `out` starting at `row_offset`, with
/// positions counted from the sequence start (not the packed row).
/// `embedding_row(token, row)` writes a token's embedding row; tokens past
/// the vocabulary are clamped to its last entry.
fn embed_sequence(
    config: &MoeConfig,
    tokens: &[u32],
    rates: &[f32],
    out: &mut Matrix,
    row_offset: usize,
    embedding_row: impl Fn(usize, &mut [f32]),
) {
    for (pos, &tok) in tokens.iter().enumerate() {
        let tok = (tok as usize).min(config.vocab_size - 1);
        let out_row = out.row_mut(row_offset + pos);
        embedding_row(tok, out_row);
        // Sinusoidal positional encoding.
        for (i, (value, &rate)) in out_row.iter_mut().zip(rates).enumerate() {
            let angle = pos as f32 * rate;
            *value += if i % 2 == 0 { angle.sin() } else { angle.cos() } * 0.1;
        }
    }
}

/// Packs `samples` into one `(total_tokens, d_model)` embedding matrix,
/// each through [`embed_sequence`] at its offset in the batch.
pub(crate) fn embed_packed(
    config: &MoeConfig,
    samples: &[&Sample],
    embedding_row: impl Fn(usize, &mut [f32]),
) -> (Matrix, PackedBatch) {
    let batch = PackedBatch::from_lengths(samples.iter().map(|s| s.tokens.len()));
    let rates = positional_rates(config.d_model);
    let mut out = Matrix::zeros(batch.total_tokens(), config.d_model);
    for (sample, &(start, _)) in samples.iter().zip(batch.bounds()) {
        embed_sequence(
            config,
            &sample.tokens,
            &rates,
            &mut out,
            start,
            &embedding_row,
        );
    }
    (out, batch)
}

/// One activation-profiling pass, run layer-major: every `EVAL_BATCH`
/// chunk of the dataset is embedded once up front, then each layer takes
/// all chunks before the next layer starts, so a caller only needs one
/// layer's weights at hand at a time ([`QuantizedMoe::profile`] dequantizes
/// them one by one).
///
/// The tracker attributes each packed row to its sample through the
/// chunk's row→sample map. Its buckets are per layer, and each still
/// accumulates chunk by chunk in dataset order, so the profile is the one a
/// chunk-by-chunk (or per-sample) pass produces — even the f32 attention
/// sums add in the same order. Only routing decisions are read, so the
/// last layer only routes: its experts, residual and the final layer norm
/// would produce a hidden state nobody looks at.
pub(crate) struct ProfilePass {
    tracker: ActivationTracker,
    layers: usize,
    chunks: Vec<ProfileChunk>,
}

/// One `EVAL_BATCH` chunk's packed hidden states between layers.
struct ProfileChunk {
    hidden: Matrix,
    batch: PackedBatch,
    /// Dataset index of the sample each packed row belongs to.
    row_samples: Vec<usize>,
}

impl ProfilePass {
    /// Embeds `dataset` chunk by chunk through `embed` for a model whose
    /// layers route over `original_experts[l]` experts each.
    pub(crate) fn new(
        dataset: &Dataset,
        original_experts: Vec<usize>,
        embed: impl Fn(&[&Sample]) -> (Matrix, PackedBatch),
    ) -> Self {
        let chunks = dataset
            .samples
            .chunks(EVAL_BATCH)
            .enumerate()
            .map(|(chunk_idx, chunk)| {
                let refs: Vec<&Sample> = chunk.iter().collect();
                let (hidden, batch) = embed(&refs);
                let mut row_samples = Vec::with_capacity(batch.total_tokens());
                for (i, &(start, end)) in batch.bounds().iter().enumerate() {
                    row_samples
                        .extend(std::iter::repeat_n(chunk_idx * EVAL_BATCH + i, end - start));
                }
                ProfileChunk {
                    hidden,
                    batch,
                    row_samples,
                }
            })
            .collect();
        Self {
            layers: original_experts.len(),
            tracker: ActivationTracker::new(original_experts),
            chunks,
        }
    }

    /// Whether layer `idx` only routes, so its experts are never read.
    pub(crate) fn routes_only(&self, idx: usize) -> bool {
        idx + 1 == self.layers
    }

    /// Pushes every chunk through layer `idx` (layers must come in order).
    pub(crate) fn run_layer(&mut self, idx: usize, layer: &TransformerLayer) {
        let routes_only = self.routes_only(idx);
        for chunk in &mut self.chunks {
            let bounds = chunk.batch.bounds();
            let tracking = Some((&mut self.tracker, chunk.row_samples.as_slice()));
            if routes_only {
                layer.route_batch(&chunk.hidden, bounds, idx, tracking);
            } else {
                chunk.hidden = layer.forward_no_cache_batch(&chunk.hidden, bounds, idx, tracking);
            }
        }
    }

    /// The profile of every layer run so far.
    pub(crate) fn finish(self) -> ActivationProfile {
        self.tracker.finish()
    }
}

impl GradientSet {
    /// Merges another gradient set into this one (sums gradients and losses).
    pub fn merge(&mut self, other: GradientSet) {
        for (key, grad) in other.expert_grads {
            match self.expert_grads.get_mut(&key) {
                Some(existing) => existing.accumulate(&grad),
                None => {
                    self.expert_grads.insert(key, grad);
                }
            }
        }
        if self.head_grad.shape() == other.head_grad.shape() {
            self.head_grad
                .add_scaled(&other.head_grad, 1.0)
                .expect("same shape");
        }
        self.loss = (self.loss * self.samples as f32 + other.loss * other.samples as f32)
            / (self.samples + other.samples).max(1) as f32;
        self.samples += other.samples;
    }
}

/// The lowest layer the backward pass has to reach: the lowest one holding
/// a tuning expert (layer 0 when every expert is tuned, `None` when none
/// is). Embeddings, attention and gates are frozen, so nothing trainable
/// lies below it and the gradient with respect to its input has no reader.
fn lowest_tuned_layer(tuning: Option<&HashSet<ExpertKey>>) -> Option<usize> {
    match tuning {
        None => Some(0),
        Some(set) => set.iter().map(|k| k.layer).min(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::Attention;
    use flux_data::{DatasetGenerator, DatasetKind};
    use flux_quant::QuantizedMatrix;

    fn tiny_model(seed: u64) -> MoeModel {
        let mut rng = SeededRng::new(seed);
        MoeModel::new(MoeConfig::tiny(), &mut rng)
    }

    fn tiny_cls_model(seed: u64, classes: usize) -> MoeModel {
        let mut rng = SeededRng::new(seed);
        MoeModel::new(MoeConfig::tiny().with_classes(classes), &mut rng)
    }

    fn gen_sample(seed: u64) -> Sample {
        let mut rng = SeededRng::new(seed);
        DatasetGenerator::for_kind(DatasetKind::Dolly, 64).generate_sample(0, &mut rng)
    }

    fn cls_sample(seed: u64) -> Sample {
        let mut rng = SeededRng::new(seed);
        let cfg = flux_data::DatasetConfig::for_kind(DatasetKind::Piqa, 64).with_mean_seq_len(10);
        DatasetGenerator::new(cfg).generate_sample(1, &mut rng)
    }

    #[test]
    fn model_construction_and_param_count() {
        let model = tiny_model(1);
        assert_eq!(model.num_params(), model.config.total_params());
        assert_eq!(model.expert_keys().len(), 4 * 8);
        assert_eq!(model.experts_per_layer(), vec![8, 8, 8, 8]);
    }

    #[test]
    fn forward_produces_final_hidden() {
        let model = tiny_model(2);
        let cache = model.forward(&[1, 2, 3, 4, 5], None);
        assert_eq!(cache.final_hidden.shape(), (5, 16));
        assert!(cache.final_hidden.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn out_of_vocab_tokens_are_clamped() {
        let model = tiny_model(3);
        let cache = model.forward(&[9999, 0, 63], None);
        assert_eq!(cache.final_hidden.rows(), 3);
    }

    #[test]
    fn generation_gradients_have_expected_shapes() {
        let model = tiny_model(4);
        let sample = gen_sample(5);
        let grads = model.sample_gradients(&sample, None);
        assert!(grads.loss > 0.0);
        assert!(!grads.expert_grads.is_empty());
        assert_eq!(grads.head_grad.shape(), (16, 64));
    }

    #[test]
    fn classification_gradients_have_expected_shapes() {
        let model = tiny_cls_model(6, 2);
        let sample = cls_sample(7);
        let grads = model.sample_gradients(&sample, None);
        assert!(grads.loss > 0.0);
        assert_eq!(grads.head_grad.shape(), (16, 2));
    }

    #[test]
    fn tuning_set_limits_expert_gradients() {
        let model = tiny_model(8);
        let sample = gen_sample(9);
        let all = model.sample_gradients(&sample, None);
        let mut tuning = HashSet::new();
        tuning.insert(ExpertKey::new(0, 0));
        tuning.insert(ExpertKey::new(1, 1));
        let restricted = model.sample_gradients(&sample, Some(&tuning));
        assert!(restricted.expert_grads.len() <= 2);
        assert!(restricted.expert_grads.keys().all(|k| tuning.contains(k)));
        assert!(all.expert_grads.len() >= restricted.expert_grads.len());
        // Restricting the set only drops work nobody reads: what is still
        // returned is bit-identical, also when the backward pass stops
        // above layer 0 (the lowest tuned layer here is 1) and in the
        // batched path.
        let upper: HashSet<ExpertKey> = all
            .expert_grads
            .keys()
            .filter(|k| k.layer >= 1)
            .copied()
            .collect();
        assert!(!upper.is_empty());
        let batch = [sample.clone(), gen_sample(10)];
        let all_batched = model.batch_gradients(&batch, None);
        for (set, full, part) in [
            (
                &tuning,
                &all,
                model.sample_gradients(&sample, Some(&tuning)),
            ),
            (&upper, &all, model.sample_gradients(&sample, Some(&upper))),
            (
                &upper,
                &all_batched,
                model.batch_gradients(&batch, Some(&upper)),
            ),
        ] {
            assert_eq!(part.loss.to_bits(), full.loss.to_bits());
            assert_eq!(part.head_grad, full.head_grad);
            for (key, grad) in &part.expert_grads {
                assert!(set.contains(key));
                assert_eq!(grad, &full.expert_grads[key], "{key:?}");
            }
        }
        let none = model.sample_gradients(&sample, Some(&HashSet::new()));
        assert!(none.expert_grads.is_empty());
        assert_eq!(none.head_grad, all.head_grad);
    }

    #[test]
    fn batch_gradients_cache_only_the_layers_their_backward_reaches() {
        let model = tiny_model(21);
        let batch = [gen_sample(22), gen_sample(23), gen_sample(24)];
        let built = || crate::layer::LAYER_CACHES_BUILT.with(std::cell::Cell::get);
        let cached_by = |tuning: Option<&HashSet<ExpertKey>>| {
            let before = built();
            let grads = model.batch_gradients(&batch, tuning);
            (grads, built() - before)
        };
        let (all, cached) = cached_by(None);
        assert_eq!(cached, model.layers.len());
        // An empty tuning set trains the head alone: no expert gradient,
        // and no layer is cached, since no backward runs below the head.
        let (none, cached) = cached_by(Some(&HashSet::new()));
        assert_eq!(cached, 0);
        assert!(none.expert_grads.is_empty());
        assert_eq!(none.loss.to_bits(), all.loss.to_bits());
        assert_eq!(none.head_grad, all.head_grad);
        // Lowest tuned layer 2 of 4: layers 2 and 3 are cached.
        let upper: HashSet<ExpertKey> = [ExpertKey::new(2, 0), ExpertKey::new(3, 5)].into();
        let (_, cached) = cached_by(Some(&upper));
        assert_eq!(cached, 2);
    }

    #[test]
    fn training_reduces_loss_on_small_classification_task() {
        let mut model = tiny_cls_model(10, 2);
        let mut rng = SeededRng::new(11);
        let cfg = flux_data::DatasetConfig::for_kind(DatasetKind::Piqa, 64)
            .with_num_samples(16)
            .with_mean_seq_len(8);
        let ds = DatasetGenerator::new(cfg).generate(&mut rng);
        let before = model.evaluate(&ds).loss;
        for _ in 0..15 {
            model.train_step(&ds.samples, None, 0.05);
        }
        let after = model.evaluate(&ds).loss;
        assert!(after < before, "loss should drop: {before} -> {after}");
    }

    #[test]
    fn training_improves_rouge_on_generation_task() {
        let mut model = tiny_model(12);
        let mut rng = SeededRng::new(13);
        let cfg = flux_data::DatasetConfig::for_kind(DatasetKind::Dolly, 64)
            .with_num_samples(12)
            .with_mean_seq_len(10);
        let ds = DatasetGenerator::new(cfg).generate(&mut rng);
        let before = model.evaluate(&ds);
        for _ in 0..20 {
            model.train_step(&ds.samples, None, 0.05);
        }
        let after = model.evaluate(&ds);
        assert!(
            after.loss < before.loss,
            "loss should drop: {} -> {}",
            before.loss,
            after.loss
        );
    }

    #[test]
    fn quantized_copy_perturbs_weights_but_keeps_shapes() {
        let model = tiny_model(14);
        let q2 = model.quantized_copy(BitWidth::Int2);
        let q8 = model.quantized_copy(BitWidth::Int8);
        assert_eq!(q2.num_params(), model.num_params());
        // INT2 perturbs weights more than INT8.
        let dist = |a: &MoeModel, b: &MoeModel| {
            a.layers[0].moe.experts[0]
                .w1
                .sub(&b.layers[0].moe.experts[0].w1)
                .unwrap()
                .frobenius_norm()
        };
        assert!(dist(&q2, &model) > dist(&q8, &model));
    }

    #[test]
    fn quantized_copy_equals_quantizing_a_clone_in_place() {
        // The copy is assembled from quantized parts; this is the
        // clone-then-overwrite construction it replaced, on a model with a
        // merged layer and a classification head so the kept parts (biases,
        // routing map, config) are not the defaults.
        let mut model = tiny_cls_model(43, 3);
        let merged = Expert::weighted_merge(
            &[
                &model.layers[1].moe.experts[6],
                &model.layers[1].moe.experts[7],
            ],
            &[1.0, 2.0],
        );
        let mut experts: Vec<Arc<Expert>> = model.layers[1].moe.experts[..6].to_vec();
        experts.push(Arc::new(merged));
        let map = RoutingMap::from_table(vec![0, 1, 2, 3, 4, 5, 6, 6]);
        model.set_layer_experts(1, experts, map);
        for e in 0..model.layers[0].moe.num_experts() {
            let expert = model.layers[0].moe.expert_mut(e);
            expert.b1.fill(0.25);
            expert.b2.fill(-0.5);
        }
        for width in [BitWidth::Int2, BitWidth::Int4, BitWidth::Int8] {
            let q = |m: &Matrix| QuantizedMatrix::quantize(m, width).dequantize();
            let mut reference = model.clone();
            reference.embedding = q(&model.embedding);
            reference.lm_head = q(&model.lm_head);
            reference.cls_head = model.cls_head.as_ref().map(q);
            for layer in &mut reference.layers {
                layer.attention = Attention::from_parts(
                    q(&layer.attention.wq),
                    q(&layer.attention.wk),
                    q(&layer.attention.wv),
                    q(&layer.attention.wo),
                );
                layer.moe.gate.weight = q(&layer.moe.gate.weight);
                for e in 0..layer.moe.num_experts() {
                    let expert = layer.moe.expert_mut(e);
                    expert.w1 = q(&expert.w1);
                    expert.w2 = q(&expert.w2);
                }
            }
            let copy = model.quantized_copy(width);
            assert_eq!(copy.config, reference.config);
            assert_eq!(copy.embedding, reference.embedding);
            assert_eq!(copy.layers, reference.layers);
            assert_eq!(copy.lm_head, reference.lm_head);
            assert_eq!(copy.cls_head, reference.cls_head);
        }
    }

    #[test]
    fn param_checksum_tracks_aggregation_visible_state() {
        let model = tiny_model(41);
        let same = model.clone();
        assert_eq!(model.param_checksum(), same.param_checksum());
        // Touching one expert weight changes the checksum.
        let mut touched = model.clone();
        let key = ExpertKey::new(0, 0);
        let v = touched.expert(key).w1.get(0, 0);
        touched.expert_mut(key).w1.set(0, 0, v + 1.0);
        assert_ne!(model.param_checksum(), touched.param_checksum());
        // So does touching the head.
        let mut head_touched = model.clone();
        let v = head_touched.active_head().get(0, 0);
        head_touched.active_head_mut().set(0, 0, v + 1.0);
        assert_ne!(model.param_checksum(), head_touched.param_checksum());
    }

    #[test]
    fn active_head_prefers_classification_head() {
        let mut rng = SeededRng::new(42);
        let with_cls = MoeModel::new(MoeConfig::tiny().with_classes(4), &mut rng);
        assert_eq!(
            with_cls.active_head().shape(),
            with_cls.cls_head.as_ref().unwrap().shape()
        );
        let mut rng = SeededRng::new(42);
        let without = MoeModel::new(MoeConfig::tiny(), &mut rng);
        assert_eq!(without.active_head().shape(), without.lm_head.shape());
    }

    #[test]
    fn profile_reports_topk_mass_per_layer() {
        let model = tiny_model(15);
        let mut rng = SeededRng::new(16);
        let cfg = flux_data::DatasetConfig::for_kind(DatasetKind::Gsm8k, 64)
            .with_num_samples(8)
            .with_mean_seq_len(8);
        let ds = DatasetGenerator::new(cfg).generate(&mut rng);
        let profile = model.profile(&ds);
        assert_eq!(profile.num_layers(), 4);
        for layer in 0..4 {
            let total: f32 = profile.frequencies[layer].iter().sum();
            assert!((total - 2.0).abs() < 1e-3, "layer {layer} total {total}");
        }
    }

    #[test]
    fn profile_stops_at_the_last_layers_routing() {
        use crate::layer::expert_fanouts;
        let model = tiny_model(27);
        let mut rng = SeededRng::new(28);
        let cfg = flux_data::DatasetConfig::for_kind(DatasetKind::Dolly, 64)
            .with_num_samples(2 * EVAL_BATCH + 3)
            .with_mean_seq_len(9);
        let ds = DatasetGenerator::new(cfg).generate(&mut rng);
        // The pass it replaced: every layer, the last one included, run in
        // full with the tracker attached.
        let mut tracker = ActivationTracker::new(vec![8; 4]);
        for (chunk_idx, chunk) in ds.samples.chunks(EVAL_BATCH).enumerate() {
            let refs: Vec<&Sample> = chunk.iter().collect();
            let (mut hidden, batch) = model.embed_batch(&refs);
            let row_samples: Vec<usize> = (0..chunk.len())
                .flat_map(|i| std::iter::repeat_n(chunk_idx * EVAL_BATCH + i, batch.seq_len(i)))
                .collect();
            for (idx, layer) in model.layers.iter().enumerate() {
                hidden = layer.forward_no_cache_batch(
                    &hidden,
                    batch.bounds(),
                    idx,
                    Some((&mut tracker, &row_samples)),
                );
            }
        }
        let before = expert_fanouts();
        let profile = model.profile(&ds);
        // Three batches, and in each the last of the four layers only routes.
        assert_eq!(expert_fanouts() - before, 3 * (4 - 1));
        assert_eq!(profile, tracker.finish());
    }

    #[test]
    fn recorded_forward_resumes_to_the_same_bits_from_every_layer() {
        use crate::layer::expert_fanouts;
        let mut model = tiny_cls_model(29, 4);
        let samples = [cls_sample(30), cls_sample(31)];
        let refs: Vec<&Sample> = samples.iter().collect();
        let layers = model.layers.len();
        let before = expert_fanouts();
        let base = model.record_forward(samples.iter());
        assert_eq!(expert_fanouts() - before, layers);
        assert!(!base.is_empty());
        assert_eq!(base.loss().to_bits(), model.batch_loss(&refs).to_bits());
        // An expert counts as reached exactly when a row was routed to it.
        for key in model.expert_keys() {
            let mut touched = model.clone();
            for w in touched.expert_mut(key).w2.as_mut_slice() {
                *w += 0.5;
            }
            let moved = touched.batch_loss(&refs).to_bits() != base.loss().to_bits();
            assert!(
                base.reaches(key) || !moved,
                "{key:?} moved the loss unreached"
            );
        }
        assert!(model.expert_keys().iter().any(|&k| base.reaches(k)));
        assert!(model.expert_keys().iter().any(|&k| !base.reaches(k)));
        assert!(!base.reaches(ExpertKey::new(layers, 0)));
        // Perturb one expert per layer in turn: resuming at its layer runs
        // only the layers from there up and returns the full forward's bits.
        for layer in 0..layers {
            let key = (0..8)
                .map(|e| ExpertKey::new(layer, e))
                .find(|&k| base.reaches(k))
                .expect("some expert of every layer is routed to");
            let original = model.expert(key).clone();
            for w in model.expert_mut(key).w1.as_mut_slice() {
                *w *= 1.5;
            }
            let before = expert_fanouts();
            let resumed = model.batch_loss_from(&base, layer);
            assert_eq!(expert_fanouts() - before, layers - layer);
            assert_eq!(resumed.to_bits(), model.batch_loss(&refs).to_bits());
            assert_ne!(resumed.to_bits(), base.loss().to_bits());
            model.expert_mut(key).copy_from(&original);
        }
        // No samples: nothing recorded, nothing run.
        let before = expert_fanouts();
        let empty = model.record_forward(&samples[..0]);
        assert_eq!(expert_fanouts() - before, 0);
        assert!(empty.is_empty());
        assert_eq!(empty.loss(), 0.0);
        assert!(!empty.reaches(ExpertKey::new(0, 0)));
    }

    #[test]
    fn final_embedding_is_deterministic_and_sized() {
        let model = tiny_model(17);
        let sample = gen_sample(18);
        let a = model.final_embedding(&sample);
        let b = model.final_embedding(&sample);
        assert_eq!(a.len(), 16);
        assert_eq!(a, b);
    }

    #[test]
    fn set_layer_experts_rewires_routing() {
        let mut model = tiny_model(19);
        let merged = Expert::weighted_merge(
            &[
                &model.layers[0].moe.experts[4],
                &model.layers[0].moe.experts[5],
                &model.layers[0].moe.experts[6],
                &model.layers[0].moe.experts[7],
            ],
            &[1.0; 4],
        );
        let mut experts: Vec<Arc<Expert>> = model.layers[0].moe.experts[..4].to_vec();
        experts.push(Arc::new(merged));
        let map = RoutingMap::from_table(vec![0, 1, 2, 3, 4, 4, 4, 4]);
        model.set_layer_experts(0, experts, map);
        assert_eq!(model.layers[0].moe.num_experts(), 5);
        // Forward still works.
        let cache = model.forward(&[1, 2, 3], None);
        assert_eq!(cache.final_hidden.rows(), 3);
    }

    #[test]
    #[should_panic(expected = "cover every original expert")]
    fn set_layer_experts_validates_map_length() {
        let mut model = tiny_model(20);
        let experts = model.layers[0].moe.experts[..2].to_vec();
        model.set_layer_experts(0, experts, RoutingMap::from_table(vec![0, 1]));
    }

    #[test]
    fn gradient_merge_accumulates() {
        let model = tiny_model(21);
        let s1 = gen_sample(22);
        let s2 = gen_sample(23);
        let batch = model.batch_gradients(&[s1.clone(), s2.clone()], None);
        assert_eq!(batch.samples, 2);
        let single = model.sample_gradients(&s1, None);
        assert!(batch.expert_grads.len() >= single.expert_grads.len());
    }

    #[test]
    fn kernel_scratch_is_allocation_free_after_warm_up() {
        // What "kernel scratch is allocation-free after warm-up" rests on:
        // once a train step + evaluation has grown the arena to its high
        // water, the same work again reserves nothing. Each pass starts
        // from the same weights — a trained model routes differently, and
        // a larger expert batch legitimately raises the high water. A
        // dedicated thread owns a fresh arena, and the tiny preset stays
        // below the per-expert fan-out threshold, so every kernel runs here
        // and the counters are deterministic.
        std::thread::spawn(|| {
            let initial = tiny_model(25);
            let mut rng = SeededRng::new(26);
            let cfg = flux_data::DatasetConfig::for_kind(DatasetKind::Dolly, 64)
                .with_num_samples(12)
                .with_mean_seq_len(10);
            let ds = DatasetGenerator::new(cfg).generate(&mut rng);
            let step_and_eval = || {
                let mut model = initial.clone();
                model.train_step(&ds.samples, None, 0.05);
                model.evaluate(&ds);
            };
            step_and_eval();
            flux_tensor::scratch::reset_stats();
            step_and_eval();
            step_and_eval();
            let stats = flux_tensor::scratch::stats();
            assert_eq!(stats.arena_misses, 0, "warm arena reserved a new chunk");
            assert_eq!(stats.misses, 0);
            assert!(stats.arena_hits > 0, "no kernel scope reached the arena");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn evaluate_empty_dataset() {
        let model = tiny_model(24);
        let ds = Dataset {
            kind: DatasetKind::Dolly,
            vocab_size: 64,
            samples: vec![],
        };
        let r = model.evaluate(&ds);
        assert_eq!(r.samples, 0);
        assert_eq!(r.score, 0.0);
    }
}
