//! The full MoE transformer model.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
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
use crate::layer::{TransformerLayer, TransformerLayerBatchCache, LN_EPS};
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

    /// Embeds every sample of a mini-batch into one packed
    /// `(total_tokens, d_model)` matrix with sinusoidal positional
    /// encodings added. Positions restart at every sample boundary, so a
    /// sample's rows are the same bits whatever else the batch holds.
    pub fn embed_batch(&self, samples: &[&Sample]) -> (Matrix, PackedBatch) {
        embed_packed(&self.config, samples, |tok, row| {
            row.copy_from_slice(self.embedding.row(tok))
        })
    }

    /// Runs the transformer stack over a packed mini-batch (see
    /// [`MoeModel::embed_batch`]). Per-token hidden states are bit-identical
    /// to running each sample alone, as a batch of one; the speedup comes
    /// from every row-parallel stage (projections, gating, expert GEMMs)
    /// running once over the whole batch, with tokens grouped by routed
    /// expert across all samples.
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
    /// evaluation and [`MoeModel::final_embedding`]: per-token final hidden
    /// states bit-identical to [`MoeModel::forward_batch`]'s, and to each
    /// sample's run alone as a batch of one.
    /// Returns the packed final hidden states and the batch layout.
    pub fn forward_no_cache_batch(&self, samples: &[&Sample]) -> (Matrix, PackedBatch) {
        let (hidden, batch) = self.embed_batch(samples);
        (self.final_hidden_from(&hidden, batch.bounds(), 0), batch)
    }

    /// The no-cache forward from layer `first` up, over that layer's packed
    /// `input`: layers `first..`, then the final layer norm.
    fn final_hidden_from(&self, input: &Matrix, bounds: &[(usize, usize)], first: usize) -> Matrix {
        let mut hidden: Option<Matrix> = None;
        for (idx, layer) in self.layers.iter().enumerate().skip(first) {
            let current = hidden.as_ref().unwrap_or(input);
            hidden = Some(layer.forward_no_cache_batch(current, bounds, idx, None));
        }
        ops::layer_norm(hidden.as_ref().unwrap_or(input), LN_EPS)
    }

    /// The task heads over a packed batch's final hidden states, one GEMM
    /// per head: each generation sample's reference-tail rows through the
    /// LM head, each classification sample's mean-pooled row through the
    /// class head, every logits row scored by [`softmax_ce_row`]. A
    /// sample's loss is the mean of its rows' (0 for an empty tail); a GEMM
    /// row does not depend on how many rows share the call, so it does not
    /// depend on the rest of the batch. With `train`, also
    /// `(grad_final_hidden, head_grad)`, `head_grad` the *sum* over samples
    /// (callers average by sample count).
    fn head_pass(
        &self,
        samples: &[&Sample],
        final_hidden: &Matrix,
        batch: &PackedBatch,
        train: bool,
    ) -> HeadPass {
        let (mut lm, mut cls) = (HeadRows::default(), HeadRows::default());
        for (i, (sample, &(start, end))) in samples.iter().zip(batch.bounds()).enumerate() {
            match &sample.task {
                Task::Generation { reference } => {
                    let r = reference.len().min(end - start);
                    for (row, &t) in (end - r..end).zip(&reference[reference.len() - r..]) {
                        let target = (t as usize).min(self.config.vocab_size - 1);
                        lm.push(final_hidden.row(row), (target, i, r, row..row + 1));
                    }
                }
                Task::Classification { label, .. } => {
                    let pooled = mean_pool(final_hidden, start..end);
                    cls.push(&pooled, (*label, i, 1, start..end));
                }
            }
        }
        let mut pass = HeadPass {
            samples: vec![(0.0, Vec::new()); samples.len()],
            grads: train.then(|| {
                let (rows, cols) = self.active_head().shape();
                let grad_hidden = Matrix::zeros(final_hidden.rows(), final_hidden.cols());
                (grad_hidden, Matrix::zeros(rows, cols))
            }),
        };
        lm.score(Some(&self.lm_head), &mut pass);
        cls.score(self.cls_head.as_ref(), &mut pass);
        for (loss, predicted) in &mut pass.samples {
            *loss /= predicted.len().max(1) as f32;
        }
        pass
    }

    /// Forward + backward over a batch of samples, accumulating gradients.
    ///
    /// This is the batched training path: all samples' tokens are packed
    /// into one activation matrix per layer, tokens are grouped by routed
    /// expert across the whole batch (one wide GEMM per expert instead of
    /// one skinny matmul per sample), and parameter gradients accumulate
    /// batch-wise inside the kernels. Per-token activations and input
    /// gradients are bit-identical to running each sample as a batch of
    /// one; accumulated quantities (expert/head parameter gradients, the
    /// mean loss) differ from [`GradientSet::merge`]-ing those one-sample
    /// sets in order only by float-summation order, within ~1e-4 relative
    /// tolerance at f32 (`tests/batched_equivalence.rs`). The loss and the
    /// head gradient come from the head pass the loss probes and
    /// evaluation score with; the mean loss sums the per-sample losses in
    /// sample order, so it is [`MoeModel::batch_loss`]'s bits.
    ///
    /// Only what the backward reads is held: the forward caches no layer
    /// below the lowest tuned one (none at all for an empty tuning set),
    /// and each layer's cache is dropped as soon as its backward has run.
    pub fn batch_gradients(
        &self,
        samples: &[Sample],
        tuning: Option<&HashSet<ExpertKey>>,
    ) -> GradientSet {
        if samples.is_empty() {
            let (rows, cols) = self.active_head().shape();
            return GradientSet {
                expert_grads: HashMap::new(),
                head_grad: Matrix::zeros(rows, cols),
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
        let head = self.head_pass(&refs, &final_hidden, &batch, true);
        let loss = head.mean_loss();
        let (grad_final_hidden, head_grad) = head.grads.expect("a training pass");
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
        let head = self.active_head_mut();
        if head.shape() == grads.head_grad.shape() {
            head.add_scaled(&grads.head_grad, -learning_rate)
                .expect("head gradient shape");
        }
    }

    /// Mean per-sample loss over a mini-batch, with one packed forward pass
    /// and one head pass (no parameter or input gradients): the loss
    /// [`MoeModel::batch_gradients`] reports on the same samples, and
    /// bit-identical to averaging `batch_loss(&[sample])` over the samples
    /// in order, whatever mix of tasks the batch holds.
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
    /// The forward-gradient estimator differences these probes, so an
    /// explored expert is ranked by the loss training descends: both end
    /// in the same head pass.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is not a layer of the recorded forward.
    pub fn batch_loss_from(&self, base: &RecordedForward<'_>, layer: usize) -> f32 {
        self.loss_from_layer(&base.samples, &base.batch, &base.layer_inputs[layer], layer)
    }

    /// The tail every loss probe shares: layers `layer..` over the packed
    /// `input` of `layer`, the final layer norm, and the mean of the
    /// per-sample head losses.
    fn loss_from_layer(
        &self,
        samples: &[&Sample],
        batch: &PackedBatch,
        input: &Matrix,
        layer: usize,
    ) -> f32 {
        let final_hidden = self.final_hidden_from(input, batch.bounds(), layer);
        self.head_pass(samples, &final_hidden, batch, false)
            .mean_loss()
    }

    /// Evaluates the model on a dataset: mean ROUGE-L for generation, exact
    /// match accuracy for classification, plus the mean loss. Each
    /// `EVAL_BATCH` chunk runs one packed forward and one head pass, which
    /// scores by argmax over the same logits rows the loss reads (the
    /// generated tokens of a generation sample's tail, the predicted class
    /// of a pooled row), so a sample scores what it scores alone.
    pub fn evaluate(&self, dataset: &Dataset) -> EvalResult {
        let mut score_sum = 0.0;
        let mut loss_sum = 0.0;
        for chunk in dataset.samples.chunks(EVAL_BATCH) {
            let refs: Vec<&Sample> = chunk.iter().collect();
            let (final_hidden, batch) = self.forward_no_cache_batch(&refs);
            let head = self.head_pass(&refs, &final_hidden, &batch, false);
            for (sample, (loss, predicted)) in chunk.iter().zip(head.samples) {
                loss_sum += loss;
                score_sum += match &sample.task {
                    Task::Generation { reference } => {
                        let tokens: Vec<u32> = predicted.iter().map(|&t| t as u32).collect();
                        rouge_l(&tokens, reference)
                    }
                    Task::Classification { label, .. } => f32::from(predicted == [*label]),
                };
            }
        }
        // An empty dataset scores 0 with loss 0.
        let n = dataset.len().max(1) as f32;
        EvalResult {
            score: score_sum / n,
            loss: loss_sum / n,
            samples: dataset.len(),
        }
    }

    /// Mean-pooled final hidden state of a sample, used as the "final token
    /// embeddings" in the paper's output-error measurements (Fig. 8): the
    /// no-cache forward on a batch of one. An empty sample pools no rows,
    /// so every entry is NaN.
    pub fn final_embedding(&self, sample: &Sample) -> Vec<f32> {
        let (final_hidden, _) = self.forward_no_cache_batch(&[sample]);
        mean_pool(&final_hidden, 0..final_hidden.rows())
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

/// What one [`MoeModel::head_pass`] produced.
struct HeadPass {
    /// Per sample, in sample order: its loss, and the argmax class of each
    /// row it was scored on (its generated tail, or its predicted label).
    samples: Vec<(f32, Vec<usize>)>,
    /// `(grad_final_hidden, head_grad)` of a training pass.
    grads: Option<(Matrix, Matrix)>,
}

impl HeadPass {
    /// Mean of the per-sample losses, summed in sample order.
    fn mean_loss(&self) -> f32 {
        let sum = self
            .samples
            .iter()
            .fold(0.0f32, |sum, (loss, _)| sum + loss);
        sum / self.samples.len().max(1) as f32
    }
}

/// The rows one head scores in a [`MoeModel::head_pass`].
#[derive(Default)]
struct HeadRows {
    /// The rows gathered from the packed final hidden states, flat.
    input: Vec<f32>,
    /// Per row: its target class, its sample, the number of rows its
    /// sample's loss averages, and the packed rows it pools.
    rows: Vec<(usize, usize, usize, Range<usize>)>,
}

impl HeadRows {
    fn push(&mut self, input: &[f32], row: (usize, usize, usize, Range<usize>)) {
        self.input.extend_from_slice(input);
        self.rows.push(row);
    }

    /// Scores the rows through `head` in one GEMM (reading no head when
    /// there are none) into their samples' entries of `pass`. A training
    /// pass also backpropagates: into `head_grad` when the shapes match
    /// (not for a generation sample in a classification model, as
    /// [`GradientSet::merge`] drops a head gradient of the wrong shape),
    /// and into every packed row a row pools, divided by their count.
    fn score(self, head: Option<&Matrix>, pass: &mut HeadPass) {
        if self.rows.is_empty() {
            return;
        }
        let head = head.expect("classification sample requires a classification head");
        let input = Matrix::from_vec(self.rows.len(), head.rows(), self.input).expect("row width");
        let logits = input.matmul(head);
        let mut grad_logits = pass
            .grads
            .as_ref()
            .map(|_| Matrix::zeros(logits.rows(), logits.cols()));
        for (r, &(target, i, div, _)) in self.rows.iter().enumerate() {
            let grad = grad_logits.as_mut().map(|g| (g.row_mut(r), div as f32));
            let (loss, predicted) = &mut pass.samples[i];
            *loss += softmax_ce_row(logits.row(r), target, grad);
            predicted.push(stats::argmax(logits.row(r)).unwrap_or(0));
        }
        if let (Some((grad_hidden, head_grad)), Some(grad_logits)) = (&mut pass.grads, grad_logits)
        {
            if head.shape() == head_grad.shape() {
                let contrib = input.matmul_transa(&grad_logits).expect("row counts");
                head_grad.add_scaled(&contrib, 1.0).expect("same shape");
            }
            let grad_input = grad_logits.matmul_transb(head).expect("col counts");
            for (r, (_, _, _, pooled)) in self.rows.iter().enumerate() {
                let seq = pooled.len() as f32;
                for row in pooled.clone() {
                    for (o, &g) in grad_hidden.row_mut(row).iter_mut().zip(grad_input.row(r)) {
                        *o = g / seq;
                    }
                }
            }
        }
    }
}

/// Softmax cross-entropy of one logits row against class `target`, the one
/// definition training, the loss probes and evaluation share: returns
/// `-ln p[target]` and, given `(grad, div)`, writes the logits gradient
/// `(p - onehot(target)) / div`, `div` being the number of rows the
/// sample's loss averages.
fn softmax_ce_row(logits: &[f32], target: usize, grad: Option<(&mut [f32], f32)>) -> f32 {
    let probs = ops::softmax_row(logits);
    if let Some((grad, div)) = grad {
        for (c, (g, &p)) in grad.iter_mut().zip(&probs).enumerate() {
            *g = (p - if c == target { 1.0 } else { 0.0 }) / div;
        }
    }
    -(probs[target].max(1e-12)).ln()
}

/// Mean of `rows` of `hidden`: summed in order, then divided by their
/// count (all NaN for no rows).
fn mean_pool(hidden: &Matrix, rows: Range<usize>) -> Vec<f32> {
    let seq = rows.len() as f32;
    let mut pooled = vec![0.0f32; hidden.cols()];
    for r in rows {
        pooled
            .iter_mut()
            .zip(hidden.row(r))
            .for_each(|(o, &v)| *o += v);
    }
    pooled.iter_mut().for_each(|o| *o /= seq);
    pooled
}

/// The per-dimension sinusoidal rates. They depend only on the dimension
/// index, so [`embed_packed`] hoists the `powf` out of the token loop (it
/// dominated the embed cost at small d_model).
fn positional_rates(d_model: usize) -> Vec<f32> {
    (0..d_model)
        .map(|i| 1.0 / 10_000f32.powf((2 * (i / 2)) as f32 / d_model as f32))
        .collect()
}

/// Packs `samples` into one `(total_tokens, d_model)` embedding matrix,
/// each at its offset in the batch with positions counted from the
/// sample's start (not the packed row). `embedding_row(token, row)` writes
/// a token's embedding row; tokens past the vocabulary are clamped to its
/// last entry.
pub(crate) fn embed_packed(
    config: &MoeConfig,
    samples: &[&Sample],
    embedding_row: impl Fn(usize, &mut [f32]),
) -> (Matrix, PackedBatch) {
    let batch = PackedBatch::from_lengths(samples.iter().map(|s| s.tokens.len()));
    let rates = positional_rates(config.d_model);
    let mut out = Matrix::zeros(batch.total_tokens(), config.d_model);
    for (sample, &(start, _)) in samples.iter().zip(batch.bounds()) {
        for (pos, &tok) in sample.tokens.iter().enumerate() {
            let tok = (tok as usize).min(config.vocab_size - 1);
            let out_row = out.row_mut(start + pos);
            embedding_row(tok, out_row);
            // Sinusoidal positional encoding.
            for (i, (value, &rate)) in out_row.iter_mut().zip(&rates).enumerate() {
                let angle = pos as f32 * rate;
                *value += if i % 2 == 0 { angle.sin() } else { angle.cos() } * 0.1;
            }
        }
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

    /// The packed final hidden states of `tokens` run alone.
    fn final_hidden(model: &MoeModel, tokens: &[u32]) -> Matrix {
        let sample = Sample {
            tokens: tokens.to_vec(),
            topic: 0,
            task: Task::Generation { reference: vec![1] },
        };
        model.forward_no_cache_batch(&[&sample]).0
    }

    /// Gradients of one sample: [`MoeModel::batch_gradients`] on a batch
    /// of one.
    fn gradients_of_one(
        model: &MoeModel,
        sample: &Sample,
        tuning: Option<&HashSet<ExpertKey>>,
    ) -> GradientSet {
        model.batch_gradients(std::slice::from_ref(sample), tuning)
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
        let hidden = final_hidden(&model, &[1, 2, 3, 4, 5]);
        assert_eq!(hidden.shape(), (5, 16));
        assert!(hidden.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn out_of_vocab_tokens_are_clamped() {
        let model = tiny_model(3);
        let hidden = final_hidden(&model, &[9999, 0, 63]);
        assert_eq!(hidden.rows(), 3);
    }

    #[test]
    fn generation_gradients_have_expected_shapes() {
        let model = tiny_model(4);
        let sample = gen_sample(5);
        let grads = gradients_of_one(&model, &sample, None);
        assert!(grads.loss > 0.0);
        assert!(!grads.expert_grads.is_empty());
        assert_eq!(grads.head_grad.shape(), (16, 64));
    }

    #[test]
    fn classification_gradients_have_expected_shapes() {
        let model = tiny_cls_model(6, 2);
        let sample = cls_sample(7);
        let grads = gradients_of_one(&model, &sample, None);
        assert!(grads.loss > 0.0);
        assert_eq!(grads.head_grad.shape(), (16, 2));
    }

    #[test]
    fn tuning_set_limits_expert_gradients() {
        let model = tiny_model(8);
        let sample = gen_sample(9);
        let all = gradients_of_one(&model, &sample, None);
        let mut tuning = HashSet::new();
        tuning.insert(ExpertKey::new(0, 0));
        tuning.insert(ExpertKey::new(1, 1));
        let restricted = gradients_of_one(&model, &sample, Some(&tuning));
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
                gradients_of_one(&model, &sample, Some(&tuning)),
            ),
            (
                &upper,
                &all,
                gradients_of_one(&model, &sample, Some(&upper)),
            ),
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
        let none = gradients_of_one(&model, &sample, Some(&HashSet::new()));
        assert!(none.expert_grads.is_empty());
        assert_eq!(none.head_grad, all.head_grad);
    }

    #[test]
    fn gradients_of_one_sample_match_central_differences_of_the_loss() {
        // An oracle that shares nothing with the backward pass: nudge one
        // parameter both ways, rerun the loss-only forward, and compare the
        // slope with the gradient. Each check takes the largest entries of
        // the analytic gradient, so a vanishing gradient cannot pass.
        //
        // The backward holds routing weights constant (the gate is frozen
        // and its probabilities are not differentiated), so an expert's
        // gradient is exact only where no routing weight above it moves:
        // in the last layer, or under top-1 routing, whose renormalized
        // weight is always 1. The top-2 models check a last-layer expert,
        // the top-1 models one in layer 0, whose gradient comes back
        // through every attention and MoE backward above it.
        const EPS: f32 = 1e-2;
        fn largest(grad: &[f32], n: usize) -> Vec<usize> {
            let mut idx: Vec<usize> = (0..grad.len()).collect();
            idx.sort_by(|&a, &b| grad[b].abs().total_cmp(&grad[a].abs()));
            idx.truncate(n);
            idx
        }
        let model = |classes: Option<usize>, top_k: usize, seed: u64| {
            let mut config = MoeConfig::tiny();
            config.num_classes = classes;
            config.top_k = top_k;
            MoeModel::new(config, &mut SeededRng::new(seed))
        };
        // A nudge that flips a top-k choice above the nudged parameter
        // makes the loss jump, and no slope means anything across it; at
        // these seeds no choice flips.
        let cases = [
            (model(None, 2, 31), gen_sample(32), 3),
            (model(Some(3), 2, 33), cls_sample(34), 3),
            (model(None, 1, 31), gen_sample(32), 0),
            (model(Some(3), 1, 33), cls_sample(34), 0),
        ];
        for (model, sample, layer) in cases {
            let grads = gradients_of_one(&model, &sample, None);
            let slope = |nudge: &dyn Fn(&mut MoeModel, f32)| {
                let mut plus = model.clone();
                nudge(&mut plus, EPS);
                let mut minus = model.clone();
                nudge(&mut minus, -EPS);
                (plus.batch_loss(&[&sample]) - minus.batch_loss(&[&sample])) / (2.0 * EPS)
            };
            let check = |what: String, analytic: f32, numeric: f32| {
                assert!(
                    (numeric - analytic).abs() <= 1e-2 * analytic.abs() + 2e-4,
                    "{what}: numeric {numeric} analytic {analytic}"
                );
            };
            for i in largest(grads.head_grad.as_slice(), 3) {
                let numeric = slope(&|m, d| m.active_head_mut().as_mut_slice()[i] += d);
                check(format!("head[{i}]"), grads.head_grad.as_slice()[i], numeric);
            }
            let (&key, expert) = grads
                .expert_grads
                .iter()
                .filter(|(k, _)| k.layer == layer)
                .max_by(|a, b| a.1.w1.frobenius_norm().total_cmp(&b.1.w1.frobenius_norm()))
                .expect("the layer routes to some expert");
            for i in largest(expert.w1.as_slice(), 3) {
                let numeric = slope(&|m, d| m.expert_mut(key).w1.as_mut_slice()[i] += d);
                check(format!("{key:?} w1[{i}]"), expert.w1.as_slice()[i], numeric);
            }
            for i in largest(&expert.b2, 2) {
                let numeric = slope(&|m, d| m.expert_mut(key).b2[i] += d);
                check(format!("{key:?} b2[{i}]"), expert.b2[i], numeric);
            }
        }
    }

    #[test]
    fn softmax_ce_row_is_the_cross_entropy_of_the_softmax() {
        let loss = |logits: &[f32], target| softmax_ce_row(logits, target, None);
        // A confident right answer costs almost nothing; uniform logits
        // cost ln k.
        assert!(loss(&[10.0, -10.0], 0) < 1e-3);
        assert!(loss(&[-10.0, 10.0], 1) < 1e-3);
        assert!((loss(&[0.0; 4], 2) - 4f32.ln()).abs() < 1e-4);
        // The gradient is the loss's slope, divided by the sample's row
        // count.
        let logits = [0.2, -0.4, 0.9];
        for div in [1.0, 3.0] {
            let mut grad = [0.0; 3];
            softmax_ce_row(&logits, 2, Some((&mut grad, div)));
            for c in 0..3 {
                let (mut plus, mut minus) = (logits, logits);
                plus[c] += 1e-3;
                minus[c] -= 1e-3;
                let numeric = (loss(&plus, 2) - loss(&minus, 2)) / 2e-3 / div;
                assert!(
                    (grad[c] - numeric).abs() < 1e-2,
                    "{c}: {} vs {numeric}",
                    grad[c]
                );
            }
        }
        // Over random rows: the loss is never negative, and a gradient row
        // (softmax minus one-hot) sums to about zero.
        for seed in 0..200 {
            let mut rng = SeededRng::new(seed);
            let logits = Matrix::random_normal(4, 6, 2.0, &mut rng);
            for r in 0..4 {
                let mut grad = [0.0; 6];
                let target = rng.below(6);
                assert!(softmax_ce_row(logits.row(r), target, Some((&mut grad, 1.0))) >= 0.0);
                assert!(grad.iter().sum::<f32>().abs() < 1e-4);
            }
        }
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
        assert_eq!(final_hidden(&model, &[1, 2, 3]).rows(), 3);
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
        let single = gradients_of_one(&model, &s1, None);
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
