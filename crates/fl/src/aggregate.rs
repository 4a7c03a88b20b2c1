//! FedAvg aggregation of expert parameters and task heads: one-shot
//! kernels plus the shard-wise incremental [`ShardedAggregator`], which
//! stages uploads in any order from any thread and reduces them in
//! participant-id order. The driver stages a round's uploads at one
//! point, its delivery layer, once the round's fan-out has returned.
//!
//! Staged experts are `Arc<Expert>`s. An upload that holds its experts
//! shared stages them as they are, so an expert the participant never
//! wrote stays the round-start snapshot's own `Arc` from the local round
//! to FedAvg and is never copied; an owned expert is wrapped with
//! `Arc::new`, which copies nothing either. [`ShardedAggregator::finalize`]
//! drains every staged `Arc` before the store installs the result, so the
//! install changes the model in place.

use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use threadpool::ThreadPool;

use flux_moe::{Expert, ExpertKey, MoeModel};
use flux_tensor::Matrix;

use crate::compress::{DecodeError, EncodedUpload};
use crate::sync::lock;

/// One participant's update for a single expert. `E` is how the update
/// holds the parameters: owned (an [`Expert`], the default) or shared (an
/// `Arc<Expert>`, see [`SharedExpertUpdate`]).
#[derive(Debug, Clone)]
pub struct ExpertUpdate<E = Expert> {
    /// Which global (original) expert this update targets.
    pub key: ExpertKey,
    /// The updated expert parameters after local fine-tuning.
    pub expert: E,
    /// Aggregation weight (the paper uses FedAvg, weighting by the number of
    /// local samples/tokens that contributed).
    pub weight: f32,
}

/// An update that shares its parameters: what a local round uploads and
/// what the aggregator stages.
pub type SharedExpertUpdate = ExpertUpdate<Arc<Expert>>;

impl<E: Into<Arc<Expert>>> ExpertUpdate<E> {
    /// The same update holding its parameters shared: an owned expert is
    /// wrapped with `Arc::new`, a shared one stays itself. Copies nothing.
    pub fn into_shared(self) -> SharedExpertUpdate {
        ExpertUpdate {
            key: self.key,
            expert: self.expert.into(),
            weight: self.weight,
        }
    }
}

impl SharedExpertUpdate {
    /// The same update holding its parameters owned: moved out when this
    /// update is their only holder, copied otherwise.
    pub fn into_owned(self) -> ExpertUpdate {
        ExpertUpdate {
            key: self.key,
            expert: Arc::unwrap_or_clone(self.expert),
            weight: self.weight,
        }
    }
}

/// Aggregates expert updates with FedAvg.
///
/// Updates targeting the same [`ExpertKey`] are averaged with their weights;
/// experts no participant updated are absent from the result (the server
/// keeps its previous parameters for those).
pub fn fedavg_experts(updates: &[ExpertUpdate]) -> HashMap<ExpertKey, Expert> {
    fedavg(updates)
}

/// [`fedavg_experts`] over updates that hold their parameters either way:
/// the staged path's kernel, the same arithmetic in the same order.
fn fedavg<E: Borrow<Expert>>(updates: &[ExpertUpdate<E>]) -> HashMap<ExpertKey, Expert> {
    let mut grouped: HashMap<ExpertKey, Vec<&ExpertUpdate<E>>> = HashMap::new();
    for update in updates {
        grouped.entry(update.key).or_default().push(update);
    }
    let mut out = HashMap::new();
    for (key, group) in grouped {
        let experts: Vec<&Expert> = group.iter().map(|u| u.expert.borrow()).collect();
        let weights: Vec<f32> = group.iter().map(|u| u.weight.max(0.0)).collect();
        let total: f32 = weights.iter().sum();
        let weights = if total > 0.0 {
            weights
        } else {
            vec![1.0; experts.len()]
        };
        out.insert(key, Expert::weighted_merge(&experts, &weights));
    }
    out
}

/// FedAvg over matrices (task heads): weighted element-wise average.
///
/// Returns `None` when the input is empty. The target shape is the shape of
/// the first entry carrying positive weight (falling back to the first
/// entry when no weight is positive), so a zero-weight straggler at the
/// front cannot dictate the shape every real update gets skipped against.
/// Entries with a different shape are skipped (a participant running a
/// different head cannot be averaged); when every shape-compatible weight
/// is non-positive the result is their *uniform* average, mirroring
/// [`fedavg_experts`].
pub fn fedavg_matrices(updates: &[(Matrix, f32)]) -> Option<Matrix> {
    let shape = updates
        .iter()
        .find(|(_, w)| *w > 0.0)
        .map(|(m, _)| m.shape())
        .or_else(|| updates.first().map(|(m, _)| m.shape()))?;
    let mut acc = Matrix::zeros(shape.0, shape.1);
    let mut total_weight = 0.0f32;
    for (m, w) in updates {
        if m.shape() != shape || *w <= 0.0 {
            continue;
        }
        acc.add_scaled(m, *w).expect("same shape");
        total_weight += *w;
    }
    if total_weight <= 0.0 {
        // Uniform fallback over the shape-compatible entries.
        let mut count = 0.0f32;
        for (m, _) in updates {
            if m.shape() == shape {
                acc.add_scaled(m, 1.0).expect("same shape");
                count += 1.0;
            }
        }
        acc.scale_in_place(1.0 / count.max(1.0));
        return Some(acc);
    }
    acc.scale_in_place(1.0 / total_weight);
    Some(acc)
}

/// Incremental, shard-wise FedAvg aggregation.
///
/// Uploads may be staged in any order (the driver's delivery layer stages
/// them in arrival order, or a seeded shuffle of it). Naive eager
/// averaging would make the result depend on that order (f32 addition is
/// not associative), so the aggregator splits the work in two:
///
/// * [`ShardedAggregator::submit`] *stages* an upload: every expert update
///   is routed to its shard (a deterministic function of the expert key)
///   and appended, as an `Arc<Expert>`, under the submitting participant's
///   id. Staging copies no parameters, is cheap,
///   lock-per-shard, and safe from any thread in any order. A participant
///   id can only be staged once — a retransmitting straggler cannot
///   double-count its weight.
/// * [`ShardedAggregator::finalize`] reduces each shard by sorting its
///   staged updates into participant-id order and running the one-shot
///   [`fedavg_experts`] / [`fedavg_matrices`] kernels over them. Shards
///   partition the expert-key space, so they can reduce concurrently; the
///   per-key weighted sums run in participant-id order regardless of how
///   updates arrived, which keeps the result *bit-identical* to the
///   one-shot aggregation of the same uploads in participant-id order. It
///   drains every staged `Arc`, so none outlives the reduction.
#[derive(Debug)]
pub struct ShardedAggregator {
    /// Expert updates staged per shard as `(participant_id, update)`.
    shards: Vec<Mutex<Vec<(usize, SharedExpertUpdate)>>>,
    /// Head updates staged as `(participant_id, head, weight)`.
    heads: Mutex<Vec<(usize, Matrix, f32)>>,
    /// Participants that have already submitted this round.
    submitted: Mutex<BTreeSet<usize>>,
}

impl ShardedAggregator {
    /// Creates an aggregator with `num_shards` expert shards (minimum 1).
    pub fn new(num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        Self {
            shards: (0..num_shards).map(|_| Mutex::new(Vec::new())).collect(),
            heads: Mutex::new(Vec::new()),
            submitted: Mutex::new(BTreeSet::new()),
        }
    }

    /// Number of expert shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard aggregates `key`. Deterministic — and shared with the
    /// store's checkpoints ([`crate::store::shard_of_key`]), so shard *i*
    /// of a round's staged uploads holds exactly the keys of the
    /// checkpoint's shard file *i*.
    pub fn shard_of(&self, key: ExpertKey) -> usize {
        crate::store::shard_of_key(key, self.shards.len())
    }

    /// Stages one participant's upload. Returns `false` (ignoring the
    /// upload) when this participant already submitted this round, which
    /// makes duplicate transmissions idempotent instead of double-counted.
    /// Owned and shared updates both stage without a copy (see
    /// [`ExpertUpdate::into_shared`]).
    pub fn submit<E: Into<Arc<Expert>>>(
        &self,
        participant_id: usize,
        expert_updates: Vec<ExpertUpdate<E>>,
        head_update: Option<(Matrix, f32)>,
    ) -> bool {
        if !lock(&self.submitted).insert(participant_id) {
            return false;
        }
        for update in expert_updates {
            let shard = self.shard_of(update.key);
            lock(&self.shards[shard]).push((participant_id, update.into_shared()));
        }
        if let Some((head, weight)) = head_update {
            lock(&self.heads).push((participant_id, head, weight));
        }
        true
    }

    /// Stages one participant's *encoded* upload: the compressed payload is
    /// decoded against the round-start snapshot `base` here, so the decoded
    /// updates reduce under the same per-shard locks and
    /// participant-id-ordered reduction as dense uploads — compression
    /// never perturbs aggregation order. An expert the upload left
    /// unchanged stages as `base`'s own `Arc` (see
    /// [`EncodedUpload::decode_shared`]). Duplicate submissions are rejected
    /// (`Ok(false)`) before the (non-trivial) decode work. (The driver
    /// decodes its uploads on the participant's worker and stages them
    /// with [`ShardedAggregator::submit`]; only a damaged payload reaches
    /// it here, to be rejected.)
    ///
    /// # Errors
    ///
    /// Returns the [`DecodeError`] when the upload fails checksum or
    /// payload validation. A rejected upload stages *nothing* and does not
    /// mark the participant as submitted, so a clean retransmission of the
    /// same pid still lands.
    pub fn submit_encoded(
        &self,
        participant_id: usize,
        upload: &EncodedUpload,
        base: &MoeModel,
    ) -> Result<bool, DecodeError> {
        if lock(&self.submitted).contains(&participant_id) {
            return Ok(false);
        }
        let (expert_updates, head_update) = upload.decode_shared(base)?;
        Ok(self.submit(participant_id, expert_updates, head_update))
    }

    /// Participants staged so far.
    pub fn submitted_participants(&self) -> usize {
        lock(&self.submitted).len()
    }

    /// Whether `participant_id` has already submitted this round.
    pub fn has_submitted(&self, participant_id: usize) -> bool {
        lock(&self.submitted).contains(&participant_id)
    }

    /// Parameter bytes of the staged experts that nothing else holds: the
    /// copies this round's uploads cost the server on top of the models
    /// that are alive anyway. An expert the upload shares with the
    /// round-start snapshot (or any other live model) counts nothing.
    pub fn staged_owned_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                lock(shard)
                    .iter()
                    .filter(|(_, update)| Arc::strong_count(&update.expert) == 1)
                    .map(|(_, update)| update.expert.num_params() * 4)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Reduces one shard: its staged updates sorted into participant-id
    /// order, fed through the one-shot FedAvg kernel, draining the shard.
    fn finalize_shard(&self, shard: usize) -> HashMap<ExpertKey, Expert> {
        let mut staged = std::mem::take(&mut *lock(&self.shards[shard]));
        staged.sort_by_key(|(pid, _)| *pid);
        let ordered: Vec<SharedExpertUpdate> = staged.into_iter().map(|(_, u)| u).collect();
        fedavg(&ordered)
    }

    /// Reduces every shard (and the head slot) into the final FedAvg
    /// result, draining the staged state and clearing the submitted set so
    /// the aggregator can stage the next round.
    ///
    /// The per-shard reductions fan out to `pool`; shards hold disjoint
    /// keys and each reduces in participant-id order, so the result is
    /// bit-identical for every thread count and every arrival order.
    pub fn finalize(&self, pool: &ThreadPool) -> (HashMap<ExpertKey, Expert>, Option<Matrix>) {
        let tasks: Vec<_> = (0..self.shards.len())
            .map(|shard| move || self.finalize_shard(shard))
            .collect();
        let mut experts = HashMap::new();
        for shard_result in pool.run(tasks) {
            experts.extend(shard_result);
        }
        let mut heads = std::mem::take(&mut *lock(&self.heads));
        heads.sort_by_key(|(pid, _, _)| *pid);
        let ordered: Vec<(Matrix, f32)> = heads.into_iter().map(|(_, m, w)| (m, w)).collect();
        lock(&self.submitted).clear();
        (experts, fedavg_matrices(&ordered))
    }
}

/// Two-level aggregation tree: edge aggregators pre-reduce their cohort
/// slice before it reaches the root [`ShardedAggregator`].
///
/// Each edge performs the *structural* half of the reduction as an upload
/// is staged — routing every expert update to its key shard and rejecting
/// duplicate pids (plus decoding and checksum-validating a payload handed
/// to [`AggregationTree::submit_encoded`]) — so the root only concatenates
/// pre-bucketed shard slices and runs the pid-ordered FedAvg kernels. Edges deliberately do **not** pre-sum
/// parameters: f32 addition is non-associative, so an arithmetic partial
/// reduce per edge would make the result depend on the edge topology. By
/// forwarding `(pid, update)` pairs instead, the root's pid-sorted
/// [`ShardedAggregator::finalize`] restores exactly the flat
/// reduction order, which pins the tree **bit-identical** to flat FedAvg
/// for every edge count, cohort partition and arrival order.
///
/// With zero edges the tree is the flat aggregator: submissions go straight
/// to the root.
#[derive(Debug)]
pub struct AggregationTree {
    root: ShardedAggregator,
    edges: Vec<ShardedAggregator>,
}

impl AggregationTree {
    /// Wraps `root` with `num_edges` edge aggregators (0 or 1 = flat: one
    /// level, no pre-reduction stage).
    pub fn new(root: ShardedAggregator, num_edges: usize) -> Self {
        let shards = root.num_shards();
        let edges = if num_edges <= 1 {
            Vec::new()
        } else {
            (0..num_edges)
                .map(|_| ShardedAggregator::new(shards))
                .collect()
        };
        Self { root, edges }
    }

    /// Number of edge aggregators (0 = flat).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The root aggregator. Staged edge uploads are only visible here after
    /// [`AggregationTree::collapse`].
    pub fn root(&self) -> &ShardedAggregator {
        &self.root
    }

    /// The edge that owns `pid`'s uploads (`None` when flat): a stable
    /// function of the participant id, so a client reports to the same edge
    /// on every round, thread count and replay.
    pub fn edge_of(&self, pid: usize) -> Option<usize> {
        if self.edges.is_empty() {
            None
        } else {
            Some(pid % self.edges.len())
        }
    }

    /// Stages one participant's upload at its edge (or the root when flat).
    /// Duplicate pids are rejected exactly as in the flat aggregator.
    pub fn submit<E: Into<Arc<Expert>>>(
        &self,
        participant_id: usize,
        expert_updates: Vec<ExpertUpdate<E>>,
        head_update: Option<(Matrix, f32)>,
    ) -> bool {
        match self.edge_of(participant_id) {
            None => self
                .root
                .submit(participant_id, expert_updates, head_update),
            Some(edge) => self.submit_to_edge(edge, participant_id, expert_updates, head_update),
        }
    }

    /// Stages an upload at an explicit edge — the hook for arbitrary
    /// (ragged) cohort partitions. A pid already accepted at the root or
    /// at any edge is rejected, preserving the flat duplicate discipline
    /// across levels.
    pub fn submit_to_edge<E: Into<Arc<Expert>>>(
        &self,
        edge: usize,
        participant_id: usize,
        expert_updates: Vec<ExpertUpdate<E>>,
        head_update: Option<(Matrix, f32)>,
    ) -> bool {
        if self.edges.is_empty() {
            return self
                .root
                .submit(participant_id, expert_updates, head_update);
        }
        if self.has_submitted(participant_id) {
            return false;
        }
        self.edges[edge].submit(participant_id, expert_updates, head_update)
    }

    /// Stages an *encoded* upload: the payload decodes (and checksum-
    /// validates) at the participant's edge.
    ///
    /// # Errors
    ///
    /// Propagates the edge's [`DecodeError`] for damaged payloads; nothing
    /// is staged and the pid may retransmit.
    pub fn submit_encoded(
        &self,
        participant_id: usize,
        upload: &EncodedUpload,
        base: &MoeModel,
    ) -> Result<bool, DecodeError> {
        match self.edge_of(participant_id) {
            None => self.root.submit_encoded(participant_id, upload, base),
            Some(edge) => {
                if self.has_submitted(participant_id) {
                    return Ok(false);
                }
                self.edges[edge].submit_encoded(participant_id, upload, base)
            }
        }
    }

    /// Whether `pid` has been accepted anywhere in the tree this round.
    pub fn has_submitted(&self, participant_id: usize) -> bool {
        self.root.has_submitted(participant_id)
            || self.edges.iter().any(|e| e.has_submitted(participant_id))
    }

    /// Participants accepted across the whole tree this round.
    pub fn submitted_participants(&self) -> usize {
        self.root.submitted_participants()
            + self
                .edges
                .iter()
                .map(ShardedAggregator::submitted_participants)
                .sum::<usize>()
    }

    /// Drains every edge's pre-bucketed slices into the root, in edge
    /// order, and returns the root ready to finalize. Pids the root has
    /// already accepted are filtered (first acceptance wins), so a pid
    /// staged at two levels is never double-counted. Safe to call more
    /// than once — drained edges contribute nothing the second time.
    pub fn collapse(&self) -> &ShardedAggregator {
        let root = &self.root;
        for edge in &self.edges {
            debug_assert_eq!(edge.num_shards(), root.num_shards());
            let staged = std::mem::take(&mut *lock(&edge.submitted));
            let accepted: BTreeSet<usize> = {
                let mut submitted = lock(&root.submitted);
                staged
                    .into_iter()
                    .filter(|&pid| submitted.insert(pid))
                    .collect()
            };
            for (shard, target) in edge.shards.iter().zip(&root.shards) {
                let entries = std::mem::take(&mut *lock(shard));
                lock(target).extend(
                    entries
                        .into_iter()
                        .filter(|(pid, _)| accepted.contains(pid)),
                );
            }
            let heads = std::mem::take(&mut *lock(&edge.heads));
            lock(&root.heads).extend(
                heads
                    .into_iter()
                    .filter(|(pid, _, _)| accepted.contains(pid)),
            );
        }
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_tensor::SeededRng;
    use threadpool::ThreadPool;

    fn expert(seed: u64) -> Expert {
        let mut rng = SeededRng::new(seed);
        Expert::new(4, 8, &mut rng)
    }

    #[test]
    fn single_update_passes_through() {
        let e = expert(1);
        let updates = vec![ExpertUpdate {
            key: ExpertKey::new(0, 3),
            expert: e.clone(),
            weight: 5.0,
        }];
        let agg = fedavg_experts(&updates);
        assert_eq!(agg.len(), 1);
        let merged = &agg[&ExpertKey::new(0, 3)];
        for (a, b) in merged.w1.as_slice().iter().zip(e.w1.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn weighted_average_of_two_updates() {
        let a = expert(2);
        let b = expert(3);
        let updates = vec![
            ExpertUpdate {
                key: ExpertKey::new(1, 0),
                expert: a.clone(),
                weight: 3.0,
            },
            ExpertUpdate {
                key: ExpertKey::new(1, 0),
                expert: b.clone(),
                weight: 1.0,
            },
        ];
        let agg = fedavg_experts(&updates);
        let merged = &agg[&ExpertKey::new(1, 0)];
        for ((m, x), y) in merged
            .w1
            .as_slice()
            .iter()
            .zip(a.w1.as_slice())
            .zip(b.w1.as_slice())
        {
            assert!((m - (0.75 * x + 0.25 * y)).abs() < 1e-5);
        }
    }

    #[test]
    fn different_keys_stay_separate() {
        let updates = vec![
            ExpertUpdate {
                key: ExpertKey::new(0, 0),
                expert: expert(4),
                weight: 1.0,
            },
            ExpertUpdate {
                key: ExpertKey::new(2, 5),
                expert: expert(5),
                weight: 1.0,
            },
        ];
        let agg = fedavg_experts(&updates);
        assert_eq!(agg.len(), 2);
        assert!(agg.contains_key(&ExpertKey::new(0, 0)));
        assert!(agg.contains_key(&ExpertKey::new(2, 5)));
    }

    #[test]
    fn zero_weights_fall_back_to_uniform() {
        let a = expert(6);
        let b = expert(7);
        let updates = vec![
            ExpertUpdate {
                key: ExpertKey::new(0, 1),
                expert: a.clone(),
                weight: 0.0,
            },
            ExpertUpdate {
                key: ExpertKey::new(0, 1),
                expert: b.clone(),
                weight: 0.0,
            },
        ];
        let agg = fedavg_experts(&updates);
        let merged = &agg[&ExpertKey::new(0, 1)];
        for ((m, x), y) in merged
            .w2
            .as_slice()
            .iter()
            .zip(a.w2.as_slice())
            .zip(b.w2.as_slice())
        {
            assert!((m - 0.5 * (x + y)).abs() < 1e-5);
        }
    }

    #[test]
    fn empty_updates_give_empty_map() {
        assert!(fedavg_experts(&[]).is_empty());
    }

    #[test]
    fn matrix_fedavg_weighted() {
        let a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 3.0);
        let avg = fedavg_matrices(&[(a, 1.0), (b, 1.0)]).unwrap();
        assert!(avg.as_slice().iter().all(|&x| (x - 2.0).abs() < 1e-6));
    }

    #[test]
    fn matrix_fedavg_skips_mismatched_shapes() {
        let a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(3, 3, 9.0);
        let avg = fedavg_matrices(&[(a, 1.0), (b, 1.0)]).unwrap();
        assert_eq!(avg.shape(), (2, 2));
        assert!(avg.as_slice().iter().all(|&x| (x - 1.0).abs() < 1e-6));
    }

    #[test]
    fn matrix_fedavg_empty_is_none() {
        assert!(fedavg_matrices(&[]).is_none());
    }

    #[test]
    fn matrix_fedavg_all_zero_weights_falls_back_to_uniform() {
        // Regression: the fallback used to return `first.clone()`, silently
        // discarding every other participant's head. It must mirror
        // `fedavg_experts` and average uniformly instead.
        let a = Matrix::filled(1, 2, 4.0);
        let b = Matrix::filled(1, 2, 8.0);
        let avg = fedavg_matrices(&[(a.clone(), 0.0), (b, -1.0)]).unwrap();
        assert!(avg.as_slice().iter().all(|&x| (x - 6.0).abs() < 1e-6));
        // A single zero-weight entry still averages to itself.
        let single = fedavg_matrices(&[(a.clone(), 0.0)]).unwrap();
        assert_eq!(single, a);
    }

    #[test]
    fn matrix_fedavg_zero_weight_first_does_not_dictate_shape() {
        // Regression: a zero-weight (or wrong-shape) straggler at the front
        // used to fix the target shape, so every real update was skipped
        // and the straggler itself was returned.
        let straggler = Matrix::filled(3, 3, 99.0);
        let a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 3.0);
        let avg = fedavg_matrices(&[(straggler, 0.0), (a, 1.0), (b, 1.0)]).unwrap();
        assert_eq!(avg.shape(), (2, 2));
        assert!(avg.as_slice().iter().all(|&x| (x - 2.0).abs() < 1e-6));
    }

    #[test]
    fn matrix_fedavg_uniform_fallback_skips_mismatched_shapes() {
        let a = Matrix::filled(2, 2, 2.0);
        let odd = Matrix::filled(1, 4, 10.0);
        let b = Matrix::filled(2, 2, 4.0);
        let avg = fedavg_matrices(&[(a, 0.0), (odd, 0.0), (b, 0.0)]).unwrap();
        assert_eq!(avg.shape(), (2, 2));
        assert!(avg.as_slice().iter().all(|&x| (x - 3.0).abs() < 1e-6));
    }

    /// One synthetic participant upload: a couple of expert updates plus a
    /// head, deterministic in `pid`.
    fn upload(pid: usize) -> (Vec<ExpertUpdate>, Option<(Matrix, f32)>) {
        let updates = vec![
            ExpertUpdate {
                key: ExpertKey::new(0, pid % 3),
                expert: expert(pid as u64 * 2 + 1),
                weight: 1.0 + pid as f32,
            },
            ExpertUpdate {
                key: ExpertKey::new(1, 0),
                expert: expert(pid as u64 * 2 + 2),
                weight: 2.0,
            },
        ];
        let head = Matrix::filled(2, 2, pid as f32 + 0.5);
        (updates, Some((head, 1.0 + pid as f32)))
    }

    /// The barriered one-shot reference: all uploads concatenated in
    /// participant-id order.
    fn one_shot(pids: &[usize]) -> (HashMap<ExpertKey, Expert>, Option<Matrix>) {
        let mut sorted: Vec<usize> = pids.to_vec();
        sorted.sort_unstable();
        let mut updates = Vec::new();
        let mut heads = Vec::new();
        for &pid in &sorted {
            let (u, h) = upload(pid);
            updates.extend(u);
            if let Some(h) = h {
                heads.push(h);
            }
        }
        (fedavg_experts(&updates), fedavg_matrices(&heads))
    }

    fn assert_expert_maps_identical(
        a: &HashMap<ExpertKey, Expert>,
        b: &HashMap<ExpertKey, Expert>,
    ) {
        assert_eq!(a.len(), b.len());
        for (key, ea) in a {
            let eb = &b[key];
            assert_eq!(ea.w1, eb.w1, "w1 diverged for {key:?}");
            assert_eq!(ea.w2, eb.w2, "w2 diverged for {key:?}");
            assert_eq!(ea.b1, eb.b1, "b1 diverged for {key:?}");
            assert_eq!(ea.b2, eb.b2, "b2 diverged for {key:?}");
        }
    }

    #[test]
    fn sharded_aggregation_is_arrival_order_invariant() {
        let pool = ThreadPool::new(1);
        let pids = [0usize, 1, 2, 3, 4];
        let reference = one_shot(&pids);
        for order in [
            vec![0usize, 1, 2, 3, 4],
            vec![4, 3, 2, 1, 0],
            vec![2, 0, 4, 1, 3],
        ] {
            for shards in [1usize, 3, 8] {
                let agg = ShardedAggregator::new(shards);
                for &pid in &order {
                    let (u, h) = upload(pid);
                    assert!(agg.submit(pid, u, h));
                }
                let (experts, head) = agg.finalize(&pool);
                assert_expert_maps_identical(&experts, &reference.0);
                assert_eq!(head, reference.1, "head diverged (order {order:?})");
            }
        }
    }

    #[test]
    fn duplicate_submission_is_rejected_not_double_counted() {
        let pool = ThreadPool::new(1);
        let agg = ShardedAggregator::new(4);
        let (u, h) = upload(1);
        assert!(agg.submit(1, u, h));
        // The straggler retransmits: ignored wholesale.
        let (u, h) = upload(1);
        assert!(!agg.submit(1, u, h));
        assert_eq!(agg.submitted_participants(), 1);
        let (experts, head) = agg.finalize(&pool);
        let reference = one_shot(&[1]);
        assert_expert_maps_identical(&experts, &reference.0);
        assert_eq!(head, reference.1);
    }

    #[test]
    fn finalize_drains_and_resets_for_the_next_round() {
        let pool = ThreadPool::new(2);
        let agg = ShardedAggregator::new(4);
        let (u, h) = upload(2);
        agg.submit(2, u, h);
        let _ = agg.finalize(&pool);
        // Round state is gone: the same pid may submit again and the next
        // finalize sees only the new round.
        let (u, h) = upload(2);
        assert!(agg.submit(2, u, h));
        let (experts, head) = agg.finalize(&pool);
        let reference = one_shot(&[2]);
        assert_expert_maps_identical(&experts, &reference.0);
        assert_eq!(head, reference.1);
    }

    /// A round-start snapshot plus a perturbed upload against it, keyed to
    /// real experts of the model so encoded submissions can decode.
    fn model_and_upload(pid: usize) -> (MoeModel, Vec<ExpertUpdate>, Option<(Matrix, f32)>) {
        let mut rng = SeededRng::new(99);
        let model = MoeModel::new(flux_moe::MoeConfig::tiny(), &mut rng);
        let keys = model.expert_keys();
        let updates: Vec<ExpertUpdate> = keys
            .iter()
            .take(2)
            .map(|&key| {
                let mut tuned = model.expert(key).clone();
                let mut prng = SeededRng::new(pid as u64 + key.expert as u64 * 17 + 3);
                let (r, c) = tuned.w1.shape();
                let noise = Matrix::random_normal(r, c, 0.01, &mut prng);
                tuned.w1.add_scaled(&noise, 1.0).unwrap();
                ExpertUpdate {
                    key,
                    expert: tuned,
                    weight: 1.0 + pid as f32,
                }
            })
            .collect();
        let head = model.active_head().clone();
        (model, updates, Some((head, 1.0 + pid as f32)))
    }

    #[test]
    fn encoded_lossless_submission_matches_dense_submission_bitwise() {
        use crate::compress::{dense_upload_payload_bytes, CompressionConfig, EncodedUpload};
        let pool = ThreadPool::new(1);
        let (model, updates, head) = model_and_upload(0);
        let (_, updates1, head1) = model_and_upload(1);

        let dense = ShardedAggregator::new(4);
        assert!(dense.submit(0, updates.clone(), head.clone()));
        assert!(dense.submit(1, updates1.clone(), head1.clone()));
        let (experts_dense, head_dense) = dense.finalize(&pool);

        let encoded = ShardedAggregator::new(4);
        for (pid, (u, h)) in [(0usize, (&updates, &head)), (1, (&updates1, &head1))] {
            let enc =
                EncodedUpload::encode(u, h.as_ref(), &model, CompressionConfig::LosslessDelta);
            assert!(enc.encoded_bytes() < dense_upload_payload_bytes(u, h.as_ref()));
            assert!(encoded.submit_encoded(pid, &enc, &model).unwrap());
        }
        let (experts_enc, head_enc) = encoded.finalize(&pool);

        assert_expert_maps_identical(&experts_dense, &experts_enc);
        assert_eq!(head_dense, head_enc);
    }

    #[test]
    fn encoded_duplicate_submission_is_rejected() {
        use crate::compress::{CompressionConfig, EncodedUpload};
        let (model, updates, head) = model_and_upload(3);
        let enc = EncodedUpload::encode(
            &updates,
            head.as_ref(),
            &model,
            CompressionConfig::LosslessDelta,
        );
        let agg = ShardedAggregator::new(2);
        assert!(agg.submit_encoded(3, &enc, &model).unwrap());
        assert!(!agg.submit_encoded(3, &enc, &model).unwrap());
        // Mixing transports cannot double-count either.
        assert!(!agg.submit(3, updates, head));
        assert_eq!(agg.submitted_participants(), 1);
    }

    #[test]
    fn corrupt_encoded_submission_is_rejected_and_retryable() {
        use crate::compress::{CompressionConfig, DecodeError, EncodedUpload};
        let (model, updates, head) = model_and_upload(5);
        let enc = EncodedUpload::encode(
            &updates,
            head.as_ref(),
            &model,
            CompressionConfig::LosslessDelta,
        );
        let agg = ShardedAggregator::new(2);
        // Bit-flipped and truncated deliveries are rejected with a typed
        // error — no panic — and stage nothing.
        for seed in 0..4 {
            let err = agg
                .submit_encoded(5, &enc.corrupted(seed), &model)
                .unwrap_err();
            assert!(matches!(err, DecodeError::ChecksumMismatch { .. }));
            assert!(agg.submit_encoded(5, &enc.truncated(seed), &model).is_err());
        }
        assert_eq!(agg.submitted_participants(), 0);
        assert!(!agg.has_submitted(5));
        // The clean retransmission of the same pid still lands.
        assert!(agg.submit_encoded(5, &enc, &model).unwrap());
        assert!(agg.has_submitted(5));
    }

    #[test]
    fn tree_reduce_is_bit_identical_to_flat_for_every_edge_count() {
        let pool = ThreadPool::new(2);
        let pids = [0usize, 1, 2, 3, 4, 5, 6];
        let reference = one_shot(&pids);
        for num_edges in [0usize, 1, 2, 3, 7] {
            let tree = AggregationTree::new(ShardedAggregator::new(4), num_edges);
            assert_eq!(tree.num_edges(), if num_edges <= 1 { 0 } else { num_edges });
            // Reverse arrival order, routed by pid.
            for &pid in pids.iter().rev() {
                let (u, h) = upload(pid);
                assert!(tree.submit(pid, u, h));
            }
            assert_eq!(tree.submitted_participants(), pids.len());
            let (experts, head) = tree.collapse().finalize(&pool);
            assert_expert_maps_identical(&experts, &reference.0);
            assert_eq!(head, reference.1, "head diverged at {num_edges} edges");
        }
    }

    #[test]
    fn tree_rejects_duplicates_across_levels() {
        let tree = AggregationTree::new(ShardedAggregator::new(4), 3);
        let (u, h) = upload(5);
        assert!(tree.submit(5, u, h));
        // Same pid at its own edge, a different edge, and the root path.
        let (u, h) = upload(5);
        assert!(!tree.submit(5, u, h));
        let (u, h) = upload(5);
        assert!(!tree.submit_to_edge(0, 5, u, h));
        assert_eq!(tree.submitted_participants(), 1);
        // Collapse keeps exactly one copy.
        tree.collapse();
        assert_eq!(tree.root().submitted_participants(), 1);
        assert!(tree.has_submitted(5));
    }

    #[test]
    fn tree_filters_pids_already_accepted_at_the_root() {
        // A root handed to the tree with pids already staged; an edge
        // staging the same pid must not double-count it at collapse.
        let pool = ThreadPool::new(1);
        let root = ShardedAggregator::new(4);
        let (u, h) = upload(2);
        assert!(root.submit(2, u, h));
        let tree = AggregationTree::new(root, 2);
        let (u, h) = upload(2);
        // The edge itself cannot know, so the staging may succeed...
        let _ = tree.edges[0].submit(2, u, h);
        let (u, h) = upload(3);
        assert!(tree.submit(3, u, h));
        // ...but the collapse admits pid 2 only once.
        let (experts, head) = tree.collapse().finalize(&pool);
        let reference = one_shot(&[2, 3]);
        assert_expert_maps_identical(&experts, &reference.0);
        assert_eq!(head, reference.1);
    }

    #[test]
    fn tree_decodes_encoded_uploads_at_the_edge() {
        use crate::compress::{CompressionConfig, EncodedUpload};
        let pool = ThreadPool::new(1);
        let (model, updates, head) = model_and_upload(0);
        let (_, updates1, head1) = model_and_upload(1);

        let flat = ShardedAggregator::new(4);
        assert!(flat.submit(0, updates.clone(), head.clone()));
        assert!(flat.submit(1, updates1.clone(), head1.clone()));
        let (experts_flat, head_flat) = flat.finalize(&pool);

        let tree = AggregationTree::new(ShardedAggregator::new(4), 2);
        for (pid, (u, h)) in [(0usize, (&updates, &head)), (1, (&updates1, &head1))] {
            let enc =
                EncodedUpload::encode(u, h.as_ref(), &model, CompressionConfig::LosslessDelta);
            assert!(tree.submit_encoded(pid, &enc, &model).unwrap());
            // Duplicate retransmissions are rejected before decode.
            assert!(matches!(tree.submit_encoded(pid, &enc, &model), Ok(false)));
        }
        let (experts_tree, head_tree) = tree.collapse().finalize(&pool);
        assert_expert_maps_identical(&experts_flat, &experts_tree);
        assert_eq!(head_flat, head_tree);
    }

    /// An upload that shares `model`'s experts at `untouched` and ships
    /// perturbed owned copies at `trained`.
    fn shared_upload(
        model: &MoeModel,
        untouched: &[ExpertKey],
        trained: &[ExpertKey],
    ) -> Vec<SharedExpertUpdate> {
        let shared = untouched.iter().map(|&key| ExpertUpdate {
            key,
            expert: Arc::clone(model.shared_expert(key)),
            weight: 2.0,
        });
        let owned = trained.iter().map(|&key| {
            let mut expert = model.expert(key).clone();
            expert.w1.as_mut_slice()[3] += 0.5;
            ExpertUpdate {
                key,
                expert: Arc::new(expert),
                weight: 1.0,
            }
        });
        shared.chain(owned).collect()
    }

    #[test]
    fn an_all_empty_top_k_upload_stages_the_base_arc() {
        use crate::compress::{CompressionConfig, EncodedUpload};
        use flux_quant::BitWidth;
        let mut rng = SeededRng::new(21);
        let model = MoeModel::new(flux_moe::MoeConfig::tiny(), &mut rng);
        let (untouched, trained) = (ExpertKey::new(0, 2), ExpertKey::new(1, 4));
        let updates = shared_upload(&model, &[untouched], &[trained]);
        for config in [
            CompressionConfig::quantized_sparse(BitWidth::Int2, 0.25),
            CompressionConfig::quantized_sparse(BitWidth::Int4, 0.25),
            CompressionConfig::quantized_sparse(BitWidth::Int8, 0.0),
        ] {
            let encoded = EncodedUpload::encode(&updates, None, &model, config);
            let (owned, _) = encoded.decode(&model).unwrap();
            let agg = ShardedAggregator::new(3);
            assert!(agg.submit_encoded(7, &encoded, &model).unwrap());
            let staged = lock(&agg.shards[agg.shard_of(untouched)]);
            let (_, update) = staged.iter().find(|(_, u)| u.key == untouched).unwrap();
            assert!(
                Arc::ptr_eq(&update.expert, model.shared_expert(untouched)),
                "{config:?}: the unchanged expert was decoded into a copy"
            );
            assert_eq!(*update.expert, owned[0].expert, "{config:?}");
            assert_eq!(*update.expert, *model.expert(untouched), "{config:?}");
            drop(staged);
            let staged = lock(&agg.shards[agg.shard_of(trained)]);
            let (_, update) = staged.iter().find(|(_, u)| u.key == trained).unwrap();
            // At a fraction of 0 the trained expert ships nothing either
            // and decodes to the base, which it then shares.
            let ships = owned[1].expert != *model.expert(trained);
            assert_eq!(Arc::strong_count(&update.expert) == 1, ships, "{config:?}");
            assert_eq!(*update.expert, owned[1].expert, "{config:?}");
        }
    }

    #[test]
    fn staged_owned_bytes_count_only_what_no_one_else_holds() {
        let mut rng = SeededRng::new(22);
        let model = MoeModel::new(flux_moe::MoeConfig::tiny(), &mut rng);
        let keys = model.expert_keys();
        let expert_bytes = model.expert(keys[0]).num_params() * 4;
        let agg = ShardedAggregator::new(4);
        let updates = shared_upload(&model, &keys[..5], &keys[5..7]);
        assert!(agg.submit(0, updates, None));
        assert_eq!(agg.staged_owned_bytes(), 2 * expert_bytes);
        // Owned updates stage through `Arc::new` and count in full.
        let owned = vec![ExpertUpdate {
            key: keys[0],
            expert: model.expert(keys[0]).clone(),
            weight: 1.0,
        }];
        assert!(agg.submit(1, owned, None));
        assert_eq!(agg.staged_owned_bytes(), 3 * expert_bytes);
        let _ = agg.finalize(&ThreadPool::new(1));
        assert_eq!(agg.staged_owned_bytes(), 0);
        for key in keys {
            assert_eq!(Arc::strong_count(model.shared_expert(key)), 1);
        }
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let agg = ShardedAggregator::new(5);
        for layer in 0..7 {
            for e in 0..13 {
                let key = ExpertKey::new(layer, e);
                let s = agg.shard_of(key);
                assert!(s < 5);
                assert_eq!(s, agg.shard_of(key));
            }
        }
    }
}
