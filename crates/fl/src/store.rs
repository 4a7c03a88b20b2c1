//! Per-shard locked storage for one tenant's global model.
//!
//! The parameter server used to keep the whole global model behind a single
//! `RwLock<MoeModel>`: every `apply_round` took the model-wide write lock,
//! so aggregation of *concurrent* federated runs — and even the per-shard
//! reductions of a single round — serialized on one lock. [`ShardedStore`]
//! splits the mutable state the way federated fine-tuning actually mutates
//! it:
//!
//! * **Expert parameters** are partitioned into [`ShardedStore::num_shards`]
//!   independently-locked shards, keyed by [`shard_of_key`] — the *same*
//!   function [`crate::aggregate::ShardedAggregator`] routes uploads with,
//!   so shard *i* of a round's aggregation installs into shard *i* of the
//!   store while shard *j* installs concurrently under its own lock.
//! * **The task heads** (generation + optional classification head) live
//!   behind their own lock — one more "shard" in effect.
//! * **Frozen parameters** (embedding, attention, gating) are never written
//!   by aggregation; they live only in the materialized snapshot and need
//!   no lock at all.
//!
//! Reads go through [`ShardedStore::snapshot`]: a cached, fully
//! materialized [`MoeModel`] refreshed per shard — only shards written
//! since the last snapshot are visited (briefly, under their own locks),
//! and the result is handed out as an [`Arc`] so round fan-outs hold no
//! store lock at all while they train against it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use flux_moe::{Expert, ExpertKey, MoeModel};
use flux_tensor::Matrix;
use threadpool::ThreadPool;

use crate::aggregate::ShardedAggregator;
use crate::snapshot::PersistState;
use crate::sync::{lock, read, write};

/// Which shard owns `key`, for a store or aggregator of `num_shards`
/// shards. Deterministic, so every arrival order stages identical shard
/// contents and the aggregator's shard *i* always reduces exactly the keys
/// the store's shard *i* owns. Layers hold tens of experts; spreading
/// consecutive expert ids round-robin keeps shards balanced without a
/// hasher dependency.
pub fn shard_of_key(key: ExpertKey, num_shards: usize) -> usize {
    (key.layer.wrapping_mul(31).wrapping_add(key.expert)) % num_shards.max(1)
}

/// One expert shard: the authoritative parameters of every expert the shard
/// owns, plus the change log the snapshot refresh consumes.
#[derive(Debug)]
pub(crate) struct ExpertShard {
    pub(crate) experts: HashMap<ExpertKey, Expert>,
    /// Keys written since the last snapshot refresh (may repeat).
    pub(crate) dirty: Vec<ExpertKey>,
    /// Bumped on every install; lets the refresh skip clean shards with a
    /// read lock only. The durable checkpoint uses the same counter to
    /// skip rewriting clean shard files.
    pub(crate) version: u64,
}

/// The head shard: both task heads plus the refresh version.
#[derive(Debug)]
pub(crate) struct HeadShard {
    pub(crate) lm_head: Matrix,
    pub(crate) cls_head: Option<Matrix>,
    pub(crate) version: u64,
}

/// The cached materialized view of the whole model.
#[derive(Debug)]
struct SnapshotCache {
    model: Arc<MoeModel>,
    shard_versions: Vec<u64>,
    head_version: u64,
}

/// Per-shard locked storage of one global model (one tenant of the
/// multi-tenant [`crate::ParameterServer`]).
#[derive(Debug)]
pub struct ShardedStore {
    pub(crate) num_shards: usize,
    /// Compact expert counts per layer, for rejecting out-of-range keys
    /// without taking any lock.
    experts_per_layer: Vec<usize>,
    pub(crate) shards: Vec<RwLock<ExpertShard>>,
    pub(crate) head: RwLock<HeadShard>,
    snapshot: Mutex<SnapshotCache>,
    rounds_completed: AtomicUsize,
    /// What the on-disk checkpoint of this store currently holds (per-file
    /// versions, checksums, sizes). Guides dirty-shard-only flushes; see
    /// [`crate::snapshot`].
    pub(crate) persist: Mutex<PersistState>,
}

impl ShardedStore {
    /// Builds a store around an initial global model, partitioned into
    /// `num_shards` expert shards (minimum 1).
    pub fn new(model: MoeModel, num_shards: usize) -> Self {
        Self::with_state(model, num_shards, 0, None)
    }

    /// Builds a store restored from a durable checkpoint: `model` already
    /// carries the checkpointed expert/head parameters, `rounds_completed`
    /// is the checkpoint epoch, and `persist` records the on-disk files so
    /// the next checkpoint rewrites only shards dirtied after the restore.
    pub(crate) fn from_persisted(
        model: MoeModel,
        num_shards: usize,
        rounds_completed: usize,
        persist: PersistState,
    ) -> Self {
        Self::with_state(model, num_shards, rounds_completed, Some(persist))
    }

    fn with_state(
        model: MoeModel,
        num_shards: usize,
        rounds_completed: usize,
        persist: Option<PersistState>,
    ) -> Self {
        let num_shards = num_shards.max(1);
        let experts_per_layer = model.experts_per_layer();
        let mut shards: Vec<ExpertShard> = (0..num_shards)
            .map(|_| ExpertShard {
                experts: HashMap::new(),
                dirty: Vec::new(),
                version: 0,
            })
            .collect();
        for key in model.expert_keys() {
            shards[shard_of_key(key, num_shards)]
                .experts
                .insert(key, model.expert(key).clone());
        }
        let head = HeadShard {
            lm_head: model.lm_head.clone(),
            cls_head: model.cls_head.clone(),
            version: 0,
        };
        let persist = persist.unwrap_or_else(|| PersistState::empty(num_shards));
        Self {
            num_shards,
            experts_per_layer,
            shards: shards.into_iter().map(RwLock::new).collect(),
            head: RwLock::new(head),
            snapshot: Mutex::new(SnapshotCache {
                model: Arc::new(model),
                shard_versions: vec![0; num_shards],
                head_version: 0,
            }),
            rounds_completed: AtomicUsize::new(rounds_completed),
            persist: Mutex::new(persist),
        }
    }

    /// Number of expert shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Number of aggregation rounds applied so far.
    pub fn rounds_completed(&self) -> usize {
        self.rounds_completed.load(Ordering::Acquire)
    }

    /// Whether `key` addresses an expert this store materializes.
    fn key_in_range(&self, key: ExpertKey) -> bool {
        self.experts_per_layer
            .get(key.layer)
            .is_some_and(|&n| key.expert < n)
    }

    /// Installs aggregated experts into one shard, taking only that shard's
    /// write lock. Keys that are out of range or belong to a different
    /// shard are ignored (a rogue participant cannot corrupt the model or
    /// sneak past the lock discipline).
    pub fn install_shard(&self, shard: usize, experts: HashMap<ExpertKey, Expert>) {
        if experts.is_empty() {
            return;
        }
        let mut guard = write(&self.shards[shard]);
        let mut installed = false;
        for (key, expert) in experts {
            if !self.key_in_range(key) || shard_of_key(key, self.num_shards) != shard {
                continue;
            }
            guard.experts.insert(key, expert);
            guard.dirty.push(key);
            installed = true;
        }
        if installed {
            guard.version += 1;
        }
    }

    /// Installs an aggregated task head (classification head when the model
    /// has one, generation head otherwise), taking only the head lock.
    /// Shape-mismatched heads are ignored.
    pub fn install_head(&self, head: Matrix) {
        let mut guard = write(&self.head);
        let target = match &mut guard.cls_head {
            Some(h) => h,
            None => &mut guard.lm_head,
        };
        if target.shape() == head.shape() {
            *target = head;
            guard.version += 1;
        }
    }

    /// Counts one completed aggregation round.
    pub fn complete_round(&self) {
        self.rounds_completed.fetch_add(1, Ordering::AcqRel);
    }

    /// Opens the incremental aggregator for one round, shard-aligned with
    /// this store.
    pub fn begin_round(&self) -> ShardedAggregator {
        ShardedAggregator::new(self.num_shards)
    }

    /// Closes a round: reduces the staged shards and installs each shard's
    /// result under that shard's lock alone, fanning the per-shard
    /// reduce-and-install tasks out to `pool`. The head reduces alongside.
    /// Shards partition the key space and each reduces in participant-id
    /// order, so the result is bit-identical for every thread count and
    /// every arrival order.
    ///
    /// # Panics
    ///
    /// Panics when the aggregator's shard count differs from the store's.
    /// Aggregators from [`ShardedStore::begin_round`] always match, so
    /// they never trip this.
    pub fn apply_round(&self, aggregator: &ShardedAggregator, pool: &ThreadPool) {
        assert_eq!(
            aggregator.num_shards(),
            self.num_shards,
            "aggregator must be shard-aligned with the store"
        );
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..self.num_shards)
            .map(|shard| {
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    self.install_shard(shard, aggregator.finalize_shard(shard));
                });
                task
            })
            .collect();
        tasks.push(Box::new(|| {
            if let Some(head) = aggregator.finalize_head() {
                self.install_head(head);
            }
        }));
        let _: Vec<()> = pool.run(tasks);
        aggregator.reset_round();
        self.complete_round();
    }

    /// One-shot FedAvg application — the reference the staged path is
    /// pinned against, not a path any run takes: the borrowed updates
    /// (participant-id order) go through the one-shot kernels, then install
    /// per shard. [`ShardedStore::apply_round`] reduces each shard with
    /// these same kernels in participant-id order; their equality is pinned
    /// by `incremental_round_matches_one_shot_aggregate`, the
    /// `sharded_incremental_matches_one_shot_fedavg` property test and
    /// `proptest_tree`.
    pub fn aggregate(
        &self,
        expert_updates: &[crate::aggregate::ExpertUpdate],
        head_updates: &[(Matrix, f32)],
    ) {
        let experts = crate::aggregate::fedavg_experts(expert_updates);
        let mut by_shard: Vec<HashMap<ExpertKey, Expert>> =
            (0..self.num_shards).map(|_| HashMap::new()).collect();
        for (key, expert) in experts {
            by_shard[shard_of_key(key, self.num_shards)].insert(key, expert);
        }
        for (shard, experts) in by_shard.into_iter().enumerate() {
            self.install_shard(shard, experts);
        }
        if let Some(head) = crate::aggregate::fedavg_matrices(head_updates) {
            self.install_head(head);
        }
        self.complete_round();
    }

    /// The materialized current model, shared without any store lock.
    ///
    /// Only shards written since the previous snapshot are visited: clean
    /// shards cost one read lock to compare versions; dirty shards are
    /// drained under their write lock (briefly — just the changed experts
    /// are copied into the cached model). Long-lived readers keep their
    /// `Arc` while later rounds install; the next refresh then copies the
    /// cached model once instead of mutating it under the reader.
    pub fn snapshot(&self) -> Arc<MoeModel> {
        let mut cache = lock(&self.snapshot);
        for (s, shard_lock) in self.shards.iter().enumerate() {
            if read(shard_lock).version == cache.shard_versions[s] {
                continue;
            }
            let mut shard = write(shard_lock);
            let model = Arc::make_mut(&mut cache.model);
            let mut keys = std::mem::take(&mut shard.dirty);
            keys.sort_unstable();
            keys.dedup();
            for key in keys {
                model.set_expert(key, shard.experts[&key].clone());
            }
            cache.shard_versions[s] = shard.version;
        }
        {
            let head = read(&self.head);
            if head.version != cache.head_version {
                let model = Arc::make_mut(&mut cache.model);
                model.lm_head = head.lm_head.clone();
                model.cls_head = head.cls_head.clone();
                cache.head_version = head.version;
            }
        }
        Arc::clone(&cache.model)
    }

    /// Runs `f` against the current global model. No store lock is held
    /// while `f` runs — it borrows the snapshot `Arc`.
    pub fn with_global<R>(&self, f: impl FnOnce(&MoeModel) -> R) -> R {
        f(&self.snapshot())
    }

    /// A full copy of the current global model (what a participant
    /// downloads at the start of a round).
    pub fn global_model(&self) -> MoeModel {
        (*self.snapshot()).clone()
    }

    /// Reads one expert's current parameters straight from its shard —
    /// a single per-shard read lock, no snapshot materialization.
    ///
    /// # Panics
    ///
    /// Panics when `key` is out of range for this store's model.
    pub fn expert(&self, key: ExpertKey) -> Expert {
        read(&self.shards[shard_of_key(key, self.num_shards)]).experts[&key].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::ExpertUpdate;
    use flux_moe::MoeConfig;
    use flux_tensor::SeededRng;

    fn model() -> MoeModel {
        let mut rng = SeededRng::new(1);
        MoeModel::new(MoeConfig::tiny(), &mut rng)
    }

    fn store() -> ShardedStore {
        ShardedStore::new(model(), 4)
    }

    #[test]
    fn shard_of_key_is_stable_and_in_range() {
        for layer in 0..7 {
            for e in 0..13 {
                let key = ExpertKey::new(layer, e);
                for shards in [1usize, 4, 9] {
                    let s = shard_of_key(key, shards);
                    assert!(s < shards);
                    assert_eq!(s, shard_of_key(key, shards));
                }
            }
        }
    }

    #[test]
    fn snapshot_reflects_shard_installs() {
        let store = store();
        let before = store.snapshot();
        let key = ExpertKey::new(0, 1);
        let shard = shard_of_key(key, store.num_shards());
        let mut rng = SeededRng::new(2);
        let new_expert = Expert::new(16, 32, &mut rng);
        store.install_shard(shard, HashMap::from([(key, new_expert.clone())]));
        let after = store.snapshot();
        assert_eq!(after.expert(key), &new_expert);
        // Untouched experts keep their previous parameters, and the
        // earlier snapshot is unaffected (copy-on-write).
        let untouched = ExpertKey::new(3, 7);
        assert_eq!(after.expert(untouched), before.expert(untouched));
        assert_ne!(before.expert(key), &new_expert);
    }

    #[test]
    fn install_rejects_out_of_range_and_misrouted_keys() {
        let store = store();
        let checksum = store.snapshot().param_checksum();
        let mut rng = SeededRng::new(3);
        let rogue = Expert::new(16, 32, &mut rng);
        // Out of range: ignored.
        store.install_shard(0, HashMap::from([(ExpertKey::new(99, 99), rogue.clone())]));
        // In range but addressed to the wrong shard: ignored.
        let key = ExpertKey::new(0, 0);
        let wrong = (shard_of_key(key, store.num_shards()) + 1) % store.num_shards();
        store.install_shard(wrong, HashMap::from([(key, rogue)]));
        assert_eq!(store.snapshot().param_checksum(), checksum);
    }

    #[test]
    fn head_install_respects_shape() {
        let store = store();
        let shape = store.snapshot().lm_head.shape();
        store.install_head(Matrix::filled(2, 2, 9.0));
        assert_ne!(store.snapshot().lm_head, Matrix::filled(2, 2, 9.0));
        let head = Matrix::filled(shape.0, shape.1, 0.25);
        store.install_head(head.clone());
        assert_eq!(store.snapshot().lm_head, head);
    }

    #[test]
    fn expert_reads_from_shard_without_snapshot() {
        let store = store();
        let key = ExpertKey::new(1, 2);
        assert_eq!(&store.expert(key), store.snapshot().expert(key));
        let shard = shard_of_key(key, store.num_shards());
        let mut rng = SeededRng::new(4);
        let e = Expert::new(16, 32, &mut rng);
        store.install_shard(shard, HashMap::from([(key, e.clone())]));
        // Visible through the per-shard read before any snapshot refresh.
        assert_eq!(store.expert(key), e);
    }

    #[test]
    fn one_shot_aggregate_matches_legacy_semantics() {
        let store = store();
        let mut rng = SeededRng::new(5);
        let e = Expert::new(16, 32, &mut rng);
        let key = ExpertKey::new(0, 0);
        store.aggregate(
            &[ExpertUpdate {
                key,
                expert: e.clone(),
                weight: 1.0,
            }],
            &[],
        );
        assert_eq!(store.snapshot().expert(key), &e);
        assert_eq!(store.rounds_completed(), 1);
    }

    #[test]
    fn apply_round_installs_per_shard() {
        let reference = store();
        let sharded = store();
        let mut rng = SeededRng::new(6);
        let uploads: Vec<ExpertUpdate> = (0..6)
            .map(|i| ExpertUpdate {
                key: ExpertKey::new(i % 4, i),
                expert: Expert::new(16, 32, &mut rng),
                weight: i as f32 + 1.0,
            })
            .collect();
        reference.aggregate(&uploads, &[]);

        let aggregator = sharded.begin_round();
        // Two participants split the uploads; arrival order reversed.
        aggregator.submit(1, uploads[3..].to_vec(), None);
        aggregator.submit(0, uploads[..3].to_vec(), None);
        sharded.apply_round(&aggregator, &ThreadPool::new(4));
        assert_eq!(
            reference.snapshot().param_checksum(),
            sharded.snapshot().param_checksum()
        );
        assert_eq!(sharded.rounds_completed(), 1);
    }

    #[test]
    fn concurrent_installs_to_disjoint_shards_do_not_serialize_results() {
        // Two threads install into different shards at once; the snapshot
        // afterwards must contain both writes (per-shard locks, no lost
        // update).
        let store = std::sync::Arc::new(store());
        let mut rng = SeededRng::new(7);
        let ka = ExpertKey::new(0, 0);
        let kb = ExpertKey::new(0, 1);
        assert_ne!(
            shard_of_key(ka, store.num_shards()),
            shard_of_key(kb, store.num_shards())
        );
        let ea = Expert::new(16, 32, &mut rng);
        let eb = Expert::new(16, 32, &mut rng);
        let handles: Vec<_> = [(ka, ea.clone()), (kb, eb.clone())]
            .into_iter()
            .map(|(key, expert)| {
                let store = std::sync::Arc::clone(&store);
                std::thread::spawn(move || {
                    let shard = shard_of_key(key, store.num_shards());
                    store.install_shard(shard, HashMap::from([(key, expert)]));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = store.snapshot();
        assert_eq!(snap.expert(ka), &ea);
        assert_eq!(snap.expert(kb), &eb);
    }

    #[test]
    fn snapshot_refresh_is_incremental_across_rounds() {
        let store = store();
        let mut rng = SeededRng::new(8);
        for round in 0..3 {
            let key = ExpertKey::new(round % 4, round);
            let e = Expert::new(16, 32, &mut rng);
            store.install_shard(
                shard_of_key(key, store.num_shards()),
                HashMap::from([(key, e.clone())]),
            );
            store.complete_round();
            assert_eq!(store.snapshot().expert(key), &e, "round {round}");
        }
        assert_eq!(store.rounds_completed(), 3);
    }
}
