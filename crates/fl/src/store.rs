//! One tenant's global model, held once.
//!
//! A [`ShardedStore`] keeps the model once, as an `Arc<MoeModel>` behind
//! one lock:
//!
//! * **Reads** go through [`ShardedStore::snapshot`], which hands out the
//!   stored `Arc` itself, so a round's fan-out trains against the model
//!   without holding any store lock.
//! * **Installs** ([`ShardedStore::apply_round`]) move a round's FedAvg
//!   result into the model through `Arc::make_mut`: in place when no reader
//!   still holds the previous snapshot, into one copy when one does (a
//!   reader never sees a round change under it).
//!
//! The shard count decides two things only: how many tasks a round's
//! reduction fans out to (the [`crate::aggregate::ShardedAggregator`]
//! routes every expert key with [`shard_of_key`]), and how a checkpoint
//! lays the experts out in files (one file per shard, see
//! [`crate::snapshot`]). A version counter per shard, and one for the task
//! head, count the installs that wrote them, so a checkpoint rewrites only
//! the files that changed.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use flux_moe::{Expert, ExpertKey, MoeModel};
use flux_tensor::Matrix;
use threadpool::ThreadPool;

use crate::aggregate::ShardedAggregator;
use crate::snapshot::PersistState;
use crate::sync::lock;

/// Which shard owns `key`, for a store or aggregator of `num_shards`
/// shards. Deterministic, so every arrival order stages identical shard
/// contents and the aggregator's shard *i* always reduces exactly the keys
/// the checkpoint's shard file *i* holds. Layers hold tens of experts;
/// spreading consecutive expert ids round-robin keeps shards balanced
/// without a hasher dependency.
pub fn shard_of_key(key: ExpertKey, num_shards: usize) -> usize {
    (key.layer.wrapping_mul(31).wrapping_add(key.expert)) % num_shards.max(1)
}

/// What the store's lock guards: the model and the counters a checkpoint
/// reads.
#[derive(Debug)]
pub(crate) struct State {
    pub(crate) model: Arc<MoeModel>,
    /// Per shard, the installs that wrote one of its experts. A checkpoint
    /// skips the shard files already on disk at this version.
    pub(crate) shard_versions: Vec<u64>,
    /// The installs that wrote the task head.
    pub(crate) head_version: u64,
    /// Rounds applied: the epoch a checkpoint records.
    pub(crate) rounds_completed: usize,
}

impl State {
    /// Installs one round's FedAvg result and counts the round. Keys the
    /// model does not have, and a head of another shape than the active
    /// head's, are ignored: a rogue participant cannot corrupt the model.
    fn install(&mut self, experts: HashMap<ExpertKey, Expert>, head: Option<Matrix>) {
        let per_layer = self.model.experts_per_layer();
        let num_shards = self.shard_versions.len();
        let mut touched = vec![false; num_shards];
        for (key, expert) in experts {
            if per_layer.get(key.layer).is_some_and(|&n| key.expert < n) {
                Arc::make_mut(&mut self.model).set_expert(key, expert);
                touched[shard_of_key(key, num_shards)] = true;
            }
        }
        for (version, touched) in self.shard_versions.iter_mut().zip(touched) {
            *version += u64::from(touched);
        }
        if let Some(head) = head.filter(|h| h.shape() == self.model.active_head().shape()) {
            *Arc::make_mut(&mut self.model).active_head_mut() = head;
            self.head_version += 1;
        }
        self.rounds_completed += 1;
    }
}

/// One tenant's global model (one tenant of the multi-tenant
/// [`crate::ParameterServer`]).
#[derive(Debug)]
pub struct ShardedStore {
    num_shards: usize,
    pub(crate) state: Mutex<State>,
    /// What the on-disk checkpoint of this store currently holds (per-file
    /// versions, checksums, sizes). Guides dirty-shard-only flushes; see
    /// [`crate::snapshot`].
    pub(crate) persist: Mutex<PersistState>,
}

impl ShardedStore {
    /// Builds a store around an initial global model, whose rounds reduce
    /// in `num_shards` shards (minimum 1).
    pub fn new(model: MoeModel, num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        Self::from_persisted(model, num_shards, 0, PersistState::empty(num_shards))
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
        Self {
            num_shards,
            state: Mutex::new(State {
                model: Arc::new(model),
                shard_versions: vec![0; num_shards],
                head_version: 0,
                rounds_completed,
            }),
            persist: Mutex::new(persist),
        }
    }

    /// Number of shards a round reduces in (and a checkpoint's shard files).
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Number of aggregation rounds applied so far.
    pub fn rounds_completed(&self) -> usize {
        lock(&self.state).rounds_completed
    }

    /// Opens the incremental aggregator for one round, shard-aligned with
    /// this store.
    pub fn begin_round(&self) -> ShardedAggregator {
        ShardedAggregator::new(self.num_shards)
    }

    /// Closes a round: reduces the staged shards, fanned out to `pool`, and
    /// installs the result. Each shard reduces in participant-id order, so
    /// the result is bit-identical for every thread count and every arrival
    /// order. The install is in place unless a reader still holds the
    /// previous snapshot.
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
        let (experts, head) = aggregator.finalize(pool);
        lock(&self.state).install(experts, head);
    }

    /// One-shot FedAvg application — the reference the staged path is
    /// pinned against, not a path any run takes: the borrowed updates
    /// (participant-id order) go through the one-shot kernels, then
    /// install. [`ShardedStore::apply_round`] reduces each shard with
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
        let head = crate::aggregate::fedavg_matrices(head_updates);
        lock(&self.state).install(experts, head);
    }

    /// The current global model: the stored `Arc` itself. Readers keep it
    /// while later rounds install; the first install after that copies the
    /// model once instead of changing it under them.
    pub fn snapshot(&self) -> Arc<MoeModel> {
        Arc::clone(&lock(&self.state).model)
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

    /// One round replacing `key` with `expert` at full weight.
    fn install(store: &ShardedStore, key: ExpertKey, expert: &Expert) {
        store.aggregate(
            &[ExpertUpdate {
                key,
                expert: expert.clone(),
                weight: 1.0,
            }],
            &[],
        );
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
    fn installs_copy_only_under_a_live_reader() {
        let store = store();
        let key = ExpertKey::new(0, 1);
        let untouched = ExpertKey::new(3, 7);
        let mut rng = SeededRng::new(2);
        let first = Expert::new(16, 32, &mut rng);
        let second = Expert::new(16, 32, &mut rng);

        // A reader holds the snapshot: the install goes into a copy and
        // the reader's model does not change.
        let before = store.snapshot();
        install(&store, key, &first);
        let after = store.snapshot();
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(after.expert(key), &first);
        assert_eq!(after.expert(untouched), before.expert(untouched));
        assert_ne!(before.expert(key), &first);

        // No reader: the install changes the one model in place.
        let held = Arc::as_ptr(&after);
        drop((before, after));
        install(&store, key, &second);
        let now = store.snapshot();
        assert_eq!(Arc::as_ptr(&now), held);
        assert_eq!(now.expert(key), &second);
    }

    #[test]
    fn installs_ignore_out_of_range_keys_and_misshaped_heads() {
        let store = store();
        let checksum = store.snapshot().param_checksum();
        let mut rng = SeededRng::new(3);
        install(
            &store,
            ExpertKey::new(99, 99),
            &Expert::new(16, 32, &mut rng),
        );
        store.aggregate(&[], &[(Matrix::filled(2, 2, 9.0), 1.0)]);
        assert_eq!(store.snapshot().param_checksum(), checksum);
        assert_eq!(store.rounds_completed(), 2);

        let (rows, cols) = store.snapshot().lm_head.shape();
        let head = Matrix::filled(rows, cols, 0.25);
        store.aggregate(&[], &[(head.clone(), 1.0)]);
        assert_eq!(store.snapshot().lm_head, head);
    }

    #[test]
    fn installs_count_per_shard_versions() {
        let store = store();
        let key = ExpertKey::new(1, 2);
        let mut rng = SeededRng::new(4);
        install(&store, key, &Expert::new(16, 32, &mut rng));
        install(&store, key, &Expert::new(16, 32, &mut rng));
        let held = lock(&store.state);
        let mut expected = vec![0; 4];
        expected[shard_of_key(key, 4)] = 2;
        assert_eq!(held.shard_versions, expected);
        assert_eq!(held.head_version, 0);
    }

    #[test]
    fn one_shot_aggregate_matches_legacy_semantics() {
        let store = store();
        let mut rng = SeededRng::new(5);
        let e = Expert::new(16, 32, &mut rng);
        let key = ExpertKey::new(0, 0);
        install(&store, key, &e);
        assert_eq!(store.snapshot().expert(key), &e);
        assert_eq!(store.rounds_completed(), 1);
    }

    #[test]
    fn apply_round_matches_one_shot_aggregate() {
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
    fn concurrent_rounds_lose_no_update() {
        // Two threads install different experts at once; the snapshot
        // afterwards must contain both writes.
        let store = Arc::new(store());
        let mut rng = SeededRng::new(7);
        let ka = ExpertKey::new(0, 0);
        let kb = ExpertKey::new(0, 1);
        let ea = Expert::new(16, 32, &mut rng);
        let eb = Expert::new(16, 32, &mut rng);
        let handles: Vec<_> = [(ka, ea.clone()), (kb, eb.clone())]
            .into_iter()
            .map(|(key, expert)| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || install(&store, key, &expert))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = store.snapshot();
        assert_eq!(snap.expert(ka), &ea);
        assert_eq!(snap.expert(kb), &eb);
        assert_eq!(store.rounds_completed(), 2);
    }
}
