//! The multi-tenant parameter server.
//!
//! A [`ParameterServer`] is a registry of *tenants*: independent federated
//! jobs, each with its global model held once in its own [`ShardedStore`].
//! Tenants never share mutable state, so two concurrent runs aggregate
//! into disjoint stores. Every read, staged round and install goes through
//! the [`ShardedStore`] handle a registration returns, so a run can never
//! touch another tenant's model by accident.

use std::sync::{Arc, RwLock};

use flux_moe::MoeModel;

use crate::store::ShardedStore;
use crate::sync::{read, write};

/// Number of shards a tenant registered from a fresh model reduces its
/// rounds in: the fan-out width of a round's reduction and the number of
/// shard files its checkpoints hold. The tiny/small presets have dozens of
/// experts, so eight shards keeps every shard populated.
pub const DEFAULT_SHARDS: usize = 8;

/// Central parameter server of the federated system: the registry of
/// tenant stores.
///
/// Each tenant aggregates expert updates with FedAvg through its own
/// handle: [`ShardedStore::begin_round`] opens a [`crate::ShardedAggregator`]
/// that participants (or the driver acting for them) feed as their uploads
/// arrive — from any thread, in any order — and
/// [`ShardedStore::apply_round`] reduces it in participant-id order and
/// installs the result, bit-identical to the one-shot
/// [`ShardedStore::aggregate`] however the updates arrived. A store keeps
/// its own shard count, so one restored from any checkpoint is adopted as
/// it is.
#[derive(Debug)]
pub struct ParameterServer {
    tenants: RwLock<Vec<Arc<ShardedStore>>>,
}

impl ParameterServer {
    /// Creates a server with no tenants yet; the concurrent-run scheduler
    /// registers one per job.
    pub fn empty() -> Self {
        Self {
            tenants: RwLock::new(Vec::new()),
        }
    }

    /// Registers a new tenant around its initial global model, with
    /// [`DEFAULT_SHARDS`] shards, and returns its store. The handle is how
    /// the tenant's run reads snapshots and applies rounds.
    pub fn register_tenant(&self, global_model: MoeModel) -> Arc<ShardedStore> {
        self.adopt_tenant(Arc::new(ShardedStore::new(global_model, DEFAULT_SHARDS)))
    }

    /// Adopts an existing store — one restored from a durable checkpoint,
    /// whatever its shard count — as a tenant, instead of building a fresh
    /// one from a model.
    pub fn adopt_tenant(&self, store: Arc<ShardedStore>) -> Arc<ShardedStore> {
        write(&self.tenants).push(Arc::clone(&store));
        store
    }

    /// Removes a tenant from the registry (matched by store identity),
    /// releasing the server's reference to its model. Returns whether the
    /// store was registered. A long-lived server hosting a stream of jobs
    /// must deregister each finished tenant or its models accumulate; the
    /// concurrent-run scheduler does this as each job completes. Callers
    /// holding their own `Arc` keep the store alive regardless.
    pub fn deregister_tenant(&self, store: &Arc<ShardedStore>) -> bool {
        let mut tenants = write(&self.tenants);
        match tenants.iter().position(|t| Arc::ptr_eq(t, store)) {
            Some(index) => {
                tenants.remove(index);
                true
            }
            None => false,
        }
    }

    /// Number of registered tenants.
    pub fn num_tenants(&self) -> usize {
        read(&self.tenants).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::ExpertUpdate;
    use flux_moe::{ExpertKey, MoeConfig};
    use flux_tensor::{Matrix, SeededRng};
    use threadpool::ThreadPool;

    fn model(seed: u64) -> MoeModel {
        MoeModel::new(MoeConfig::tiny(), &mut SeededRng::new(seed))
    }

    /// The handle of a freshly registered tenant.
    fn tenant() -> Arc<ShardedStore> {
        ParameterServer::empty().register_tenant(model(1))
    }

    #[test]
    fn aggregate_replaces_updated_experts_only() {
        let store = tenant();
        let before = store.global_model();
        let key = ExpertKey::new(0, 0);
        let untouched = ExpertKey::new(3, 7);
        let mut rng = SeededRng::new(2);
        let new_expert = flux_moe::Expert::new(16, 32, &mut rng);
        store.aggregate(
            &[ExpertUpdate {
                key,
                expert: new_expert.clone(),
                weight: 1.0,
            }],
            &[],
        );
        let after = store.global_model();
        assert_eq!(after.expert(key), &new_expert);
        assert_eq!(after.expert(untouched), before.expert(untouched));
        assert_eq!(store.rounds_completed(), 1);
    }

    #[test]
    fn aggregate_updates_head() {
        let store = tenant();
        let shape = store.global_model().lm_head.shape();
        let new_head = Matrix::filled(shape.0, shape.1, 0.123);
        store.aggregate(&[], &[(new_head.clone(), 2.0)]);
        assert_eq!(store.global_model().lm_head, new_head);
    }

    #[test]
    fn mismatched_head_is_ignored() {
        let store = tenant();
        let before = store.global_model().lm_head.clone();
        store.aggregate(&[], &[(Matrix::filled(2, 2, 9.0), 1.0)]);
        assert_eq!(store.global_model().lm_head, before);
    }

    #[test]
    fn out_of_range_expert_update_is_ignored() {
        let store = tenant();
        let mut rng = SeededRng::new(3);
        let rogue = flux_moe::Expert::new(16, 32, &mut rng);
        store.aggregate(
            &[ExpertUpdate {
                key: ExpertKey::new(99, 99),
                expert: rogue,
                weight: 1.0,
            }],
            &[],
        );
        assert_eq!(store.rounds_completed(), 1);
    }

    #[test]
    fn with_global_avoids_clone_and_matches_model() {
        let store = tenant();
        let shape = store.with_global(|m| m.lm_head.shape());
        assert_eq!(shape, store.global_model().lm_head.shape());
    }

    #[test]
    fn incremental_round_matches_one_shot_aggregate() {
        // The same uploads through (a) the one-shot `aggregate` reference
        // and (b) begin_round/submit-in-reverse-order/apply_round must
        // produce bit-identical global models, whatever the sharding.
        let mut rng = SeededRng::new(9);
        let a = tenant();
        let b = ShardedStore::new(a.global_model(), 3);
        let uploads: Vec<(usize, ExpertUpdate, Matrix, f32)> = (0..4)
            .map(|pid| {
                let e = flux_moe::Expert::new(16, 32, &mut rng);
                let head_shape = a.global_model().lm_head.shape();
                let head = Matrix::filled(head_shape.0, head_shape.1, pid as f32 * 0.1);
                (
                    pid,
                    ExpertUpdate {
                        key: ExpertKey::new(0, pid),
                        expert: e,
                        weight: pid as f32 + 1.0,
                    },
                    head,
                    pid as f32 + 1.0,
                )
            })
            .collect();

        let expert_updates: Vec<ExpertUpdate> =
            uploads.iter().map(|(_, u, _, _)| u.clone()).collect();
        let head_updates: Vec<(Matrix, f32)> =
            uploads.iter().map(|(_, _, h, w)| (h.clone(), *w)).collect();
        a.aggregate(&expert_updates, &head_updates);

        let aggregator = b.begin_round();
        for (pid, update, head, weight) in uploads.iter().rev() {
            assert!(aggregator.submit(*pid, vec![update.clone()], Some((head.clone(), *weight))));
        }
        b.apply_round(&aggregator, &ThreadPool::new(4));

        let ma = a.global_model();
        let mb = b.global_model();
        assert_eq!(ma.lm_head, mb.lm_head);
        for key in ma.expert_keys() {
            assert_eq!(ma.expert(key), mb.expert(key), "{key:?} diverged");
        }
    }

    #[test]
    fn a_shared_server_serves_tenants_from_many_threads() {
        let server = Arc::new(ParameterServer::empty());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let store = server.register_tenant(model(1));
                    let mut rng = SeededRng::new(t);
                    store.aggregate(
                        &[ExpertUpdate {
                            key: ExpertKey::new(0, t as usize),
                            expert: flux_moe::Expert::new(16, 32, &mut rng),
                            weight: 1.0,
                        }],
                        &[],
                    );
                    store
                })
            })
            .collect();
        let stores: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(server.num_tenants(), 4);
        assert!(stores.iter().all(|s| s.rounds_completed() == 1));
    }

    #[test]
    fn tenants_are_isolated() {
        let server = ParameterServer::empty();
        assert_eq!(server.num_tenants(), 0);
        let mut rng = SeededRng::new(11);
        let a = server.register_tenant(model(11));
        let b = server.register_tenant(model(12));
        assert_eq!(server.num_tenants(), 2);
        let b_before = b.snapshot().param_checksum();

        // Writing tenant A leaves tenant B bit-identical.
        let e = flux_moe::Expert::new(16, 32, &mut rng);
        a.aggregate(
            &[ExpertUpdate {
                key: ExpertKey::new(0, 0),
                expert: e,
                weight: 1.0,
            }],
            &[],
        );
        assert_eq!(b.snapshot().param_checksum(), b_before);
        assert_eq!(a.rounds_completed(), 1);
        assert_eq!(b.rounds_completed(), 0);
    }

    #[test]
    fn deregister_releases_the_tenant() {
        let server = ParameterServer::empty();
        let store = server.register_tenant(model(13));
        assert_eq!(server.num_tenants(), 1);
        assert!(server.deregister_tenant(&store));
        assert_eq!(server.num_tenants(), 0);
        // The caller's handle still works; a second deregister is a no-op.
        assert_eq!(store.rounds_completed(), 0);
        assert!(!server.deregister_tenant(&store));
    }

    #[test]
    fn adopt_tenant_registers_a_restored_store() {
        let server = ParameterServer::empty();
        let store = Arc::new(ShardedStore::new(model(17), 4));
        let adopted = server.adopt_tenant(Arc::clone(&store));
        assert!(Arc::ptr_eq(&adopted, &store));
        assert_eq!(server.num_tenants(), 1);
        assert!(server.deregister_tenant(&store));
    }

    #[test]
    fn an_adopted_store_keeps_its_sharding_and_its_bits() {
        // A 3-shard store next to a default-sharded tenant applies a round
        // bit-identically to the same store standing alone.
        let server = ParameterServer::empty();
        let initial = model(18);
        server.register_tenant(initial.clone());
        let adopted = server.adopt_tenant(Arc::new(ShardedStore::new(initial.clone(), 3)));
        let standalone = ShardedStore::new(initial, 3);
        assert_eq!(adopted.num_shards(), 3);
        let mut rng = SeededRng::new(19);
        let uploads: Vec<ExpertUpdate> = (0..5)
            .map(|i| ExpertUpdate {
                key: ExpertKey::new(i % 4, i),
                expert: flux_moe::Expert::new(16, 32, &mut rng),
                weight: i as f32 + 0.5,
            })
            .collect();
        for store in [&*adopted, &standalone] {
            let aggregator = store.begin_round();
            aggregator.submit(1, uploads[2..].to_vec(), None);
            aggregator.submit(0, uploads[..2].to_vec(), None);
            store.apply_round(&aggregator, &ThreadPool::new(2));
        }
        assert_eq!(
            adopted.snapshot().param_checksum(),
            standalone.snapshot().param_checksum()
        );
        assert_eq!(adopted.rounds_completed(), 1);
    }

    #[test]
    fn concurrent_tenant_rounds_do_not_interfere() {
        // Two tenants apply rounds from two threads simultaneously; each
        // must end bit-identical to applying its round alone.
        let initial = model(12);
        let server = Arc::new(ParameterServer::empty());
        let expected: Vec<u64> = (0..2u64)
            .map(|t| {
                let solo = ShardedStore::new(initial.clone(), 4);
                let agg = solo.begin_round();
                let mut rng = SeededRng::new(100 + t);
                agg.submit(
                    0,
                    vec![ExpertUpdate {
                        key: ExpertKey::new(0, t as usize),
                        expert: flux_moe::Expert::new(16, 32, &mut rng),
                        weight: 1.0,
                    }],
                    None,
                );
                solo.apply_round(&agg, &ThreadPool::new(1));
                solo.snapshot().param_checksum()
            })
            .collect();

        let stores: Vec<_> = (0..2)
            .map(|_| server.register_tenant(initial.clone()))
            .collect();
        let handles: Vec<_> = stores
            .iter()
            .enumerate()
            .map(|(t, store)| {
                let store = Arc::clone(store);
                std::thread::spawn(move || {
                    let agg = store.begin_round();
                    let mut rng = SeededRng::new(100 + t as u64);
                    agg.submit(
                        0,
                        vec![ExpertUpdate {
                            key: ExpertKey::new(0, t),
                            expert: flux_moe::Expert::new(16, 32, &mut rng),
                            weight: 1.0,
                        }],
                        None,
                    );
                    store.apply_round(&agg, &ThreadPool::new(2));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for (t, store) in stores.iter().enumerate() {
            assert_eq!(
                store.snapshot().param_checksum(),
                expected[t],
                "tenant {t} diverged under concurrency"
            );
        }
    }
}
