//! Property-based tests for the federated substrate: FedAvg invariants,
//! sharded incremental aggregation vs the one-shot kernels, two tenants'
//! stores under interleaved and concurrent rounds, device budgets, and
//! cost-model monotonicity.

use std::sync::Arc;

use proptest::prelude::*;

use flux_fl::{
    fedavg_experts, fedavg_matrices, CostModel, DeviceClass, ExpertUpdate, ShardedAggregator,
    ShardedStore,
};
use flux_moe::{Expert, ExpertKey, MoeConfig, MoeModel};
use flux_tensor::{Matrix, SeededRng};
use threadpool::ThreadPool;

/// One participant's generated upload: id, expert updates, optional head.
type Upload = (usize, Vec<ExpertUpdate>, Option<(Matrix, f32)>);

/// The shared initial global model of the store scenarios (tiny preset:
/// 4 layers × 8 experts of shape (16, 32)).
fn tiny_model() -> MoeModel {
    let mut rng = SeededRng::new(7);
    MoeModel::new(MoeConfig::tiny(), &mut rng)
}

/// Deterministic uploads of one `(tenant, round)` cell: every participant
/// contributes a couple of in-range expert updates plus a head, all derived
/// from the seeds so the sequential reference and every interleaving see
/// bit-identical inputs.
fn tenant_round_uploads(model: &MoeModel, tenant: u64, round: u64) -> Vec<Upload> {
    let mut rng = SeededRng::new(9000 + tenant * 97 + round);
    let head_shape = model.lm_head.shape();
    (0..3)
        .map(|pid| {
            let updates: Vec<ExpertUpdate> = (0..2)
                .map(|_| ExpertUpdate {
                    key: ExpertKey::new(rng.below(4), rng.below(8)),
                    expert: Expert::new(16, 32, &mut rng),
                    weight: rng.uniform_range(0.5, 3.0),
                })
                .collect();
            let head = Matrix::random_normal(head_shape.0, head_shape.1, 1.0, &mut rng);
            (pid, updates, Some((head, rng.uniform_range(0.5, 2.0))))
        })
        .collect()
}

/// Runs `rounds` rounds of one tenant against `store`, submitting each
/// round's uploads in the order `arrival_rng` deals, and returns the final
/// checksum.
fn run_tenant_rounds(
    store: &ShardedStore,
    model: &MoeModel,
    tenant: u64,
    rounds: u64,
    pool: &ThreadPool,
    arrival_rng: &mut SeededRng,
) -> u64 {
    for round in 0..rounds {
        let mut uploads = tenant_round_uploads(model, tenant, round);
        arrival_rng.shuffle(&mut uploads);
        let aggregator = store.begin_round();
        for (pid, updates, head) in uploads {
            assert!(aggregator.submit(pid, updates, head));
        }
        store.apply_round(&aggregator, pool);
    }
    store.snapshot().param_checksum()
}

/// Sequential reference: each tenant's rounds executed alone against a
/// private store, uploads in participant-id order, single-threaded.
fn sequential_reference(model: &MoeModel, num_shards: usize, rounds: u64) -> Vec<u64> {
    let pool = ThreadPool::new(1);
    (0..2u64)
        .map(|tenant| {
            let store = ShardedStore::new(model.clone(), num_shards);
            for round in 0..rounds {
                let aggregator = store.begin_round();
                for (pid, updates, head) in tenant_round_uploads(model, tenant, round) {
                    assert!(aggregator.submit(pid, updates, head));
                }
                store.apply_round(&aggregator, &pool);
            }
            store.snapshot().param_checksum()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// FedAvg of identical experts returns the same expert regardless of the
    /// weights.
    #[test]
    fn fedavg_identical_experts_is_identity(
        seed in 0u64..500,
        weights in prop::collection::vec(0.1f32..10.0, 1..6),
    ) {
        let mut rng = SeededRng::new(seed);
        let expert = Expert::new(4, 8, &mut rng);
        let updates: Vec<ExpertUpdate> = weights
            .iter()
            .map(|&w| ExpertUpdate {
                key: ExpertKey::new(0, 0),
                expert: expert.clone(),
                weight: w,
            })
            .collect();
        let out = fedavg_experts(&updates);
        let merged = &out[&ExpertKey::new(0, 0)];
        for (a, b) in merged.w1.as_slice().iter().zip(expert.w1.as_slice()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    /// FedAvg is invariant to a uniform scaling of all weights.
    #[test]
    fn fedavg_weight_scale_invariance(seed in 0u64..500, scale in 0.1f32..50.0) {
        let mut rng = SeededRng::new(seed);
        let a = Expert::new(4, 8, &mut rng);
        let b = Expert::new(4, 8, &mut rng);
        let make = |s: f32| {
            vec![
                ExpertUpdate { key: ExpertKey::new(1, 2), expert: a.clone(), weight: 2.0 * s },
                ExpertUpdate { key: ExpertKey::new(1, 2), expert: b.clone(), weight: 3.0 * s },
            ]
        };
        let base = fedavg_experts(&make(1.0));
        let scaled = fedavg_experts(&make(scale));
        let x = &base[&ExpertKey::new(1, 2)];
        let y = &scaled[&ExpertKey::new(1, 2)];
        for (p, q) in x.w2.as_slice().iter().zip(y.w2.as_slice()) {
            prop_assert!((p - q).abs() < 1e-4);
        }
    }

    /// Matrix FedAvg output always lies in the element-wise envelope of the
    /// inputs (it is a convex combination).
    #[test]
    fn fedavg_matrices_stays_in_envelope(
        seed in 0u64..500,
        w1 in 0.1f32..5.0,
        w2 in 0.1f32..5.0,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = Matrix::random_normal(3, 3, 1.0, &mut rng);
        let b = Matrix::random_normal(3, 3, 1.0, &mut rng);
        let avg = fedavg_matrices(&[(a.clone(), w1), (b.clone(), w2)]).unwrap();
        for ((m, x), y) in avg.as_slice().iter().zip(a.as_slice()).zip(b.as_slice()) {
            let lo = x.min(*y) - 1e-5;
            let hi = x.max(*y) + 1e-5;
            prop_assert!((lo..=hi).contains(m));
        }
    }

    /// Incremental shard-wise aggregation equals the one-shot
    /// `fedavg_experts`/`fedavg_matrices` result — **bit-identically** —
    /// for arbitrary shard counts, submission orders, weights (including
    /// the all-non-positive uniform fallback pinned in PR 3), and ragged
    /// head shapes (mismatched entries skipped against the first
    /// positive-weight shape).
    #[test]
    fn sharded_incremental_matches_one_shot_fedavg(
        seed in 0u64..10_000,
        num_shards in 1usize..9,
        num_participants in 1usize..7,
        threads in 1usize..4,
    ) {
        let mut rng = SeededRng::new(seed);
        // Per-participant uploads: 1–3 expert updates over a small key
        // space (dims derived from the key so different keys carry
        // different shapes), weights spanning negative/zero/positive, and
        // a head whose shape is ragged across participants.
        let mut uploads: Vec<Upload> = (0..num_participants)
            .map(|pid| {
                let n = rng.range(1, 4);
                let updates: Vec<ExpertUpdate> = (0..n)
                    .map(|_| {
                        let key = ExpertKey::new(rng.below(3), rng.below(4));
                        let expert = Expert::new(2 + key.layer, 3 + key.expert, &mut rng);
                        let weight = rng.uniform_range(-1.0, 4.0);
                        ExpertUpdate { key, expert, weight }
                    })
                    .collect();
                let head = if rng.chance(0.8) {
                    let (r, c) = if rng.chance(0.75) { (2, 3) } else { (3, 2) };
                    let m = Matrix::random_normal(r, c, 1.0, &mut rng);
                    Some((m, rng.uniform_range(-1.0, 4.0)))
                } else {
                    None
                };
                (pid, updates, head)
            })
            .collect();

        // One-shot reference: everything concatenated in participant-id
        // order, exactly what the barriered schedule feeds the kernels.
        let mut all_updates = Vec::new();
        let mut all_heads = Vec::new();
        for (_, updates, head) in &uploads {
            all_updates.extend(updates.iter().cloned());
            if let Some((m, w)) = head {
                all_heads.push((m.clone(), *w));
            }
        }
        let reference_experts = fedavg_experts(&all_updates);
        let reference_head = fedavg_matrices(&all_heads);

        // Incremental: submit in a random arrival order, reduce sharded.
        rng.shuffle(&mut uploads);
        let aggregator = ShardedAggregator::new(num_shards);
        for (pid, updates, head) in uploads {
            prop_assert!(aggregator.submit(pid, updates, head));
        }
        let (experts, head) = aggregator.finalize(&ThreadPool::new(threads));

        prop_assert_eq!(experts.len(), reference_experts.len());
        for (key, merged) in &experts {
            let reference = &reference_experts[key];
            prop_assert_eq!(&merged.w1, &reference.w1, "w1 diverged for {:?}", key);
            prop_assert_eq!(&merged.w2, &reference.w2, "w2 diverged for {:?}", key);
            prop_assert_eq!(&merged.b1, &reference.b1, "b1 diverged for {:?}", key);
            prop_assert_eq!(&merged.b2, &reference.b2, "b2 diverged for {:?}", key);
        }
        prop_assert_eq!(head, reference_head);
    }

    /// Any *logical* interleaving of two concurrent runs' rounds against
    /// two stores built from one model — tenant A and B's `apply_round` calls
    /// merged in an arbitrary order, uploads arriving in arbitrary order,
    /// any shard count, any reduce-pool width — yields final per-tenant
    /// checksums bit-identical to executing each tenant's rounds alone,
    /// sequentially, single-threaded.
    #[test]
    fn interleaved_tenant_rounds_match_sequential(
        arrival_seed in 0u64..10_000,
        num_shards in 1usize..9,
        threads in 1usize..4,
        rounds in 1u64..4,
        // Merge schedule: which tenant advances a round at each step.
        schedule in prop::collection::vec(0usize..2, 6),
    ) {
        let model = tiny_model();
        let expected = sequential_reference(&model, num_shards, rounds);

        let stores = [(); 2].map(|()| ShardedStore::new(model.clone(), num_shards));
        let pool = ThreadPool::new(threads);
        let mut arrival_rng = SeededRng::new(arrival_seed);
        let mut next_round = [0u64; 2];
        // Walk the generated merge schedule, then drain whatever remains.
        let order = schedule
            .iter()
            .copied()
            .chain((0..2).flat_map(|t| std::iter::repeat_n(t, rounds as usize)));
        for tenant in order {
            if next_round[tenant] >= rounds {
                continue;
            }
            let round = next_round[tenant];
            next_round[tenant] += 1;
            let mut uploads = tenant_round_uploads(&model, tenant as u64, round);
            arrival_rng.shuffle(&mut uploads);
            let aggregator = stores[tenant].begin_round();
            for (pid, updates, head) in uploads {
                prop_assert!(aggregator.submit(pid, updates, head));
            }
            stores[tenant].apply_round(&aggregator, &pool);
        }
        for (tenant, store) in stores.iter().enumerate() {
            prop_assert_eq!(
                store.snapshot().param_checksum(),
                expected[tenant],
                "tenant {} diverged from sequential execution",
                tenant
            );
        }
    }

    /// Two tenants' rounds executed **concurrently from two OS threads**
    /// (their stores' locks racing for real) still end
    /// bit-identical to sequential execution.
    #[test]
    fn threaded_tenant_rounds_match_sequential(
        arrival_seed in 0u64..10_000,
        num_shards in 1usize..9,
        threads in 1usize..4,
        rounds in 1u64..4,
    ) {
        let model = tiny_model();
        let expected = sequential_reference(&model, num_shards, rounds);

        let stores = [(); 2].map(|()| Arc::new(ShardedStore::new(model.clone(), num_shards)));
        let model = Arc::new(model);
        let handles: Vec<_> = stores
            .iter()
            .enumerate()
            .map(|(tenant, store)| {
                let store = Arc::clone(store);
                let model = Arc::clone(&model);
                std::thread::spawn(move || {
                    let pool = ThreadPool::new(threads);
                    let mut arrival_rng = SeededRng::new(arrival_seed + tenant as u64);
                    run_tenant_rounds(&store, &model, tenant as u64, rounds, &pool, &mut arrival_rng)
                })
            })
            .collect();
        for (tenant, handle) in handles.into_iter().enumerate() {
            let checksum = handle.join().expect("tenant thread panicked");
            prop_assert_eq!(
                checksum,
                expected[tenant],
                "tenant {} diverged under cross-thread concurrency",
                tenant
            );
        }
    }

    /// Device capacity budgets are always consistent: 1 <= B_tune <= B_i <=
    /// total experts, for every device class and workload size.
    #[test]
    fn device_budgets_are_consistent(tokens in 1usize..2_000_000) {
        let config = MoeConfig::llama_moe_sim();
        for class in DeviceClass::all() {
            let device = class.profile();
            let b = device.expert_capacity(&config);
            let bt = device.tuning_capacity(&config, tokens);
            prop_assert!(b >= 1);
            prop_assert!(b <= config.total_experts());
            prop_assert!(bt >= 1);
            prop_assert!(bt <= b);
        }
    }

    /// Fine-tuning cost is monotone in tokens and in the number of tuned
    /// experts.
    #[test]
    fn cost_model_monotonicity(
        tokens in 100usize..100_000,
        experts in 1usize..256,
    ) {
        let cost = CostModel::default();
        let device = DeviceClass::Consumer16G.profile();
        let config = MoeConfig::llama_moe_sim();
        let base = cost.fine_tune_time_s(&device, &config, tokens, experts, 512);
        let more_tokens = cost.fine_tune_time_s(&device, &config, tokens * 2, experts, 512);
        let more_experts = cost.fine_tune_time_s(&device, &config, tokens, experts + 32, 512);
        prop_assert!(more_tokens >= base);
        prop_assert!(more_experts >= base);
        prop_assert!(base.is_finite() && base > 0.0);
    }

    /// Communication and offloading costs scale linearly with volume.
    #[test]
    fn comm_and_offload_linear(experts in 1usize..512) {
        let cost = CostModel::default();
        let device = DeviceClass::Consumer12G.profile();
        let config = MoeConfig::llama_moe_sim();
        let one = cost.communication_time_s(&device, &config, experts);
        let two = cost.communication_time_s(&device, &config, experts * 2);
        prop_assert!((two - 2.0 * one).abs() < 1e-6 * two.max(1.0));
        let o1 = cost.offload_time_s(&device, &config, experts);
        let o2 = cost.offload_time_s(&device, &config, experts * 2);
        prop_assert!((o2 - 2.0 * o1).abs() < 1e-6 * o2.max(1.0));
    }
}

/// A retransmitting participant is rejected at the store level: the round
/// opened by `ShardedStore::begin_round` ignores the duplicate wholesale,
/// and the installed model is bit-identical to the single-submission run.
#[test]
fn duplicate_submission_is_rejected_at_the_store_level() {
    let model = tiny_model();
    let pool = ThreadPool::new(2);

    let reference = ShardedStore::new(model.clone(), 4);
    let uploads = tenant_round_uploads(&model, 0, 0);
    {
        let aggregator = reference.begin_round();
        let (pid, updates, head) = uploads[0].clone();
        assert!(aggregator.submit(pid, updates, head));
        reference.apply_round(&aggregator, &pool);
    }

    let store = ShardedStore::new(model.clone(), 4);
    let aggregator = store.begin_round();
    let (pid, updates, head) = uploads[0].clone();
    assert!(aggregator.submit(pid, updates, head));
    // The straggler retransmits different payloads under the same id: the
    // whole resubmission must be dropped, not merged.
    let (_, retrans_updates, retrans_head) = uploads[1].clone();
    assert!(!aggregator.submit(pid, retrans_updates, retrans_head));
    assert_eq!(aggregator.submitted_participants(), 1);
    store.apply_round(&aggregator, &pool);

    assert_eq!(
        store.snapshot().param_checksum(),
        reference.snapshot().param_checksum(),
        "duplicate submission leaked into the aggregate"
    );
    // The next round accepts the participant again (round state drained).
    let next = store.begin_round();
    let (pid, updates, head) = uploads[2].clone();
    assert!(next.submit(pid, updates, head));
}
