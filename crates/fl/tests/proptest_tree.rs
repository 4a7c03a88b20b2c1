//! Property-based tests for the two-level [`AggregationTree`]: edge-group
//! pre-reduction over arbitrary cohort partitions must be bit-identical to
//! the flat [`ShardedAggregator`] reduction, for every edge count, ragged
//! group assignment, shard count, arrival order and reduce-pool width —
//! and, for uploads in wire form under every compression scheme, the model
//! the staged round installs must be bit-identical to the one-shot
//! [`ShardedStore::aggregate`] reference over the decoded uploads. Uploads
//! that share the round-start snapshot's experts reduce exactly like owned
//! clones of them.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use flux_fl::{
    fedavg_experts, AggregationTree, CompressionConfig, EncodedUpload, ExpertUpdate,
    ShardedAggregator, ShardedStore, SharedExpertUpdate,
};
use flux_moe::{Expert, ExpertKey, MoeConfig, MoeModel};
use flux_quant::BitWidth;
use flux_tensor::{Matrix, SeededRng};
use threadpool::ThreadPool;

/// One participant's generated upload: id, expert updates, optional head.
type Upload = (usize, Vec<ExpertUpdate>, Option<(Matrix, f32)>);

/// Deterministic ragged uploads over a small key space: 1–3 expert updates
/// per participant (shapes derived from the key), weights spanning
/// negative/zero/positive, heads present ~80% of the time with ragged
/// shapes — the same upload distribution the flat-aggregator proptest pins.
fn make_uploads(seed: u64, num_participants: usize) -> Vec<Upload> {
    let mut rng = SeededRng::new(seed);
    (0..num_participants)
        .map(|pid| {
            let n = rng.range(1, 4);
            let updates: Vec<ExpertUpdate> = (0..n)
                .map(|_| {
                    let key = ExpertKey::new(rng.below(3), rng.below(4));
                    let expert = Expert::new(2 + key.layer, 3 + key.expert, &mut rng);
                    let weight = rng.uniform_range(-1.0, 4.0);
                    ExpertUpdate {
                        key,
                        expert,
                        weight,
                    }
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
        .collect()
}

/// Uploads a participant of `base` could ship: 1–3 freshly drawn experts
/// under keys of the model (repeats allowed), and ~80% of the time a head
/// of the model's head shape.
fn make_model_uploads(base: &MoeModel, seed: u64, num_participants: usize) -> Vec<Upload> {
    let mut rng = SeededRng::new(seed);
    let keys = base.expert_keys();
    let (head_rows, head_cols) = base.active_head().shape();
    (0..num_participants)
        .map(|pid| {
            let updates = (0..rng.range(1, 4))
                .map(|_| ExpertUpdate {
                    key: keys[rng.below(keys.len())],
                    expert: Expert::new(base.config.d_model, base.config.d_ff, &mut rng),
                    weight: rng.uniform_range(0.5, 4.0),
                })
                .collect();
            let head = rng.chance(0.8).then(|| {
                let m = Matrix::random_normal(head_rows, head_cols, 1.0, &mut rng);
                (m, rng.uniform_range(0.5, 4.0))
            });
            (pid, updates, head)
        })
        .collect()
}

/// Uploads a participant of `base` could ship in shared form: `base`'s own
/// `Arc` for the first expert (which no participant wrote), then 0–2 more
/// experts under keys of the model, each either `base`'s own `Arc` or a
/// freshly drawn one the participant owns.
fn make_shared_uploads(
    base: &MoeModel,
    seed: u64,
    num_participants: usize,
) -> Vec<(usize, Vec<SharedExpertUpdate>)> {
    let mut rng = SeededRng::new(seed);
    let keys = base.expert_keys();
    (0..num_participants)
        .map(|pid| {
            let untouched = ExpertUpdate {
                key: keys[0],
                expert: Arc::clone(base.shared_expert(keys[0])),
                weight: rng.uniform_range(0.5, 4.0),
            };
            let others = (0..rng.range(0, 3))
                .map(|_| {
                    let key = keys[rng.below(keys.len())];
                    let expert = if rng.chance(0.5) {
                        Arc::clone(base.shared_expert(key))
                    } else {
                        Arc::new(Expert::new(base.config.d_model, base.config.d_ff, &mut rng))
                    };
                    ExpertUpdate {
                        key,
                        expert,
                        weight: rng.uniform_range(0.5, 4.0),
                    }
                })
                .collect::<Vec<_>>();
            (pid, std::iter::once(untouched).chain(others).collect())
        })
        .collect()
}

/// Every scheme an upload can cross the wire in.
fn wire_configs() -> [CompressionConfig; 4] {
    [
        CompressionConfig::LosslessDelta,
        CompressionConfig::quantized(BitWidth::Int8),
        CompressionConfig::quantized(BitWidth::Int4),
        CompressionConfig::quantized_sparse(BitWidth::Int4, 0.25),
    ]
}

/// Flat reference: every upload submitted to a plain [`ShardedAggregator`]
/// in participant-id order, finalized single-threaded.
fn flat_reference(
    uploads: &[Upload],
    num_shards: usize,
) -> (HashMap<ExpertKey, Expert>, Option<Matrix>) {
    let flat = ShardedAggregator::new(num_shards);
    for (pid, updates, head) in uploads {
        assert!(flat.submit(*pid, updates.clone(), head.clone()));
    }
    flat.finalize(&ThreadPool::new(1))
}

fn assert_bit_identical(
    (experts, head): (HashMap<ExpertKey, Expert>, Option<Matrix>),
    (ref_experts, ref_head): &(HashMap<ExpertKey, Expert>, Option<Matrix>),
    label: &str,
) {
    assert_eq!(experts.len(), ref_experts.len(), "{label}: key sets differ");
    for (key, merged) in &experts {
        let reference = &ref_experts[key];
        assert_eq!(merged.w1, reference.w1, "{label}: w1 diverged for {key:?}");
        assert_eq!(merged.w2, reference.w2, "{label}: w2 diverged for {key:?}");
        assert_eq!(merged.b1, reference.b1, "{label}: b1 diverged for {key:?}");
        assert_eq!(merged.b2, reference.b2, "{label}: b2 diverged for {key:?}");
    }
    assert_eq!(&head, ref_head, "{label}: lm head diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Edge pre-reduction over **arbitrary cohort partitions** — every
    /// participant routed to an explicitly chosen edge (ragged groups:
    /// some edges may carry the whole cohort, some none), uploads arriving
    /// in a random order, any shard count and reduce width — collapses to
    /// a result bit-identical to the flat aggregator fed the same uploads
    /// in pid order.
    ///
    /// The same cohort in wire form, under every compression scheme:
    /// [`EncodedUpload`]s staged with `submit_encoded` (decoded at whichever
    /// level of the tree they route to, over zero, one or many edges) and
    /// installed with `apply_round` leave the store bit-identical to the
    /// one-shot [`ShardedStore::aggregate`] over the same uploads decoded
    /// and concatenated in pid order — the staged path every run takes
    /// against the reference no run takes.
    #[test]
    fn ragged_edge_partitions_match_flat_reduction(
        seed in 0u64..10_000,
        num_edges in 0usize..9,
        num_shards in 1usize..9,
        num_participants in 1usize..10,
        threads in 1usize..4,
        edge_seed in 0u64..1_000,
    ) {
        let uploads = make_uploads(seed, num_participants);
        let reference = flat_reference(&uploads, num_shards);

        // Ragged partition: each pid lands on an arbitrary edge, not the
        // stable `pid % num_edges` routing.
        let mut assign_rng = SeededRng::new(edge_seed);
        let assignment: Vec<usize> =
            (0..num_participants).map(|_| assign_rng.below(num_edges.max(1))).collect();

        let mut arrivals = uploads.clone();
        assign_rng.shuffle(&mut arrivals);
        let tree = AggregationTree::new(ShardedAggregator::new(num_shards), num_edges);
        for (pid, updates, head) in arrivals {
            prop_assert!(tree.submit_to_edge(assignment[pid], pid, updates, head));
        }
        prop_assert_eq!(tree.submitted_participants(), num_participants);

        let collapsed = tree.collapse().finalize(&ThreadPool::new(threads));
        assert_bit_identical(collapsed, &reference, "ragged partition");

        let base = MoeModel::new(MoeConfig::tiny(), &mut SeededRng::new(seed));
        let dense = make_model_uploads(&base, seed ^ 0x5EED, num_participants);
        for config in wire_configs() {
            let mut encoded: Vec<(usize, EncodedUpload)> = dense
                .iter()
                .map(|(pid, updates, head)| {
                    (*pid, EncodedUpload::encode(updates, head.as_ref(), &base, config))
                })
                .collect();

            let one_shot = ShardedStore::new(base.clone(), num_shards);
            let mut expert_updates = Vec::new();
            let mut head_updates = Vec::new();
            for (_, upload) in &encoded {
                let (updates, head) = upload.decode(&base).expect("a clean upload decodes");
                expert_updates.extend(updates);
                head_updates.extend(head);
            }
            one_shot.aggregate(&expert_updates, &head_updates);

            let staged = ShardedStore::new(base.clone(), num_shards);
            let tree = AggregationTree::new(staged.begin_round(), num_edges);
            assign_rng.shuffle(&mut encoded);
            for (pid, upload) in &encoded {
                prop_assert_eq!(tree.submit_encoded(*pid, upload, &base), Ok(true));
            }
            staged.apply_round(tree.collapse(), &ThreadPool::new(threads));

            // Bit patterns of every expert and both heads.
            prop_assert_eq!(
                staged.snapshot().param_checksum(),
                one_shot.snapshot().param_checksum(),
                "{:?} over {} edges diverged from the one-shot reference", config, num_edges
            );
            prop_assert_ne!(staged.snapshot().param_checksum(), base.param_checksum());
        }
    }

    /// Uploads mixing base-shared and owned experts, staged over any edge
    /// count in any arrival order, reduce bit for bit to [`fedavg_experts`]
    /// over owned clones in pid order. A shared expert is averaged like
    /// any other: the first expert, which every participant uploads as the
    /// snapshot's own `Arc`, still goes through FedAvg's arithmetic (and
    /// its rounding). Staging shares the bits; it does not skip the
    /// reduction.
    #[test]
    fn base_shared_experts_reduce_like_owned_clones(
        seed in 0u64..10_000,
        num_edges in 0usize..9,
        num_shards in 1usize..9,
        num_participants in 1usize..10,
        threads in 1usize..4,
    ) {
        let base = MoeModel::new(MoeConfig::tiny(), &mut SeededRng::new(seed));
        let uploads = make_shared_uploads(&base, seed ^ 0x5A4E, num_participants);
        let owned: Vec<ExpertUpdate> = uploads
            .iter()
            .flat_map(|(_, updates)| updates.iter().cloned().map(ExpertUpdate::into_owned))
            .collect();
        let reference = (fedavg_experts(&owned), None);

        let mut arrivals = uploads.clone();
        SeededRng::new(seed ^ 0xA77).shuffle(&mut arrivals);
        let tree = AggregationTree::new(ShardedAggregator::new(num_shards), num_edges);
        for (pid, updates) in arrivals {
            prop_assert!(tree.submit(pid, updates, None));
        }
        drop(uploads);
        let collapsed = tree.collapse().finalize(&ThreadPool::new(threads));
        assert_bit_identical(collapsed, &reference, "shared and owned");
        for key in base.expert_keys() {
            prop_assert_eq!(Arc::strong_count(base.shared_expert(key)), 1);
        }
    }

    /// The stable `pid % num_edges` routing (what the driver uses) is also
    /// bit-identical to flat.
    #[test]
    fn stable_routing_is_transparent(
        seed in 0u64..10_000,
        num_edges in 1usize..9,
        num_shards in 1usize..9,
        num_participants in 1usize..10,
        threads in 1usize..4,
    ) {
        let uploads = make_uploads(seed, num_participants);
        let reference = flat_reference(&uploads, num_shards);

        let mut arrivals = uploads.clone();
        SeededRng::new(seed ^ 0xA5A5).shuffle(&mut arrivals);
        let tree = AggregationTree::new(ShardedAggregator::new(num_shards), num_edges);
        for (pid, updates, head) in arrivals {
            prop_assert_eq!(tree.edge_of(pid), Some(pid % num_edges).filter(|_| num_edges > 1));
            prop_assert!(tree.submit(pid, updates, head));
        }
        prop_assert_eq!(tree.submitted_participants(), num_participants);
        let collapsed = tree.collapse().finalize(&ThreadPool::new(threads));
        assert_bit_identical(collapsed, &reference, "stable routing");
    }

    /// Duplicate pids are rejected across tree levels: once accepted at any
    /// edge (or the root), every retransmission — to the same edge, another
    /// edge, or via stable routing — is dropped, and the collapsed result
    /// equals the single-submission flat reference.
    #[test]
    fn duplicates_are_rejected_across_levels(
        seed in 0u64..10_000,
        num_edges in 2usize..9,
        num_shards in 1usize..9,
    ) {
        let uploads = make_uploads(seed, 3);
        let reference = flat_reference(&uploads, num_shards);

        let tree = AggregationTree::new(ShardedAggregator::new(num_shards), num_edges);
        for (pid, updates, head) in uploads.iter().cloned() {
            prop_assert!(tree.submit_to_edge(pid % num_edges, pid, updates, head));
        }
        // Retransmissions under an accepted pid: same edge, a different
        // edge, and the stable route must all reject.
        let (_, retrans, retrans_head) = uploads[1].clone();
        prop_assert!(!tree.submit_to_edge(0, 0, retrans.clone(), retrans_head.clone()));
        prop_assert!(!tree.submit_to_edge(num_edges - 1, 0, retrans.clone(), retrans_head.clone()));
        prop_assert!(!tree.submit(0, retrans, retrans_head));
        prop_assert_eq!(tree.submitted_participants(), 3);

        let collapsed = tree.collapse().finalize(&ThreadPool::new(2));
        assert_bit_identical(collapsed, &reference, "post-duplicate collapse");
    }
}

/// `collapse` is idempotent: a second collapse finds the edges drained and
/// the root unchanged, so schedulers that re-enter the aggregation step
/// (e.g. after a restore) cannot double-count.
#[test]
fn collapse_is_idempotent() {
    let uploads = make_uploads(77, 6);
    let reference = flat_reference(&uploads, 4);

    let tree = AggregationTree::new(ShardedAggregator::new(4), 3);
    for (pid, updates, head) in uploads {
        assert!(tree.submit(pid, updates, head));
    }
    tree.collapse();
    assert_eq!(tree.root().submitted_participants(), 6);
    // Second collapse: edges are empty, nothing is re-admitted.
    let (experts, head) = tree.collapse().finalize(&ThreadPool::new(1));
    let (ref_experts, ref_head) = reference;
    assert_eq!(experts.len(), ref_experts.len());
    for (key, merged) in &experts {
        assert_eq!(merged.w1, ref_experts[key].w1, "w1 diverged for {key:?}");
    }
    assert_eq!(head, ref_head);
}
