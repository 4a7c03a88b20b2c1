//! Property tests for the durable per-shard snapshot format: arbitrary
//! store states round-trip bit-identically through checkpoint + load, and
//! damaging any byte of any file — a flip, a truncation, appended bytes —
//! is detected and attributed to the file that was damaged.

use std::path::PathBuf;

use proptest::prelude::*;

use flux_fl::snapshot::{corrupt_file_byte, shard_file, FROZEN_FILE, HEAD_FILE, MANIFEST_FILE};
use flux_fl::{load_store, ExpertUpdate, ShardedStore, SnapshotError};
use flux_moe::{Expert, ExpertKey, MoeConfig, MoeModel};
use flux_tensor::{Matrix, SeededRng};

fn tiny_model(seed: u64) -> MoeModel {
    MoeModel::new(MoeConfig::tiny(), &mut SeededRng::new(seed))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flux_prop_snapshot_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Applies `rounds` seeded aggregate rounds (a few in-range expert updates
/// plus a head each) so the store wanders away from its initial state.
fn mutate_store(store: &ShardedStore, seed: u64, rounds: usize) {
    let mut rng = SeededRng::new(seed);
    let head_shape = store.global_model().lm_head.shape();
    for _ in 0..rounds {
        let updates: Vec<ExpertUpdate> = (0..1 + rng.below(3))
            .map(|_| ExpertUpdate {
                key: ExpertKey::new(rng.below(4), rng.below(8)),
                expert: Expert::new(16, 32, &mut rng),
                weight: rng.uniform_range(0.5, 3.0),
            })
            .collect();
        let heads = vec![(
            Matrix::random_normal(head_shape.0, head_shape.1, 1.0, &mut rng),
            rng.uniform_range(0.5, 2.0),
        )];
        store.aggregate(&updates, &heads);
    }
}

/// Whether `err` is a typed error that names `file`.
fn names_file(err: &SnapshotError, file: &str) -> bool {
    match err {
        SnapshotError::ChecksumMismatch { file: named } | SnapshotError::Missing(named) => {
            named == file
        }
        SnapshotError::Corrupt(msg) | SnapshotError::Mismatch(msg) => msg.starts_with(file),
        SnapshotError::Io(_) | SnapshotError::TooLarge(_) => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn snapshot_round_trips_arbitrary_store_states(
        seed in 0u64..1_000,
        rounds in 0usize..4,
        num_shards in 1usize..9,
    ) {
        let store = ShardedStore::new(tiny_model(seed), num_shards);
        mutate_store(&store, seed ^ 0xABCD, rounds);
        let expected = store.global_model().param_checksum();
        let dir = temp_dir(&format!("rt_{seed}_{rounds}_{num_shards}"));
        let meta = seed.to_le_bytes().to_vec();
        let stats = store.checkpoint(&dir, &meta).expect("checkpoint succeeds");
        prop_assert_eq!(stats.shards_written + stats.shards_skipped, num_shards);
        let loaded = load_store(&dir).expect("clean snapshot loads");
        prop_assert_eq!(loaded.store.global_model().param_checksum(), expected);
        prop_assert_eq!(loaded.epoch as usize, store.rounds_completed());
        prop_assert_eq!(loaded.meta, meta);
        // A restored store checkpoints back to a loadable snapshot with
        // the same content.
        let dir2 = temp_dir(&format!("rt2_{seed}_{rounds}_{num_shards}"));
        loaded.store.checkpoint(&dir2, b"again").expect("re-checkpoint");
        let reloaded = load_store(&dir2).expect("second generation loads");
        prop_assert_eq!(reloaded.store.global_model().param_checksum(), expected);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn corrupting_any_shard_is_detected_and_attributed(
        seed in 0u64..500,
        shard in 0usize..4,
        offset in 0u64..10_000,
    ) {
        let store = ShardedStore::new(tiny_model(seed), 4);
        mutate_store(&store, seed ^ 0x5EED, 1);
        let dir = temp_dir(&format!("corrupt_{seed}_{shard}_{offset}"));
        store.checkpoint(&dir, b"").expect("checkpoint succeeds");
        corrupt_file_byte(dir.join(shard_file(shard)), offset).expect("damage one byte");
        match load_store(&dir) {
            Err(SnapshotError::ChecksumMismatch { file }) => {
                prop_assert_eq!(file, shard_file(shard));
            }
            Err(other) => prop_assert!(false, "wrong error kind: {other}"),
            Ok(_) => prop_assert!(false, "a damaged shard must not load"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupting_the_manifest_never_loads(
        seed in 0u64..500,
        offset in 0u64..10_000,
    ) {
        let store = ShardedStore::new(tiny_model(seed), 3);
        let dir = temp_dir(&format!("manifest_{seed}_{offset}"));
        store.checkpoint(&dir, b"meta").expect("checkpoint succeeds");
        corrupt_file_byte(dir.join(MANIFEST_FILE), offset).expect("damage one byte");
        prop_assert!(load_store(&dir).is_err(), "a damaged manifest must not load");
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    // Six files × three kinds of damage: enough cases to meet each pair.
    #![proptest_config(ProptestConfig::with_cases(72))]

    #[test]
    fn any_damage_to_any_file_is_a_typed_error_naming_it(
        seed in 0u64..500,
        which in 0usize..6,
        damage in 0usize..3,
        amount in 0u64..100_000,
    ) {
        let store = ShardedStore::new(tiny_model(seed), 3);
        mutate_store(&store, seed ^ 0xF11E, 1);
        let dir = temp_dir(&format!("damage_{seed}_{which}_{damage}_{amount}"));
        store.checkpoint(&dir, b"meta").expect("checkpoint succeeds");
        let file = match which {
            0 => MANIFEST_FILE.to_string(),
            1 => FROZEN_FILE.to_string(),
            2 => HEAD_FILE.to_string(),
            s => shard_file(s - 3),
        };
        let path = dir.join(&file);
        let mut data = std::fs::read(&path).expect("file exists");
        match damage {
            0 => corrupt_file_byte(&path, amount).expect("flip one byte"),
            1 => {
                data.truncate(amount as usize % data.len());
                std::fs::write(&path, &data).expect("truncate");
            }
            _ => {
                data.resize(data.len() + 1 + amount as usize % 16, 0);
                std::fs::write(&path, &data).expect("append");
            }
        }
        match load_store(&dir) {
            Err(err) => prop_assert!(names_file(&err, &file), "{} damaged, error: {}", file, err),
            Ok(_) => prop_assert!(false, "a damaged {} must not load", file),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
