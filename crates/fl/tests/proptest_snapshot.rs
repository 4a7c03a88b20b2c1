//! Property tests for the durable per-shard snapshot format: arbitrary
//! store states round-trip bit-identically through checkpoint + load;
//! damaging any byte of any file the manifest references — a flip, a
//! truncation, appended bytes — is detected and attributed to the file that
//! was damaged; files it does not reference are never read; and every
//! directory a process killed inside a checkpoint can leave behind restores
//! to exactly the previous checkpoint or exactly the new one.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use flux_fl::snapshot::{
    corrupt_file_byte, head_file, referenced_files, shard_file, ReferencedFiles, Slot, FROZEN_FILE,
    MANIFEST_FILE,
};
use flux_fl::{load_store, shard_of_key, ExpertUpdate, ShardedStore, SnapshotError};
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

/// Closes a round that rewrote the layer-0 experts of every shard whose bit
/// is set in `shards` (and the head, on the bit above them): the next
/// checkpoint finds exactly those files dirty.
fn dirty_shards(store: &ShardedStore, shards: usize, rng: &mut SeededRng) {
    let n = store.num_shards();
    let model = store.snapshot();
    let updates: Vec<ExpertUpdate> = model
        .expert_keys()
        .into_iter()
        .filter(|&key| shards >> shard_of_key(key, n) & 1 == 1 && key.layer == 0)
        .map(|key| ExpertUpdate {
            key,
            expert: Expert::new(16, 32, rng),
            weight: 1.0,
        })
        .collect();
    let mut heads = Vec::new();
    if shards >> n & 1 == 1 {
        let (rows, cols) = model.lm_head.shape();
        heads.push((Matrix::random_normal(rows, cols, 1.0, rng), 1.0));
    }
    store.aggregate(&updates, &heads);
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

/// Every file of a checkpoint directory, by name.
type Files = BTreeMap<String, Vec<u8>>;

fn read_dir(dir: &Path) -> Files {
    std::fs::read_dir(dir)
        .expect("the checkpoint directory exists")
        .map(|entry| {
            let entry = entry.expect("directory entry");
            let name = entry.file_name().into_string().expect("ASCII file names");
            (name, std::fs::read(entry.path()).expect("readable file"))
        })
        .collect()
}

fn write_dir(dir: &Path, files: &Files) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("scratch directory");
    for (name, data) in files {
        std::fs::write(dir.join(name), data).expect("writable scratch file");
    }
}

/// The mutable files a manifest references (the frozen file is written
/// once, before the first manifest, and never again).
fn slot_files(live: &ReferencedFiles) -> Vec<String> {
    let mut names = live.shards.clone();
    names.push(live.head.clone());
    names
}

/// What a restore must come back with: `(epoch, param checksum, meta)`.
type Generation = (u64, u64, Vec<u8>);

fn assert_restores(dir: &Path, expected: &Generation, what: &str) {
    let loaded = load_store(dir).unwrap_or_else(|err| panic!("{what}: {err}"));
    let weights = loaded.store.global_model().param_checksum();
    assert_eq!(&(loaded.epoch, weights, loaded.meta), expected, "{what}");
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
        let file = shard_file(shard, Slot::A);
        corrupt_file_byte(dir.join(&file), offset).expect("damage one byte");
        match load_store(&dir) {
            Err(SnapshotError::ChecksumMismatch { file: named }) => {
                prop_assert_eq!(named, file);
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every directory a kill inside a checkpoint can leave is built here
    /// from outside, out of the directory before that checkpoint and the
    /// directory after it: the files the new manifest references and the
    /// old one does not are the new generation's slot files, and a killed
    /// writer got through any subset of them (`written`), tore at most one
    /// (`tear_at`), and renamed the manifest only if all were complete. Each
    /// such directory restores to the previous checkpoint or to the new
    /// one — epoch, weights and meta blob from the same generation — and
    /// never fails. Four generations with arbitrary dirty subsets, so both
    /// slots of a file are overwritten while the other one is live.
    ///
    /// On format v2, which renamed each new file over the previous
    /// generation's, the first state with one file written already failed:
    /// `checksum mismatch in checkpoint file shard_000.bin`.
    #[test]
    fn any_kill_inside_a_checkpoint_leaves_the_previous_or_the_new_one(
        seed in 0u64..1_000,
        num_shards in 1usize..9,
        dirty in proptest::collection::vec(0usize..512, 3),
        written in proptest::collection::vec(0usize..512, 3),
        tear_at in 0usize..1_000_000,
    ) {
        let dir = temp_dir(&format!("kill_{seed}_{num_shards}_{tear_at}"));
        let scratch = temp_dir(&format!("kill_scratch_{seed}_{num_shards}_{tear_at}"));
        let store = ShardedStore::new(tiny_model(seed), num_shards);
        let mut rng = SeededRng::new(seed ^ 0x4B11);
        store.checkpoint(&dir, b"generation 0").expect("first checkpoint");
        let mut previous: Generation =
            (0, store.global_model().param_checksum(), b"generation 0".to_vec());

        for (g, (&dirty, &written)) in dirty.iter().zip(&written).enumerate() {
            let before = read_dir(&dir);
            let old_live = slot_files(&referenced_files(&dir).expect("committed manifest"));
            dirty_shards(&store, dirty, &mut rng);
            let meta = format!("generation {}", g + 1).into_bytes();
            let stats = store.checkpoint(&dir, &meta).expect("checkpoint succeeds");
            let new: Generation = (g as u64 + 1, store.global_model().param_checksum(), meta);
            let after = read_dir(&dir);

            let new_files: Vec<String> = slot_files(&referenced_files(&dir).expect("new manifest"))
                .into_iter()
                .filter(|name| !old_live.contains(name))
                .collect();
            let dirty_count = (0..=num_shards).filter(|bit| dirty >> bit & 1 == 1).count();
            prop_assert_eq!(new_files.len(), dirty_count, "one new slot per dirty file");
            prop_assert_eq!(
                stats.shards_written + usize::from(stats.head_written),
                dirty_count,
                "O(dirty): clean files are not rewritten"
            );

            // Killed before the rename: any subset of the new files, at most
            // one torn — cut short, or half over the slot's older bytes —
            // under the old manifest, with or without a finished temp file.
            let mut state = before.clone();
            let mut torn = false;
            for (i, name) in new_files.iter().enumerate() {
                if written >> i & 1 == 0 {
                    continue;
                }
                let complete = &after[name];
                let data = if !torn && tear_at % 3 != 0 {
                    torn = true;
                    let cut = tear_at % complete.len();
                    let mut data = complete[..cut].to_vec();
                    if tear_at % 3 == 2 {
                        data.extend(before.get(name).into_iter().flat_map(|old| old.iter().skip(cut)));
                    }
                    data
                } else {
                    complete.clone()
                };
                state.insert(name.clone(), data);
            }
            if tear_at % 2 == 0 {
                state.insert("MANIFEST.tmp".into(), after[MANIFEST_FILE].clone());
            }
            write_dir(&scratch, &state);
            assert_restores(&scratch, &previous, &format!("generation {}: killed before the rename", g + 1));

            // Every new file complete, the manifest not yet renamed.
            let mut state = after.clone();
            state.insert(MANIFEST_FILE.into(), before[MANIFEST_FILE].clone());
            state.insert("MANIFEST.tmp".into(), after[MANIFEST_FILE][..tear_at % 64].to_vec());
            write_dir(&scratch, &state);
            assert_restores(&scratch, &previous, &format!("generation {}: killed writing the manifest", g + 1));

            // Killed after the rename: the new checkpoint, whole.
            write_dir(&scratch, &after);
            assert_restores(&scratch, &new, &format!("generation {}: killed after the rename", g + 1));

            previous = new;
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&scratch).ok();
    }

    /// The slot a manifest does not reference is scratch space: flipped,
    /// emptied or deleted, `load_store` never reads it.
    #[test]
    fn damage_to_an_unreferenced_slot_is_invisible(
        seed in 0u64..500,
        num_shards in 1usize..9,
        dirty in 0usize..512,
        damage in 0usize..3,
        offset in 0u64..100_000,
    ) {
        let dir = temp_dir(&format!("unref_{seed}_{num_shards}_{dirty}_{offset}"));
        let store = ShardedStore::new(tiny_model(seed), num_shards);
        let mut rng = SeededRng::new(seed ^ 0x0FF);
        store.checkpoint(&dir, b"zero").expect("first checkpoint");
        for _ in 0..2 {
            // Shard 0 at least: each round leaves a slot behind.
            dirty_shards(&store, dirty | 1, &mut rng);
            store.checkpoint(&dir, b"later").expect("checkpoint succeeds");
        }
        let expected = (2, store.global_model().param_checksum(), b"later".to_vec());
        let live = referenced_files(&dir).expect("committed manifest");
        let mut unreferenced = 0;
        for name in read_dir(&dir).into_keys() {
            if name == MANIFEST_FILE || name == FROZEN_FILE || slot_files(&live).contains(&name) {
                continue;
            }
            unreferenced += 1;
            let path = dir.join(&name);
            match damage {
                0 => corrupt_file_byte(&path, offset).expect("flip one byte"),
                1 => std::fs::write(&path, b"").expect("empty the file"),
                _ => std::fs::remove_file(&path).expect("delete the file"),
            }
        }
        prop_assert!(unreferenced > 0, "a second generation leaves the first one's slots behind");
        assert_restores(&dir, &expected, "unreferenced slots damaged");
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
        // A second generation, so the files a restore reads are a mix of
        // both slots — and the error must name the slot that was read.
        dirty_shards(&store, seed as usize % 16, &mut SeededRng::new(seed));
        store.checkpoint(&dir, b"meta").expect("checkpoint succeeds");
        let live = referenced_files(&dir).expect("committed manifest");
        let file = match which {
            0 => MANIFEST_FILE.to_string(),
            1 => FROZEN_FILE.to_string(),
            2 => live.head.clone(),
            s => live.shards[s - 3].clone(),
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

/// Restore → checkpoint → restore: a restored store carries the manifest's
/// slots, so what it dirties goes to the other slot of each file, and what
/// it did not touch is neither rewritten nor moved.
#[test]
fn a_restored_store_alternates_slots_and_skips_clean_shards() {
    let dir = temp_dir("alternate");
    let mut rng = SeededRng::new(77);
    let mut store = ShardedStore::new(tiny_model(7), 4);
    let first = store.checkpoint(&dir, b"0").expect("first checkpoint");
    assert_eq!((first.shards_written, first.shards_skipped), (4, 0));
    let mut slots = [Slot::A; 5];
    // Shard 2 is dirtied after every restore, shard 0 after the first only,
    // the head after the second only.
    for (generation, dirty) in [0b0_0101usize, 0b1_0100, 0b0_0100].into_iter().enumerate() {
        store = load_store(&dir)
            .expect("the last checkpoint restores")
            .store;
        // Restoring dirties nothing.
        let idle = store.checkpoint(&dir, b"idle").expect("idle checkpoint");
        assert_eq!((idle.shards_written, idle.shards_skipped), (0, 4));
        assert!(!idle.head_written && !idle.frozen_written);

        dirty_shards(&store, dirty, &mut rng);
        let stats = store
            .checkpoint(&dir, b"next")
            .expect("checkpoint succeeds");
        let dirty_shard_count = (dirty & 0b1111).count_ones() as usize;
        assert_eq!(
            stats.shards_written, dirty_shard_count,
            "generation {generation}"
        );
        assert_eq!(
            stats.shards_skipped,
            4 - dirty_shard_count,
            "generation {generation}"
        );
        assert_eq!(stats.head_written, dirty >> 4 == 1);
        assert!(!stats.frozen_written);
        for (file, slot) in slots.iter_mut().enumerate() {
            if dirty >> file & 1 == 1 {
                *slot = slot.other();
            }
        }
        let live = referenced_files(&dir).expect("committed manifest");
        assert_eq!(live.head, head_file(slots[4]), "generation {generation}");
        for (s, name) in live.shards.iter().enumerate() {
            assert_eq!(name, &shard_file(s, slots[s]), "generation {generation}");
        }
        let loaded = load_store(&dir).expect("restores");
        assert_eq!(
            loaded.store.global_model().param_checksum(),
            store.global_model().param_checksum()
        );
    }
    // Shard 2 went A → B → A → B; the others moved once or never.
    assert_eq!(slots, [Slot::B, Slot::A, Slot::B, Slot::A, Slot::B]);
    std::fs::remove_dir_all(&dir).ok();
}
