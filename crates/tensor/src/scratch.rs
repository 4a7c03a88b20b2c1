//! Thread-local scratch memory: a bump arena for scoped kernel buffers.
//!
//! A handful of kernels need a short-lived staging buffer every call — the
//! `B`-side transposes of `matmul_transb` / `block_diag_matmul_transb`
//! (the GEMM tile reads `A` where it lies, so nothing else in a matmul is
//! staged), the Gram slab, the upload codec's key scratch. Each lives in
//! one lexical scope, and scopes nest strictly,
//! which is exactly the discipline a bump arena wants: [`with`] serves an
//! allocation as a pointer bump into a reserved chunk and a release as a
//! pointer rewind, and when the outermost scope exits the arena resets to
//! empty — O(1), no search, no per-size bookkeeping. Kernel scratch
//! touches the allocator proper only while the arena is still growing
//! toward its high-water mark; after that every scope of every round
//! reuses the same chunk. [`reset_round`] trims an oversized arena back
//! toward the recent rounds' high water (the driver calls it at round
//! boundaries).
//!
//! This is the only scratch allocator. Buffers that escape a scope —
//! every [`Matrix`](crate::Matrix) a kernel returns — are ordinary owned
//! allocations that drop like any other `Vec`.
//!
//! The arena is per-thread, so no locking and bit-identical results under
//! any thread count. Lifetime tracks thread lifetime: since
//! `vendor/threadpool` keeps its workers **persistent** across fork-join
//! regions, a worker's arena stays warm from one region to the next. The
//! [`stats`] counters exist so tests can pin that reuse instead of
//! assuming it.

use std::cell::RefCell;

/// Smallest chunk the arena reserves; avoids pathological regrowth for
/// byte-sized scopes.
const MIN_CHUNK: usize = 1024;

thread_local! {
    static ARENA: RefCell<Arena> = const { RefCell::new(Arena::new()) };
}

/// The thread-local bump arena behind [`with`].
///
/// Chunks are boxed slices so growing the arena mid-scope (pushing a new
/// chunk) never moves memory a live outer scope still borrows. Scopes
/// release strictly LIFO (enforced by drop order of the guards in
/// [`with`]), so frees are offset rewinds; when the last scope exits the
/// arena is empty and a fragmented multi-chunk episode coalesces into one
/// chunk sized to the observed high water.
struct Arena {
    chunks: Vec<Box<[f32]>>,
    /// Chunk currently being bumped.
    cur: usize,
    /// Bump offset within `chunks[cur]`.
    offset: usize,
    /// LIFO scope records: (chunk, offset) to restore on release.
    scopes: Vec<(usize, usize)>,
    /// Total live elements across all scopes.
    in_use: usize,
    /// Max `in_use` observed since the last [`reset_round`].
    high_water: usize,
    hits: u64,
    misses: u64,
}

impl Arena {
    const fn new() -> Self {
        Self {
            chunks: Vec::new(),
            cur: 0,
            offset: 0,
            scopes: Vec::new(),
            in_use: 0,
            high_water: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn capacity(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }

    /// Reserves `len` elements and returns a pointer to them. The range is
    /// exclusively the caller's until the matching [`Arena::release`].
    fn alloc(&mut self, len: usize) -> *mut f32 {
        debug_assert!(len > 0, "zero-length scopes bypass the arena");
        let fits = self
            .chunks
            .get(self.cur)
            .is_some_and(|c| c.len() - self.offset >= len);
        if fits {
            self.hits += 1;
        } else {
            // Reserve a fresh chunk without touching existing ones (outer
            // scopes may hold live borrows into them). Doubling the total
            // keeps growth episodes logarithmic.
            self.misses += 1;
            let size = len.max(self.capacity()).max(MIN_CHUNK);
            let next = self.cur + usize::from(!self.chunks.is_empty());
            self.chunks.truncate(next);
            self.chunks.push(vec![0.0; size].into_boxed_slice());
            self.cur = next;
            self.offset = 0;
        }
        self.scopes.push((self.cur, self.offset));
        let ptr = unsafe { self.chunks[self.cur].as_mut_ptr().add(self.offset) };
        self.offset += len;
        self.in_use += len;
        self.high_water = self.high_water.max(self.in_use);
        ptr
    }

    /// Releases the most recent scope (strict LIFO).
    fn release(&mut self, len: usize) {
        let (chunk, offset) = self
            .scopes
            .pop()
            .expect("arena release without a matching alloc");
        self.cur = chunk;
        self.offset = offset;
        self.in_use -= len;
        if self.scopes.is_empty() {
            self.cur = 0;
            self.offset = 0;
            // A fragmented episode (more than one chunk) coalesces into a
            // single chunk sized to the high water, so the next round's
            // scopes nest without chunk hops.
            if self.chunks.len() > 1 {
                let size = self.high_water.max(MIN_CHUNK);
                self.chunks.clear();
                self.chunks.push(vec![0.0; size].into_boxed_slice());
            }
        }
    }

    /// Round-boundary housekeeping: with no live scopes, trims an arena
    /// whose reserved chunk grew far past what recent rounds actually used
    /// and starts a fresh high-water epoch.
    fn reset_round(&mut self) {
        if !self.scopes.is_empty() {
            return; // mid-scope: self-resets at depth 0 instead
        }
        let keep = self.high_water.max(MIN_CHUNK);
        if self.chunks.len() > 1 || self.capacity() > keep.saturating_mul(2) {
            self.chunks.clear();
            self.chunks.push(vec![0.0; keep].into_boxed_slice());
        }
        self.high_water = 0;
    }
}

/// Per-thread scratch counters since the last [`reset_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    // Always 0: nothing counts into it. Kept only because
    // `benchmark/src/report.rs` l.624 still reads it and `benchmark/**`
    // changes in benchmark-only PRs; goes with ROADMAP "Benchmark hygiene"
    // (a).
    #[doc(hidden)]
    pub misses: u64,
    /// [`with`] scopes served by bumping into already-reserved arena
    /// memory (no allocator traffic).
    pub arena_hits: u64,
    /// [`with`] scopes that had to reserve a new arena chunk.
    pub arena_misses: u64,
    /// Total elements currently reserved by the arena's chunks.
    pub arena_capacity: usize,
    /// Peak live arena elements since the last [`reset_round`].
    pub arena_high_water: usize,
}

/// Reads the calling thread's scratch counters.
pub fn stats() -> ScratchStats {
    ARENA.with(|arena| {
        let arena = arena.borrow();
        ScratchStats {
            misses: 0,
            arena_hits: arena.hits,
            arena_misses: arena.misses,
            arena_capacity: arena.capacity(),
            arena_high_water: arena.high_water,
        }
    })
}

/// Zeroes the calling thread's scratch counters (arena chunks are kept).
pub fn reset_stats() {
    ARENA.with(|arena| {
        let mut arena = arena.borrow_mut();
        arena.hits = 0;
        arena.misses = 0;
    });
}

/// Round-boundary arena reset for the calling thread: trims a chunk that
/// grew far past the recent rounds' high water and starts a fresh
/// high-water epoch. Safe (and a no-op) while scopes are live; worker
/// threads' arenas self-reset whenever their outermost scope exits, so
/// only long-lived driver threads need to call this.
pub fn reset_round() {
    ARENA.with(|arena| arena.borrow_mut().reset_round());
}

/// Runs `f` with a zero-filled scratch slice of `len` elements served from
/// the thread-local bump arena. Scopes nest freely (a nested [`with`]
/// bumps above its parent); the slice is valid exactly for the duration of
/// `f`, and the arena rewinds when `f` returns — including on panic, so an
/// unwinding scope cannot corrupt the arena for its parents.
pub fn with<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    if len == 0 {
        return f(&mut []);
    }
    let ptr = ARENA.with(|arena| arena.borrow_mut().alloc(len));
    // Rewind on every exit path (return or unwind). Guard order: created
    // after alloc, dropped after `f`, so releases mirror allocations LIFO.
    struct Rewind(usize);
    impl Drop for Rewind {
        fn drop(&mut self) {
            ARENA.with(|arena| arena.borrow_mut().release(self.0));
        }
    }
    let _rewind = Rewind(len);
    // SAFETY: `alloc` reserved `len` elements exclusively for this scope;
    // the backing chunk is a boxed slice that is neither moved nor freed
    // while any scope is live (growth pushes new chunks, coalescing only
    // happens with zero live scopes), and nested scopes get disjoint
    // ranges. The RefCell borrow is released before `f` runs, so nested
    // `with` calls inside `f` cannot double-borrow.
    let slice = unsafe { std::slice::from_raw_parts_mut(ptr, len) };
    slice.fill(0.0);
    f(slice)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` on a dedicated thread: sibling tests share this thread's
    /// arena and counters otherwise.
    fn on_fresh_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        std::thread::spawn(f).join().unwrap()
    }

    #[test]
    fn with_provides_zeroed_scratch_and_reuses_arena() {
        on_fresh_thread(|| {
            reset_stats();
            let sum = with(8, |s| {
                s.iter_mut().enumerate().for_each(|(i, x)| *x = i as f32);
                s.iter().sum::<f32>()
            });
            assert_eq!(sum, 28.0);
            // Same-size scope again: arena memory is already reserved.
            with(8, |s| assert!(s.iter().all(|&x| x == 0.0)));
            let s = stats();
            assert_eq!(s.arena_misses, 1, "first scope reserves the chunk");
            assert!(s.arena_hits >= 1, "second scope bumps into it");
        });
    }

    #[test]
    fn nested_scopes_bump_disjoint_ranges() {
        on_fresh_thread(|| {
            with(64, |outer| {
                outer.fill(1.0);
                let inner_sum = with(32, |inner| {
                    assert!(inner.iter().all(|&x| x == 0.0), "nested scope is zeroed");
                    inner.fill(2.0);
                    inner.iter().sum::<f32>()
                });
                assert_eq!(inner_sum, 64.0);
                // The outer scope's data survived the nested scope.
                assert!(outer.iter().all(|&x| x == 1.0));
            });
        });
    }

    #[test]
    fn nested_scope_stats_hit_after_warmup() {
        // Hit/miss accounting across nested regions: after one warm-up
        // round the same nesting pattern is all hits.
        on_fresh_thread(|| {
            let pattern = || {
                with(100, |_| {
                    with(50, |_| with(25, |_| {}));
                    with(40, |_| {});
                })
            };
            pattern();
            reset_stats();
            pattern();
            pattern();
            let s = stats();
            assert_eq!(s.arena_misses, 0, "warm arena serves every nested scope");
            assert_eq!(s.arena_hits, 8, "4 scopes per pattern, 2 patterns");
        });
    }

    #[test]
    fn arena_coalesces_after_fragmented_episode() {
        // Growth mid-scope pushes extra chunks (live outer borrows must not
        // move); once the outermost scope exits, the arena coalesces to one
        // chunk covering the high water.
        on_fresh_thread(|| {
            with(MIN_CHUNK, |_| {
                with(3 * MIN_CHUNK, |_| {
                    with(5 * MIN_CHUNK, |_| {});
                });
            });
            let s = stats();
            assert!(
                s.arena_capacity >= 9 * MIN_CHUNK,
                "coalesced chunk covers the 9*MIN_CHUNK high water, got {}",
                s.arena_capacity
            );
            // One single chunk now serves the same nesting without misses.
            reset_stats();
            with(MIN_CHUNK, |_| {
                with(3 * MIN_CHUNK, |_| {
                    with(5 * MIN_CHUNK, |_| {});
                });
            });
            assert_eq!(stats().arena_misses, 0);
        });
    }

    #[test]
    fn reset_round_trims_oversized_arena() {
        // Per-round reset semantics: a round that spiked leaves a big
        // chunk; after a round whose high water is small, reset_round trims
        // the reserved capacity back down.
        on_fresh_thread(|| {
            with(64 * MIN_CHUNK, |_| {}); // the spike round
            reset_round(); // epoch ends; capacity kept (matches high water)
            assert!(stats().arena_capacity >= 64 * MIN_CHUNK);
            with(MIN_CHUNK / 2, |_| {}); // a small round
            reset_round();
            let s = stats();
            assert!(
                s.arena_capacity <= 2 * MIN_CHUNK,
                "oversized arena must trim toward the recent high water, kept {}",
                s.arena_capacity
            );
            assert_eq!(s.arena_high_water, 0, "reset_round starts a new epoch");
        });
    }

    #[test]
    fn reset_round_is_noop_with_live_scopes() {
        on_fresh_thread(|| {
            with(4 * MIN_CHUNK, |s| {
                s.fill(3.0);
                reset_round(); // must not free memory a live scope borrows
                assert!(s.iter().all(|&x| x == 3.0));
            });
        });
    }

    #[test]
    fn panicking_scope_rewinds_the_arena() {
        on_fresh_thread(|| {
            let _ = std::panic::catch_unwind(|| {
                with(256, |_| panic!("scope panics"));
            });
            // The arena is consistent: fresh scopes nest and zero as usual.
            with(256, |s| assert!(s.iter().all(|&x| x == 0.0)));
            with(16, |outer| {
                with(16, |inner| {
                    assert!(inner.iter().all(|&x| x == 0.0));
                });
                assert!(outer.iter().all(|&x| x == 0.0));
            });
        });
    }

    #[test]
    fn zero_length_with_is_fine() {
        assert_eq!(with(0, |s| s.len()), 0);
    }
}
