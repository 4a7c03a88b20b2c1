//! Thread-local scratch memory: one warm buffer per thread for kernel scopes.
//!
//! A few kernels stage a short-lived buffer every call: the `B`-side
//! transposes of `matmul_transb` / `block_diag_matmul_transb`, the Gram
//! slab and the upload codec's key scratch. None of them opens a scope
//! inside its own, so [`with`] lends each the front of one per-thread
//! `Vec`, which grows only when a scope asks for more than it has ever
//! held; after that no scope touches the allocator or fills memory. A scope
//! opened while another is live gets a fresh allocation of its own.
//! What escapes a scope (every [`Matrix`](crate::Matrix) a kernel returns)
//! is an ordinary owned allocation.
//!
//! The buffer is per-thread, so there is no locking, and results are
//! bit-identical under any thread count. `vendor/threadpool` keeps its
//! workers across fork-join regions, so a worker's buffer stays warm from
//! one region to the next; [`stats`] lets tests pin that reuse.

use std::cell::{Cell, RefCell};

thread_local! {
    static BUFFER: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static STATS: Cell<ScratchStats> = const {
        Cell::new(ScratchStats { misses: 0, arena_hits: 0, arena_misses: 0 })
    };
}

/// Per-thread scratch counters since the last [`reset_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    // Always 0. `benchmark/src/report.rs` still reads it; it goes with
    // ROADMAP "Benchmark hygiene" (a).
    #[doc(hidden)]
    pub misses: u64,
    /// [`with`] scopes the warm buffer served, without allocating.
    pub arena_hits: u64,
    /// [`with`] scopes that allocated: the buffer grew, or the scope was
    /// opened inside another and got memory of its own.
    pub arena_misses: u64,
}

/// Reads the calling thread's scratch counters.
pub fn stats() -> ScratchStats {
    STATS.get()
}

/// Zeroes the calling thread's scratch counters (the buffer is kept).
pub fn reset_stats() {
    STATS.set(ScratchStats::default());
}

fn count(hit: bool) {
    let mut s = STATS.get();
    s.arena_hits += u64::from(hit);
    s.arena_misses += u64::from(!hit);
    STATS.set(s);
}

/// Runs `f` with a scratch slice of `len` elements: the front of the
/// thread's warm buffer, grown first if it is shorter than `len`. A scope
/// opened inside another gets a fresh allocation instead. The slice is
/// valid exactly for the duration of `f`; a panic in `f` releases the
/// buffer like a return does.
///
/// **Write before read.** The slice holds whatever an earlier scope left
/// there: `f` must write every element before it reads it. Every caller
/// does (a transpose, a panel fill, a delta pass), and tests in flux-tensor
/// (`warm_scratch_kernels_are_bit_identical_to_cold`) and flux-fl
/// (`warm_scratch_top_k_is_bit_identical_to_cold`) hold them to it with a
/// buffer poisoned by NaN.
pub fn with<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    BUFFER.with(|buffer| {
        let Ok(mut buf) = buffer.try_borrow_mut() else {
            count(false);
            return f(&mut vec![0.0; len]);
        };
        count(buf.len() >= len);
        if buf.len() < len {
            *buf = vec![0.0; len];
        }
        f(&mut buf[..len])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` on a dedicated thread: sibling tests share this thread's
    /// buffer and counters otherwise.
    fn on_fresh_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        std::thread::spawn(f).join().unwrap()
    }

    #[test]
    fn warm_reuse_counts_a_hit_and_fills_nothing() {
        on_fresh_thread(|| {
            with(64, |s| s.fill(5.0));
            reset_stats();
            // Same size and a smaller one: both served from the warm buffer,
            // as the last scope left it (write before read is the caller's).
            with(64, |s| assert!(s.iter().all(|&x| x == 5.0)));
            with(10, |s| assert_eq!(s.len(), 10));
            let s = stats();
            assert_eq!((s.arena_hits, s.arena_misses, s.misses), (2, 0, 0));
        });
    }

    #[test]
    fn growth_counts_a_miss() {
        on_fresh_thread(|| {
            with(16, |_| {});
            with(16, |_| {});
            with(1000, |s| assert_eq!(s.len(), 1000));
            with(1000, |_| {});
            let s = stats();
            assert_eq!(s.arena_misses, 2, "the first scope and the growth allocate");
            assert_eq!(s.arena_hits, 2);
        });
    }

    #[test]
    fn nested_scope_gets_a_disjoint_slice() {
        on_fresh_thread(|| {
            with(64, |_| {}); // warm, larger than both scopes below
            reset_stats();
            with(32, |outer| {
                outer.fill(1.0);
                let inner_sum = with(32, |inner| {
                    inner.fill(2.0);
                    inner.iter().sum::<f32>()
                });
                assert_eq!(inner_sum, 64.0);
                // The outer scope's data survived the nested scope.
                assert!(outer.iter().all(|&x| x == 1.0));
            });
            let s = stats();
            assert_eq!(
                (s.arena_hits, s.arena_misses),
                (1, 1),
                "the nested scope allocates"
            );
        });
    }

    #[test]
    fn panicking_scope_leaves_the_buffer_usable() {
        on_fresh_thread(|| {
            let _ = std::panic::catch_unwind(|| {
                with(256, |s| {
                    s.fill(3.0);
                    panic!("scope panics")
                });
            });
            reset_stats();
            with(256, |s| assert_eq!(s.len(), 256));
            assert_eq!(
                stats().arena_hits,
                1,
                "the warm buffer serves the next scope"
            );
        });
    }

    #[test]
    fn zero_length_with_is_fine() {
        assert_eq!(with(0, |s| s.len()), 0);
    }
}
