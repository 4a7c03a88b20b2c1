//! Lock acquisition that ignores poisoning.
//!
//! `std::sync` marks a mutex poisoned when a thread panics while holding
//! its guard, and every later `lock()` then returns an error. The
//! workspace's shared state — a store's model and version counters, a
//! round's staged uploads, the profiler's quantized-model slots — goes
//! through [`lock`], which hands out the guard regardless. That is correct
//! for this state because:
//!
//! * every critical section leaves its value structurally valid at each
//!   point it can unwind from: whole entries are pushed or inserted, and
//!   version counters and cache slots are written last, so the worst a
//!   panicking holder leaves behind is an install that did not happen (or a
//!   `None` slot that is filled again on the next request);
//! * a panic is never recovered from mid-run — the thread pool re-raises a
//!   worker's panic in the caller of the parallel region and the run ends
//!   there — so the flag protects no later computation; what it would add
//!   is a second panic in whatever touches the lock next: a `Drop` during
//!   that same unwind (an abort).

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, poisoned or not.
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_lock_poisoned_by_a_panicking_holder_still_hands_out_its_value() {
        let mutex = Arc::new(Mutex::new(vec![1, 2]));
        let m = Arc::clone(&mutex);
        let holder = std::thread::spawn(move || {
            let mut staged = lock(&m);
            staged.push(3);
            panic!("holder dies with the guard held");
        });
        assert!(holder.join().is_err());
        assert!(mutex.is_poisoned());

        assert_eq!(*lock(&mutex), [1, 2, 3]);
    }
}
