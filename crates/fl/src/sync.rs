//! Lock acquisition that ignores poisoning.
//!
//! `std::sync` marks a lock poisoned when a thread panics while holding its
//! guard, and every later `lock()` / `read()` / `write()` then returns an
//! error. The workspace's shared state — a store's model and version
//! counters, a round's staged uploads, the tenant registry, the
//! profiler's quantized-model slots — goes through the three helpers here,
//! which hand out the guard regardless. That is correct for this state
//! because:
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
//!   that same unwind (an abort), or another tenant of a shared
//!   [`ParameterServer`](crate::ParameterServer) that the failed run never
//!   wrote to.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `mutex`, poisoned or not.
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes a shared guard on `lock`, poisoned or not.
pub fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Takes the exclusive guard on `lock`, poisoned or not.
pub fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_lock_poisoned_by_a_panicking_holder_still_hands_out_its_value() {
        let mutex = Arc::new(Mutex::new(vec![1, 2]));
        let rw = Arc::new(RwLock::new(7));
        let (m, r) = (Arc::clone(&mutex), Arc::clone(&rw));
        let holder = std::thread::spawn(move || {
            let mut staged = lock(&m);
            let _exclusive = write(&r);
            staged.push(3);
            panic!("holder dies with both guards held");
        });
        assert!(holder.join().is_err());
        assert!(mutex.is_poisoned() && rw.is_poisoned());

        assert_eq!(*lock(&mutex), [1, 2, 3]);
        assert_eq!(*read(&rw), 7);
        *write(&rw) += 1;
        assert_eq!(*read(&rw), 8);
    }
}
