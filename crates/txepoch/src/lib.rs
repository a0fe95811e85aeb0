//! Fraser-style epoch-based memory reclamation.
//!
//! The SpecTM paper (Dragojević & Harris, EuroSys 2012) uses the epoch-based
//! scheme from Fraser's thesis for all of its data structures: a node removed
//! from a shared structure is not freed immediately, because other threads may
//! still hold references obtained before the removal.  Instead the node is
//! *retired* and physically freed only once every thread has passed through a
//! grace period, which the scheme tracks with a small global epoch counter.
//!
//! This crate is a from-scratch implementation of that scheme (it does not use
//! `crossbeam-epoch`), because the reclamation substrate is part of the system
//! the paper studies and is shared by the STM variants and by the lock-free
//! baselines.
//!
//! # Model
//!
//! * A [`Collector`] owns the global epoch and the list of participants.
//! * Each thread that accesses shared data registers a [`LocalHandle`]
//!   (usually via [`Collector::register`]).
//! * Before touching shared memory the thread calls [`LocalHandle::pin`],
//!   obtaining a [`Guard`].  While at least one guard is live the thread is
//!   *active* in the epoch it observed when pinning.
//! * Removed nodes are handed to [`Guard::defer_drop`] (or
//!   [`Guard::defer_unchecked`] for raw destructors).  They are freed once the
//!   global epoch has advanced twice past the epoch in which they were
//!   retired, which implies that no thread can still hold a reference.
//!
//! # Examples
//!
//! ```
//! use txepoch::Collector;
//!
//! let collector = Collector::new();
//! let handle = collector.register();
//! let guard = handle.pin();
//! // Shared-memory reads happen while the guard is alive.
//! let node = Box::into_raw(Box::new(42_u64));
//! // SAFETY: `node` was just allocated by `Box::into_raw` and is never
//! // reachable by other threads in this example.
//! unsafe { guard.defer_drop(node) };
//! drop(guard);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod collector;
mod deferred;
mod guard;
mod local;

pub use collector::{Collector, CollectorStats};
pub use guard::Guard;
pub use local::LocalHandle;

/// Number of epoch equivalence classes tracked simultaneously.
///
/// Garbage retired in epoch `e` may only be freed once the global epoch has
/// reached `e + 2`, so three classes (`e`, `e + 1`, `e + 2`) are live at any
/// point in time and bags can be indexed modulo three.
pub const EPOCH_CLASSES: usize = 3;

/// Number of retired objects buffered locally before a thread attempts to
/// advance the global epoch and reclaim old garbage.
pub const COLLECT_THRESHOLD: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn deferred_drop_runs_destructor_eventually() {
        struct Flagged(Arc<AtomicUsize>);
        impl Drop for Flagged {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let collector = Collector::new();
        let handle = collector.register();
        let dropped = Arc::new(AtomicUsize::new(0));
        const N: usize = 1000;
        for _ in 0..N {
            let guard = handle.pin();
            let p = Box::into_raw(Box::new(Flagged(Arc::clone(&dropped))));
            // SAFETY: `p` is uniquely owned; no other thread can access it.
            unsafe { guard.defer_drop(p) };
        }
        drop(handle);
        drop(collector);
        assert_eq!(dropped.load(Ordering::SeqCst), N);
    }
}
