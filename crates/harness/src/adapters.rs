//! Uniform benchmark interface over every implementation under test.
//!
//! The paper compares STM-based, CAS-based and sequential implementations of
//! the same integer-set abstraction.  [`BenchSet`] is the minimal trait the
//! workload driver needs; adapters wrap each concrete implementation.

use std::sync::{Arc, Mutex};

use lockfree::{ConcurrentIntSet, SequentialIntSet};
use spectm::Stm;
use spectm_ds::{ApiMode, StmHashTable, StmSkipList};

/// A concurrent integer set as seen by the workload driver.
///
/// `ThreadCtx` carries whatever per-thread state the implementation needs
/// (an STM thread handle, an epoch handle, or nothing); it is created on the
/// worker thread itself.
pub trait BenchSet: Send + Sync + 'static {
    /// Per-worker-thread context.
    type ThreadCtx;

    /// Creates the calling thread's context.
    fn thread_ctx(&self) -> Self::ThreadCtx;
    /// Inserts `key`, returning `true` if it was not present.
    fn insert(&self, key: u64, ctx: &mut Self::ThreadCtx) -> bool;
    /// Removes `key`, returning `true` if it was present.
    fn remove(&self, key: u64, ctx: &mut Self::ThreadCtx) -> bool;
    /// Returns whether `key` is present.
    fn contains(&self, key: u64, ctx: &mut Self::ThreadCtx) -> bool;
    /// Whether the implementation is safe to drive from multiple threads.
    fn supports_concurrency(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// STM hash table / skip list
// ---------------------------------------------------------------------------

/// [`BenchSet`] adapter for [`StmHashTable`].
pub struct StmHashBench<S: Stm + Clone> {
    stm: S,
    table: StmHashTable<S>,
}

impl<S: Stm + Clone> StmHashBench<S> {
    /// Builds a table with `buckets` chains over `stm`, driven in `mode`.
    pub fn new(stm: S, buckets: usize, mode: ApiMode) -> Self {
        let table = StmHashTable::new(&stm, buckets, mode);
        Self { stm, table }
    }
}

impl<S: Stm + Clone> BenchSet for StmHashBench<S> {
    type ThreadCtx = S::Thread;

    fn thread_ctx(&self) -> Self::ThreadCtx {
        self.stm.register()
    }

    fn insert(&self, key: u64, ctx: &mut Self::ThreadCtx) -> bool {
        self.table.insert(key, ctx)
    }

    fn remove(&self, key: u64, ctx: &mut Self::ThreadCtx) -> bool {
        self.table.remove(key, ctx)
    }

    fn contains(&self, key: u64, ctx: &mut Self::ThreadCtx) -> bool {
        self.table.contains(key, ctx)
    }
}

/// [`BenchSet`] adapter for [`StmSkipList`].
pub struct StmSkipBench<S: Stm + Clone> {
    stm: S,
    list: StmSkipList<S>,
}

impl<S: Stm + Clone> StmSkipBench<S> {
    /// Builds a skip list over `stm`, driven in `mode`.
    pub fn new(stm: S, mode: ApiMode) -> Self {
        let list = StmSkipList::new(&stm, mode);
        Self { stm, list }
    }
}

impl<S: Stm + Clone> BenchSet for StmSkipBench<S> {
    type ThreadCtx = S::Thread;

    fn thread_ctx(&self) -> Self::ThreadCtx {
        self.stm.register()
    }

    fn insert(&self, key: u64, ctx: &mut Self::ThreadCtx) -> bool {
        self.list.insert(key, ctx)
    }

    fn remove(&self, key: u64, ctx: &mut Self::ThreadCtx) -> bool {
        self.list.remove(key, ctx)
    }

    fn contains(&self, key: u64, ctx: &mut Self::ThreadCtx) -> bool {
        self.list.contains(key, ctx)
    }
}

// ---------------------------------------------------------------------------
// Lock-free baselines
// ---------------------------------------------------------------------------

/// [`BenchSet`] adapter for the lock-free structures.
pub struct LockFreeBench<T: ConcurrentIntSet> {
    inner: Arc<T>,
}

impl<T: ConcurrentIntSet> LockFreeBench<T> {
    /// Wraps a lock-free integer set.
    pub fn new(inner: T) -> Self {
        Self {
            inner: Arc::new(inner),
        }
    }
}

impl<T: ConcurrentIntSet + 'static> BenchSet for LockFreeBench<T> {
    type ThreadCtx = txepoch::LocalHandle;

    fn thread_ctx(&self) -> Self::ThreadCtx {
        self.inner.collector().register()
    }

    fn insert(&self, key: u64, ctx: &mut Self::ThreadCtx) -> bool {
        self.inner.insert(key, ctx)
    }

    fn remove(&self, key: u64, ctx: &mut Self::ThreadCtx) -> bool {
        self.inner.remove(key, ctx)
    }

    fn contains(&self, key: u64, ctx: &mut Self::ThreadCtx) -> bool {
        self.inner.contains(key, ctx)
    }
}

// ---------------------------------------------------------------------------
// Sequential baseline
// ---------------------------------------------------------------------------

/// [`BenchSet`] adapter for the single-threaded baselines.
///
/// The sequential structures have no concurrency control whatsoever, so
/// exclusivity is structural: [`BenchSet::thread_ctx`] checks the set itself
/// out into the context ([`SeqCtx`]), operations run on `&mut` through that
/// context with no lock, and dropping the context checks the set back in.
/// A second context while one is live panics, and the driver refuses
/// multi-threaded runs up front ([`BenchSet::supports_concurrency`] returns
/// `false`).
pub struct SeqBench<T: SequentialIntSet + Send> {
    home: Arc<Mutex<Option<T>>>,
}

/// The one live context of a [`SeqBench`]: owns the set until dropped.
pub struct SeqCtx<T> {
    set: Option<T>,
    home: Arc<Mutex<Option<T>>>,
}

impl<T> SeqCtx<T> {
    #[inline]
    fn set(&mut self) -> &mut T {
        self.set.as_mut().expect("the set is held until drop")
    }
}

impl<T> Drop for SeqCtx<T> {
    fn drop(&mut self) {
        // A poisoned slot means another thread already panicked; the set is
        // dropped with this context instead of being checked back in.
        if let Ok(mut home) = self.home.lock() {
            *home = self.set.take();
        }
    }
}

impl<T: SequentialIntSet + Send> SeqBench<T> {
    /// Wraps a sequential integer set.
    pub fn new(inner: T) -> Self {
        Self {
            home: Arc::new(Mutex::new(Some(inner))),
        }
    }
}

impl<T: SequentialIntSet + Send + 'static> BenchSet for SeqBench<T> {
    type ThreadCtx = SeqCtx<T>;

    /// # Panics
    ///
    /// Panics if another context of this set is still live.
    fn thread_ctx(&self) -> Self::ThreadCtx {
        // The guard is released before the check so a refused second context
        // does not poison the slot for the first one's drop.
        let set = self.home.lock().expect("no panic holds the slot").take();
        SeqCtx {
            set: Some(set.expect(
                "sequential baseline cannot run with more than one thread \
                 (its set is already checked out)",
            )),
            home: Arc::clone(&self.home),
        }
    }

    fn insert(&self, key: u64, ctx: &mut Self::ThreadCtx) -> bool {
        ctx.set().insert(key)
    }

    fn remove(&self, key: u64, ctx: &mut Self::ThreadCtx) -> bool {
        ctx.set().remove(key)
    }

    fn contains(&self, key: u64, ctx: &mut Self::ThreadCtx) -> bool {
        ctx.set().contains(key)
    }

    fn supports_concurrency(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockfree::{LockFreeHashTable, SeqHashTable};
    use spectm::variants::ValShort;

    #[test]
    fn adapters_expose_identical_semantics() {
        let stm_set = StmHashBench::new(ValShort::new(), 64, ApiMode::Short);
        let lf_set = LockFreeBench::new(LockFreeHashTable::new(64, txepoch::Collector::new()));
        let seq_set = SeqBench::new(SeqHashTable::new(64));

        let mut a = stm_set.thread_ctx();
        let mut b = lf_set.thread_ctx();
        let mut c = seq_set.thread_ctx();
        for k in [1u64, 5, 9, 5, 1] {
            let ra = stm_set.insert(k, &mut a);
            let rb = lf_set.insert(k, &mut b);
            let rc = seq_set.insert(k, &mut c);
            assert_eq!(ra, rb);
            assert_eq!(rb, rc);
        }
        for k in 0..12u64 {
            assert_eq!(stm_set.contains(k, &mut a), lf_set.contains(k, &mut b));
            assert_eq!(lf_set.contains(k, &mut b), seq_set.contains(k, &mut c));
        }
        assert!(stm_set.supports_concurrency());
        assert!(!seq_set.supports_concurrency());
    }

    #[test]
    #[should_panic(expected = "sequential baseline cannot run with more than one thread")]
    fn a_second_sequential_context_panics_while_one_is_live() {
        let set = SeqBench::new(SeqHashTable::new(8));
        let _live = set.thread_ctx();
        let _second = set.thread_ctx();
    }

    #[test]
    fn sequential_set_returns_home_between_contexts() {
        let set = SeqBench::new(SeqHashTable::new(8));
        crate::intset::prefill(&set, 16);
        // Prefill's context is gone; the worker's sees what it inserted.
        let mut ctx = set.thread_ctx();
        assert!(set.contains(0, &mut ctx) && set.contains(14, &mut ctx));
        assert!(!set.contains(1, &mut ctx));
    }
}
