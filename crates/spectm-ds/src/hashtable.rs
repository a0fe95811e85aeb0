//! STM-based integer-set hash table (the paper's microbenchmark set:
//! Figures 1, 7, 9 and 10).
//!
//! The table is a fixed array of bucket heads, each the start of a sorted
//! singly-linked chain of nodes.  Chain links are transactional cells holding
//! node addresses; bit 1 of a link is the logical-deletion mark (bit 0 is
//! left clear for the value-based layout's lock bit).  A removal unlinks a
//! node and marks its forward pointer in one atomic step.
//!
//! Every operation finds its place with the one private `search` (the link
//! before the key and the node it points at); the [`ApiMode`] selects the
//! cell reader `search` is handed and the step that changes the chain
//! afterwards:
//!
//! * **Short** — the walk uses single-location reads, an insert publishes
//!   its node with a single-location CAS and a removal is a two-location
//!   short read-write transaction that unlinks the node and marks its
//!   forward pointer (the SpecTM usage);
//! * **Full** — each operation is one traditional transaction that walks
//!   the chain with `tx.read` and updates it (the BaseTM usage);
//! * **Fine** — Short's steps, each an ordinary transaction: every link the
//!   walk reads is a one-read transaction, and an insert or removal is one
//!   small transaction that re-checks the walk's window (the
//!   `orec-full-g (fine)` line of Figure 6(a)).
//!
//! Removed nodes are retired through the STM's epoch collector, so readers
//! that raced past the unlink can still dereference them safely.

use std::convert::Infallible;

use spectm::{is_marked, mark, unmark, FullTx, Stm, StmThread, TxResult, Word};

use crate::{ApiMode, Removal};

/// A chain node.  The key is immutable after publication; only the `next`
/// link is accessed transactionally.
struct Node<S: Stm> {
    key: u64,
    next: S::Cell,
}

/// Where a search stopped.  The reference is good for as long as the epoch
/// pin (or transaction attempt) the search ran under.
struct Window<'a, S: Stm> {
    /// The last link before the key: the bucket head or the `next` link of
    /// the last node whose key is below it.
    prev: &'a S::Cell,
    /// What `prev` pointed at (unmarked): the first node whose key is not
    /// below the search key, or `0` at the end of the chain.
    curr: Word,
}

/// Holder of a node that is allocated but not (yet) published.  An insert
/// may search and try to link several times; the slot keeps its node across
/// the attempts, so each insert allocates at most once, and dropping the
/// slot frees a node no attempt published.
struct NodeSlot<S: Stm> {
    ptr: *mut Node<S>,
}

impl<S: Stm> NodeSlot<S> {
    fn new() -> Self {
        Self {
            ptr: std::ptr::null_mut(),
        }
    }

    /// The slot's node for `key`, pointed at `next`, as the word that
    /// publishes it; allocated on first use.
    fn node(&mut self, stm: &S, key: u64, next: Word) -> Word {
        if self.ptr.is_null() {
            self.ptr = Box::into_raw(Box::new(Node {
                key,
                next: stm.new_cell(next),
            }));
        } else {
            // SAFETY: a non-null slot pointer is a node this slot allocated
            // and nobody has published, so it is live and private to this
            // thread; a direct store is enough before publication.
            S::poke(unsafe { &(*self.ptr).next }, next);
        }
        self.ptr as Word
    }

    /// Declares the node published: the step that linked it committed, so
    /// the table owns it now.
    fn publish(&mut self) {
        self.ptr = std::ptr::null_mut();
    }
}

impl<S: Stm> Drop for NodeSlot<S> {
    fn drop(&mut self) {
        if !self.ptr.is_null() {
            // SAFETY: a non-null pointer at drop time was never published;
            // it came from `Box::into_raw` above.
            drop(unsafe { Box::from_raw(self.ptr) });
        }
    }
}

/// An STM-based hash table storing a set of `u64` keys.
///
/// # Examples
///
/// ```
/// use spectm::{Stm, variants::ValShort};
/// use spectm_ds::{ApiMode, StmHashTable};
///
/// let stm = ValShort::new();
/// let table = StmHashTable::new(&stm, 64, ApiMode::Short);
/// let mut thread = stm.register();
/// assert!(table.insert(17, &mut thread));
/// assert!(table.contains(17, &mut thread));
/// assert!(table.remove(17, &mut thread));
/// assert!(!table.contains(17, &mut thread));
/// ```
pub struct StmHashTable<S: Stm> {
    stm: S,
    buckets: Vec<S::Cell>,
    mask: u64,
    mode: ApiMode,
}

// SAFETY: the raw node pointers stored inside cells are managed with the same
// discipline as the lock-free baselines: published by CAS/commit, retired via
// epochs after being unlinked, and only dereferenced under an epoch pin.
unsafe impl<S: Stm> Send for StmHashTable<S> {}
// SAFETY: as above.
unsafe impl<S: Stm> Sync for StmHashTable<S> {}

#[inline]
fn hash_key(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17
}

impl<S: Stm> StmHashTable<S> {
    /// Creates a table with `buckets` chains (rounded up to a power of two),
    /// driven through the given [`ApiMode`].
    pub fn new(stm: &S, buckets: usize, mode: ApiMode) -> Self
    where
        S: Clone,
    {
        let len = buckets.next_power_of_two().max(1);
        Self {
            stm: stm.clone(),
            buckets: (0..len).map(|_| stm.new_cell(0)).collect(),
            mask: len as u64 - 1,
            mode,
        }
    }

    /// The API mode this instance drives.
    pub fn mode(&self) -> ApiMode {
        self.mode
    }

    /// Number of bucket chains.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    #[inline]
    fn bucket(&self, key: u64) -> &S::Cell {
        &self.buckets[(hash_key(key) & self.mask) as usize]
    }

    /// Inserts `key`; returns `false` if it was already present.
    pub fn insert(&self, key: u64, thread: &mut S::Thread) -> bool {
        let mut slot = NodeSlot::new();
        let inserted = match self.mode {
            ApiMode::Full => thread
                .atomic(|tx| {
                    let w = self.search(key, |cell| tx.read(cell))?;
                    if let Some(node) = Self::found(&w, key) {
                        // Deleted but not yet unlinked: wait for the remover.
                        return match is_marked(tx.read(&node.next)?) {
                            false => Ok(false),
                            true => tx.restart(),
                        };
                    }
                    Self::link_in(&w, true, slot.node(&self.stm, key, w.curr), tx)
                })
                .expect("insert transactions are never cancelled"),
            // Every `None` is "search again", after contention management.
            ApiMode::Short | ApiMode::Fine => thread.retry(|thread| {
                let _pin = thread.epoch().pin();
                let w = self.walk(key, thread);
                if let Some(node) = Self::found(&w, key) {
                    // Deleted but still linked: wait for the remover.
                    return (!is_marked(self.read_link(&node.next, thread))).then_some(false);
                }
                let new = slot.node(&self.stm, key, w.curr);
                let linked = match self.mode {
                    // The paper's AddLevelOne: one single-location CAS.
                    ApiMode::Short => thread.single_cas(w.prev, w.curr, new) == w.curr,
                    _ => thread
                        .atomic(|tx| Self::link_in(&w, false, new, tx))
                        .expect("link transactions are never cancelled"),
                };
                linked.then_some(true)
            }),
        };
        if inserted {
            slot.publish();
        }
        inserted
    }

    /// Removes `key`; returns `false` if it was not present.
    pub fn remove(&self, key: u64, thread: &mut S::Thread) -> bool {
        match self.mode {
            ApiMode::Full => {
                let unlinked = thread
                    .atomic(|tx| {
                        let w = self.search(key, |cell| tx.read(cell))?;
                        let Some(node) = Self::found(&w, key) else {
                            return Ok(None);
                        };
                        match Self::unlink_in(&w, true, node, tx)? {
                            Removal::Removed => Ok(Some(w.curr)),
                            Removal::AlreadyGone => Ok(None),
                            Removal::Retry => tx.restart(),
                        }
                    })
                    .expect("remove transactions are never cancelled");
                unlinked.map(|node| Self::retire(node, thread)).is_some()
            }
            ApiMode::Short | ApiMode::Fine => thread.retry(|thread| {
                let _pin = thread.epoch().pin();
                let w = self.walk(key, thread);
                let Some(node) = Self::found(&w, key) else {
                    return Some(false);
                };
                let outcome = match self.mode {
                    ApiMode::Short => Self::unlink_short(&w, node, thread),
                    _ => thread
                        .atomic(|tx| Self::unlink_in(&w, false, node, tx))
                        .expect("unlink transactions are never cancelled"),
                };
                match outcome {
                    Removal::Removed => {
                        Self::retire(w.curr, thread);
                        Some(true)
                    }
                    Removal::AlreadyGone => Some(false),
                    Removal::Retry => None,
                }
            }),
        }
    }

    /// Returns whether `key` is present.
    pub fn contains(&self, key: u64, thread: &mut S::Thread) -> bool {
        match self.mode {
            ApiMode::Full => thread
                .atomic(|tx| {
                    let w = self.search(key, |cell| tx.read(cell))?;
                    match Self::found(&w, key) {
                        Some(node) => Ok(!is_marked(tx.read(&node.next)?)),
                        None => Ok(false),
                    }
                })
                .expect("contains transactions are never cancelled"),
            ApiMode::Short | ApiMode::Fine => {
                let _pin = thread.epoch().pin();
                let w = self.walk(key, thread);
                Self::found(&w, key)
                    .is_some_and(|node| !is_marked(self.read_link(&node.next, thread)))
            }
        }
    }

    /// Collects every key currently present (non-transactional; only
    /// meaningful when no concurrent operations run).
    pub fn quiescent_snapshot(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for head in &self.buckets {
            let mut curr = S::peek(head);
            while let Some(node) = Self::node_at(curr) {
                let next = S::peek(&node.next);
                if !is_marked(next) {
                    out.push(node.key);
                }
                curr = next;
            }
        }
        out.sort_unstable();
        out
    }

    // ------------------------------------------------------------------
    // The search (every mode) and the walk-based readers (Short / Fine)
    // ------------------------------------------------------------------

    /// The node a chain word points at, `None` at the end of the chain: the
    /// one dereference of a chain word.  The word must have been read from
    /// a link reachable under an epoch pin (a transaction attempt holds
    /// one) that the caller holds for as long as it uses the reference, or
    /// while no operation runs concurrently.
    #[inline]
    fn node_at<'a>(word: Word) -> Option<&'a Node<S>> {
        // SAFETY: per the contract above, a non-null word is a published
        // node, and a node is freed only after every thread that was pinned
        // when it was unlinked has unpinned.
        unsafe { (unmark(word) as *const Node<S>).as_ref() }
    }

    /// The one chain search: walks `key`'s bucket through `read` past every
    /// node whose key is below `key`.  It passes through logically deleted
    /// nodes, whose forward pointers still lead onward.  The caller must
    /// hold an epoch pin (a transaction attempt holds one) for as long as it
    /// uses the window.
    #[inline]
    fn search<'a, E>(
        &'a self,
        key: u64,
        mut read: impl FnMut(&'a S::Cell) -> Result<Word, E>,
    ) -> Result<Window<'a, S>, E> {
        let mut prev = self.bucket(key);
        let mut curr = unmark(read(prev)?);
        while let Some(node) = Self::node_at(curr) {
            if node.key >= key {
                break;
            }
            prev = &node.next;
            curr = unmark(read(prev)?);
        }
        Ok(Window { prev, curr })
    }

    /// The node the search stopped at, if it holds `key`: linked when the
    /// search passed, though perhaps already marked.
    fn found<'a>(w: &Window<'a, S>, key: u64) -> Option<&'a Node<S>> {
        Self::node_at(w.curr).filter(|node| node.key == key)
    }

    /// A one-read ordinary transaction: Fine mode's link read.
    fn read_one(cell: &S::Cell, thread: &mut S::Thread) -> Word {
        thread
            .atomic(|tx| tx.read(cell))
            .expect("one-read transactions are never cancelled")
    }

    /// Reads one link: a single-location read (Short) or a one-read
    /// ordinary transaction (Fine).
    #[inline]
    fn read_link(&self, cell: &S::Cell, thread: &mut S::Thread) -> Word {
        match self.mode {
            ApiMode::Fine => Self::read_one(cell, thread),
            _ => thread.single_read(cell),
        }
    }

    /// The walk-based modes' search, every link its own
    /// [`StmHashTable::read_link`].  The mode is matched once per walk, not
    /// once per link.  The caller must hold an epoch pin.
    #[inline]
    fn walk<'a>(&'a self, key: u64, thread: &mut S::Thread) -> Window<'a, S> {
        let Ok(w) = match self.mode {
            ApiMode::Fine => self.search(key, |cell| {
                Ok::<_, Infallible>(Self::read_one(cell, thread))
            }),
            _ => self.search(key, |cell| Ok::<_, Infallible>(thread.single_read(cell))),
        };
        w
    }

    // ------------------------------------------------------------------
    // Link, unlink and retire
    // ------------------------------------------------------------------

    /// Links the node `new`, already pointing at `w.curr`, after `w.prev`.
    /// A window from before `tx` (not `same_tx`) is re-read first: `false`,
    /// having written nothing, if it no longer holds.  A window `tx`'s own
    /// search produced is in its read set already.
    fn link_in(
        w: &Window<'_, S>,
        same_tx: bool,
        new: Word,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<bool> {
        if !same_tx && tx.read(w.prev)? != w.curr {
            return Ok(false);
        }
        tx.write(w.prev, new)?;
        Ok(true)
    }

    /// Unlinks `node`, the node the window stopped at, and marks its forward
    /// pointer.  The window is re-read as in [`StmHashTable::link_in`]; only
    /// [`Removal::Removed`] has written anything.
    fn unlink_in(
        w: &Window<'_, S>,
        same_tx: bool,
        node: &Node<S>,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Removal> {
        if !same_tx && tx.read(w.prev)? != w.curr {
            return Ok(Removal::Retry);
        }
        let next = tx.read(&node.next)?;
        if is_marked(next) {
            return Ok(Removal::AlreadyGone);
        }
        tx.write(w.prev, unmark(next))?;
        tx.write(&node.next, mark(next))?;
        Ok(Removal::Removed)
    }

    /// Short mode's unlink: one two-location short read-write transaction
    /// that points `w.prev` past `node` and marks `node`'s forward pointer.
    fn unlink_short(w: &Window<'_, S>, node: &Node<S>, thread: &mut S::Thread) -> Removal {
        let prev = thread.rw_read(0, w.prev);
        if !thread.rw_is_valid(1) {
            return Removal::Retry;
        }
        if prev != w.curr {
            thread.rw_abort(1);
            return Removal::Retry;
        }
        let next = thread.rw_read(1, &node.next);
        if !thread.rw_is_valid(2) {
            return Removal::Retry;
        }
        if is_marked(next) {
            thread.rw_abort(2);
            return Removal::AlreadyGone;
        }
        if thread.rw_commit(2, &[unmark(next), mark(next)]) {
            Removal::Removed
        } else {
            Removal::Retry
        }
    }

    /// Hands a node whose unlink committed to the epoch collector: the one
    /// retirement.
    fn retire(node: Word, thread: &mut S::Thread) {
        let pin = thread.epoch().pin();
        // SAFETY: the committed step unlinked and marked the node, so new
        // searches cannot reach it and pinned readers are protected by the
        // epoch; it came from `Box::into_raw` in a `NodeSlot`.
        unsafe { pin.defer_drop(unmark(node) as *mut Node<S>) };
    }
}

impl<S: Stm> Drop for StmHashTable<S> {
    fn drop(&mut self) {
        // Exclusive access: free every remaining node directly.
        for head in &self.buckets {
            let mut curr = S::peek(head);
            while unmark(curr) != 0 {
                // SAFETY: nodes were allocated with `Box::into_raw`; during
                // drop nothing else references them.
                let node = unsafe { Box::from_raw(unmark(curr) as *mut Node<S>) };
                curr = S::peek(&node.next);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectm::variants::{OrecFullG, OrecStm, TvarShortG, ValShort};
    use spectm::{Config, StatsSnapshot};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    fn oracle_test<S: Stm + Clone>(stm: S, mode: ApiMode) {
        let table = StmHashTable::new(&stm, 32, mode);
        let mut t = stm.register();
        let mut oracle = BTreeSet::new();
        let mut rng = xorshift(88172645463325252);
        for _ in 0..2_000 {
            let k = rng() % 200;
            match rng() % 3 {
                0 => assert_eq!(table.insert(k, &mut t), oracle.insert(k)),
                1 => assert_eq!(table.remove(k, &mut t), oracle.remove(&k)),
                _ => assert_eq!(table.contains(k, &mut t), oracle.contains(&k)),
            }
        }
        assert_eq!(
            table.quiescent_snapshot(),
            oracle.into_iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn oracle_all_modes_and_layouts() {
        oracle_test(OrecFullG::new(), ApiMode::Full);
        oracle_test(OrecStm::with_config(Config::local()), ApiMode::Full);
        oracle_test(TvarShortG::new(), ApiMode::Short);
        oracle_test(TvarShortG::new(), ApiMode::Fine);
        oracle_test(ValShort::new(), ApiMode::Short);
        oracle_test(ValShort::new(), ApiMode::Full);
    }

    /// Every STM call one thread makes over a seeded script: 3 000 inserts,
    /// removes and lookups of 200 keys in 16 buckets, each checked against
    /// a set.
    fn chain_calls<S: Stm + Clone>(stm: S, mode: ApiMode) -> StatsSnapshot {
        let table = StmHashTable::new(&stm, 16, mode);
        let mut t = stm.register();
        let mut oracle = BTreeSet::new();
        let mut rng = xorshift(88172645463325252);
        for _ in 0..3_000 {
            let k = rng() % 200;
            match rng() % 3 {
                0 => assert_eq!(table.insert(k, &mut t), oracle.insert(k)),
                1 => assert_eq!(table.remove(k, &mut t), oracle.remove(&k)),
                _ => assert_eq!(table.contains(k, &mut t), oracle.contains(&k)),
            }
        }
        t.stats()
    }

    /// Fine mode runs every step as an ordinary transaction, lookups
    /// included: it makes no single-location call at all.
    #[test]
    fn fine_mode_makes_no_single_location_calls() {
        assert_eq!(chain_calls(OrecFullG::new(), ApiMode::Fine).singles, 0);
        assert_eq!(chain_calls(TvarShortG::new(), ApiMode::Fine).singles, 0);
    }

    /// One search under every operation must make exactly the STM calls the
    /// per-mode walks it replaced made: equal totals, not merely no more.
    /// The Short and Full rows were recorded on those walks; the Fine row
    /// differs from theirs only in that the lookups' 3 822 single-location
    /// reads became one-read transactions (EXPERIMENTS.md "One search per
    /// hash-table operation").  Exact on any machine: one thread runs a
    /// fixed script.
    #[test]
    fn chain_operations_make_the_recorded_stm_calls() {
        let short = StatsSnapshot {
            short_rw_starts: 476,
            short_rw_commits: 476,
            singles: 12_505,
            ..StatsSnapshot::default()
        };
        let full = StatsSnapshot {
            full_starts: 3_000,
            full_commits: 3_000,
            full_reads: 12_400,
            full_writes: 1_533,
            ..StatsSnapshot::default()
        };
        let fine = StatsSnapshot {
            full_starts: 12_981,
            full_commits: 12_981,
            full_reads: 13_457,
            full_writes: 1_533,
            ..StatsSnapshot::default()
        };
        assert_eq!(chain_calls(ValShort::new(), ApiMode::Short), short);
        assert_eq!(chain_calls(TvarShortG::new(), ApiMode::Short), short);
        assert_eq!(chain_calls(OrecFullG::new(), ApiMode::Full), full);
        assert_eq!(chain_calls(ValShort::new(), ApiMode::Full), full);
        assert_eq!(chain_calls(OrecFullG::new(), ApiMode::Fine), fine);
    }

    fn concurrent_disjoint<S: Stm + Clone>(stm: S, mode: ApiMode) {
        let stm = Arc::new(stm);
        let table = Arc::new(StmHashTable::new(&*stm, 256, mode));
        const THREADS: u64 = 4;
        const RANGE: u64 = 300;
        let mut joins = Vec::new();
        for tid in 0..THREADS {
            let stm = Arc::clone(&stm);
            let table = Arc::clone(&table);
            joins.push(std::thread::spawn(move || {
                let mut t = stm.register();
                let base = tid * RANGE;
                for k in 0..RANGE {
                    assert!(table.insert(base + k, &mut t));
                }
                for k in (0..RANGE).step_by(2) {
                    assert!(table.remove(base + k, &mut t));
                }
                for k in 0..RANGE {
                    assert_eq!(table.contains(base + k, &mut t), k % 2 == 1);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(
            table.quiescent_snapshot().len(),
            (THREADS * RANGE / 2) as usize
        );
    }

    #[test]
    fn concurrent_disjoint_ranges_short_val() {
        concurrent_disjoint(ValShort::new(), ApiMode::Short);
    }

    #[test]
    fn concurrent_disjoint_ranges_short_tvar() {
        concurrent_disjoint(TvarShortG::new(), ApiMode::Short);
    }

    #[test]
    fn concurrent_disjoint_ranges_full_orec() {
        concurrent_disjoint(OrecFullG::new(), ApiMode::Full);
    }

    /// `orec-full-g (fine)`.
    #[test]
    fn concurrent_disjoint_ranges_fine_orec() {
        concurrent_disjoint(OrecFullG::new(), ApiMode::Fine);
    }

    fn contended_churn<S: Stm + Clone>(stm: S, mode: ApiMode) {
        use std::sync::atomic::{AtomicI64, Ordering};
        let stm = Arc::new(stm);
        let table = Arc::new(StmHashTable::new(&*stm, 16, mode));
        let balance: Arc<Vec<AtomicI64>> = Arc::new((0..64).map(|_| AtomicI64::new(0)).collect());
        let mut joins = Vec::new();
        for tid in 0..4u64 {
            let stm = Arc::clone(&stm);
            let table = Arc::clone(&table);
            let balance = Arc::clone(&balance);
            joins.push(std::thread::spawn(move || {
                let mut t = stm.register();
                let mut rng = xorshift(tid * 31 + 7);
                for _ in 0..3_000 {
                    let k = rng() % 64;
                    if rng() % 2 == 0 {
                        if table.insert(k, &mut t) {
                            // ORDERING: test oracle counter, read after join.
                            balance[k as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    } else if table.remove(k, &mut t) {
                        // ORDERING: test oracle counter, read after join.
                        balance[k as usize].fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut t = stm.register();
        for k in 0..64u64 {
            // ORDERING: read after all workers joined; join synchronizes.
            let bal = balance[k as usize].load(std::sync::atomic::Ordering::Relaxed);
            assert!(bal == 0 || bal == 1, "key {k} balance {bal}");
            assert_eq!(table.contains(k, &mut t), bal == 1, "key {k}");
        }
    }

    #[test]
    fn contended_churn_val_short() {
        contended_churn(ValShort::new(), ApiMode::Short);
    }

    #[test]
    fn contended_churn_tvar_short() {
        contended_churn(TvarShortG::new(), ApiMode::Short);
    }

    #[test]
    fn contended_churn_orec_full() {
        contended_churn(OrecFullG::new(), ApiMode::Full);
    }

    #[test]
    fn contended_churn_orec_local_full() {
        contended_churn(OrecStm::with_config(Config::local()), ApiMode::Full);
    }

    /// `orec-full-g (fine)`.
    #[test]
    fn contended_churn_orec_fine() {
        contended_churn(OrecFullG::new(), ApiMode::Fine);
    }
}
