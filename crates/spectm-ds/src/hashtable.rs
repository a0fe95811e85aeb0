//! STM-based integer-set hash table.
//!
//! The table is a fixed array of bucket heads, each the start of a sorted
//! singly-linked chain of nodes.  Chain links are transactional cells holding
//! node addresses; bit 1 of a link is the logical-deletion mark (bit 0 is
//! left clear for the value-based layout's lock bit).
//!
//! Operations exist in two shapes, selected by [`ApiMode`]:
//!
//! * **Full** — each lookup/insert/remove is one traditional transaction that
//!   traverses the chain and performs its update (the BaseTM usage).
//! * **Short** — traversal uses single-location transactional reads, inserts
//!   use a single-location CAS, and removals use a two-location short
//!   read-write transaction that simultaneously unlinks the node and marks
//!   its forward pointer (the SpecTM usage).
//!
//! Removed nodes are retired through the STM's epoch collector, so readers
//! that raced past the unlink can still dereference them safely.

use spectm::{is_marked, mark, unmark, Stm, StmThread, Word};

use crate::ApiMode;

/// A chain node.  The key is immutable after publication; only the `next`
/// link is accessed transactionally.
struct Node<S: Stm> {
    key: u64,
    next: S::Cell,
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

    #[inline]
    fn node(ptr: Word) -> *mut Node<S> {
        unmark(ptr) as *mut Node<S>
    }

    fn alloc_node(&self, key: u64, next: Word) -> *mut Node<S> {
        Box::into_raw(Box::new(Node {
            key,
            next: self.stm.new_cell(next),
        }))
    }

    /// Inserts `key`; returns `false` if it was already present.
    pub fn insert(&self, key: u64, thread: &mut S::Thread) -> bool {
        match self.mode {
            ApiMode::Full => self.insert_full(key, thread),
            ApiMode::Short => self.insert_short(key, thread),
            ApiMode::Fine => self.insert_fine(key, thread),
        }
    }

    /// Removes `key`; returns `false` if it was not present.
    pub fn remove(&self, key: u64, thread: &mut S::Thread) -> bool {
        match self.mode {
            ApiMode::Full => self.remove_full(key, thread),
            ApiMode::Short => self.remove_short(key, thread),
            ApiMode::Fine => self.remove_fine(key, thread),
        }
    }

    /// Returns whether `key` is present.
    pub fn contains(&self, key: u64, thread: &mut S::Thread) -> bool {
        match self.mode {
            ApiMode::Full => self.contains_full(key, thread),
            ApiMode::Short | ApiMode::Fine => self.contains_short(key, thread),
        }
    }

    /// Collects every key currently present (non-transactional; only
    /// meaningful when no concurrent operations run).
    pub fn quiescent_snapshot(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for head in &self.buckets {
            let mut curr = S::peek(head);
            while unmark(curr) != 0 {
                // SAFETY: quiescence is required by the contract; nodes cannot
                // be retired concurrently.
                let node = unsafe { &*Self::node(curr) };
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
    // Short-transaction implementation
    // ------------------------------------------------------------------

    /// Walks the chain with single-location reads, returning the cell holding
    /// the link to the first node with `node.key >= key` plus that node's
    /// address (unmarked) as read from the link.
    ///
    /// The caller must hold an epoch pin.
    fn search_short<'a>(&'a self, key: u64, thread: &mut S::Thread) -> (&'a S::Cell, Word) {
        let mut prev: &S::Cell = self.bucket(key);
        let mut curr = unmark(thread.single_read(prev));
        loop {
            if curr == 0 {
                return (prev, 0);
            }
            // SAFETY: `curr` was read from a reachable link under the caller's
            // epoch pin; retired nodes cannot be freed while we are pinned.
            let node = unsafe { &*Self::node(curr) };
            if node.key >= key {
                return (prev, curr);
            }
            let next = thread.single_read(&node.next);
            // Traversal passes through logically deleted nodes; their forward
            // pointers still lead onward.
            prev = &node.next;
            curr = unmark(next);
        }
    }

    fn contains_short(&self, key: u64, thread: &mut S::Thread) -> bool {
        let _pin = thread.epoch().pin();
        let (_prev, curr) = self.search_short(key, thread);
        if curr == 0 {
            return false;
        }
        // SAFETY: protected by the epoch pin above.
        let node = unsafe { &*Self::node(curr) };
        node.key == key && !is_marked(thread.single_read(&node.next))
    }

    fn insert_short(&self, key: u64, thread: &mut S::Thread) -> bool {
        let mut new_node: *mut Node<S> = std::ptr::null_mut();
        // Every `None` is "search again", after contention management
        // (randomized linear backoff, as for full transactions).
        let inserted = thread.retry(|thread| {
            let _pin = thread.epoch().pin();
            let (prev, curr) = self.search_short(key, thread);
            if curr != 0 {
                // SAFETY: protected by the epoch pin.
                let node = unsafe { &*Self::node(curr) };
                if node.key == key {
                    // A logically deleted duplicate is still linked; retry
                    // until its remover unlinks it.
                    return (!is_marked(thread.single_read(&node.next))).then_some(false);
                }
            }
            if new_node.is_null() {
                new_node = self.alloc_node(key, curr);
            } else {
                // SAFETY: still private to this thread.
                let node = unsafe { &*new_node };
                S::poke(&node.next, curr);
            }
            // Publish with a single-location CAS (the paper's AddLevelOne
            // pattern).
            (thread.single_cas(prev, curr, new_node as Word) == curr).then_some(true)
        });
        if !inserted && !new_node.is_null() {
            // SAFETY: never published.
            drop(unsafe { Box::from_raw(new_node) });
        }
        inserted
    }

    fn remove_short(&self, key: u64, thread: &mut S::Thread) -> bool {
        thread.retry(|thread| {
            let pin = thread.epoch().pin();
            let (prev, curr) = self.search_short(key, thread);
            if curr == 0 {
                return Some(false);
            }
            // SAFETY: protected by the epoch pin.
            let node = unsafe { &*Self::node(curr) };
            if node.key != key {
                return Some(false);
            }
            // A two-location short transaction: atomically unlink the node
            // from its predecessor and mark its forward pointer.
            let prev_val = thread.rw_read(0, prev);
            if !thread.rw_is_valid(1) {
                return None;
            }
            if prev_val != curr {
                thread.rw_abort(1);
                return None;
            }
            let next_val = thread.rw_read(1, &node.next);
            if !thread.rw_is_valid(2) {
                return None;
            }
            if is_marked(next_val) {
                // Already logically deleted by someone else.
                thread.rw_abort(2);
                return Some(false);
            }
            if !thread.rw_commit(2, &[unmark(next_val), mark(next_val)]) {
                return None;
            }
            // SAFETY: the node is now unlinked and marked; new traversals
            // cannot reach it, and pinned readers are protected.
            unsafe { pin.defer_drop(Self::node(curr)) };
            Some(true)
        })
    }

    // ------------------------------------------------------------------
    // Traditional-transaction implementation
    // ------------------------------------------------------------------

    fn contains_full(&self, key: u64, thread: &mut S::Thread) -> bool {
        thread
            .atomic(|tx| {
                let mut curr = unmark(tx.read(self.bucket(key))?);
                loop {
                    if curr == 0 {
                        return Ok(false);
                    }
                    // SAFETY: the transaction holds an epoch pin for the whole
                    // attempt; opacity guarantees `curr` was reachable.
                    let node = unsafe { &*Self::node(curr) };
                    if node.key == key {
                        return Ok(!is_marked(tx.read(&node.next)?));
                    }
                    if node.key > key {
                        return Ok(false);
                    }
                    curr = unmark(tx.read(&node.next)?);
                }
            })
            .expect("contains_full is never cancelled")
    }

    fn insert_full(&self, key: u64, thread: &mut S::Thread) -> bool {
        let mut new_node: *mut Node<S> = std::ptr::null_mut();
        let inserted = thread
            .atomic(|tx| {
                let mut prev_cell: &S::Cell = self.bucket(key);
                let mut curr = unmark(tx.read(prev_cell)?);
                loop {
                    if curr != 0 {
                        // SAFETY: see `contains_full`.
                        let node = unsafe { &*Self::node(curr) };
                        if node.key == key {
                            return Ok(if is_marked(tx.read(&node.next)?) {
                                // Deleted but not yet unlinked: restart.
                                return tx.restart();
                            } else {
                                false
                            });
                        }
                        if node.key < key {
                            prev_cell = &node.next;
                            curr = unmark(tx.read(prev_cell)?);
                            continue;
                        }
                    }
                    // Allocate lazily, once, and reuse across retries.
                    if new_node.is_null() {
                        new_node = self.alloc_node(key, curr);
                    }
                    // SAFETY: still private until the commit publishes it.
                    let node = unsafe { &*new_node };
                    // The node is unpublished, so a direct store is enough;
                    // the transactional write below publishes it atomically.
                    S::poke(&node.next, curr);
                    tx.write(prev_cell, new_node as Word)?;
                    return Ok(true);
                }
            })
            .expect("insert_full is never cancelled");
        if !inserted && !new_node.is_null() {
            // SAFETY: never published (the committed outcome was `false`).
            drop(unsafe { Box::from_raw(new_node) });
        }
        inserted
    }

    fn remove_full(&self, key: u64, thread: &mut S::Thread) -> bool {
        let mut unlinked: *mut Node<S> = std::ptr::null_mut();
        let removed = thread
            .atomic(|tx| {
                unlinked = std::ptr::null_mut();
                let mut prev_cell: &S::Cell = self.bucket(key);
                let mut curr = unmark(tx.read(prev_cell)?);
                loop {
                    if curr == 0 {
                        return Ok(false);
                    }
                    // SAFETY: see `contains_full`.
                    let node = unsafe { &*Self::node(curr) };
                    if node.key > key {
                        return Ok(false);
                    }
                    if node.key == key {
                        let next = tx.read(&node.next)?;
                        if is_marked(next) {
                            return Ok(false);
                        }
                        tx.write(prev_cell, unmark(next))?;
                        tx.write(&node.next, mark(next))?;
                        unlinked = Self::node(curr);
                        return Ok(true);
                    }
                    prev_cell = &node.next;
                    curr = unmark(tx.read(prev_cell)?);
                }
            })
            .expect("remove_full is never cancelled");
        if removed && !unlinked.is_null() {
            let pin = thread.epoch().pin();
            // SAFETY: the committed transaction unlinked and marked the node;
            // it is unreachable for new transactions.
            unsafe { pin.defer_drop(unlinked) };
        }
        removed
    }

    // ------------------------------------------------------------------
    // Fine-grained traditional transactions (the `full (fine)` ablation)
    // ------------------------------------------------------------------

    fn read_one_fine(&self, cell: &S::Cell, thread: &mut S::Thread) -> Word {
        thread
            .atomic(|tx| tx.read(cell))
            .expect("read_one_fine is never cancelled")
    }

    fn insert_fine(&self, key: u64, thread: &mut S::Thread) -> bool {
        let mut new_node: *mut Node<S> = std::ptr::null_mut();
        loop {
            let pin = thread.epoch().pin();
            let (prev, curr) = self.search_fine(key, thread);
            if curr != 0 {
                // SAFETY: protected by the epoch pin.
                let node = unsafe { &*Self::node(curr) };
                if node.key == key {
                    if is_marked(self.read_one_fine(&node.next, thread)) {
                        drop(pin);
                        continue;
                    }
                    if !new_node.is_null() {
                        // SAFETY: never published.
                        drop(unsafe { Box::from_raw(new_node) });
                    }
                    return false;
                }
            }
            if new_node.is_null() {
                new_node = self.alloc_node(key, curr);
            }
            // SAFETY: still private to this thread.
            let node = unsafe { &*new_node };
            let published = thread
                .atomic(|tx| {
                    if tx.read(prev)? != curr {
                        return Ok(false);
                    }
                    S::poke(&node.next, curr);
                    tx.write(prev, new_node as Word)?;
                    Ok(true)
                })
                .expect("insert_fine is never cancelled");
            if published {
                return true;
            }
        }
    }

    fn remove_fine(&self, key: u64, thread: &mut S::Thread) -> bool {
        loop {
            let pin = thread.epoch().pin();
            let (prev, curr) = self.search_fine(key, thread);
            if curr == 0 {
                return false;
            }
            // SAFETY: protected by the epoch pin.
            let node = unsafe { &*Self::node(curr) };
            if node.key != key {
                return false;
            }
            #[derive(PartialEq)]
            enum Outcome {
                Removed,
                AlreadyGone,
                Retry,
            }
            let outcome = thread
                .atomic(|tx| {
                    if tx.read(prev)? != curr {
                        return Ok(Outcome::Retry);
                    }
                    let next = tx.read(&node.next)?;
                    if is_marked(next) {
                        return Ok(Outcome::AlreadyGone);
                    }
                    tx.write(prev, unmark(next))?;
                    tx.write(&node.next, mark(next))?;
                    Ok(Outcome::Removed)
                })
                .expect("remove_fine is never cancelled");
            match outcome {
                Outcome::Removed => {
                    // SAFETY: unlinked by the committed transaction above.
                    unsafe { pin.defer_drop(Self::node(curr)) };
                    return true;
                }
                Outcome::AlreadyGone => return false,
                Outcome::Retry => {
                    drop(pin);
                    continue;
                }
            }
        }
    }

    /// Chain search where every link read is its own small transaction.
    fn search_fine<'a>(&'a self, key: u64, thread: &mut S::Thread) -> (&'a S::Cell, Word) {
        let mut prev: &S::Cell = self.bucket(key);
        let mut curr = unmark(self.read_one_fine(prev, thread));
        loop {
            if curr == 0 {
                return (prev, 0);
            }
            // SAFETY: protected by the caller's epoch pin.
            let node = unsafe { &*Self::node(curr) };
            if node.key >= key {
                return (prev, curr);
            }
            let next = self.read_one_fine(&node.next, thread);
            prev = &node.next;
            curr = unmark(next);
        }
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
                let node = unsafe { Box::from_raw(Self::node(curr)) };
                curr = S::peek(&node.next);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectm::variants::{OrecFullG, OrecStm, TvarShortG, ValShort};
    use spectm::Config;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn oracle_test<S: Stm + Clone>(stm: S, mode: ApiMode) {
        let table = StmHashTable::new(&stm, 32, mode);
        let mut t = stm.register();
        let mut oracle = BTreeSet::new();
        let mut state = 88172645463325252u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
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
                let mut state = tid * 31 + 7;
                let mut rng = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
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
}
