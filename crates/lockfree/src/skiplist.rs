//! Fraser-style lock-free skip list.
//!
//! The skip list stores `u64` keys in towers of probabilistically chosen
//! height.  Like the linked list, deletion is logical-then-physical: a
//! remover first marks every level's `next` pointer (top-down, finishing with
//! level 0, which decides the winner among concurrent removers), and marked
//! towers are physically unlinked by subsequent searches.  Towers are retired
//! through the shared epoch collector once they are no longer reachable.
//!
//! This is the `lock-free` baseline of the paper's skip-list figures and also
//! illustrates the complexity the SpecTM version avoids: partially inserted
//! and partially removed towers must be handled explicitly here, whereas the
//! STM version makes each insertion/removal atomic.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::sync::atomic::{AtomicUsize, Ordering};

use txepoch::{Collector, LocalHandle};

use crate::rng::random_level;
use crate::ConcurrentIntSet;

/// Maximum tower height (the paper uses 32).
pub const MAX_LEVEL: usize = 32;

const MARK: usize = 1;

#[inline]
fn marked(p: usize) -> bool {
    p & MARK != 0
}

#[inline]
fn unmark(p: usize) -> usize {
    p & !MARK
}

/// A tower: one heap block holding this header followed, in the same
/// allocation, by `level` atomic links ([`Tower::links`]) — the layout of
/// the STM skip list's towers, so the two baselines compare synchronisation,
/// not memory layout.  [`Tower::alloc`] makes the block and [`free_tower`]
/// is the only free.
#[repr(C)]
struct Tower {
    key: u64,
    level: usize,
}

/// The list's head: a tower header with all `MAX_LEVEL` links after it, laid
/// out like a heap tower of that height.
#[repr(C)]
struct Head {
    tower: Tower,
    links: [AtomicUsize; MAX_LEVEL],
}

const _: () = assert!(
    std::mem::offset_of!(Head, links) == std::mem::size_of::<Tower>(),
    "the head's links must sit where Tower::links looks for them"
);

impl Tower {
    /// The block of a tower of height `level`: the header, then the links.
    fn layout(level: usize) -> Layout {
        let links =
            Layout::array::<AtomicUsize>(level).expect("tower heights are at most MAX_LEVEL");
        let (block, offset) = Layout::new::<Tower>()
            .extend(links)
            .expect("tower heights are at most MAX_LEVEL");
        debug_assert_eq!(offset, std::mem::size_of::<Tower>());
        block
    }

    /// Where the links of the tower at `tower` start: right past its header.
    #[inline]
    fn first_link(tower: *const Tower) -> *mut AtomicUsize {
        tower.wrapping_add(1).cast_mut().cast()
    }

    /// Allocates a tower of height `level` with every link null; the caller
    /// owns it until it is published.
    fn alloc(key: u64, level: usize) -> *mut Tower {
        let layout = Self::layout(level);
        // SAFETY: the layout is not zero-sized (the header alone is two
        // words).  A non-null block is a fresh allocation of it, private to
        // this thread: the header fits at offset 0 and `level` aligned links
        // after it (`Tower::layout`).
        unsafe {
            let tower = alloc(layout).cast::<Tower>();
            if tower.is_null() {
                handle_alloc_error(layout);
            }
            tower.write(Tower { key, level });
            let first = Self::first_link(tower);
            for lvl in 0..level {
                first.add(lvl).write(AtomicUsize::new(0));
            }
            tower
        }
    }

    /// The tower's links, level 0 first.
    #[inline]
    fn links(&self) -> &[AtomicUsize] {
        // SAFETY: a tower is either made by `Tower::alloc`, which wrote
        // `level` links right after the header, or is the head's, whose
        // `MAX_LEVEL` links follow it (`Head`); they live as long as it does.
        unsafe { std::slice::from_raw_parts(Self::first_link(self), self.level) }
    }
}

/// Frees a tower made by [`Tower::alloc`], rebuilding its block's layout
/// from the header's `level` (no part of a tower has a destructor).  Typed
/// for `Guard::defer_unchecked`.
///
/// # Safety
///
/// `ptr` must come from [`Tower::alloc`], must be unreachable for every
/// other thread (never published, past its epoch grace period, or owned by a
/// list being dropped), and must not be used again.
unsafe fn free_tower(ptr: *mut u8) {
    // SAFETY: per the contract the block is a live tower this thread owns
    // exclusively; its header still holds the height its block was sized by.
    unsafe { dealloc(ptr, Tower::layout((*ptr.cast::<Tower>()).level)) };
}

/// A lock-free skip list storing a set of `u64` keys.
///
/// # Examples
///
/// ```
/// use lockfree::{ConcurrentIntSet, LockFreeSkipList};
/// let list = LockFreeSkipList::new(txepoch::Collector::new());
/// let handle = list.collector().register();
/// assert!(list.insert(10, &handle));
/// assert!(list.contains(10, &handle));
/// assert!(list.remove(10, &handle));
/// ```
pub struct LockFreeSkipList {
    head: Head,
    collector: Collector,
}

// SAFETY: shared mutation goes through atomics; reclamation is epoch-based.
unsafe impl Send for LockFreeSkipList {}
// SAFETY: as above.
unsafe impl Sync for LockFreeSkipList {}

/// Predecessor and successor per level, as [`LockFreeSkipList::search`]
/// found them; the predecessors are good for as long as the epoch guard the
/// search ran under.
struct Window<'a> {
    preds: [&'a Tower; MAX_LEVEL],
    succs: [usize; MAX_LEVEL],
    found: bool,
}

impl LockFreeSkipList {
    /// Creates an empty skip list tied to `collector`.
    pub fn new(collector: Collector) -> Self {
        Self {
            head: Head {
                tower: Tower {
                    key: 0,
                    level: MAX_LEVEL,
                },
                links: std::array::from_fn(|_| AtomicUsize::new(0)),
            },
            collector,
        }
    }

    /// The epoch collector used for tower reclamation.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Searches for `key`, recording the predecessor and successor at every
    /// level and physically unlinking marked towers along the way.
    ///
    /// The caller must hold an epoch guard.
    fn search(&self, key: u64, handle: &LocalHandle) -> Window<'_> {
        'retry: loop {
            let mut preds = [&self.head.tower; MAX_LEVEL];
            let mut succs = [0usize; MAX_LEVEL];
            let mut pred: &Tower = &self.head.tower;
            for lvl in (0..MAX_LEVEL).rev() {
                let mut curr = pred.links()[lvl].load(Ordering::Acquire);
                if marked(curr) {
                    // `pred` itself is being deleted; restart from the head.
                    continue 'retry;
                }
                loop {
                    if unmark(curr) == 0 {
                        break;
                    }
                    // SAFETY: `curr` was read from a reachable link while the
                    // caller is pinned, so the tower has not been freed.
                    let node = unsafe { &*(unmark(curr) as *const Tower) };
                    let next = node.links()[lvl].load(Ordering::Acquire);
                    if marked(next) {
                        // Logically deleted at this level: unlink it.
                        if pred.links()[lvl]
                            .compare_exchange(
                                curr,
                                unmark(next),
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_err()
                        {
                            continue 'retry;
                        }
                        curr = unmark(next);
                        continue;
                    }
                    if node.key < key {
                        pred = node;
                        curr = next;
                        continue;
                    }
                    break;
                }
                preds[lvl] = pred;
                succs[lvl] = unmark(curr);
            }
            let found = succs[0] != 0 && {
                // SAFETY: see above.
                let node = unsafe { &*(succs[0] as *const Tower) };
                node.key == key
            };
            let _ = handle;
            return Window {
                preds,
                succs,
                found,
            };
        }
    }

    /// Returns whether `key` is reachable and not logically deleted.
    fn do_contains(&self, key: u64, handle: &LocalHandle) -> bool {
        let _guard = handle.pin();
        let mut pred: &Tower = &self.head.tower;
        for lvl in (0..MAX_LEVEL).rev() {
            let mut curr = unmark(pred.links()[lvl].load(Ordering::Acquire));
            loop {
                if curr == 0 {
                    break;
                }
                // SAFETY: protected by the guard above.
                let node = unsafe { &*(curr as *const Tower) };
                let next = node.links()[lvl].load(Ordering::Acquire);
                if node.key < key {
                    pred = node;
                    curr = unmark(next);
                    continue;
                }
                if node.key == key {
                    return !marked(next);
                }
                break;
            }
        }
        false
    }

    /// Collects up to `limit` unmarked keys with `key >= start`, in key
    /// order.
    ///
    /// The walk is **not** a snapshot: each link is read independently, so
    /// the result can mix states from different points in time (keys
    /// inserted or removed mid-walk may or may not appear).  This is the
    /// best an unsynchronized CAS-based structure can offer and exactly the
    /// guarantee gap the STM store's transactional scans close.
    pub fn collect_from(&self, start: u64, limit: usize, handle: &LocalHandle) -> Vec<u64> {
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        let _guard = handle.pin();
        // Descend to the last tower strictly before `start`.
        let mut pred: &Tower = &self.head.tower;
        for lvl in (0..MAX_LEVEL).rev() {
            let mut curr = unmark(pred.links()[lvl].load(Ordering::Acquire));
            loop {
                if curr == 0 {
                    break;
                }
                // SAFETY: read from a reachable link while pinned.
                let node = unsafe { &*(curr as *const Tower) };
                if node.key >= start {
                    break;
                }
                pred = node;
                curr = unmark(node.links()[lvl].load(Ordering::Acquire));
            }
        }
        // Walk level 0, skipping logically deleted towers.
        let mut curr = unmark(pred.links()[0].load(Ordering::Acquire));
        while curr != 0 && out.len() < limit {
            // SAFETY: as above.
            let node = unsafe { &*(curr as *const Tower) };
            let next = node.links()[0].load(Ordering::Acquire);
            if node.key >= start && !marked(next) {
                out.push(node.key);
            }
            curr = unmark(next);
        }
        out
    }

    fn do_insert(&self, key: u64, handle: &LocalHandle) -> bool {
        let _guard = handle.pin();
        let level = random_level(MAX_LEVEL);
        let mut new_tower: *mut Tower = std::ptr::null_mut();
        loop {
            let w = self.search(key, handle);
            if w.found {
                if !new_tower.is_null() {
                    // SAFETY: the tower was never published.
                    unsafe { free_tower(new_tower.cast()) };
                }
                return false;
            }
            if new_tower.is_null() {
                new_tower = Tower::alloc(key, level);
            }
            // SAFETY: `new_tower` is still private to this thread.
            let tower = unsafe { &*new_tower };
            for (link, &succ) in tower.links().iter().zip(&w.succs) {
                link.store(succ, Ordering::Relaxed);
            }
            // Publish at level 0; this is the linearization point of insert.
            if w.preds[0].links()[0]
                .compare_exchange(
                    w.succs[0],
                    new_tower as usize,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_err()
            {
                continue;
            }

            // Link the remaining levels, tolerating concurrent removals of the
            // freshly inserted tower and concurrent structural changes.
            for lvl in 1..level {
                loop {
                    let succ = tower.links()[lvl].load(Ordering::Acquire);
                    if marked(succ) {
                        // The new tower is already being removed; stop linking.
                        return true;
                    }
                    if w.preds[lvl].links()[lvl]
                        .compare_exchange(
                            w.succs[lvl],
                            new_tower as usize,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        break;
                    }
                    // The neighbourhood changed: recompute it and retarget the
                    // new tower's successor at this level.
                    let w2 = self.search(key, handle);
                    if w2.succs[0] != new_tower as usize {
                        // The tower has been removed entirely; stop linking.
                        return true;
                    }
                    let new_succ = w2.succs[lvl];
                    if tower.links()[lvl]
                        .compare_exchange(succ, new_succ, Ordering::AcqRel, Ordering::Acquire)
                        .is_err()
                    {
                        // Marked concurrently.
                        return true;
                    }
                    if w2.preds[lvl].links()[lvl]
                        .compare_exchange(
                            new_succ,
                            new_tower as usize,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        break;
                    }
                }
            }
            return true;
        }
    }

    fn do_remove(&self, key: u64, handle: &LocalHandle) -> bool {
        let _guard = handle.pin();
        let w = self.search(key, handle);
        if !w.found {
            return false;
        }
        let node_ptr = w.succs[0];
        // SAFETY: protected by the guard above.
        let node = unsafe { &*(node_ptr as *const Tower) };

        // Mark the upper levels first (top-down).
        let (level0, upper) = node
            .links()
            .split_first()
            .expect("towers are at least 1 high");
        for link in upper.iter().rev() {
            loop {
                let next = link.load(Ordering::Acquire);
                if marked(next) {
                    break;
                }
                if link
                    .compare_exchange(next, next | MARK, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    break;
                }
            }
        }

        // Level 0 decides which of several concurrent removers wins.
        loop {
            let next = level0.load(Ordering::Acquire);
            if marked(next) {
                // Someone else deleted it first.
                return false;
            }
            if level0
                .compare_exchange(next, next | MARK, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // We own the deletion: unlink the tower everywhere and
                // retire it once it is unreachable.
                loop {
                    let w2 = self.search(key, handle);
                    if !w2.succs.contains(&node_ptr) {
                        break;
                    }
                }
                let guard = handle.pin();
                // SAFETY: the tower is marked at every level and no longer
                // reachable from the head; epoch reclamation protects any
                // readers that still hold references.  `free_tower` matches
                // the allocation.
                unsafe { guard.defer_unchecked(node_ptr as *mut u8, free_tower) };
                return true;
            }
        }
    }

    /// Collects every key currently present in ascending order
    /// (test/diagnostic helper; not linearizable).
    pub fn snapshot(&self, handle: &LocalHandle) -> Vec<u64> {
        let _guard = handle.pin();
        let mut out = Vec::new();
        let mut curr = unmark(self.head.links[0].load(Ordering::Acquire));
        while curr != 0 {
            // SAFETY: protected by the guard above.
            let node = unsafe { &*(curr as *const Tower) };
            let next = node.links()[0].load(Ordering::Acquire);
            if !marked(next) {
                out.push(node.key);
            }
            curr = unmark(next);
        }
        out
    }
}

impl ConcurrentIntSet for LockFreeSkipList {
    fn insert(&self, key: u64, handle: &LocalHandle) -> bool {
        self.do_insert(key, handle)
    }

    fn remove(&self, key: u64, handle: &LocalHandle) -> bool {
        self.do_remove(key, handle)
    }

    fn contains(&self, key: u64, handle: &LocalHandle) -> bool {
        self.do_contains(key, handle)
    }

    fn collector(&self) -> &Collector {
        &self.collector
    }
}

impl Drop for LockFreeSkipList {
    fn drop(&mut self) {
        // Exclusive access: walk level 0 and free every tower.
        let mut curr = unmark(self.head.links[0].load(Ordering::Relaxed));
        while curr != 0 {
            let tower = curr as *mut Tower;
            // SAFETY: during drop nothing else references the towers; each
            // is freed once, after its level-0 link was read.
            curr = unsafe {
                let next = (*tower).links()[0].load(Ordering::Relaxed);
                free_tower(tower.cast());
                unmark(next)
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    #[test]
    fn basic_set_semantics() {
        let l = LockFreeSkipList::new(Collector::new());
        let h = l.collector().register();
        assert!(!l.contains(9, &h));
        assert!(l.insert(9, &h));
        assert!(!l.insert(9, &h));
        assert!(l.contains(9, &h));
        assert!(l.remove(9, &h));
        assert!(!l.remove(9, &h));
        assert!(!l.contains(9, &h));
    }

    #[test]
    fn snapshot_is_sorted_and_unique() {
        let l = LockFreeSkipList::new(Collector::new());
        let h = l.collector().register();
        for k in [9u64, 2, 5, 7, 2, 9, 1] {
            l.insert(k, &h);
        }
        assert_eq!(l.snapshot(&h), vec![1, 2, 5, 7, 9]);
    }

    #[test]
    fn matches_btreeset_oracle_sequentially() {
        let l = LockFreeSkipList::new(Collector::new());
        let h = l.collector().register();
        let mut oracle = BTreeSet::new();
        crate::rng::seed(31337);
        for _ in 0..5_000 {
            let k = crate::rng::next_u64() % 512 + 1;
            match crate::rng::next_u64() % 3 {
                0 => assert_eq!(l.insert(k, &h), oracle.insert(k)),
                1 => assert_eq!(l.remove(k, &h), oracle.remove(&k)),
                _ => assert_eq!(l.contains(k, &h), oracle.contains(&k)),
            }
        }
        assert_eq!(l.snapshot(&h), oracle.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn disjoint_concurrent_updates_are_all_applied() {
        let l = Arc::new(LockFreeSkipList::new(Collector::new()));
        const THREADS: u64 = 4;
        const RANGE: u64 = 400;
        let mut joins = Vec::new();
        for tid in 0..THREADS {
            let l = Arc::clone(&l);
            joins.push(std::thread::spawn(move || {
                let h = l.collector().register();
                let base = 1 + tid * RANGE;
                for k in 0..RANGE {
                    assert!(l.insert(base + k, &h));
                }
                for k in (0..RANGE).step_by(2) {
                    assert!(l.remove(base + k, &h));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let h = l.collector().register();
        for tid in 0..THREADS {
            for k in 0..RANGE {
                let key = 1 + tid * RANGE + k;
                assert_eq!(l.contains(key, &h), k % 2 == 1, "key {key}");
            }
        }
    }

    #[test]
    fn contended_same_key_inserts_have_one_winner() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let l = Arc::new(LockFreeSkipList::new(Collector::new()));
        let wins = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for _ in 0..8 {
            let l = Arc::clone(&l);
            let wins = Arc::clone(&wins);
            joins.push(std::thread::spawn(move || {
                let h = l.collector().register();
                if l.insert(77, &h) {
                    wins.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(wins.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_insert_remove_churn_on_small_range() {
        // High contention on a small key range, checked against per-key
        // winner counts: every successful remove must match a successful
        // insert of the same key.
        use std::sync::atomic::{AtomicI64, Ordering};
        let l = Arc::new(LockFreeSkipList::new(Collector::new()));
        let balance: Arc<Vec<AtomicI64>> = Arc::new((0..64).map(|_| AtomicI64::new(0)).collect());
        let mut joins = Vec::new();
        for t in 0..4u64 {
            let l = Arc::clone(&l);
            let balance = Arc::clone(&balance);
            joins.push(std::thread::spawn(move || {
                let h = l.collector().register();
                crate::rng::seed(t * 7 + 1);
                for _ in 0..6_000 {
                    let k = crate::rng::next_u64() % 64 + 1;
                    if crate::rng::next_u64() % 2 == 0 {
                        if l.insert(k, &h) {
                            balance[(k - 1) as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    } else if l.remove(k, &h) {
                        balance[(k - 1) as usize].fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let h = l.collector().register();
        for k in 1..=64u64 {
            let present = l.contains(k, &h);
            let bal = balance[(k - 1) as usize].load(std::sync::atomic::Ordering::Relaxed);
            assert!(bal == 0 || bal == 1, "key {k} balance {bal}");
            assert_eq!(present, bal == 1, "key {k}");
        }
    }
}
