//! Lock-free-read key-value hash map, the non-STM baseline for the sharded
//! KV-store benchmarks.
//!
//! The layout is **`spectm_kv::StmHashMap`'s bucket table by construction**
//! (the point of a baseline is an apples-to-apples comparison): a
//! [`spectm_kv::map::Table`] of `AtomicUsize` cells — a flat array of
//! 64-byte home buckets, each holding [`spectm_kv::BUCKET_SLOTS`] tagged
//! item words plus one stat word, with rare 512-byte-aligned overflow
//! buckets chained off the stat word — sized, hashed, tagged and walked by
//! the same code.  What differs is the synchronisation: a **per-chain
//! writer spinlock in bit 0** of the *home* bucket's stat word (the bit the
//! STM map leaves to the `val` layout's lock), the Segcache discipline:
//! readers are lock-free, writers to the same chain serialize briefly.
//!
//! Values use the same representation as the STM store too: each value is a
//! single word — small payloads inline, larger ones behind an immutable
//! epoch-reclaimed [`spectm_kv::ValueCell`] — held in a plain `AtomicUsize`
//! per node.  A `put` on an existing key swaps the value word in place;
//! the put-ter owns the displaced word and retires its cell through the
//! epoch collector.  A node owns whatever word it holds when it dies, so
//! its `Drop` frees that cell (by then the grace period has passed).
//! Overflow buckets are write-once (freed only when the map drops), so a
//! lock-free reader can never race bucket reclamation; deleted *nodes* are
//! retired through the epoch collector after their slot is zeroed.
//!
//! For range scans the map keeps a [`crate::LockFreeSkipList`] of keys next
//! to the hash table; [`LockFreeKvMap::scan`] walks it in order and looks
//! every key up in the table.
//!
//! Two caveats, both inherent to the CAS-composed design and shared by the
//! paper's non-transactional baselines:
//!
//! * there is no multi-key atomicity: [`LockFreeKvMap::rmw_add`] applies a
//!   per-key update loop, so a concurrent reader can observe a partially
//!   applied multi-key update.  The STM store (the `spectm-kv` crate)
//!   provides the atomic variant; the contrast is the point of the
//!   benchmark;
//! * [`LockFreeKvMap::scan`] is **not a snapshot**: the key index and the
//!   value table are updated by separate steps (and each value is read by a
//!   separate load), so a scan concurrent with writes can observe a torn
//!   multi-key update, miss a freshly inserted key, or return a value newer
//!   than a neighbour's.  `ShardedKv::scan` runs the same shape as one full
//!   transaction and rules all of that out — the contrast is, again, the
//!   point.
//!
//! (The old per-node-chain version had a third caveat — a `put` racing a
//! `del` of the same key reported an advisory previous value.  Per-chain
//! writer serialization removes that race: the previous value a `put` or
//! `del` reports is now exact.)

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};

use spectm_kv::map::{Bucket, ChainEnd, OverflowBucket, Table, ITEM_PTR_MASK};
use spectm_kv::value::{decode_value, encode_value, free_value, retire_value};
use spectm_kv::{KvError, MapStats, Value, MAX_VALUE_LEN};
use txepoch::{Collector, Guard, LocalHandle};

use crate::skiplist::LockFreeSkipList;
use crate::ConcurrentIntSet;

/// Bit 0 of a *home* bucket's stat word: the per-chain writer spinlock.
/// (The STM map leaves this bit to the `val` layout's orec lock; here it is
/// ours to use.)
const LOCK: usize = 1;

/// A node: the immutable key plus the value word, swapped in place.  A
/// value word of zero is the "no value" sentinel (zero is never a legal
/// encoded word).  Like the STM map's node it keeps its natural one-word
/// alignment: the item word's tag sits above the address bits, and
/// `Node::alloc` checks that the address stays clear of it.
struct Node {
    key: u64,
    value: AtomicUsize,
}

// The node's alignment clears the item word's lock bit.
const _: () = assert!(std::mem::align_of::<Node>() > 1);

impl Node {
    fn alloc(key: u64, word: usize) -> *mut Node {
        let node = Box::into_raw(Box::new(Node {
            key,
            value: AtomicUsize::new(word),
        }));
        assert!(
            node as usize & !ITEM_PTR_MASK == 0,
            "node address {node:p} reaches the item word's tag bits"
        );
        node
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        let word = *self.value.get_mut();
        if word != 0 {
            // SAFETY: a node is dropped either past its grace period (epoch
            // deferral) or under exclusive access (map drop); the word it
            // still holds is owned by it.
            unsafe { free_value(word) };
        }
    }
}

/// A hash map from `u64` keys to byte values with lock-free reads and
/// per-chain-serialized writes.
///
/// # Examples
///
/// ```
/// use lockfree::LockFreeKvMap;
/// use spectm_kv::Value;
///
/// let map = LockFreeKvMap::new(64, txepoch::Collector::new());
/// let handle = map.collector().register();
/// assert_eq!(map.put(7, b"seventy", &handle).unwrap(), None);
/// assert_eq!(map.get(7, &handle), Some(Value::new(b"seventy")));
/// assert_eq!(
///     map.put(7, b"a value long enough to live out of line", &handle).unwrap(),
///     Some(Value::new(b"seventy"))
/// );
/// assert_eq!(
///     map.del(7, &handle),
///     Some(Value::new(b"a value long enough to live out of line"))
/// );
/// assert_eq!(map.get(7, &handle), None);
/// ```
pub struct LockFreeKvMap {
    table: Table<AtomicUsize>,
    collector: Collector,
    /// Ordered key index for [`LockFreeKvMap::scan`]; maintained *next to*
    /// the hash table, not atomically with it (see the module docs).
    index: LockFreeSkipList,
}

impl LockFreeKvMap {
    /// Creates a map sized for about `capacity` keys (a hint targeting the
    /// ~0.75 bucket load factor, not a limit — overflow buckets absorb any
    /// excess), reclaiming memory through `collector`.  The table is
    /// `StmHashMap`'s, so the two sides of a benchmark probe identically
    /// shaped tables.
    pub fn new(capacity: usize, collector: Collector) -> Self {
        // The index shares the collector (cloning yields a handle to the
        // same domain), so one registered `LocalHandle` serves both.
        let index = LockFreeSkipList::new(collector.clone());
        Self {
            // SAFETY: `put` stores into stat words only the lock bit and
            // `OverflowBucket::alloc` buckets, each linked once under the
            // chain lock; `Drop` frees them through the table.
            table: unsafe { Table::new(capacity, AtomicUsize::new) },
            collector,
            index,
        }
    }

    /// The epoch collector threads must register with.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Number of home buckets.
    pub fn bucket_count(&self) -> usize {
        self.table.bucket_count()
    }

    /// The map's one node dereference: the node behind an item word read
    /// under `_guard`.
    #[inline]
    fn node(w: usize, _guard: &Guard) -> &Node {
        // SAFETY: the pin predates the load of `w` from a reachable slot,
        // so the node cannot complete its grace period while the guard
        // lives.
        unsafe { &*((w & ITEM_PTR_MASK) as *const Node) }
    }

    /// The slot and node behind `w`, read from `slot` under `guard`, if
    /// they are `key`'s: the one "is this the key" under every lookup.
    #[inline]
    fn hit<'g>(
        key: u64,
        slot: &'g AtomicUsize,
        w: usize,
        guard: &'g Guard,
    ) -> ControlFlow<(&'g AtomicUsize, &'g Node)> {
        let node = Self::node(w, guard);
        if node.key == key {
            ControlFlow::Break((slot, node))
        } else {
            ControlFlow::Continue(())
        }
    }

    /// Walks `key`'s chain from `home` with the chain lock held: the slot
    /// holding `key` and its node, or where the chain ended.
    #[inline]
    fn locked_find<'g>(
        home: &'g Bucket<AtomicUsize>,
        key: u64,
        tag: usize,
        guard: &'g Guard,
    ) -> ControlFlow<(&'g AtomicUsize, &'g Node), ChainEnd<'g, AtomicUsize>> {
        home.walk(
            Some(tag),
            &mut (),
            |_, _, slot| ControlFlow::Continue(slot.load(Ordering::Acquire)),
            |_, _, slot, w| Self::hit(key, slot, w, guard),
        )
    }

    /// Spins until this thread holds the chain lock of `home`, returning
    /// the stat word as it was at acquisition (lock bit clear).
    #[inline]
    fn lock_chain(home: &Bucket<AtomicUsize>) -> usize {
        loop {
            let prev = home.stat().fetch_or(LOCK, Ordering::Acquire);
            if prev & LOCK == 0 {
                return prev;
            }
            while home.stat().load(Ordering::Relaxed) & LOCK != 0 {
                std::hint::spin_loop();
            }
        }
    }

    #[inline]
    fn unlock_chain(home: &Bucket<AtomicUsize>) {
        home.stat().fetch_and(!LOCK, Ordering::Release);
    }

    /// Returns the value stored under `key`, if present.  Lock-free: a
    /// probe is a tag-filtered scan of the home cache line (plus overflow
    /// lines for the rare chained key) and never observes the writer lock.
    #[inline]
    pub fn get(&self, key: u64, handle: &LocalHandle) -> Option<Value> {
        let guard = handle.pin();
        let (home, tag) = self.table.home(key);
        // A continuously present key occupies one fixed slot (writers
        // serialize; a key moves only via delete, an instant of absence),
        // so a full scan that missed it witnessed a moment of absence — the
        // miss linearizes there.  The walk is called here, not through
        // `locked_find`: a walk instance with one call site is inlined,
        // and the lookup is the baseline's hot path.
        let walk = home.walk(
            Some(tag),
            &mut (),
            |_, _, slot| ControlFlow::Continue(slot.load(Ordering::Acquire)),
            |_, _, slot, w| Self::hit(key, slot, w, &guard),
        );
        let ControlFlow::Break((_, node)) = walk else {
            return None;
        };
        let word = node.value.load(Ordering::Acquire);
        // SAFETY: `guard` predates any retirement of the cell behind a word
        // read from a reachable node.
        Some(unsafe { decode_value(word) })
    }

    /// Stores `value` under `key`, returning the previous value if the key
    /// was present, or [`KvError::ValueTooLarge`] beyond [`MAX_VALUE_LEN`]
    /// bytes.
    #[inline]
    pub fn put(
        &self,
        key: u64,
        value: &[u8],
        handle: &LocalHandle,
    ) -> Result<Option<Value>, KvError> {
        if value.len() > MAX_VALUE_LEN {
            return Err(KvError::ValueTooLarge { len: value.len() });
        }
        let guard = handle.pin();
        let (home, tag) = self.table.home(key);
        let word = encode_value(value);
        Self::lock_chain(home);
        let end = match Self::locked_find(home, key, tag, &guard) {
            ControlFlow::Break((_slot, node)) => {
                // Overwrite in place: swap the value word, retire the
                // displaced one.  Readers racing the swap see either word —
                // both are committed states.
                let old = node.value.swap(word, Ordering::AcqRel);
                Self::unlock_chain(home);
                // SAFETY: the swap displaced `old` from its only reachable
                // location under the chain lock, making us its sole owner;
                // `guard` protects the copy-out and pinned readers.
                let out = unsafe { decode_value(old) };
                // SAFETY: same ownership — the displaced word is ours to
                // retire.
                unsafe { retire_value(old, &guard) };
                return Ok(Some(out));
            }
            ControlFlow::Continue(end) => end,
        };
        let node = Node::alloc(key, word);
        let tagged = node as usize | tag;
        match end.empty {
            Some((_, slot)) => slot.store(tagged, Ordering::Release),
            None => {
                // Chain full: link a fresh overflow bucket, born holding the
                // node, off the last one.  The link `fetch_or` preserves
                // the held lock bit on the home bucket.
                let overflow = OverflowBucket::alloc(tagged, AtomicUsize::new);
                end.tail
                    .stat()
                    .fetch_or(overflow as usize, Ordering::Release);
            }
        }
        Self::unlock_chain(home);
        // Mirror the fresh key into the ordered index.  This is a separate
        // step: scans between the two miss the key (see the module docs —
        // no snapshot guarantee).
        self.index.insert(key, handle);
        Ok(None)
    }

    /// Removes `key`, returning the value it held.
    #[inline]
    pub fn del(&self, key: u64, handle: &LocalHandle) -> Option<Value> {
        let guard = handle.pin();
        let (home, tag) = self.table.home(key);
        Self::lock_chain(home);
        let ControlFlow::Break((slot, node)) = Self::locked_find(home, key, tag, &guard) else {
            Self::unlock_chain(home);
            return None;
        };
        let word = node.value.load(Ordering::Acquire);
        // Zero the slot (the freed slot is reused by later inserts), then
        // retire the node; its drop frees the value word it still holds.
        slot.store(0, Ordering::Release);
        Self::unlock_chain(home);
        // SAFETY: `guard` predates the retirement below, protecting the
        // copy-out.
        let out = unsafe { decode_value(word) };
        // SAFETY: the node is unreachable (its slot is zero) and its key
        // cannot be reinserted into *it* — inserts allocate fresh nodes.
        unsafe { guard.defer_drop(node as *const Node as *mut Node) };
        // Drop the key from the ordered index (again a separate step; a
        // racing re-insert of the same key can leave the index and the
        // table briefly disagreeing.  The STM store's combined transactions
        // are how that is actually fixed).
        self.index.remove(key, handle);
        Some(out)
    }

    /// Adds `delta` to the value of each key in `keys` that is present,
    /// interpreting values as 8-byte little-endian counters (the same
    /// convention as `ShardedKv::rmw_add`).
    ///
    /// Each key's update is individually atomic (performed under that
    /// chain's writer lock) but there is **no atomicity across keys** — the
    /// CAS-composed design has no way to compose updates.  Returns `false`
    /// if any key was absent (the updates to the keys that were present
    /// still took effect).
    pub fn rmw_add(&self, keys: &[u64], delta: u64, handle: &LocalHandle) -> bool {
        let mut all_present = true;
        for &key in keys {
            let guard = handle.pin();
            let (home, tag) = self.table.home(key);
            Self::lock_chain(home);
            match Self::locked_find(home, key, tag, &guard) {
                ControlFlow::Break((_slot, node)) => {
                    let old = node.value.load(Ordering::Acquire);
                    // SAFETY: `guard` predates any retirement of the cell.
                    let counter = unsafe { decode_value(old) }.as_u64();
                    let new_word = encode_value(&counter.wrapping_add(delta).to_le_bytes());
                    node.value.store(new_word, Ordering::Release);
                    Self::unlock_chain(home);
                    // SAFETY: the store displaced `old` under the chain
                    // lock; we own it, and pinned readers are protected.
                    unsafe { retire_value(old, &guard) };
                }
                ControlFlow::Continue(_) => {
                    Self::unlock_chain(home);
                    all_present = false;
                }
            }
        }
        all_present
    }

    /// Returns up to `limit` `(key, value)` pairs with `key >= start`, in
    /// ascending key order, by walking the ordered key index and looking
    /// each key up in the hash table.
    ///
    /// **Not a snapshot**: every index link and every value is read by an
    /// independent atomic operation, so concurrent writers can make the
    /// result internally inconsistent (torn multi-key updates, missed
    /// fresh inserts, value/neighbour skew).  Compare `ShardedKv::scan` in
    /// `spectm-kv`, which runs the same shape as one full transaction.
    pub fn scan(&self, start: u64, limit: usize, handle: &LocalHandle) -> Vec<(u64, Value)> {
        let keys = self.index.collect_from(start, limit, handle);
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            // A key can vanish between the index walk and this lookup;
            // skipping it is the honest behaviour for this baseline.
            if let Some(value) = self.get(key, handle) {
                out.push((key, value));
            }
        }
        out
    }

    /// Collects the current `(key, value)` pairs (not linearizable; only
    /// meaningful when no concurrent operations run).
    pub fn snapshot(&self, handle: &LocalHandle) -> Vec<(u64, Value)> {
        let guard = handle.pin();
        let mut out = Vec::new();
        self.table.visit_all(
            |slot| slot.load(Ordering::Acquire),
            |_, w| {
                let node = Self::node(w, &guard);
                let word = node.value.load(Ordering::Acquire);
                // SAFETY: protected by the guard above.
                out.push((node.key, unsafe { decode_value(word) }));
            },
        );
        out.sort_unstable();
        out
    }

    /// Occupancy and probe-length statistics, in the same [`MapStats`]
    /// shape the STM store reports (non-transactional; only meaningful when
    /// no concurrent operations run).
    pub fn stats(&self, handle: &LocalHandle) -> MapStats {
        let _guard = handle.pin();
        self.table.stats(|slot| slot.load(Ordering::Acquire))
    }
}

impl Drop for LockFreeKvMap {
    fn drop(&mut self) {
        // Exclusive access: free the remaining nodes directly (each node's
        // drop frees its value word), then the table frees its overflow
        // buckets.
        self.table.free(
            |slot| slot.load(Ordering::Relaxed),
            // SAFETY: nodes were allocated with `Box::into_raw` and nothing
            // else references them during drop.
            |w| drop(unsafe { Box::from_raw((w & ITEM_PTR_MASK) as *mut Node) }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectm_kv::BUCKET_SLOTS;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn new_map(capacity: usize) -> LockFreeKvMap {
        LockFreeKvMap::new(capacity, Collector::new())
    }

    /// Deterministic payload crossing the inline and out-of-line regimes.
    fn payload(k: u64, v: u64) -> Vec<u8> {
        let len = (v % 33) as usize;
        (0..len)
            .map(|i| (k as u8) ^ (v as u8).wrapping_mul(43) ^ i as u8)
            .collect()
    }

    #[test]
    fn get_put_del_roundtrip() {
        let map = new_map(64);
        let h = map.collector().register();
        assert_eq!(map.get(3, &h), None);
        assert_eq!(map.put(3, b"thirty", &h).unwrap(), None);
        assert_eq!(map.get(3, &h), Some(Value::new(b"thirty")));
        let big = vec![9u8; 100];
        assert_eq!(map.put(3, &big, &h).unwrap(), Some(Value::new(b"thirty")));
        assert_eq!(map.get(3, &h), Some(Value::new(&big)));
        assert_eq!(map.del(3, &h), Some(Value::new(&big)));
        assert_eq!(map.del(3, &h), None);
        assert_eq!(map.get(3, &h), None);
    }

    #[test]
    fn oversized_values_are_rejected() {
        let map = new_map(64);
        let h = map.collector().register();
        assert_eq!(
            map.put(1, &vec![0u8; MAX_VALUE_LEN + 1], &h),
            Err(KvError::ValueTooLarge {
                len: MAX_VALUE_LEN + 1
            })
        );
        assert_eq!(map.get(1, &h), None);
    }

    #[test]
    fn matches_btreemap_oracle_sequentially() {
        let map = new_map(1); // single home bucket => deep overflow chains
        let h = map.collector().register();
        let mut oracle = BTreeMap::new();
        crate::rng::seed(2024);
        for _ in 0..4_000 {
            let k = crate::rng::next_u64() % 128;
            let v = crate::rng::next_u64();
            let bytes = payload(k, v);
            match crate::rng::next_u64() % 3 {
                0 => assert_eq!(
                    map.put(k, &bytes, &h).unwrap(),
                    oracle.insert(k, Value::from(bytes))
                ),
                1 => assert_eq!(map.del(k, &h), oracle.remove(&k)),
                _ => assert_eq!(map.get(k, &h), oracle.get(&k).cloned()),
            }
        }
        let stats = map.stats(&h);
        assert_eq!(stats.keys, oracle.len());
        assert_eq!(stats.probe_histogram.iter().sum::<usize>(), oracle.len());
        let expect: Vec<(u64, Value)> = oracle.into_iter().collect();
        assert_eq!(map.snapshot(&h), expect);
    }

    #[test]
    fn bucket_boundary_overflow_and_slot_reuse() {
        let map = new_map(1); // single home bucket
        assert_eq!(map.bucket_count(), 1);
        let h = map.collector().register();
        for k in 0..BUCKET_SLOTS as u64 {
            map.put(k, &payload(k, k), &h).unwrap();
        }
        let stats = map.stats(&h);
        assert_eq!(
            (
                stats.keys,
                stats.overflow_buckets,
                stats.occupied_home_slots
            ),
            (BUCKET_SLOTS, 0, BUCKET_SLOTS)
        );
        // The 8th key forces an overflow bucket.
        map.put(100, b"overflow", &h).unwrap();
        let stats = map.stats(&h);
        assert_eq!(stats.overflow_buckets, 1);
        assert_eq!(stats.probe_histogram, vec![BUCKET_SLOTS, 1]);
        // Deleting a home-slot key frees its slot; the next insert reuses
        // it instead of growing the chain.
        map.del(3, &h).unwrap();
        map.put(200, b"reuse", &h).unwrap();
        let stats = map.stats(&h);
        assert_eq!(stats.occupied_home_slots, BUCKET_SLOTS);
        assert_eq!(stats.overflow_buckets, 1);
        assert_eq!(map.get(200, &h), Some(Value::new(b"reuse")));
        assert_eq!(map.get(3, &h), None);
    }

    #[test]
    fn rmw_add_updates_present_keys() {
        let map = new_map(64);
        let h = map.collector().register();
        map.put(1, &10u64.to_le_bytes(), &h).unwrap();
        map.put(2, &20u64.to_le_bytes(), &h).unwrap();
        assert!(map.rmw_add(&[1, 2], 5, &h));
        assert_eq!(map.get(1, &h).unwrap().as_u64(), 15);
        assert_eq!(map.get(2, &h).unwrap().as_u64(), 25);
        assert!(!map.rmw_add(&[1, 99], 5, &h));
        assert_eq!(map.get(1, &h).unwrap().as_u64(), 20);
    }

    #[test]
    fn scan_returns_sorted_live_pairs_sequentially() {
        let map = new_map(64);
        let h = map.collector().register();
        for k in (0..50u64).step_by(2) {
            map.put(k, &(k + 1).to_le_bytes(), &h).unwrap();
        }
        map.del(10, &h);
        let run: Vec<(u64, u64)> = map
            .scan(6, 4, &h)
            .iter()
            .map(|(k, v)| (*k, v.as_u64()))
            .collect();
        assert_eq!(run, vec![(6, 7), (8, 9), (12, 13), (14, 15)]);
        assert!(map.scan(100, 8, &h).is_empty());
        assert!(map.scan(0, 0, &h).is_empty());
        // Re-inserting a deleted key restores it to scans.
        map.put(10, &99u64.to_le_bytes(), &h).unwrap();
        let run: Vec<(u64, u64)> = map
            .scan(9, 2, &h)
            .iter()
            .map(|(k, v)| (*k, v.as_u64()))
            .collect();
        assert_eq!(run, vec![(10, 99), (12, 13)]);
    }

    #[test]
    fn concurrent_disjoint_ranges_are_exact() {
        // Undersized on purpose: ~0.9+ occupancy forces overflow chains
        // under concurrency.
        let map = Arc::new(new_map(512));
        const THREADS: u64 = 4;
        const RANGE: u64 = 400;
        let mut joins = Vec::new();
        for tid in 0..THREADS {
            let map = Arc::clone(&map);
            joins.push(std::thread::spawn(move || {
                let h = map.collector().register();
                let base = tid * RANGE;
                for k in 0..RANGE {
                    assert_eq!(map.put(base + k, &payload(base + k, k), &h).unwrap(), None);
                }
                for k in (0..RANGE).step_by(2) {
                    assert_eq!(
                        map.del(base + k, &h),
                        Some(Value::from(payload(base + k, k)))
                    );
                }
                for k in 0..RANGE {
                    let expect = if k % 2 == 1 {
                        Some(Value::from(payload(base + k, k)))
                    } else {
                        None
                    };
                    assert_eq!(map.get(base + k, &h), expect);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let h = map.collector().register();
        assert_eq!(map.snapshot(&h).len(), (THREADS * RANGE / 2) as usize);
        assert_eq!(map.stats(&h).keys, (THREADS * RANGE / 2) as usize);
    }

    #[test]
    fn concurrent_counters_conserve_increments() {
        let map = Arc::new(new_map(8));
        {
            let h = map.collector().register();
            for k in 0..8u64 {
                map.put(k, &0u64.to_le_bytes(), &h).unwrap();
            }
        }
        const THREADS: usize = 4;
        const INCS: u64 = 2_000;
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let map = Arc::clone(&map);
            joins.push(std::thread::spawn(move || {
                let h = map.collector().register();
                for i in 0..INCS {
                    let k = (i + t as u64) % 8;
                    assert!(map.rmw_add(&[k], 1, &h));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let h = map.collector().register();
        let total: u64 = (0..8u64).map(|k| map.get(k, &h).unwrap().as_u64()).sum();
        assert_eq!(total, THREADS as u64 * INCS);
    }
}
