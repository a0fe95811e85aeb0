//! The sharded store: a router in front of per-shard transactional maps,
//! each paired with an ordered skip-list index.
//!
//! Every shard's [`StmHashMap`] and its index are built over the **same**
//! STM instance.  That one decision is what makes the store more than an
//! array of independent maps: single-key operations stay short transactions
//! confined to the owning shard (no cross-shard coordination on the hot
//! path), while [`ShardedKv::rmw`], [`ShardedKv::multi_get_atomic`],
//! [`ShardedKv::scan`] and [`ShardedKv::range`] open one full transaction
//! whose read and write sets span shards — and the STM serializes it against
//! every concurrent short transaction, because they share the clock, the
//! ownership metadata and the epoch collector.
//!
//! The **index invariant**: a key is linked and live in a shard's skip-list
//! index if and only if it is present in that shard's hash map.  Membership
//! changes (`put` of an absent key, `del`) run as one full transaction that
//! updates both structures, so the invariant holds at every serialization
//! point; value overwrites (`put` of a present key, `rmw`) never touch the
//! index and keep their short/hot shapes.  A scan descends every shard's
//! index once and then streams a k-way merge over them, reading each key's
//! entry through its hash map as the merge yields it — all inside a single
//! full transaction whose read set is what the scan returns plus the
//! descents: an atomically consistent snapshot even against concurrent
//! cross-shard `rmw`.  DESIGN.md § "The ordered index and range scans" has
//! the full argument.
//!
//! Values are byte payloads behind value words (inline or epoch-reclaimed
//! [`crate::ValueCell`]s); every operation that displaces a word retires it
//! through the epoch collector after its transaction commits, per the
//! [`crate::RetiredValue`] contract.
//!
//! # TTL, byte budget, eviction
//!
//! Configured through [`CacheConfig`] (see [`ShardedKv::with_config`]), the
//! store runs as a bounded cache.  The *mechanism* lives in the map — every
//! item stores a deadline word beside its value word, every home bucket a
//! frequency byte in its stat word — and the *policy* lives here:
//!
//! * **Expiry is lazy plus swept.**  Reads treat a passed deadline as a
//!   miss and immediately remove the corpse (a full transaction over the
//!   shard and its index, re-checking the deadline); the background sweep
//!   ([`ShardedKv::sweep_step`], usually driven by a
//!   [`crate::ttl::Reclaimer`] thread) walks buckets incrementally and
//!   removes what reads never touch.  An expired key is therefore never
//!   *observable* — but may remain physically present until one of the two
//!   removals reaches it.
//! * **Accounting is physical.**  [`ShardedKv::live_bytes`] charges
//!   [`ITEM_OVERHEAD_BYTES`] plus the payload length for every item
//!   physically present — including expired-but-unswept ones — and every
//!   mutation settles its delta right after its transaction commits, riding
//!   the same displaced-ownership hook that retires value words.
//! * **Eviction is budget-driven CLOCK.**  When `max_bytes` is set and the
//!   account exceeds it, the sweep empties buckets at the cursor;
//!   [`EvictionPolicy::Freq`] gives buckets with a non-zero frequency byte
//!   a second chance (halving the counter), so under skewed traffic the hot
//!   set survives.  Writes may overshoot between sweeps; the invariant is
//!   *at-or-under budget after a sweep*.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};

use spectm::{FullTx, Stm, StmThread, TxResult, Word};
use spectm_ds::{ApiMode, RetiredTower, StmSkipList, TowerSlot};

use crate::map::{deadline_expired, encode_deadline, MapStats, NodeSlot, RetiredNode, StmHashMap};
use crate::router::ShardRouter;
use crate::ttl::{CacheConfig, CacheStats, EvictionPolicy, SweepOutcome};
use crate::value::{RetiredValue, Value, ValueSlot, MAX_VALUE_LEN};
use crate::KvError;

/// Maximum number of keys one [`ShardedKv::rmw`] /
/// [`ShardedKv::multi_get_atomic`] may touch (bounds the per-transaction
/// slot buffers; full transactions themselves have no such limit).  The
/// batched operations of [`crate::batch`] have no key limit — they pipeline
/// per-shard instead of opening one transaction over everything.
pub const MAX_RMW_KEYS: usize = 8;

/// Fixed per-item overhead charged against the byte budget beside the
/// payload length: the 64-byte chain node, its share of the bucket array
/// and the ordered-index tower, and allocator slack.  A deliberately blunt
/// constant — the budget bounds memory to first order; it is not an
/// allocator audit.
pub const ITEM_OVERHEAD_BYTES: u64 = 128;

/// Bytes one item of `len` payload bytes charges to the account.
#[inline]
fn item_cost(len: usize) -> u64 {
    ITEM_OVERHEAD_BYTES + len as u64
}

/// Upper bound on eviction visits per sweep, in whole-table passes: the
/// frequency byte needs at most 8 halvings (`log2(255)`) to reach zero, one
/// more visit empties the bucket, and one pass of slack absorbs concurrent
/// frequency bumps.
const MAX_EVICTION_PASSES: usize = 10;

/// The speculative allocations one [`ShardedKv::insert_member_in`] carries
/// across conflict retries — value word, chain node, index tower — each
/// under its own slot contract ([`ValueSlot`], [`NodeSlot`], [`TowerSlot`]).
pub(crate) struct MemberSlots<S: Stm> {
    value: ValueSlot,
    node: NodeSlot<S>,
    tower: TowerSlot<S>,
}

impl<S: Stm> MemberSlots<S> {
    pub(crate) fn new() -> Self {
        Self {
            value: ValueSlot::new(),
            node: NodeSlot::new(),
            tower: TowerSlot::new(),
        }
    }
}

/// What one [`ShardedKv::remove_member_in`] unlinked, awaiting
/// [`ShardedKv::settle_removed`] once its transaction has committed
/// (dropping it after an abort does nothing, per the `Retired*` contracts).
pub(crate) struct Removed<S: Stm> {
    value: RetiredValue,
    node: RetiredNode<S>,
    tower: RetiredTower<S>,
    deadline: Word,
}

/// How a settled removal reads to its caller.
pub(crate) enum Removal {
    /// The entry was observable; the value it held.
    Live(Value),
    /// The entry's deadline had passed: an expired-but-unswept corpse,
    /// which no caller reports as having existed.
    Corpse,
}

impl Removal {
    /// The removed value, if the entry was still observable.
    pub(crate) fn live(self) -> Option<Value> {
        match self {
            Removal::Live(value) => Some(value),
            Removal::Corpse => None,
        }
    }
}

/// A sharded, concurrent `u64 -> bytes` store over one STM instance.
///
/// See the crate docs for an example.
pub struct ShardedKv<S: Stm + Clone> {
    stm: S,
    router: ShardRouter,
    shards: Vec<StmHashMap<S>>,
    /// Per-shard ordered key index, kept transactionally consistent with
    /// the hash shard of the same position (see the module docs).
    indexes: Vec<StmSkipList<S>>,
    config: CacheConfig,
    /// Whether reads maintain hit/miss counters and frequency bytes — set
    /// when the configuration enables any cache behaviour, so the plain
    /// store pays nothing for them.
    track: bool,
    /// Physical live-byte account (see the module docs).
    live_bytes: AtomicU64,
    /// Sweep position over the flattened `(shard, bucket)` space.
    cursor: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    expired: AtomicU64,
    evicted: AtomicU64,
}

impl<S: Stm + Clone> ShardedKv<S> {
    /// Creates a store with `shards` shards (rounded up to a power of two),
    /// each sized for about `capacity_per_shard` keys (see
    /// [`StmHashMap::new`] — a hint targeting the ~0.75 bucket load factor,
    /// not a limit), all driven in `mode`.  Cache behaviour (TTL, byte
    /// budget) is disabled; use [`ShardedKv::with_config`] for that.
    pub fn new(stm: &S, shards: usize, capacity_per_shard: usize, mode: ApiMode) -> Self {
        Self::with_config(
            stm,
            shards,
            capacity_per_shard,
            mode,
            CacheConfig::default(),
        )
    }

    /// [`ShardedKv::new`] with explicit cache behaviour: byte budget,
    /// default TTL, eviction policy, clock.
    pub fn with_config(
        stm: &S,
        shards: usize,
        capacity_per_shard: usize,
        mode: ApiMode,
        config: CacheConfig,
    ) -> Self {
        let router = ShardRouter::new(shards);
        let shards: Vec<StmHashMap<S>> = (0..router.shard_count())
            .map(|_| StmHashMap::new(stm, capacity_per_shard, mode))
            .collect();
        let indexes = (0..router.shard_count())
            .map(|_| StmSkipList::new(stm, mode))
            .collect();
        let track = config.max_bytes.is_some() || config.default_ttl_ms > 0;
        Self {
            stm: stm.clone(),
            router,
            shards,
            indexes,
            config,
            track,
            live_bytes: AtomicU64::new(0),
            cursor: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Registers the calling thread with the underlying STM instance.
    pub fn register(&self) -> S::Thread {
        self.stm.register()
    }

    /// The underlying STM instance.
    pub fn stm(&self) -> &S {
        &self.stm
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total home buckets across all shards — the cycle length of the
    /// sweep cursor, so `sweep_step(bucket_count(), ..)` is one full
    /// expiry pass over the table.
    pub fn bucket_count(&self) -> usize {
        self.shards.iter().map(|s| s.bucket_count()).sum()
    }

    /// The router assigning keys to shards.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    #[inline]
    fn shard(&self, key: u64) -> &StmHashMap<S> {
        &self.shards[self.router.route(key)]
    }

    /// The hash map of shard `shard` (the batched pipeline resolves shards
    /// once per batch and then addresses them directly).
    #[inline]
    pub(crate) fn shard_map(&self, shard: usize) -> &StmHashMap<S> {
        &self.shards[shard]
    }

    /// The cache configuration this store was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Milliseconds on the store's clock — the time base of every deadline.
    #[inline]
    pub fn now_ms(&self) -> u64 {
        self.config.clock.now_ms()
    }

    /// Current physical live-byte account: [`ITEM_OVERHEAD_BYTES`] plus
    /// payload length for every item physically present (expired items
    /// count until a read or the sweep removes them).
    #[inline]
    pub fn live_bytes(&self) -> u64 {
        // ORDERING: relaxed statistics counter; per-operation deltas are
        // settled after their transactions commit, and exact readings are
        // only expected at quiescent points.
        self.live_bytes.load(Ordering::Relaxed)
    }

    /// Snapshot of the cache counters.  Hits and misses are only maintained
    /// when the configuration enables cache behaviour (a byte budget or a
    /// default TTL).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            // ORDERING: relaxed statistics counters, read at reporting
            // points (each line below likewise).
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed), // ORDERING: as above.
            expired: self.expired.load(Ordering::Relaxed), // ORDERING: as above.
            evicted: self.evicted.load(Ordering::Relaxed), // ORDERING: as above.
            live_bytes: self.live_bytes(),
        }
    }

    /// The deadline word for a put carrying `ttl_ms` (`None` = the
    /// configured default TTL; `0` = immortal, the memcached convention).
    #[inline]
    pub(crate) fn deadline_for(&self, ttl_ms: Option<u64>) -> Word {
        let ttl = ttl_ms.unwrap_or(self.config.default_ttl_ms);
        if ttl == 0 {
            0
        } else {
            encode_deadline(self.now_ms().saturating_add(ttl))
        }
    }

    /// Whether `deadline` (a word from the map) has passed.  Reads the
    /// clock only for mortal entries, so immortal traffic never pays for a
    /// time source.
    #[inline]
    pub(crate) fn entry_expired(&self, deadline: Word) -> bool {
        deadline != 0 && deadline_expired(deadline, self.now_ms())
    }

    /// Charges one freshly inserted item to the account.
    #[inline]
    fn account_insert(&self, len: usize) {
        // ORDERING: relaxed statistics counter (see `live_bytes`).
        self.live_bytes.fetch_add(item_cost(len), Ordering::Relaxed);
    }

    /// Settles an overwrite: the item stays, only the payload length moved.
    #[inline]
    fn account_overwrite(&self, old_len: usize, new_len: usize) {
        if new_len >= old_len {
            self.live_bytes
                // ORDERING: relaxed statistics counter (see `live_bytes`).
                .fetch_add((new_len - old_len) as u64, Ordering::Relaxed);
        } else {
            self.live_bytes
                // ORDERING: relaxed statistics counter (see `live_bytes`).
                .fetch_sub((old_len - new_len) as u64, Ordering::Relaxed);
        }
    }

    /// Credits one physically removed item back to the account.
    #[inline]
    fn account_remove(&self, len: usize) {
        // ORDERING: relaxed statistics counter (see `live_bytes`).
        self.live_bytes.fetch_sub(item_cost(len), Ordering::Relaxed);
    }

    /// Records that an expired-but-unswept entry was physically removed or
    /// overwritten.
    #[inline]
    fn note_expired(&self) {
        // ORDERING: relaxed statistics counter (see `cache_stats`).
        self.expired.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn count_hit(&self) {
        if self.track {
            // ORDERING: relaxed statistics counter (see `cache_stats`).
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    fn count_miss(&self) {
        if self.track {
            // ORDERING: relaxed statistics counter (see `cache_stats`).
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Books one read of `key` once its outcome is final: the hit/miss
    /// counters and, under a byte budget, the hit's bump of the home
    /// bucket's frequency byte.  Every read path — single-key, pipelined
    /// batch, atomic shard group — settles here.
    #[inline]
    pub(crate) fn settle_read(&self, shard: usize, key: u64, hit: bool, thread: &mut S::Thread) {
        if !hit {
            return self.count_miss();
        }
        self.count_hit();
        if self.config.max_bytes.is_some() {
            self.shards[shard].bump_freq(key, thread);
        }
    }

    /// Returns the value stored under `key` (a short transaction on the
    /// owning shard).
    ///
    /// # Examples
    ///
    /// ```
    /// use spectm::{Stm, variants::ValShort};
    /// use spectm_ds::ApiMode;
    /// use spectm_kv::{ShardedKv, Value};
    ///
    /// let stm = ValShort::new();
    /// let store = ShardedKv::new(&stm, 4, 64, ApiMode::Short);
    /// let mut thread = store.register();
    /// assert_eq!(store.get(7, &mut thread), None);
    /// store.put(7, b"seventy", &mut thread).unwrap();
    /// assert_eq!(store.get(7, &mut thread), Some(Value::new(b"seventy")));
    /// ```
    pub fn get(&self, key: u64, thread: &mut S::Thread) -> Option<Value> {
        self.get_routed(self.router.route(key), key, thread)
    }

    /// [`ShardedKv::get`] with the shard already resolved — the expiry-aware
    /// read shared with the batched pipeline.  A passed deadline is a miss:
    /// the corpse is removed on the spot (full transaction over the shard
    /// and its index, re-checking the deadline) and `None` returned.  Live
    /// hits bump the home bucket's frequency byte when a byte budget is
    /// configured.
    pub(crate) fn get_routed(
        &self,
        shard: usize,
        key: u64,
        thread: &mut S::Thread,
    ) -> Option<Value> {
        debug_assert_eq!(shard, self.router.route(key));
        let value = match self.shards[shard].get_entry(key, thread) {
            Some((_, deadline)) if self.entry_expired(deadline) => {
                self.remove_member(shard, key, Some(self.now_ms()), thread);
                None
            }
            entry => entry.map(|(value, _)| value),
        };
        self.settle_read(shard, key, value.is_some(), thread);
        value
    }

    /// Stores `value` under `key`, returning the previous value if present,
    /// or [`KvError::ValueTooLarge`] for payloads beyond [`MAX_VALUE_LEN`].
    ///
    /// Overwriting an existing key is a short transaction on the owning
    /// shard (the hot path); inserting an absent key runs one full
    /// transaction that links the key into the shard's hash map **and** its
    /// ordered index together, preserving the index invariant.
    ///
    /// # Examples
    ///
    /// ```
    /// use spectm::{Stm, variants::ValShort};
    /// use spectm_ds::ApiMode;
    /// use spectm_kv::{ShardedKv, Value};
    ///
    /// let stm = ValShort::new();
    /// let store = ShardedKv::new(&stm, 4, 64, ApiMode::Short);
    /// let mut thread = store.register();
    /// assert_eq!(store.put(1, b"ten", &mut thread).unwrap(), None); // insert
    /// assert_eq!(
    ///     store.put(1, b"eleven", &mut thread).unwrap(),            // overwrite
    ///     Some(Value::new(b"ten"))
    /// );
    /// ```
    pub fn put(
        &self,
        key: u64,
        value: &[u8],
        thread: &mut S::Thread,
    ) -> Result<Option<Value>, KvError> {
        self.put_with_ttl(key, value, None, thread)
    }

    /// [`ShardedKv::put`] with an explicit TTL: `None` applies the
    /// configured default, `Some(0)` makes the entry immortal (the
    /// memcached convention), `Some(ms)` expires it `ms` milliseconds from
    /// now on the store's clock.  Overwriting always installs the new
    /// deadline — a put is a full refresh of the entry.
    pub fn put_with_ttl(
        &self,
        key: u64,
        value: &[u8],
        ttl_ms: Option<u64>,
        thread: &mut S::Thread,
    ) -> Result<Option<Value>, KvError> {
        if value.len() > MAX_VALUE_LEN {
            return Err(KvError::ValueTooLarge { len: value.len() });
        }
        Ok(self.put_routed(self.router.route(key), key, value, ttl_ms, thread))
    }

    /// [`ShardedKv::put_with_ttl`] with the shard already resolved and the
    /// length already checked — the body shared by the single-key path and
    /// the batched pipeline (`crate::batch`), which routes once per batch.
    pub(crate) fn put_routed(
        &self,
        shard: usize,
        key: u64,
        value: &[u8],
        ttl_ms: Option<u64>,
        thread: &mut S::Thread,
    ) -> Option<Value> {
        debug_assert!(value.len() <= MAX_VALUE_LEN);
        debug_assert_eq!(shard, self.router.route(key));
        let deadline = self.deadline_for(ttl_ms);
        let mut slots = MemberSlots::new();
        // Fast path: overwrite an existing key — membership (and thus the
        // ordered index) is unchanged.  The new deadline rides the same
        // short transaction.
        if let Some((old, old_deadline)) =
            self.shards[shard].update_entry(key, value, Some(deadline), &mut slots.value, thread)
        {
            return self.settle_overwrite(old, old_deadline, value.len());
        }
        // Slow path: the key looked absent — make it a member.  A
        // concurrent insert may win the race, in which case the membership
        // transaction degrades to an in-place update.
        let displaced = thread
            .atomic(|tx| self.insert_member_in(shard, key, value, deadline, &mut slots, tx))
            .expect("put is never cancelled");
        self.settle_put(displaced, &mut slots, value.len(), thread)
    }

    /// Removes `key`, returning the value it held.  One full transaction
    /// unlinks the key from the owning shard's hash map **and** its ordered
    /// index together, preserving the index invariant; the node and its
    /// value cell are then retired through the epoch collector.
    pub fn del(&self, key: u64, thread: &mut S::Thread) -> Option<Value> {
        self.del_routed(self.router.route(key), key, thread)
    }

    /// [`ShardedKv::del`] with the shard already resolved (see
    /// [`ShardedKv::put_routed`]).  Deleting an expired-but-unswept entry
    /// removes it physically but reports `None` — the caller never learns a
    /// dead key still existed.
    pub(crate) fn del_routed(
        &self,
        shard: usize,
        key: u64,
        thread: &mut S::Thread,
    ) -> Option<Value> {
        self.remove_member(shard, key, None, thread)?.live()
    }

    // ------------------------------------------------------------------
    // Membership: the index invariant's two transactions and their settle
    // ------------------------------------------------------------------
    //
    // The index invariant — a key is in a shard's ordered index iff it is in
    // that shard's hash map — holds because membership changes nowhere but
    // in the two `*_member_in` functions below: each changes the map slot
    // and the index tower inside one full transaction, and what it
    // allocated or unlinked is published or retired by the matching
    // `settle_*` strictly after that transaction commits.

    /// Insert-or-overwrite of `key` inside the caller's full transaction.
    /// An absent key becomes a member of the shard's map **and** index; a
    /// present one is overwritten in place (membership, and so the index,
    /// untouched) and its displaced value word returned with the deadline
    /// word it was stored under.  `slots` carries the speculative
    /// allocations across conflict retries; after the commit, hand both to
    /// [`ShardedKv::settle_put`].
    pub(crate) fn insert_member_in(
        &self,
        shard: usize,
        key: u64,
        value: &[u8],
        deadline: Word,
        slots: &mut MemberSlots<S>,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Option<(RetiredValue, Word)>> {
        let displaced = self.shards[shard].put_in(
            key,
            value,
            deadline,
            &mut slots.value,
            &mut slots.node,
            tx,
        )?;
        if displaced.is_none() {
            let linked = self.indexes[shard].insert_in(key, 0, &mut slots.tower, tx)?;
            debug_assert!(linked, "key {key} was in the index but not the shard");
        }
        Ok(displaced)
    }

    /// Settles a committed [`ShardedKv::insert_member_in`] and derives the
    /// put's result: publishes the slots the commit consumed, then books an
    /// insert, or retires the displaced word and books the overwrite.
    pub(crate) fn settle_put(
        &self,
        displaced: Option<(RetiredValue, Word)>,
        slots: &mut MemberSlots<S>,
        new_len: usize,
        thread: &mut S::Thread,
    ) -> Option<Value> {
        // Insert or overwrite, the committed attempt stored the value word.
        slots.value.mark_published();
        let Some((displaced, old_deadline)) = displaced else {
            slots.node.mark_published();
            slots.tower.mark_published();
            self.account_insert(new_len);
            return None;
        };
        let old = displaced.take(&thread.epoch().pin());
        self.settle_overwrite(old, old_deadline, new_len)
    }

    /// Books a committed overwrite and derives its logical result: the
    /// byte account moves by the payload delta, and a displaced value whose
    /// deadline had already passed was not observable — the put behaved as
    /// an insert over a corpse, so the caller reports `None` (and the
    /// corpse counts as expired).
    fn settle_overwrite(&self, old: Value, old_deadline: Word, new_len: usize) -> Option<Value> {
        self.account_overwrite(old.len(), new_len);
        if self.entry_expired(old_deadline) {
            self.note_expired();
            return None;
        }
        Some(old)
    }

    /// Removal of `key` from the shard's map **and** index inside the
    /// caller's full transaction.  With `only_expired = Some(now_ms)` the
    /// entry goes only if its deadline has passed at `now_ms` (the re-check
    /// behind lazy expiry and the sweep, whose view may be stale by now).
    /// Returns what was unlinked — after the commit, hand it to
    /// [`ShardedKv::settle_removed`] — or `None` if nothing was removed.
    pub(crate) fn remove_member_in(
        &self,
        shard: usize,
        key: u64,
        only_expired: Option<u64>,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Option<Removed<S>>> {
        let Some((value, node, deadline)) = self.shards[shard].del_in(key, only_expired, tx)?
        else {
            return Ok(None);
        };
        let tower = self.indexes[shard]
            .remove_in(key, tx)?
            .unwrap_or_else(|| panic!("key {key} was in the shard but not the index"));
        Ok(Some(Removed {
            value,
            node,
            tower,
            deadline,
        }))
    }

    /// Settles a committed [`ShardedKv::remove_member_in`]: credits the byte
    /// account, retires the value, the node and the tower, and classifies
    /// the entry — a corpse (deadline already passed) counts as expired,
    /// whichever path buried it.
    pub(crate) fn settle_removed(&self, removed: Removed<S>, thread: &mut S::Thread) -> Removal {
        let Removed {
            value,
            node,
            tower,
            deadline,
        } = removed;
        let value = value.take(&thread.epoch().pin());
        self.account_remove(value.len());
        node.retire(thread);
        tower.retire(thread);
        if self.entry_expired(deadline) {
            self.note_expired();
            return Removal::Corpse;
        }
        Removal::Live(value)
    }

    /// [`ShardedKv::remove_member_in`] as its own transaction, settled: the
    /// one removal under `del`, lazy expiry and the sweep.  `None` means
    /// nothing was removed (absent, or still live under `only_expired`) — a
    /// concurrent refresh or a racing remover turns the call into a no-op.
    fn remove_member(
        &self,
        shard: usize,
        key: u64,
        only_expired: Option<u64>,
        thread: &mut S::Thread,
    ) -> Option<Removal> {
        debug_assert_eq!(shard, self.router.route(key));
        // The call's one pin; the attempts' and the retirements' nest inside.
        let _pin = thread.epoch().pin();
        let removed = thread
            .atomic(|tx| self.remove_member_in(shard, key, only_expired, tx))
            .expect("removal is never cancelled")?;
        Some(self.settle_removed(removed, thread))
    }

    /// Atomically reads every key in `keys` inside **one full transaction**
    /// spanning the owning shards — all values belong to a single
    /// serialization point.  Returns `Ok(None)` if any key is absent, or
    /// [`KvError::TooManyKeys`] beyond [`MAX_RMW_KEYS`] keys.
    ///
    /// For large read sets where per-key (rather than cross-key) atomicity
    /// suffices, use a batch of gets ([`ShardedKv::execute_batch`]), which
    /// has no key limit.
    pub fn multi_get_atomic(
        &self,
        keys: &[u64],
        thread: &mut S::Thread,
    ) -> Result<Option<Vec<Value>>, KvError> {
        if keys.len() > MAX_RMW_KEYS {
            return Err(KvError::TooManyKeys { len: keys.len() });
        }
        let now = self.now_ms();
        Ok(thread
            .atomic(|tx| {
                let mut vals = Vec::with_capacity(keys.len());
                for &key in keys {
                    match self.shard(key).read_entry_in(key, tx)? {
                        // An expired entry is absent; physical removal is
                        // left to lazy expiry and the sweep.
                        Some((_, deadline)) if deadline_expired(deadline, now) => {
                            return Ok(None);
                        }
                        Some((v, _)) => vals.push(v),
                        None => return Ok(None),
                    }
                }
                Ok(Some(vals))
            })
            .expect("multi_get_atomic is never cancelled"))
    }

    /// Atomically reads every key in `keys`, lets `update` rewrite the
    /// values in place, and writes them back — one full transaction spanning
    /// the owning shards, serializable with all concurrent operations.
    ///
    /// Returns `Ok(false)` (writing nothing) if any key is absent,
    /// [`KvError::TooManyKeys`] beyond [`MAX_RMW_KEYS`] keys, and
    /// [`KvError::ValueTooLarge`] (writing nothing) if `update` produces a
    /// value beyond [`MAX_VALUE_LEN`].  `update` may be invoked multiple
    /// times (once per conflict retry) and must be pure with respect to
    /// everything but its argument.
    pub fn rmw<F>(
        &self,
        keys: &[u64],
        mut update: F,
        thread: &mut S::Thread,
    ) -> Result<bool, KvError>
    where
        F: FnMut(&mut [Value]),
    {
        if keys.len() > MAX_RMW_KEYS {
            return Err(KvError::TooManyKeys { len: keys.len() });
        }
        let now = self.now_ms();
        let mut slots: Vec<ValueSlot> = (0..keys.len()).map(|_| ValueSlot::new()).collect();
        let mut displaced: Vec<(RetiredValue, usize)> = Vec::with_capacity(keys.len());
        let mut oversize: Option<usize> = None;
        let outcome = thread.atomic(|tx| {
            displaced.clear();
            let mut vals = Vec::with_capacity(keys.len());
            for &key in keys {
                match self.shard(key).read_entry_in(key, tx)? {
                    // An expired entry is absent, and absence makes the
                    // whole rmw a total no-op; physical removal is left to
                    // lazy expiry and the sweep.
                    Some((_, deadline)) if deadline_expired(deadline, now) => {
                        return Ok(false);
                    }
                    Some((v, _)) => vals.push(v),
                    None => return Ok(false),
                }
            }
            update(&mut vals);
            if let Some(v) = vals.iter().find(|v| v.len() > MAX_VALUE_LEN) {
                oversize = Some(v.len());
                return tx.cancel();
            }
            for ((slot, &key), val) in slots.iter_mut().zip(keys).zip(&vals) {
                // The key was read above inside this same transaction, so
                // the write cannot miss (opacity keeps the chain stable for
                // the duration of the attempt).  A `None` deadline preserves
                // the entry's own: a read-modify-write must not refresh a
                // TTL.
                let old = self.shard(key).write_entry_in(key, val, None, slot, tx)?;
                debug_assert!(old.is_some(), "key {key} vanished within the transaction");
                displaced.extend(old.map(|(o, _)| (o, val.len())));
            }
            Ok(true)
        });
        match outcome {
            None => Err(KvError::ValueTooLarge {
                len: oversize.expect("cancel implies an oversized value"),
            }),
            Some(false) => Ok(false),
            Some(true) => {
                for slot in &mut slots {
                    slot.mark_published();
                }
                let pin = thread.epoch().pin();
                for (old, new_len) in displaced.drain(..) {
                    self.account_overwrite(old.take(&pin).len(), new_len);
                }
                Ok(true)
            }
        }
    }

    /// Adds `delta` to every key in `keys`, atomically across shards,
    /// interpreting each value as a [`Value::as_u64`] little-endian counter
    /// (and writing back the 8-byte encoding).  Returns `Ok(false)` (writing
    /// nothing) if any key is absent.
    pub fn rmw_add(
        &self,
        keys: &[u64],
        delta: u64,
        thread: &mut S::Thread,
    ) -> Result<bool, KvError> {
        self.rmw(
            keys,
            |vals| {
                for v in vals {
                    *v = Value::from_u64(v.as_u64().wrapping_add(delta));
                }
            },
            thread,
        )
    }

    /// Returns up to `limit` `(key, value)` pairs with `key >= start`, in
    /// ascending key order — the YCSB-E scan shape.
    ///
    /// One full transaction descends every shard's ordered index to
    /// `start` once, then streams a k-way merge over them, reading each
    /// key's entry through the owning hash shard as the merge yields it,
    /// until `limit` live pairs are in hand — the transaction reads what
    /// the scan returns, plus the descents.  Entries whose deadline has
    /// passed are stepped over, not counted.  The result is an **atomically
    /// consistent snapshot**: it is serializable with every concurrent
    /// operation, including multi-key [`ShardedKv::rmw`] — a scan can never
    /// observe a torn cross-shard update (the lock-free baseline's scan, by
    /// contrast, offers no such guarantee).  Value payloads are copied out
    /// inside the transaction, so the bytes are exactly the committed bytes
    /// at the scan's serialization point.
    ///
    /// # Examples
    ///
    /// ```
    /// use spectm::{Stm, variants::ValShort};
    /// use spectm_ds::ApiMode;
    /// use spectm_kv::{ShardedKv, Value};
    ///
    /// let stm = ValShort::new();
    /// let store = ShardedKv::new(&stm, 4, 64, ApiMode::Short);
    /// let mut thread = store.register();
    /// for key in 0..10u64 {
    ///     store.put(key, &(key * 100).to_le_bytes(), &mut thread).unwrap();
    /// }
    /// let run = store.scan(6, 3, &mut thread);
    /// assert_eq!(
    ///     run.iter().map(|(k, v)| (*k, v.as_u64())).collect::<Vec<_>>(),
    ///     vec![(6, 600), (7, 700), (8, 800)],
    /// );
    /// ```
    pub fn scan(&self, start: u64, limit: usize, thread: &mut S::Thread) -> Vec<(u64, Value)> {
        if limit == 0 {
            return Vec::new();
        }
        self.snapshot_run(start, u64::MAX, limit, thread)
    }

    /// Returns every `(key, value)` pair with `start <= key < end`, in
    /// ascending key order, as one atomically consistent snapshot (see
    /// [`ShardedKv::scan`] for the guarantees).
    pub fn range(&self, start: u64, end: u64, thread: &mut S::Thread) -> Vec<(u64, Value)> {
        if start >= end {
            return Vec::new();
        }
        self.snapshot_run(start, end - 1, usize::MAX, thread)
    }

    /// The one walk under [`ShardedKv::scan`] and [`ShardedKv::range`]: up
    /// to `limit >= 1` live pairs with `start <= key <= last`, read inside
    /// one full transaction.  Shards partition the key space, so the merged
    /// walk yields each key once, and the index invariant guarantees it is
    /// present in its hash shard at the transaction's serialization point.
    fn snapshot_run(
        &self,
        start: u64,
        last: u64,
        limit: usize,
        thread: &mut S::Thread,
    ) -> Vec<(u64, Value)> {
        let now = self.now_ms();
        let mut run = Vec::new();
        thread
            .atomic(|tx| {
                run.clear();
                StmSkipList::walk_merged_in(&self.indexes, start, last, tx, |shard, key, _, tx| {
                    let entry = self.shards[shard].read_entry_in(key, tx)?;
                    debug_assert!(entry.is_some(), "index key {key} missing from its shard");
                    if let Some((value, deadline)) = entry {
                        if !deadline_expired(deadline, now) {
                            run.push((key, value));
                        }
                    }
                    Ok(if run.len() < limit {
                        ControlFlow::Continue(())
                    } else {
                        ControlFlow::Break(())
                    })
                })
            })
            .expect("scans are never cancelled");
        run
    }

    /// Collects every `(key, value)` pair across all shards
    /// (non-transactional; only meaningful when no concurrent operations
    /// run).
    pub fn quiescent_snapshot(&self) -> Vec<(u64, Value)> {
        let mut out: Vec<(u64, Value)> = self
            .shards
            .iter()
            .flat_map(|s| s.quiescent_snapshot())
            .collect();
        out.sort_unstable();
        out
    }

    /// Merges the per-shard occupancy and probe-length statistics into one
    /// [`MapStats`] (non-transactional; only meaningful when no concurrent
    /// operations run).
    pub fn stats(&self) -> MapStats {
        let mut stats = MapStats::default();
        for shard in &self.shards {
            stats.merge(&shard.stats());
        }
        stats
    }

    // ------------------------------------------------------------------
    // The sweep: incremental expiry + budget eviction
    // ------------------------------------------------------------------

    /// One increment of the background sweep, callable from any registered
    /// thread (the [`crate::ttl::Reclaimer`] drives it from its own; tests
    /// call it directly for determinism).
    ///
    /// Two passes share a persistent cursor over the flattened
    /// `(shard, home bucket)` space:
    ///
    /// 1. **Expiry** — visits up to `max_buckets` buckets, removing every
    ///    entry whose deadline has passed (re-checked transactionally).  A
    ///    saturated frequency byte is halved here so further hits still
    ///    move it.
    /// 2. **Eviction** — only while [`ShardedKv::live_bytes`] exceeds the
    ///    configured budget: walks on from the cursor emptying buckets.
    ///    Under [`EvictionPolicy::Freq`] a bucket with a non-zero frequency
    ///    byte is spared and halved (CLOCK second chance — this is also the
    ///    frequency decay); under [`EvictionPolicy::Fifo`] the cursor's
    ///    bucket is emptied regardless.  Bounded by
    ///    enough whole-table passes to drain every counter, so a sweep
    ///    always ends at-or-under budget unless concurrent writers outrun
    ///    it.
    pub fn sweep_step(&self, max_buckets: usize, thread: &mut S::Thread) -> SweepOutcome {
        let per_shard = self.shards[0].bucket_count();
        debug_assert!(self.shards.iter().all(|s| s.bucket_count() == per_shard));
        let total = per_shard * self.shards.len();
        let now = self.now_ms();
        let mut outcome = SweepOutcome::default();
        let mut scratch: Vec<(u64, Word)> = Vec::new();
        for _ in 0..max_buckets.min(total) {
            let (shard, bucket) = self.advance_cursor(per_shard, total);
            outcome.scanned += 1;
            self.shards[shard].collect_bucket_entries(bucket, thread, &mut scratch);
            for &(key, deadline) in &scratch {
                if deadline_expired(deadline, now)
                    && self.remove_member(shard, key, Some(now), thread).is_some()
                {
                    outcome.expired += 1;
                }
            }
            if self.shards[shard].bucket_freq(bucket, thread) == u8::MAX {
                self.shards[shard].halve_freq(bucket, thread);
            }
        }
        let Some(budget) = self.config.max_bytes else {
            return outcome;
        };
        let mut visited = 0;
        while self.live_bytes() > budget && visited < MAX_EVICTION_PASSES * total {
            visited += 1;
            let (shard, bucket) = self.advance_cursor(per_shard, total);
            if self.config.policy == EvictionPolicy::Freq
                && self.shards[shard].bucket_freq(bucket, thread) > 0
            {
                self.shards[shard].halve_freq(bucket, thread);
                continue;
            }
            self.shards[shard].collect_bucket_entries(bucket, thread, &mut scratch);
            for &(key, _) in &scratch {
                // The bucket is being emptied: everything in it goes, and
                // the settle tells corpses from evicted live entries.
                match self.remove_member(shard, key, None, thread) {
                    Some(Removal::Corpse) => outcome.expired += 1,
                    Some(Removal::Live(_)) => {
                        // ORDERING: relaxed statistics counter (see
                        // `cache_stats`).
                        self.evicted.fetch_add(1, Ordering::Relaxed);
                        outcome.evicted += 1;
                    }
                    None => {}
                }
            }
        }
        outcome
    }

    /// Claims the next sweep position, returning `(shard, home bucket)`.
    #[inline]
    fn advance_cursor(&self, per_shard: usize, total: usize) -> (usize, usize) {
        // ORDERING: the cursor is a work-distribution hint shared between
        // sweepers; a duplicate or skipped bucket only changes which sweep
        // visits it.
        let pos = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % total;
        (pos / per_shard, pos % per_shard)
    }

    /// Checks the index invariant at quiescence: every shard's index holds
    /// exactly the keys of its hash map.  Panics on violation (test
    /// support; non-transactional).
    pub fn assert_index_consistent(&self) {
        for (i, (index, shard)) in self.indexes.iter().zip(&self.shards).enumerate() {
            let index_keys = index.quiescent_snapshot();
            let shard_keys: Vec<u64> = shard
                .quiescent_snapshot()
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            assert_eq!(
                index_keys, shard_keys,
                "shard {i}: ordered index diverged from the hash map"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectm::variants::{OrecFullG, ValShort};
    use std::collections::BTreeMap;

    #[test]
    fn routes_and_roundtrips_across_shards() {
        let stm = ValShort::new();
        let store = ShardedKv::new(&stm, 4, 16, ApiMode::Short);
        let mut t = store.register();
        let mut oracle = BTreeMap::new();
        for k in 0..500u64 {
            // Lengths sweep the inline and out-of-line regimes.
            let bytes: Vec<u8> = (0..(k % 23) as u8).map(|i| i ^ k as u8).collect();
            assert_eq!(store.put(k, &bytes, &mut t).unwrap(), None);
            oracle.insert(k, Value::from(bytes));
        }
        for k in (0..500u64).step_by(3) {
            assert_eq!(store.del(k, &mut t), oracle.remove(&k));
        }
        for k in 0..500u64 {
            assert_eq!(store.get(k, &mut t), oracle.get(&k).cloned());
        }
        assert_eq!(
            store.quiescent_snapshot(),
            oracle.into_iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn rmw_is_atomic_and_total_on_absence() {
        let stm = OrecFullG::new();
        let store = ShardedKv::new(&stm, 4, 16, ApiMode::Full);
        let mut t = store.register();
        store.put(10, &100u64.to_le_bytes(), &mut t).unwrap();
        store.put(11, &200u64.to_le_bytes(), &mut t).unwrap();
        // Absent key: nothing is written, even to the present keys.
        assert!(!store.rmw_add(&[10, 11, 999], 1, &mut t).unwrap());
        assert_eq!(store.get(10, &mut t).unwrap().as_u64(), 100);
        assert_eq!(store.get(11, &mut t).unwrap().as_u64(), 200);
        // All present: everything is written.
        assert!(store.rmw_add(&[10, 11], 1, &mut t).unwrap());
        assert_eq!(
            store.multi_get_atomic(&[10, 11], &mut t).unwrap(),
            Some(vec![Value::from_u64(101), Value::from_u64(201)])
        );
        assert_eq!(store.multi_get_atomic(&[10, 999], &mut t).unwrap(), None);
    }

    #[test]
    fn rmw_handles_duplicate_keys_and_resizing_values() {
        let stm = ValShort::new();
        let store = ShardedKv::new(&stm, 2, 16, ApiMode::Short);
        let mut t = store.register();
        store.put(5, &10u64.to_le_bytes(), &mut t).unwrap();
        // Both slots read the same cell; the second write wins.
        assert!(store
            .rmw(
                &[5, 5],
                |vals| {
                    vals[0] = Value::from_u64(vals[0].as_u64() + 1);
                    vals[1] = Value::from_u64(vals[1].as_u64() + 2);
                },
                &mut t
            )
            .unwrap());
        assert_eq!(store.get(5, &mut t).unwrap().as_u64(), 12);
        // An rmw may change a value's length (here: to an out-of-line
        // payload and back).
        assert!(store
            .rmw(&[5], |vals| vals[0] = Value::new(&[7u8; 100]), &mut t)
            .unwrap());
        assert_eq!(store.get(5, &mut t), Some(Value::new(&[7u8; 100])));
        assert!(store
            .rmw(&[5], |vals| vals[0] = Value::new(b"x"), &mut t)
            .unwrap());
        assert_eq!(store.get(5, &mut t), Some(Value::new(b"x")));
    }

    #[test]
    fn scan_streams_across_shards_in_key_order() {
        let stm = ValShort::new();
        let store = ShardedKv::new(&stm, 4, 16, ApiMode::Short);
        let mut t = store.register();
        // Neighbouring keys land on different shards (the router mixes
        // bits), so the merge switches index at almost every step.
        for k in 0..64u64 {
            store.put(k, &(k * 2).to_le_bytes(), &mut t).unwrap();
        }
        let run = store.scan(10, 7, &mut t);
        let got: Vec<(u64, u64)> = run.iter().map(|(k, v)| (*k, v.as_u64())).collect();
        let expect: Vec<(u64, u64)> = (10..17).map(|k| (k, k * 2)).collect();
        assert_eq!(got, expect);
        assert_eq!(store.scan(60, 100, &mut t).len(), 4, "tail clamps");
        assert!(store.scan(64, 5, &mut t).is_empty());
        assert!(store.scan(0, 0, &mut t).is_empty());
        assert_eq!(store.range(20, 25, &mut t).len(), 5);
        assert!(store.range(25, 20, &mut t).is_empty());
    }

    #[test]
    fn del_and_reinsert_keep_the_index_in_lockstep() {
        let stm = ValShort::new();
        let store = ShardedKv::new(&stm, 2, 16, ApiMode::Short);
        let mut t = store.register();
        for k in 0..32u64 {
            store.put(k, &k.to_le_bytes(), &mut t).unwrap();
        }
        for k in (0..32u64).step_by(2) {
            assert_eq!(store.del(k, &mut t), Some(Value::from_u64(k)));
        }
        assert_eq!(store.del(2, &mut t), None, "double delete");
        let run = store.scan(0, usize::MAX, &mut t);
        assert_eq!(run.len(), 16);
        assert!(run.iter().all(|(k, _)| k % 2 == 1), "deleted keys scanned");
        // Re-insert through the put slow path and observe them again.
        for k in (0..32u64).step_by(2) {
            assert_eq!(
                store.put(k, &(k + 100).to_le_bytes(), &mut t).unwrap(),
                None
            );
        }
        assert_eq!(store.scan(0, usize::MAX, &mut t).len(), 32);
        store.assert_index_consistent();
    }

    #[test]
    fn scan_observes_rmw_writes_atomically() {
        let stm = ValShort::new();
        let store = ShardedKv::new(&stm, 4, 16, ApiMode::Short);
        let mut t = store.register();
        store.put(1, &100u64.to_le_bytes(), &mut t).unwrap();
        store.put(2, &200u64.to_le_bytes(), &mut t).unwrap();
        assert!(store
            .rmw(
                &[1, 2],
                |v| {
                    v[0] = Value::from_u64(v[0].as_u64() - 40);
                    v[1] = Value::from_u64(v[1].as_u64() + 40);
                },
                &mut t
            )
            .unwrap());
        let got: Vec<(u64, u64)> = store
            .scan(0, 8, &mut t)
            .iter()
            .map(|(k, v)| (*k, v.as_u64()))
            .collect();
        assert_eq!(got, vec![(1, 60), (2, 240)]);
    }

    #[test]
    fn rmw_rejects_oversized_key_sets_and_values() {
        let stm = ValShort::new();
        let store = ShardedKv::new(&stm, 2, 16, ApiMode::Short);
        let mut t = store.register();
        let keys = [0u64; MAX_RMW_KEYS + 1];
        assert_eq!(
            store.rmw_add(&keys, 1, &mut t),
            Err(KvError::TooManyKeys {
                len: MAX_RMW_KEYS + 1
            })
        );
        assert_eq!(
            store.multi_get_atomic(&keys, &mut t),
            Err(KvError::TooManyKeys {
                len: MAX_RMW_KEYS + 1
            })
        );
        // An rmw whose closure inflates a value beyond the cap writes
        // nothing.
        store.put(3, b"ok", &mut t).unwrap();
        assert_eq!(
            store.rmw(
                &[3],
                |vals| vals[0] = Value::from(vec![0u8; MAX_VALUE_LEN + 1]),
                &mut t
            ),
            Err(KvError::ValueTooLarge {
                len: MAX_VALUE_LEN + 1
            })
        );
        assert_eq!(store.get(3, &mut t), Some(Value::new(b"ok")));
        // Oversized puts are rejected at the store surface too.
        assert_eq!(
            store.put(3, &vec![0u8; MAX_VALUE_LEN + 1], &mut t),
            Err(KvError::ValueTooLarge {
                len: MAX_VALUE_LEN + 1
            })
        );
    }

    use crate::ttl::{CacheConfig, Clock, EvictionPolicy};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// A small cache-mode store on a hand-driven clock (advance time by
    /// storing into the returned counter).
    /// Moves the shared manual clock to `ms`.
    fn set_now(now: &AtomicU64, ms: u64) {
        // ORDERING: single-writer test clock; nothing synchronizes
        // through it.
        now.store(ms, Ordering::Relaxed);
    }

    fn cache_store(
        max_bytes: Option<u64>,
        default_ttl_ms: u64,
        policy: EvictionPolicy,
    ) -> (ShardedKv<ValShort>, Arc<AtomicU64>) {
        let stm = ValShort::new();
        let now = Arc::new(AtomicU64::new(0));
        let config = CacheConfig {
            max_bytes,
            default_ttl_ms,
            policy,
            clock: Clock::manual(&now),
        };
        (
            ShardedKv::with_config(&stm, 2, 64, ApiMode::Short, config),
            now,
        )
    }

    #[test]
    fn expiry_is_lazy_on_get_and_counted() {
        let (store, now) = cache_store(None, 0, EvictionPolicy::Freq);
        let mut t = store.register();
        store.put_with_ttl(7, b"soon", Some(100), &mut t).unwrap();
        store.put_with_ttl(8, b"immortal", Some(0), &mut t).unwrap();
        assert_eq!(store.get(7, &mut t), Some(Value::new(b"soon")));

        set_now(&now, 99);
        assert_eq!(
            store.get(7, &mut t),
            Some(Value::new(b"soon")),
            "just before the deadline"
        );
        // The deadline itself is expired: a TTL of N ms means the entry
        // lives while `now < put_time + N`.
        set_now(&now, 100);
        assert_eq!(store.get(7, &mut t), None, "at the deadline");
        assert_eq!(store.get(7, &mut t), None, "corpse stays gone");
        assert_eq!(store.get(8, &mut t), Some(Value::new(b"immortal")));
        assert_eq!(store.cache_stats().expired, 1);
        // The corpse's bytes were released by the lazy removal.
        assert_eq!(
            store.live_bytes(),
            ITEM_OVERHEAD_BYTES + b"immortal".len() as u64
        );
        store.assert_index_consistent();
    }

    #[test]
    fn expired_entries_hide_from_scans() {
        let (store, now) = cache_store(None, 0, EvictionPolicy::Freq);
        let mut t = store.register();
        for k in 0..16u64 {
            let ttl = if k % 2 == 0 { Some(50) } else { Some(0) };
            store
                .put_with_ttl(k, &k.to_le_bytes(), ttl, &mut t)
                .unwrap();
        }
        assert_eq!(store.scan(0, usize::MAX, &mut t).len(), 16);
        set_now(&now, 51);
        let run = store.scan(0, usize::MAX, &mut t);
        assert_eq!(run.len(), 8);
        assert!(run.iter().all(|(k, _)| k % 2 == 1), "expired keys scanned");
    }

    #[test]
    fn default_ttl_applies_to_plain_puts() {
        let (store, now) = cache_store(None, 50, EvictionPolicy::Freq);
        let mut t = store.register();
        store.put(1, b"defaulted", &mut t).unwrap();
        store.put_with_ttl(2, b"longer", Some(500), &mut t).unwrap();
        store.put_with_ttl(3, b"forever", Some(0), &mut t).unwrap();
        set_now(&now, 51);
        assert_eq!(store.get(1, &mut t), None, "default TTL ignored");
        assert_eq!(store.get(2, &mut t), Some(Value::new(b"longer")));
        assert_eq!(store.get(3, &mut t), Some(Value::new(b"forever")));
        // Cache mode is on (default TTL), so reads are tallied.
        let stats = store.cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn overwrite_refreshes_the_deadline() {
        let (store, now) = cache_store(None, 0, EvictionPolicy::Freq);
        let mut t = store.register();
        store.put_with_ttl(9, b"v1", Some(100), &mut t).unwrap();
        set_now(&now, 80);
        store.put_with_ttl(9, b"v2", Some(100), &mut t).unwrap();
        set_now(&now, 160);
        assert_eq!(
            store.get(9, &mut t),
            Some(Value::new(b"v2")),
            "the overwrite restarted the clock"
        );
        set_now(&now, 181);
        assert_eq!(store.get(9, &mut t), None);
    }

    #[test]
    fn rmw_preserves_the_deadline() {
        let (store, now) = cache_store(None, 0, EvictionPolicy::Freq);
        let mut t = store.register();
        store
            .put_with_ttl(4, &10u64.to_le_bytes(), Some(100), &mut t)
            .unwrap();
        assert!(store.rmw_add(&[4], 5, &mut t).unwrap());
        assert_eq!(store.get(4, &mut t).unwrap().as_u64(), 15);
        // An in-place update is not a refresh: the original deadline holds.
        set_now(&now, 101);
        assert_eq!(store.get(4, &mut t), None);
        // And an rmw never resurrects a corpse.
        assert!(!store.rmw_add(&[4], 5, &mut t).unwrap());
    }

    #[test]
    fn sweep_reclaims_expired_entries_in_bulk() {
        let (store, now) = cache_store(None, 0, EvictionPolicy::Freq);
        let mut t = store.register();
        for k in 0..64u64 {
            store
                .put_with_ttl(k, &k.to_le_bytes(), Some(30), &mut t)
                .unwrap();
        }
        let full = store.bucket_count();
        // Nothing is due yet: a full pass scans but removes nothing.
        let outcome = store.sweep_step(full, &mut t);
        assert_eq!((outcome.expired, outcome.evicted), (0, 0));
        assert!(store.live_bytes() > 0);

        set_now(&now, 31);
        let outcome = store.sweep_step(full, &mut t);
        assert_eq!(outcome.expired, 64);
        assert_eq!(store.live_bytes(), 0);
        assert_eq!(store.cache_stats().expired, 64);
        assert!(store.scan(0, usize::MAX, &mut t).is_empty());
        store.assert_index_consistent();
    }

    #[test]
    fn byte_budget_accounting_tracks_put_overwrite_del() {
        let (store, _now) = cache_store(Some(1 << 20), 0, EvictionPolicy::Freq);
        let mut t = store.register();
        let item = |len: u64| ITEM_OVERHEAD_BYTES + len;
        store.put(1, &[0u8; 64], &mut t).unwrap();
        assert_eq!(store.live_bytes(), item(64));
        // Overwrite re-accounts to the new length, in either direction.
        store.put(1, &[0u8; 8], &mut t).unwrap();
        assert_eq!(store.live_bytes(), item(8));
        store.put(1, &[0u8; 200], &mut t).unwrap();
        assert_eq!(store.live_bytes(), item(200));
        store.put(2, &[0u8; 16], &mut t).unwrap();
        assert_eq!(store.live_bytes(), item(200) + item(16));
        store.del(1, &mut t);
        assert_eq!(store.live_bytes(), item(16));
        store.del(2, &mut t);
        assert_eq!(store.live_bytes(), 0);
    }

    #[test]
    fn eviction_drains_to_the_budget() {
        let budget = 40 * (ITEM_OVERHEAD_BYTES + 8);
        let (store, _now) = cache_store(Some(budget), 0, EvictionPolicy::Freq);
        let mut t = store.register();
        for k in 0..200u64 {
            store.put(k, &k.to_le_bytes(), &mut t).unwrap();
        }
        assert!(
            store.live_bytes() > budget,
            "writes overshoot between sweeps"
        );
        store.sweep_step(store.bucket_count(), &mut t);
        let stats = store.cache_stats();
        assert!(
            stats.live_bytes <= budget,
            "sweep left {} live bytes over the {budget} budget",
            stats.live_bytes
        );
        assert!(stats.evicted > 0);
        assert_eq!(stats.expired, 0, "nothing had a TTL");
        // The survivors are intact and consistent with the ordered index.
        for (k, v) in store.scan(0, usize::MAX, &mut t) {
            assert_eq!(v.as_u64(), k);
        }
        store.assert_index_consistent();
    }

    #[test]
    fn fifo_eviction_ignores_frequency() {
        let budget = 10 * (ITEM_OVERHEAD_BYTES + 8);
        let (store, _now) = cache_store(Some(budget), 0, EvictionPolicy::Fifo);
        let mut t = store.register();
        for k in 0..100u64 {
            store.put(k, &k.to_le_bytes(), &mut t).unwrap();
        }
        // Touch everything so every home bucket is frequency-marked; FIFO
        // must evict regardless.
        for k in 0..100u64 {
            store.get(k, &mut t);
        }
        store.sweep_step(store.bucket_count(), &mut t);
        let stats = store.cache_stats();
        assert!(stats.live_bytes <= budget);
        assert!(stats.evicted > 0);
    }

    #[test]
    fn counters_stay_dark_outside_cache_mode() {
        let stm = ValShort::new();
        let store = ShardedKv::new(&stm, 2, 64, ApiMode::Short);
        let mut t = store.register();
        store.put(1, b"x", &mut t).unwrap();
        store.get(1, &mut t);
        store.get(2, &mut t);
        let stats = store.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
        // Accounting still runs (it is cheap and keeps `with_config`
        // migrations honest), but nothing expires or evicts.
        assert_eq!(store.live_bytes(), ITEM_OVERHEAD_BYTES + 1);
        let outcome = store.sweep_step(store.bucket_count(), &mut t);
        assert_eq!((outcome.expired, outcome.evicted), (0, 0));
    }
}
