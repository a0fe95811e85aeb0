//! The per-shard transactional hash map.
//!
//! [`StmHashMap`] stores `u64 -> bytes` pairs in **cache-line bulk-chaining
//! buckets** (the Pelikan/Segcache hashtable layout adapted to STM words).
//! The table is a flat array of *home buckets*, each 8 contiguous
//! transactional words: [`BUCKET_SLOTS`] (7) *item words* plus one *stat
//! word*.  An item word packs a node pointer with a 5-bit **hash tag**
//! (bits 1..=5, free because nodes are 64-byte aligned), so a probe
//! compares tags before dereferencing and mismatched slots cost no cache
//! miss.  The stat word links to a heap-allocated *overflow bucket* once a
//! bucket's 8th key arrives (512-byte aligned, freeing bits 1..=8 of the
//! link as the per-bucket **frequency byte** the eviction policy consults —
//! saturating bump on hit, periodic halving by the reclaimer; bit 0 stays
//! clear for the `val` layout's lock bit in both word kinds).  A zero item
//! word is an empty slot; a stat word with no pointer bits ends the chain.
//! Each `Node` holds the immutable key and two transactional cells: the
//! **value word** (inline payload or [`crate::ValueCell`] pointer; see
//! [`crate::value`]) and the **deadline word** (the key's expiry time in
//! milliseconds shifted past the lock bit; zero = never expires — see
//! `encode_deadline`).  The map stores deadlines without interpreting
//! them; expiry policy (lazy expiry on read, background sweeps, byte-budget
//! eviction) lives in [`crate::ShardedKv`].
//!
//! The layout — [`Table`], [`Bucket`], the masks — and its one chain walk,
//! [`Bucket::walk`], are shared with the lock-free baseline
//! (`lockfree::LockFreeKvMap`), which instantiates them over atomics; every
//! chain read here goes through the walk with the reader each operation
//! needs (single-location, short read-only, full-transaction, peek).
//!
//! Operations exist in two shapes, selected by [`ApiMode`]:
//!
//! * **Short** (the SpecTM usage) — the slot scan uses single-location
//!   reads with tag filtering; `get` validates (slot, value, deadline) with
//!   a three-location read-only transaction; `put` on an existing key is a
//!   three-location read-write transaction; `del` clears the slot and
//!   captures the value and deadline in a three-location read-write
//!   transaction; a fresh
//!   insert is a **combined RO/RW transaction** over all 8 words of the
//!   home bucket — 7 item words and the stat word validated read-only
//!   (proving the key absent from the whole single-bucket chain at the
//!   linearization point), the claimed slot upgraded to read-write.  When
//!   the chain has already spilled into an overflow bucket, exclusion
//!   would need more than [`spectm::MAX_SHORT`] locations, so the insert
//!   falls back to a full transaction — the paper's own escape hatch for
//!   transactions that outgrow the short API.
//! * **Full** (the BaseTM usage) — each operation is one traditional
//!   transaction over the bucket walk.  [`ApiMode::Fine`] is treated as
//!   `Full` here; the fine-grained ablation only exists for the paper's
//!   figure 6 sets.
//!
//! [`StmHashMap::put_in`] / [`StmHashMap::del_in`] (and the crate-internal
//! entry read and overwrite) run the same chain walk *inside a
//! caller-provided full transaction*, which is what lets
//! [`crate::ShardedKv::rmw`] compose an atomic multi-key update across
//! shards and the store change a map slot and its index tower together.
//! Every operation pins the epoch once for the call; under a caller's pin
//! (the batched pipeline holds one per batch) that nests as a counter
//! bump.  Deleted nodes are retired through the STM's epoch collector;
//! overflow buckets are **write-once** (linked, never unlinked, freed only
//! in the map's own `Drop`), so traversals never race bucket reclamation.
//!
//! **Value-word ownership.**  A value word is owned by the map while it is
//! stored in a live node, and by exactly one thread the moment a committed
//! transaction displaces it — the overwriter that replaced it, or the
//! deleter that cleared its slot.  That owner (and nobody else) reads the
//! old payload and defers the cell's free through the epoch collector, so
//! concurrent readers copying bytes out under an epoch pin are always safe.
//! Nodes therefore never free value words themselves, except in
//! [`StmHashMap`]'s own `Drop`, where access is exclusive.
//!
//! **Linearizability of misses.**  A slot scan that finds no matching tag
//! uses only per-location linearizable reads.  A key that is continuously
//! present occupies one fixed slot (no operation moves a key between slots
//! without an intervening delete, i.e. an instant of absence), so a scan
//! that read every slot of the chain without finding the key witnessed a
//! moment at which the key was absent — the miss linearizes there.

use std::ops::ControlFlow;

use spectm::{FullTx, Stm, StmThread, TxResult, Word};
use spectm_ds::ApiMode;
use txepoch::Guard;

use crate::value::{decode_value, free_value};
use crate::{KvError, RetiredValue, Value, ValueSlot, MAX_VALUE_LEN};

/// Item words per bucket (the 8th word of the cache line is the stat word).
pub const BUCKET_SLOTS: usize = 7;

/// Bits 1..=5 of an item word: the hash tag stored beside the node pointer
/// (bit 0 stays clear for the `val` layout's lock bit).
const TAG_MASK: Word = 0x3E;

/// Mask recovering the node pointer from an item word.
pub const ITEM_PTR_MASK: Word = !(TAG_MASK | 1);

/// Bits 1..=8 of a stat word: the per-bucket frequency-counter byte.  It
/// belongs to this map's eviction policy (saturating bump on hit, halved
/// by the reclaimer's periodic decay); chain updates preserve it, and the
/// lock-free baseline, which has no eviction, only ever preserves it.
const FREQ_MASK: Word = 0x1FE;

/// Position of the frequency byte within a stat word (bit 0 stays clear
/// for the `val` layout's lock bit).
const FREQ_SHIFT: u32 = 1;

/// Saturation ceiling of the 8-bit frequency counter.
const FREQ_MAX: Word = 0xFF;

/// Mask recovering the overflow-bucket pointer from a stat word.
const CHAIN_PTR_MASK: Word = !(FREQ_MASK | 1);

/// Shift applied to a deadline (milliseconds on the store's clock) to form
/// a **deadline word**: bit 0 stays clear for the `val` layout's lock bit,
/// and the all-zero word means "never expires".
pub(crate) const DEADLINE_SHIFT: u32 = 1;

/// Keys budgeted per bucket when sizing from a capacity hint: 7 slots at
/// the ~0.75 target load factor.
const CAPACITY_PER_BUCKET: usize = 5;

// Compile-time mirror of the `bit-layout` stmlint rule: the tag and
// frequency fields leave the lock bit clear and are disjoint from the
// pointer bits they share a word with.  Alignment sufficiency (which
// depends on the instantiated `S::Cell`) is checked per-instantiation by
// `StmHashMap::LAYOUT_OK` below.
const _: () = {
    assert!(TAG_MASK & 1 == 0, "tag bits overlap the lock bit");
    assert!(FREQ_MASK & 1 == 0, "frequency bits overlap the lock bit");
    assert!(TAG_MASK & ITEM_PTR_MASK == 0, "tag overlaps node pointer");
    assert!(
        FREQ_MASK & CHAIN_PTR_MASK == 0,
        "freq overlaps chain pointer"
    );
    assert!(
        ITEM_PTR_MASK & 1 == 0,
        "item pointer mask exposes the lock bit"
    );
    assert!(
        CHAIN_PTR_MASK & 1 == 0,
        "chain pointer mask exposes the lock bit"
    );
    assert!(
        FREQ_MASK == FREQ_MAX << FREQ_SHIFT,
        "frequency byte must fill the frequency mask exactly"
    );
    assert!(
        DEADLINE_SHIFT >= 1,
        "deadline words must keep the lock bit clear"
    );
};

/// Encodes an absolute expiry time (milliseconds on the store's clock) as a
/// deadline word.  Zero means "never expires"; very large deadlines clamp
/// rather than shifting into the lock bit.
#[inline]
pub(crate) fn encode_deadline(deadline_ms: u64) -> Word {
    (deadline_ms.min((Word::MAX >> DEADLINE_SHIFT) as u64) as Word) << DEADLINE_SHIFT
}

/// Whether a deadline word has passed at `now_ms` (the zero word never
/// does).
#[inline]
pub(crate) fn deadline_expired(deadline: Word, now_ms: u64) -> bool {
    deadline != 0 && ((deadline >> DEADLINE_SHIFT) as u64) <= now_ms
}

/// A chain node: the immutable key plus two transactional words — the value
/// word and the deadline word (zero for immortal items; see
/// [`encode_deadline`]).  64-byte alignment keeps bits 0..=5 of its address
/// clear, making room for the tag bits packed into the item word.
#[repr(align(64))]
struct Node<S: Stm> {
    key: u64,
    value: S::Cell,
    deadline: S::Cell,
}

/// One 64-byte bucket of slot cells `C` (an STM cell here, an `AtomicUsize`
/// in the lock-free baseline): 7 item words and a stat word, contiguous so
/// a probe touches a single cache line (for word-sized cells; layouts with
/// fatter cells keep the same shape over more lines).  Buckets live only
/// in a [`Table`], whose contract makes every chain pointer trusted.
#[repr(align(64))]
pub struct Bucket<C> {
    item: [C; BUCKET_SLOTS],
    stat: C,
}

/// A heap-allocated overflow bucket.  The 512-byte alignment is what frees
/// the low 9 bits of the chain pointer for the lock bit and the reserved
/// frequency byte.
#[repr(align(512))]
pub struct OverflowBucket<C> {
    bucket: Bucket<C>,
}

/// Where a walk nothing stopped ended.
pub struct ChainEnd<'a, C> {
    /// The first empty item slot, with its chain position.
    pub empty: Option<(usize, &'a C)>,
    /// The last bucket, where an insert that found no empty slot links.
    pub tail: &'a Bucket<C>,
    /// The stat word read from `tail`.
    pub(crate) stat: Word,
    /// Overflow buckets walked.
    pub(crate) depth: usize,
}

impl<C> Bucket<C> {
    /// A bucket whose first item slot holds `first`; `cell` makes a cell.
    fn new(first: Word, cell: impl Fn(Word) -> C) -> Self {
        Bucket {
            item: std::array::from_fn(|i| cell(if i == 0 { first } else { 0 })),
            stat: cell(0),
        }
    }

    /// The stat word's cell.
    #[inline]
    pub fn stat(&self) -> &C {
        &self.stat
    }

    /// The one bucket-chain walk under both maps: reads this bucket's item
    /// words, hands each occupied one whose tag is `tag` (each, for `None`)
    /// to `visit`, reads the stat word and steps to the overflow bucket it
    /// links, to the end of the chain.  `read` is the caller's cell reader
    /// and gets each read's chain position (0..=6 the home items, 7 the
    /// home stat word, 8.. the overflow buckets' words alike); it may stop
    /// the walk by breaking, as may `visit`.
    #[inline]
    pub fn walk<'a, X, B>(
        &'a self,
        tag: Option<Word>,
        cx: &mut X,
        mut read: impl FnMut(&mut X, usize, &'a C) -> ControlFlow<B, Word>,
        mut visit: impl FnMut(&mut X, usize, &'a C, Word) -> ControlFlow<B>,
    ) -> ControlFlow<B, ChainEnd<'a, C>> {
        let mut bucket = self;
        let mut pos = 0;
        let mut depth = 0;
        let mut empty = None;
        loop {
            for cell in &bucket.item {
                let w = read(cx, pos, cell)?;
                if w == 0 {
                    if empty.is_none() {
                        empty = Some((pos, cell));
                    }
                } else if tag.map_or(true, |tag| w & TAG_MASK == tag) {
                    visit(cx, pos, cell, w)?;
                }
                pos += 1;
            }
            let stat = read(cx, pos, &bucket.stat)?;
            pos += 1;
            let next = (stat & CHAIN_PTR_MASK) as *const OverflowBucket<C>;
            if next.is_null() {
                let tail = bucket;
                return ControlFlow::Continue(ChainEnd {
                    empty,
                    tail,
                    stat,
                    depth,
                });
            }
            depth += 1;
            // SAFETY: buckets are reachable only through their `Table`, whose
            // contract makes a chain pointer an `OverflowBucket::alloc`
            // allocation that only `Table::free` (which needs `&mut` to the
            // table this walk borrows) frees.
            bucket = unsafe { &(*next).bucket };
        }
    }
}

impl<C> OverflowBucket<C> {
    /// A fresh overflow bucket born holding `first` — the item word of the
    /// node it is linked in for; `cell` makes a cell.
    pub fn alloc(first: Word, cell: impl Fn(Word) -> C) -> *mut Self {
        Box::into_raw(Box::new(OverflowBucket {
            bucket: Bucket::new(first, cell),
        }))
    }
}

/// The flat array of home buckets both maps hash into — the one sizing
/// rule, home-bucket choice and tag — and the owner of every overflow
/// bucket chained below them.
pub struct Table<C> {
    buckets: Vec<Bucket<C>>,
    mask: u64,
}

impl<C> Table<C> {
    /// A table for about `capacity` keys: `capacity / 5` buckets rounded
    /// up to a power of two (7 slots at the ~0.75 target load factor, where
    /// overflow chains stay rare); `cell` makes a cell.
    ///
    /// # Safety
    ///
    /// [`Bucket::walk`] follows and [`Table::free`] frees the chain pointer
    /// of every stat word in the table's chains: the caller must store no
    /// chain pointer but null and [`OverflowBucket::alloc`] allocations,
    /// each linked once and freed by nothing but [`Table::free`].
    pub unsafe fn new(capacity: usize, cell: impl Fn(Word) -> C) -> Self {
        let len = capacity
            .div_ceil(CAPACITY_PER_BUCKET)
            .next_power_of_two()
            .max(1);
        Self {
            buckets: (0..len).map(|_| Bucket::new(0, &cell)).collect(),
            mask: len as u64 - 1,
        }
    }

    /// Number of home buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// `key`'s home bucket and its hash tag, shifted into tag position.
    /// The tag is the top of the hash, independent of the index bits (17..).
    #[inline]
    pub fn home(&self, key: u64) -> (&Bucket<C>, Word) {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let bucket = &self.buckets[((h >> 17) & self.mask) as usize];
        (bucket, (((h >> 59) as Word) << 1) & TAG_MASK)
    }

    /// Walks every chain, handing each occupied item word to `visit` with
    /// its bucket's depth (0 = home); returns the number of overflow
    /// buckets.  `read` is a peek or a plain load.
    pub fn visit_all(
        &self,
        read: impl Fn(&C) -> Word,
        mut visit: impl FnMut(usize, Word),
    ) -> usize {
        let mut overflow = 0;
        for home in &self.buckets {
            let walk = home.walk(
                None,
                &mut (),
                |_, _, cell| ControlFlow::Continue(read(cell)),
                |_, pos, _, w| {
                    visit(pos / (BUCKET_SLOTS + 1), w);
                    ControlFlow::<std::convert::Infallible>::Continue(())
                },
            );
            match walk {
                ControlFlow::Continue(end) => overflow += end.depth,
                ControlFlow::Break(never) => match never {},
            }
        }
        overflow
    }

    /// Occupancy and probe-length statistics (quiescent).
    pub fn stats(&self, read: impl Fn(&C) -> Word) -> MapStats {
        let mut stats = MapStats {
            home_buckets: self.buckets.len(),
            ..MapStats::default()
        };
        stats.overflow_buckets = self.visit_all(read, |depth, _| {
            stats.keys += 1;
            if depth == 0 {
                stats.occupied_home_slots += 1;
            }
            if stats.probe_histogram.len() <= depth {
                stats.probe_histogram.resize(depth + 1, 0);
            }
            stats.probe_histogram[depth] += 1;
        });
        stats
    }

    /// Empties the table (exclusive access) — the owning walk under both
    /// maps' `Drop`: every occupied item word to `free_node`, then the
    /// overflow buckets.
    pub fn free(&mut self, read: impl Fn(&C) -> Word, mut free_node: impl FnMut(Word)) {
        self.visit_all(&read, |_, w| free_node(w));
        for home in std::mem::take(&mut self.buckets) {
            let mut next = read(&home.stat) & CHAIN_PTR_MASK;
            while next != 0 {
                // SAFETY: per `Table::new`, `next` is an `OverflowBucket::alloc`
                // box linked once and freed nowhere else; its home bucket
                // just left the table, so this frees it exactly once.
                let overflow = unsafe { Box::from_raw(next as *mut OverflowBucket<C>) };
                next = read(&overflow.bucket.stat) & CHAIN_PTR_MASK;
            }
        }
    }
}

/// A candidate found by a slot scan: the cell it was read from, the exact
/// word that cell held, and the node behind the pointer.  The word ties the
/// node to its slot — every mutation protocol re-reads the cell and bails
/// if it no longer holds `word`.
struct Candidate<'a, S: Stm> {
    cell: &'a S::Cell,
    word: Word,
    node: &'a Node<S>,
}

/// Reusable allocation slot for [`StmHashMap::put_in`].
///
/// A full transaction's body may run several times (once per conflict
/// retry); the slot keeps the speculatively allocated node — and, when the
/// home bucket is full, the speculative overflow bucket — alive across
/// retries so each logical insert allocates at most once.  After the
/// enclosing [`spectm::StmThread::atomic`] **commits an attempt in which
/// `put_in` returned `None`** (a fresh insert), the caller must call
/// [`NodeSlot::mark_published`]; otherwise dropping the slot frees the
/// never-published allocations.
pub struct NodeSlot<S: Stm> {
    ptr: *mut Node<S>,
    chain: *mut OverflowBucket<S::Cell>,
    /// Whether the most recent attempt linked `chain` into the map.  The
    /// committed attempt is always the last one to run, so this flag is
    /// accurate at `mark_published` time.
    chain_used: bool,
}

impl<S: Stm> NodeSlot<S> {
    /// Creates an empty slot.
    pub fn new() -> Self {
        Self {
            ptr: std::ptr::null_mut(),
            chain: std::ptr::null_mut(),
            chain_used: false,
        }
    }

    /// Declares the slot's allocations published: a transaction in which
    /// [`StmHashMap::put_in`] returned `None` has committed, so the node
    /// (and the overflow bucket, if that attempt linked one) is now owned
    /// by the map.
    pub fn mark_published(&mut self) {
        self.ptr = std::ptr::null_mut();
        if self.chain_used {
            self.chain = std::ptr::null_mut();
        }
    }
}

impl<S: Stm> Default for NodeSlot<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Stm> Drop for NodeSlot<S> {
    fn drop(&mut self) {
        if !self.ptr.is_null() {
            // SAFETY: per the contract above, a non-null pointer at drop time
            // means the node was never published.  Its value word is managed
            // by the companion `ValueSlot` (nodes never own value words), so
            // only the node box is freed here.
            drop(unsafe { Box::from_raw(self.ptr) });
        }
        if !self.chain.is_null() {
            // SAFETY: as above — never linked into any chain.
            drop(unsafe { Box::from_raw(self.chain) });
        }
    }
}

/// A node unlinked by [`StmHashMap::del_in`], awaiting epoch retirement.
///
/// After the enclosing transaction **commits**, call [`RetiredNode::retire`]
/// to hand the node to the epoch collector.  If the transaction aborted or
/// was retried, simply drop the value (the node is still linked; dropping
/// does nothing).
#[must_use = "call retire() after the transaction commits"]
pub struct RetiredNode<S: Stm> {
    ptr: *mut Node<S>,
}

impl<S: Stm> RetiredNode<S> {
    /// Defers destruction of the unlinked node through the thread's epoch
    /// collector.  Only call after the removing transaction committed.
    pub fn retire(self, thread: &mut S::Thread) {
        let pin = thread.epoch().pin();
        // SAFETY: the committed transaction cleared the node's slot, so it
        // is unreachable for new operations; pinned readers are protected
        // by the epoch.  The node's value word is retired separately by the
        // companion `RetiredValue`.
        unsafe { pin.defer_drop(self.ptr) };
    }
}

/// Occupancy and probe-length statistics for one [`StmHashMap`], collected
/// quiescently by [`StmHashMap::stats`] (merge shards with
/// [`MapStats::merge`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapStats {
    /// Number of keys present.
    pub keys: usize,
    /// Number of home buckets (the flat array).
    pub home_buckets: usize,
    /// Number of linked overflow buckets.
    pub overflow_buckets: usize,
    /// Occupied item slots in home buckets (excludes overflow slots).
    pub occupied_home_slots: usize,
    /// `probe_histogram[d]` counts the keys whose lookup touches `d + 1`
    /// buckets (home bucket = depth 1).
    pub probe_histogram: Vec<usize>,
}

impl MapStats {
    /// Keys per home-bucket slot: `keys / (home_buckets * BUCKET_SLOTS)`.
    pub fn load_factor(&self) -> f64 {
        if self.home_buckets == 0 {
            return 0.0;
        }
        self.keys as f64 / (self.home_buckets * BUCKET_SLOTS) as f64
    }

    /// Fraction of keys whose lookup touches at most `buckets` buckets
    /// (`1.0` for an empty map).
    pub fn fraction_within(&self, buckets: usize) -> f64 {
        if self.keys == 0 {
            return 1.0;
        }
        let within: usize = self.probe_histogram.iter().take(buckets).sum();
        within as f64 / self.keys as f64
    }

    /// Longest probe, in buckets (0 for an empty map).
    pub fn max_probe(&self) -> usize {
        self.probe_histogram.len()
    }

    /// Accumulates `other` into `self` (used to merge per-shard stats).
    pub fn merge(&mut self, other: &MapStats) {
        self.keys += other.keys;
        self.home_buckets += other.home_buckets;
        self.overflow_buckets += other.overflow_buckets;
        self.occupied_home_slots += other.occupied_home_slots;
        if self.probe_histogram.len() < other.probe_histogram.len() {
            self.probe_histogram.resize(other.probe_histogram.len(), 0);
        }
        for (d, n) in other.probe_histogram.iter().enumerate() {
            self.probe_histogram[d] += n;
        }
    }
}

impl std::fmt::Display for MapStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "keys={} load={:.3} home_buckets={} overflow_buckets={} probes<=1 {:.1}% probes<=2 {:.1}%",
            self.keys,
            self.load_factor(),
            self.home_buckets,
            self.overflow_buckets,
            100.0 * self.fraction_within(1),
            100.0 * self.fraction_within(2),
        )
    }
}

/// A transactional hash map from `u64` keys to byte values (at most
/// [`MAX_VALUE_LEN`] bytes each).
///
/// # Examples
///
/// ```
/// use spectm::{Stm, variants::ValShort};
/// use spectm_ds::ApiMode;
/// use spectm_kv::{StmHashMap, Value};
///
/// let stm = ValShort::new();
/// let map = StmHashMap::new(&stm, 64, ApiMode::Short);
/// let mut thread = stm.register();
/// assert_eq!(map.put(17, b"alpha", &mut thread).unwrap(), None);
/// assert_eq!(map.get(17, &mut thread), Some(Value::new(b"alpha")));
/// assert_eq!(
///     map.put(17, b"a longer, out-of-line value", &mut thread).unwrap(),
///     Some(Value::new(b"alpha"))
/// );
/// assert_eq!(
///     map.del(17, &mut thread),
///     Some(Value::new(b"a longer, out-of-line value"))
/// );
/// assert_eq!(map.get(17, &mut thread), None);
/// ```
pub struct StmHashMap<S: Stm> {
    stm: S,
    table: Table<S::Cell>,
    mode: ApiMode,
}

#[inline]
pub(crate) fn check_len(value: &[u8]) -> Result<(), KvError> {
    if value.len() > MAX_VALUE_LEN {
        Err(KvError::ValueTooLarge { len: value.len() })
    } else {
        Ok(())
    }
}

impl<S: Stm> StmHashMap<S> {
    /// Per-instantiation layout checks, forced from [`Self::new`]: the node
    /// and overflow-bucket alignments must clear at least the address bits
    /// the tag and frequency fields are packed into, and for word-sized
    /// cells a home bucket must be exactly one cache line.
    const LAYOUT_OK: () = {
        assert!(std::mem::align_of::<Node<S>>() as Word > TAG_MASK);
        assert!(std::mem::align_of::<OverflowBucket<S::Cell>>() as Word > FREQ_MASK);
        assert!(std::mem::align_of::<Bucket<S::Cell>>() >= 64);
        if std::mem::size_of::<S::Cell>() == std::mem::size_of::<Word>() {
            assert!(std::mem::size_of::<Bucket<S::Cell>>() == 64);
        }
    };

    /// Creates a map sized for about `capacity` keys (a hint, not a limit:
    /// the bucket array is fixed at `capacity / 5` buckets, rounded up to a
    /// power of two, targeting the ~0.75 load factor at which overflow
    /// chains stay rare; past the hint the map keeps growing through
    /// overflow buckets), driven through the given [`ApiMode`].
    pub fn new(stm: &S, capacity: usize, mode: ApiMode) -> Self
    where
        S: Clone,
    {
        let () = Self::LAYOUT_OK;
        Self {
            stm: stm.clone(),
            // SAFETY: stat words receive only null chain pointers and
            // `OverflowBucket::alloc` buckets, each linked once by the commit
            // of `put_short` or `put_in`; `Drop` frees them through the table.
            table: unsafe { Table::new(capacity, |w| stm.new_cell(w)) },
            mode,
        }
    }

    /// The API mode this instance drives.
    pub fn mode(&self) -> ApiMode {
        self.mode
    }

    /// Number of home buckets.
    pub fn bucket_count(&self) -> usize {
        self.table.bucket_count()
    }

    /// Hints the CPU to pull `key`'s home bucket into cache — the batched
    /// pipeline issues this a few operations ahead of the dispatch so the
    /// probe's slot scan overlaps earlier operations (`crate::batch`).
    /// With the flat bucket layout the one prefetched line covers the
    /// entire probe for ~95% of keys at the target load factor.  Purely
    /// advisory; a no-op on architectures without a prefetch primitive.
    #[inline]
    pub fn prefetch_bucket(&self, key: u64) {
        let bucket: *const Bucket<S::Cell> = self.table.home(key).0;
        #[cfg(target_arch = "x86_64")]
        // SAFETY: prefetch is a hint and never faults, for any address.
        unsafe {
            core::arch::x86_64::_mm_prefetch(bucket.cast::<i8>(), core::arch::x86_64::_MM_HINT_T0)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let _ = bucket;
    }

    #[inline]
    fn node(w: Word) -> *mut Node<S> {
        (w & ITEM_PTR_MASK) as *mut Node<S>
    }

    /// The map's one node dereference.  Every `w` handed here was read from
    /// one of this map's item slots by a thread that holds an epoch pin (an
    /// operation's, or a full transaction attempt's) or that has no
    /// concurrent writers (quiescence), and the node is used only while
    /// that lasts.
    #[inline]
    fn node_at(&self, w: Word) -> &Node<S> {
        // SAFETY: per the above — a node is retired only after its slot is
        // cleared and freed only once every pin older than the retirement
        // is released.
        unsafe { &*Self::node(w) }
    }

    /// Whether the occupied slot `cell`, holding `w`, is `key`'s: the one
    /// "is this the key" under every search.
    #[inline]
    fn hit<'a>(&'a self, key: u64, cell: &'a S::Cell, w: Word) -> Option<Candidate<'a, S>> {
        let node = self.node_at(w);
        (node.key == key).then_some(Candidate {
            cell,
            word: w,
            node,
        })
    }

    fn alloc_node(&self, key: u64, word: Word, deadline: Word) -> *mut Node<S> {
        Box::into_raw(Box::new(Node {
            key,
            value: self.stm.new_cell(word),
            deadline: self.stm.new_cell(deadline),
        }))
    }

    /// Returns the value stored under `key`.
    pub fn get(&self, key: u64, thread: &mut S::Thread) -> Option<Value> {
        self.get_entry(key, thread).map(|(value, _)| value)
    }

    /// [`StmHashMap::get`] plus the entry's deadline word — the store's
    /// expiry-aware read (the map itself stores deadlines without
    /// interpreting them; expiry policy lives in [`crate::ShardedKv`]).
    pub(crate) fn get_entry(&self, key: u64, thread: &mut S::Thread) -> Option<(Value, Word)> {
        match self.mode {
            ApiMode::Short => {
                let pin = thread.epoch().pin();
                thread.retry(|thread| self.attempt_get(key, &pin, thread))
            }
            ApiMode::Full | ApiMode::Fine => thread
                .atomic(|tx| self.read_entry_in(key, tx))
                .expect("get is never cancelled"),
        }
    }

    /// Stores `value` under `key`, returning the previous value if present.
    pub fn put(
        &self,
        key: u64,
        value: &[u8],
        thread: &mut S::Thread,
    ) -> Result<Option<Value>, KvError> {
        check_len(value)?;
        let mut slot = ValueSlot::new();
        Ok(self
            .put_entry(key, value, 0, &mut slot, thread)
            .map(|(value, _)| value))
    }

    /// Insert-or-overwrite storing an explicit deadline word, returning the
    /// displaced value and the deadline word it was stored under.  The
    /// length must already be checked.
    pub(crate) fn put_entry(
        &self,
        key: u64,
        value: &[u8],
        deadline: Word,
        slot: &mut ValueSlot,
        thread: &mut S::Thread,
    ) -> Option<(Value, Word)> {
        match self.mode {
            ApiMode::Short => self.put_short(key, value, deadline, slot, thread),
            ApiMode::Full | ApiMode::Fine => self.put_full(key, value, deadline, slot, thread),
        }
    }

    /// Overwrites the value under an **existing** `key`, returning the
    /// displaced value and the deadline word it was stored under; returns
    /// `None` (inserting nothing) if the key is absent.  The
    /// membership-preserving half of a put: in Short mode it is one
    /// three-location read-write transaction, never the insert path.
    /// `deadline` of `None` preserves the entry's current deadline word;
    /// `Some(word)` installs a new one.  `slot` keeps the encoding, so a
    /// following [`StmHashMap::put_in`] of the same payload reuses it (the
    /// store's put fast path).  The length must already be checked.
    pub(crate) fn update_entry(
        &self,
        key: u64,
        value: &[u8],
        deadline: Option<Word>,
        slot: &mut ValueSlot,
        thread: &mut S::Thread,
    ) -> Option<(Value, Word)> {
        // The call's one pin: the scan dereferences nodes under it, and the
        // full path's attempts and the retirement below nest inside it.
        let pin = thread.epoch().pin();
        let (displaced, old_deadline) = match self.mode {
            ApiMode::Short => {
                let word = slot.encode_once(value);
                thread.retry(|thread| {
                    let Some(c) = self.find_short(key, &pin, thread) else {
                        return Some(None);
                    };
                    self.attempt_overwrite(&c, word, deadline, thread).map(Some)
                })?
            }
            ApiMode::Full | ApiMode::Fine => thread
                .atomic(|tx| self.write_entry_in(key, value, deadline, slot, tx))
                .expect("update is never cancelled")?,
        };
        slot.mark_published();
        Some((displaced.take(&pin), old_deadline))
    }

    /// Removes `key`, returning the value it held.
    pub fn del(&self, key: u64, thread: &mut S::Thread) -> Option<Value> {
        self.del_entry(key, thread).map(|(value, _)| value)
    }

    /// [`StmHashMap::del`] plus the removed entry's deadline word.
    pub(crate) fn del_entry(&self, key: u64, thread: &mut S::Thread) -> Option<(Value, Word)> {
        match self.mode {
            ApiMode::Short => self.del_short(key, thread),
            ApiMode::Full | ApiMode::Fine => {
                let pin = thread.epoch().pin();
                let (value, node, deadline) = thread
                    .atomic(|tx| self.del_in(key, None, tx))
                    .expect("del is never cancelled")?;
                node.retire(thread);
                Some((value.take(&pin), deadline))
            }
        }
    }

    /// Collects every `(key, value)` pair currently present
    /// (non-transactional; only meaningful when no concurrent operations
    /// run).
    pub fn quiescent_snapshot(&self) -> Vec<(u64, Value)> {
        let mut out = Vec::new();
        self.table.visit_all(S::peek, |_, w| {
            let node = self.node_at(w);
            // SAFETY: quiescence — the cell cannot be freed concurrently.
            out.push((node.key, unsafe { decode_value(S::peek(&node.value)) }));
        });
        out.sort_unstable();
        out
    }

    /// Collects occupancy and probe-length statistics (non-transactional;
    /// only meaningful when no concurrent operations run).
    pub fn stats(&self) -> MapStats {
        self.table.stats(S::peek)
    }

    // ------------------------------------------------------------------
    // Short-transaction implementation
    // ------------------------------------------------------------------

    /// Walks `key`'s chain with single-location reads.  `_pin` is the
    /// operation's epoch pin: the candidate's node reference cannot outlive
    /// it.
    fn find_short<'g>(
        &'g self,
        key: u64,
        _pin: &'g Guard,
        thread: &mut S::Thread,
    ) -> Option<Candidate<'g, S>> {
        let (home, tag) = self.table.home(key);
        let walk = home.walk(
            Some(tag),
            thread,
            |thread, _, cell| ControlFlow::Continue(thread.single_read(cell)),
            |_, _, cell, w| match self.hit(key, cell, w) {
                Some(c) => ControlFlow::Break(c),
                None => ControlFlow::Continue(()),
            },
        );
        match walk {
            ControlFlow::Break(c) => Some(c),
            ControlFlow::Continue(_) => None,
        }
    }

    /// One attempt of the short get protocol; `None` means validation
    /// failed and the caller should retry.
    #[inline]
    fn attempt_get(
        &self,
        key: u64,
        pin: &Guard,
        thread: &mut S::Thread,
    ) -> Option<Option<(Value, Word)>> {
        let Some(c) = self.find_short(key, pin, thread) else {
            return Some(None);
        };
        // Membership, value and deadline must be observed together: a
        // three-location read-only short transaction over (slot, value,
        // deadline).
        let w = thread.ro_read(0, c.cell);
        if w != c.word {
            return None;
        }
        let value = thread.ro_read(1, &c.node.value);
        let deadline = thread.ro_read(2, &c.node.deadline);
        if !thread.ro_is_valid(3) {
            return None;
        }
        // SAFETY: `pin` predates any retirement of the cell behind the
        // validated word, so it cannot have been freed yet.
        Some(Some((unsafe { decode_value(value) }, deadline)))
    }

    /// One attempt at the update-in-place protocol: a three-location short
    /// read-write transaction over (slot, value, deadline).  Re-reading the
    /// slot both checks membership and guards against a concurrent delete
    /// committing between the scan and the write.  A `deadline` of `None`
    /// preserves the entry's deadline by writing back the word just read.
    /// Returns the displaced value word (now owned by this thread) and the
    /// deadline word it was stored under, or `None` when the attempt did
    /// not commit — validation failed, or the slot no longer holds the
    /// candidate (deleted, possibly reinserted elsewhere): search again.
    fn attempt_overwrite(
        &self,
        c: &Candidate<'_, S>,
        word: Word,
        deadline: Option<Word>,
        thread: &mut S::Thread,
    ) -> Option<(RetiredValue, Word)> {
        let w = thread.rw_read(0, c.cell);
        if !thread.rw_is_valid(1) {
            return None;
        }
        if w != c.word {
            thread.rw_abort(1);
            return None;
        }
        let old = thread.rw_read(1, &c.node.value);
        let old_deadline = thread.rw_read(2, &c.node.deadline);
        if !thread.rw_is_valid(3) {
            return None;
        }
        let new_deadline = deadline.unwrap_or(old_deadline);
        thread
            .rw_commit(3, &[c.word, word, new_deadline])
            .then(|| (RetiredValue::new(old), old_deadline))
    }

    fn put_short(
        &self,
        key: u64,
        value: &[u8],
        deadline: Word,
        slot: &mut ValueSlot,
        thread: &mut S::Thread,
    ) -> Option<(Value, Word)> {
        let word = slot.encode_once(value);
        let (home, tag) = self.table.home(key);
        // Speculative allocations, reused across attempts and freed by the
        // slot's drop if this operation ends up not publishing them.
        let mut scratch = NodeSlot::<S>::new();
        let pin = thread.epoch().pin();
        thread.retry(|thread| {
            // One walk doubling as the read-only half of the insert
            // transaction: the home bucket's 7 item words and its stat
            // word are read-only reads 0..=7, so a committed insert has
            // validated the key's absence from the entire single-bucket
            // chain at its linearization point.  Past the home bucket the
            // walk reads single locations, and it ends at the first read
            // past the home bucket once the key is found.
            let mut cx = (thread, None);
            let walk = home.walk(
                Some(tag),
                &mut cx,
                |(thread, found), pos, cell| match pos {
                    0..=BUCKET_SLOTS => ControlFlow::Continue(thread.ro_read(pos, cell)),
                    _ if found.is_some() => ControlFlow::Break(()),
                    _ => ControlFlow::Continue(thread.single_read(cell)),
                },
                |(_, found), _, cell, w| {
                    if found.is_none() {
                        *found = self.hit(key, cell, w);
                    }
                    ControlFlow::Continue(())
                },
            );
            let (thread, found) = cx;
            if let Some(c) = found {
                let (displaced, old_deadline) =
                    self.attempt_overwrite(&c, word, Some(deadline), thread)?;
                slot.mark_published();
                return Some(Some((displaced.take(&pin), old_deadline)));
            }
            let ControlFlow::Continue(end) = walk else {
                unreachable!("the walk stops early only once the key is found");
            };
            if end.depth > 0 {
                // The chain already spans 2+ buckets: proving the key
                // absent would need more than MAX_SHORT validated
                // locations, so insert through a full transaction — the
                // paper's fallback for transactions that outgrow the
                // short API.
                return Some(self.put_full(key, value, deadline, slot, thread));
            }
            if scratch.ptr.is_null() {
                scratch.ptr = self.alloc_node(key, word, deadline);
            }
            let tagged = scratch.ptr as Word | tag;
            let committed = if let Some((e, _)) = end.empty {
                // Claim the free slot: upgrade it into the RW set and
                // commit, validating the other 7 words read-only.
                thread.upgrade_ro_to_rw(e, 0) && thread.ro_rw_commit(BUCKET_SLOTS + 1, 1, &[tagged])
            } else {
                // Bucket full with no chain yet: publish the node inside a
                // fresh overflow bucket by linking it through the stat
                // word (preserving the reserved frequency byte).  This
                // call's node never changes, so the bucket is born
                // holding it.
                if scratch.chain.is_null() {
                    scratch.chain = OverflowBucket::alloc(tagged, |w| self.stm.new_cell(w));
                }
                scratch.chain_used = true;
                let chain_word = scratch.chain as Word | (end.stat & FREQ_MASK);
                thread.upgrade_ro_to_rw(BUCKET_SLOTS, 0)
                    && thread.ro_rw_commit(BUCKET_SLOTS + 1, 1, &[chain_word])
            };
            if committed {
                slot.mark_published();
                scratch.mark_published();
                return Some(None);
            }
            scratch.chain_used = false;
            None
        })
    }

    fn del_short(&self, key: u64, thread: &mut S::Thread) -> Option<(Value, Word)> {
        let pin = thread.epoch().pin();
        thread.retry(|thread| {
            let Some(c) = self.find_short(key, &pin, thread) else {
                return Some(None);
            };
            // A three-location short transaction: clear the slot and
            // capture the value and deadline, atomically.  Works at any
            // chain depth — no predecessor pointer exists in the bucket
            // layout.
            let w = thread.rw_read(0, c.cell);
            if !thread.rw_is_valid(1) {
                return None;
            }
            if w != c.word {
                // Deleted (and possibly reused) concurrently; re-search.
                thread.rw_abort(1);
                return None;
            }
            let value = thread.rw_read(1, &c.node.value);
            let deadline = thread.rw_read(2, &c.node.deadline);
            if !thread.rw_is_valid(3) || !thread.rw_commit(3, &[0, value, deadline]) {
                return None;
            }
            // SAFETY: the committed delete cleared the slot, so the node is
            // unreachable for new scans; pinned readers are protected.
            unsafe { pin.defer_drop(Self::node(c.word)) };
            // The same commit made this thread the value word's owner.
            let value = RetiredValue::new(value).take(&pin);
            Some(Some((value, deadline)))
        })
    }

    // ------------------------------------------------------------------
    // Frequency byte and sweep support (the store's eviction machinery)
    // ------------------------------------------------------------------

    /// Current value of home bucket `idx`'s frequency byte (one
    /// single-location read).
    pub(crate) fn bucket_freq(&self, idx: usize, thread: &mut S::Thread) -> u8 {
        let stat = thread.single_read(&self.table.buckets[idx].stat);
        ((stat & FREQ_MASK) >> FREQ_SHIFT) as u8
    }

    /// Best-effort saturating bump of `key`'s home-bucket frequency byte:
    /// one single-location short read-write transaction, no retry — a lost
    /// bump under contention is fine (the counter is a popularity
    /// heuristic, not a count).
    pub(crate) fn bump_freq(&self, key: u64, thread: &mut S::Thread) {
        let (home, _) = self.table.home(key);
        let stat = thread.rw_read(0, &home.stat);
        if !thread.rw_is_valid(1) {
            return;
        }
        if (stat & FREQ_MASK) >> FREQ_SHIFT >= FREQ_MAX {
            thread.rw_abort(1);
            return;
        }
        let _ = thread.rw_commit(1, &[stat + (1 << FREQ_SHIFT)]);
    }

    /// Best-effort halving of home bucket `idx`'s frequency byte — the
    /// reclaimer's periodic decay.  One attempt, no retry.
    pub(crate) fn halve_freq(&self, idx: usize, thread: &mut S::Thread) {
        let cell = &self.table.buckets[idx].stat;
        let stat = thread.rw_read(0, cell);
        if !thread.rw_is_valid(1) {
            return;
        }
        let freq = (stat & FREQ_MASK) >> FREQ_SHIFT;
        if freq == 0 {
            thread.rw_abort(1);
            return;
        }
        let halved = (stat & !FREQ_MASK) | ((freq >> 1) << FREQ_SHIFT);
        let _ = thread.rw_commit(1, &[halved]);
    }

    /// Collects `(key, deadline word)` for every item currently chained
    /// under home bucket `idx` via single-location reads — the reclaimer's
    /// best-effort sweep snapshot.  Each candidate must be re-checked
    /// inside the transaction that removes it (the snapshot can be stale by
    /// the time the removal runs).
    pub(crate) fn collect_bucket_entries(
        &self,
        idx: usize,
        thread: &mut S::Thread,
        out: &mut Vec<(u64, Word)>,
    ) {
        out.clear();
        let _pin = thread.epoch().pin();
        let _ = self.table.buckets[idx].walk(
            None,
            thread,
            |thread, _, cell| ControlFlow::Continue(thread.single_read(cell)),
            |thread, _, _, w| {
                let node = self.node_at(w);
                out.push((node.key, thread.single_read(&node.deadline)));
                ControlFlow::<()>::Continue(())
            },
        );
    }

    // ------------------------------------------------------------------
    // Full transactions: the chain walk and what each operation does with
    // its answer
    // ------------------------------------------------------------------

    /// Walks `key`'s chain inside the caller's full transaction — the walk
    /// under every full-transaction operation: `Break` is the key's slot,
    /// `Continue` a miss with every item and stat word of the chain in the
    /// read set, so a commit validates the absence.  The references it
    /// returns are for use within the same attempt only
    /// ([`StmThread::atomic`] pins the epoch for the attempt, and opacity
    /// keeps everything the attempt read reachable).
    fn probe_in<'a>(
        &'a self,
        key: u64,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<ControlFlow<Candidate<'a, S>, ChainEnd<'a, S::Cell>>> {
        let (home, tag) = self.table.home(key);
        let walk = home.walk(
            Some(tag),
            tx,
            |tx, _, cell| match tx.read(cell) {
                Ok(w) => ControlFlow::Continue(w),
                Err(abort) => ControlFlow::Break(Err(abort)),
            },
            |_, _, cell, w| match self.hit(key, cell, w) {
                Some(c) => ControlFlow::Break(Ok(c)),
                None => ControlFlow::Continue(()),
            },
        );
        Ok(match walk {
            ControlFlow::Break(hit) => ControlFlow::Break(hit?),
            ControlFlow::Continue(end) => ControlFlow::Continue(end),
        })
    }

    /// Replaces a found entry's value word (and, with `Some`, its deadline
    /// word) inside the caller's transaction, returning the displaced value
    /// word and the deadline word it was stored under.
    fn overwrite_in(
        c: &Candidate<'_, S>,
        word: Word,
        deadline: Option<Word>,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<(RetiredValue, Word)> {
        let old = tx.read(&c.node.value)?;
        let old_deadline = tx.read(&c.node.deadline)?;
        tx.write(&c.node.value, word)?;
        if let Some(d) = deadline {
            tx.write(&c.node.deadline, d)?;
        }
        Ok((RetiredValue::new(old), old_deadline))
    }

    fn put_full(
        &self,
        key: u64,
        value: &[u8],
        deadline: Word,
        slot: &mut ValueSlot,
        thread: &mut S::Thread,
    ) -> Option<(Value, Word)> {
        let pin = thread.epoch().pin();
        let mut node_slot = NodeSlot::<S>::new();
        let displaced = thread
            .atomic(|tx| self.put_in(key, value, deadline, slot, &mut node_slot, tx))
            .expect("put is never cancelled");
        // Whether by insert or by overwrite, the committed attempt stored
        // the slot's word.
        slot.mark_published();
        match displaced {
            // An overwrite published no allocation; `node_slot`'s drop frees
            // whatever the attempts speculated.
            Some((old, old_deadline)) => Some((old.take(&pin), old_deadline)),
            None => {
                node_slot.mark_published();
                None
            }
        }
    }

    /// Inserts or updates `key` inside an already-running full transaction,
    /// regardless of this instance's [`ApiMode`].  Returns the displaced old
    /// value and the deadline word it was stored under (`None` means a
    /// fresh node was inserted).  `deadline` is the deadline word to store
    /// (`0` = never expires; see `encode_deadline`).
    ///
    /// `slot` carries the speculative allocations across conflict retries
    /// of the enclosing transaction (see [`NodeSlot`] for the publication
    /// contract) and `value_slot` the value word likewise (mark it
    /// published after **any** committed outcome — insert and overwrite
    /// both store the word).  A returned [`RetiredValue`] must be retired
    /// after the commit, per its contract.  `value` must be at most
    /// [`MAX_VALUE_LEN`] bytes (checked by the public entry points).
    pub fn put_in(
        &self,
        key: u64,
        value: &[u8],
        deadline: Word,
        value_slot: &mut ValueSlot,
        slot: &mut NodeSlot<S>,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Option<(RetiredValue, Word)>> {
        debug_assert!(value.len() <= MAX_VALUE_LEN);
        if !slot.ptr.is_null() {
            // SAFETY: the slot's node is still private to this thread.
            debug_assert_eq!(unsafe { (*slot.ptr).key }, key, "one NodeSlot per key");
        }
        let word = value_slot.encode_once(value);
        slot.chain_used = false;
        let end = match self.probe_in(key, tx)? {
            ControlFlow::Break(c) => {
                return Self::overwrite_in(&c, word, Some(deadline), tx).map(Some)
            }
            ControlFlow::Continue(end) => end,
        };
        // The key is absent (and the commit validates that): insert.
        if slot.ptr.is_null() {
            slot.ptr = self.alloc_node(key, word, deadline);
        }
        // SAFETY: still private until the commit publishes it.
        let node = unsafe { &*slot.ptr };
        S::poke(&node.value, word);
        S::poke(&node.deadline, deadline);
        let tagged = slot.ptr as Word | self.table.home(key).1;
        if let Some((_, cell)) = end.empty {
            tx.write(cell, tagged)?;
        } else {
            // Chain a fresh overflow bucket carrying the node.
            if slot.chain.is_null() {
                slot.chain = OverflowBucket::alloc(tagged, |w| self.stm.new_cell(w));
            }
            // SAFETY: private until the commit publishes it.
            let cb = unsafe { &(*slot.chain).bucket };
            // A published slot may be reused with a fresh node.
            S::poke(&cb.item[0], tagged);
            tx.write(&end.tail.stat, slot.chain as Word | (end.stat & FREQ_MASK))?;
            slot.chain_used = true;
        }
        Ok(None)
    }

    /// Removes `key` inside an already-running full transaction, regardless
    /// of this instance's [`ApiMode`].  With `only_expired = Some(now_ms)`
    /// the removal happens only if the entry's deadline has passed at
    /// `now_ms` — the transactional re-check behind lazy expiry and the
    /// background sweep, whose snapshots may be stale by the time the
    /// removal runs; `None` removes unconditionally.  Returns the captured
    /// value, the detached node (both to be retired **after** the
    /// transaction commits; see [`RetiredValue`] and [`RetiredNode`]), and
    /// the entry's deadline word — or `None` if the key was absent or, under
    /// `only_expired`, still live.
    pub fn del_in(
        &self,
        key: u64,
        only_expired: Option<u64>,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Option<(RetiredValue, RetiredNode<S>, Word)>> {
        let ControlFlow::Break(c) = self.probe_in(key, tx)? else {
            return Ok(None);
        };
        let deadline = tx.read(&c.node.deadline)?;
        if only_expired.is_some_and(|now_ms| !deadline_expired(deadline, now_ms)) {
            return Ok(None);
        }
        let value = tx.read(&c.node.value)?;
        tx.write(c.cell, 0)?;
        let ptr = Self::node(c.word);
        Ok(Some((
            RetiredValue::new(value),
            RetiredNode { ptr },
            deadline,
        )))
    }

    /// Reads the entry under `key` — value and deadline word — inside an
    /// already-running full transaction (the building block of cross-shard
    /// read-modify-write and of scans).
    pub(crate) fn read_entry_in(
        &self,
        key: u64,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Option<(Value, Word)>> {
        let ControlFlow::Break(c) = self.probe_in(key, tx)? else {
            return Ok(None);
        };
        let word = tx.read(&c.node.value)?;
        let deadline = tx.read(&c.node.deadline)?;
        // SAFETY: the attempt's epoch pin predates any retirement of the
        // cell behind a word this read validated.
        Ok(Some((unsafe { decode_value(word) }, deadline)))
    }

    /// Overwrites the value under an **existing** `key` inside an
    /// already-running full transaction, returning the displaced value and
    /// the deadline word it was stored under.  Returns `Ok(None)` (writing
    /// nothing) if the key is absent; insertion under a composed
    /// transaction goes through [`StmHashMap::put_in`].  `deadline` of
    /// `None` preserves the entry's deadline word (a read-modify-write must
    /// not refresh a TTL), `Some(word)` installs a new one.
    ///
    /// `slot` is re-encoded on every call (freeing the previous attempt's
    /// unpublished allocation), so retried bodies may pass different
    /// payloads.  After the enclosing transaction commits, mark the slot
    /// published and retire the returned [`RetiredValue`]; on abort, drop
    /// both.  `value` must be at most [`MAX_VALUE_LEN`] bytes (checked by
    /// the public entry points).
    pub(crate) fn write_entry_in(
        &self,
        key: u64,
        value: &[u8],
        deadline: Option<Word>,
        slot: &mut ValueSlot,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Option<(RetiredValue, Word)>> {
        debug_assert!(value.len() <= MAX_VALUE_LEN);
        let ControlFlow::Break(c) = self.probe_in(key, tx)? else {
            return Ok(None);
        };
        Self::overwrite_in(&c, slot.encode(value), deadline, tx).map(Some)
    }
}

impl<S: Stm> Drop for StmHashMap<S> {
    fn drop(&mut self) {
        // Exclusive access: free every remaining node (and its value cell),
        // then the table frees its overflow buckets.
        self.table.free(S::peek, |w| {
            // SAFETY: nodes were allocated with `Box::into_raw`; during drop
            // nothing else references them.
            let node = unsafe { Box::from_raw(Self::node(w)) };
            // SAFETY: exclusive access; the word is still owned by the map,
            // so nobody else will free it.
            unsafe { free_value(S::peek(&node.value)) };
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectm::variants::{OrecFullG, TvarShortG, ValShort};
    use std::collections::BTreeMap;

    /// Deterministic payload whose length scales with the draw, crossing
    /// the inline-bytes (≤7), inline-int (8) and out-of-line regimes.
    fn payload(k: u64, v: u64) -> Vec<u8> {
        let len = (v % 40) as usize;
        (0..len)
            .map(|i| (k as u8).wrapping_mul(31) ^ (v as u8).wrapping_add(i as u8))
            .collect()
    }

    fn oracle_test<S: Stm + Clone>(stm: S, mode: ApiMode, capacity: usize) {
        let map = StmHashMap::new(&stm, capacity, mode);
        let mut t = stm.register();
        let mut oracle: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut state = 88172645463325252u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2_000 {
            let k = rng() % 200;
            let v = rng() >> 2;
            let bytes = payload(k, v);
            match rng() % 3 {
                0 => assert_eq!(
                    map.put(k, &bytes, &mut t).unwrap(),
                    oracle.insert(k, bytes.clone()).map(Value::from)
                ),
                1 => assert_eq!(map.del(k, &mut t), oracle.remove(&k).map(Value::from)),
                _ => assert_eq!(map.get(k, &mut t), oracle.get(&k).map(|b| Value::new(b))),
            }
        }
        assert_eq!(
            map.quiescent_snapshot(),
            oracle
                .iter()
                .map(|(k, v)| (*k, Value::new(v)))
                .collect::<Vec<_>>()
        );
        let stats = map.stats();
        assert_eq!(stats.keys, oracle.len());
        assert_eq!(
            stats.probe_histogram.iter().sum::<usize>(),
            oracle.len(),
            "histogram must account for every key"
        );
    }

    #[test]
    fn oracle_all_modes_and_layouts() {
        oracle_test(ValShort::new(), ApiMode::Short, 160);
        oracle_test(ValShort::new(), ApiMode::Full, 160);
        oracle_test(TvarShortG::new(), ApiMode::Short, 160);
        oracle_test(OrecFullG::new(), ApiMode::Full, 160);
        oracle_test(OrecFullG::new(), ApiMode::Short, 160);
    }

    #[test]
    fn oracle_sweeps_load_factor_across_bucket_boundaries() {
        // 200-key working set over capacities from "everything overflows"
        // to "everything fits in home buckets": exercises slot reuse,
        // chain growth and the short-insert full-tx fallback.
        for capacity in [1, 8, 40, 200, 1_000] {
            oracle_test(ValShort::new(), ApiMode::Short, capacity);
            oracle_test(ValShort::new(), ApiMode::Full, capacity);
        }
        // The non-headline layouts at an overflow-heavy capacity.
        oracle_test(TvarShortG::new(), ApiMode::Short, 8);
        oracle_test(OrecFullG::new(), ApiMode::Full, 8);
    }

    #[test]
    fn bucket_boundary_overflow_and_slot_reuse() {
        // Capacity 1 => a single home bucket: every key chains there.
        let stm = ValShort::new();
        let map = StmHashMap::new(&stm, 1, ApiMode::Short);
        assert_eq!(map.bucket_count(), 1);
        let mut t = stm.register();
        // Exactly 7 items fit the home bucket with no overflow.
        for k in 0..7u64 {
            assert_eq!(map.put(k, &k.to_le_bytes(), &mut t).unwrap(), None);
        }
        let stats = map.stats();
        assert_eq!(
            (
                stats.keys,
                stats.overflow_buckets,
                stats.occupied_home_slots
            ),
            (7, 0, 7)
        );
        assert_eq!(stats.fraction_within(1), 1.0);
        // The 8th key forces an overflow bucket.
        assert_eq!(map.put(7, b"eighth", &mut t).unwrap(), None);
        let stats = map.stats();
        assert_eq!((stats.keys, stats.overflow_buckets), (8, 1));
        assert_eq!(stats.probe_histogram, vec![7, 1]);
        // Deleting a home-bucket key frees its slot; the next insert
        // reuses it instead of growing the chain.
        assert_eq!(map.del(3, &mut t), Some(Value::new(&3u64.to_le_bytes())));
        assert_eq!(map.stats().occupied_home_slots, 6);
        assert_eq!(map.put(100, b"reused", &mut t).unwrap(), None);
        let stats = map.stats();
        assert_eq!((stats.keys, stats.overflow_buckets), (8, 1));
        assert_eq!(stats.occupied_home_slots, 7, "freed slot must be reused");
        // Every key still reads back.
        for (k, expect) in [(0u64, true), (3, false), (7, true), (100, true)] {
            assert_eq!(map.get(k, &mut t).is_some(), expect, "key {k}");
        }
        assert_eq!(map.quiescent_snapshot().len(), 8);
    }

    #[test]
    fn deep_chains_roundtrip_in_both_modes() {
        // A single bucket forced through several overflow buckets.
        for mode in [ApiMode::Short, ApiMode::Full] {
            let stm = ValShort::new();
            let map = StmHashMap::new(&stm, 1, mode);
            let mut t = stm.register();
            for k in 0..40u64 {
                assert_eq!(map.put(k, &payload(k, k), &mut t).unwrap(), None);
            }
            let stats = map.stats();
            assert_eq!(stats.keys, 40);
            assert!(stats.overflow_buckets >= 5, "{mode:?}: {stats}");
            for k in 0..40u64 {
                assert_eq!(
                    map.get(k, &mut t),
                    Some(Value::from(payload(k, k))),
                    "{mode:?} key {k}"
                );
            }
            for k in (0..40u64).step_by(2) {
                assert_eq!(map.del(k, &mut t), Some(Value::from(payload(k, k))));
            }
            assert_eq!(map.stats().keys, 20);
            for k in 0..40u64 {
                assert_eq!(map.get(k, &mut t).is_some(), k % 2 == 1, "{mode:?} key {k}");
            }
        }
    }

    #[test]
    fn update_overwrites_only_existing_keys() {
        for mode in [ApiMode::Short, ApiMode::Full] {
            let stm = ValShort::new();
            let map = StmHashMap::new(&stm, 16, mode);
            let mut t = stm.register();
            let update = |key, value: &[u8], deadline, t: &mut _| {
                map.update_entry(key, value, deadline, &mut ValueSlot::new(), t)
            };
            assert_eq!(update(5, b"nope", None, &mut t), None, "{mode:?}");
            assert_eq!(map.get(5, &mut t), None, "update must not insert");
            map.put(5, b"first", &mut t).unwrap();
            assert_eq!(
                update(5, &[9u8; 100], Some(encode_deadline(40)), &mut t),
                Some((Value::new(b"first"), 0)),
                "{mode:?}"
            );
            // `None` keeps the deadline word the entry already carries.
            assert_eq!(
                update(5, b"third", None, &mut t),
                Some((Value::new(&[9u8; 100]), encode_deadline(40))),
                "{mode:?}"
            );
            assert_eq!(
                map.get_entry(5, &mut t),
                Some((Value::new(b"third"), encode_deadline(40)))
            );
        }
    }

    #[test]
    fn in_tx_helpers_compose_reads_and_writes() {
        let stm = ValShort::new();
        let map = StmHashMap::new(&stm, 32, ApiMode::Short);
        let mut t = stm.register();
        map.put(1, &100u64.to_le_bytes(), &mut t).unwrap();
        map.put(2, &200u64.to_le_bytes(), &mut t).unwrap();
        let mut slot_a = ValueSlot::new();
        let mut slot_b = ValueSlot::new();
        let mut displaced: Vec<(RetiredValue, Word)> = Vec::new();
        let moved = t
            .atomic(|tx| {
                displaced.clear();
                let (a, _) = map.read_entry_in(1, tx)?.expect("key 1 present");
                let (b, _) = map.read_entry_in(2, tx)?.expect("key 2 present");
                let (a, b) = (a.as_u64(), b.as_u64());
                let wrote_a =
                    map.write_entry_in(1, &(a - 50).to_le_bytes(), None, &mut slot_a, tx)?;
                let wrote_b =
                    map.write_entry_in(2, &(b + 50).to_le_bytes(), None, &mut slot_b, tx)?;
                displaced.extend(wrote_a);
                displaced.extend(wrote_b);
                Ok(a + b)
            })
            .unwrap();
        slot_a.mark_published();
        slot_b.mark_published();
        assert_eq!(displaced.len(), 2);
        for (d, deadline) in displaced.drain(..) {
            assert_eq!(deadline, 0, "plain puts store immortal entries");
            d.retire(t.epoch());
        }
        assert_eq!(moved, 300);
        assert_eq!(map.get(1, &mut t).unwrap().as_u64(), 50);
        assert_eq!(map.get(2, &mut t).unwrap().as_u64(), 250);
        // Absent keys read as None / refuse the write.
        let mut slot = ValueSlot::new();
        let (missing, wrote) = t
            .atomic(|tx| {
                Ok((
                    map.read_entry_in(9, tx)?,
                    map.write_entry_in(9, b"x", None, &mut slot, tx)?.is_some(),
                ))
            })
            .unwrap();
        assert_eq!(missing, None);
        assert!(!wrote);
    }

    #[test]
    fn oversized_values_are_rejected() {
        let stm = ValShort::new();
        let map = StmHashMap::new(&stm, 8, ApiMode::Short);
        let mut t = stm.register();
        let huge = vec![0u8; MAX_VALUE_LEN + 1];
        assert_eq!(
            map.put(1, &huge, &mut t),
            Err(KvError::ValueTooLarge {
                len: MAX_VALUE_LEN + 1
            })
        );
        assert_eq!(map.get(1, &mut t), None, "rejected put must write nothing");
        // The boundary itself is accepted.
        let max = vec![7u8; MAX_VALUE_LEN];
        assert_eq!(map.put(1, &max, &mut t).unwrap(), None);
        assert_eq!(map.get(1, &mut t), Some(Value::new(&max)));
    }

    #[test]
    fn capacity_hint_targets_the_load_factor() {
        let stm = ValShort::new();
        for capacity in [1usize, 5, 64, 1_000] {
            let map = StmHashMap::new(&stm, capacity, ApiMode::Short);
            let buckets = map.bucket_count();
            assert!(buckets.is_power_of_two());
            // Enough slots that `capacity` keys fit below ~0.75 load.
            assert!(
                capacity <= buckets * CAPACITY_PER_BUCKET + (CAPACITY_PER_BUCKET - 1),
                "capacity {capacity} got only {buckets} buckets"
            );
        }
    }
}
