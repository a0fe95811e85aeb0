//! The per-shard transactional hash map.
//!
//! [`StmHashMap`] stores `u64 -> bytes` pairs in **cache-line bulk-chaining
//! buckets** (the Pelikan/Segcache hashtable layout adapted to STM words).
//! The table is a flat array of *home buckets*, each 8 contiguous
//! transactional words: [`BUCKET_SLOTS`] (7) *item words* plus one *stat
//! word*.  An item word packs an entry pointer with a 16-bit **hash tag**
//! (bits 48..=63, above every user-space address; entries keep their
//! natural one-word alignment), so a probe compares tags before
//! dereferencing and mismatched slots cost no cache miss.  The stat word links to a
//! heap-allocated *overflow bucket* once a bucket's 8th key arrives
//! (512-byte aligned; bit 0 stays clear for the `val` layout's lock bit in
//! both word kinds, and bits 1..=8 of the link are unused).  A zero item
//! word is an empty slot; a stat word with no pointer bits ends the chain.
//! Each **entry** is one block, a [`spectm_ds::Tower`] with one
//! caller-owned cell: the immutable key, then two transactional cells — the
//! **value word** (inline payload or [`crate::ValueCell`] pointer; see
//! [`crate::value`]) and the **deadline word** (the key's expiry time in
//! milliseconds shifted past the lock bit; zero = never expires — see
//! `encode_deadline`) — then the tower's links.  The header's
//! caller-owned byte is the entry's **CLOCK byte**: the store's lookups
//! bump it on a budgeted hit and its sweep halves it, with plain relaxed
//! atomics, never inside a transaction (see `touch`).  In a
//! [`crate::ShardedKv`] the shard's ordered index links the same block, so
//! a key is one allocation; a standalone map's entries have no links
//! (height 0).  The
//! map stores deadlines without interpreting them; expiry policy (lazy
//! expiry on read, background sweeps, byte-budget eviction) lives in
//! [`crate::ShardedKv`].
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
//! The crate-internal `put_in` / `del_in` and the entry read and overwrite
//! run the same chain walk *inside a caller-provided full transaction*, which is what lets
//! [`crate::ShardedKv::rmw`] compose an atomic multi-key update across
//! shards and the store change a map slot and its index tower together.
//! Every operation pins the epoch once for the call; under a caller's pin
//! (the batched pipeline holds one per batch) that nests as a counter
//! bump.  Deleted entries are retired through the STM's epoch collector
//! (the store's by its index, as towers);
//! overflow buckets are **write-once** (linked, never unlinked, freed only
//! in the map's own `Drop`), so traversals never race bucket reclamation.
//!
//! **Value-word ownership.**  A value word is owned by the map while it is
//! stored in a live entry, and by exactly one thread the moment a committed
//! transaction displaces it — the overwriter that replaced it, or the
//! deleter that cleared its slot.  That owner (and nobody else) reads the
//! old payload and defers the cell's free through the epoch collector, so
//! concurrent readers copying bytes out under an epoch pin are always safe.
//! Retiring an entry therefore never frees its value word; only
//! [`StmHashMap`]'s own `Drop`, where access is exclusive, frees both.
//!
//! **Linearizability of misses.**  A slot scan that finds no matching tag
//! uses only per-location linearizable reads.  A key that is continuously
//! present occupies one fixed slot (no operation moves a key between slots
//! without an intervening delete, i.e. an instant of absence), so a scan
//! that read every slot of the chain without finding the key witnessed a
//! moment at which the key was absent — the miss linearizes there.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU8, Ordering};

use spectm::{FullTx, Stm, StmThread, TxResult, Word};
use spectm_ds::{free_tower, ApiMode, Tower, TowerSlot};
use txepoch::Guard;

use crate::value::{decode_value, free_value};
use crate::value::{RetiredValue, ValueSlot};
use crate::{KvError, Value, MAX_VALUE_LEN};

#[cfg(not(target_pointer_width = "64"))]
compile_error!("the item word packs a 16-bit hash tag above 48 address bits: 64-bit targets only");

/// Item words per bucket (the 8th word of the cache line is the stat word).
pub const BUCKET_SLOTS: usize = 7;

/// Width of a user-space address on the 64-bit targets the map runs on:
/// the item word's bits above it are free for the hash tag.
const ADDRESS_BITS: u32 = 48;

/// Bits 48..=63 of an item word: the 16-bit hash tag stored above the entry
/// pointer (`item_word` checks that no entry address reaches it).
const TAG_MASK: Word = !0 << ADDRESS_BITS;

/// Mask recovering the entry pointer from an item word.
pub const ITEM_PTR_MASK: Word = !(TAG_MASK | 1);

/// Mask recovering the overflow-bucket pointer from a stat word: all but
/// the lock bit.
const CHAIN_PTR_MASK: Word = !1;

/// Shift applied to a deadline (milliseconds on the store's clock) to form
/// a **deadline word**: bit 0 stays clear for the `val` layout's lock bit,
/// and the all-zero word means "never expires".
pub(crate) const DEADLINE_SHIFT: u32 = 1;

/// Keys budgeted per bucket when sizing from a capacity hint: 7 slots at
/// the ~0.75 target load factor.
pub(crate) const CAPACITY_PER_BUCKET: usize = 5;

// The item and stat words, asserted where they are defined (the compiler
// is their one checker): the tag leaves the lock bit clear, each pointer
// mask is exactly the complement of its field and the lock bit, the tag is
// one contiguous bit run above every address bit, and the deadline word
// keeps the lock bit clear.  The alignments those fields rely on are
// asserted after the structs.
const _: () = {
    assert!(TAG_MASK & 1 == 0, "tag bits overlap the lock bit");
    assert!(
        TAG_MASK.leading_zeros() + TAG_MASK.count_ones() + TAG_MASK.trailing_zeros() == Word::BITS,
        "TAG_MASK must be one contiguous run of bits"
    );
    assert!(
        TAG_MASK.trailing_zeros() >= ADDRESS_BITS,
        "tag bits reach into the address"
    );
    assert!(
        ITEM_PTR_MASK == !(TAG_MASK | 1),
        "ITEM_PTR_MASK and TAG_MASK | 1 must partition the item word"
    );
    assert!(
        CHAIN_PTR_MASK == !1,
        "CHAIN_PTR_MASK and the lock bit must partition the stat word"
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

/// An entry: a skip-list tower whose one caller-owned cell is the deadline
/// word (zero for immortal items; see [`encode_deadline`]).  Key, value word
/// and deadline word sit in its first 32 bytes at word-sized cells.  It
/// keeps its natural alignment, one word at word-sized cells: the item
/// word's tag sits above the address bits, so the entry needs no
/// over-aligned (and over-carved) allocation.
pub(crate) type Entry<S> = Tower<S, 1>;

/// An entry's deadline word.
#[inline]
fn deadline<S: Stm>(entry: &Entry<S>) -> &S::Cell {
    &entry.aux[0]
}

/// A hit's bump of `entry`'s CLOCK byte: a relaxed load and, below 255, a
/// relaxed store of one more — no transaction, no read-modify-write.  The
/// byte is a popularity hint, not a count: a bump lost to a racing bump or
/// halving is fine.  Call it under the pin the entry was reached by.
#[inline]
fn touch<S: Stm>(entry: &Entry<S>) {
    // ORDERING: the CLOCK byte orders nothing; it is a heuristic that only
    // this lookup's and the sweep's relaxed accesses share.
    let byte = entry.aux_byte.load(Ordering::Relaxed);
    if byte < u8::MAX {
        // ORDERING: as above.
        entry.aux_byte.store(byte + 1, Ordering::Relaxed);
    }
}

/// What a lookup found under a key, liveness decided before anything was
/// copied: `T` is a value word inside a transaction, a copied value after.
#[derive(Debug, PartialEq)]
pub(crate) enum Lookup<T> {
    /// No entry holds the key.
    Absent,
    /// An entry holds the key, but its deadline word says it is dead.
    Expired,
    /// A live entry's value.
    Live(T),
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

/// A heap-allocated overflow bucket.  The 512-byte alignment frees the low
/// 9 bits of the chain pointer: bit 0 for the lock bit, bits 1..=8 unused.
#[repr(align(512))]
pub struct OverflowBucket<C> {
    bucket: Bucket<C>,
}

// The alignments the item and stat words rely on, asserted on word-celled
// instances so that building this crate checks them whatever the map is
// instantiated with: `#[repr(align)]` is a floor and a word cell is the
// least-aligned cell, so these instances are the binding case, for the
// lock-free baseline's `Table<AtomicUsize>` as for every `StmHashMap<S>`.
// An entry's alignment clears the item word's lock bit and the value-word
// tags (an out-of-line value word is a pointer through the same cells), the
// overflow bucket's clears the stat word's lock bit, and a bucket of word
// cells is exactly one 64-byte line.
const _: () = {
    use std::mem::{align_of, size_of};
    assert!(
        align_of::<Entry<spectm::ValStm>>() as Word
            > (spectm::INLINE_BYTES_BIT | spectm::INLINE_INT_BIT | 1),
        "an entry's alignment must clear the lock bit and the value-word tags"
    );
    assert!(
        align_of::<OverflowBucket<Word>>() as Word > !CHAIN_PTR_MASK,
        "OverflowBucket's alignment must clear the stat word's lock bit"
    );
    assert!(
        align_of::<Bucket<Word>>() == 64 && size_of::<[Word; BUCKET_SLOTS + 1]>() == 64,
        "a bucket of word cells must be exactly one 64-byte cache line"
    );
};

/// Where a walk nothing stopped ended.
pub struct ChainEnd<'a, C> {
    /// The first empty item slot, with its chain position.
    pub empty: Option<(usize, &'a C)>,
    /// The last bucket, where an insert that found no empty slot links.
    pub tail: &'a Bucket<C>,
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
                return ControlFlow::Continue(ChainEnd { empty, tail, depth });
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
    /// entry it is linked in for; `cell` makes a cell.
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

    /// `key`'s home bucket and its hash tag, in tag position.  The tag is
    /// the top 16 bits of the hash, independent of the index bits (17..).
    #[inline]
    pub fn home(&self, key: u64) -> (&Bucket<C>, Word) {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let bucket = &self.buckets[((h >> 17) & self.mask) as usize];
        (bucket, h as Word & TAG_MASK)
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
    /// maps' `Drop`: every occupied item word to `free_item`, then the
    /// overflow buckets.
    pub fn free(&mut self, read: impl Fn(&C) -> Word, mut free_item: impl FnMut(Word)) {
        self.visit_all(&read, |_, w| free_item(w));
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
/// word that cell held, and the entry behind the pointer.  The word ties the
/// entry to its slot — every mutation protocol re-reads the cell and bails
/// if it no longer holds `word`.
struct Candidate<'a, S: Stm> {
    cell: &'a S::Cell,
    word: Word,
    entry: &'a Entry<S>,
}

/// The speculative allocations of one insert, carried across the conflict
/// retries of its transaction so each logical insert allocates at most
/// once: the value word ([`ValueSlot`]), the entry ([`TowerSlot`]) and,
/// when the home bucket is full, an overflow bucket.
///
/// After a committed insert (`put_in` returned `None`) call
/// [`EntrySlots::mark_published`]; after a committed overwrite only
/// `value.mark_published()` (the entry and the bucket were not published).
/// Dropping the slots frees whatever is still unpublished.  The store's
/// membership transaction links `entry`'s tower into its index as well,
/// which is why the entry is a [`TowerSlot`] of its own.
pub(crate) struct EntrySlots<S: Stm> {
    pub(crate) value: ValueSlot,
    pub(crate) entry: TowerSlot<S, 1>,
    chain: *mut OverflowBucket<S::Cell>,
    /// Whether the most recent attempt linked `chain` into the map.  The
    /// committed attempt is always the last one to run, so this flag is
    /// accurate at `mark_published` time.
    chain_used: bool,
}

impl<S: Stm> EntrySlots<S> {
    /// Empty slots around `entry`: a [`TowerSlot::new`] for an entry its
    /// shard's index links too (the store's), a [`TowerSlot::unlinked`] for
    /// one nothing else links (a standalone map's).
    pub(crate) fn new(entry: TowerSlot<S, 1>) -> Self {
        Self {
            value: ValueSlot::new(),
            entry,
            chain: std::ptr::null_mut(),
            chain_used: false,
        }
    }

    /// Declares a committed insert's allocations published: the value word
    /// and the entry (and the overflow bucket, if that attempt linked one)
    /// are now owned by the map.
    pub(crate) fn mark_published(&mut self) {
        self.value.mark_published();
        self.entry.mark_published();
        if self.chain_used {
            self.chain = std::ptr::null_mut();
        }
    }
}

impl<S: Stm> Drop for EntrySlots<S> {
    fn drop(&mut self) {
        if !self.chain.is_null() {
            // SAFETY: per the contract above, a non-null bucket at drop time
            // was never linked into any chain.
            drop(unsafe { Box::from_raw(self.chain) });
        }
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
    /// Creates a map sized for about `capacity` keys (a hint, not a limit:
    /// the bucket array is fixed at `capacity / 5` buckets, rounded up to a
    /// power of two, targeting the ~0.75 load factor at which overflow
    /// chains stay rare; past the hint the map keeps growing through
    /// overflow buckets), driven through the given [`ApiMode`].
    pub fn new(stm: &S, capacity: usize, mode: ApiMode) -> Self
    where
        S: Clone,
    {
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
        spectm::prefetch::<Bucket<S::Cell>>(self.table.home(key).0);
    }

    #[inline]
    fn entry_ptr(w: Word) -> *mut Entry<S> {
        (w & ITEM_PTR_MASK) as *mut Entry<S>
    }

    /// The item word publishing the entry at `ptr` under hash tag `tag`.
    /// The packing is checked, not assumed: an address above
    /// `ADDRESS_BITS` (a kernel with a wider address space could hand one
    /// out) would be read back as another entry.
    #[inline]
    fn item_word(ptr: Word, tag: Word) -> Word {
        assert!(
            ptr & TAG_MASK == 0,
            "entry address {ptr:#x} reaches the item word's tag bits"
        );
        ptr | tag
    }

    /// The map's one entry dereference.  Every `w` handed here was read
    /// from one of this map's item slots by a thread that holds an epoch pin
    /// (an operation's, or a full transaction attempt's) or that has no
    /// concurrent writers (quiescence), and the entry is used only while
    /// that lasts.
    #[inline]
    fn entry_at(&self, w: Word) -> &Entry<S> {
        // SAFETY: per the above — an entry is retired only after its slot is
        // cleared (and, in the store, its tower unlinked by the same
        // transaction) and freed only once every pin older than the
        // retirement is released.
        unsafe { &*Self::entry_ptr(w) }
    }

    /// Retires the entry an item word named, once the committed transaction
    /// that cleared its slot made this thread its owner — a standalone
    /// map's entries; the store's index retires its entries as towers.
    fn retire_entry(pin: &Guard, w: Word) {
        // SAFETY: the slot is cleared, so the entry is unreachable for new
        // operations, and nothing else links it; pinned readers are
        // protected by the epoch.  `free_tower` matches the allocation (a
        // `TowerSlot`) and leaves the value word to its own owner.
        unsafe { pin.defer_unchecked(Self::entry_ptr(w).cast(), free_tower::<S, 1>) };
    }

    /// Whether the occupied slot `cell`, holding `w`, is `key`'s: the one
    /// "is this the key" under every search.
    #[inline]
    fn hit<'a>(&'a self, key: u64, cell: &'a S::Cell, w: Word) -> Option<Candidate<'a, S>> {
        let entry = self.entry_at(w);
        (entry.key == key).then_some(Candidate {
            cell,
            word: w,
            entry,
        })
    }

    /// The entry of `slots` for `key`, holding `word` and `deadline`, and
    /// the item word that publishes it under `tag`.  The entry is private
    /// until a commit publishes it, so it is filled with pokes.
    fn fill_entry(
        &self,
        slots: &mut EntrySlots<S>,
        key: u64,
        word: Word,
        deadline: Word,
        tag: Word,
    ) -> Word {
        let (ptr, entry) = slots.entry.tower(&self.stm, key);
        S::poke(&entry.value, word);
        S::poke(self::deadline(entry), deadline);
        Self::item_word(ptr, tag)
    }

    /// Returns the value stored under `key`.
    pub fn get(&self, key: u64, thread: &mut S::Thread) -> Option<Value> {
        match self.get_entry(key, |_| true, false, thread) {
            Lookup::Live(value) => Some(value),
            Lookup::Absent | Lookup::Expired => None,
        }
    }

    /// The store's expiry-aware read (the map itself stores deadlines
    /// without interpreting them; expiry policy lives in
    /// [`crate::ShardedKv`]): `live` judges the entry's deadline word, and
    /// only a live entry's value is copied out.  With `clock` a live hit
    /// also bumps the entry's CLOCK byte (`touch`), in the same pinned
    /// lookup that read the entry.
    pub(crate) fn get_entry(
        &self,
        key: u64,
        live: impl Fn(Word) -> bool,
        clock: bool,
        thread: &mut S::Thread,
    ) -> Lookup<Value> {
        match self.mode {
            ApiMode::Short => {
                let pin = thread.epoch().pin();
                thread.retry(|thread| self.attempt_get(key, &live, clock, &pin, thread))
            }
            ApiMode::Full | ApiMode::Fine => thread
                .atomic(|tx| {
                    Ok(match self.read_entry_in(key, &live, clock, tx)? {
                        Lookup::Live(word) => Lookup::Live(Self::value_in(word, tx)),
                        Lookup::Expired => Lookup::Expired,
                        Lookup::Absent => Lookup::Absent,
                    })
                })
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
        let mut slots = EntrySlots::new(TowerSlot::unlinked());
        Ok(match self.mode {
            ApiMode::Short => self.put_short(key, value, &mut slots, thread),
            ApiMode::Full | ApiMode::Fine => self.put_full(key, value, &mut slots, thread),
        })
    }

    /// Overwrites the value under an **existing** `key`, returning the
    /// displaced value and the deadline word it was stored under; returns
    /// `None` (inserting nothing) if the key is absent.  The
    /// membership-preserving half of a put: in Short mode it is one
    /// three-location read-write transaction, never the insert path.
    /// `deadline` of `None` preserves the entry's current deadline word;
    /// `Some(word)` installs a new one.  `slot` keeps the encoding, so a
    /// following `put_in` of the same payload reuses it (the store's put
    /// fast path).  The length must already be checked.
    pub(crate) fn update_entry(
        &self,
        key: u64,
        value: &[u8],
        deadline: Option<Word>,
        slot: &mut ValueSlot,
        thread: &mut S::Thread,
    ) -> Option<(Value, Word)> {
        // The call's one pin: the scan dereferences entries under it, and
        // the full path's attempts and the retirement below nest inside it.
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
        match self.mode {
            ApiMode::Short => self.del_short(key, thread),
            ApiMode::Full | ApiMode::Fine => {
                let pin = thread.epoch().pin();
                let (value, _, entry) = thread
                    .atomic(|tx| self.del_in(key, None, tx))
                    .expect("del is never cancelled")?;
                Self::retire_entry(&pin, entry);
                Some(value.take(&pin))
            }
        }
    }

    /// Collects every `(key, value)` pair currently present
    /// (non-transactional; only meaningful when no concurrent operations
    /// run).
    pub fn quiescent_snapshot(&self) -> Vec<(u64, Value)> {
        let mut out = Vec::new();
        self.table.visit_all(S::peek, |_, w| {
            let entry = self.entry_at(w);
            // SAFETY: quiescence — the cell cannot be freed concurrently.
            out.push((entry.key, unsafe { decode_value(S::peek(&entry.value)) }));
        });
        out.sort_unstable();
        out
    }

    /// Collects `(key, entry address)` for every key currently present, in
    /// key order — the map's half of the store's index check
    /// (non-transactional; only meaningful when no concurrent operations
    /// run).
    pub(crate) fn quiescent_entries(&self) -> Vec<(u64, Word)> {
        let mut out = Vec::new();
        self.table.visit_all(S::peek, |_, w| {
            out.push((self.entry_at(w).key, w & ITEM_PTR_MASK));
        });
        out.sort_unstable();
        out
    }

    /// The CLOCK byte of `key`'s entry, if the key is present
    /// (non-transactional; only meaningful when no concurrent operations
    /// run).
    pub(crate) fn quiescent_clock(&self, key: u64) -> Option<u8> {
        let (home, tag) = self.table.home(key);
        let walk = home.walk(
            Some(tag),
            &mut (),
            |_, _, cell| ControlFlow::Continue(S::peek(cell)),
            |_, _, cell, w| match self.hit(key, cell, w) {
                // ORDERING: quiescence — no concurrent access to the byte.
                Some(c) => ControlFlow::Break(c.entry.aux_byte.load(Ordering::Relaxed)),
                None => ControlFlow::Continue(()),
            },
        );
        match walk {
            ControlFlow::Break(byte) => Some(byte),
            ControlFlow::Continue(_) => None,
        }
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
    /// operation's epoch pin: the candidate's entry reference cannot
    /// outlive it.
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
        live: impl Fn(Word) -> bool,
        clock: bool,
        pin: &Guard,
        thread: &mut S::Thread,
    ) -> Option<Lookup<Value>> {
        let Some(c) = self.find_short(key, pin, thread) else {
            return Some(Lookup::Absent);
        };
        // Membership, value and deadline must be observed together: a
        // three-location read-only short transaction over (slot, value,
        // deadline).
        let w = thread.ro_read(0, c.cell);
        if w != c.word {
            return None;
        }
        let value = thread.ro_read(1, &c.entry.value);
        let deadline = thread.ro_read(2, deadline(c.entry));
        if !thread.ro_is_valid(3) {
            return None;
        }
        if !live(deadline) {
            return Some(Lookup::Expired);
        }
        if clock {
            touch(c.entry);
        }
        // SAFETY: `pin` predates any retirement of the cell behind the
        // validated word, so it cannot have been freed yet.
        Some(Lookup::Live(unsafe { decode_value(value) }))
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
        let old = thread.rw_read(1, &c.entry.value);
        let old_deadline = thread.rw_read(2, self::deadline(c.entry));
        if !thread.rw_is_valid(3) {
            return None;
        }
        let new_deadline = deadline.unwrap_or(old_deadline);
        thread
            .rw_commit(3, &[c.word, word, new_deadline])
            .then(|| (RetiredValue::new(old), old_deadline))
    }

    /// A standalone map's Short-mode put: the entries it inserts are
    /// immortal (deadline word zero).
    fn put_short(
        &self,
        key: u64,
        value: &[u8],
        slots: &mut EntrySlots<S>,
        thread: &mut S::Thread,
    ) -> Option<Value> {
        let word = slots.value.encode_once(value);
        let (home, tag) = self.table.home(key);
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
                let (displaced, _) = self.attempt_overwrite(&c, word, Some(0), thread)?;
                slots.value.mark_published();
                return Some(Some(displaced.take(&pin)));
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
                return Some(self.put_full(key, value, slots, thread));
            }
            let tagged = self.fill_entry(slots, key, word, 0, tag);
            let committed = if let Some((e, _)) = end.empty {
                // Claim the free slot: upgrade it into the RW set and
                // commit, validating the other 7 words read-only.
                thread.upgrade_ro_to_rw(e, 0) && thread.ro_rw_commit(BUCKET_SLOTS + 1, 1, &[tagged])
            } else {
                // Bucket full with no chain yet: publish the entry inside a
                // fresh overflow bucket by linking it through the stat
                // word.  This call's entry never changes, so the bucket is
                // born holding it.
                if slots.chain.is_null() {
                    slots.chain = OverflowBucket::alloc(tagged, |w| self.stm.new_cell(w));
                }
                slots.chain_used = true;
                thread.upgrade_ro_to_rw(BUCKET_SLOTS, 0)
                    && thread.ro_rw_commit(BUCKET_SLOTS + 1, 1, &[slots.chain as Word])
            };
            if committed {
                slots.mark_published();
                return Some(None);
            }
            slots.chain_used = false;
            None
        })
    }

    /// A standalone map's Short-mode delete.
    fn del_short(&self, key: u64, thread: &mut S::Thread) -> Option<Value> {
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
            let value = thread.rw_read(1, &c.entry.value);
            let deadline = thread.rw_read(2, deadline(c.entry));
            if !thread.rw_is_valid(3) || !thread.rw_commit(3, &[0, value, deadline]) {
                return None;
            }
            Self::retire_entry(&pin, c.word);
            // The same commit made this thread the value word's owner.
            Some(Some(RetiredValue::new(value).take(&pin)))
        })
    }

    // ------------------------------------------------------------------
    // Sweep support (the store's expiry and eviction machinery)
    // ------------------------------------------------------------------

    /// The sweep's walk of home bucket `idx`'s chain, under the caller's
    /// epoch pin: one single-location read per item and stat word, each
    /// occupied item word pushed to `items` as its entry is prefetched.
    /// Read the entries with [`StmHashMap::swept_entry`] after the chunk's
    /// walk, under the same pin, so their misses overlap the walk; the
    /// snapshot is best-effort and each removal re-checks inside its own
    /// transaction.
    pub(crate) fn sweep_walk(
        &self,
        idx: usize,
        _pin: &Guard,
        thread: &mut S::Thread,
        items: &mut Vec<Word>,
    ) {
        let _ = self.table.buckets[idx].walk(
            None,
            thread,
            |thread, _, cell| ControlFlow::Continue(thread.single_read(cell)),
            |_, _, _, w| {
                spectm::prefetch(Self::entry_ptr(w));
                items.push(w);
                ControlFlow::<()>::Continue(())
            },
        );
    }

    /// The key, the deadline word and the CLOCK byte of an entry whose item
    /// word [`StmHashMap::sweep_walk`] pushed, read under the walk's pin,
    /// which the byte's reference cannot outlive: the sweep ages the byte
    /// through it with a relaxed store, no transaction.
    #[inline]
    pub(crate) fn swept_entry<'g>(
        &'g self,
        w: Word,
        _pin: &'g Guard,
        thread: &mut S::Thread,
    ) -> (u64, Word, &'g AtomicU8) {
        let entry = self.entry_at(w);
        (
            entry.key,
            thread.single_read(deadline(entry)),
            &entry.aux_byte,
        )
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
        let old = tx.read(&c.entry.value)?;
        let old_deadline = tx.read(self::deadline(c.entry))?;
        tx.write(&c.entry.value, word)?;
        if let Some(d) = deadline {
            tx.write(self::deadline(c.entry), d)?;
        }
        Ok((RetiredValue::new(old), old_deadline))
    }

    /// A standalone map's put as one full transaction: the entries it
    /// inserts are immortal (deadline word zero).
    fn put_full(
        &self,
        key: u64,
        value: &[u8],
        slots: &mut EntrySlots<S>,
        thread: &mut S::Thread,
    ) -> Option<Value> {
        let pin = thread.epoch().pin();
        let displaced = thread
            .atomic(|tx| self.put_in(key, value, 0, slots, tx))
            .expect("put is never cancelled");
        match displaced {
            // An overwrite published only the value word; the slots' drop
            // frees whatever the attempts speculated.
            Some((old, _)) => {
                slots.value.mark_published();
                Some(old.take(&pin))
            }
            None => {
                slots.mark_published();
                None
            }
        }
    }

    /// Inserts or updates `key` inside an already-running full transaction,
    /// regardless of this instance's [`ApiMode`].  Returns the displaced old
    /// value and the deadline word it was stored under (`None` means a
    /// fresh entry was inserted).  `deadline` is the deadline word to store
    /// (`0` = never expires; see `encode_deadline`).  A fresh entry is
    /// `slots.entry`'s tower, its value and deadline words written before
    /// the item word that publishes it.
    ///
    /// `slots` carries the speculative allocations across conflict retries
    /// of the enclosing transaction; see [`EntrySlots`] for the publication
    /// contract.  A returned [`RetiredValue`] must be retired after the
    /// commit, per its contract.  `value` must be at most [`MAX_VALUE_LEN`]
    /// bytes (checked by the public entry points).
    pub(crate) fn put_in(
        &self,
        key: u64,
        value: &[u8],
        deadline: Word,
        slots: &mut EntrySlots<S>,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Option<(RetiredValue, Word)>> {
        debug_assert!(value.len() <= MAX_VALUE_LEN);
        let word = slots.value.encode_once(value);
        slots.chain_used = false;
        let end = match self.probe_in(key, tx)? {
            ControlFlow::Break(c) => {
                return Self::overwrite_in(&c, word, Some(deadline), tx).map(Some)
            }
            ControlFlow::Continue(end) => end,
        };
        // The key is absent (and the commit validates that): insert.
        let tagged = self.fill_entry(slots, key, word, deadline, self.table.home(key).1);
        if let Some((_, cell)) = end.empty {
            tx.write(cell, tagged)?;
        } else {
            // Chain a fresh overflow bucket carrying the entry.
            if slots.chain.is_null() {
                slots.chain = OverflowBucket::alloc(tagged, |w| self.stm.new_cell(w));
            }
            // SAFETY: private until the commit publishes it.
            let cb = unsafe { &(*slots.chain).bucket };
            // A published slot may be reused with a fresh entry.
            S::poke(&cb.item[0], tagged);
            tx.write(&end.tail.stat, slots.chain as Word)?;
            slots.chain_used = true;
        }
        Ok(None)
    }

    /// Removes `key` inside an already-running full transaction, regardless
    /// of this instance's [`ApiMode`].  With `only_expired = Some(now_ms)`
    /// the removal happens only if the entry's deadline has passed at
    /// `now_ms` — the transactional re-check behind lazy expiry and the
    /// background sweep, whose snapshots may be stale by the time the
    /// removal runs; `None` removes unconditionally.  Returns the captured
    /// value (to be retired **after** the transaction commits; see
    /// [`RetiredValue`]), the entry's deadline word and the item word that
    /// named the entry — or `None` if the key was absent or, under
    /// `only_expired`, still live.  The entry is left to its owner to
    /// retire: the store's index, which unlinks it in the same transaction,
    /// or a standalone map's `del`.
    pub(crate) fn del_in(
        &self,
        key: u64,
        only_expired: Option<u64>,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Option<(RetiredValue, Word, Word)>> {
        let ControlFlow::Break(c) = self.probe_in(key, tx)? else {
            return Ok(None);
        };
        let deadline = tx.read(deadline(c.entry))?;
        if only_expired.is_some_and(|now_ms| !deadline_expired(deadline, now_ms)) {
            return Ok(None);
        }
        let value = tx.read(&c.entry.value)?;
        tx.write(c.cell, 0)?;
        Ok(Some((RetiredValue::new(value), deadline, c.word)))
    }

    /// Reads the entry under `key` — its deadline word, judged by `live`,
    /// then a live entry's value word — inside an already-running full
    /// transaction (the building block of cross-shard read-modify-write and
    /// of the multi-key reads).  With `clock` a live hit bumps the entry's
    /// CLOCK byte (`touch`; an attempt that aborts may have bumped it
    /// too, which the heuristic tolerates).  Nothing is copied: a caller
    /// that keeps the value copies it out with [`StmHashMap::value_in`],
    /// within the same attempt.
    pub(crate) fn read_entry_in(
        &self,
        key: u64,
        live: impl Fn(Word) -> bool,
        clock: bool,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Lookup<Word>> {
        let ControlFlow::Break(c) = self.probe_in(key, tx)? else {
            return Ok(Lookup::Absent);
        };
        if !live(tx.read(deadline(c.entry))?) {
            return Ok(Lookup::Expired);
        }
        let word = tx.read(&c.entry.value)?;
        if clock {
            touch(c.entry);
        }
        Ok(Lookup::Live(word))
    }

    /// Reads the value word and the deadline word of `entry` — a tower of
    /// this map's shard's index, reached by a scan within `tx`'s running
    /// attempt — inside that attempt.
    pub(crate) fn read_tower_in(
        entry: &Entry<S>,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<(Word, Word)> {
        Ok((tx.read(&entry.value)?, tx.read(deadline(entry))?))
    }

    /// Copies out the payload of a value word that `tx`'s running attempt
    /// read with `tx.read`.  Call it within that attempt: its epoch pin is
    /// what keeps the word's cell alive.
    #[inline]
    pub(crate) fn value_in(word: Word, _tx: &FullTx<'_, S::Thread>) -> Value {
        // SAFETY: per the contract, the attempt's epoch pin predates any
        // retirement of the cell behind a word it read.
        unsafe { decode_value(word) }
    }

    /// Overwrites the value under an **existing** `key` inside an
    /// already-running full transaction, returning the displaced value and
    /// the deadline word it was stored under.  Returns `Ok(None)` (writing
    /// nothing) if the key is absent; insertion under a composed
    /// transaction goes through `put_in`.  `deadline` of `None` preserves
    /// the entry's deadline word (a read-modify-write must not refresh a
    /// TTL), `Some(word)` installs a new one.
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
        // Exclusive access: free every remaining entry (and its value cell),
        // then the table frees its overflow buckets.  The map is the one
        // owner of its entries; a store detaches its indexes first.
        self.table.free(S::peek, |w| {
            let entry = Self::entry_ptr(w);
            // SAFETY: exclusive access.  The entry came from a `TowerSlot`
            // and is referenced by nothing else now, so it is freed once;
            // its value word is still owned by the map, so nobody else will
            // free it either.
            unsafe {
                free_value(S::peek(&(*entry).value));
                free_tower::<S, 1>(entry.cast());
            }
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
            // The entry reads live exactly under its own deadline word.
            let mut under = |word| map.get_entry(5, move |d| d == word, false, &mut t);
            assert_eq!(
                under(encode_deadline(40)),
                Lookup::Live(Value::new(b"third"))
            );
            assert_eq!(under(0), Lookup::Expired);
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
                let live = |_| true;
                let Lookup::Live(a) = map.read_entry_in(1, live, false, tx)? else {
                    panic!("key 1 present")
                };
                let Lookup::Live(b) = map.read_entry_in(2, live, false, tx)? else {
                    panic!("key 2 present")
                };
                let a = StmHashMap::<ValShort>::value_in(a, tx).as_u64();
                let b = StmHashMap::<ValShort>::value_in(b, tx).as_u64();
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
            d.retire_under(&t.epoch().pin());
        }
        assert_eq!(moved, 300);
        assert_eq!(map.get(1, &mut t).unwrap().as_u64(), 50);
        assert_eq!(map.get(2, &mut t).unwrap().as_u64(), 250);
        // Absent keys read as None / refuse the write.
        let mut slot = ValueSlot::new();
        let (missing, wrote) = t
            .atomic(|tx| {
                Ok((
                    map.read_entry_in(9, |_| true, false, tx)?,
                    map.write_entry_in(9, b"x", None, &mut slot, tx)?.is_some(),
                ))
            })
            .unwrap();
        assert_eq!(missing, Lookup::Absent);
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
    fn item_words_round_trip_node_pointers_at_the_tag_edges() {
        let stm = ValShort::new();
        let map = StmHashMap::new(&stm, 64, ApiMode::Short);
        for key in 0..64 {
            // The slots free the never-published entry when they drop.
            let mut slots = EntrySlots::<ValShort>::new(TowerSlot::unlinked());
            let w = map.fill_entry(&mut slots, key, 0, 0, 0);
            let ptr = w as Word;
            assert_eq!(
                ptr & !ITEM_PTR_MASK,
                0,
                "entry {ptr:#x} overlaps tag or lock"
            );
            for tag in [0, 1, 0xFFFF] {
                let tag = tag << ADDRESS_BITS;
                let w = StmHashMap::<ValShort>::item_word(ptr, tag);
                assert_eq!(StmHashMap::<ValShort>::entry_ptr(w) as Word, ptr);
                assert_eq!(w & TAG_MASK, tag);
            }
        }
    }

    #[test]
    fn home_tags_are_sixteen_bits_that_collide_at_chance_within_a_bucket() {
        let stm = ValShort::new();
        // 64 home buckets, so 10 000 keys share each one ~156 ways.
        let map = StmHashMap::new(&stm, 64 * CAPACITY_PER_BUCKET, ApiMode::Short);
        assert_eq!(map.bucket_count(), 64);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut by_home: BTreeMap<(*const Bucket<_>, Word), u64> = BTreeMap::new();
        for _ in 0..10_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let (home, tag) = map.table.home(state);
            assert_eq!(tag & !TAG_MASK, 0, "tag {tag:#x} outside TAG_MASK");
            *by_home.entry((home as *const _, tag)).or_default() += 1;
        }
        // Pairs of keys sharing a home bucket, and those of them whose tags
        // also match: a wrong-key dereference on a probe.
        let mut per_bucket: BTreeMap<*const Bucket<_>, u64> = BTreeMap::new();
        let mut collisions = 0;
        for (&(home, _), &n) in &by_home {
            *per_bucket.entry(home).or_default() += n;
            collisions += n * (n - 1) / 2;
        }
        let pairs: u64 = per_bucket.values().map(|n| n * (n - 1) / 2).sum();
        let expected = pairs as f64 / 65_536.0;
        // ~12 expected; a 5-bit tag would give ~24 000.
        assert!(
            (collisions as f64) < 3.0 * expected + 8.0,
            "{collisions} tag collisions among {pairs} same-bucket pairs (expected {expected:.1})"
        );
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
