//! STM-based ordered skip list (the case study of Section 3), grown from an
//! integer set into an ordered `u64 -> u64` map.
//!
//! Towers store a key, a transactional value cell and one transactional
//! forward pointer per level, all in one heap block: the header, then the
//! links inline after it, sized by the tower's height.  A descent finds a
//! tower's link at a fixed offset from the tower pointer.  Bit 1 of every
//! forward pointer is the "deleted" mark (bit 0 stays clear for the
//! value-based layout's lock bit).
//! A removal marks the tower's own forward pointers *and* unlinks it from
//! every level in one atomic step, so a tower is either fully linked or
//! fully removed — this is precisely the simplification over the CAS-based
//! skip list that the paper advertises.
//!
//! Two API surfaces coexist on the same towers:
//!
//! * the original **set** API ([`StmSkipList::insert`] /
//!   [`StmSkipList::remove`] / [`StmSkipList::contains`]), used by the
//!   paper's microbenchmarks;
//! * a **map** API ([`StmSkipList::get`] / [`StmSkipList::put`] /
//!   [`StmSkipList::range`]) storing 63-bit values with the same
//!   [`spectm::encode_int`] convention as the hash structures.
//!
//! The `*_in` methods ([`StmSkipList::insert_in`], [`StmSkipList::remove_in`],
//! [`StmSkipList::collect_range_in`], [`StmSkipList::walk_merged_in`]) run
//! inside a caller-provided full transaction, which is what lets the sharded
//! KV store keep a per-shard ordered index transactionally consistent with
//! its hash shard and serve atomic range scans.  Inside a transaction a
//! point operation (`insert_in`, `remove_in`, Full-mode `contains` and
//! `get`) is the descent followed by one small step on the tower it found,
//! and a range read, over one list or several, is the one merged walk,
//! `walk_merged_in`.  Outside Full mode, `insert_in` and `remove_in`
//! descend with single-location reads, as the paper's `Search` does, and
//! log only the window their step checks; what that cannot answer, they
//! answer from a logged descent in the same attempt.  A tower may carry
//! caller-owned cells after its value (the `AUX` parameter of [`Tower`]):
//! the store's towers are its entries, holding the value word and the
//! deadline word, and its hash map's item words point at them, so a scan
//! visiting a tower reads the entry it stands on, not by looking the key
//! up again.
//!
//! The [`ApiMode`] selects how those atomic steps are expressed:
//!
//! * **Short** — towers of height 1 use a single-location CAS, towers of
//!   height 2 use a short read-write transaction, and taller towers (about
//!   25 % of inserts with p = ½) fall back to an ordinary transaction —
//!   exactly the split described in Section 3.
//! * **Full** — every insert/remove/search is one ordinary transaction.
//! * **Fine** — the same fine-grained steps as **Short**, but each step is an
//!   ordinary transaction (the `orec-full-g (fine)` line of Figure 6(a)).
//!
//! Every operation in every mode finds its position with the one private
//! `descend` (the paper's `Search`); what differs is the cell reader it is
//! handed and the transaction that links or unlinks afterwards.  A seek
//! inside a range read's transaction is that `Search` too — single-location
//! reads, except in Full mode — and only where it lands on level 0 enters
//! the transaction's read set.  A merged walk over several lists drives the
//! same per-step search on every list in lockstep, so their cache misses
//! overlap, and seeks a list only once the caller's floor for it says the
//! list could hold the merge's next key; each new head is handed to the
//! caller with its value cell, so it can prefetch what the value names.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::convert::Infallible;
use std::ops::ControlFlow;
use std::sync::atomic::AtomicU8;

use spectm::{
    decode_int, encode_int, is_marked, mark, unmark, FullTx, Stm, StmThread, TxResult, Word,
};

use crate::{ApiMode, Removal};

/// Largest value storable in a tower (one bit of the word is reserved for
/// the value-based layout's lock bit).
pub const MAX_TOWER_VALUE: u64 = (1 << 63) - 1;

#[inline]
fn enc(value: u64) -> Word {
    assert!(value <= MAX_TOWER_VALUE, "value {value:#x} exceeds 63 bits");
    encode_int(value as usize)
}

#[inline]
fn dec(word: Word) -> u64 {
    decode_int(word) as u64
}

/// Maximum tower height (the paper sets it to 32).
pub const MAX_LEVEL: usize = 32;

/// Tallest tower that the Short mode handles with specialized transactions;
/// taller towers use ordinary transactions (Section 3 uses levels 1–2).
pub const SHORT_LEVEL_CUTOFF: usize = 2;

/// A skip-list tower: one heap block holding this header followed, in the
/// same allocation, by `level` transactional links — one forward pointer per
/// level, reached through `Tower::links`.  The key and height are
/// immutable after publication; the value cell, the `AUX` cells and the
/// links are accessed transactionally.  The `AUX` cells and `aux_byte`
/// belong to the caller, which lets a tower be a whole entry: the sharded
/// store's towers carry one cell, the deadline word, and keep the entry's
/// CLOCK counter in the byte; its hash map's item words point at the
/// blocks its indexes link.  [`TowerSlot`] makes the block and
/// [`free_tower`] is the only free.
#[repr(C)]
pub struct Tower<S: Stm, const AUX: usize = 0> {
    /// The key.
    pub key: u64,
    /// The height, at most [`MAX_LEVEL`].
    level: u8,
    /// A caller-owned byte, zero when the tower is made.  It is not a
    /// transactional cell: no list operation touches it, and its owner
    /// reads and writes it with plain atomics outside any transaction,
    /// while the block is reachable to it (under an epoch pin).  It fills
    /// padding the header had anyway, so it costs no bytes.
    pub aux_byte: AtomicU8,
    /// An [`spectm::encode_int`] value under the list's map API; whatever
    /// word its owner stores otherwise.
    pub value: S::Cell,
    /// The caller-owned cells, zero when the tower is made.
    pub aux: [S::Cell; AUX],
}

// The header at word-sized cells: key, then height and byte in one word
// (the byte sits in the height's padding), then the value word — 24 bytes
// for the paper's towers, 32 for the store's entries with their one extra
// cell.  A height must fit the narrowed field.
const _: () = {
    use std::mem::size_of;
    assert!(
        MAX_LEVEL <= u8::MAX as usize,
        "a tower's height must fit its u8"
    );
    assert!(
        size_of::<Tower<spectm::ValStm, 0>>() == 24,
        "a tower header at word cells must stay three words"
    );
    assert!(
        size_of::<Tower<spectm::ValStm, 1>>() == 32,
        "an entry header (one caller cell) at word cells must stay four words"
    );
};

impl<S: Stm, const AUX: usize> Tower<S, AUX> {
    /// The tower's height: how many links follow the header.
    #[inline]
    fn level(&self) -> usize {
        usize::from(self.level)
    }

    /// The block of a tower of height `level`: the header, then the links.
    /// The header holds a cell, so its size is a multiple of the cell's
    /// alignment and the links start right at its end.
    fn layout(level: usize) -> Layout {
        let links = Layout::array::<S::Cell>(level).expect("tower heights are at most MAX_LEVEL");
        let (block, offset) = Layout::new::<Self>()
            .extend(links)
            .expect("tower heights are at most MAX_LEVEL");
        debug_assert_eq!(offset, std::mem::size_of::<Self>());
        block
    }

    /// Where the links of the tower at `tower` start: right past its header.
    #[inline]
    fn first_link(tower: *const Self) -> *mut S::Cell {
        tower.wrapping_add(1).cast_mut().cast()
    }

    /// Allocates a tower of height `level` (0 for an entry no list links),
    /// its value, its `AUX` cells and every link zero.  The caller owns it
    /// until it is published.
    fn alloc(stm: &S, key: u64, level: usize) -> *mut Self {
        let layout = Self::layout(level);
        let height = u8::try_from(level).expect("tower heights are at most MAX_LEVEL");
        // SAFETY: the layout is not zero-sized (the header alone is two
        // words and a cell).  A non-null block is a fresh allocation of it,
        // private to this thread: the header fits at offset 0 and `level`
        // aligned cells after it (`Tower::layout`).
        unsafe {
            let tower = alloc(layout).cast::<Self>();
            if tower.is_null() {
                handle_alloc_error(layout);
            }
            tower.write(Tower {
                key,
                level: height,
                aux_byte: AtomicU8::new(0),
                value: stm.new_cell(0),
                aux: std::array::from_fn(|_| stm.new_cell(0)),
            });
            let first = Self::first_link(tower);
            for lvl in 0..level {
                first.add(lvl).write(stm.new_cell(0));
            }
            tower
        }
    }

    /// The tower's links, level 0 first.
    #[inline]
    fn links(&self) -> &[S::Cell] {
        // SAFETY: every tower was made by `Tower::alloc`, which wrote `level`
        // cells right after the header; they live as long as the header.
        unsafe { std::slice::from_raw_parts(Self::first_link(self), self.level()) }
    }
}

/// Frees a tower made by a [`TowerSlot`]: drops its cells in place and
/// returns its block, whose layout the header's `level` rebuilds.  The one
/// free of a tower — unpublished, retired past its grace period, or left in
/// a list or a map being dropped — typed for `Guard::defer_unchecked`.  It
/// frees the cells, not what their words name.
///
/// # Safety
///
/// `ptr` must be a `Tower<S, AUX>` from a [`TowerSlot`], must be
/// unreachable for every other thread (never published, past its epoch
/// grace period, or owned by a structure being dropped), and must not be
/// used again.
pub unsafe fn free_tower<S: Stm, const AUX: usize>(ptr: *mut u8) {
    let tower = ptr.cast::<Tower<S, AUX>>();
    // SAFETY: per the contract the block is a live tower this thread owns
    // exclusively; its header still holds the height its block was sized by.
    unsafe {
        let level = (*tower).level();
        std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(
            Tower::first_link(tower),
            level,
        ));
        std::ptr::drop_in_place(tower);
        dealloc(ptr, Tower::<S, AUX>::layout(level));
    }
}

/// Traversal window: predecessor cell and successor pointer per level, as
/// [`StmSkipList::descend`] found them.  The references are good for as long
/// as the epoch pin (or transaction attempt) the descent ran under.
struct Window<'a, S: Stm> {
    /// The last cell before the key at each level; the head's cell at the
    /// levels the descent did not traverse.
    preds: [&'a S::Cell; MAX_LEVEL],
    /// What `preds[lvl]` pointed at (unmarked; `0` at the end of a level and
    /// at the levels the descent did not traverse).
    succs: [Word; MAX_LEVEL],
    /// Number of levels the descent traversed: the height hint it read, but
    /// at least [`SHORT_LEVEL_CUTOFF`].  Levels are 0-based and the hint is
    /// a height: a tower taller than `SHORT_LEVEL_CUTOFF` is linked by a
    /// transaction that first raises the hint to its height, and the hint
    /// never falls, so when the hint was read no tower occupied a level at
    /// or above `top` — which is why those levels read "head, then nothing".
    top: usize,
}

/// Where one descent (the paper's `Search`) stands on one list: the level it
/// walks, the predecessor's link at that level and the tower word read from
/// it.  [`StmSkipList::cursor`] starts one and [`Cursor::step`] moves it;
/// [`StmSkipList::descend`] runs one to the end, and
/// [`StmSkipList::walk_merged_in`] runs one per list in lockstep.
struct Cursor<'a, S: Stm, const AUX: usize> {
    /// The predecessor's links: the head's until the walk moves onto a
    /// tower.  A predecessor found at one level is also where the walk
    /// starts one level down.
    links: &'a [S::Cell],
    /// `&links[lvl]`, the link `curr` was read from.
    pred: &'a S::Cell,
    /// The level being walked.
    lvl: usize,
    /// What `pred` pointed at (unmarked; `0` at the end of the level).
    curr: Word,
}

impl<'a, S: Stm, const AUX: usize> Cursor<'a, S, AUX> {
    /// One step of the paper's `Search` towards `key`: right onto the tower
    /// `curr` if its key is below `key`, else settle this level —
    /// `settle(lvl, pred, curr)` — and drop one.  Every step reads exactly
    /// one link through `read`, except the one that settles level 0, which
    /// reads nothing and returns `true`.  The caller must hold an epoch pin
    /// (a transaction attempt holds one) for as long as it uses the cursor.
    #[inline]
    fn step<E>(
        &mut self,
        key: u64,
        read: &mut impl FnMut(&'a S::Cell) -> Result<Word, E>,
        settle: impl FnOnce(usize, &'a S::Cell, Word),
    ) -> Result<bool, E> {
        if self.curr != 0 {
            // SAFETY: `curr` was read from a reachable link under the
            // caller's epoch pin.
            let tower: &'a Tower<S, AUX> = unsafe { &*StmSkipList::<S, AUX>::tower(self.curr) };
            if tower.key < key {
                self.links = tower.links();
                self.pred = &self.links[self.lvl];
                self.curr = unmark(read(self.pred)?);
                return Ok(false);
            }
        }
        settle(self.lvl, self.pred, self.curr);
        if self.lvl == 0 {
            return Ok(true);
        }
        self.lvl -= 1;
        self.pred = &self.links[self.lvl];
        self.curr = unmark(read(self.pred)?);
        Ok(false)
    }
}

/// One list's place in [`StmSkipList::walk_merged_in`].
enum Head<'a, S: Stm, const AUX: usize> {
    /// Not sought yet: the list holds no key from the start key up to this
    /// floor (exclusive).
    Unsought(u64),
    /// Still descending to the start key.
    Seeking(Cursor<'a, S, AUX>),
    /// The list's next live tower in range with its level-0 forward pointer
    /// (see [`StmSkipList::next_live_in`]); `None` once the list is done.
    At(Option<(&'a Tower<S, AUX>, Word)>),
}

/// Outcome of an insert-or-update attempt.
enum Upsert {
    /// The key was absent and has been inserted.
    Inserted,
    /// The key was present and `overwrite` was false; nothing changed.
    Exists,
    /// The key was present; the previous value was replaced.
    Updated(u64),
}

/// Holder of a tower that is allocated but not (yet) published — the one
/// maker of towers, for this module, [`StmSkipList::insert_in`] and owners
/// that publish a tower elsewhere too (the sharded store's hash maps).
///
/// A full transaction's body may run several times (once per conflict
/// retry); the slot keeps the speculatively allocated tower alive across
/// retries so each logical insert allocates at most once.  After the
/// enclosing [`spectm::StmThread::atomic`] **commits an attempt that
/// published the tower** (for the list: one in which `insert_in` returned
/// `true`), the caller must call [`TowerSlot::mark_published`]; otherwise
/// dropping the slot frees the never-published tower.
pub struct TowerSlot<S: Stm, const AUX: usize = 0> {
    ptr: *mut Tower<S, AUX>,
    /// Whether a list will link the tower: its height is drawn when it is
    /// allocated.  An unlinked tower has height 0.
    linked: bool,
}

impl<S: Stm, const AUX: usize> TowerSlot<S, AUX> {
    /// Creates an empty slot for a tower a list will link.
    pub fn new() -> Self {
        Self {
            ptr: std::ptr::null_mut(),
            linked: true,
        }
    }

    /// Creates an empty slot for a tower no list will link: an entry of
    /// height 0, whose allocation draws no height.
    pub fn unlinked() -> Self {
        Self {
            ptr: std::ptr::null_mut(),
            linked: false,
        }
    }

    /// Declares the slot's tower published: a transaction that published
    /// it has committed, so the tower is now owned by what it was published
    /// to.
    pub fn mark_published(&mut self) {
        self.ptr = std::ptr::null_mut();
    }

    /// The slot's tower for `key` and the word that publishes it (its
    /// address), allocated on first use with a freshly drawn height (height
    /// 0 for [`TowerSlot::unlinked`]).  Until it is published the tower is
    /// private to this thread, so its cells may be filled with
    /// [`Stm::poke`].
    pub fn tower(&mut self, stm: &S, key: u64) -> (Word, &Tower<S, AUX>) {
        if self.ptr.is_null() {
            let level = if self.linked { random_level() } else { 0 };
            self.ptr = Tower::alloc(stm, key, level);
        }
        // SAFETY: a non-null slot pointer is a tower this slot allocated and
        // nobody has published, so it is live and private to this thread.
        let tower = unsafe { &*self.ptr };
        debug_assert_eq!(tower.key, key, "one TowerSlot per key");
        (self.ptr as Word, tower)
    }
}

impl<S: Stm, const AUX: usize> Default for TowerSlot<S, AUX> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Stm, const AUX: usize> Drop for TowerSlot<S, AUX> {
    fn drop(&mut self) {
        if !self.ptr.is_null() {
            // SAFETY: per the contract above, a non-null pointer at drop time
            // means the tower was never published.
            unsafe { free_tower::<S, AUX>(self.ptr.cast()) };
        }
    }
}

/// A tower unlinked by [`StmSkipList::remove_in`], awaiting epoch retirement.
///
/// After the enclosing transaction **commits**, call
/// [`RetiredTower::retire`] to hand the tower to the epoch collector.  If
/// the transaction aborted or was retried, simply drop the value (the tower
/// is still linked; dropping does nothing).
#[must_use = "call retire() after the transaction commits"]
pub struct RetiredTower<S: Stm, const AUX: usize = 0> {
    ptr: *mut Tower<S, AUX>,
}

impl<S: Stm, const AUX: usize> RetiredTower<S, AUX> {
    /// Defers destruction of the unlinked tower through the thread's epoch
    /// collector.  Only call after the removing transaction committed.
    pub fn retire(self, thread: &mut S::Thread) {
        let pin = thread.epoch().pin();
        // SAFETY: the committed transaction unlinked and marked the tower,
        // so it is unreachable for new operations; pinned readers are
        // protected by the epoch.  `free_tower` matches the allocation.
        unsafe { pin.defer_unchecked(self.ptr.cast(), free_tower::<S, AUX>) };
    }
}

/// An STM-based ordered skip list, usable as a set of `u64` keys or as an
/// ordered `u64 -> u64` map (values are 63-bit, see [`MAX_TOWER_VALUE`]).
///
/// # Examples
///
/// ```
/// use spectm::{Stm, variants::ValShort};
/// use spectm_ds::{ApiMode, StmSkipList};
///
/// let stm = ValShort::new();
/// let list = StmSkipList::new(&stm, ApiMode::Short);
/// let mut thread = stm.register();
/// // Set API.
/// assert!(list.insert(42, &mut thread));
/// assert!(list.contains(42, &mut thread));
/// assert!(list.remove(42, &mut thread));
/// // Map API: ordered, with range scans.
/// assert_eq!(list.put(3, 30, &mut thread), None);
/// assert_eq!(list.put(1, 10, &mut thread), None);
/// assert_eq!(list.put(3, 31, &mut thread), Some(30));
/// assert_eq!(list.get(3, &mut thread), Some(31));
/// assert_eq!(list.range(0, 10, &mut thread), vec![(1, 10), (3, 31)]);
/// ```
///
/// Its towers carry `AUX` caller-owned cells after the value (see
/// [`Tower`]); the paper's list has none.
pub struct StmSkipList<S: Stm, const AUX: usize = 0> {
    stm: S,
    head: Box<[S::Cell; MAX_LEVEL]>,
    /// Encoded current height hint (the paper's `head.lvl`).
    level_hint: S::Cell,
    mode: ApiMode,
}

// SAFETY: raw tower pointers stored in cells are published by transactions,
// retired through epochs after being unlinked, and dereferenced only under an
// epoch pin (or inside a transaction, which pins for its duration).
unsafe impl<S: Stm, const AUX: usize> Send for StmSkipList<S, AUX> {}
// SAFETY: as above.
unsafe impl<S: Stm, const AUX: usize> Sync for StmSkipList<S, AUX> {}

impl<S: Stm> StmSkipList<S> {
    /// Creates an empty skip list driven through the given [`ApiMode`].
    pub fn new(stm: &S, mode: ApiMode) -> Self
    where
        S: Clone,
    {
        Self::with_aux(stm, mode)
    }
}

impl<S: Stm, const AUX: usize> StmSkipList<S, AUX> {
    /// Creates an empty skip list whose towers carry `AUX` caller-owned
    /// cells, driven through the given [`ApiMode`].
    pub fn with_aux(stm: &S, mode: ApiMode) -> Self
    where
        S: Clone,
    {
        Self {
            stm: stm.clone(),
            head: Box::new(std::array::from_fn(|_| stm.new_cell(0))),
            level_hint: stm.new_cell(encode_int(1)),
            mode,
        }
    }

    /// The API mode this instance drives.
    pub fn mode(&self) -> ApiMode {
        self.mode
    }

    #[inline]
    fn tower(ptr: Word) -> *mut Tower<S, AUX> {
        unmark(ptr) as *mut Tower<S, AUX>
    }

    /// Inserts `key` (set API; the value is set to 0); returns `false` if it
    /// was already present (whose value is then left untouched).
    pub fn insert(&self, key: u64, thread: &mut S::Thread) -> bool {
        matches!(self.upsert(key, 0, false, thread), Upsert::Inserted)
    }

    /// Stores `value` under `key` (map API), returning the previous value if
    /// the key was present.
    pub fn put(&self, key: u64, value: u64, thread: &mut S::Thread) -> Option<u64> {
        match self.upsert(key, value, true, thread) {
            Upsert::Inserted => None,
            Upsert::Updated(old) => Some(old),
            Upsert::Exists => unreachable!("overwriting upserts never report Exists"),
        }
    }

    fn upsert(&self, key: u64, value: u64, overwrite: bool, thread: &mut S::Thread) -> Upsert {
        match self.mode {
            ApiMode::Full => self.upsert_txn(key, value, overwrite, thread),
            ApiMode::Short | ApiMode::Fine => self.upsert_split(key, value, overwrite, thread),
        }
    }

    /// Removes `key`; returns `false` if it was not present.
    pub fn remove(&self, key: u64, thread: &mut S::Thread) -> bool {
        match self.mode {
            ApiMode::Full => self.remove_txn(key, thread),
            ApiMode::Short | ApiMode::Fine => self.remove_split(key, thread),
        }
    }

    /// Returns whether `key` is present.
    pub fn contains(&self, key: u64, thread: &mut S::Thread) -> bool {
        match self.mode {
            ApiMode::Full => thread
                .atomic(|tx| {
                    let w = self.descend(key, |cell| tx.read(cell))?;
                    Self::found(&w, key).map_or(Ok(false), |tower| Self::live_in(tower, tx))
                })
                .expect("contains is never cancelled"),
            ApiMode::Short | ApiMode::Fine => self.contains_walk(key, thread),
        }
    }

    /// Returns the value stored under `key` (map API).
    pub fn get(&self, key: u64, thread: &mut S::Thread) -> Option<u64> {
        match self.mode {
            ApiMode::Full => thread
                .atomic(|tx| {
                    let w = self.descend(key, |cell| tx.read(cell))?;
                    Self::found(&w, key).map_or(Ok(None), |tower| Self::value_in(tower, tx))
                })
                .expect("get is never cancelled"),
            ApiMode::Short | ApiMode::Fine => self.get_walk(key, thread),
        }
    }

    /// Collects every `(key, value)` pair with `start <= key < end`, in key
    /// order, inside **one** full transaction — an atomically consistent
    /// range snapshot, serializable with all concurrent operations.
    pub fn range(&self, start: u64, end: u64, thread: &mut S::Thread) -> Vec<(u64, u64)> {
        thread
            .atomic(|tx| self.collect_range_in(start, end, usize::MAX, tx))
            .expect("range is never cancelled")
    }

    /// Collects every key currently present (non-transactional; only
    /// meaningful when no concurrent operations run).
    pub fn quiescent_snapshot(&self) -> Vec<u64> {
        self.quiescent_towers().iter().map(|t| t.key).collect()
    }

    /// Collects every `(key, value)` pair currently present
    /// (non-transactional; only meaningful when no concurrent operations
    /// run).
    pub fn quiescent_pairs(&self) -> Vec<(u64, u64)> {
        let towers = self.quiescent_towers();
        towers
            .iter()
            .map(|t| (t.key, dec(S::peek(&t.value))))
            .collect()
    }

    /// Collects every tower currently linked and live, in key order
    /// (non-transactional; only meaningful when no concurrent operations
    /// run, and the references only until the next one does).
    pub fn quiescent_towers(&self) -> Vec<&Tower<S, AUX>> {
        let mut out = Vec::new();
        let mut curr = S::peek(&self.head[0]);
        while unmark(curr) != 0 {
            // SAFETY: quiescence is required by the contract.
            let tower = unsafe { &*Self::tower(curr) };
            let next = S::peek(&tower.links()[0]);
            if !is_marked(next) {
                out.push(tower);
            }
            curr = unmark(next);
        }
        out
    }

    /// Empties the list without freeing its towers, for an owner that frees
    /// them itself: the sharded store's hash maps free each entry, which is
    /// also the tower its index links.  The towers stay valid for whoever
    /// holds them; the list forgets them.
    pub fn detach(&mut self) {
        for cell in self.head.iter() {
            S::poke(cell, 0);
        }
    }

    // ------------------------------------------------------------------
    // The descent (every mode) and the walk-based reader (Short / Fine)
    // ------------------------------------------------------------------

    /// Starts a descent of this list: reads the level hint, then the head's
    /// link at the top level the descent traverses (`cursor.lvl`).
    #[inline]
    fn cursor<'a, E>(
        &'a self,
        read: &mut impl FnMut(&'a S::Cell) -> Result<Word, E>,
    ) -> Result<Cursor<'a, S, AUX>, E> {
        // Traverse at least the levels covered by the short fast paths:
        // those link towers without raising the height hint.
        let top = decode_int(read(&self.level_hint)?).clamp(SHORT_LEVEL_CUTOFF, MAX_LEVEL);
        let pred = &self.head[top - 1];
        Ok(Cursor {
            links: &self.head[..],
            pred,
            lvl: top - 1,
            curr: unmark(read(pred)?),
        })
    }

    /// The paper's `Skiplist::Search`, the one descent under every
    /// operation: steps one [`Cursor`] from the level hint down to level 0
    /// through `read` — a single-location read per link for the walk-based
    /// modes, `tx.read` inside a full transaction — recording the
    /// predecessor cell and successor pointer at every level.  The caller
    /// must hold an epoch pin (a transaction attempt holds one) for as long
    /// as it uses the window.
    #[inline]
    fn descend<'a, E>(
        &'a self,
        key: u64,
        mut read: impl FnMut(&'a S::Cell) -> Result<Word, E>,
    ) -> Result<Window<'a, S>, E> {
        let mut w = Window {
            preds: self.head.each_ref(),
            succs: [0; MAX_LEVEL],
            top: 0,
        };
        let mut cursor = self.cursor(&mut read)?;
        w.top = cursor.lvl + 1;
        while !cursor.step(key, &mut read, |lvl, pred, succ| {
            w.preds[lvl] = pred;
            w.succs[lvl] = succ;
        })? {}
        Ok(w)
    }

    /// The tower the descent stopped at on level 0, if it holds `key` —
    /// linked when the descent passed, though perhaps already marked.
    fn found<'a>(w: &Window<'a, S>, key: u64) -> Option<&'a Tower<S, AUX>> {
        // SAFETY: a non-null successor was read from a reachable link under
        // the epoch pin the window's lifetime stands for.
        let tower = unsafe { Self::tower(w.succs[0]).as_ref() }?;
        (tower.key == key).then_some(tower)
    }

    /// Reads one forward pointer, either with a single-location transaction
    /// (Short) or with a one-read ordinary transaction (Fine).
    #[inline]
    fn read_link(&self, cell: &S::Cell, thread: &mut S::Thread) -> Word {
        match self.mode {
            ApiMode::Fine => thread
                .atomic(|tx| tx.read(cell))
                .expect("read_link is never cancelled"),
            _ => thread.single_read(cell),
        }
    }

    /// The descent of the walk-based modes: every link is its own
    /// [`StmSkipList::read_link`].  The caller must hold an epoch pin.
    #[inline]
    fn search<'a>(&'a self, key: u64, thread: &mut S::Thread) -> Window<'a, S> {
        let Ok(w) = self.descend(key, |cell| {
            Ok::<_, Infallible>(self.read_link(cell, thread))
        });
        w
    }

    fn contains_walk(&self, key: u64, thread: &mut S::Thread) -> bool {
        let _pin = thread.epoch().pin();
        let w = self.search(key, thread);
        Self::found(&w, key)
            .is_some_and(|tower| !is_marked(self.read_link(&tower.links()[0], thread)))
    }

    /// Walk-based map lookup: liveness and value are observed together with
    /// a two-location read-only short transaction (Short mode) or one
    /// ordinary transaction over the same locations (Fine mode).
    fn get_walk(&self, key: u64, thread: &mut S::Thread) -> Option<u64> {
        thread.retry(|thread| {
            let _pin = thread.epoch().pin();
            let w = self.search(key, thread);
            let Some(tower) = Self::found(&w, key) else {
                return Some(None);
            };
            if self.mode == ApiMode::Short {
                let next = thread.ro_read(0, &tower.links()[0]);
                let value = thread.ro_read(1, &tower.value);
                return thread
                    .ro_is_valid(2)
                    .then(|| (!is_marked(next)).then(|| dec(value)));
            }
            let read = thread.atomic(|tx| Self::value_in(tower, tx));
            Some(read.expect("get_walk is never cancelled"))
        })
    }

    /// Whether `tower` is live inside `tx`: its level-0 link is unmarked.
    /// A removal marks a tower's links in the step that unlinks it.
    #[inline]
    fn live_in(tower: &Tower<S, AUX>, tx: &mut FullTx<'_, S::Thread>) -> TxResult<bool> {
        Ok(!is_marked(tx.read(&tower.links()[0])?))
    }

    /// The value of `tower` inside `tx`; `None` if it is logically deleted.
    fn value_in(tower: &Tower<S, AUX>, tx: &mut FullTx<'_, S::Thread>) -> TxResult<Option<u64>> {
        if !Self::live_in(tower, tx)? {
            return Ok(None);
        }
        Ok(Some(dec(tx.read(&tower.value)?)))
    }

    // ------------------------------------------------------------------
    // Link and unlink inside a full transaction (every mode's fallback)
    // ------------------------------------------------------------------

    /// What `w.preds[lvl]` points at now.  When the window is `tx`'s own
    /// (`same_tx`: its descent read through `tx.read`), the levels it
    /// traversed are already in the read set and the window *is* the
    /// answer; a window of single reads — computed before `tx` began, or
    /// inside it through `seek_read` — and the head cells above any
    /// window's `top`, are read here.
    #[inline]
    fn pred_target(
        w: &Window<'_, S>,
        same_tx: bool,
        lvl: usize,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Word> {
        if same_tx && lvl < w.top {
            Ok(w.succs[lvl])
        } else {
            tx.read(w.preds[lvl])
        }
    }

    /// The paper's `AddLevelN`: checks that the window still holds at every
    /// level of `tower`, points the tower at the window's successors and the
    /// window's predecessors at the tower (`ptr`).  Returns `false`, having
    /// written nothing, if the neighbourhood changed since the descent.
    fn link_in(
        &self,
        w: &Window<'_, S>,
        same_tx: bool,
        (ptr, tower): (Word, &Tower<S, AUX>),
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<bool> {
        debug_assert!(
            tower.level() > 0,
            "a TowerSlot::unlinked tower has no links"
        );
        for lvl in 0..tower.level() {
            if Self::pred_target(w, same_tx, lvl, tx)? != w.succs[lvl] {
                return Ok(false);
            }
        }
        // A tower reaching above the window raises the height hint first
        // (see `Window::top`); the hint never falls, so one that is not the
        // window's own is re-read before it is written.
        let above = tower.level() > w.top;
        if above && (same_tx || tower.level() > decode_int(tx.read(&self.level_hint)?)) {
            tx.write(&self.level_hint, encode_int(tower.level()))?;
        }
        for (lvl, link) in tower.links().iter().enumerate() {
            S::poke(link, w.succs[lvl]);
            tx.write(w.preds[lvl], ptr)?;
        }
        Ok(true)
    }

    /// Unlinks the tower `target` the window stopped at: reads its own
    /// links and refuses if one is marked, checks that the window's
    /// predecessors still point at it, then points them past it and marks
    /// its own links.  Only [`Removal::Removed`] has written anything.
    fn unlink_in(
        w: &Window<'_, S>,
        same_tx: bool,
        tower: &Tower<S, AUX>,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Removal> {
        let target = w.succs[0];
        let links = tower.links();
        let mut nexts = [0 as Word; MAX_LEVEL];
        for (next, link) in nexts.iter_mut().zip(links) {
            *next = tx.read(link)?;
            if is_marked(*next) {
                return Ok(Removal::AlreadyGone);
            }
        }
        for lvl in 0..links.len() {
            if Self::pred_target(w, same_tx, lvl, tx)? != target {
                return Ok(Removal::Retry);
            }
        }
        for (lvl, (&next, link)) in nexts.iter().zip(links).enumerate() {
            tx.write(w.preds[lvl], next)?;
            tx.write(link, mark(next))?;
        }
        Ok(Removal::Removed)
    }

    // ------------------------------------------------------------------
    // Insert
    // ------------------------------------------------------------------

    fn upsert_split(
        &self,
        key: u64,
        value: u64,
        overwrite: bool,
        thread: &mut S::Thread,
    ) -> Upsert {
        let mut slot = TowerSlot::new();
        // Every `None` below is "retry with a fresh search" (contention
        // management between restarts breaks symmetric conflict patterns,
        // and matters when threads outnumber cores).
        thread.retry(|thread| {
            let _pin = thread.epoch().pin();
            let w = self.search(key, thread);
            if let Some(tower) = Self::found(&w, key) {
                if overwrite {
                    // `None`: deleted but still linked, or validation
                    // failed (a fresh insert once the remover unlinks).
                    return self.update_value(tower, value, thread).map(Upsert::Updated);
                }
                // Deleted but still linked: wait for the remover.
                let live = !is_marked(self.read_link(&tower.links()[0], thread));
                return live.then_some(Upsert::Exists);
            }
            let (ptr, tower) = slot.tower(&self.stm, key);
            S::poke(&tower.value, enc(value));
            let published = if self.mode == ApiMode::Short && tower.level() <= SHORT_LEVEL_CUTOFF {
                for (link, &succ) in tower.links().iter().zip(&w.succs) {
                    S::poke(link, succ);
                }
                if tower.level() == 1 {
                    // The paper's AddLevelOne: one single-location CAS.
                    thread.single_cas(w.preds[0], w.succs[0], ptr) == w.succs[0]
                } else {
                    self.insert_short_rw(&w, tower.level(), ptr, thread)
                }
            } else {
                // Tall towers in Short mode, every tower in Fine mode.
                self.insert_txn_linked(&w, (ptr, tower), thread)
            };
            published.then(|| {
                slot.mark_published();
                Upsert::Inserted
            })
        })
    }

    /// Overwrites a live tower's value: a two-location short read-write
    /// transaction over (liveness mark, value) in Short mode, the same two
    /// locations in one ordinary transaction in Fine mode.  Returns `None`
    /// if the tower is logically deleted or validation failed (retry).
    fn update_value(
        &self,
        tower: &Tower<S, AUX>,
        value: u64,
        thread: &mut S::Thread,
    ) -> Option<u64> {
        if self.mode == ApiMode::Short {
            let next = thread.rw_read(0, &tower.links()[0]);
            if !thread.rw_is_valid(1) {
                return None;
            }
            if is_marked(next) {
                thread.rw_abort(1);
                return None;
            }
            let old = thread.rw_read(1, &tower.value);
            if !thread.rw_is_valid(2) {
                return None;
            }
            if thread.rw_commit(2, &[next, enc(value)]) {
                return Some(dec(old));
            }
            None
        } else {
            thread
                .atomic(|tx| Self::overwrite_in(tower, value, tx))
                .expect("update_value is never cancelled")
        }
    }

    /// Replaces a tower's value inside `tx`, returning the old one; `None`
    /// (writing nothing) if the tower is logically deleted.
    fn overwrite_in(
        tower: &Tower<S, AUX>,
        value: u64,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Option<u64>> {
        if !Self::live_in(tower, tx)? {
            return Ok(None);
        }
        let old = tx.read(&tower.value)?;
        tx.write(&tower.value, enc(value))?;
        Ok(Some(dec(old)))
    }

    /// Links a tower of height ≤ [`SHORT_LEVEL_CUTOFF`] using one short
    /// read-write transaction over its predecessors.
    fn insert_short_rw(
        &self,
        w: &Window<'_, S>,
        level: usize,
        new_ptr: Word,
        thread: &mut S::Thread,
    ) -> bool {
        for lvl in 0..level {
            let observed = thread.rw_read(lvl, w.preds[lvl]);
            if !thread.rw_is_valid(lvl + 1) {
                return false;
            }
            if observed != w.succs[lvl] {
                thread.rw_abort(lvl + 1);
                return false;
            }
        }
        thread.rw_commit(level, &[new_ptr; SHORT_LEVEL_CUTOFF][..level])
    }

    /// Links a tower using one ordinary transaction over a window computed
    /// before it (tall towers in Short mode, every tower in Fine mode).
    fn insert_txn_linked(
        &self,
        w: &Window<'_, S>,
        new: (Word, &Tower<S, AUX>),
        thread: &mut S::Thread,
    ) -> bool {
        // A stale window cancels the transaction (the paper's
        // `STM_ABORT_TX`); the caller retries with a fresh search.
        thread
            .atomic(|tx| match self.link_in(w, false, new, tx)? {
                true => Ok(()),
                false => tx.cancel(),
            })
            .is_some()
    }

    /// Body of a full-mode insert-or-update: search and link (or rewrite the
    /// value in place) inside the caller's transaction.  `slot` is the
    /// lazily filled allocation, reused across conflict retries.  A fresh
    /// tower gets `value` (`None`: the value its owner wrote, for
    /// [`StmSkipList::insert_in`]).
    fn upsert_body(
        &self,
        key: u64,
        value: Option<u64>,
        overwrite: bool,
        slot: &mut TowerSlot<S, AUX>,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Upsert> {
        let w = self.descend(key, |cell| tx.read(cell))?;
        if let Some(tower) = Self::found(&w, key) {
            // A tower that is deleted but still linked: wait for the remover
            // to unlink it.
            let Some(value) = value.filter(|_| overwrite) else {
                return match Self::live_in(tower, tx)? {
                    true => Ok(Upsert::Exists),
                    false => tx.restart(),
                };
            };
            return match Self::overwrite_in(tower, value, tx)? {
                Some(old) => Ok(Upsert::Updated(old)),
                None => tx.restart(),
            };
        }
        let (ptr, tower) = slot.tower(&self.stm, key);
        if let Some(value) = value {
            S::poke(&tower.value, enc(value));
        }
        if self.link_in(&w, true, (ptr, tower), tx)? {
            Ok(Upsert::Inserted)
        } else {
            tx.restart()
        }
    }

    /// Full-mode insert-or-update: search and link inside a single ordinary
    /// transaction.
    fn upsert_txn(&self, key: u64, value: u64, overwrite: bool, thread: &mut S::Thread) -> Upsert {
        let mut slot = TowerSlot::new();
        let outcome = thread
            .atomic(|tx| self.upsert_body(key, Some(value), overwrite, &mut slot, tx))
            .expect("upsert transaction is never cancelled");
        if matches!(outcome, Upsert::Inserted) {
            slot.mark_published();
        }
        outcome
    }

    /// Links the tower of `slot` for `key` inside an already-running full
    /// transaction.  Returns `false` (writing nothing) if the key is
    /// already present.  The tower is linked as its owner filled it: a
    /// fresh one holds zero in its value and `AUX` cells (the sharded store
    /// fills an entry and links it into its hash map first, in the same
    /// transaction).
    ///
    /// In Short and Fine mode the key's window is found the way the paper
    /// searches: a descent through `seek_read`, outside the read set, then
    /// `link_in` over that window as one from before the transaction, so
    /// only the predecessor links at the tower's own height are logged.
    /// That is one snapshot for the reason `land_in` gives.
    /// Any other outcome — a key the descent found, a stale window, a
    /// window this transaction's own buffered writes changed (which single
    /// reads do not see) — answers from a logged descent in the same
    /// attempt, as Full mode always does: an unlogged "present" may be
    /// newer than the snapshot, and restarting would retry for ever when
    /// this transaction itself linked a neighbour.
    ///
    /// `slot` carries the speculative tower allocation across conflict
    /// retries of the enclosing transaction; see [`TowerSlot`] for the
    /// publication contract.
    pub fn insert_in(
        &self,
        key: u64,
        slot: &mut TowerSlot<S, AUX>,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<bool> {
        if self.mode != ApiMode::Full {
            let w = self.descend(key, |cell| self.seek_read(cell, tx))?;
            if Self::found(&w, key).is_none()
                && self.link_in(&w, false, slot.tower(&self.stm, key), tx)?
            {
                return Ok(true);
            }
        }
        let outcome = self.upsert_body(key, None, false, slot, tx)?;
        Ok(matches!(outcome, Upsert::Inserted))
    }

    // ------------------------------------------------------------------
    // Remove
    // ------------------------------------------------------------------

    fn remove_split(&self, key: u64, thread: &mut S::Thread) -> bool {
        thread.retry(|thread| {
            let _pin = thread.epoch().pin();
            let w = self.search(key, thread);
            let Some(tower) = Self::found(&w, key) else {
                return Some(false);
            };
            let outcome = if self.mode == ApiMode::Short && tower.level() <= SHORT_LEVEL_CUTOFF {
                self.remove_short_rw(&w, tower, thread)
            } else {
                self.remove_txn_unlink(&w, tower, thread)
            };
            match outcome {
                Removal::Removed => {
                    // Unlinked and marked by the committed step above.
                    RetiredTower {
                        ptr: Self::tower(w.succs[0]),
                    }
                    .retire(thread);
                    Some(true)
                }
                Removal::AlreadyGone => Some(false),
                Removal::Retry => None,
            }
        })
    }

    /// Removes a tower of height ≤ [`SHORT_LEVEL_CUTOFF`] with one short
    /// read-write transaction covering the predecessors and the tower's own
    /// forward pointers.
    fn remove_short_rw(
        &self,
        w: &Window<'_, S>,
        tower: &Tower<S, AUX>,
        thread: &mut S::Thread,
    ) -> Removal {
        let (target, level) = (w.succs[0], tower.level());
        let mut values = [0 as Word; 2 * SHORT_LEVEL_CUTOFF];
        // First the predecessors (unlink), then the tower's own pointers
        // (mark).  All locations are distinct.
        for lvl in 0..level {
            let observed = thread.rw_read(lvl, w.preds[lvl]);
            if !thread.rw_is_valid(lvl + 1) {
                return Removal::Retry;
            }
            if observed != target {
                thread.rw_abort(lvl + 1);
                return Removal::Retry;
            }
        }
        for (lvl, link) in tower.links().iter().enumerate() {
            let own = thread.rw_read(level + lvl, link);
            if !thread.rw_is_valid(level + lvl + 1) {
                return Removal::Retry;
            }
            if is_marked(own) {
                thread.rw_abort(level + lvl + 1);
                return Removal::AlreadyGone;
            }
            values[lvl] = unmark(own);
            values[level + lvl] = mark(own);
        }
        if thread.rw_commit(2 * level, &values[..2 * level]) {
            Removal::Removed
        } else {
            Removal::Retry
        }
    }

    /// Removes a tower with one ordinary transaction over a window computed
    /// before it (tall towers in Short mode, every tower in Fine mode).  A
    /// stale window commits nothing and reports [`Removal::Retry`].
    fn remove_txn_unlink(
        &self,
        w: &Window<'_, S>,
        tower: &Tower<S, AUX>,
        thread: &mut S::Thread,
    ) -> Removal {
        thread
            .atomic(|tx| Self::unlink_in(w, false, tower, tx))
            .expect("remove transaction is never cancelled")
    }

    /// Full-mode remove: search and unlink inside one ordinary transaction.
    fn remove_txn(&self, key: u64, thread: &mut S::Thread) -> bool {
        let unlinked = thread
            .atomic(|tx| self.remove_in(key, tx))
            .expect("remove transaction is never cancelled");
        unlinked.map(|tower| tower.retire(thread)).is_some()
    }

    /// Removes `key` inside an already-running full transaction.  Returns
    /// the unlinked tower (to be retired **after** the transaction commits;
    /// see [`RetiredTower`]) or `None` if the key was absent.
    ///
    /// In Short and Fine mode, as in [`StmSkipList::insert_in`], the window
    /// comes from a descent through `seek_read`, and `unlink_in` over it as
    /// a window from before the transaction logs the tower's own links and
    /// its predecessors.  Only `Removal::Removed` answers from there; a
    /// key the descent did not find, a tower already marked or a stale
    /// window answers from a logged descent in the same attempt.
    pub fn remove_in(
        &self,
        key: u64,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Option<RetiredTower<S, AUX>>> {
        if self.mode != ApiMode::Full {
            let w = self.descend(key, |cell| self.seek_read(cell, tx))?;
            if let Some(tower) = Self::found(&w, key) {
                if let Removal::Removed = Self::unlink_in(&w, false, tower, tx)? {
                    return Ok(Some(RetiredTower {
                        ptr: Self::tower(w.succs[0]),
                    }));
                }
            }
        }
        let w = self.descend(key, |cell| tx.read(cell))?;
        let Some(tower) = Self::found(&w, key) else {
            return Ok(None);
        };
        match Self::unlink_in(&w, true, tower, tx)? {
            Removal::Removed => Ok(Some(RetiredTower {
                ptr: Self::tower(w.succs[0]),
            })),
            Removal::AlreadyGone => Ok(None),
            Removal::Retry => tx.restart(),
        }
    }

    // ------------------------------------------------------------------
    // Range scans (inside a caller-provided full transaction)
    // ------------------------------------------------------------------

    /// How a descent inside `tx` — a range read's seek, or the search under
    /// `insert_in` and `remove_in` — reads the level hint and the links it
    /// crosses: the paper's `Search`, one single-location read per link, in
    /// the walk-based modes (Short and Fine), and `tx.read` in Full mode,
    /// whose every step is one ordinary transaction.
    #[inline]
    fn seek_read(&self, cell: &S::Cell, tx: &mut FullTx<'_, S::Thread>) -> TxResult<Word> {
        match self.mode {
            ApiMode::Full => tx.read(cell),
            ApiMode::Short | ApiMode::Fine => Ok(tx.thread().single_read(cell)),
        }
    }

    /// Lands a seek for `start` that stopped at `pred` — the level-0 link of
    /// the last tower it found below `start`, or the head's — having read
    /// `curr` from it, and returns the first tower word at or after `start`
    /// (`0` at the end of the list).  In Full mode the seek's reads are
    /// already logged and `curr` is the answer.  Otherwise `pred`, and every
    /// level-0 link from it to the tower returned, are read here with
    /// `tx.read`.
    ///
    /// That is what lets the seek itself go unlogged.  A removal marks a
    /// tower's own links in the step that unlinks it, so `pred` unmarked at
    /// the transaction's serialization point means its tower is linked
    /// there; its key is below `start` and never changes; and the links from
    /// it onwards are in the read set.  So the tower returned is the list's
    /// first at or after `start` in the transaction's snapshot, whichever
    /// links the seek crossed to find `pred`.  A marked `pred` (its tower
    /// was removed after the seek passed it, perhaps by this transaction
    /// itself) lands through a logged descent instead.
    fn land_in(
        &self,
        pred: &S::Cell,
        curr: Word,
        start: u64,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Word> {
        if self.mode == ApiMode::Full {
            return Ok(curr);
        }
        let link = tx.read(pred)?;
        if is_marked(link) {
            return Ok(self.descend(start, |cell| tx.read(cell))?.succs[0]);
        }
        let mut cand = link;
        while cand != 0 {
            // SAFETY: `cand` was read from a reachable link within this
            // attempt, whose epoch pin keeps the tower alive.
            let tower = unsafe { &*Self::tower(cand) };
            if tower.key >= start {
                break;
            }
            cand = unmark(tx.read(&tower.links()[0])?);
        }
        Ok(cand)
    }

    /// The first live tower with `key <= last` at or after `cand` on level
    /// 0, with its level-0 forward pointer: reading that pointer is what
    /// establishes liveness, and it is the link a walk continues through.
    /// The reference is valid for the rest of the transaction attempt.
    fn next_live_in<'a>(
        mut cand: Word,
        last: u64,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Option<(&'a Tower<S, AUX>, Word)>> {
        while cand != 0 {
            // SAFETY: `cand` was read transactionally from a reachable link
            // within this attempt, whose epoch pin keeps the tower alive.
            let tower = unsafe { &*Self::tower(cand) };
            if tower.key > last {
                break;
            }
            let next = tx.read(&tower.links()[0])?;
            if !is_marked(next) {
                return Ok(Some((tower, next)));
            }
            cand = unmark(next);
        }
        Ok(None)
    }

    /// Walks several lists at once as one streaming k-way merge:
    /// `visit(i, tower, tx)` sees the live towers of every
    /// `lists[i]` with `start <= key <= last` in ascending key order (ties
    /// in list order) until it returns [`ControlFlow::Break`].  This is the
    /// one in-transaction range walk: under the sharded KV store's scans,
    /// whose lists partition the key space, and, over one list, under
    /// [`StmSkipList::range`] and [`StmSkipList::collect_range_in`].  The
    /// visited range is an atomically consistent snapshot when the
    /// transaction commits.  The visitor reads the tower's value and `AUX`
    /// cells itself, and may keep what it read for after the walk: the walk
    /// returns within the same attempt, whose epoch pin still covers every
    /// tower it visited (the store keeps each entry's value word and copies
    /// the values out once the walk is done).
    ///
    /// `floor(i)`, called once per list, is the caller's promise that
    /// `lists[i]` holds no key `k` with `start <= k < floor(i)` at any
    /// point of the transaction (the sharded store knows this from its
    /// router: which shard holds a key is a function of the key alone).  A
    /// list stays unsought, and unread, until its floor could be the
    /// merge's next key: the first round of seeks takes every list whose
    /// floor is the lowest, and each later round takes every unsought list
    /// whose floor is at or below the lowest landed head (or `last`, once
    /// no head is left).  No list is sought twice, and a list whose floor
    /// lies past `last` makes no read at all.  With every floor at `start`,
    /// the first round seeks every list.
    ///
    /// Each list is sought with the paper's `Search` (the steps of the
    /// private `descend`), which reads through `seek_read` — single-location
    /// reads outside the read set, except in Full mode — and `land_in` logs
    /// where it lands.  The transaction then reads one level-0 link per
    /// tower visited — nothing is collected ahead of the visitor, so a walk
    /// that stops after `n` towers has read `n` of them (plus the one head
    /// each sought list holds ready).
    ///
    /// A round's descents run in lockstep: each step moves every unfinished
    /// descent one step (right, or down a level), and prefetches the tower
    /// it just read before any descent dereferences it, so the lists' cache
    /// misses overlap instead of queueing.  The walk reads exactly the
    /// cells, logged or not, that one such descent and landing per sought
    /// list, run one list after another, would — only their order across
    /// lists differs.  `ahead(i, tower)` is called whenever a tower becomes
    /// list `i`'s head (once after its descent, then once per advance), so
    /// the caller can prefetch what its visitor will touch there — the
    /// sharded store peeks the value word for the cell it names.
    pub fn walk_merged_in<L, A, F>(
        lists: &[Self],
        start: u64,
        last: u64,
        tx: &mut FullTx<'_, S::Thread>,
        mut floor: L,
        mut ahead: A,
        mut visit: F,
    ) -> TxResult<()>
    where
        L: FnMut(usize) -> u64,
        A: FnMut(usize, &Tower<S, AUX>),
        F: FnMut(usize, &Tower<S, AUX>, &mut FullTx<'_, S::Thread>) -> TxResult<ControlFlow<()>>,
    {
        let mut heads: Vec<Head<'_, S, AUX>> = (0..lists.len())
            .map(|i| Head::Unsought(floor(i).max(start)))
            .collect();
        let mut first_round = true;
        loop {
            // The lowest landed head (ties in list order) and the lowest
            // floor of a list not sought yet.
            let mut lowest: Option<(usize, &Tower<S, AUX>, Word)> = None;
            let mut unsought: Option<u64> = None;
            for (i, head) in heads.iter().enumerate() {
                match *head {
                    Head::At(Some((tower, next))) => match lowest {
                        Some((_, low, _)) if low.key <= tower.key => {}
                        _ => lowest = Some((i, tower, next)),
                    },
                    Head::Unsought(f) => unsought = Some(unsought.map_or(f, |u| u.min(f))),
                    _ => {}
                }
            }
            let next_key = lowest.map_or(last, |(_, tower, _)| tower.key);
            if let Some(low_floor) = unsought.filter(|&f| f <= next_key) {
                // A round: the first takes the lists at the lowest floor,
                // later ones every list that could hold the next key.
                let below = if first_round { low_floor } else { next_key };
                first_round = false;
                for (head, list) in heads.iter_mut().zip(lists) {
                    if matches!(*head, Head::Unsought(f) if f <= below) {
                        let cursor = list.cursor(&mut |cell| list.seek_read(cell, tx))?;
                        spectm::prefetch(Self::tower(cursor.curr));
                        *head = Head::Seeking(cursor);
                    }
                }
                Self::seek_lockstep(lists, &mut heads, start, last, tx, &mut ahead)?;
                continue;
            }
            let Some((i, tower, next)) = lowest else {
                return Ok(());
            };
            if visit(i, tower, tx)?.is_break() {
                return Ok(());
            }
            let found = Self::next_live_in(unmark(next), last, tx)?;
            if let Some((tower, _)) = found {
                ahead(i, tower);
            }
            heads[i] = Head::At(found);
        }
    }

    /// Runs the descents of [`StmSkipList::walk_merged_in`]'s current round
    /// — its `Seeking` heads — to their landings in lockstep, and reports
    /// each landed head to `ahead`.
    fn seek_lockstep<'a>(
        lists: &'a [Self],
        heads: &mut [Head<'a, S, AUX>],
        start: u64,
        last: u64,
        tx: &mut FullTx<'_, S::Thread>,
        ahead: &mut impl FnMut(usize, &Tower<S, AUX>),
    ) -> TxResult<()> {
        let mut seeking = heads
            .iter()
            .filter(|head| matches!(head, Head::Seeking(_)))
            .count();
        while seeking > 0 {
            for (i, (head, list)) in heads.iter_mut().zip(lists).enumerate() {
                let Head::Seeking(cursor) = head else {
                    continue;
                };
                if !cursor.step(start, &mut |cell| list.seek_read(cell, tx), |_, _, _| {})? {
                    spectm::prefetch(Self::tower(cursor.curr));
                    continue;
                }
                let cand = list.land_in(cursor.pred, cursor.curr, start, tx)?;
                let found = Self::next_live_in(cand, last, tx)?;
                if let Some((tower, _)) = found {
                    ahead(i, tower);
                }
                *head = Head::At(found);
                seeking -= 1;
            }
        }
        Ok(())
    }

    /// Collects up to `limit` live `(key, value)` pairs with
    /// `start <= key < end`, in key order, inside an already-running full
    /// transaction: [`StmSkipList::walk_merged_in`] over this one list, its
    /// floor at `start`, reading each visited tower's value cell.
    pub fn collect_range_in(
        &self,
        start: u64,
        end: u64,
        limit: usize,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Vec<(u64, u64)>> {
        let mut out = Vec::new();
        if end == 0 || limit == 0 {
            return Ok(out);
        }
        Self::walk_merged_in(
            std::slice::from_ref(self),
            start,
            end - 1,
            tx,
            |_| start,
            |_, _| {},
            |_, tower, tx| {
                out.push((tower.key, dec(tx.read(&tower.value)?)));
                Ok(if out.len() < limit {
                    ControlFlow::Continue(())
                } else {
                    ControlFlow::Break(())
                })
            },
        )?;
        Ok(out)
    }
}

impl<S: Stm, const AUX: usize> Drop for StmSkipList<S, AUX> {
    fn drop(&mut self) {
        // Exclusive access: free every remaining tower via level 0.
        let mut curr = S::peek(&self.head[0]);
        while unmark(curr) != 0 {
            let tower = Self::tower(curr);
            // SAFETY: during drop nothing else references the towers; each
            // is freed once, after its level-0 link was read.
            curr = unsafe {
                let next = S::peek(&(*tower).links()[0]);
                free_tower::<S, AUX>(tower.cast());
                next
            };
        }
    }
}

/// Draws a tower height with the paper's geometric distribution (p = ½) —
/// the same distribution as the lock-free baseline's `random_level`, so both
/// skip lists have the same expected shape, from this crate's own
/// thread-local stream (`spectm-ds` cannot depend on `lockfree`).
fn random_level() -> usize {
    use std::cell::Cell;
    thread_local! {
        static STATE: Cell<u64> = const { Cell::new(0x853c_49e6_748f_ea9b) };
    }
    STATE.with(|s| {
        let mut x = s.get();
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        s.set(x);
        let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        ((bits.trailing_ones() as usize) + 1).min(MAX_LEVEL)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectm::variants::{OrecFullG, OrecStm, TvarShortG, ValShort};
    use spectm::{Config, StatsSnapshot};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn oracle_test<S: Stm + Clone>(stm: S, mode: ApiMode) {
        let list = StmSkipList::new(&stm, mode);
        let mut t = stm.register();
        let mut oracle = BTreeSet::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2_000 {
            let k = rng() % 200 + 1;
            match rng() % 3 {
                0 => assert_eq!(list.insert(k, &mut t), oracle.insert(k), "insert {k}"),
                1 => assert_eq!(list.remove(k, &mut t), oracle.remove(&k), "remove {k}"),
                _ => assert_eq!(
                    list.contains(k, &mut t),
                    oracle.contains(&k),
                    "contains {k}"
                ),
            }
        }
        assert_eq!(
            list.quiescent_snapshot(),
            oracle.into_iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn oracle_short_val() {
        oracle_test(ValShort::new(), ApiMode::Short);
    }

    #[test]
    fn oracle_short_tvar() {
        oracle_test(TvarShortG::new(), ApiMode::Short);
    }

    #[test]
    fn oracle_full_orec_global_and_local() {
        oracle_test(OrecFullG::new(), ApiMode::Full);
        oracle_test(OrecStm::with_config(Config::local()), ApiMode::Full);
    }

    #[test]
    fn oracle_fine_orec() {
        oracle_test(OrecFullG::new(), ApiMode::Fine);
    }

    #[test]
    fn oracle_full_val() {
        oracle_test(ValShort::new(), ApiMode::Full);
    }

    fn concurrent_disjoint<S: Stm + Clone>(stm: S, mode: ApiMode) {
        let stm = Arc::new(stm);
        let list = Arc::new(StmSkipList::new(&*stm, mode));
        const THREADS: u64 = 4;
        const RANGE: u64 = 250;
        let mut joins = Vec::new();
        for tid in 0..THREADS {
            let stm = Arc::clone(&stm);
            let list = Arc::clone(&list);
            joins.push(std::thread::spawn(move || {
                let mut t = stm.register();
                let base = 1 + tid * RANGE;
                for k in 0..RANGE {
                    assert!(list.insert(base + k, &mut t));
                }
                for k in (0..RANGE).step_by(2) {
                    assert!(list.remove(base + k, &mut t));
                }
                for k in 0..RANGE {
                    assert_eq!(list.contains(base + k, &mut t), k % 2 == 1);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(
            list.quiescent_snapshot().len(),
            (THREADS * RANGE / 2) as usize
        );
    }

    #[test]
    fn concurrent_disjoint_val_short() {
        concurrent_disjoint(ValShort::new(), ApiMode::Short);
    }

    #[test]
    fn concurrent_disjoint_tvar_short() {
        concurrent_disjoint(TvarShortG::new(), ApiMode::Short);
    }

    #[test]
    fn concurrent_disjoint_orec_full() {
        concurrent_disjoint(OrecFullG::new(), ApiMode::Full);
    }

    fn contended_churn<S: Stm + Clone>(stm: S, mode: ApiMode) {
        use std::sync::atomic::{AtomicI64, Ordering};
        let stm = Arc::new(stm);
        let list = Arc::new(StmSkipList::new(&*stm, mode));
        let balance: Arc<Vec<AtomicI64>> = Arc::new((0..48).map(|_| AtomicI64::new(0)).collect());
        let mut joins = Vec::new();
        for tid in 0..4u64 {
            let stm = Arc::clone(&stm);
            let list = Arc::clone(&list);
            let balance = Arc::clone(&balance);
            joins.push(std::thread::spawn(move || {
                let mut t = stm.register();
                let mut state = tid * 131 + 17;
                let mut rng = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for _ in 0..2_500 {
                    let k = rng() % 48 + 1;
                    if rng() % 2 == 0 {
                        if list.insert(k, &mut t) {
                            // ORDERING: test oracle counter, read after join.
                            balance[(k - 1) as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    } else if list.remove(k, &mut t) {
                        // ORDERING: test oracle counter, read after join.
                        balance[(k - 1) as usize].fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut t = stm.register();
        for k in 1..=48u64 {
            // ORDERING: read after all workers joined; join synchronizes.
            let bal = balance[(k - 1) as usize].load(std::sync::atomic::Ordering::Relaxed);
            assert!(bal == 0 || bal == 1, "key {k} balance {bal}");
            assert_eq!(list.contains(k, &mut t), bal == 1, "key {k}");
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

    fn map_oracle_test<S: Stm + Clone>(stm: S, mode: ApiMode) {
        use std::collections::BTreeMap;
        let list = StmSkipList::new(&stm, mode);
        let mut t = stm.register();
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        let mut state = 0xDEAD_BEEF_1234_5678u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2_000 {
            let k = rng() % 128 + 1;
            let v = rng() >> 2;
            match rng() % 5 {
                0 | 1 => assert_eq!(list.put(k, v, &mut t), oracle.insert(k, v), "put {k}"),
                2 => assert_eq!(list.remove(k, &mut t), oracle.remove(&k).is_some()),
                3 => assert_eq!(list.get(k, &mut t), oracle.get(&k).copied(), "get {k}"),
                _ => {
                    let lo = rng() % 128;
                    let hi = lo + rng() % 32;
                    let expect: Vec<(u64, u64)> =
                        oracle.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(list.range(lo, hi, &mut t), expect, "range {lo}..{hi}");
                }
            }
        }
        assert_eq!(
            list.quiescent_pairs(),
            oracle.into_iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn map_oracle_short_val() {
        map_oracle_test(ValShort::new(), ApiMode::Short);
    }

    #[test]
    fn map_oracle_short_tvar() {
        map_oracle_test(TvarShortG::new(), ApiMode::Short);
    }

    #[test]
    fn map_oracle_full_orec() {
        map_oracle_test(OrecFullG::new(), ApiMode::Full);
    }

    #[test]
    fn map_oracle_fine_orec() {
        map_oracle_test(OrecFullG::new(), ApiMode::Fine);
    }

    /// Every STM call one thread makes over a seeded script: 3 000 inserts,
    /// puts, removes, lookups, gets and 16-key ranges over 200 keys, each
    /// checked against a map.  The script runs on a freshly spawned thread,
    /// so the tower heights `random_level` draws start from its constant.
    fn list_calls<S: Stm + Clone>(stm: S, mode: ApiMode) -> StatsSnapshot {
        std::thread::spawn(move || {
            use std::collections::BTreeMap;
            let list = StmSkipList::new(&stm, mode);
            let mut t = stm.register();
            let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
            let mut state = 0x0BAD_5EED_2468_ACE1u64;
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for _ in 0..3_000 {
                let k = rng() % 200;
                match rng() % 6 {
                    0 => {
                        let fresh = !oracle.contains_key(&k);
                        oracle.entry(k).or_insert(0);
                        assert_eq!(list.insert(k, &mut t), fresh, "insert {k}");
                    }
                    1 => assert_eq!(list.put(k, k + 1, &mut t), oracle.insert(k, k + 1)),
                    2 => assert_eq!(list.remove(k, &mut t), oracle.remove(&k).is_some()),
                    3 => assert_eq!(list.contains(k, &mut t), oracle.contains_key(&k)),
                    4 => assert_eq!(list.get(k, &mut t), oracle.get(&k).copied(), "get {k}"),
                    _ => {
                        let expect: Vec<(u64, u64)> =
                            oracle.range(k..k + 16).map(|(&k, &v)| (k, v)).collect();
                        assert_eq!(list.range(k, k + 16, &mut t), expect, "range from {k}");
                    }
                }
            }
            t.stats()
        })
        .join()
        .expect("the script matches its oracle")
    }

    /// The skip list's operations make exactly the STM calls recorded here:
    /// equal totals, not merely no more.  The rows were recorded on the
    /// parent of the change that made every in-transaction read one descent
    /// (ranges one-list merged walks, Full-mode `contains`/`get` `descend`
    /// plus `found`), which reproduces them exactly: Short 678 full
    /// transactions (10 399 reads, 1 107 writes), 614 short read-write and
    /// 289 short read-only commits, 53 911 single-location reads; Full
    /// 3 000 transactions, 64 263 reads, 2 440 writes; Fine 46 721
    /// transactions, 57 515 reads, 2 440 writes, 8 771 single-location
    /// reads (the ranges' seeks).  Exact on any machine: one thread runs a
    /// fixed script with a fixed stream of tower heights.
    #[test]
    fn skiplist_operations_make_the_recorded_stm_calls() {
        let short = StatsSnapshot {
            full_starts: 678,
            full_commits: 678,
            full_reads: 10_399,
            full_writes: 1_107,
            short_rw_starts: 614,
            short_rw_commits: 614,
            short_ro_commits: 289,
            singles: 53_911,
            ..StatsSnapshot::default()
        };
        let full = StatsSnapshot {
            full_starts: 3_000,
            full_commits: 3_000,
            full_reads: 64_263,
            full_writes: 2_440,
            ..StatsSnapshot::default()
        };
        let fine = StatsSnapshot {
            full_starts: 46_721,
            full_commits: 46_721,
            full_reads: 57_515,
            full_writes: 2_440,
            singles: 8_771,
            ..StatsSnapshot::default()
        };
        assert_eq!(list_calls(ValShort::new(), ApiMode::Short), short);
        assert_eq!(list_calls(TvarShortG::new(), ApiMode::Short), short);
        assert_eq!(list_calls(OrecFullG::new(), ApiMode::Full), full);
        assert_eq!(list_calls(ValShort::new(), ApiMode::Full), full);
        assert_eq!(list_calls(OrecFullG::new(), ApiMode::Fine), fine);
    }

    #[test]
    fn set_insert_does_not_clobber_values() {
        let stm = ValShort::new();
        let list = StmSkipList::new(&stm, ApiMode::Short);
        let mut t = stm.register();
        assert_eq!(list.put(7, 70, &mut t), None);
        assert!(!list.insert(7, &mut t), "set insert sees the key");
        assert_eq!(list.get(7, &mut t), Some(70), "value survives set insert");
    }

    #[test]
    fn in_tx_helpers_compose_with_a_full_transaction() {
        let stm = ValShort::new();
        let list = StmSkipList::new(&stm, ApiMode::Short);
        let mut t = stm.register();
        list.put(2, 20, &mut t);
        list.put(4, 40, &mut t);
        // Insert 3 and remove 4 in one transaction, observing the range
        // before and after.
        // `insert_in` links the tower as its owner filled it.
        let mut slot = TowerSlot::new();
        ValShort::poke(&slot.tower(&stm, 3).1.value, enc(30));
        let mut retired = None;
        let (before, after) = t
            .atomic(|tx| {
                retired = None;
                let before = list.collect_range_in(0, 10, usize::MAX, tx)?;
                let inserted = list.insert_in(3, &mut slot, tx)?;
                assert!(inserted);
                retired = list.remove_in(4, tx)?;
                let after = list.collect_range_in(0, 10, usize::MAX, tx)?;
                Ok((before, after))
            })
            .unwrap();
        slot.mark_published();
        retired.expect("key 4 was present").retire(&mut t);
        assert_eq!(before, vec![(2, 20), (4, 40)]);
        assert_eq!(after, vec![(2, 20), (3, 30)]);
        assert_eq!(list.quiescent_pairs(), vec![(2, 20), (3, 30)]);
        assert_eq!(list.get(3, &mut t), Some(30));
        // A seek reads what is committed, so from 3 it stops at 2, whose
        // level-0 link the transaction has just marked by removing 2: the
        // landing falls back to a logged descent instead of retrying for ever.
        let mut retired = None;
        let after = t
            .atomic(|tx| {
                retired = list.remove_in(2, tx)?;
                list.collect_range_in(3, 10, usize::MAX, tx)
            })
            .unwrap();
        retired.expect("key 2 was present").retire(&mut t);
        assert_eq!(after, vec![(3, 30)]);
    }

    /// Every level of `list` is sorted and names only towers linked on
    /// level 0 (quiescent).
    fn assert_levels_sorted<S: Stm>(list: &StmSkipList<S>) {
        let members: std::collections::HashMap<Word, &Tower<S>> = list
            .quiescent_towers()
            .into_iter()
            .map(|tower| (tower as *const Tower<S> as Word, tower))
            .collect();
        for (lvl, head) in list.head.iter().enumerate() {
            let mut keys = Vec::new();
            let mut curr = unmark(S::peek(head));
            while curr != 0 {
                let tower = members
                    .get(&curr)
                    .unwrap_or_else(|| panic!("level {lvl} names a tower level 0 does not"));
                keys.push(tower.key);
                curr = unmark(S::peek(&tower.links()[lvl]));
            }
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "level {lvl}: {keys:?}"
            );
        }
    }

    /// A tower of height `level` for `key`, in a slot as `insert_in` takes it.
    fn slot_of_height<S: Stm>(stm: &S, key: u64, level: usize) -> TowerSlot<S> {
        TowerSlot {
            ptr: Tower::alloc(stm, key, level),
            linked: true,
        }
    }

    /// `insert_in` and `remove_in` answer from within the transaction's
    /// snapshot when their unlogged descent cannot: single reads do not
    /// see the transaction's own buffered writes.  In one transaction:
    /// two adjacent fresh keys (the second's window is stale against the
    /// first's link), the second again (present only in the buffered
    /// writes), a removal of the first (absent from what is committed)
    /// and of it once more (marked only in the buffered writes).  Then, in
    /// one transaction, two towers taller than any window's `top`: the
    /// first raises the hint, the second finds the head links above the
    /// committed hint already written.
    fn own_writes_fall_back<S: Stm + Clone>(stm: S, mode: ApiMode) {
        let list = StmSkipList::new(&stm, mode);
        let mut t = stm.register();
        for k in [10, 20, 40] {
            assert!(list.insert(k, &mut t));
        }
        let mut slots: [TowerSlot<S>; 3] = std::array::from_fn(|_| TowerSlot::new());
        let mut retired = None;
        let answers = t
            .atomic(|tx| {
                let first = list.insert_in(30, &mut slots[0], tx)?;
                let second = list.insert_in(31, &mut slots[1], tx)?;
                let again = list.insert_in(31, &mut slots[2], tx)?;
                retired = list.remove_in(30, tx)?;
                let twice = list.remove_in(30, tx)?.is_some();
                let keys = list.collect_range_in(0, 100, usize::MAX, tx)?;
                Ok((first, second, again, twice, keys))
            })
            .unwrap();
        let keys = |pairs: Vec<(u64, u64)>| pairs.into_iter().map(|(k, _)| k).collect::<Vec<_>>();
        let (first, second, again, twice, seen) = answers;
        assert_eq!((first, second, again, twice), (true, true, false, false));
        assert_eq!(keys(seen), [10, 20, 31, 40]);
        slots[0].mark_published();
        slots[1].mark_published();
        retired.expect("30 was linked").retire(&mut t);
        assert_eq!(list.quiescent_snapshot(), [10, 20, 31, 40]);
        assert_levels_sorted(&list);

        let hint = decode_int(S::peek(&list.level_hint));
        assert!(hint < 10, "hint {hint}");
        let mut tall = [slot_of_height(&stm, 25, 12), slot_of_height(&stm, 26, 10)];
        let linked = t
            .atomic(|tx| {
                let [a, b] = &mut tall;
                Ok((list.insert_in(25, a, tx)?, list.insert_in(26, b, tx)?))
            })
            .unwrap();
        assert_eq!(linked, (true, true));
        tall.iter_mut().for_each(TowerSlot::mark_published);
        assert_eq!(decode_int(S::peek(&list.level_hint)), 12);
        assert_eq!(list.quiescent_snapshot(), [10, 20, 25, 26, 31, 40]);
        assert_levels_sorted(&list);
        for k in [10, 20, 25, 26, 31, 40] {
            assert!(list.contains(k, &mut t), "{k}");
        }
    }

    #[test]
    fn in_tx_membership_falls_back_on_own_writes() {
        own_writes_fall_back(ValShort::new(), ApiMode::Short);
        own_writes_fall_back(TvarShortG::new(), ApiMode::Short);
        own_writes_fall_back(OrecFullG::new(), ApiMode::Fine);
        own_writes_fall_back(OrecFullG::new(), ApiMode::Full);
    }

    /// Outside Full mode, a membership transaction logs only its window at
    /// the tower's own height: an insert its `h` predecessor links, a
    /// removal those and the tower's own `h` links.  The descent's reads
    /// are single reads.  Full mode logs the whole descent and reads
    /// nothing outside the transaction.
    fn membership_logs<S: Stm + Clone>(stm: S, mode: ApiMode) {
        let list = StmSkipList::new(&stm, mode);
        let mut t = stm.register();
        for k in 1..=1_000u64 {
            assert!(list.insert(k * 10, &mut t));
        }
        let reads = |tx: &mut FullTx<'_, S::Thread>| {
            let stats = tx.thread().stats();
            (stats.full_reads, stats.singles)
        };
        for (key, level) in [(5_005, 1), (5_015, 2), (0, 2), (20_000, 1)] {
            let mut slot = slot_of_height(&stm, key, level);
            let (inserted, (full, singles)) = t
                .atomic(|tx| {
                    let before = reads(tx);
                    let inserted = list.insert_in(key, &mut slot, tx)?;
                    let after = reads(tx);
                    Ok((inserted, (after.0 - before.0, after.1 - before.1)))
                })
                .unwrap();
            assert!(inserted, "{key}");
            slot.mark_published();
            let (removed, (rm_full, rm_singles)) = t
                .atomic(|tx| {
                    let before = reads(tx);
                    let removed = list.remove_in(key, tx)?;
                    let after = reads(tx);
                    Ok((removed, (after.0 - before.0, after.1 - before.1)))
                })
                .unwrap();
            removed.expect("just linked").retire(&mut t);
            if mode == ApiMode::Full {
                assert_eq!((singles, rm_singles), (0, 0), "{key}");
                assert!(full > level as u64 && rm_full > 2 * level as u64, "{key}");
            } else {
                let level = level as u64;
                assert_eq!((full, rm_full), (level, 2 * level), "{key}");
                assert!(
                    singles > 3 && rm_singles > 3,
                    "{key}: {singles}, {rm_singles}"
                );
            }
        }
        assert_eq!(list.quiescent_snapshot().len(), 1_000);
    }

    #[test]
    fn membership_transactions_log_only_their_window() {
        membership_logs(ValShort::new(), ApiMode::Short);
        membership_logs(TvarShortG::new(), ApiMode::Short);
        membership_logs(OrecFullG::new(), ApiMode::Fine);
        membership_logs(OrecFullG::new(), ApiMode::Full);
    }

    #[test]
    fn range_respects_limits_and_bounds() {
        let stm = ValShort::new();
        let list = StmSkipList::new(&stm, ApiMode::Short);
        let mut t = stm.register();
        for k in (0..100u64).step_by(2) {
            list.put(k, k * 10, &mut t);
        }
        list.put(u64::MAX, 7, &mut t);
        let keys_of =
            |pairs: Vec<(u64, u64)>| pairs.into_iter().map(|(k, _)| k).collect::<Vec<_>>();
        let run = t.atomic(|tx| list.collect_range_in(10, 30, 5, tx)).unwrap();
        assert_eq!(keys_of(run), vec![10, 12, 14, 16, 18]);
        let all = t
            .atomic(|tx| list.collect_range_in(90, u64::MAX, usize::MAX, tx))
            .unwrap();
        assert_eq!(keys_of(all), vec![90, 92, 94, 96, 98]);
        assert!(list.range(5, 5, &mut t).is_empty());
        assert!(t
            .atomic(|tx| list.collect_range_in(0, 0, 5, tx))
            .unwrap()
            .is_empty());
        assert!(t
            .atomic(|tx| list.collect_range_in(0, 9, 0, tx))
            .unwrap()
            .is_empty());
        // The walk's bounds are inclusive, so it reaches `u64::MAX` — which
        // no half-open range can — and stops when the visitor says so.
        let lists = std::slice::from_ref(&list);
        let mut tail = Vec::new();
        t.atomic(|tx| {
            tail.clear();
            StmSkipList::walk_merged_in(
                lists,
                95,
                u64::MAX,
                tx,
                |_| 95,
                |_, _| {},
                |_, tower, _| {
                    tail.push(tower.key);
                    Ok(ControlFlow::Continue(()))
                },
            )
        })
        .unwrap();
        assert_eq!(tail, vec![96, 98, u64::MAX]);
        let mut first = None;
        t.atomic(|tx| {
            StmSkipList::walk_merged_in(
                lists,
                97,
                u64::MAX,
                tx,
                |_| 97,
                |_, _| {},
                |_, tower, _| {
                    first = Some(tower.key);
                    Ok(ControlFlow::Break(()))
                },
            )
        })
        .unwrap();
        assert_eq!(first, Some(98));
    }

    #[test]
    fn merged_walk_streams_several_lists_in_key_order() {
        let stm = ValShort::new();
        let lists: Vec<_> = (0..3)
            .map(|_| StmSkipList::new(&stm, ApiMode::Short))
            .collect();
        let mut t = stm.register();
        // Keys partitioned by `k % 3`, `u64::MAX` (also `% 3 == 0`) on top.
        for k in (0..60u64).chain([u64::MAX]) {
            lists[(k % 3) as usize].put(k, k >> 1, &mut t);
        }
        lists[1].remove(31, &mut t);
        let mut seen = Vec::new();
        let mut merged = |start, last, limit: usize, t: &mut <ValShort as Stm>::Thread| {
            t.atomic(|tx| {
                seen.clear();
                StmSkipList::walk_merged_in(
                    &lists,
                    start,
                    last,
                    tx,
                    |_| start,
                    |_, _| {},
                    |i, tower, tx| {
                        let key = tower.key;
                        assert_eq!(i as u64, key % 3, "key {key} reported from list {i}");
                        assert_eq!(dec(tx.read(&tower.value)?), key >> 1);
                        seen.push(key);
                        Ok(if seen.len() < limit {
                            ControlFlow::Continue(())
                        } else {
                            ControlFlow::Break(())
                        })
                    },
                )
            })
            .unwrap();
            seen.clone()
        };
        assert_eq!(merged(28, 34, usize::MAX, &mut t), [28, 29, 30, 32, 33, 34]);
        assert_eq!(merged(28, u64::MAX, 4, &mut t), [28, 29, 30, 32]);
        assert_eq!(merged(58, u64::MAX, usize::MAX, &mut t), [58, 59, u64::MAX]);
        assert_eq!(merged(60, u64::MAX - 1, usize::MAX, &mut t), [0u64; 0]);
        assert_eq!(merged(9, 3, usize::MAX, &mut t), [0u64; 0]);
        // One list is the plain walk.
        let mut alone = Vec::new();
        t.atomic(|tx| {
            alone.clear();
            StmSkipList::walk_merged_in(
                &lists[..1],
                50,
                60,
                tx,
                |_| 50,
                |_, _| {},
                |_, tower, _| {
                    alone.push(tower.key);
                    Ok(ControlFlow::Continue(()))
                },
            )
        })
        .unwrap();
        assert_eq!(alone, [51, 54, 57]);
    }

    /// The sequential seek the merged walk's lockstep descents are checked
    /// against: one whole descent to `start` through `seek_read`, then its
    /// landing, and the first live tower there up to `last`.
    fn seek_head<'a, S: Stm>(
        list: &'a StmSkipList<S>,
        start: u64,
        last: u64,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Option<&'a Tower<S>>> {
        let w = list.descend(start, |cell| list.seek_read(cell, tx))?;
        let cand = list.land_in(w.preds[0], w.succs[0], start, tx)?;
        Ok(StmSkipList::<S>::next_live_in(cand, last, tx)?.map(|(tower, _)| tower))
    }

    /// The merged walk's lockstep descents land where one sequential seek
    /// (`seek_head`) per list lands, reading exactly as many cells the same
    /// way: in one transaction, the heads reported to `ahead` equal the live
    /// towers after each list's sequential seek, and both take the same
    /// number of `tx.read`s and of single-location reads.  The lists differ in shape:
    /// one empty, two holding a single key, one whose tower of height 12
    /// raises only its own level hint, one long.
    fn lockstep_seeks_match_sequential<S: Stm + Clone>(stm: S, mode: ApiMode) {
        let lists: Vec<_> = (0..5).map(|_| StmSkipList::new(&stm, mode)).collect();
        let mut t = stm.register();
        lists[1].put(500, 1, &mut t);
        lists[2].put(5, 2, &mut t);
        for k in (10..=2_000u64).step_by(40) {
            lists[3].put(k, k, &mut t);
        }
        let mut tall = slot_of_height(&stm, 1_000, 12);
        assert!(t
            .atomic(|tx| lists[4].insert_in(1_000, &mut tall, tx))
            .unwrap());
        tall.mark_published();
        for k in [3, 999, 1_001, 4_000] {
            lists[4].put(k, k, &mut t);
        }
        let hints: Vec<usize> = lists
            .iter()
            .map(|list| decode_int(S::peek(&list.level_hint)))
            .collect();
        assert_eq!(hints[4], 12, "the tall tower raised its list's hint");
        assert!(hints[..4].iter().all(|&h| h < 12), "hints {hints:?}");

        let reads = |tx: &mut FullTx<'_, S::Thread>| {
            let stats = tx.thread().stats();
            (stats.full_reads, stats.singles)
        };
        let since = |(full, singles): (u64, u64), tx: &mut FullTx<'_, S::Thread>| {
            let now = reads(tx);
            (now.0 - full, now.1 - singles)
        };
        // Below every key, between keys, on keys, past every key.
        for start in [
            0,
            4,
            5,
            6,
            499,
            501,
            999,
            1_000,
            1_970,
            4_000,
            4_001,
            u64::MAX,
        ] {
            let (sequential, lockstep) = t
                .atomic(|tx| {
                    let before = reads(tx);
                    let mut heads = Vec::new();
                    for list in &lists {
                        let head = seek_head(list, start, u64::MAX, tx)?;
                        heads.push(head.map(|tower| tower.key));
                    }
                    let sequential = (heads, since(before, tx));
                    let before = reads(tx);
                    let mut heads = vec![None; lists.len()];
                    StmSkipList::walk_merged_in(
                        &lists,
                        start,
                        u64::MAX,
                        tx,
                        |_| start,
                        |i, tower| {
                            assert!(heads[i].is_none(), "list {i} landed twice");
                            heads[i] = Some(tower.key);
                        },
                        |_, _, _| Ok(ControlFlow::Break(())),
                    )?;
                    Ok((sequential, (heads, since(before, tx))))
                })
                .unwrap();
            assert_eq!(
                lockstep, sequential,
                "(heads, (tx.reads, single reads)) from {start}"
            );
            let (_, (full, singles)) = sequential;
            if mode == ApiMode::Full {
                assert_eq!(singles, 0, "Full mode logs its seeks");
            } else {
                // The seeks read the hint and a link or more per level; the
                // transaction logs only each landing and each live head.
                assert!(singles > full, "{singles} single reads, {full} tx reads");
            }
        }
    }

    #[test]
    fn lockstep_seeks_match_sequential_seeks() {
        lockstep_seeks_match_sequential(ValShort::new(), ApiMode::Short);
        lockstep_seeks_match_sequential(TvarShortG::new(), ApiMode::Short);
        lockstep_seeks_match_sequential(OrecFullG::new(), ApiMode::Full);
    }

    /// Keys partitioned over the lists in blocks of 64, as the sharded
    /// store's router places them: `block_owner` maps a block to a list.
    fn block_owner(block: u64, lists: usize) -> usize {
        (block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize % lists
    }

    /// The tight floor of `list` for `start` when blocks `0..blocks` hold
    /// keys: `start` in its own block, else the first later block it owns,
    /// else `u64::MAX`.
    fn block_floor(list: usize, lists: usize, blocks: u64, start: u64) -> u64 {
        let first = start >> 6;
        if first < blocks && block_owner(first, lists) == list {
            return start;
        }
        (first + 1..blocks)
            .find(|&block| block_owner(block, lists) == list)
            .map_or(u64::MAX, |block| block << 6)
    }

    /// The floor contract on a block-partitioned key space whose every
    /// block is populated: walks with the tight floors visit exactly what
    /// walks with every floor at `start` visit.  Run to `last`, they read
    /// nothing of a list whose floor lies past the last key visited: their
    /// reads are the floor-less walk's less one sequential seek
    /// (`seek_head`, its landed head included) of each such list.  Stopped
    /// after 16 keys, they read no more than the floor-less walk.
    fn floors_skip_unreachable_lists<S: Stm + Clone>(stm: S, mode: ApiMode) {
        const LISTS: usize = 8;
        const BLOCKS: u64 = 64;
        let lists: Vec<_> = (0..LISTS).map(|_| StmSkipList::new(&stm, mode)).collect();
        let mut t = stm.register();
        for k in 0..BLOCKS << 6 {
            lists[block_owner(k >> 6, LISTS)].put(k, k, &mut t);
        }
        let reads = |t: &mut S::Thread| {
            let stats = t.stats();
            stats.full_reads + stats.singles
        };
        let walk = |floor: &dyn Fn(usize) -> u64, start, last, limit, t: &mut S::Thread| {
            let before = reads(t);
            let mut seen = Vec::new();
            t.atomic(|tx| {
                seen.clear();
                StmSkipList::walk_merged_in(
                    &lists,
                    start,
                    last,
                    tx,
                    floor,
                    |_, _| {},
                    |i, tower, _| {
                        seen.push((i, tower.key));
                        Ok(if seen.len() < limit {
                            ControlFlow::Continue(())
                        } else {
                            ControlFlow::Break(())
                        })
                    },
                )
            })
            .unwrap();
            (seen, reads(t) - before)
        };
        let mut skipped = 0;
        for (start, last) in [
            (0, 0),
            (0, 63),
            (5, 40),
            (63, 64),
            (64, 200),
            (1_000, 1_015),
            (1_000, 1_100),
            (2_047, 2_500),
            (4_000, u64::MAX - 1),
            (4_095, u64::MAX - 1),
            (4_096, u64::MAX - 1),
            (0, u64::MAX - 1),
        ] {
            let tight = |i| block_floor(i, LISTS, BLOCKS, start);
            let (all, all_reads) = walk(&|_| start, start, last, usize::MAX, &mut t);
            let (seen, tight_reads) = walk(&tight, start, last, usize::MAX, &mut t);
            assert_eq!(seen, all, "visits of [{start}, {last}]");
            let last_visited = all.last().map_or(start, |&(_, key)| key);
            let mut unread = 0;
            for (i, list) in lists.iter().enumerate() {
                if tight(i) <= last_visited {
                    continue;
                }
                let before = reads(&mut t);
                t.atomic(|tx| seek_head(list, start, last, tx).map(|_| ()))
                    .unwrap();
                unread += reads(&mut t) - before;
                skipped += 1;
            }
            assert_eq!(
                tight_reads,
                all_reads - unread,
                "reads of [{start}, {last}]: {all_reads} with every list sought"
            );
            let (all, all_reads) = walk(&|_| start, start, last, 16, &mut t);
            let (seen, tight_reads) = walk(&tight, start, last, 16, &mut t);
            assert_eq!(seen, all, "first 16 visits of [{start}, {last}]");
            assert!(tight_reads <= all_reads, "16 visits from {start}");
        }
        assert!(skipped > 40, "only {skipped} lists left unsought");
    }

    #[test]
    fn floors_skip_lists_the_walk_cannot_reach() {
        floors_skip_unreachable_lists(ValShort::new(), ApiMode::Short);
        floors_skip_unreachable_lists(TvarShortG::new(), ApiMode::Short);
        floors_skip_unreachable_lists(OrecFullG::new(), ApiMode::Full);
    }

    #[test]
    fn tall_towers_use_the_fallback_path() {
        // Insert enough keys that towers above the short cutoff certainly
        // appear, exercising the ordinary-transaction fallback.
        let stm = ValShort::new();
        let list = StmSkipList::new(&stm, ApiMode::Short);
        let mut t = stm.register();
        for k in 1..=800u64 {
            assert!(list.insert(k, &mut t));
        }
        for k in 1..=800u64 {
            assert!(list.contains(k, &mut t));
        }
        let snapshot = list.quiescent_snapshot();
        assert_eq!(snapshot.len(), 800);
        assert!(snapshot.windows(2).all(|w| w[0] < w[1]), "keys stay sorted");
        for k in (1..=800u64).step_by(3) {
            assert!(list.remove(k, &mut t));
        }
        for k in 1..=800u64 {
            assert_eq!(list.contains(k, &mut t), (k - 1) % 3 != 0);
        }
    }

    /// The one descent gives the same window whichever reader drives it: on
    /// a quiescent list, single-location reads and one transaction's reads
    /// find the same predecessor cells, successors and `top` at every level.
    fn descents_agree<S: Stm + Clone>(stm: S) {
        let list = StmSkipList::new(&stm, ApiMode::Short);
        let mut t = stm.register();
        for k in 1..=1_000u64 {
            assert!(list.insert(k * 10, &mut t));
        }
        // Keys 10..=10 000: the probes hit present and absent keys, below
        // the first, above the last and the top of the key space.
        let probes = (0..198u64).map(|i| i * 51).chain([10_000, u64::MAX]);
        let flat = |w: Window<'_, S>| (w.preds.map(|c| c as *const S::Cell), w.succs, w.top);
        for key in probes {
            let _pin = t.epoch().pin();
            let walked = flat(list.search(key, &mut t));
            let in_tx = t
                .atomic(|tx| Ok(flat(list.descend(key, |cell| tx.read(cell))?)))
                .unwrap();
            assert!(walked.2 > SHORT_LEVEL_CUTOFF, "the hint was raised");
            assert_eq!(walked, in_tx, "windows for key {key}");
        }
    }

    #[test]
    fn walked_and_transactional_descents_agree() {
        descents_agree(ValShort::new());
        descents_agree(OrecFullG::new());
    }
}
