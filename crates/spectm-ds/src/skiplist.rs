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
//! the same walks inside a caller-provided full transaction, which is what
//! lets the sharded KV store keep a per-shard ordered index transactionally
//! consistent with its hash shard and serve atomic range scans.
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
//! handed and the transaction that links or unlinks afterwards.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::convert::Infallible;
use std::ops::ControlFlow;

use spectm::{
    decode_int, encode_int, is_marked, mark, unmark, FullTx, Stm, StmThread, TxResult, Word,
};

use crate::ApiMode;

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
/// level, reached through [`Tower::links`].  The key and height are
/// immutable after publication; the value cell and the links are accessed
/// transactionally.  [`Tower::alloc`] makes the block and [`free_tower`] is
/// the only free.
#[repr(C)]
struct Tower<S: Stm> {
    key: u64,
    level: usize,
    value: S::Cell,
}

impl<S: Stm> Tower<S> {
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

    /// Allocates a tower of height `level`, its value and every link zero.
    /// The caller owns it until it is published.
    fn alloc(stm: &S, key: u64, level: usize) -> *mut Self {
        let layout = Self::layout(level);
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
                level,
                value: stm.new_cell(0),
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
        unsafe { std::slice::from_raw_parts(Self::first_link(self), self.level) }
    }
}

/// Frees a tower made by [`Tower::alloc`]: drops its cells in place and
/// returns its block, whose layout the header's `level` rebuilds.  The one
/// free of a tower — unpublished, retired past its grace period, or left in
/// a list being dropped — typed for `Guard::defer_unchecked`.
///
/// # Safety
///
/// `ptr` must come from `Tower::<S>::alloc`, must be unreachable for every
/// other thread (never published, past its epoch grace period, or owned by a
/// list being dropped), and must not be used again.
unsafe fn free_tower<S: Stm>(ptr: *mut u8) {
    let tower = ptr.cast::<Tower<S>>();
    // SAFETY: per the contract the block is a live tower this thread owns
    // exclusively; its header still holds the height its block was sized by.
    unsafe {
        let level = (*tower).level;
        std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(
            Tower::first_link(tower),
            level,
        ));
        std::ptr::drop_in_place(tower);
        dealloc(ptr, Tower::<S>::layout(level));
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

/// Outcome of an insert-or-update attempt.
enum Upsert {
    /// The key was absent and has been inserted.
    Inserted,
    /// The key was present and `overwrite` was false; nothing changed.
    Exists,
    /// The key was present; the previous value was replaced.
    Updated(u64),
}

/// Outcome of one attempt to unlink a tower the search found.
enum Removal {
    /// This attempt unlinked and marked the tower.
    Removed,
    /// Another remover marked it first.
    AlreadyGone,
    /// The window no longer describes the list (or validation failed).
    Retry,
}

/// Holder of a tower that is allocated but not (yet) published — the one
/// such holder, inside this module and for [`StmSkipList::insert_in`].
///
/// A full transaction's body may run several times (once per conflict
/// retry); the slot keeps the speculatively allocated tower alive across
/// retries so each logical insert allocates at most once.  After the
/// enclosing [`spectm::StmThread::atomic`] **commits an attempt in which
/// `insert_in` returned `true`**, the caller must call
/// [`TowerSlot::mark_published`]; otherwise dropping the slot frees the
/// never-published tower.
pub struct TowerSlot<S: Stm> {
    ptr: *mut Tower<S>,
}

impl<S: Stm> TowerSlot<S> {
    /// Creates an empty slot.
    pub fn new() -> Self {
        Self {
            ptr: std::ptr::null_mut(),
        }
    }

    /// Declares the slot's tower published: a transaction in which
    /// [`StmSkipList::insert_in`] returned `true` has committed, so the
    /// tower is now owned by the list.
    pub fn mark_published(&mut self) {
        self.ptr = std::ptr::null_mut();
    }

    /// The slot's tower for `(key, value)` and the word that publishes it,
    /// allocated with a freshly drawn height on first use.
    fn tower(&mut self, list: &StmSkipList<S>, key: u64, value: u64) -> (Word, &Tower<S>) {
        if self.ptr.is_null() {
            self.ptr = Tower::alloc(&list.stm, key, random_level());
        }
        // SAFETY: a non-null slot pointer is a tower this slot allocated and
        // nobody has published, so it is live and private to this thread.
        let tower = unsafe { &*self.ptr };
        debug_assert_eq!(tower.key, key, "one TowerSlot per key");
        S::poke(&tower.value, enc(value));
        (self.ptr as Word, tower)
    }
}

impl<S: Stm> Default for TowerSlot<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Stm> Drop for TowerSlot<S> {
    fn drop(&mut self) {
        if !self.ptr.is_null() {
            // SAFETY: per the contract above, a non-null pointer at drop time
            // means the tower was never published to the list.
            unsafe { free_tower::<S>(self.ptr.cast()) };
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
pub struct RetiredTower<S: Stm> {
    ptr: *mut Tower<S>,
}

impl<S: Stm> RetiredTower<S> {
    /// Defers destruction of the unlinked tower through the thread's epoch
    /// collector.  Only call after the removing transaction committed.
    pub fn retire(self, thread: &mut S::Thread) {
        let pin = thread.epoch().pin();
        // SAFETY: the committed transaction unlinked and marked the tower,
        // so it is unreachable for new operations; pinned readers are
        // protected by the epoch.  `free_tower` matches the allocation.
        unsafe { pin.defer_unchecked(self.ptr.cast(), free_tower::<S>) };
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
pub struct StmSkipList<S: Stm> {
    stm: S,
    head: Vec<S::Cell>,
    /// Encoded current height hint (the paper's `head.lvl`).
    level_hint: S::Cell,
    mode: ApiMode,
}

// SAFETY: raw tower pointers stored in cells are published by transactions,
// retired through epochs after being unlinked, and dereferenced only under an
// epoch pin (or inside a transaction, which pins for its duration).
unsafe impl<S: Stm> Send for StmSkipList<S> {}
// SAFETY: as above.
unsafe impl<S: Stm> Sync for StmSkipList<S> {}

impl<S: Stm> StmSkipList<S> {
    /// Creates an empty skip list driven through the given [`ApiMode`].
    pub fn new(stm: &S, mode: ApiMode) -> Self
    where
        S: Clone,
    {
        Self {
            stm: stm.clone(),
            head: (0..MAX_LEVEL).map(|_| stm.new_cell(0)).collect(),
            level_hint: stm.new_cell(encode_int(1)),
            mode,
        }
    }

    /// The API mode this instance drives.
    pub fn mode(&self) -> ApiMode {
        self.mode
    }

    #[inline]
    fn tower(ptr: Word) -> *mut Tower<S> {
        unmark(ptr) as *mut Tower<S>
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
            ApiMode::Full => self.contains_txn(key, thread),
            ApiMode::Short | ApiMode::Fine => self.contains_walk(key, thread),
        }
    }

    /// Returns the value stored under `key` (map API).
    pub fn get(&self, key: u64, thread: &mut S::Thread) -> Option<u64> {
        match self.mode {
            ApiMode::Full => thread
                .atomic(|tx| self.read_value_in(key, tx))
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
        self.quiescent_pairs().into_iter().map(|(k, _)| k).collect()
    }

    /// Collects every `(key, value)` pair currently present
    /// (non-transactional; only meaningful when no concurrent operations
    /// run).
    pub fn quiescent_pairs(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut curr = S::peek(&self.head[0]);
        while unmark(curr) != 0 {
            // SAFETY: quiescence is required by the contract.
            let tower = unsafe { &*Self::tower(curr) };
            let next = S::peek(&tower.links()[0]);
            if !is_marked(next) {
                out.push((tower.key, dec(S::peek(&tower.value))));
            }
            curr = unmark(next);
        }
        out
    }

    // ------------------------------------------------------------------
    // The descent (every mode) and the walk-based reader (Short / Fine)
    // ------------------------------------------------------------------

    /// The paper's `Skiplist::Search`, the one descent under every
    /// operation: walks from the level hint down to level 0 through `read`
    /// — a single-location read per link for the walk-based modes,
    /// `tx.read` inside a full transaction — recording the predecessor cell
    /// and successor pointer at every level.  The caller must hold an epoch
    /// pin (a transaction attempt holds one) for as long as it uses the
    /// window.
    #[inline]
    fn descend<'a, E>(
        &'a self,
        key: u64,
        mut read: impl FnMut(&'a S::Cell) -> Result<Word, E>,
    ) -> Result<Window<'a, S>, E> {
        // Traverse at least the levels covered by the short fast paths:
        // those link towers without raising the height hint.
        let top = decode_int(read(&self.level_hint)?).clamp(SHORT_LEVEL_CUTOFF, MAX_LEVEL);
        let mut w = Window {
            preds: std::array::from_fn(|lvl| &self.head[lvl]),
            succs: [0; MAX_LEVEL],
            top,
        };
        // The predecessor's links: the head's until the walk moves onto a
        // tower.  A predecessor found at one level is also where the walk
        // starts one level down.
        let mut links: &'a [S::Cell] = &self.head;
        for lvl in (0..top).rev() {
            let mut pred = &links[lvl];
            let mut curr = unmark(read(pred)?);
            while curr != 0 {
                // SAFETY: `curr` was read from a reachable link under the
                // caller's epoch pin.
                let tower: &'a Tower<S> = unsafe { &*Self::tower(curr) };
                if tower.key >= key {
                    break;
                }
                links = tower.links();
                pred = &links[lvl];
                curr = unmark(read(pred)?);
            }
            w.preds[lvl] = pred;
            w.succs[lvl] = curr;
        }
        Ok(w)
    }

    /// The tower the descent stopped at on level 0, if it holds `key` —
    /// linked when the descent passed, though perhaps already marked.
    fn found<'a>(w: &Window<'a, S>, key: u64) -> Option<&'a Tower<S>> {
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
            let read = thread.atomic(|tx| {
                if is_marked(tx.read(&tower.links()[0])?) {
                    return Ok(None);
                }
                Ok(Some(dec(tx.read(&tower.value)?)))
            });
            Some(read.expect("get_walk is never cancelled"))
        })
    }

    // ------------------------------------------------------------------
    // Link and unlink inside a full transaction (every mode's fallback)
    // ------------------------------------------------------------------

    /// What `w.preds[lvl]` points at now.  When the window is `tx`'s own
    /// (`same_tx`: its descent ran inside `tx`), the levels it traversed are
    /// already in the read set and the window *is* the answer; a window
    /// computed before `tx` began, and the head cells above any window's
    /// `top`, are read here.
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
        (ptr, tower): (Word, &Tower<S>),
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<bool> {
        for lvl in 0..tower.level {
            if Self::pred_target(w, same_tx, lvl, tx)? != w.succs[lvl] {
                return Ok(false);
            }
        }
        // A tower reaching above the window raises the height hint first
        // (see `Window::top`); the hint never falls, so one that is not the
        // window's own is re-read before it is written.
        let above = tower.level > w.top;
        if above && (same_tx || tower.level > decode_int(tx.read(&self.level_hint)?)) {
            tx.write(&self.level_hint, encode_int(tower.level))?;
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
        tower: &Tower<S>,
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
            let (ptr, tower) = slot.tower(self, key, value);
            let published = if self.mode == ApiMode::Short && tower.level <= SHORT_LEVEL_CUTOFF {
                for (link, &succ) in tower.links().iter().zip(&w.succs) {
                    S::poke(link, succ);
                }
                if tower.level == 1 {
                    // The paper's AddLevelOne: one single-location CAS.
                    thread.single_cas(w.preds[0], w.succs[0], ptr) == w.succs[0]
                } else {
                    self.insert_short_rw(&w, tower.level, ptr, thread)
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
    fn update_value(&self, tower: &Tower<S>, value: u64, thread: &mut S::Thread) -> Option<u64> {
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
        tower: &Tower<S>,
        value: u64,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Option<u64>> {
        if is_marked(tx.read(&tower.links()[0])?) {
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
        new: (Word, &Tower<S>),
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
    /// lazily filled allocation, reused across conflict retries.
    fn upsert_body(
        &self,
        key: u64,
        value: u64,
        overwrite: bool,
        slot: &mut TowerSlot<S>,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Upsert> {
        let w = self.descend(key, |cell| tx.read(cell))?;
        if let Some(tower) = Self::found(&w, key) {
            // A tower that is deleted but still linked: wait for the remover
            // to unlink it.
            if !overwrite {
                return match is_marked(tx.read(&tower.links()[0])?) {
                    false => Ok(Upsert::Exists),
                    true => tx.restart(),
                };
            }
            return match Self::overwrite_in(tower, value, tx)? {
                Some(old) => Ok(Upsert::Updated(old)),
                None => tx.restart(),
            };
        }
        if self.link_in(&w, true, slot.tower(self, key, value), tx)? {
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
            .atomic(|tx| self.upsert_body(key, value, overwrite, &mut slot, tx))
            .expect("upsert transaction is never cancelled");
        if matches!(outcome, Upsert::Inserted) {
            slot.mark_published();
        }
        outcome
    }

    /// Inserts `(key, value)` inside an already-running full transaction,
    /// regardless of this instance's [`ApiMode`].  Returns `false` (writing
    /// nothing) if the key is already present.
    ///
    /// `slot` carries the speculative tower allocation across conflict
    /// retries of the enclosing transaction; see [`TowerSlot`] for the
    /// publication contract.
    pub fn insert_in(
        &self,
        key: u64,
        value: u64,
        slot: &mut TowerSlot<S>,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<bool> {
        let outcome = self.upsert_body(key, value, false, slot, tx)?;
        Ok(matches!(outcome, Upsert::Inserted))
    }

    /// Reads the value under `key` inside an already-running full
    /// transaction, regardless of this instance's [`ApiMode`].
    pub fn read_value_in(&self, key: u64, tx: &mut FullTx<'_, S::Thread>) -> TxResult<Option<u64>> {
        let mut out = None;
        self.walk_range_in(key, key, tx, |_, value_cell, tx| {
            out = Some(dec(tx.read(value_cell)?));
            Ok(ControlFlow::Break(()))
        })?;
        Ok(out)
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
            let outcome = if self.mode == ApiMode::Short && tower.level <= SHORT_LEVEL_CUTOFF {
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
        tower: &Tower<S>,
        thread: &mut S::Thread,
    ) -> Removal {
        let (target, level) = (w.succs[0], tower.level);
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
        tower: &Tower<S>,
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

    /// Removes `key` inside an already-running full transaction, regardless
    /// of this instance's [`ApiMode`].  Returns the unlinked tower (to be
    /// retired **after** the transaction commits; see [`RetiredTower`]) or
    /// `None` if the key was absent.
    pub fn remove_in(
        &self,
        key: u64,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Option<RetiredTower<S>>> {
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
    // Full-mode lookup
    // ------------------------------------------------------------------

    fn contains_txn(&self, key: u64, thread: &mut S::Thread) -> bool {
        thread
            .atomic(|tx| {
                let at_key = self.seek_in(key, tx)?;
                Ok(Self::next_live_in(at_key, key, tx)?.is_some())
            })
            .expect("contains transaction is never cancelled")
    }

    // ------------------------------------------------------------------
    // Range scans (inside a caller-provided full transaction)
    // ------------------------------------------------------------------

    /// Descends to the level-0 position of `start` and returns the first
    /// tower word there (its key is `>= start`; `0` at the end of the list).
    /// The level hint and every link crossed on the way down enter the
    /// transaction's read set.
    fn seek_in(&self, start: u64, tx: &mut FullTx<'_, S::Thread>) -> TxResult<Word> {
        Ok(self.descend(start, |cell| tx.read(cell))?.succs[0])
    }

    /// The first live tower with `key <= last` at or after `cand` on level
    /// 0, with its level-0 forward pointer: reading that pointer is what
    /// establishes liveness, and it is the link a walk continues through.
    /// The reference is valid for the rest of the transaction attempt.
    fn next_live_in<'a>(
        mut cand: Word,
        last: u64,
        tx: &mut FullTx<'_, S::Thread>,
    ) -> TxResult<Option<(&'a Tower<S>, Word)>> {
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

    /// Walks the live towers with `start <= key <= last` in key order,
    /// invoking `visit(key, value_cell, tx)` for each until it returns
    /// [`ControlFlow::Break`].  The descent to the start position and every
    /// level-0 link on the way enter the transaction's read set, so the
    /// visited range is an atomically consistent snapshot when the
    /// transaction commits.
    fn walk_range_in<F>(
        &self,
        start: u64,
        last: u64,
        tx: &mut FullTx<'_, S::Thread>,
        mut visit: F,
    ) -> TxResult<()>
    where
        F: FnMut(u64, &S::Cell, &mut FullTx<'_, S::Thread>) -> TxResult<ControlFlow<()>>,
    {
        if start > last {
            return Ok(());
        }
        let mut cand = self.seek_in(start, tx)?;
        while let Some((tower, next)) = Self::next_live_in(cand, last, tx)? {
            debug_assert!(tower.key >= start, "descent overshot the start key");
            if visit(tower.key, &tower.value, tx)?.is_break() {
                break;
            }
            cand = unmark(next);
        }
        Ok(())
    }

    /// Walks several lists at once as one streaming k-way merge:
    /// `visit(i, key, value_cell, tx)` sees the live towers of every
    /// `lists[i]` with `start <= key <= last` in ascending key order (ties
    /// in list order) until it returns [`ControlFlow::Break`].  This is the
    /// cursor under the sharded KV store's scans, whose lists partition the
    /// key space; like every range read here it is an atomically consistent
    /// snapshot when the transaction commits.
    ///
    /// The transaction reads one descent per list, then one level-0 link
    /// per tower visited — nothing is collected ahead of the visitor, so a
    /// walk that stops after `n` towers has read `n` of them (plus the one
    /// head each list holds ready).
    pub fn walk_merged_in<F>(
        lists: &[Self],
        start: u64,
        last: u64,
        tx: &mut FullTx<'_, S::Thread>,
        mut visit: F,
    ) -> TxResult<()>
    where
        F: FnMut(usize, u64, &S::Cell, &mut FullTx<'_, S::Thread>) -> TxResult<ControlFlow<()>>,
    {
        let mut heads = Vec::with_capacity(lists.len());
        for list in lists {
            let cand = list.seek_in(start, tx)?;
            heads.push(Self::next_live_in(cand, last, tx)?);
        }
        loop {
            // `min_by_key` keeps the first of equal keys: ties in list order.
            let lowest = heads
                .iter()
                .enumerate()
                .filter_map(|(i, head)| head.map(|(tower, next)| (i, tower, next)))
                .min_by_key(|&(_, tower, _)| tower.key);
            let Some((i, tower, next)) = lowest else {
                return Ok(());
            };
            if visit(i, tower.key, &tower.value, tx)?.is_break() {
                return Ok(());
            }
            heads[i] = Self::next_live_in(unmark(next), last, tx)?;
        }
    }

    /// Collects up to `limit` live `(key, value)` pairs with
    /// `start <= key < end`, in key order, inside an already-running full
    /// transaction.
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
        self.walk_range_in(start, end - 1, tx, |key, value_cell, tx| {
            out.push((key, dec(tx.read(value_cell)?)));
            Ok(if out.len() < limit {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            })
        })?;
        Ok(out)
    }
}

impl<S: Stm> Drop for StmSkipList<S> {
    fn drop(&mut self) {
        // Exclusive access: free every remaining tower via level 0.
        let mut curr = S::peek(&self.head[0]);
        while unmark(curr) != 0 {
            let tower = Self::tower(curr);
            // SAFETY: during drop nothing else references the towers; each
            // is freed once, after its level-0 link was read.
            curr = unsafe {
                let next = S::peek(&(*tower).links()[0]);
                free_tower::<S>(tower.cast());
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
    use spectm::Config;
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
        let mut slot = TowerSlot::new();
        let mut retired = None;
        let (before, after) = t
            .atomic(|tx| {
                retired = None;
                let before = list.collect_range_in(0, 10, usize::MAX, tx)?;
                let inserted = list.insert_in(3, 30, &mut slot, tx)?;
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
        assert_eq!(t.atomic(|tx| list.read_value_in(3, tx)).unwrap(), Some(30));
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
        let mut tail = Vec::new();
        t.atomic(|tx| {
            tail.clear();
            list.walk_range_in(95, u64::MAX, tx, |key, _, _| {
                tail.push(key);
                Ok(ControlFlow::Continue(()))
            })
        })
        .unwrap();
        assert_eq!(tail, vec![96, 98, u64::MAX]);
        let mut first = None;
        t.atomic(|tx| {
            list.walk_range_in(97, u64::MAX, tx, |key, _, _| {
                first = Some(key);
                Ok(ControlFlow::Break(()))
            })
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
                StmSkipList::walk_merged_in(&lists, start, last, tx, |i, key, cell, tx| {
                    assert_eq!(i as u64, key % 3, "key {key} reported from list {i}");
                    assert_eq!(dec(tx.read(cell)?), key >> 1);
                    seen.push(key);
                    Ok(if seen.len() < limit {
                        ControlFlow::Continue(())
                    } else {
                        ControlFlow::Break(())
                    })
                })
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
            StmSkipList::walk_merged_in(&lists[..1], 50, 60, tx, |_, key, _, _| {
                alone.push(key);
                Ok(ControlFlow::Continue(()))
            })
        })
        .unwrap();
        assert_eq!(alone, [51, 54, 57]);
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
