//! The value-based STM variant (`val-*` labels; Section 2.4 of the paper).
//!
//! Instead of a separate ownership record, each transactional cell is a single
//! word of application data with **bit 0 reserved as a lock bit**.  When a
//! transaction owns the cell, the word temporarily holds a pointer to the
//! owner's descriptor with bit 0 set; committing stores the new application
//! value (bit 0 clear), which releases the lock in the same atomic write.
//!
//! Without version numbers, transactions that read locations they do not
//! write validate *by value*.  The paper identifies three special cases in
//! which this is safe without any global clock (all-read-locations-written,
//! a single read-only location forming the linearization point, and the
//! non-re-use property for pointer values); the short-transaction API below
//! relies on those cases.  For general-purpose full transactions the variant
//! falls back to a NOrec-style global commit counter (Dalessandro et al.),
//! exactly as Section 2.4 describes.

mod full;
mod short;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::api::{Stm, StmThread, TxResult};
use crate::backoff::Backoff;
use crate::config::Config;
use crate::stats::{Stats, StatsSnapshot};
use crate::versioned::writeset::WriteSet;
use crate::word::Word;
use crate::MAX_SHORT;

/// Bit 0 of a [`ValCell`] word: set while the cell is owned by a transaction.
pub(crate) const LOCK_BIT: Word = 1;

#[inline]
pub(crate) fn is_locked(word: Word) -> bool {
    word & LOCK_BIT != 0
}

/// A transactional cell of the value-based layout: one application word with
/// bit 0 reserved for the STM.
///
/// Stored values must keep bit 0 clear: pointers to 2-byte-or-better aligned
/// data qualify directly, integers must be encoded with
/// [`crate::word::encode_int`].
#[derive(Debug)]
#[repr(transparent)]
pub struct ValCell {
    word: AtomicUsize,
}

impl ValCell {
    /// Creates a cell holding `initial` (bit 0 must be clear).
    pub fn new(initial: Word) -> Self {
        debug_assert_eq!(
            initial & LOCK_BIT,
            0,
            "val-layout values must keep bit 0 clear"
        );
        Self {
            word: AtomicUsize::new(initial),
        }
    }

    #[inline]
    pub(crate) fn load(&self, order: Ordering) -> Word {
        self.word.load(order)
    }

    #[inline]
    pub(crate) fn store(&self, value: Word, order: Ordering) {
        self.word.store(value, order)
    }

    #[inline]
    pub(crate) fn compare_exchange(&self, current: Word, new: Word) -> Result<Word, Word> {
        self.word
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Spins until the cell is unlocked and returns the stored value.
    #[inline]
    pub(crate) fn load_unlocked(&self) -> Word {
        loop {
            let w = self.load(Ordering::Acquire);
            if !is_locked(w) {
                return w;
            }
            std::thread::yield_now();
        }
    }
}

/// Shared state of a [`ValStm`] instance.
#[derive(Debug)]
pub(crate) struct ValInner {
    pub(crate) config: Config,
    pub(crate) collector: txepoch::Collector,
    /// NOrec-style commit sequence lock: even = idle, odd = a full
    /// transaction is writing back.
    pub(crate) commit_seq: AtomicUsize,
    pub(crate) thread_seq: AtomicUsize,
}

/// The value-based STM instance (`val-short` / `val-full` in the paper).
#[derive(Debug, Clone)]
pub struct ValStm {
    pub(crate) inner: Arc<ValInner>,
}

/// One location owned by an in-flight short read-write transaction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ValRwEntry {
    pub(crate) cell: *const ValCell,
    /// The application value the cell held when ownership was acquired.
    pub(crate) old_value: Word,
    pub(crate) locked_here: bool,
}

impl Default for ValRwEntry {
    fn default() -> Self {
        Self {
            cell: std::ptr::null(),
            old_value: 0,
            locked_here: false,
        }
    }
}

/// One location read by an in-flight short read-only transaction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ValRoEntry {
    pub(crate) cell: *const ValCell,
    pub(crate) value: Word,
    pub(crate) upgraded: bool,
}

impl Default for ValRoEntry {
    fn default() -> Self {
        Self {
            cell: std::ptr::null(),
            value: 0,
            upgraded: false,
        }
    }
}

/// Stable-address descriptor identifying the owning thread inside locked
/// cells.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct ValDescriptor {
    pub(crate) id: usize,
}

/// A per-thread handle onto a [`ValStm`].
pub struct ValThread {
    pub(crate) stm: ValStm,
    pub(crate) descriptor: Box<ValDescriptor>,
    pub(crate) epoch: txepoch::LocalHandle,
    pub(crate) backoff: Backoff,
    pub(crate) stats: Stats,

    // ---- full-transaction state ----
    pub(crate) in_tx: bool,
    pub(crate) snapshot: usize,
    pub(crate) read_set: Vec<(*const ValCell, Word)>,
    pub(crate) write_set: WriteSet,

    // ---- short-transaction state ----
    pub(crate) rw_entries: [ValRwEntry; MAX_SHORT],
    pub(crate) rw_count: usize,
    pub(crate) rw_valid: bool,
    pub(crate) ro_entries: [ValRoEntry; MAX_SHORT],
    pub(crate) ro_count: usize,
    pub(crate) ro_valid: bool,
}

impl ValThread {
    /// The word stored into cells this thread has locked.
    #[inline]
    pub(crate) fn lock_word(&self) -> Word {
        (&*self.descriptor as *const ValDescriptor as usize) | LOCK_BIT
    }
}

impl Stm for ValStm {
    type Cell = ValCell;
    type Thread = ValThread;

    fn with_config(config: Config) -> Self {
        Self {
            inner: Arc::new(ValInner {
                config,
                collector: txepoch::Collector::new(),
                commit_seq: AtomicUsize::new(0),
                thread_seq: AtomicUsize::new(0),
            }),
        }
    }

    fn config(&self) -> &Config {
        &self.inner.config
    }

    fn register(&self) -> Self::Thread {
        let id = self.inner.thread_seq.fetch_add(1, Ordering::Relaxed);
        ValThread {
            stm: self.clone(),
            descriptor: Box::new(ValDescriptor { id }),
            epoch: self.inner.collector.register(),
            backoff: Backoff::new(id as u64 + 1),
            stats: Stats::new(),
            in_tx: false,
            snapshot: 0,
            read_set: Vec::with_capacity(64),
            write_set: WriteSet::new(self.inner.config.write_set),
            rw_entries: [ValRwEntry::default(); MAX_SHORT],
            rw_count: 0,
            rw_valid: true,
            ro_entries: [ValRoEntry::default(); MAX_SHORT],
            ro_count: 0,
            ro_valid: true,
        }
    }

    fn new_cell(&self, initial: Word) -> Self::Cell {
        ValCell::new(initial)
    }

    fn peek(cell: &Self::Cell) -> Word {
        cell.load_unlocked()
    }

    fn poke(cell: &Self::Cell, value: Word) {
        debug_assert_eq!(
            value & LOCK_BIT,
            0,
            "val-layout values must keep bit 0 clear"
        );
        cell.store(value, Ordering::Release);
    }

    fn label(&self) -> String {
        "val".to_string()
    }

    fn collector(&self) -> &txepoch::Collector {
        &self.inner.collector
    }
}

impl StmThread for ValThread {
    type Stm = ValStm;

    fn epoch(&self) -> &txepoch::LocalHandle {
        &self.epoch
    }

    fn backoff(&self) -> &Backoff {
        &self.backoff
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn stm(&self) -> &Self::Stm {
        &self.stm
    }

    #[inline]
    fn single_read(&mut self, cell: &ValCell) -> Word {
        self.do_single_read(cell)
    }

    #[inline]
    fn single_write(&mut self, cell: &ValCell, value: Word) {
        self.do_single_write(cell, value);
    }

    #[inline]
    fn single_cas(&mut self, cell: &ValCell, expected: Word, new: Word) -> Word {
        self.do_single_cas(cell, expected, new)
    }

    #[inline]
    fn rw_read(&mut self, idx: usize, cell: &ValCell) -> Word {
        self.do_rw_read(idx, cell)
    }

    #[inline]
    fn rw_is_valid(&mut self, n: usize) -> bool {
        self.do_rw_is_valid(n)
    }

    #[inline]
    fn rw_commit(&mut self, n: usize, values: &[Word]) -> bool {
        self.do_rw_commit(n, values)
    }

    #[inline]
    fn rw_abort(&mut self, n: usize) {
        self.do_rw_abort(n);
    }

    #[inline]
    fn ro_read(&mut self, idx: usize, cell: &ValCell) -> Word {
        self.do_ro_read(idx, cell)
    }

    #[inline]
    fn ro_is_valid(&mut self, n: usize) -> bool {
        self.do_ro_is_valid(n)
    }

    #[inline]
    fn upgrade_ro_to_rw(&mut self, ro_idx: usize, rw_idx: usize) -> bool {
        self.do_upgrade(ro_idx, rw_idx)
    }

    #[inline]
    fn ro_rw_commit(&mut self, n_ro: usize, n_rw: usize, values: &[Word]) -> bool {
        self.do_ro_rw_commit(n_ro, n_rw, values)
    }

    fn full_begin(&mut self) {
        self.do_full_begin();
    }

    #[inline]
    fn full_read(&mut self, cell: &ValCell) -> TxResult<Word> {
        self.do_full_read(cell)
    }

    #[inline]
    fn full_write(&mut self, cell: &ValCell, value: Word) -> TxResult<()> {
        self.do_full_write(cell, value)
    }

    fn full_try_commit(&mut self) -> bool {
        self.do_full_commit()
    }

    fn full_rollback(&mut self) {
        self.do_full_rollback();
    }
}

impl std::fmt::Debug for ValThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ValThread")
            .field("id", &self.descriptor.id)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_rejects_odd_values_in_debug() {
        let c = ValCell::new(2);
        assert_eq!(c.load_unlocked(), 2);
    }

    #[test]
    fn lock_word_has_bit_zero_set_and_is_unique_per_thread() {
        let stm = ValStm::new();
        let t1 = stm.register();
        let t2 = stm.register();
        assert_eq!(t1.lock_word() & LOCK_BIT, 1);
        assert_ne!(t1.lock_word(), t2.lock_word());
    }

    #[test]
    fn peek_spins_past_locks_only_when_needed() {
        let stm = ValStm::new();
        let c = stm.new_cell(10);
        assert_eq!(ValStm::peek(&c), 10);
    }

    #[test]
    fn label_is_val() {
        assert_eq!(ValStm::new().label(), "val");
    }
}
