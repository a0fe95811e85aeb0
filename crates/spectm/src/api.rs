//! The unified SpecTM API: the [`Stm`] and [`StmThread`] traits.
//!
//! Every STM variant studied by the paper (orec table / TVar / value-based
//! layouts, global / local clocks) implements these traits, so that the data
//! structures in `spectm-ds` and the benchmark harness are written once and
//! instantiated for each point in the design space.
//!
//! The trait surface mirrors the C API of the paper's Figure 2:
//!
//! | Paper (C)                              | This crate                              |
//! |----------------------------------------|-----------------------------------------|
//! | `Tx_Single_Read/Write/CAS`             | [`StmThread::single_read`] / [`StmThread::single_write`] / [`StmThread::single_cas`] |
//! | `Tx_RW_R1..R4`                         | [`StmThread::rw_read`] with a static index |
//! | `Tx_RW_n_Is_Valid`                     | [`StmThread::rw_is_valid`]              |
//! | `Tx_RW_n_Commit` / `Tx_RW_n_Abort`     | [`StmThread::rw_commit`] / [`StmThread::rw_abort`] |
//! | `Tx_RO_R1..R4` / `Tx_RO_n_Is_Valid`    | [`StmThread::ro_read`] / [`StmThread::ro_is_valid`] |
//! | `Tx_RO_x_RW_y_Commit`                  | [`StmThread::ro_rw_commit`]             |
//! | `Tx_Upgrade_RO_x_To_RW_y`              | [`StmThread::upgrade_ro_to_rw`]         |
//! | `Tx_Start` / `Tx_Read` / `Tx_Write` / `Tx_Commit` | [`StmThread::atomic`] + [`FullTx`] |
//!
//! The sequence numbers that the C API bakes into function names (`_R1`,
//! `_R2`, …) are passed as explicit index arguments here; callers use literal
//! constants, preserving the property that the *program*, not the STM, tracks
//! operation indices.

use crate::backoff::Backoff;
use crate::config::Config;
use crate::stats::StatsSnapshot;
use crate::word::Word;

/// Maximum number of locations a short transaction may access in each of its
/// read-only and read-write sets.
///
/// The paper uses four; we use eight, which it notes "can be increased in a
/// straightforward manner".
pub const MAX_SHORT: usize = 8;

/// Why a full transaction's body did not run to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxAbort {
    /// A conflict with a concurrent transaction was detected; the transaction
    /// will be rolled back and retried by [`StmThread::atomic`].
    Conflict,
    /// The user cancelled the transaction; it is rolled back and **not**
    /// retried ([`StmThread::atomic`] returns `None`).
    Cancel,
}

/// Result type used inside full-transaction bodies.
pub type TxResult<T> = Result<T, TxAbort>;

/// Convenience alias: the cell type manipulated by a thread handle.
pub type CellOf<T> = <<T as StmThread>::Stm as Stm>::Cell;

/// A software transactional memory instance.
///
/// The instance owns shared state (version clock, orec table, epoch
/// collector); it is `Send + Sync` and normally wrapped in an `Arc` shared by
/// all worker threads, each of which calls [`Stm::register`] to obtain its own
/// [`StmThread`] handle.
pub trait Stm: Send + Sync + Sized + 'static {
    /// The transactional cell type for this variant's memory layout.
    type Cell: Send + Sync;
    /// The per-thread handle type.
    type Thread: StmThread<Stm = Self>;

    /// Creates an instance with the default [`Config`].
    fn new() -> Self {
        Self::with_config(Config::default())
    }

    /// Creates an instance with an explicit configuration.
    fn with_config(config: Config) -> Self;

    /// Returns the configuration the instance was created with.
    fn config(&self) -> &Config;

    /// Registers the calling thread, returning its handle.
    ///
    /// Handles are intentionally **not** `Send`: create them on the thread
    /// that will use them (after `thread::spawn`), sharing the `Stm` itself
    /// through an `Arc`.
    fn register(&self) -> Self::Thread;

    /// Creates a new transactional cell holding `initial`.
    ///
    /// For the value-based layout the initial value must keep bit 0 clear
    /// (see [`crate::word`]); this is checked by a debug assertion.
    fn new_cell(&self, initial: Word) -> Self::Cell;

    /// Reads a cell non-transactionally.
    ///
    /// Only safe to use for initialization and post-mortem verification, when
    /// no concurrent transactions are running.
    fn peek(cell: &Self::Cell) -> Word;

    /// Writes a cell non-transactionally.
    ///
    /// Only for initializing cells that are not yet reachable by other
    /// threads (e.g. the fields of a node that a later transaction will
    /// publish) — the equivalent of the paper's `TmPtrWrite` on private
    /// nodes.  Using it on shared cells forfeits all transactional
    /// guarantees.
    fn poke(cell: &Self::Cell, value: Word);

    /// A human-readable label in the paper's naming scheme (e.g.
    /// `"orec-full-g"` territory is decided by how the caller uses the
    /// instance, so this reports layout + clock, e.g. `"orec-g"`).
    fn label(&self) -> String;

    /// The epoch-reclamation domain shared by this instance's threads.
    fn collector(&self) -> &txepoch::Collector;
}

/// A per-thread handle onto an [`Stm`] instance.
///
/// All transactional operations go through a thread handle.  The handle owns
/// the thread's transaction descriptor, its short-transaction record, its
/// statistics and its epoch-reclamation handle.
pub trait StmThread {
    /// The STM variant this handle belongs to.
    type Stm: Stm<Thread = Self>;

    // ------------------------------------------------------------------
    // Infrastructure
    // ------------------------------------------------------------------

    /// The thread's epoch-reclamation handle (pin before traversing nodes
    /// that other threads may concurrently retire).
    fn epoch(&self) -> &txepoch::LocalHandle;

    /// The thread's contention-management state.
    fn backoff(&self) -> &Backoff;

    /// A snapshot of this thread's statistics counters.
    fn stats(&self) -> StatsSnapshot;

    // ------------------------------------------------------------------
    // Single-location transactions (Figure 2, `Tx_Single_*`)
    // ------------------------------------------------------------------

    /// Performs a single-location transactional read (linearizable).
    fn single_read(&mut self, cell: &CellOf<Self>) -> Word;

    /// Performs a single-location transactional write (linearizable).
    fn single_write(&mut self, cell: &CellOf<Self>, value: Word);

    /// Performs a single-location transactional compare-and-swap.
    ///
    /// Returns the value observed immediately before the operation's
    /// linearization point; the swap happened iff the returned value equals
    /// `expected`.
    fn single_cas(&mut self, cell: &CellOf<Self>, expected: Word, new: Word) -> Word;

    // ------------------------------------------------------------------
    // Short read-write transactions (`Tx_RW_*`)
    // ------------------------------------------------------------------

    /// Reads location `idx` of a short read-write transaction and eagerly
    /// acquires ownership of it (encounter-time locking).
    ///
    /// `idx == 0` implicitly starts the transaction.  Indices must be passed
    /// in order (`0, 1, 2, …`), must be less than [`MAX_SHORT`] and each call
    /// must name a distinct location.  If ownership cannot be acquired the
    /// transaction becomes invalid: the returned value is meaningless, any
    /// locations acquired so far are released, and [`rw_is_valid`] will
    /// return `false`.
    ///
    /// [`rw_is_valid`]: StmThread::rw_is_valid
    fn rw_read(&mut self, idx: usize, cell: &CellOf<Self>) -> Word;

    /// Returns whether the short read-write transaction covering locations
    /// `0..n` is still valid.  Callers must check this before committing.
    fn rw_is_valid(&mut self, n: usize) -> bool;

    /// Commits a short read-write transaction covering locations `0..n`,
    /// storing `values[i]` to location `i`.
    ///
    /// Returns `true` if the commit took effect.  With encounter-time locking
    /// (the default) a valid transaction always commits; with the commit-time
    /// locking ablation the commit itself may fail, in which case the caller
    /// restarts exactly as for an invalid transaction.
    fn rw_commit(&mut self, n: usize, values: &[Word]) -> bool;

    /// Abandons a short read-write transaction covering locations `0..n`,
    /// releasing ownership without modifying any data.
    fn rw_abort(&mut self, n: usize);

    // ------------------------------------------------------------------
    // Short read-only transactions (`Tx_RO_*`)
    // ------------------------------------------------------------------

    /// Reads location `idx` of a short read-only transaction (invisible
    /// read).  `idx == 0` implicitly starts the transaction.
    fn ro_read(&mut self, idx: usize, cell: &CellOf<Self>) -> Word;

    /// Validates a short read-only transaction covering locations `0..n`.
    ///
    /// Successful validation takes the place of a commit; there is nothing to
    /// undo on failure (simply restart).
    fn ro_is_valid(&mut self, n: usize) -> bool;

    // ------------------------------------------------------------------
    // Combined read-only / read-write short transactions
    // ------------------------------------------------------------------

    /// Upgrades the location previously read at read-only index `ro_idx` to
    /// become read-write index `rw_idx`, acquiring ownership of it.
    ///
    /// Returns `false` (leaving the transaction invalid for the read-write
    /// part) if the location changed since it was read or is owned by another
    /// transaction.
    fn upgrade_ro_to_rw(&mut self, ro_idx: usize, rw_idx: usize) -> bool;

    /// Commits a combined transaction with `n_ro` read-only locations and
    /// `n_rw` read-write locations, storing `values[i]` to read-write
    /// location `i`.
    ///
    /// Returns `false` and releases ownership if the read-only locations fail
    /// validation (the caller restarts).
    fn ro_rw_commit(&mut self, n_ro: usize, n_rw: usize, values: &[Word]) -> bool;

    // ------------------------------------------------------------------
    // Full (traditional) transactions
    // ------------------------------------------------------------------

    /// Begins a full transaction.  Prefer [`StmThread::atomic`].
    fn full_begin(&mut self);

    /// Transactionally reads a cell inside a full transaction.
    fn full_read(&mut self, cell: &CellOf<Self>) -> TxResult<Word>;

    /// Transactionally writes a cell inside a full transaction (deferred
    /// update: the store is buffered until commit).
    fn full_write(&mut self, cell: &CellOf<Self>, value: Word) -> TxResult<()>;

    /// Attempts to commit the current full transaction.  Returns `true` on
    /// success; on failure the transaction has been rolled back.
    fn full_try_commit(&mut self) -> bool;

    /// Rolls back the current full transaction.
    fn full_rollback(&mut self);

    /// Runs `body` as an atomic transaction, retrying on conflicts.
    ///
    /// * `Ok(r)` from the body attempts to commit; on success `Some(r)` is
    ///   returned, otherwise the body is re-executed.
    /// * `Err(TxAbort::Conflict)` rolls back and retries (with contention
    ///   management).
    /// * `Err(TxAbort::Cancel)` rolls back and returns `None` without
    ///   retrying — the equivalent of the paper's `STM_ABORT_TX`.
    ///
    /// The thread is pinned against the epoch collector for the duration of
    /// each attempt, so cells read inside the body remain valid even if other
    /// threads concurrently retire the nodes containing them.
    fn atomic<R, F>(&mut self, mut body: F) -> Option<R>
    where
        F: FnMut(&mut FullTx<'_, Self>) -> TxResult<R>,
        Self: Sized,
    {
        loop {
            // `Some(outcome)` means the attempt finished (committed or was
            // cancelled); `None` means it must be retried.
            let finished = {
                let _guard = self.epoch().pin();
                self.full_begin();
                match body(&mut FullTx { thread: self }) {
                    Ok(result) => {
                        if self.full_try_commit() {
                            Some(Some(result))
                        } else {
                            None
                        }
                    }
                    Err(TxAbort::Cancel) => {
                        self.full_rollback();
                        Some(None)
                    }
                    Err(TxAbort::Conflict) => {
                        self.full_rollback();
                        None
                    }
                }
            };
            match finished {
                Some(outcome) => {
                    self.backoff().reset();
                    return outcome;
                }
                None => {
                    if self.stm().config().backoff {
                        self.backoff().wait();
                    }
                }
            }
        }
    }

    /// Runs `attempt` until it yields `Some`, the one retry loop under every
    /// operation built from short transactions: a search followed by a
    /// short (or small full) transaction that may find the search stale.
    ///
    /// `None` means "conflict — search again"; before every attempt after
    /// the first the thread waits on its [`Backoff`] iff
    /// [`Config::backoff`](crate::Config::backoff) is set.  Epoch pinning is
    /// the caller's, inside `attempt` or around the whole call.
    ///
    /// Unlike [`StmThread::atomic`] a success does **not** reset the
    /// backoff: the failure count keeps escalating across operations until
    /// some `atomic` resets it.  That is the measured policy, not an
    /// oversight — resetting after every operation ran a contended hash
    /// table at about half the throughput (EXPERIMENTS.md "One descent, one
    /// retry loop").
    #[inline]
    fn retry<R>(&mut self, mut attempt: impl FnMut(&mut Self) -> Option<R>) -> R
    where
        Self: Sized,
    {
        loop {
            if let Some(result) = attempt(self) {
                return result;
            }
            if self.stm().config().backoff {
                self.backoff().wait();
            }
        }
    }

    /// Returns the [`Stm`] instance this handle was registered with.
    fn stm(&self) -> &Self::Stm;
}

/// Handle used inside [`StmThread::atomic`] bodies to perform transactional
/// reads and writes.
///
/// # Examples
///
/// ```
/// use spectm::{Stm, StmThread};
/// let stm = spectm::variants::OrecFullG::new();
/// let a = stm.new_cell(1);
/// let b = stm.new_cell(2);
/// let mut t = stm.register();
/// // Swap two cells atomically.
/// t.atomic(|tx| {
///     let va = tx.read(&a)?;
///     let vb = tx.read(&b)?;
///     tx.write(&a, vb)?;
///     tx.write(&b, va)?;
///     Ok(())
/// });
/// assert_eq!(spectm::variants::OrecFullG::peek(&a), 2);
/// ```
pub struct FullTx<'a, T: StmThread> {
    thread: &'a mut T,
}

impl<T: StmThread> FullTx<'_, T> {
    /// Transactionally reads `cell`.
    #[inline]
    pub fn read(&mut self, cell: &CellOf<T>) -> TxResult<Word> {
        self.thread.full_read(cell)
    }

    /// Transactionally writes `value` to `cell` (deferred until commit).
    #[inline]
    pub fn write(&mut self, cell: &CellOf<T>, value: Word) -> TxResult<()> {
        self.thread.full_write(cell, value)
    }

    /// Cancels the transaction: it is rolled back and **not** retried.
    #[inline]
    pub fn cancel<R>(&mut self) -> TxResult<R> {
        Err(TxAbort::Cancel)
    }

    /// Requests a restart of the transaction (for example after observing an
    /// application-level inconsistency).
    #[inline]
    pub fn restart<R>(&mut self) -> TxResult<R> {
        Err(TxAbort::Conflict)
    }

    /// Access to the underlying thread handle (e.g. for statistics).
    #[inline]
    pub fn thread(&mut self) -> &mut T {
        self.thread
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_abort_is_small_and_copyable() {
        assert_eq!(std::mem::size_of::<TxAbort>(), 1);
        let a = TxAbort::Conflict;
        let b = a;
        assert_eq!(a, b);
    }

    #[test]
    fn max_short_is_at_least_the_papers_four() {
        const { assert!(MAX_SHORT >= 4) };
    }

    /// `retry` returns the attempt's value, waits once per failed attempt
    /// iff `Config::backoff`, never resets, and a first-time success
    /// touches nothing.
    fn retry_policy<S: Stm>() {
        let quiet = Config {
            backoff: false,
            ..Config::default()
        };
        for (config, waits) in [(Config::default(), 3), (quiet, 0)] {
            let stm = S::with_config(config);
            let mut t = stm.register();
            assert_eq!(t.retry(|_| Some(7)), 7);
            assert_eq!(t.backoff().failures(), 0);
            let mut calls = 0;
            let value = t.retry(|_| {
                calls += 1;
                (calls > 3).then_some(calls)
            });
            assert_eq!(value, 4);
            assert_eq!(t.backoff().failures(), waits);
            // A later success does not reset (unlike `atomic`).
            assert_eq!(t.retry(|_| Some(())), ());
            assert_eq!(t.backoff().failures(), waits);
        }
    }

    #[test]
    fn retry_backs_off_iff_configured_val() {
        retry_policy::<crate::variants::ValShort>();
    }

    #[test]
    fn retry_backs_off_iff_configured_versioned() {
        retry_policy::<crate::variants::OrecFullG>();
    }
}
