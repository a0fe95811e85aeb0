//! Full (traditional) transactions over versioned orecs — the paper's BaseTM.
//!
//! The algorithm follows TL2 (Dice et al.) with the timebase extension of
//! Riegel et al. in global-clock mode, and per-orec versions with incremental
//! read-set validation in local-clock mode.  Updates are deferred (buffered in
//! the write set) and orecs are locked only at commit time.

use std::sync::atomic::Ordering;

use crate::api::{TxAbort, TxResult};
use crate::clock::ClockMode;
use crate::layout::Layout;
use crate::orec::Orec;
use crate::word::Word;

use super::VersionedThread;

impl<L: Layout> VersionedThread<L> {
    pub(crate) fn do_full_begin(&mut self) {
        debug_assert!(!self.in_tx, "nested full transactions are not supported");
        self.in_tx = true;
        self.read_set.clear();
        self.write_set.clear();
        self.stats.full_starts += 1;
        if self.clock_mode() == ClockMode::Global {
            self.start_ts = self.clock().now();
        }
    }

    pub(crate) fn do_full_rollback(&mut self) {
        self.in_tx = false;
        self.read_set.clear();
        self.write_set.clear();
        self.stats.full_aborts += 1;
    }

    /// Validates every read-set entry: its orec must be unlocked (or locked by
    /// this thread when `allow_own_locks` is set, as during commit) and still
    /// carry the version observed by the read.
    ///
    /// For an orec this thread locked during commit, the version it held *at
    /// the moment the lock was acquired* is compared instead; without this,
    /// an update committed by another transaction between our read and our
    /// lock acquisition would go undetected (a lost update).
    pub(crate) fn validate_read_set(&self, allow_own_locks: bool) -> bool {
        let owner = self.owner();
        for &(orec_ptr, version) in &self.read_set {
            // SAFETY: orecs outlive the transaction: they live either in the
            // STM's table or inside cells kept alive by the epoch guard held
            // for the duration of the atomic block.
            let orec = unsafe { &*orec_ptr };
            let raw = orec.raw(Ordering::Acquire);
            match Orec::version_of(raw) {
                Some(v) => {
                    if v != version {
                        return false;
                    }
                }
                None => {
                    if !(allow_own_locks && orec.is_locked_by(owner)) {
                        return false;
                    }
                    // Locked by this commit: check the version the orec held
                    // when we acquired it.
                    let locked_version = self
                        .write_set
                        .entries()
                        .iter()
                        .find(|e| e.locked_here && e.orec == orec_ptr)
                        .map(|e| e.old_orec_raw >> 1);
                    if locked_version != Some(version) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Attempts a timebase extension: re-reads the clock and revalidates the
    /// read set so the transaction can continue from a later snapshot.
    fn try_extend(&mut self) -> bool {
        debug_assert_eq!(self.clock_mode(), ClockMode::Global);
        let now = self.clock().now();
        if self.validate_read_set(false) {
            self.start_ts = now;
            self.stats.extensions += 1;
            true
        } else {
            false
        }
    }

    pub(crate) fn do_full_read(&mut self, cell: &L::Cell) -> TxResult<Word> {
        debug_assert!(self.in_tx);
        self.stats.full_reads += 1;
        let data = L::data(cell) as *const _;
        // Read-after-write: the transaction must see its own buffered writes.
        if let Some(v) = self.write_set.lookup(data) {
            return Ok(v);
        }
        let orec_ptr = self.layout().orec(cell) as *const Orec;
        loop {
            // SAFETY: the orec lives either in the STM's shared table or
            // inside `cell`, both of which outlive this call.
            let orec = unsafe { &*orec_ptr };
            let o1 = orec.raw(Ordering::Acquire);
            if Orec::is_locked_raw(o1) {
                // A concurrent commit owns this orec; treat as a conflict and
                // let the contention manager decide how long to wait.
                return Err(TxAbort::Conflict);
            }
            let value = L::data(cell).load(Ordering::Acquire);
            let o2 = orec.raw(Ordering::Acquire);
            if o1 != o2 {
                continue;
            }
            let version = o1 >> 1;
            self.read_set.push((orec as *const Orec, version));
            match self.clock_mode() {
                ClockMode::Global => {
                    // An extension validates this read too: a commit between
                    // the load above and the clock read in `try_extend` may
                    // have overwritten it, and the later snapshot must not
                    // pair its old value with that commit's other writes.
                    if version > self.start_ts && !self.try_extend() {
                        return Err(TxAbort::Conflict);
                    }
                }
                ClockMode::Local => {
                    // Without a global clock, opacity requires validating the
                    // whole read set after every read (Section 4.1).
                    if !self.validate_read_set(false) {
                        return Err(TxAbort::Conflict);
                    }
                }
            }
            return Ok(value);
        }
    }

    pub(crate) fn do_full_write(&mut self, cell: &L::Cell, value: Word) -> TxResult<()> {
        debug_assert!(self.in_tx);
        self.stats.full_writes += 1;
        let data = L::data(cell) as *const _;
        let orec = self.layout().orec(cell) as *const Orec;
        self.write_set.insert(data, orec, value);
        Ok(())
    }

    /// Releases commit-time locks, restoring each orec's pre-lock word.
    fn release_acquired(&mut self, owner: usize) {
        for e in self.write_set.entries_mut() {
            if e.locked_here {
                // SAFETY: see `validate_read_set`.
                let orec = unsafe { &*e.orec };
                orec.unlock_to_version(owner, e.old_orec_raw >> 1);
                e.locked_here = false;
            }
        }
    }

    pub(crate) fn do_full_commit(&mut self) -> bool {
        debug_assert!(self.in_tx);
        let owner = self.owner();

        // Read-only transactions: invisible reads stayed consistent during
        // execution (global snapshot or incremental validation), so there is
        // nothing left to do.
        if self.write_set.is_empty() {
            self.in_tx = false;
            self.read_set.clear();
            self.stats.full_commits += 1;
            return true;
        }

        // Phase 1: acquire every write-set orec (commit-time locking).  Two
        // entries may share an orec under the orec-table layout; only the
        // first acquires it.
        let n = self.write_set.len();
        let mut acquired_all = true;
        'acquire: for i in 0..n {
            let (orec_ptr, _data) = {
                let e = &self.write_set.entries()[i];
                (e.orec, e.data)
            };
            let already_owned = self.write_set.entries()[..i]
                .iter()
                .any(|p| p.orec == orec_ptr && p.locked_here);
            if already_owned {
                continue;
            }
            // SAFETY: see `validate_read_set`.
            let orec = unsafe { &*orec_ptr };
            let raw = orec.raw(Ordering::Acquire);
            if Orec::is_locked_raw(raw) || !orec.try_lock(raw, owner) {
                acquired_all = false;
                break 'acquire;
            }
            let e = &mut self.write_set.entries_mut()[i];
            e.locked_here = true;
            e.old_orec_raw = raw;
        }
        if !acquired_all {
            self.release_acquired(owner);
            self.do_full_rollback();
            return false;
        }

        // Phase 2: obtain the commit timestamp and validate the read set.
        let commit_version = match self.clock_mode() {
            ClockMode::Global => Some(self.clock().tick()),
            ClockMode::Local => None,
        };
        if !self.validate_read_set(true) {
            self.release_acquired(owner);
            self.do_full_rollback();
            return false;
        }

        // Phase 3: flush deferred updates to memory.
        for e in self.write_set.entries() {
            // SAFETY: data words live inside cells kept alive by the epoch
            // guard held across the atomic block.
            unsafe { (*e.data).store(e.value, Ordering::Release) };
        }

        // Phase 4: release the orecs with their new versions.
        for i in 0..n {
            let (locked_here, orec_ptr, old_raw) = {
                let e = &self.write_set.entries()[i];
                (e.locked_here, e.orec, e.old_orec_raw)
            };
            if !locked_here {
                continue;
            }
            // SAFETY: see above.
            let orec = unsafe { &*orec_ptr };
            let new_version = match commit_version {
                Some(v) => v,
                None => (old_raw >> 1) + 1,
            };
            orec.unlock_to_version(owner, new_version);
        }

        self.in_tx = false;
        self.read_set.clear();
        self.write_set.clear();
        self.stats.full_commits += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use crate::api::{Stm, StmThread, TxAbort};
    use crate::clock::ClockMode;
    use crate::config::Config;
    use crate::layout::{Layout, OrecTableLayout, TvarLayout};
    use crate::versioned::VersionedStm;

    fn configs() -> Vec<Config> {
        vec![Config::global(), Config::local()]
    }

    #[test]
    fn read_your_own_writes() {
        for config in configs() {
            let stm = VersionedStm::<TvarLayout>::with_config(config);
            let cell = stm.new_cell(1);
            let mut t = stm.register();
            let out = t.atomic(|tx| {
                tx.write(&cell, 42)?;
                tx.read(&cell)
            });
            assert_eq!(out, Some(42));
            assert_eq!(VersionedStm::<TvarLayout>::peek(&cell), 42);
        }
    }

    #[test]
    fn aborted_transaction_leaves_memory_untouched() {
        for config in configs() {
            let stm = VersionedStm::<OrecTableLayout>::with_config(config);
            let cell = stm.new_cell(10);
            let mut t = stm.register();
            let out: Option<()> = t.atomic(|tx| {
                tx.write(&cell, 99)?;
                tx.cancel()
            });
            assert_eq!(out, None);
            assert_eq!(VersionedStm::<OrecTableLayout>::peek(&cell), 10);
        }
    }

    #[test]
    fn commit_bumps_versions_and_data() {
        let stm = VersionedStm::<TvarLayout>::with_config(Config::global());
        let a = stm.new_cell(0);
        let b = stm.new_cell(0);
        let mut t = stm.register();
        for i in 1..=10 {
            t.atomic(|tx| {
                tx.write(&a, i)?;
                tx.write(&b, i * 2)?;
                Ok(())
            });
        }
        assert_eq!(VersionedStm::<TvarLayout>::peek(&a), 10);
        assert_eq!(VersionedStm::<TvarLayout>::peek(&b), 20);
        assert_eq!(t.stats().full_commits, 10);
    }

    #[test]
    fn conflicting_writer_causes_retry_not_lost_update() {
        // Two threads increment the same counter transactionally; the final
        // value must equal the number of increments.
        use std::sync::Arc;
        let stm = Arc::new(VersionedStm::<TvarLayout>::with_config(Config::global()));
        let cell = Arc::new(stm.new_cell(0));
        let mut joins = Vec::new();
        const PER_THREAD: usize = 800;
        for _ in 0..4 {
            let stm = Arc::clone(&stm);
            let cell = Arc::clone(&cell);
            joins.push(std::thread::spawn(move || {
                let mut t = stm.register();
                for _ in 0..PER_THREAD {
                    t.atomic(|tx| {
                        let v = tx.read(&cell)?;
                        tx.write(&cell, v + 1)?;
                        Ok(())
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(VersionedStm::<TvarLayout>::peek(&cell), 4 * PER_THREAD);
    }

    #[test]
    fn explicit_conflict_retries_until_success() {
        let stm = VersionedStm::<OrecTableLayout>::new();
        let cell = stm.new_cell(0);
        let mut t = stm.register();
        let mut attempts = 0;
        let out = t.atomic(|tx| {
            attempts += 1;
            if attempts < 3 {
                return Err(TxAbort::Conflict);
            }
            tx.write(&cell, attempts)?;
            Ok(attempts)
        });
        assert_eq!(out, Some(3));
        assert_eq!(VersionedStm::<OrecTableLayout>::peek(&cell), 3);
    }

    /// A read-only transaction commits without validating, so every read
    /// must already belong to its snapshot — including the read that
    /// triggered a timebase extension.  A writer keeps two cells equal; a
    /// commit landing between a reader's load of the first cell and its
    /// extension must not let the reader pair the first cell's old value
    /// with the second's new one.
    fn read_only_snapshots_survive_extensions<L: Layout>() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        const READS: u64 = 1_000_000;
        let stm = Arc::new(VersionedStm::<L>::with_config(Config::global()));
        let cells: Arc<[_; 2]> = Arc::new([stm.new_cell(0), stm.new_cell(0)]);
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (stm, cells, stop) = (Arc::clone(&stm), Arc::clone(&cells), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut t = stm.register();
                let mut n = 0;
                // ORDERING: a stop flag; nothing is published through it.
                while !stop.load(Ordering::Relaxed) {
                    n += 2;
                    t.atomic(|tx| {
                        tx.write(&cells[0], n)?;
                        tx.write(&cells[1], n)
                    });
                }
            })
        };
        let mut t = stm.register();
        let torn = (0..READS).find_map(|i| {
            let pair = t
                .atomic(|tx| Ok((tx.read(&cells[0])?, tx.read(&cells[1])?)))
                .unwrap();
            (pair.0 != pair.1).then_some((i, pair))
        });
        // ORDERING: a stop flag; the join synchronizes.
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        assert_eq!(torn, None, "(read-only transaction, pair it returned)");
    }

    /// One test for both layouts: run side by side, each writer would share
    /// a core with the other test's reader, and the races this looks for
    /// would become rarer.
    #[test]
    fn read_only_snapshots_survive_extensions_on_both_layouts() {
        read_only_snapshots_survive_extensions::<TvarLayout>();
        read_only_snapshots_survive_extensions::<OrecTableLayout>();
    }

    #[test]
    fn local_mode_label_and_behaviour() {
        let stm = VersionedStm::<OrecTableLayout>::with_config(Config::local());
        assert_eq!(stm.config().clock, ClockMode::Local);
        let cells: Vec<_> = (0..16).map(|i| stm.new_cell(i)).collect();
        let mut t = stm.register();
        // A larger read set exercises the incremental validation path.
        let sum = t.atomic(|tx| {
            let mut s = 0;
            for c in &cells {
                s += tx.read(c)?;
            }
            tx.write(&cells[0], s)?;
            Ok(s)
        });
        assert_eq!(sum, Some((0..16).sum()));
    }
}
