//! Full (traditional) transactions over the value-based layout (`val-full`).
//!
//! Because the layout has no version numbers, read validation is by value
//! comparison, made safe in the general case by a NOrec-style commit sequence
//! lock (Dalessandro et al.): writers serialize their write-back phase on a
//! global counter, and readers revalidate whenever the counter moves.  The
//! per-word lock bit is still acquired for every written cell so that
//! `val-full` transactions synchronize correctly with `val-short`
//! transactions and single-location operations on the same cells.

use std::ptr;
use std::sync::atomic::Ordering;

use crate::api::{TxAbort, TxResult};
use crate::word::Word;

use super::{is_locked, ValCell, ValThread, LOCK_BIT};

impl ValThread {
    #[inline]
    fn commit_seq(&self) -> usize {
        self.stm.inner.commit_seq.load(Ordering::Acquire)
    }

    pub(crate) fn do_full_begin(&mut self) {
        debug_assert!(!self.in_tx, "nested full transactions are not supported");
        self.in_tx = true;
        self.read_set.clear();
        self.write_set.clear();
        self.stats.full_starts += 1;
        // Wait for an even (quiescent) sequence number: an odd value means a
        // writer is mid-write-back.
        loop {
            let seq = self.commit_seq();
            if seq & 1 == 0 {
                self.snapshot = seq;
                break;
            }
            std::thread::yield_now();
        }
    }

    pub(crate) fn do_full_rollback(&mut self) {
        self.in_tx = false;
        self.read_set.clear();
        self.write_set.clear();
        self.stats.full_aborts += 1;
    }

    /// Re-checks every read against the current memory contents.
    ///
    /// `own_lock` is the lock word of this thread; cells we have already
    /// locked during commit are validated against the value they held when
    /// the lock was acquired.
    fn validate_by_value(&self, during_commit: bool) -> bool {
        let own_lock = self.lock_word();
        for &(cell_ptr, seen) in &self.read_set {
            // SAFETY: cells are kept alive by the epoch guard held across the
            // atomic block.
            let cell = unsafe { &*cell_ptr };
            let cur = cell.load(Ordering::Acquire);
            if cur == seen {
                continue;
            }
            if during_commit && cur == own_lock {
                // We locked this cell ourselves; compare against the value it
                // held at lock-acquisition time.
                let old = self
                    .write_set
                    .entries()
                    .iter()
                    .find(|e| ptr::eq(e.data.cast::<ValCell>(), cell_ptr))
                    .map(|e| e.old_orec_raw);
                if old == Some(seen) {
                    continue;
                }
            }
            return false;
        }
        true
    }

    /// Brings the snapshot up to date, revalidating the read set by value.
    fn extend_snapshot(&mut self) -> bool {
        loop {
            let seq = self.commit_seq();
            if seq & 1 == 1 {
                std::thread::yield_now();
                continue;
            }
            if !self.validate_by_value(false) {
                return false;
            }
            // Only adopt the snapshot if no writer slipped in while we were
            // validating.
            if self.commit_seq() == seq {
                self.snapshot = seq;
                self.stats.extensions += 1;
                return true;
            }
        }
    }

    #[inline]
    pub(crate) fn do_full_read(&mut self, cell: &ValCell) -> TxResult<Word> {
        debug_assert!(self.in_tx);
        self.stats.full_reads += 1;
        let key = (cell as *const ValCell).cast();
        if let Some(v) = self.write_set.lookup(key) {
            return Ok(v);
        }
        loop {
            let value = cell.load(Ordering::Acquire);
            if is_locked(value) {
                // Someone is writing this cell right now.  Wait for the store
                // that releases it rather than aborting immediately.
                std::thread::yield_now();
                continue;
            }
            let seq = self.commit_seq();
            if seq == self.snapshot {
                self.read_set.push((cell as *const ValCell, value));
                return Ok(value);
            }
            // The commit counter moved: revalidate and retry the read under
            // the newer snapshot.
            if !self.extend_snapshot() {
                return Err(TxAbort::Conflict);
            }
        }
    }

    #[inline]
    pub(crate) fn do_full_write(&mut self, cell: &ValCell, value: Word) -> TxResult<()> {
        debug_assert!(self.in_tx);
        debug_assert_eq!(
            value & LOCK_BIT,
            0,
            "val-layout values must keep bit 0 clear"
        );
        self.stats.full_writes += 1;
        self.write_set
            .insert((cell as *const ValCell).cast(), ptr::null(), value);
        Ok(())
    }

    fn release_locked(&mut self) {
        for e in self.write_set.entries_mut() {
            if e.locked_here {
                // SAFETY: see `validate_by_value`.
                let cell = unsafe { &*e.data.cast::<ValCell>() };
                cell.store(e.old_orec_raw, Ordering::Release);
                e.locked_here = false;
            }
        }
    }

    pub(crate) fn do_full_commit(&mut self) -> bool {
        debug_assert!(self.in_tx);
        if self.write_set.is_empty() {
            // Read-only.  The reads' incremental revalidation covers every
            // *full* writer (they move `commit_seq`), but short read-write
            // transactions and single-location writes publish through the
            // per-word lock alone and move no counter.  So collect twice:
            // if every cell still holds the value the first collect saw,
            // all of them held it together at some instant in between, and
            // that instant is the serialization point.  (A word that went
            // A -> B -> A in between is indistinguishable from one that
            // never moved; the epoch pin rules that out for pointers.)
            if !self.validate_by_value(false) {
                self.do_full_rollback();
                return false;
            }
            self.in_tx = false;
            self.read_set.clear();
            self.stats.full_commits += 1;
            return true;
        }

        // Serialize the write-back phase on the commit sequence lock.
        let seq = loop {
            let seq = self.commit_seq();
            if seq & 1 == 1 {
                std::thread::yield_now();
                continue;
            }
            if self
                .stm
                .inner
                .commit_seq
                .compare_exchange(seq, seq + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break seq;
            }
        };

        // Acquire the per-word locks so that short transactions and single
        // operations on the same cells observe the commit atomically.
        let lock_word = self.lock_word();
        let n = self.write_set.len();
        let mut ok = true;
        for i in 0..n {
            let cell_ptr = self.write_set.entries()[i].data.cast::<ValCell>();
            // SAFETY: see `validate_by_value`.
            let cell = unsafe { &*cell_ptr };
            let cur = cell.load(Ordering::Acquire);
            if is_locked(cur) || cell.compare_exchange(cur, lock_word).is_err() {
                ok = false;
                break;
            }
            let e = &mut self.write_set.entries_mut()[i];
            e.locked_here = true;
            e.old_orec_raw = cur;
        }

        if ok && !self.validate_by_value(true) {
            ok = false;
        }

        if !ok {
            self.release_locked();
            self.stm
                .inner
                .commit_seq
                .store(seq.wrapping_add(2), Ordering::Release);
            self.do_full_rollback();
            return false;
        }

        // Write back: each store both publishes the new value and releases
        // the per-word lock.
        for e in self.write_set.entries() {
            // SAFETY: see `validate_by_value`.
            let cell = unsafe { &*e.data.cast::<ValCell>() };
            cell.store(e.value, Ordering::Release);
        }
        self.stm
            .inner
            .commit_seq
            .store(seq.wrapping_add(2), Ordering::Release);

        self.in_tx = false;
        self.read_set.clear();
        self.write_set.clear();
        self.stats.full_commits += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use crate::api::{Stm, StmThread};
    use crate::val::ValStm;
    use crate::word::{decode_int, encode_int};
    use std::sync::Arc;

    #[test]
    fn read_your_own_writes() {
        let stm = ValStm::new();
        let c = stm.new_cell(encode_int(5));
        let mut t = stm.register();
        let out = t.atomic(|tx| {
            tx.write(&c, encode_int(9))?;
            tx.read(&c)
        });
        assert_eq!(out.map(decode_int), Some(9));
        assert_eq!(decode_int(ValStm::peek(&c)), 9);
    }

    #[test]
    fn cancel_discards_updates() {
        let stm = ValStm::new();
        let c = stm.new_cell(encode_int(1));
        let mut t = stm.register();
        let out: Option<()> = t.atomic(|tx| {
            tx.write(&c, encode_int(2))?;
            tx.cancel()
        });
        assert_eq!(out, None);
        assert_eq!(decode_int(ValStm::peek(&c)), 1);
    }

    #[test]
    fn counter_increments_are_not_lost() {
        let stm = Arc::new(ValStm::new());
        let cell = Arc::new(stm.new_cell(encode_int(0)));
        const THREADS: usize = 4;
        const PER_THREAD: usize = 800;
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            let stm = Arc::clone(&stm);
            let cell = Arc::clone(&cell);
            joins.push(std::thread::spawn(move || {
                let mut t = stm.register();
                for _ in 0..PER_THREAD {
                    t.atomic(|tx| {
                        let v = decode_int(tx.read(&cell)?);
                        tx.write(&cell, encode_int(v + 1))?;
                        Ok(())
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(decode_int(ValStm::peek(&cell)), THREADS * PER_THREAD);
    }

    #[test]
    fn multi_cell_invariant_is_preserved() {
        // Two cells always sum to 1000 under concurrent transfers.
        let stm = Arc::new(ValStm::new());
        let a = Arc::new(stm.new_cell(encode_int(1000)));
        let b = Arc::new(stm.new_cell(encode_int(0)));
        let mut joins = Vec::new();
        for tid in 0..4 {
            let stm = Arc::clone(&stm);
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            joins.push(std::thread::spawn(move || {
                let mut t = stm.register();
                for i in 0..1_000 {
                    let amount = (tid + i) % 7;
                    t.atomic(|tx| {
                        let va = decode_int(tx.read(&a)?);
                        let vb = decode_int(tx.read(&b)?);
                        if va >= amount {
                            tx.write(&a, encode_int(va - amount))?;
                            tx.write(&b, encode_int(vb + amount))?;
                        }
                        Ok(())
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let total = decode_int(ValStm::peek(&a)) + decode_int(ValStm::peek(&b));
        assert_eq!(total, 1000);
    }

    #[test]
    fn read_only_transactions_see_consistent_snapshots() {
        let stm = Arc::new(ValStm::new());
        let a = Arc::new(stm.new_cell(encode_int(500)));
        let b = Arc::new(stm.new_cell(encode_int(500)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let writer = {
            let stm = Arc::clone(&stm);
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut t = stm.register();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    t.atomic(|tx| {
                        let va = decode_int(tx.read(&a)?);
                        let vb = decode_int(tx.read(&b)?);
                        if va > 0 {
                            tx.write(&a, encode_int(va - 1))?;
                            tx.write(&b, encode_int(vb + 1))?;
                        } else {
                            tx.write(&a, encode_int(vb))?;
                            tx.write(&b, encode_int(0))?;
                        }
                        Ok(())
                    });
                }
            })
        };

        let mut t = stm.register();
        for _ in 0..2_000 {
            let sum = t
                .atomic(|tx| {
                    let va = decode_int(tx.read(&a)?);
                    let vb = decode_int(tx.read(&b)?);
                    Ok(va + vb)
                })
                .unwrap();
            assert_eq!(sum, 1000, "opacity violation: torn read-only snapshot");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        writer.join().unwrap();
    }
}
