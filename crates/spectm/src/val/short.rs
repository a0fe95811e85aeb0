//! Specialized short transactions over the value-based layout (`val-short`).
//!
//! This is the paper's most specialized — and fastest — design point:
//!
//! * Short read-write transactions lock every accessed word eagerly by
//!   replacing its value with the owner's descriptor pointer (bit 0 set);
//!   because every read location is also written, no version numbers and no
//!   validation are needed (special case 1 of Section 2.4).
//! * Short read-only transactions use invisible reads and validate by value
//!   comparison, relying on the single-read-only-location and non-re-use
//!   special cases (2 and 3).
//! * Single-location operations reduce to a plain load / store / CAS that
//!   merely respects the lock bit, with no shared clock whatsoever.

use std::sync::atomic::Ordering;

use crate::word::Word;
use crate::MAX_SHORT;

use super::{is_locked, ValCell, ValRoEntry, ValRwEntry, ValThread, LOCK_BIT};

impl ValThread {
    // ------------------------------------------------------------------
    // Single-location transactions
    // ------------------------------------------------------------------

    #[inline]
    pub(crate) fn do_single_read(&mut self, cell: &ValCell) -> Word {
        self.stats.singles += 1;
        cell.load_unlocked()
    }

    #[inline]
    pub(crate) fn do_single_write(&mut self, cell: &ValCell, value: Word) {
        debug_assert_eq!(
            value & LOCK_BIT,
            0,
            "val-layout values must keep bit 0 clear"
        );
        self.stats.singles += 1;
        loop {
            let cur = cell.load(Ordering::Acquire);
            if is_locked(cur) {
                std::thread::yield_now();
                continue;
            }
            if cell.compare_exchange(cur, value).is_ok() {
                return;
            }
        }
    }

    #[inline]
    pub(crate) fn do_single_cas(&mut self, cell: &ValCell, expected: Word, new: Word) -> Word {
        debug_assert_eq!(new & LOCK_BIT, 0, "val-layout values must keep bit 0 clear");
        self.stats.singles += 1;
        loop {
            let cur = cell.load(Ordering::Acquire);
            if is_locked(cur) {
                std::thread::yield_now();
                continue;
            }
            if cur != expected {
                return cur;
            }
            match cell.compare_exchange(cur, new) {
                Ok(_) => return cur,
                Err(actual) => {
                    if !is_locked(actual) && actual != expected {
                        return actual;
                    }
                    // Lost the race to a lock holder or to an equal value
                    // being re-installed; retry.
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Short read-write transactions
    // ------------------------------------------------------------------

    fn release_rw_locks(&mut self) {
        for i in 0..self.rw_count {
            let e = self.rw_entries[i];
            if !e.locked_here {
                continue;
            }
            // SAFETY: cells are kept alive by the caller (epoch-pinned or
            // owned) for the duration of the short transaction.
            let cell = unsafe { &*e.cell };
            cell.store(e.old_value, Ordering::Release);
            self.rw_entries[i].locked_here = false;
        }
    }

    #[inline]
    pub(crate) fn do_rw_read(&mut self, idx: usize, cell: &ValCell) -> Word {
        assert!(idx < MAX_SHORT, "short transaction index out of range");
        if idx == 0 {
            self.rw_count = 0;
            self.rw_valid = true;
            self.stats.short_rw_starts += 1;
        }
        // An earlier read of this transaction may have failed to acquire a
        // lock, invalidating the attempt and resetting `rw_count`; later
        // reads of the same attempt must fall through here (the caller only
        // discovers the conflict at `rw_is_valid`).
        if !self.rw_valid {
            return 0;
        }
        debug_assert_eq!(idx, self.rw_count, "short RW indices must be sequential");
        let lock_word = self.lock_word();
        let cur = cell.load(Ordering::Acquire);
        // Deadlock avoidance is conservative: if the word is owned (even by a
        // transaction that is about to release it), give up immediately.
        if is_locked(cur) || cell.compare_exchange(cur, lock_word).is_err() {
            self.stats.short_rw_conflicts += 1;
            self.rw_valid = false;
            self.release_rw_locks();
            self.rw_count = 0;
            return 0;
        }
        self.rw_entries[self.rw_count] = ValRwEntry {
            cell: cell as *const ValCell,
            old_value: cur,
            locked_here: true,
        };
        self.rw_count += 1;
        cur
    }

    #[inline]
    pub(crate) fn do_rw_is_valid(&mut self, n: usize) -> bool {
        debug_assert!(n <= MAX_SHORT);
        self.rw_valid && self.rw_count >= n
    }

    #[inline]
    pub(crate) fn do_rw_commit(&mut self, n: usize, values: &[Word]) -> bool {
        assert!(values.len() >= n, "missing commit values");
        if !self.rw_valid || self.rw_count < n {
            self.release_rw_locks();
            self.rw_count = 0;
            return false;
        }
        for (i, &value) in values.iter().enumerate().take(n) {
            debug_assert_eq!(
                value & LOCK_BIT,
                0,
                "val-layout values must keep bit 0 clear"
            );
            let e = self.rw_entries[i];
            // SAFETY: see `release_rw_locks`.
            let cell = unsafe { &*e.cell };
            // A single store publishes the value and releases the lock.
            cell.store(value, Ordering::Release);
            self.rw_entries[i].locked_here = false;
        }
        self.rw_count = 0;
        self.stats.short_rw_commits += 1;
        true
    }

    #[inline]
    pub(crate) fn do_rw_abort(&mut self, n: usize) {
        debug_assert!(n <= MAX_SHORT);
        self.release_rw_locks();
        self.rw_count = 0;
        self.rw_valid = true;
    }

    // ------------------------------------------------------------------
    // Short read-only transactions
    // ------------------------------------------------------------------

    #[inline]
    pub(crate) fn do_ro_read(&mut self, idx: usize, cell: &ValCell) -> Word {
        assert!(idx < MAX_SHORT, "short transaction index out of range");
        if idx == 0 {
            self.ro_count = 0;
            self.ro_valid = true;
        }
        debug_assert_eq!(idx, self.ro_count, "short RO indices must be sequential");
        let value = cell.load_unlocked();
        self.ro_entries[self.ro_count] = ValRoEntry {
            cell: cell as *const ValCell,
            value,
            upgraded: false,
        };
        self.ro_count += 1;
        value
    }

    /// Validates the first `n` read-only locations by value comparison.
    ///
    /// This is only a correct conflict check under the special cases of
    /// Section 2.4 (in particular the non-re-use property for pointer
    /// values); it is exactly what `val-short` relies on.
    fn validate_ro(&self, n: usize) -> bool {
        let own_lock = self.lock_word();
        for e in &self.ro_entries[..n] {
            // SAFETY: see `release_rw_locks`.
            let cell = unsafe { &*e.cell };
            let cur = cell.load(Ordering::Acquire);
            if e.upgraded {
                if cur != own_lock {
                    return false;
                }
                continue;
            }
            if cur != e.value {
                return false;
            }
        }
        true
    }

    #[inline]
    pub(crate) fn do_ro_is_valid(&mut self, n: usize) -> bool {
        debug_assert!(n <= MAX_SHORT);
        let ok = self.ro_valid && self.ro_count >= n && self.validate_ro(n);
        if ok {
            self.stats.short_ro_commits += 1;
        } else {
            self.stats.short_ro_conflicts += 1;
        }
        ok
    }

    // ------------------------------------------------------------------
    // Combined read-only / read-write short transactions
    // ------------------------------------------------------------------

    #[inline]
    pub(crate) fn do_upgrade(&mut self, ro_idx: usize, rw_idx: usize) -> bool {
        assert!(ro_idx < MAX_SHORT && rw_idx < MAX_SHORT);
        if !self.ro_valid || ro_idx >= self.ro_count {
            return false;
        }
        if rw_idx == 0 {
            self.rw_count = 0;
            self.rw_valid = true;
            self.stats.short_rw_starts += 1;
        }
        debug_assert_eq!(rw_idx, self.rw_count, "upgrade must use the next RW index");
        let entry = self.ro_entries[ro_idx];
        // SAFETY: see `release_rw_locks`.
        let cell = unsafe { &*entry.cell };
        if cell
            .compare_exchange(entry.value, self.lock_word())
            .is_err()
        {
            self.stats.short_rw_conflicts += 1;
            self.rw_valid = false;
            self.release_rw_locks();
            self.rw_count = 0;
            return false;
        }
        self.rw_entries[rw_idx] = ValRwEntry {
            cell: entry.cell,
            old_value: entry.value,
            locked_here: true,
        };
        self.ro_entries[ro_idx].upgraded = true;
        self.rw_count = rw_idx + 1;
        true
    }

    #[inline]
    pub(crate) fn do_ro_rw_commit(&mut self, n_ro: usize, n_rw: usize, values: &[Word]) -> bool {
        assert!(values.len() >= n_rw, "missing commit values");
        if !self.rw_valid || !self.ro_valid || self.rw_count < n_rw || self.ro_count < n_ro {
            self.release_rw_locks();
            self.rw_count = 0;
            return false;
        }
        // All written locations are already owned; the single validation of
        // the read-only locations is the linearization point.
        if !self.validate_ro(n_ro) {
            self.stats.short_ro_conflicts += 1;
            self.release_rw_locks();
            self.rw_count = 0;
            return false;
        }
        self.do_rw_commit(n_rw, values)
    }
}

#[cfg(test)]
mod tests {
    use crate::api::{Stm, StmThread};
    use crate::val::ValStm;
    use crate::word::{decode_int, encode_int};
    use std::sync::Arc;

    #[test]
    fn single_ops_respect_lock_bit_encoding() {
        let stm = ValStm::new();
        let c = stm.new_cell(encode_int(3));
        let mut t = stm.register();
        assert_eq!(decode_int(t.single_read(&c)), 3);
        t.single_write(&c, encode_int(4));
        assert_eq!(decode_int(t.single_read(&c)), 4);
        let prev = t.single_cas(&c, encode_int(4), encode_int(5));
        assert_eq!(decode_int(prev), 4);
        assert_eq!(decode_int(t.single_read(&c)), 5);
    }

    #[test]
    fn rw_locks_are_visible_to_other_threads() {
        let stm = ValStm::new();
        let c = stm.new_cell(encode_int(1));
        let mut t1 = stm.register();
        let mut t2 = stm.register();
        let v = t1.rw_read(0, &c);
        assert!(t1.rw_is_valid(1));
        // t2 sees the location as owned and conservatively gives up.
        let _ = t2.rw_read(0, &c);
        assert!(!t2.rw_is_valid(1));
        assert!(t1.rw_commit(1, &[encode_int(decode_int(v) + 1)]));
        assert_eq!(decode_int(t2.single_read(&c)), 2);
    }

    #[test]
    fn rw_abort_restores_original_values() {
        let stm = ValStm::new();
        let a = stm.new_cell(encode_int(10));
        let b = stm.new_cell(encode_int(20));
        let mut t = stm.register();
        let _ = t.rw_read(0, &a);
        let _ = t.rw_read(1, &b);
        assert!(t.rw_is_valid(2));
        t.rw_abort(2);
        assert_eq!(decode_int(ValStm::peek(&a)), 10);
        assert_eq!(decode_int(ValStm::peek(&b)), 20);
    }

    #[test]
    fn ro_validation_by_value_detects_change() {
        let stm = ValStm::new();
        let a = stm.new_cell(encode_int(1));
        let mut reader = stm.register();
        let mut writer = stm.register();
        let _ = reader.ro_read(0, &a);
        assert!(reader.ro_is_valid(1));
        writer.single_write(&a, encode_int(2));
        assert!(!reader.ro_is_valid(1));
    }

    #[test]
    fn dcss_style_upgrade_commit() {
        // Double-compare-single-swap built exactly as in the paper's listing.
        let stm = ValStm::new();
        let a1 = stm.new_cell(encode_int(1));
        let a2 = stm.new_cell(encode_int(2));
        let mut t = stm.register();
        // Matching expected values: the swap must happen.
        let v1 = t.ro_read(0, &a1);
        let v2 = t.ro_read(1, &a2);
        assert_eq!((decode_int(v1), decode_int(v2)), (1, 2));
        assert!(t.upgrade_ro_to_rw(0, 0));
        assert!(t.ro_rw_commit(2, 1, &[encode_int(100)]));
        assert_eq!(decode_int(ValStm::peek(&a1)), 100);
        assert_eq!(decode_int(ValStm::peek(&a2)), 2);
    }

    #[test]
    fn concurrent_two_location_transfers_preserve_sum() {
        let stm = Arc::new(ValStm::new());
        let a = Arc::new(stm.new_cell(encode_int(10_000)));
        let b = Arc::new(stm.new_cell(encode_int(0)));
        const THREADS: usize = 4;
        const OPS: usize = 2_000;
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            let stm = Arc::clone(&stm);
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            joins.push(std::thread::spawn(move || {
                let mut t = stm.register();
                for i in 0..OPS {
                    loop {
                        let va = t.rw_read(0, &a);
                        let vb = t.rw_read(1, &b);
                        if !t.rw_is_valid(2) {
                            continue;
                        }
                        let (da, db) = (decode_int(va), decode_int(vb));
                        let (na, nb) = if i % 2 == 0 && da > 0 {
                            (da - 1, db + 1)
                        } else if db > 0 {
                            (da + 1, db - 1)
                        } else {
                            (da, db)
                        };
                        if t.rw_commit(2, &[encode_int(na), encode_int(nb)]) {
                            break;
                        }
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let sum = decode_int(ValStm::peek(&a)) + decode_int(ValStm::peek(&b));
        assert_eq!(sum, 10_000);
    }

    #[test]
    fn short_and_full_val_transactions_interoperate() {
        let stm = ValStm::new();
        let c = stm.new_cell(encode_int(0));
        let mut t = stm.register();
        t.atomic(|tx| {
            let v = decode_int(tx.read(&c)?);
            tx.write(&c, encode_int(v + 10))?;
            Ok(())
        });
        loop {
            let v = t.rw_read(0, &c);
            if !t.rw_is_valid(1) {
                continue;
            }
            if t.rw_commit(1, &[encode_int(decode_int(v) + 1)]) {
                break;
            }
        }
        assert_eq!(decode_int(ValStm::peek(&c)), 11);
    }
}
