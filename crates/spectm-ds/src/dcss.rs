//! Double-compare-single-swap built from a combined RO/RW short transaction.
//!
//! This is the worked example of Section 2.2: check that two locations hold
//! expected values and, if they do, atomically install a new value in the
//! first one.  It demonstrates the `Tx_RO_*` / `Tx_Upgrade_RO_x_To_RW_y` /
//! `Tx_RO_x_RW_y_Commit` part of the API.  A conflict restarts the short
//! transaction through [`StmThread::retry`], which backs off iff
//! `Config::backoff` is set.

use spectm::{Stm, StmThread, Word};

/// Atomically performs: `if *a1 == o1 && *a2 == o2 { *a1 = n1; true } else { false }`.
///
/// # Examples
///
/// ```
/// use spectm::{Stm, variants::ValShort, encode_int};
/// use spectm_ds::dcss;
///
/// let stm = ValShort::new();
/// let a1 = stm.new_cell(encode_int(1));
/// let a2 = stm.new_cell(encode_int(2));
/// let mut t = stm.register();
/// assert!(dcss::<ValShort>(&a1, &a2, encode_int(1), encode_int(2), encode_int(9), &mut t));
/// assert!(!dcss::<ValShort>(&a1, &a2, encode_int(1), encode_int(2), encode_int(7), &mut t));
/// assert_eq!(ValShort::peek(&a1), encode_int(9));
/// ```
pub fn dcss<S: Stm>(
    a1: &S::Cell,
    a2: &S::Cell,
    o1: Word,
    o2: Word,
    n1: Word,
    thread: &mut S::Thread,
) -> bool {
    // `None` is a conflict: restart, exactly as the paper's listing does.
    thread.retry(|thread| {
        let v1 = thread.ro_read(0, a1);
        let v2 = thread.ro_read(1, a2);
        if v1 == o1 && v2 == o2 && thread.upgrade_ro_to_rw(0, 0) {
            return thread.ro_rw_commit(2, 1, &[n1]).then_some(true);
        }
        // The values genuinely differ from the expected ones.
        thread.ro_is_valid(2).then_some(false)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectm::variants::{OrecFullG, TvarShortG, ValShort};
    use spectm::{encode_int, Stm};
    use std::sync::Arc;

    fn basic<S: Stm>() {
        let stm = S::new();
        let a1 = stm.new_cell(encode_int(10));
        let a2 = stm.new_cell(encode_int(20));
        let mut t = stm.register();
        // Second comparison fails: no change.
        assert!(!dcss::<S>(
            &a1,
            &a2,
            encode_int(10),
            encode_int(99),
            encode_int(11),
            &mut t
        ));
        assert_eq!(S::peek(&a1), encode_int(10));
        // Both match: swap happens.
        assert!(dcss::<S>(
            &a1,
            &a2,
            encode_int(10),
            encode_int(20),
            encode_int(11),
            &mut t
        ));
        assert_eq!(S::peek(&a1), encode_int(11));
        assert_eq!(S::peek(&a2), encode_int(20));
    }

    #[test]
    fn dcss_works_on_all_layouts() {
        basic::<OrecFullG>();
        basic::<TvarShortG>();
        basic::<ValShort>();
    }

    #[test]
    fn concurrent_dcss_is_atomic() {
        // `a1` counts successful swaps gated on a guard cell `a2`; flipping
        // the guard concurrently must never produce a half-applied swap.
        let stm = Arc::new(ValShort::new());
        let counter = Arc::new(stm.new_cell(encode_int(0)));
        let guard = Arc::new(stm.new_cell(encode_int(0)));
        const THREADS: usize = 4;
        const OPS: usize = 1_500;
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            let stm = Arc::clone(&stm);
            let counter = Arc::clone(&counter);
            let guard = Arc::clone(&guard);
            joins.push(std::thread::spawn(move || {
                let mut t = stm.register();
                let mut success = 0u64;
                for _ in 0..OPS {
                    let cur = spectm::StmThread::single_read(&mut t, &counter);
                    if dcss::<ValShort>(
                        &counter,
                        &guard,
                        cur,
                        encode_int(0),
                        encode_int(spectm::decode_int(cur) + 1),
                        &mut t,
                    ) {
                        success += 1;
                    }
                }
                success
            }));
        }
        let total: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
        assert_eq!(
            spectm::decode_int(ValShort::peek(&counter)) as u64,
            total,
            "every successful DCSS must be reflected exactly once"
        );
    }
}
