//! A scan's seek reads the index with single-location reads, and only the
//! landing — the predecessor's level-0 link and the links from it to the
//! first tower in range — enters the scan's read set.  This test races that
//! landing against the two changes it must see.
//!
//! * A flipper moves one key between `START` and `START + 1` in one full
//!   transaction (`remove_in` + `insert_in`), so at every serialization
//!   point exactly one of the two is present.
//! * A churner inserts and removes the keys just below `START` in every
//!   list, so the tower a seek stops at is often removed under it.
//! * Scanners read `[START, START + 1]` with a merged walk over all lists
//!   (in turn with every floor at `START`, so every list is sought, and
//!   with the floors of a partitioned key space, so only the flipper's
//!   list is), and with `range` on the flipper's list; each read must
//!   return exactly one key.
//!
//! A scan that used the seek's unlogged successor as its head would start
//! from a tower the flipper may have removed since, and return nothing.
//! With the landing read dropped that way, this test fails within its
//! iteration budget on `ValShort` (EXPERIMENTS.md "Scans seek the way the
//! paper searches" records after how many scans).

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use spectm::variants::{OrecFullG, TvarShortG, ValShort};
use spectm::{Stm, StmThread};
use spectm_ds::{ApiMode, StmSkipList, TowerSlot};

const LISTS: usize = 4;
const START: u64 = 10_000;
/// Keys `START - CHURN .. START` churn in every list.
const CHURN: u64 = 6;
/// Each scanner's budget: scans that overlapped at least one flip.
const RACED: u64 = 1_000;

/// Moves the flipping key from `from` to `to` in one full transaction.
fn flip<S: Stm>(list: &StmSkipList<S>, from: u64, to: u64, t: &mut S::Thread) {
    let mut slot = TowerSlot::new();
    let mut retired = None;
    t.atomic(|tx| {
        retired = list.remove_in(from, tx)?;
        assert!(retired.is_some(), "{from} was present");
        assert!(list.insert_in(to, &mut slot, tx)?, "{to} was absent");
        Ok(())
    })
    .expect("flips are never cancelled");
    slot.mark_published();
    retired.expect("checked above").retire(t);
}

/// Every list may hold keys from `START` on.
fn start_floors(_: usize) -> u64 {
    START
}

/// Only the flipper's list (list 0) holds keys in `[START, START + 1]`:
/// the others' keys there are excluded from the background, as a router
/// excludes the keys of other shards.
fn partitioned_floors(list: usize) -> u64 {
    if list == 0 {
        START
    } else {
        START + 2
    }
}

/// The keys a merged walk over `lists` finds in `[START, START + 1]`.
fn merged_keys<S: Stm>(
    lists: &[StmSkipList<S>],
    floors: fn(usize) -> u64,
    t: &mut S::Thread,
) -> Vec<u64> {
    let mut keys = Vec::new();
    t.atomic(|tx| {
        keys.clear();
        StmSkipList::walk_merged_in(
            lists,
            START,
            START + 1,
            tx,
            floors,
            |_, _| {},
            |_, tower, _| {
                keys.push(tower.key);
                Ok(ControlFlow::Continue(()))
            },
        )
    })
    .expect("scans are never cancelled");
    keys
}

fn landing_holds_under_churn<S: Stm + Clone>(stm: S, mode: ApiMode) {
    let stm = Arc::new(stm);
    let lists: Arc<Vec<StmSkipList<S>>> =
        Arc::new((0..LISTS).map(|_| StmSkipList::new(&*stm, mode)).collect());
    {
        let mut t = stm.register();
        // Background keys below and above the range in every list, so the
        // seeks descend several levels before they reach the churn.
        for (i, list) in lists.iter().enumerate() {
            for k in (i as u64..2 * START).step_by(7) {
                if !(START - CHURN..=START + 1).contains(&k) {
                    list.insert(k, &mut t);
                }
            }
        }
        lists[0].put(START, START, &mut t);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let flips = Arc::new(AtomicU64::new(0));
    // Writers and scanners start together, so no scanner runs its budget
    // out before the churn begins.
    let go = Arc::new(Barrier::new(4));
    let mut writers = Vec::new();
    {
        let (stm, lists, stop) = (Arc::clone(&stm), Arc::clone(&lists), Arc::clone(&stop));
        let (go, flips) = (Arc::clone(&go), Arc::clone(&flips));
        writers.push(std::thread::spawn(move || {
            let mut t = stm.register();
            go.wait();
            let mut n = 0u64;
            // ORDERING: a stop flag; nothing is published through it.
            while !stop.load(Ordering::Relaxed) {
                let (from, to) = if n % 2 == 0 {
                    (START, START + 1)
                } else {
                    (START + 1, START)
                };
                flip(&lists[0], from, to, &mut t);
                n += 1;
                // ORDERING: a progress count the scanners only compare.
                flips.store(n, Ordering::Relaxed);
            }
            n
        }));
    }
    {
        let (stm, lists, stop) = (Arc::clone(&stm), Arc::clone(&lists), Arc::clone(&stop));
        let go = Arc::clone(&go);
        writers.push(std::thread::spawn(move || {
            let mut t = stm.register();
            go.wait();
            let mut ops = 0u64;
            // ORDERING: a stop flag; nothing is published through it.
            while !stop.load(Ordering::Relaxed) {
                let key = START - 1 - ops % CHURN;
                let list = &lists[(ops / CHURN) as usize % LISTS];
                if !list.insert(key, &mut t) {
                    assert!(list.remove(key, &mut t), "churn key {key} vanished");
                }
                ops += 1;
            }
            ops
        }));
    }
    let scanners: Vec<_> = (0..2)
        .map(|_| {
            let (stm, lists, go) = (Arc::clone(&stm), Arc::clone(&lists), Arc::clone(&go));
            let flips = Arc::clone(&flips);
            std::thread::spawn(move || {
                let mut t = stm.register();
                go.wait();
                let mut raced = 0;
                for i in 0.. {
                    // ORDERING: a progress count, only compared.
                    let before = flips.load(Ordering::Relaxed);
                    let keys = match i % 3 {
                        0 => merged_keys(&lists, start_floors, &mut t),
                        1 => merged_keys(&lists, partitioned_floors, &mut t),
                        _ => lists[0]
                            .range(START, START + 2, &mut t)
                            .into_iter()
                            .map(|(key, _)| key)
                            .collect(),
                    };
                    assert!(
                        matches!(keys[..], [k] if k == START || k == START + 1),
                        "scan {i} ({raced} raced a flip) found {keys:?}"
                    );
                    // ORDERING: as above.
                    raced += u64::from(flips.load(Ordering::Relaxed) != before);
                    if raced == RACED {
                        break;
                    }
                }
            })
        })
        .collect();
    let scanned = scanners.into_iter().map(|s| s.join()).collect::<Vec<_>>();
    // ORDERING: a stop flag; the joins below synchronize.
    stop.store(true, Ordering::Relaxed);
    let done: Vec<u64> = writers.into_iter().map(|w| w.join().unwrap()).collect();
    for scanner in scanned {
        scanner.unwrap();
    }
    assert!(done.iter().all(|&n| n > 0), "writers ran: {done:?}");
    let present = lists[0].quiescent_snapshot();
    let at_start = present.iter().filter(|&&k| k == START || k == START + 1);
    assert_eq!(at_start.count(), 1, "one flipping key after the run");
}

#[test]
fn scan_landing_holds_under_churn_val_short() {
    landing_holds_under_churn(ValShort::new(), ApiMode::Short);
}

#[test]
fn scan_landing_holds_under_churn_tvar_short() {
    landing_holds_under_churn(TvarShortG::new(), ApiMode::Short);
}

#[test]
fn scan_landing_holds_under_churn_orec_full() {
    landing_holds_under_churn(OrecFullG::new(), ApiMode::Full);
}

#[test]
fn scan_landing_holds_under_churn_orec_fine() {
    landing_holds_under_churn(OrecFullG::new(), ApiMode::Fine);
}
