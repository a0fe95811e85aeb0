//! Heap allocations on the hot paths, counted by a `#[global_allocator]`
//! wrapper (the seed of ROADMAP Open item 4's counting allocator).
//!
//! The skip list's descent builds its window on the stack, so a lookup, a
//! removal of an absent key and an insert of a present key allocate nothing,
//! and an insert+remove pair allocates exactly its tower (two allocations at
//! today's `Tower` layout: the box and its `next` vector).  The hash table's
//! churn allocates exactly its nodes, so the closures handed to
//! `StmThread::retry` box nothing.
//!
//! Allocations are counted per thread, so the test harness's own threads
//! cannot bleed into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spectm::variants::{OrecFullG, TvarShortG, ValShort};
use spectm::Stm;
use spectm_ds::{ApiMode, StmHashTable, StmSkipList};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`; the only added
// work is a bump of a const-initialised thread-local `Cell`, which neither
// allocates nor registers a destructor.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `GlobalAlloc::alloc`'s contract, passed on as received.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `GlobalAlloc::dealloc`'s contract, passed on as received.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while running `op`.
fn allocations(op: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.get();
    op();
    ALLOCATIONS.get() - before
}

const OPS: u64 = 1_000;

/// Even keys `0..8192` are present, odd keys absent.
fn skiplist_case<S: Stm + Clone>(stm: S, mode: ApiMode) {
    let what = format!("{} {mode:?}", stm.label());
    let list = StmSkipList::new(&stm, mode);
    let mut t = stm.register();
    for k in 0..4_096u64 {
        assert!(list.insert(2 * k, &mut t));
    }
    let probe = |i: u64| (i * 37) % 4_096 * 2;
    // The second pass is the measured one: the first grows the thread's
    // read/write sets and epoch garbage bags to their steady-state capacity.
    for pass in 0..2 {
        let lookups = allocations(|| {
            for i in 0..OPS {
                assert!(list.contains(probe(i), &mut t));
                assert!(!list.contains(probe(i) + 1, &mut t));
                assert_eq!(list.get(probe(i), &mut t), Some(0));
                assert_eq!(list.get(probe(i) + 1, &mut t), None);
            }
        });
        let refused = allocations(|| {
            for i in 0..OPS {
                assert!(!list.remove(probe(i) + 1, &mut t));
                assert!(!list.insert(probe(i), &mut t));
            }
        });
        let churn = allocations(|| {
            for i in 0..OPS {
                assert!(list.insert(probe(i) + 1, &mut t));
                assert!(list.remove(probe(i) + 1, &mut t));
            }
        });
        if pass == 1 {
            assert_eq!(lookups, 0, "{what}: contains/get");
            assert_eq!(refused, 0, "{what}: remove absent / insert present");
            assert_eq!(churn, 2 * OPS, "{what}: insert+remove allocates its tower");
        }
    }
}

fn hashtable_case<S: Stm + Clone>(stm: S, mode: ApiMode) {
    let table = StmHashTable::new(&stm, 64, mode);
    let mut t = stm.register();
    for pass in 0..2 {
        let churn = allocations(|| {
            for k in 0..OPS {
                assert!(table.insert(k, &mut t));
                assert!(table.remove(k, &mut t));
            }
        });
        if pass == 1 {
            assert_eq!(churn, OPS, "{} {mode:?}: one node per insert", stm.label());
        }
    }
}

/// One test on purpose: the counter is per thread, and one test keeps the
/// cases sequential on it.
#[test]
fn hot_paths_allocate_only_what_they_publish() {
    skiplist_case(ValShort::new(), ApiMode::Short);
    skiplist_case(TvarShortG::new(), ApiMode::Short);
    skiplist_case(OrecFullG::new(), ApiMode::Full);
    skiplist_case(OrecFullG::new(), ApiMode::Fine);
    hashtable_case(ValShort::new(), ApiMode::Short);
    hashtable_case(OrecFullG::new(), ApiMode::Full);
}
