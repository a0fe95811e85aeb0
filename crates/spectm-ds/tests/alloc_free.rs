//! Heap allocations on the hot paths, counted by a `#[global_allocator]`
//! wrapper (the seed of ROADMAP Open item 4's counting allocator).
//!
//! The skip list's descent builds its window on the stack, so a lookup, a
//! removal of an absent key and an insert of a present key allocate nothing,
//! and an insert+remove pair allocates exactly its tower: one block, the
//! header with the links inline after it, under 48 bytes on average at
//! word-sized cells and with every link aligned for its cell.  The hash
//! table, in all three modes, is the same: lookups, a removal of an absent
//! key and an insert of a present key allocate nothing, and its churn
//! allocates exactly its nodes, so the closures handed to
//! `StmThread::retry` box nothing.  A merged walk over 16 lists allocates
//! its one vector of per-list heads, whatever it visits.  A skip list's own
//! `range` and `collect_range_in` are that walk over one list, so each
//! allocates a heads block too (of one head), besides the vector it fills.
//!
//! Allocations are counted per thread, so the test harness's own threads
//! cannot bleed into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::ControlFlow;

use spectm::variants::{OrecFullG, TvarShortG, ValShort};
use spectm::{Stm, StmThread};
use spectm_ds::{ApiMode, StmHashTable, StmSkipList};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// The largest power of two dividing the address and the size of every
    /// block allocated since it was last reset.
    static GRAIN: Cell<usize> = const { Cell::new(usize::MAX) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`; the only added
// work is bumps of const-initialised thread-local `Cell`s, which neither
// allocate nor register a destructor.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `GlobalAlloc::alloc`'s contract, passed on as received.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let block = unsafe { System.alloc(layout) };
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        let grain = 1 << (block as usize | layout.size()).trailing_zeros();
        GRAIN.with(|g| g.set(g.get().min(grain)));
        block
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

/// What the calling thread allocated while running an operation.
struct Tally {
    count: u64,
    bytes: u64,
    /// See `GRAIN`: every block's address and size are multiples of it.
    grain: usize,
}

/// Allocations the calling thread makes while running `op`.
fn allocations(op: impl FnOnce()) -> Tally {
    let (count, bytes) = (ALLOCATIONS.get(), BYTES.get());
    GRAIN.set(usize::MAX);
    op();
    Tally {
        count: ALLOCATIONS.get() - count,
        bytes: BYTES.get() - bytes,
        grain: GRAIN.get(),
    }
}

const OPS: u64 = 1_000;

/// Even keys `0..8192` are present, odd keys absent.
fn skiplist_case<S: Stm + Clone>(stm: S, mode: ApiMode) -> Tally {
    let what = format!("{} {mode:?}", stm.label());
    let list = StmSkipList::new(&stm, mode);
    let mut t = stm.register();
    for k in 0..4_096u64 {
        assert!(list.insert(2 * k, &mut t));
    }
    let probe = |i: u64| (i * 37) % 4_096 * 2;
    // The second pass is the measured one: the first grows the thread's
    // read/write sets and epoch garbage bags to their steady-state capacity.
    let mut churn = None;
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
        let inserted = allocations(|| {
            for i in 0..OPS {
                assert!(list.insert(probe(i) + 1, &mut t));
                assert!(list.remove(probe(i) + 1, &mut t));
            }
        });
        if pass == 1 {
            assert_eq!(lookups.count, 0, "{what}: contains/get");
            assert_eq!(refused.count, 0, "{what}: remove absent / insert present");
            assert_eq!(inserted.count, OPS, "{what}: one block per tower");
            // A link sits at the block's address plus the header plus whole
            // cells, and the header's size is the block's size less whole
            // cells: a grain of the cell's alignment aligns every link.
            let align = std::mem::align_of::<S::Cell>();
            assert!(
                inserted.grain >= align,
                "{what}: a tower block on a {}-byte grain, links need {align}",
                inserted.grain
            );
            churn = Some(inserted);
        }
    }
    churn.expect("two passes ran")
}

/// A 16-list merged walk (the sharded store's scan) allocates one block —
/// its per-list heads, which also hold the lockstep descents' cursors — and
/// nothing per list or per visited tower.
fn merged_walk_case<S: Stm + Clone>(stm: S) {
    const LISTS: u64 = 16;
    let lists: Vec<_> = (0..LISTS)
        .map(|_| StmSkipList::new(&stm, ApiMode::Short))
        .collect();
    let mut t = stm.register();
    for k in 0..4_096u64 {
        assert!(lists[(k % LISTS) as usize].insert(k * 8, &mut t));
    }
    for pass in 0..2 {
        let scans = allocations(|| {
            for i in 0..OPS {
                let start = (i * 37) % 4_000 * 8 + 1;
                let mut seen = 0;
                t.atomic(|tx| {
                    seen = 0;
                    StmSkipList::walk_merged_in(
                        &lists,
                        start,
                        u64::MAX,
                        tx,
                        |_| start,
                        |_, _| {},
                        |_, _, _| {
                            seen += 1;
                            Ok(if seen < 16 {
                                ControlFlow::Continue(())
                            } else {
                                ControlFlow::Break(())
                            })
                        },
                    )
                })
                .unwrap();
                assert_eq!(seen, 16);
            }
        });
        if pass == 1 {
            let label = stm.label();
            assert_eq!(scans.count, OPS, "{label}: one block per merged walk");
        }
    }
}

/// Even keys `0..2 * OPS` are present, odd keys absent.
fn hashtable_case<S: Stm + Clone>(stm: S, mode: ApiMode) {
    let what = format!("{} {mode:?}", stm.label());
    let table = StmHashTable::new(&stm, 64, mode);
    let mut t = stm.register();
    for k in 0..OPS {
        assert!(table.insert(2 * k, &mut t));
    }
    for pass in 0..2 {
        let lookups = allocations(|| {
            for k in 0..OPS {
                assert!(table.contains(2 * k, &mut t));
                assert!(!table.contains(2 * k + 1, &mut t));
            }
        });
        let refused = allocations(|| {
            for k in 0..OPS {
                assert!(!table.remove(2 * k + 1, &mut t));
                assert!(!table.insert(2 * k, &mut t));
            }
        });
        let churn = allocations(|| {
            for k in 0..OPS {
                assert!(table.insert(2 * k + 1, &mut t));
                assert!(table.remove(2 * k + 1, &mut t));
            }
        });
        if pass == 1 {
            assert_eq!(lookups.count, 0, "{what}: contains hit/miss");
            assert_eq!(refused.count, 0, "{what}: remove absent / insert present");
            assert_eq!(churn.count, OPS, "{what}: one node per insert");
        }
    }
}

/// One test on purpose: the counter is per thread, and one test keeps the
/// cases sequential on it.
#[test]
fn hot_paths_allocate_only_what_they_publish() {
    let val = skiplist_case(ValShort::new(), ApiMode::Short);
    // The header box of the two-block layout was 48 bytes on its own; one
    // block of header and word-sized links averages two levels' worth more
    // than the 24-byte header.
    let per_insert = val.bytes as f64 / OPS as f64;
    println!("val-short: {per_insert:.1} bytes requested per tower");
    assert!(per_insert < 48.0, "{per_insert:.1} bytes per tower");
    // 16-byte-aligned cells: where the grain check has teeth.
    skiplist_case(TvarShortG::new(), ApiMode::Short);
    skiplist_case(OrecFullG::new(), ApiMode::Full);
    skiplist_case(OrecFullG::new(), ApiMode::Fine);
    merged_walk_case(ValShort::new());
    merged_walk_case(TvarShortG::new());
    merged_walk_case(OrecFullG::new());
    hashtable_case(ValShort::new(), ApiMode::Short);
    hashtable_case(OrecFullG::new(), ApiMode::Full);
    hashtable_case(OrecFullG::new(), ApiMode::Fine);
}
