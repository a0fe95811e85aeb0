//! Bytes per key at store level, counted by a `#[global_allocator]` wrapper
//! (the same per-thread counter as `spectm-ds/tests/alloc_free.rs`).
//!
//! A fresh `ShardedKv::put` allocates exactly what the key keeps: its
//! 64-byte-aligned map node, its index tower (one block: header and links),
//! and — for a value too long to sit inline in the value word — one
//! `ValueCell`.  The test prints the bytes each block requests per key; the
//! table in DESIGN.md ("Data structures") is its output.  The bucket array
//! is allocated once when the store is built, so it is not part of a put.
//!
//! Allocations are counted per thread, so the test harness's own threads
//! cannot bleed into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spectm::variants::ValShort;
use spectm::Stm;
use spectm_ds::ApiMode;
use spectm_kv::{ShardedKv, ValueCell};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes of the blocks aligned to a cache line or more: map nodes.
    static LINE_BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`; the only added
// work is bumps of const-initialised thread-local `Cell`s, which neither
// allocate nor register a destructor.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `GlobalAlloc::alloc`'s contract, passed on as received.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        if layout.align() >= 64 {
            LINE_BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        }
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

const KEYS: u64 = 1_000;

/// What the calling thread allocated per key over `KEYS` fresh puts of
/// `value_len`-byte values, after as many puts warmed up its transaction
/// logs.
struct PerKey {
    blocks: f64,
    bytes: f64,
    node: f64,
}

fn fresh_puts(value_len: usize) -> PerKey {
    let stm = ValShort::new();
    // Sized far above the keys, so no bucket chain overflows.
    let store = ShardedKv::new(&stm, 16, 1_024, ApiMode::Short);
    let mut t = store.register();
    // An 8-byte little-endian integer below 2^61 is an inline value word.
    let value = |key: u64| match value_len {
        8 => key.to_le_bytes().to_vec(),
        len => vec![key as u8; len],
    };
    for key in 0..KEYS {
        store.put(key, &value(key), &mut t).expect("value fits");
    }
    let values: Vec<Vec<u8>> = (KEYS..2 * KEYS).map(value).collect();
    let before = (ALLOCATIONS.get(), BYTES.get(), LINE_BYTES.get());
    for (key, value) in (KEYS..2 * KEYS).zip(&values) {
        let old = store.put(key, value, &mut t).expect("value fits");
        assert!(old.is_none(), "key {key} was fresh");
    }
    let per_key = |now: u64, then: u64| (now - then) as f64 / KEYS as f64;
    PerKey {
        blocks: per_key(ALLOCATIONS.get(), before.0),
        bytes: per_key(BYTES.get(), before.1),
        node: per_key(LINE_BYTES.get(), before.2),
    }
}

/// One test on purpose: the counter is per thread, and one test keeps the
/// cases sequential on it.
#[test]
fn a_fresh_put_allocates_its_node_its_tower_and_its_value_cell() {
    println!("value\tblocks/key\tnode_B\ttower_B\tcell_B\ttotal_B/key");
    for (value_len, inline) in [(8, true), (100, false), (1_024, false)] {
        let got = fresh_puts(value_len);
        let (cells, cell) = match inline {
            true => (0.0, 0.0),
            false => (1.0, (std::mem::size_of::<ValueCell>() + value_len) as f64),
        };
        let tower = got.bytes - got.node - cell;
        println!(
            "{value_len}\t{}\t{}\t{tower:.1}\t{cell}\t{:.1}",
            got.blocks, got.node, got.bytes
        );
        assert_eq!(got.blocks, 2.0 + cells, "{value_len} B: node, tower, cell");
        assert_eq!(got.node, 64.0, "{value_len} B: one 64-byte node per key");
        // At least one link after the three-word header, and less than the
        // 48-byte header box the two-block tower layout spent alone.
        assert!(
            (32.0..48.0).contains(&tower),
            "{value_len} B: {tower:.1} bytes of tower per key"
        );
    }
}
