//! Bytes per key at store level, counted by a `#[global_allocator]` wrapper
//! (the same per-thread counter as `spectm-ds/tests/alloc_free.rs`).
//!
//! A fresh `ShardedKv::put` allocates exactly what the key keeps: its entry
//! (one block: the header of key, height, CLOCK byte, value word and
//! deadline word, then the index links — the map's item word and the
//! shard's index point at the same block) and — for a value too long to sit inline in the value
//! word — one `ValueCell`.  Neither is aligned above 16 bytes, so neither
//! takes the allocator's aligned-allocation path (glibc's `memalign` carves
//! a larger chunk and frees the pieces around the aligned part).  The test
//! prints the bytes each block requests per key; the table in DESIGN.md
//! ("Data structures") is its output.  The bucket array is allocated once
//! when the store is built, so it is not part of a put.
//!
//! The same counter checks that neither a multi-key read nor a `get`
//! copies anything out of an expired entry, that a removal copies out only
//! a value its caller returns, and that a dropped store frees every block it allocated.
//! Allocations are counted per thread, so the test harness's own threads
//! cannot bleed into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spectm::variants::{OrecFullG, TvarShortG, ValShort};
use spectm::Stm;
use spectm_ds::ApiMode;
use spectm_kv::{CacheConfig, Clock, ShardedKv, StmHashMap, ValueCell, ITEM_OVERHEAD_BYTES};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
    static FREED_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Blocks aligned above what `malloc` itself guarantees (16 bytes).
    static OVER_ALIGNED: Cell<u64> = const { Cell::new(0) };
    /// Blocks of exactly `WATCHED_SIZE` bytes (see `blocks_of`).
    static WATCHED: Cell<u64> = const { Cell::new(0) };
    static WATCHED_SIZE: Cell<usize> = const { Cell::new(0) };
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
        if layout.align() > 16 {
            OVER_ALIGNED.with(|n| n.set(n.get() + 1));
        }
        if layout.size() == WATCHED_SIZE.get() {
            WATCHED.with(|n| n.set(n.get() + 1));
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `GlobalAlloc::dealloc`'s contract, passed on as received.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.with(|n| n.set(n.get() + 1));
        FREED_BYTES.with(|n| n.set(n.get() + layout.size() as u64));
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
    over_aligned: f64,
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
    let before = (ALLOCATIONS.get(), BYTES.get(), OVER_ALIGNED.get());
    for (key, value) in (KEYS..2 * KEYS).zip(&values) {
        let old = store.put(key, value, &mut t).expect("value fits");
        assert!(old.is_none(), "key {key} was fresh");
    }
    let per_key = |now: u64, then: u64| (now - then) as f64 / KEYS as f64;
    PerKey {
        blocks: per_key(ALLOCATIONS.get(), before.0),
        bytes: per_key(BYTES.get(), before.1),
        over_aligned: per_key(OVER_ALIGNED.get(), before.2),
    }
}

/// One test on purpose: the counter is per thread, and one test keeps the
/// cases sequential on it.
#[test]
fn a_fresh_put_allocates_its_entry_and_its_value_cell() {
    println!("value\tblocks/key\tentry_B\tcell_B\ttotal_B/key");
    for (value_len, inline) in [(8, true), (100, false), (1_024, false)] {
        let got = fresh_puts(value_len);
        let (cells, cell) = match inline {
            true => (0.0, 0.0),
            false => (1.0, (std::mem::size_of::<ValueCell>() + value_len) as f64),
        };
        let entry = got.bytes - cell;
        println!(
            "{value_len}\t{}\t{entry:.1}\t{cell}\t{:.1}",
            got.blocks, got.bytes
        );
        assert_eq!(got.blocks, 1.0 + cells, "{value_len} B: entry, cell");
        assert_eq!(
            got.over_aligned, 0.0,
            "{value_len} B: a block aligned above 16 bytes"
        );
        // At least one link after the four-word header, and less than the
        // 24-byte node plus 24-byte-header tower the two-block layout spent.
        assert!(
            (40.0..64.0).contains(&entry),
            "{value_len} B: {entry:.1} bytes of entry per key"
        );
    }
}

/// Blocks and bytes the calling thread allocates while `f` runs.
fn allocated(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCATIONS.get(), BYTES.get());
    f();
    (ALLOCATIONS.get() - before.0, BYTES.get() - before.1)
}

/// An entry no index links is its header alone, one 32-byte block at
/// word-sized cells: key, height and CLOCK byte in one word (the byte sits
/// in what was the height's padding), then the value word and the deadline
/// word.  A standalone map's fresh put of an inline value allocates exactly
/// that; the store's entries add their links after it.
#[test]
fn an_unlinked_entry_is_its_32_byte_header() {
    let stm = ValShort::new();
    let map = StmHashMap::new(&stm, 1_024, ApiMode::Short);
    let mut t = stm.register();
    // Warm the transaction logs on keys the measured ones do not share.
    for key in 0..64u64 {
        map.put(key, &key.to_le_bytes(), &mut t).expect("fits");
    }
    for key in 64..128u64 {
        let fresh = allocated(|| {
            assert_eq!(map.put(key, &key.to_le_bytes(), &mut t), Ok(None));
        });
        assert_eq!(fresh, (1, 32), "key {key}: (blocks, bytes)");
    }
}

/// A multi-key read decides liveness before it copies: on an expired
/// out-of-line key, `multi_get_atomic` and `rmw_add` allocate exactly what
/// they allocate on an absent key, so the expired value is never copied.
#[test]
fn multi_key_reads_copy_nothing_out_of_an_expired_entry() {
    let stm = ValShort::new();
    let now = Arc::new(AtomicU64::new(0));
    let config = CacheConfig {
        clock: Clock::manual(&now),
        ..CacheConfig::default()
    };
    let store = ShardedKv::with_config(&stm, 2, 64, ApiMode::Short, config);
    let mut t = store.register();
    store
        .put_with_ttl(1, &[7u8; 1_024], Some(10), &mut t)
        .expect("value fits");
    // ORDERING: one thread writes and reads the manual clock.
    now.store(10, Ordering::Relaxed);
    for _ in 0..2 {
        // The second round runs on warm transaction logs.
        let expired = allocated(|| {
            assert_eq!(store.multi_get_atomic(&[1], &mut t), Ok(None));
            assert_eq!(store.rmw_add(&[1], 1, &mut t), Ok(false));
        });
        let absent = allocated(|| {
            assert_eq!(store.multi_get_atomic(&[2], &mut t), Ok(None));
            assert_eq!(store.rmw_add(&[2], 1, &mut t), Ok(false));
        });
        assert_eq!(expired, absent, "(blocks, bytes): expired vs absent");
    }
}

/// What `f` returns, and the blocks of exactly `size` bytes the calling
/// thread allocates while it runs.
fn blocks_of<T>(size: usize, f: impl FnOnce() -> T) -> (T, u64) {
    WATCHED_SIZE.set(size);
    let before = WATCHED.get();
    let out = f();
    WATCHED_SIZE.set(0);
    (out, WATCHED.get() - before)
}

/// A removal copies its value out only for a caller that returns it: a
/// sweep that expires and evicts out-of-line values allocates no `Value`
/// buffer (a block of exactly the value's length; a cell is a header
/// longer), nor does a read that finds one expired, while `del` allocates
/// the one it returns.  The lazy-expiry row was `(None, 1)` while the
/// lookup copied the value out before the store saw its deadline; the
/// lookup now judges the deadline first, so it is `(None, 0)`.
#[test]
fn removals_copy_out_only_the_values_they_return() {
    const LEN: usize = 1_000;
    let stm = ValShort::new();
    let now = Arc::new(AtomicU64::new(0));
    let config = CacheConfig {
        max_bytes: Some(8 * (ITEM_OVERHEAD_BYTES + LEN as u64)),
        clock: Clock::manual(&now),
        ..CacheConfig::default()
    };
    let store = ShardedKv::with_config(&stm, 2, 64, ApiMode::Short, config);
    let mut t = store.register();
    for key in 0..32 {
        let ttl = (key % 4 == 0).then_some(10);
        store
            .put_with_ttl(key, &[key as u8; LEN], ttl, &mut t)
            .expect("value fits");
    }
    // ORDERING: one thread writes and reads the manual clock.
    now.store(10, Ordering::Relaxed);
    let (got, lazy) = blocks_of(LEN, || store.get(0, &mut t));
    assert_eq!((got, lazy), (None, 0), "lazy expiry copied the value");
    let (outcome, swept) = blocks_of(LEN, || store.sweep_step(store.bucket_count(), &mut t));
    assert_eq!((outcome.expired, outcome.evicted > 0), (7, true));
    assert_eq!(swept, 0, "the sweep copied {swept} removed values");
    let key = store.scan(0, 1, &mut t)[0].0;
    let (got, deleted) = blocks_of(LEN, || store.del(key, &mut t));
    assert_eq!(got.as_deref(), Some(&[key as u8; LEN][..]));
    assert_eq!(deleted, 1, "del returns the value it removed");
}

/// Builds a one-shard store whose two home buckets overflow, with inline
/// and out-of-line values, deletes and re-inserts some keys, overwrites
/// others and lets a few expire unswept, then drops it: the calling thread
/// must free every block it allocated, each once.
/// The STM instance is built and dropped inside the count too: its epoch
/// collector frees the garbage still deferred when it goes.
fn dropped_store_frees_every_block<S: Stm + Clone>(stm: impl Fn() -> S, mode: ApiMode) {
    let label = stm().label();
    let blocks = (
        ALLOCATIONS.get(),
        BYTES.get(),
        FREES.get(),
        FREED_BYTES.get(),
    );
    {
        let stm = stm();
        let now = Arc::new(AtomicU64::new(0));
        let config = CacheConfig {
            clock: Clock::manual(&now),
            ..CacheConfig::default()
        };
        let store = ShardedKv::with_config(&stm, 1, 8, mode, config);
        let mut t = store.register();
        let value = |k: u64| vec![k as u8; if k % 2 == 0 { 4 } else { 100 }];
        for k in 0..64 {
            let ttl = (k % 5 == 0).then_some(10);
            store.put_with_ttl(k, &value(k), ttl, &mut t).expect("fits");
        }
        assert!(store.stats().overflow_buckets > 0, "{}", store.stats());
        for k in (0..64).step_by(3) {
            assert!(store.del(k, &mut t).is_some() || k % 5 == 0);
        }
        for k in (0..64).step_by(6) {
            store.put(k, &value(k + 1), &mut t).expect("fits");
        }
        for k in (1..64).step_by(4) {
            store.put(k, &value(k + 1), &mut t).expect("fits");
        }
        // ORDERING: one thread writes and reads the manual clock.
        now.store(10, Ordering::Relaxed);
        let live = store.scan(0, usize::MAX, &mut t).len();
        assert!(live < store.quiescent_snapshot().len(), "unswept corpses");
        store.assert_index_consistent();
    }
    let (allocs, bytes) = (ALLOCATIONS.get() - blocks.0, BYTES.get() - blocks.1);
    let (frees, freed) = (FREES.get() - blocks.2, FREED_BYTES.get() - blocks.3);
    assert_eq!((frees, freed), (allocs, bytes), "{label}: (blocks, bytes)");
}

#[test]
fn a_dropped_store_frees_every_block_once() {
    dropped_store_frees_every_block(ValShort::new, ApiMode::Short);
    dropped_store_frees_every_block(TvarShortG::new, ApiMode::Short);
    dropped_store_frees_every_block(OrecFullG::new, ApiMode::Full);
}
