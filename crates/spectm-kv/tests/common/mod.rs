//! Deterministic concurrency-test scaffolding shared by this crate's
//! integration suites (`invariants.rs`, `value_reclamation.rs`,
//! `batch_semantics.rs`).
//!
//! Every multi-threaded invariant test used to hand-roll the same
//! spawn-and-pray loop: clone an `Arc`, spawn threads that start whenever
//! the OS gets around to it, seed ad-hoc RNGs, join.  This module replaces
//! that with three guarantees the suites rely on:
//!
//! * **Barrier-started workers** — [`run_workers`] releases every worker
//!   through one barrier, so the contention window actually overlaps
//!   instead of degenerating into serial execution when spawn latency
//!   exceeds the workload (worker bodies borrow from the caller through a
//!   thread scope — no `Arc` choreography).
//! * **Seeded per-thread RNGs** — each worker receives an [`Xorshift`]
//!   derived from a test-chosen base seed and its thread id through one
//!   canonical mixing function ([`thread_rng`]), so a replay (e.g. a
//!   sequential oracle applying the same streams) reconstructs exactly the
//!   operations the workers performed.
//! * **Bounded-iteration replay** — workloads are written as a fixed
//!   number of operations per worker, never "run until a clock says stop";
//!   a failure therefore reproduces from nothing but the seed.  (The
//!   throughput drivers in `harness` measure wall-clock windows; invariant
//!   tests must not.)
//!
//! Worker panics (failed assertions) propagate to the test with the
//! worker's id attached.

// Each integration-test binary compiles its own copy of this module and
// uses a subset of it.
#![allow(dead_code)]

use std::sync::Barrier;

use spectm_kv::ShardRouter;

/// The `i`-th of a small key set that must cross shards.  The router
/// places whole blocks of [`ShardRouter::BLOCK_KEYS`] consecutive keys, so
/// dense keys `0..n` share one shard for small `n`; these keys step 1 024
/// blocks (plus one key) apart instead, which spreads 8 keys over 4 shards
/// and 32 over 16.  Ascending in `i`.
pub fn spread_key(i: u64) -> u64 {
    i * 0x1_0001
}

/// Asserts that `keys` reach every shard `router` routes to: a test that
/// means to cross shards states it, so a routing change that collapses its
/// keys onto fewer shards fails here instead of silently testing less.
pub fn assert_spans_every_shard(router: ShardRouter, keys: impl IntoIterator<Item = u64>) {
    let mut hit = vec![false; router.shard_count()];
    for key in keys {
        hit[router.route(key)] = true;
    }
    let missed: Vec<usize> = (0..hit.len()).filter(|&s| !hit[s]).collect();
    assert!(missed.is_empty(), "the test's keys miss shards {missed:?}");
}

/// Cheap deterministic xorshift generator — the single RNG every suite
/// draws from, so oracles can replay worker streams exactly.
pub struct Xorshift(u64);

impl Xorshift {
    /// Creates a generator from a nonzero-forced seed.
    pub fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    /// Next raw 64-bit draw.
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The canonical per-thread stream: mixes `tid` into `base_seed` so worker
/// streams are decorrelated but reproducible.  Oracles replaying a
/// worker's operations must derive their generator through this same
/// function.
pub fn thread_rng(base_seed: u64, tid: u64) -> Xorshift {
    Xorshift::new(base_seed ^ (tid + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs `threads` barrier-started workers and joins them all.
///
/// `worker(tid, rng)` runs on its own thread with `tid` in `0..threads`
/// and the canonical [`thread_rng`]`(base_seed, tid)` stream; no worker
/// starts its workload until every worker is ready.  The closure borrows
/// from the enclosing scope (stores, counters, key sets) without `Arc`s.
/// If a worker panics, the panic propagates with the worker's id.
pub fn run_workers<F>(threads: u64, base_seed: u64, worker: F)
where
    F: Fn(u64, &mut Xorshift) + Sync,
{
    let barrier = Barrier::new(threads as usize);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let barrier = &barrier;
                let worker = &worker;
                scope.spawn(move || {
                    let mut rng = thread_rng(base_seed, tid);
                    barrier.wait();
                    worker(tid, &mut rng);
                })
            })
            .collect();
        for (tid, handle) in handles.into_iter().enumerate() {
            if let Err(panic) = handle.join() {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("worker panicked");
                panic!("worker {tid}: {msg}");
            }
        }
    });
}
