//! Multi-threaded invariant tests for the sharded KV store.
//!
//! Complementary checks per STM variant, now over **byte values** (the
//! payload generator sweeps the inline-bytes, inline-int and out-of-line
//! cell regimes, so every representation is exercised under contention):
//!
//! * **Deterministic replay** — threads run a mixed get/put/del workload
//!   over disjoint key ranges; afterwards the store must equal a sequential
//!   replay of every thread's operation stream into a `BTreeMap`, payload
//!   bytes included (disjoint ranges make the merged outcome
//!   order-independent).
//! * **Cross-shard serializability** — all value mass is conserved under
//!   concurrent multi-key transfers (values as 8-byte little-endian
//!   counters), and concurrent observers reading the whole key set through
//!   one full transaction must *never* see a partial transfer.  This is the
//!   property the lock-free baseline cannot provide and the whole reason
//!   the shards share an STM instance.
//! * **Atomic scans** — concurrent `scan`s over the whole key set must see
//!   the conserved total at every instant (a scan that could observe a torn
//!   cross-shard `rmw` would see a partial transfer), stay sorted, and —
//!   via the index invariant — never miss or duplicate a key.  The
//!   lock-free baseline's `scan` explicitly lacks this guarantee (its index
//!   and table are updated by independent CASes); see `lockfree::kv`.
//! * **Snapshots against short writers** — a writer that only ever issues
//!   single-key short-transaction overwrites (`a` then `b`, same sequence
//!   number) must still be seen in order by every scan: a read-only full
//!   transaction validates at commit even though short commits move no
//!   global counter.
//! * **Sequential scan oracle** — a single-threaded random workload of
//!   put/del/get/scan/range over variable-size payloads must match a
//!   `BTreeMap` replay operation by operation, including the ordered
//!   results and the exact bytes, at 1, 2 and 16 shards and at both ends
//!   of the key space.
//! * **Read-set budget** — the number of transactional reads a scan
//!   performs (`Stats::full_reads`) is bounded by what it returns plus one
//!   descent per shard, and the read and write sets of a fixed
//!   membership-and-scan script stay at or below recorded totals; a fixed
//!   script over deep bucket chains makes exactly its recorded STM calls.
//!
//! All concurrency runs through the deterministic scaffolding of
//! [`common`]: barrier-started scoped workers with canonically seeded
//! per-thread streams, so the replay oracles reconstruct exactly what the
//! workers did.

mod common;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::{run_workers, thread_rng, Xorshift};
use spectm::variants::{OrecFullG, TvarShortG, ValShort};
use spectm::{Stm, StmThread};
use spectm_ds::ApiMode;
use spectm_kv::{CacheConfig, Clock, ShardedKv, StmHashMap, Value};

/// Deterministic payload for `(key, draw)`: the length cycles through the
/// inline-bytes (0..=7), inline-int (8) and out-of-line (up to ~48 bytes)
/// regimes, and the content depends on both inputs so stale reads surface
/// as byte mismatches, not just length mismatches.
fn payload(key: u64, draw: u64) -> Vec<u8> {
    let len = (draw % 49) as usize;
    (0..len)
        .map(|i| (key as u8).wrapping_mul(167) ^ (draw as u8) ^ (i as u8).wrapping_mul(59))
        .collect()
}

fn disjoint_replay<S: Stm + Clone>(stm: S, mode: ApiMode) {
    const THREADS: u64 = 4;
    const RANGE: u64 = 256;
    const OPS: usize = 4_000;
    const SEED: u64 = 0xC0FFEE;
    let store = ShardedKv::new(&stm, 4, 64, mode);
    run_workers(THREADS, SEED, |tid, rng| {
        let mut t = store.register();
        let base = tid * RANGE;
        for _ in 0..OPS {
            let k = base + rng.next() % RANGE;
            let v = rng.next() >> 2;
            match rng.next() % 5 {
                0 | 1 => {
                    store.put(k, &payload(k, v), &mut t).unwrap();
                }
                2 => {
                    store.del(k, &mut t);
                }
                3 => {
                    store.get(k, &mut t);
                }
                _ => {
                    // Scans cross thread ranges, so mid-flight results
                    // are only sanity-checked (sorted, bounded); the
                    // final state check below is what pins them down.
                    let run = store.scan(k, 8, &mut t);
                    assert!(run.len() <= 8);
                    assert!(run.windows(2).all(|w| w[0].0 < w[1].0));
                }
            }
        }
    });

    // Sequential replay: same per-thread streams, same canonical seeds,
    // into an ordinary map.  Disjoint ranges mean thread interleaving
    // cannot change the final contents — the exact payload bytes included.
    let mut oracle = BTreeMap::new();
    for tid in 0..THREADS {
        let mut rng = thread_rng(SEED, tid);
        let base = tid * RANGE;
        for _ in 0..OPS {
            let k = base + rng.next() % RANGE;
            let v = rng.next() >> 2;
            match rng.next() % 5 {
                0 | 1 => {
                    oracle.insert(k, Value::from(payload(k, v)));
                }
                2 => {
                    oracle.remove(&k);
                }
                _ => {}
            }
        }
    }
    let expect: Vec<(u64, Value)> = oracle.into_iter().collect();
    assert_eq!(store.quiescent_snapshot(), expect);
    // The ordered index agrees with the shards, and a quiescent full scan
    // sees exactly the final contents.
    store.assert_index_consistent();
    let mut t = store.register();
    assert_eq!(store.scan(0, usize::MAX, &mut t), expect);
}

fn transfers_conserve_total<S: Stm + Clone>(stm: S, mode: ApiMode) {
    const KEYS: u64 = 16;
    const INITIAL: u64 = 1_000;
    const WRITERS: u64 = 4;
    const OBSERVERS: u64 = 2;
    const TRANSFERS: usize = 2_000;
    let store = ShardedKv::new(&stm, 4, 32, mode);
    {
        let mut t = store.register();
        for k in 0..KEYS {
            store.put(k, &INITIAL.to_le_bytes(), &mut t).unwrap();
        }
    }
    let all_keys: Vec<u64> = (0..KEYS).collect();
    run_workers(WRITERS + OBSERVERS, 0xFEED, |tid, rng| {
        let mut t = store.register();
        if tid < WRITERS {
            for _ in 0..TRANSFERS {
                let from = rng.next() % KEYS;
                let to = rng.next() % KEYS;
                if from == to {
                    continue;
                }
                let amount = rng.next() % 3;
                assert!(store
                    .rmw(
                        &[from, to],
                        |vals| {
                            let moved = amount.min(vals[0].as_u64());
                            vals[0] = Value::from_u64(vals[0].as_u64() - moved);
                            vals[1] = Value::from_u64(vals[1].as_u64() + moved);
                        },
                        &mut t,
                    )
                    .unwrap());
            }
        } else {
            for _ in 0..400 {
                // Two chained atomic reads (8 keys each) are NOT atomic
                // with respect to each other, so only per-call sums are
                // checked against partial transfers *within* each half.
                let lo: u64 = store
                    .multi_get_atomic(&all_keys[..8], &mut t)
                    .unwrap()
                    .expect("keys present")
                    .iter()
                    .map(Value::as_u64)
                    .sum();
                let hi: u64 = store
                    .multi_get_atomic(&all_keys[8..], &mut t)
                    .unwrap()
                    .expect("keys present")
                    .iter()
                    .map(Value::as_u64)
                    .sum();
                // Transfers move value between arbitrary keys, so each half
                // can drift — but never beyond the total system mass, and
                // never negative (u64 underflow would explode the sum).
                assert!(lo + hi <= 2 * KEYS * INITIAL, "observed {lo} + {hi}");
            }
        }
    });
    // The real serializability check: after quiescence the mass is exact.
    let snapshot = store.quiescent_snapshot();
    assert_eq!(snapshot.len(), KEYS as usize);
    let total: u64 = snapshot.iter().map(|(_, v)| v.as_u64()).sum();
    assert_eq!(total, KEYS * INITIAL, "transfer mass was not conserved");
}

/// Transfers restricted to within-eight-key groups so a *single* atomic
/// read covers every key a transfer can touch — observers must see the
/// invariant hold mid-flight, not just at quiescence.
fn observers_never_see_partial_transfers<S: Stm + Clone>(stm: S, mode: ApiMode) {
    const KEYS: u64 = 8;
    const INITIAL: u64 = 1_000;
    const WRITERS: u64 = 3;
    const OBSERVERS: u64 = 2;
    let store = ShardedKv::new(&stm, 4, 32, mode);
    {
        let mut t = store.register();
        for k in 0..KEYS {
            store.put(k, &INITIAL.to_le_bytes(), &mut t).unwrap();
        }
    }
    let all_keys: Vec<u64> = (0..KEYS).collect();
    run_workers(WRITERS + OBSERVERS, 0xBEEF, |tid, rng| {
        let mut t = store.register();
        if tid < WRITERS {
            for _ in 0..1_500 {
                let from = rng.next() % KEYS;
                let to = rng.next() % KEYS;
                if from == to {
                    continue;
                }
                assert!(store
                    .rmw(
                        &[from, to],
                        |vals| {
                            let moved = 1.min(vals[0].as_u64());
                            vals[0] = Value::from_u64(vals[0].as_u64() - moved);
                            vals[1] = Value::from_u64(vals[1].as_u64() + moved);
                        },
                        &mut t,
                    )
                    .unwrap());
            }
        } else {
            for _ in 0..500 {
                let total: u64 = store
                    .multi_get_atomic(&all_keys, &mut t)
                    .unwrap()
                    .expect("keys present")
                    .iter()
                    .map(Value::as_u64)
                    .sum();
                assert_eq!(total, KEYS * INITIAL, "observed a partial transfer");
            }
        }
    });
}

/// Writers move value mass between random keys through cross-shard `rmw`
/// while observers repeatedly `scan` the whole key set.  Every scan runs as
/// one full transaction, so it must see the conserved total at *every*
/// instant — a torn cross-shard `rmw` would surface as a partial transfer
/// (the lock-free baseline's scan offers no such guarantee; its index and
/// table are updated by independent CASes).
///
/// `keys` and `capacity_per_shard` set the bucket-table occupancy: the
/// comfortable variants run well under the ~0.75 design load, the
/// `_high_load` variants undersize the tables far past it (one home
/// bucket per shard, several keys deep in overflow chains), so torn
/// transfers are hunted where probes span multiple buckets and fresh
/// inserts take the full-transaction fallback.
fn scans_never_observe_torn_transfers<S: Stm + Clone>(
    stm: S,
    mode: ApiMode,
    keys: u64,
    capacity_per_shard: usize,
) {
    const INITIAL: u64 = 1_000;
    const WRITERS: u64 = 3;
    const OBSERVERS: u64 = 2;
    let store = ShardedKv::new(&stm, 4, capacity_per_shard, mode);
    {
        let mut t = store.register();
        for k in 0..keys {
            store.put(k, &INITIAL.to_le_bytes(), &mut t).unwrap();
        }
    }
    run_workers(WRITERS + OBSERVERS, 0x5CA4, |tid, rng| {
        let mut t = store.register();
        if tid < WRITERS {
            for _ in 0..1_500 {
                let from = rng.next() % keys;
                let to = rng.next() % keys;
                if from == to {
                    continue;
                }
                let amount = rng.next() % 3;
                // `from` and `to` usually live on different shards; the
                // transfer is one full transaction across both.
                assert!(store
                    .rmw(
                        &[from, to],
                        |vals| {
                            let moved = amount.min(vals[0].as_u64());
                            vals[0] = Value::from_u64(vals[0].as_u64() - moved);
                            vals[1] = Value::from_u64(vals[1].as_u64() + moved);
                        },
                        &mut t,
                    )
                    .unwrap());
            }
        } else {
            for i in 0..300 {
                let run = store.scan(0, keys as usize, &mut t);
                assert_eq!(run.len(), keys as usize, "scan missed keys");
                assert!(run.windows(2).all(|w| w[0].0 < w[1].0), "scan out of order");
                let total: u64 = run.iter().map(|(_, v)| v.as_u64()).sum();
                assert_eq!(
                    total,
                    keys * INITIAL,
                    "observer {tid} saw a torn transfer on scan {i}"
                );
            }
        }
    });
    store.assert_index_consistent();
    let total: u64 = store
        .quiescent_snapshot()
        .iter()
        .map(|(_, v)| v.as_u64())
        .sum();
    assert_eq!(total, keys * INITIAL);
}

/// One writer short-`put`s the same increasing sequence number to key `a`
/// and then to key `b`, round after round.  Both puts overwrite a present
/// key, so under `ApiMode::Short` they are short transactions that never
/// pass through a full commit.  At every instant `seq(a) >= seq(b)`; a scan
/// that read `a` before a round and `b` after it would show the opposite.
/// Filler keys between the two widen that window, and `a` routes to a
/// lower-numbered shard than `b` so a scan reading shard by shard would
/// meet them in the same order as one reading key by key.
fn scans_are_snapshots_against_short_writers<S: Stm + Clone>(stm: S, mode: ApiMode) {
    const KEYS: u64 = 32;
    const ROUNDS: u64 = 40_000;
    const SCANNERS: u64 = 2;
    let store = ShardedKv::new(&stm, 16, 16, mode);
    let a = 0u64;
    let b = (KEYS / 2..KEYS)
        .rev()
        .find(|&k| store.router().route(k) > store.router().route(a))
        .expect("some high key routes above key 0");
    {
        let mut t = store.register();
        for k in 0..KEYS {
            store.put(k, &0u64.to_le_bytes(), &mut t).unwrap();
        }
    }
    run_workers(1 + SCANNERS, 0x5EC5, |tid, _| {
        let mut t = store.register();
        if tid == 0 {
            for seq in 1..=ROUNDS {
                store.put(a, &seq.to_le_bytes(), &mut t).unwrap();
                store.put(b, &seq.to_le_bytes(), &mut t).unwrap();
            }
            return;
        }
        // Scanners run for as long as the writer does: the last round's
        // value in `b` is their signal to stop.
        loop {
            let run = store.scan(0, KEYS as usize, &mut t);
            assert_eq!(run.len(), KEYS as usize, "scan missed keys");
            let seq_of = |key: u64| run[key as usize].1.as_u64();
            assert!(
                seq_of(a) >= seq_of(b),
                "scanner {tid} saw round {} in key {b} but only round {} in key {a}",
                seq_of(b),
                seq_of(a)
            );
            if seq_of(b) == ROUNDS {
                break;
            }
        }
    });
}

/// Transactional reads `op` performs on `t` (exact: nothing else runs).
fn full_reads<T: StmThread>(t: &mut T, op: impl FnOnce(&mut T)) -> u64 {
    let before = t.stats().full_reads;
    op(t);
    t.stats().full_reads - before
}

/// The scan's read set is the contract: one descent per shard index plus
/// the entries it returns — nothing is read and then thrown away, so what
/// more shards add is descents (each over a proportionally shorter list),
/// never entries.  Counted in `Stats::full_reads`, so the bound holds on any
/// machine.
#[test]
fn scan_read_set_is_bounded_by_its_result() {
    const KEYS: u64 = 65_536;
    const STRIDE: u64 = 0x9E37_79B1; // odd: keys spread over the u64 space
    const PROBES: u64 = 64;
    // Per shard: one descent (about two links per level).  Per returned
    // pair: its level-0 link, the item words up to the hit, the value and
    // deadline words.
    let budget = |shards: usize| (shards * 32 + 16 * 10) as u64;
    let [one, _, sixteen] = [1, 2, 16].map(|shards| {
        let stm = ValShort::new();
        let store = ShardedKv::new(&stm, shards, KEYS as usize / shards, ApiMode::Short);
        let mut t = store.register();
        for i in 0..KEYS {
            store.put(i * STRIDE, &i.to_le_bytes(), &mut t).unwrap();
        }
        let mut rng = Xorshift::new(0x00B0_D6E7);
        let mut total = 0;
        for _ in 0..PROBES {
            // A start with at least 16 keys at or after it.
            let start = rng.next() % (KEYS - 16) * STRIDE;
            let scan = full_reads(&mut t, |t| {
                assert_eq!(store.scan(start, 16, t).len(), 16);
            });
            let range = full_reads(&mut t, |t| {
                assert_eq!(store.range(start, start + 16 * STRIDE, t).len(), 16);
            });
            for (what, reads) in [("scan", scan), ("range", range)] {
                assert!(
                    reads <= budget(shards),
                    "16-key {what} from {start} at {shards} shards: {reads} reads"
                );
            }
            total += scan;
        }
        total / PROBES
    });
    // Sixteen times the shards must cost far less than sixteen times the
    // reads (the fan-out-and-merge this replaced read `shards x limit`
    // entries: ~120 / ~235 / ~1 900 reads at 1 / 2 / 16 shards).
    assert!(sixteen < 6 * one, "{one} reads at 1 shard, {sixteen} at 16");
}

/// The index's one descent must not cost the store's transactions more
/// than the four copies it replaced: the read and write sets of a fixed
/// single-threaded script — build 4 096 keys at 16 shards, 1 024 x (put a
/// fresh key between existing ones, delete it), 64 x 16-key scan — stay at
/// or below the totals measured on the parent of PR 20 (EXPERIMENTS.md "One
/// descent, one retry loop").  Exact on any machine: tower heights come
/// from a deterministic per-thread stream and nothing else runs.
#[test]
fn membership_and_scan_read_write_sets_do_not_grow() {
    const KEYS: u64 = 4_096;
    const STRIDE: u64 = 0x9E37_79B1;
    const PARENT_FULL_READS: u64 = 208_332;
    const PARENT_FULL_WRITES: u64 = 20_517;
    let stm = ValShort::new();
    let store = ShardedKv::new(&stm, 16, KEYS as usize / 16, ApiMode::Short);
    let mut t = store.register();
    let before = t.stats();
    for i in 0..KEYS {
        store.put(i * STRIDE, &i.to_le_bytes(), &mut t).unwrap();
    }
    for i in 0..1_024 {
        let fresh = i * 4 * STRIDE + 1;
        assert!(store
            .put(fresh, &i.to_le_bytes(), &mut t)
            .unwrap()
            .is_none());
        assert!(store.del(fresh, &mut t).is_some());
    }
    for i in 0..64 {
        assert_eq!(store.scan(i * 63 * STRIDE, 16, &mut t).len(), 16);
    }
    let after = t.stats();
    let reads = after.full_reads - before.full_reads;
    let writes = after.full_writes - before.full_writes;
    assert!(
        reads <= PARENT_FULL_READS && writes <= PARENT_FULL_WRITES,
        "{reads} full reads (parent {PARENT_FULL_READS}), \
         {writes} full writes (parent {PARENT_FULL_WRITES})"
    );
}

/// The STM calls of one fixed single-threaded script, as `[singles,
/// short_ro_commits, short_rw_commits, full_reads, full_writes]`.  A 1-shard
/// store with two home buckets holds 48 keys, so chains are 3–4 buckets
/// deep: inserts (every third key mortal), a hit on every key at every depth
/// and 16 misses, overwrites, deletes and re-inserts into the freed slots, a
/// lazy expiry and one full sweep over the expired keys, one scan.  Then the
/// same shapes on a bare `StmHashMap`, whose `put` is the one chain walk the
/// store does not call.
fn bucket_walk_calls<S: Stm + Clone>(stm: S, mode: ApiMode) -> [u64; 5] {
    let now_ms = Arc::new(AtomicU64::new(1_000));
    let config = CacheConfig {
        clock: Clock::manual(&now_ms),
        ..CacheConfig::default()
    };
    let store = ShardedKv::with_config(&stm, 1, 8, mode, config);
    let mut t = store.register();
    let before = t.stats();
    for k in 0..48 {
        let ttl = (k % 3 == 0).then_some(100);
        let put = store.put_with_ttl(k, &payload(k, 0), ttl, &mut t);
        assert_eq!(put.unwrap(), None, "insert {k}");
    }
    assert!(store.stats().max_probe() >= 3, "{}", store.stats());
    for k in 0..48 {
        assert_eq!(store.get(k, &mut t), Some(Value::from(payload(k, 0))));
    }
    for k in 1_000..1_016 {
        assert_eq!(store.get(k, &mut t), None, "miss {k}");
    }
    for k in (0..48).step_by(2) {
        assert!(store.put(k, &payload(k, 1), &mut t).unwrap().is_some());
    }
    for k in (1..48).step_by(4) {
        assert!(store.del(k, &mut t).is_some(), "del {k}");
    }
    for k in 100..106 {
        assert_eq!(store.put(k, &payload(k, 2), &mut t).unwrap(), None);
    }
    // ORDERING: one thread writes and reads the manual clock.
    now_ms.store(2_000, Ordering::Relaxed);
    assert_eq!(store.get(3, &mut t), None, "lazy expiry");
    assert_eq!(store.sweep_step(store.bucket_count(), &mut t).expired, 3);
    assert_eq!(store.scan(0, 100, &mut t).len(), 38);

    let map = StmHashMap::new(&stm, 8, mode);
    for k in 0..40 {
        assert_eq!(map.put(k, &payload(k, 0), &mut t).unwrap(), None);
    }
    for k in 0..40 {
        assert!(map.put(k, &payload(k, 1), &mut t).unwrap().is_some());
        assert_eq!(map.get(k, &mut t), Some(Value::from(payload(k, 1))));
    }
    for k in 1_000..1_008 {
        assert_eq!(map.get(k, &mut t), None, "map miss {k}");
    }
    for k in (0..40).step_by(3) {
        assert!(map.del(k, &mut t).is_some(), "map del {k}");
    }
    for k in 200..204 {
        assert_eq!(map.put(k, &payload(k, 2), &mut t).unwrap(), None);
    }
    let after = t.stats();
    [
        after.singles - before.singles,
        after.short_ro_commits - before.short_ro_commits,
        after.short_rw_commits - before.short_rw_commits,
        after.full_reads - before.full_reads,
        after.full_writes - before.full_writes,
    ]
}

/// Both maps' bucket chains are walked by one function: it must make
/// exactly the STM calls the per-operation walks it replaced made — the
/// same reads in the same order, so equal totals, not merely no more.
/// The expected totals were measured on the per-operation walks
/// (EXPERIMENTS.md "One bucket chain"); exact on any machine, since one
/// thread runs a fixed script and tower heights come from its own stream.
#[test]
fn bucket_walks_make_the_recorded_stm_calls() {
    for (calls, expect) in [
        (
            bucket_walk_calls(ValShort::new(), ApiMode::Short),
            [3_956, 89, 94, 3_177, 289],
        ),
        (
            bucket_walk_calls(TvarShortG::new(), ApiMode::Short),
            [3_956, 89, 94, 3_248, 271],
        ),
        (
            bucket_walk_calls(OrecFullG::new(), ApiMode::Full),
            [107, 0, 0, 7_478, 465],
        ),
    ] {
        assert_eq!(calls, expect);
    }
}

/// Single-threaded random workload including scans and ranges over
/// variable-size payloads, replayed operation by operation against a
/// `BTreeMap` oracle — at 1, 2 and 16 shards, with `u64::MAX` in the key
/// space, starts above every key and limits beyond the population.
fn sequential_scan_oracle<S: Stm + Clone>(stm: S, mode: ApiMode) {
    const SPACE: u64 = 300;
    for shards in [1, 2, 16] {
        let store = ShardedKv::new(&stm, shards, 32, mode);
        let mut t = store.register();
        let mut oracle: BTreeMap<u64, Value> = BTreeMap::new();
        let mut rng = Xorshift::new(0x0AC1_E5EE_D001_u64);
        for _ in 0..4_000 {
            // One draw in `SPACE + 1` is the top of the key space; scans
            // and ranges also start just above every small key.
            let k = match rng.next() % (SPACE + 2) {
                SPACE => u64::MAX,
                k => k,
            };
            let v = rng.next() >> 2;
            match rng.next() % 6 {
                0 | 1 if k != SPACE + 1 => {
                    let bytes = payload(k, v);
                    assert_eq!(
                        store.put(k, &bytes, &mut t).unwrap(),
                        oracle.insert(k, Value::from(bytes)),
                        "put {k}"
                    );
                }
                2 => assert_eq!(store.del(k, &mut t), oracle.remove(&k), "del {k}"),
                3 => assert_eq!(store.get(k, &mut t), oracle.get(&k).cloned(), "get {k}"),
                4 => {
                    let limit = match rng.next() % 20 {
                        16 => SPACE as usize + 2,
                        17.. => usize::MAX,
                        small => small as usize,
                    };
                    let expect: Vec<(u64, Value)> = oracle
                        .range(k..)
                        .take(limit)
                        .map(|(&k, v)| (k, v.clone()))
                        .collect();
                    assert_eq!(store.scan(k, limit, &mut t), expect, "scan {k} x{limit}");
                }
                _ => {
                    let hi = k.saturating_add(rng.next() % 64);
                    let expect: Vec<(u64, Value)> =
                        oracle.range(k..hi).map(|(&k, v)| (k, v.clone())).collect();
                    assert_eq!(store.range(k, hi, &mut t), expect, "range {k}..{hi}");
                }
            }
        }
        assert_eq!(
            store.quiescent_snapshot(),
            oracle.into_iter().collect::<Vec<_>>()
        );
        store.assert_index_consistent();
    }
}

#[test]
fn scans_never_observe_torn_transfers_val_short() {
    scans_never_observe_torn_transfers(ValShort::new(), ApiMode::Short, 24, 32);
}

#[test]
fn scans_never_observe_torn_transfers_tvar_short() {
    scans_never_observe_torn_transfers(TvarShortG::new(), ApiMode::Short, 24, 32);
}

#[test]
fn scans_never_observe_torn_transfers_orec_full() {
    scans_never_observe_torn_transfers(OrecFullG::new(), ApiMode::Full, 24, 32);
}

// High-load-factor ports: 96 keys over one home bucket per shard (28 slots
// total, ~3.4x occupancy) drive every chain several overflow buckets deep,
// so the same torn-transfer hunt runs where probes cross bucket lines and
// inserts use the full-transaction fallback.

#[test]
fn scans_never_observe_torn_transfers_val_short_high_load() {
    scans_never_observe_torn_transfers(ValShort::new(), ApiMode::Short, 96, 1);
}

#[test]
fn scans_never_observe_torn_transfers_orec_full_high_load() {
    scans_never_observe_torn_transfers(OrecFullG::new(), ApiMode::Full, 96, 1);
}

#[test]
fn scans_are_snapshots_against_short_writers_val_short() {
    scans_are_snapshots_against_short_writers(ValShort::new(), ApiMode::Short);
}

#[test]
fn scans_are_snapshots_against_short_writers_tvar_short() {
    scans_are_snapshots_against_short_writers(TvarShortG::new(), ApiMode::Short);
}

#[test]
fn scans_are_snapshots_against_short_writers_orec_full() {
    scans_are_snapshots_against_short_writers(OrecFullG::new(), ApiMode::Full);
}

#[test]
fn sequential_scan_oracle_val_short() {
    sequential_scan_oracle(ValShort::new(), ApiMode::Short);
}

#[test]
fn sequential_scan_oracle_tvar_short() {
    sequential_scan_oracle(TvarShortG::new(), ApiMode::Short);
}

#[test]
fn sequential_scan_oracle_orec_full() {
    sequential_scan_oracle(OrecFullG::new(), ApiMode::Full);
}

#[test]
fn disjoint_replay_val_short() {
    disjoint_replay(ValShort::new(), ApiMode::Short);
}

#[test]
fn disjoint_replay_tvar_short() {
    disjoint_replay(TvarShortG::new(), ApiMode::Short);
}

#[test]
fn disjoint_replay_orec_full() {
    disjoint_replay(OrecFullG::new(), ApiMode::Full);
}

#[test]
fn transfers_conserve_total_val_short() {
    transfers_conserve_total(ValShort::new(), ApiMode::Short);
}

#[test]
fn transfers_conserve_total_orec_full() {
    transfers_conserve_total(OrecFullG::new(), ApiMode::Full);
}

#[test]
fn observers_never_see_partial_transfers_val_short() {
    observers_never_see_partial_transfers(ValShort::new(), ApiMode::Short);
}

#[test]
fn observers_never_see_partial_transfers_tvar_short() {
    observers_never_see_partial_transfers(TvarShortG::new(), ApiMode::Short);
}

#[test]
fn observers_never_see_partial_transfers_orec_full() {
    observers_never_see_partial_transfers(OrecFullG::new(), ApiMode::Full);
}
