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
//! * **Entries follow re-inserted keys** — churners delete and re-insert
//!   keys (as `del` + `put`, and as one atomic batch group) with
//!   generation-stamped, self-certifying payloads while scanners read every
//!   key: each returned value must certify for its own key, and a key's
//!   generation must never fall across one scanner's successive scans.
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
//! * **Gapped-key scan oracle** — the same replay over keys in dense runs
//!   separated by gaps from one routing block to 2^40 keys, scanned from
//!   inside runs and gaps, from block edges and from the top of the key
//!   space, where which shards a scan seeks depends on where the range
//!   crosses blocks.
//! * **Read-set budget** — the number of transactional reads a scan
//!   performs (`Stats::full_reads`) is bounded by what it returns plus one
//!   landing per shard, on sparse and on dense keys; the read and write
//!   sets of a fixed membership-and-scan script stay at or below recorded
//!   totals; a fixed script over deep bucket chains makes exactly its
//!   recorded STM calls; and a seek-count pin holds the exact
//!   `Stats::singles` and `Stats::full_reads` of 16-key scans on dense
//!   and on sparse keys.
//!
//! All concurrency runs through the deterministic scaffolding of
//! [`common`]: barrier-started scoped workers with canonically seeded
//! per-thread streams, so the replay oracles reconstruct exactly what the
//! workers did.

mod common;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::{assert_spans_every_shard, run_workers, spread_key, thread_rng, Xorshift};
use spectm::variants::{OrecFullG, TvarShortG, ValShort};
use spectm::{StatsSnapshot, Stm, StmThread};
use spectm_ds::ApiMode;
use spectm_kv::{BatchOp, CacheConfig, Clock, ShardRouter, ShardedKv, StmHashMap, Value};

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
    let all_keys: Vec<u64> = (0..KEYS).map(spread_key).collect();
    assert_spans_every_shard(store.router(), all_keys.iter().copied());
    {
        let mut t = store.register();
        for &k in &all_keys {
            store.put(k, &INITIAL.to_le_bytes(), &mut t).unwrap();
        }
    }
    run_workers(WRITERS + OBSERVERS, 0xFEED, |tid, rng| {
        let mut t = store.register();
        if tid < WRITERS {
            for _ in 0..TRANSFERS {
                let from = all_keys[(rng.next() % KEYS) as usize];
                let to = all_keys[(rng.next() % KEYS) as usize];
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
    let all_keys: Vec<u64> = (0..KEYS).map(spread_key).collect();
    assert_spans_every_shard(store.router(), all_keys.iter().copied());
    {
        let mut t = store.register();
        for &k in &all_keys {
            store.put(k, &INITIAL.to_le_bytes(), &mut t).unwrap();
        }
    }
    run_workers(WRITERS + OBSERVERS, 0xBEEF, |tid, rng| {
        let mut t = store.register();
        if tid < WRITERS {
            for _ in 0..1_500 {
                let from = all_keys[(rng.next() % KEYS) as usize];
                let to = all_keys[(rng.next() % KEYS) as usize];
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
/// inserts take the full-transaction fallback.  The keys are
/// [`spread_key`]s, which span every shard (and load the 4 shards within
/// a few keys of evenly), so most transfers cross shards.
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
    let all_keys: Vec<u64> = (0..keys).map(spread_key).collect();
    assert_spans_every_shard(store.router(), all_keys.iter().copied());
    {
        let mut t = store.register();
        for &k in &all_keys {
            store.put(k, &INITIAL.to_le_bytes(), &mut t).unwrap();
        }
    }
    run_workers(WRITERS + OBSERVERS, 0x5CA4, |tid, rng| {
        let mut t = store.register();
        if tid < WRITERS {
            for _ in 0..1_500 {
                let from = all_keys[(rng.next() % keys) as usize];
                let to = all_keys[(rng.next() % keys) as usize];
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
/// meet them in the same order as one reading key by key.  The keys are
/// [`spread_key`]s and span all 16 shards, so a scan's merge takes every
/// index in turn.
fn scans_are_snapshots_against_short_writers<S: Stm + Clone>(stm: S, mode: ApiMode) {
    const KEYS: u64 = 32;
    const ROUNDS: u64 = 40_000;
    const SCANNERS: u64 = 2;
    let store = ShardedKv::new(&stm, 16, 16, mode);
    let all_keys: Vec<u64> = (0..KEYS).map(spread_key).collect();
    assert_spans_every_shard(store.router(), all_keys.iter().copied());
    let route = |i: usize| store.router().route(all_keys[i]);
    // `a` and `b` as positions in `all_keys`, which is also their place in
    // a whole-store scan.
    let a = 0;
    let b = (KEYS as usize / 2..KEYS as usize)
        .rev()
        .find(|&i| route(i) > route(a))
        .expect("some high key routes above the first");
    let (key_a, key_b) = (all_keys[a], all_keys[b]);
    {
        let mut t = store.register();
        for &k in &all_keys {
            store.put(k, &0u64.to_le_bytes(), &mut t).unwrap();
        }
    }
    run_workers(1 + SCANNERS, 0x5EC5, |tid, _| {
        let mut t = store.register();
        if tid == 0 {
            for seq in 1..=ROUNDS {
                store.put(key_a, &seq.to_le_bytes(), &mut t).unwrap();
                store.put(key_b, &seq.to_le_bytes(), &mut t).unwrap();
            }
            return;
        }
        // Scanners run for as long as the writer does: the last round's
        // value in `b` is their signal to stop.
        loop {
            let run = store.scan(0, KEYS as usize, &mut t);
            assert_eq!(run.len(), KEYS as usize, "scan missed keys");
            let seq_of = |i: usize| run[i].1.as_u64();
            assert!(
                seq_of(a) >= seq_of(b),
                "scanner {tid} saw round {} in key {key_b} but only round {} in key {key_a}",
                seq_of(b),
                seq_of(a)
            );
            if seq_of(b) == ROUNDS {
                break;
            }
        }
    });
}

/// Generation `gen` of `key`'s payload, self-certifying: the key, the
/// generation and a check word of both, then 0 to 63 filler bytes derived
/// from all three.  Every payload is at least 24 bytes, so every value is
/// an out-of-line cell.
fn stamped(key: u64, gen: u64) -> Vec<u8> {
    let check = (key ^ gen.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut bytes = Vec::with_capacity(88);
    bytes.extend(key.to_le_bytes());
    bytes.extend(gen.to_le_bytes());
    bytes.extend(check.to_le_bytes());
    bytes.extend((0..gen % 64).map(|i| (check >> (i % 8 * 8)) as u8 ^ i as u8));
    bytes
}

/// The generation `value` certifies for `key`; panics unless `value` is
/// exactly one of `key`'s [`stamped`] payloads.
fn certified_generation(key: u64, value: &Value) -> u64 {
    let bytes = value.as_slice();
    assert!(bytes.len() >= 24, "key {key}: a {}-byte value", bytes.len());
    let gen = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    assert!(
        bytes == stamped(key, gen),
        "key {key}: the value is not its own (it names key {}, generation {gen})",
        u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
    );
    gen
}

/// Churners delete and re-insert their keys, each time with the next
/// generation of a self-certifying payload, while scanners read the whole
/// key set.  A re-insert links a fresh map node and a fresh index tower, so
/// a scan that reached an entry through a stale or foreign node, or copied
/// a cell out after its word was displaced, would return bytes that do not
/// certify for their key or a generation older than one it already saw.
/// Half the churns are a `del` and a `put` (two membership transactions);
/// the other half are one batch whose shard group `[get k, del k, put k]`
/// runs as one full transaction (the get makes the group atomic), which
/// unlinks the old node and tower and links the new ones in one commit.
/// Each key has one churner, so its generations only rise; a scanner's
/// successive scans are ordered in time, so it must never see a key's
/// generation fall.
fn scan_entries_follow_reinserted_keys<S: Stm + Clone>(stm: S, mode: ApiMode) {
    const KEYS: u64 = 32;
    const CHURNERS: u64 = 2;
    const SCANNERS: u64 = 2;
    const CHURNS: u64 = 20_000;
    let store = ShardedKv::new(&stm, 16, 16, mode);
    let all_keys: Vec<u64> = (0..KEYS).map(spread_key).collect();
    assert_spans_every_shard(store.router(), all_keys.iter().copied());
    {
        let mut t = store.register();
        for &k in &all_keys {
            store.put(k, &stamped(k, 0), &mut t).unwrap();
        }
    }
    /// Counts a churner out when it returns or panics, so a failed
    /// churner stops the scanners instead of leaving them waiting.
    struct Done<'a>(&'a AtomicU64);
    impl Drop for Done<'_> {
        fn drop(&mut self) {
            // ORDERING: a stop signal only; the scanners' checks do not
            // depend on what it orders.
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
    let finished = AtomicU64::new(0);
    run_workers(CHURNERS + SCANNERS, 0x2E1B, |tid, rng| {
        let mut t = store.register();
        if tid < CHURNERS {
            let _done = Done(&finished);
            // This churner's keys are the positions `tid`, `tid + CHURNERS`, ….
            let mut gens = vec![0u64; KEYS as usize];
            for _ in 0..CHURNS {
                let i = (rng.next() % (KEYS / CHURNERS) * CHURNERS + tid) as usize;
                let key = all_keys[i];
                gens[i] += 1;
                let payload = stamped(key, gens[i]);
                if rng.next() % 2 == 0 {
                    assert!(store.del(key, &mut t).is_some(), "del {key}");
                    assert_eq!(store.put(key, &payload, &mut t).unwrap(), None);
                } else {
                    let out = store
                        .execute_batch(
                            &[
                                BatchOp::Get(key),
                                BatchOp::Del(key),
                                BatchOp::put(key, &payload),
                            ],
                            &mut t,
                        )
                        .unwrap();
                    assert_eq!(out[0], out[1], "batch get and del of {key}");
                    assert_eq!(out[2], None, "the batch's put of {key} re-inserts");
                }
            }
            return;
        }
        let mut seen = vec![0u64; KEYS as usize];
        let mut scans = 0u64;
        // ORDERING: as above.
        while finished.load(Ordering::Relaxed) < CHURNERS || scans < 100 {
            scans += 1;
            let run = store.scan(0, usize::MAX, &mut t);
            assert!(run.windows(2).all(|w| w[0].0 < w[1].0), "scan out of order");
            for (key, value) in &run {
                let i = all_keys
                    .binary_search(key)
                    .unwrap_or_else(|_| panic!("scan returned key {key}, never stored"));
                let gen = certified_generation(*key, value);
                assert!(
                    gen >= seen[i],
                    "scanner {tid}, scan {scans}: key {key} went back from generation {} to {gen}",
                    seen[i]
                );
                seen[i] = gen;
            }
        }
    });
    store.assert_index_consistent();
    let mut t = store.register();
    let run = store.scan(0, usize::MAX, &mut t);
    assert_eq!(
        run.len(),
        KEYS as usize,
        "every churn ends with the key present"
    );
    for (key, value) in &run {
        certified_generation(*key, value);
    }
}

/// Membership transactions whose index neighbours are other threads'
/// keys.  Three workers own the interleaved keys of one routing block
/// (`tid`, `tid + 3`, … from its first key), so each key's predecessor
/// and successor in the shard's index usually belong to another worker,
/// whose inserts and removals change the very links a window names.  Each
/// worker toggles keys (a `put` of a fresh key, or a `del`), re-inserts
/// keys with `[get k, del k, put k]` batch groups (one atomic
/// transaction), and scans the block: a run must be sorted, unique and
/// inside the block, and its keys of the worker's own must be the
/// worker's model, which only that worker changes.  At the end the store
/// holds the union of the models, and map and index agree.
fn neighbour_churn<S: Stm + Clone>(stm: S, mode: ApiMode) {
    const WORKERS: u64 = 3;
    const OPS: usize = 4_000;
    const FIRST: u64 = 9 << ShardRouter::BLOCK_BITS;
    const END: u64 = FIRST + ShardRouter::BLOCK_KEYS;
    let store = ShardedKv::new(&stm, 4, 64, mode);
    let models = std::sync::Mutex::new(Vec::new());
    run_workers(WORKERS, 0x4E16, |tid, rng| {
        let mut t = store.register();
        let keys: Vec<u64> = (FIRST + tid..END).step_by(WORKERS as usize).collect();
        let mut model: BTreeMap<u64, Value> = BTreeMap::new();
        for op in 0..OPS {
            let k = keys[(rng.next() % keys.len() as u64) as usize];
            let bytes = payload(k, rng.next());
            match rng.next() % 8 {
                0..=4 => match model.remove(&k) {
                    Some(old) => assert_eq!(store.del(k, &mut t), Some(old), "del {k}"),
                    None => {
                        assert_eq!(store.put(k, &bytes, &mut t).unwrap(), None, "put {k}");
                        model.insert(k, Value::from(bytes));
                    }
                },
                5 | 6 => {
                    let group = [BatchOp::Get(k), BatchOp::Del(k), BatchOp::put(k, &bytes)];
                    let old = model.insert(k, Value::from(bytes));
                    let out = store.execute_batch(&group, &mut t).unwrap();
                    assert_eq!(out, [old.clone(), old, None], "group on {k}");
                }
                _ => {
                    let run = store.range(FIRST, END, &mut t);
                    assert!(
                        run.windows(2).all(|w| w[0].0 < w[1].0),
                        "op {op}: run not sorted and unique"
                    );
                    assert!(
                        run.iter().all(|(k, _)| (FIRST..END).contains(k)),
                        "op {op}: run left the block"
                    );
                    let own: Vec<(u64, Value)> = run
                        .into_iter()
                        .filter(|(k, _)| (k - FIRST) % WORKERS == tid)
                        .collect();
                    let expect: Vec<(u64, Value)> =
                        model.iter().map(|(k, v)| (*k, v.clone())).collect();
                    assert_eq!(own, expect, "op {op}: worker {tid}'s keys");
                }
            }
        }
        models.lock().unwrap().push(model);
    });
    let union: BTreeMap<u64, Value> = models.into_inner().unwrap().into_iter().flatten().collect();
    assert_eq!(
        store.quiescent_snapshot(),
        union.into_iter().collect::<Vec<_>>()
    );
    store.assert_index_consistent();
}

/// Transactional reads `op` performs on `t` (exact: nothing else runs).
fn full_reads<T: StmThread>(t: &mut T, op: impl FnOnce(&mut T)) -> u64 {
    let before = t.stats().full_reads;
    op(t);
    t.stats().full_reads - before
}

/// The scan's read set is the contract: one landing per shard index plus
/// the entries it returns.  The descents to the landings are single-location
/// reads, outside the read set, so what more shards add is a few level-0
/// links each, never entries.  Counted in `Stats::full_reads`, so the bound
/// holds on any machine.  Two legs: sparse keys, one per routing block, so
/// a scan seeks every shard's index; and dense keys, so a scan seeks only
/// the indexes its range reaches.
#[test]
fn scan_read_set_is_bounded_by_its_result() {
    const KEYS: u64 = 65_536;
    const STRIDE: u64 = 0x9E37_79B1; // odd: keys spread over the u64 space
    const PROBES: u64 = 64;
    // Per shard: one landing (the predecessor's level-0 link, and rarely a
    // step past a tower inserted since the descent).  Per returned pair:
    // its level-0 link, its tower's value word (which names the map node),
    // the node's value and deadline words.
    let budget = |shards: usize| (shards * 4 + 16 * 4) as u64;
    for stride in [STRIDE, 1] {
        let [one, _, sixteen] = [1, 2, 16].map(|shards| {
            let stm = ValShort::new();
            let store = ShardedKv::new(&stm, shards, KEYS as usize / shards, ApiMode::Short);
            let mut t = store.register();
            for i in 0..KEYS {
                store.put(i * stride, &i.to_le_bytes(), &mut t).unwrap();
            }
            let mut rng = Xorshift::new(0x00B0_D6E7);
            let mut total = 0;
            for _ in 0..PROBES {
                // A start with at least 16 keys at or after it.
                let start = rng.next() % (KEYS - 16) * stride;
                let scan = full_reads(&mut t, |t| {
                    assert_eq!(store.scan(start, 16, t).len(), 16);
                });
                let range = full_reads(&mut t, |t| {
                    assert_eq!(store.range(start, start + 16 * stride, t).len(), 16);
                });
                for (what, reads) in [("scan", scan), ("range", range)] {
                    assert!(
                        reads <= budget(shards),
                        "16-key {what} from {start} (stride {stride}) at {shards} shards: \
                         {reads} reads"
                    );
                }
                total += scan;
            }
            total / PROBES
        });
        // Sixteen times the shards must cost far less than sixteen times
        // the reads (the fan-out-and-merge this replaced read `shards x
        // limit` entries: ~120 / ~235 / ~1 900 reads at 1 / 2 / 16 shards
        // on sparse keys; logged descents read ~117 / ~147 / ~500;
        // landings ~86 / ~89 / ~119).
        assert!(
            sixteen < 2 * one,
            "stride {stride}: {one} reads at 1 shard, {sixteen} at 16"
        );
    }
}

/// `Stats::singles` and `Stats::full_reads` summed over `PROBES` 16-key
/// scans from fixed starts, on a 16-shard `ValShort` store of `KEYS` keys
/// `i * stride`.  Exact on any machine: one thread runs a fixed script and
/// tower heights come from its own stream.
fn scan_seek_reads(stride: u64) -> (u64, u64) {
    const KEYS: u64 = 65_536;
    const PROBES: u64 = 256;
    let stm = ValShort::new();
    let store = ShardedKv::new(&stm, 16, KEYS as usize / 16, ApiMode::Short);
    let mut t = store.register();
    for i in 0..KEYS {
        store.put(i * stride, &i.to_le_bytes(), &mut t).unwrap();
    }
    let mut rng = Xorshift::new(0x5EE6_C0DE);
    let before = t.stats();
    for _ in 0..PROBES {
        let start = rng.next() % (KEYS - 16) * stride;
        assert_eq!(store.scan(start, 16, &mut t).len(), 16);
    }
    let after = t.stats();
    (
        after.singles - before.singles,
        after.full_reads - before.full_reads,
    )
}

/// The seek-count pin: `(singles, full_reads)` over 256 16-key scans at
/// 16 shards, measured on the same script at each change to what a scan
/// reads:
///
/// | keys | every index sought | floored merge | entries read through their towers | one block per entry |
/// | --- | --- | --- | --- | --- |
/// | dense (`0..65 536`) | 104 411 / 30 863 | 17 569 / 26 258 | 17 569 / 17 522 | 17 569 / 13 426 |
/// | sparse (`i * 0x9E37_79B1`) | 101 544 / 30 897 | 100 880 / 32 797 | 100 880 / 24 320 | 100 880 / 20 224 |
///
/// The floored merge seeks only the indexes a scan's keys can reach: a
/// dense scan seeks its start's index, and at a block edge the indexes of
/// the blocks up to that index's next one, at most a quarter of the
/// single reads of seeking every index.  A sparse scan's keys lie in 16
/// different blocks, so it still seeks every index, each once.  Its
/// logged reads rose 6 % then, from longer bucket walks per entry (a shard
/// holds whole routing blocks, and these keys fill its home buckets less
/// evenly: 170 overflow buckets instead of 0; EXPERIMENTS.md "Scans descend
/// only the shards their range can reach").  Reading each entry through
/// the node its tower names left the seeks alone (equal `singles`) and
/// replaced each entry's bucket walk by one read of the tower's value word:
/// 34.1 and 33.1 fewer logged reads per scan, about two per entry
/// (EXPERIMENTS.md "Scans read each entry through its index tower").  Once
/// the tower became the entry, that read of the tower's value word (the
/// node's address) went: 4 096 fewer logged reads on both key sets, one per
/// scanned entry, with the seeks again untouched (EXPERIMENTS.md "One entry
/// per key").  The totals are pinned exactly, so any change to what a scan
/// reads shows here.
#[test]
fn scan_seek_counts_are_pinned() {
    const PARENT_DENSE: (u64, u64) = (17_569, 17_522);
    const PARENT_SPARSE: (u64, u64) = (100_880, 24_320);
    let dense = scan_seek_reads(1);
    let sparse = scan_seek_reads(0x9E37_79B1);
    assert_eq!(dense.0, PARENT_DENSE.0, "dense singles {dense:?}");
    assert!(dense.1 <= PARENT_DENSE.1, "dense full reads {dense:?}");
    assert_eq!(sparse.0, PARENT_SPARSE.0, "sparse singles {sparse:?}");
    assert!(sparse.1 <= PARENT_SPARSE.1, "sparse full reads {sparse:?}");
    assert_eq!((dense, sparse), ((17_569, 13_426), (100_880, 20_224)));
}

/// The index's one descent must not cost the store's transactions more
/// than the four copies it replaced: the read and write sets of a fixed
/// single-threaded script — build 4 096 keys at 16 shards, 1 024 x (put a
/// fresh key between existing ones, delete it), 64 x 16-key scan — stay at
/// or below recorded totals.  The write ceiling is the parent of PR 20's
/// (EXPERIMENTS.md "One descent, one retry loop").  The read ceiling was
/// that parent's 208 332 too, against 163 206 measured; when the
/// membership transactions began to descend with single reads and log
/// only the window at the tower's height, the script's logged reads fell
/// to 68 601, and the ceiling was tightened to that (EXPERIMENTS.md
/// "Membership transactions search the way the paper searches").  Exact
/// on any machine: tower heights come from a deterministic per-thread
/// stream and nothing else runs.
#[test]
fn membership_and_scan_read_write_sets_do_not_grow() {
    const KEYS: u64 = 4_096;
    const STRIDE: u64 = 0x9E37_79B1;
    const PARENT_FULL_READS: u64 = 68_601;
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
/// (EXPERIMENTS.md "One bucket chain"), then moved once more when the
/// Short-mode scan's seek reads became single-location reads: its seek
/// reads left `full_reads` for `singles`, less the one landing read
/// (EXPERIMENTS.md "Scans seek the way the paper searches").  The Full-mode
/// row did not move.  Then the scan stopped walking buckets: it reads each
/// entry through the node its index tower names, one logged read of the
/// tower's value word in place of the item words up to the hit, and every
/// row's `full_reads` fell by 451 (3 171, 3 240 and 7 478 before;
/// EXPERIMENTS.md "Scans read each entry through its index tower").  Then
/// the tower became the entry: the scan no longer reads the tower's word
/// naming a node, and every row's `full_reads` fell by 38, one per scanned
/// entry (2 720, 2 789 and 7 027 before; EXPERIMENTS.md "One entry per
/// key"); no other column moved.  Then the sweep took each home bucket's
/// frequency byte from the stat word its walk read instead of reading that
/// word again: `singles` fell by 2 in every row, one per home bucket of the
/// script's one sweep (3 963, 3 965 and 107 before; EXPERIMENTS.md "The
/// reclaimer pays per entry"); no other column moved.  Then a lookup began
/// to judge the deadline before it reads the value word: the Full-mode
/// row's one lazy expiry reads no value word, and its `full_reads` fell by
/// one (6 989 before; EXPERIMENTS.md "Eviction by key"); the Short-mode
/// rows, whose lookup reads both words in one short transaction, did not
/// move.  Then the membership transactions began to descend the index
/// with single reads (EXPERIMENTS.md "Membership transactions search the
/// way the paper searches").  The script's 54 inserts and 16 removals (12
/// `del`s, one lazy expiry, three sweep expiries) moved their descents'
/// reads of the level hint and the links they cross from `full_reads` to
/// `singles`: +708 and +787 `singles` (3 961 and 3 963 before).  They log
/// instead each tower's predecessor links at its height, 146 and 138 reads
/// (a removal logged its own links before too), so `full_reads` fell by
/// 562 and 649 (2 682 and 2 751 before).  The writes
/// are the same links and marks.  The Full-mode row, whose transactions
/// still log their descents, did not move.  Exact on any machine, since
/// one thread runs a fixed script and tower heights come from its own
/// stream.
#[test]
fn bucket_walks_make_the_recorded_stm_calls() {
    for (calls, expect) in [
        (
            bucket_walk_calls(ValShort::new(), ApiMode::Short),
            [4_669, 89, 94, 2_120, 289],
        ),
        (
            bucket_walk_calls(TvarShortG::new(), ApiMode::Short),
            [4_750, 89, 94, 2_102, 271],
        ),
        (
            bucket_walk_calls(OrecFullG::new(), ApiMode::Full),
            [105, 0, 0, 6_988, 465],
        ),
    ] {
        assert_eq!(calls, expect);
    }
}

/// The STM calls of one whole `sweep_step`, made by a thread registered
/// for it alone, over one of two fixed stores on a manual clock.  Every
/// third key has expired and key `keys[1]` has been hit, so the sweep
/// halves its CLOCK byte (a relaxed store, not an STM call):
///
/// * `chained = false`: 2 shards of 64 home buckets (two sweep chunks of
///   64), 40 spread keys, every bucket depth 0, and a budget nothing
///   reaches.  300 hits saturate the byte; the expiry pass removes 14
///   entries and halves that byte once.
/// * `chained = true`: 1 shard of 1 home bucket (the 1-byte budget caps
///   the 8-key hint's 2) holding 48 keys in a chain 7 buckets deep, and 8
///   hits.  After the expiry pass (16 removals) the eviction pass's first
///   visit spares `keys[1]` (byte 8 → 4) and evicts the other 31; three
///   more visits halve its byte 4 → 0 and the fifth evicts it.
fn sweep_calls<S: Stm + Clone>(stm: S, mode: ApiMode, chained: bool) -> StatsSnapshot {
    let now_ms = Arc::new(AtomicU64::new(1_000));
    let (shards, capacity, keys, hits, budget): (usize, usize, Vec<u64>, usize, u64) = if chained {
        (1, 8, (0..48).collect(), 8, 1)
    } else {
        (2, 320, (0..40).map(spread_key).collect(), 300, 1 << 30)
    };
    let config = CacheConfig {
        max_bytes: Some(budget),
        clock: Clock::manual(&now_ms),
        ..CacheConfig::default()
    };
    let store = ShardedKv::with_config(&stm, shards, capacity, mode, config);
    let mut t = store.register();
    for (i, &k) in keys.iter().enumerate() {
        let ttl = (i % 3 == 0).then_some(100);
        let put = store.put_with_ttl(k, &payload(k, 0), ttl, &mut t);
        assert_eq!(put.unwrap(), None, "insert {k}");
    }
    for _ in 0..hits {
        assert!(store.get(keys[1], &mut t).is_some());
    }
    if chained {
        assert!(store.stats().max_probe() >= 3, "{}", store.stats());
    } else {
        assert_eq!(store.stats().max_probe(), 1, "{}", store.stats());
        assert_spans_every_shard(store.router(), keys.iter().copied());
    }
    // ORDERING: one thread writes and reads the manual clock.
    now_ms.store(2_000, Ordering::Relaxed);
    let mut sweeper = store.register();
    let outcome = store.sweep_step(store.bucket_count(), &mut sweeper);
    let evicted = if chained { 32 } else { 0 };
    assert_eq!(
        (outcome.scanned, outcome.expired, outcome.evicted),
        (store.bucket_count(), keys.len().div_ceil(3) as u64, evicted)
    );
    sweeper.stats()
}

/// One sweep makes exactly the STM calls recorded here: equal snapshots,
/// not merely no more.  When the CLOCK byte moved from each home bucket's
/// stat word into each entry's header, three columns moved:
///
/// * `short_rw_starts`/`short_rw_commits` 1 → 0 (depth 0) and 4 → 0
///   (chained) on every row: halving a byte was a one-word short
///   read-write transaction on the stat word and is now a relaxed store.
/// * `singles` 416 → 420 (chained; depth 0 stays 1 064).  A bucket walk
///   is 8 reads (stat word and 7 slots) and every entry the pass reads
///   costs a deadline read.  Parent: expiry 7 × 8 + 48 = 104, then 4
///   spared visits of the whole bucket at 56 (a spared bucket's entries
///   were not read) and one emptying visit at 56 + 32: 312.  Now: expiry
///   104, then one visit at 56 + 32 that evicts 31 keys and spares
///   `keys[1]`, and 4 visits at 56 + 1 over the one key left: 316.
/// * `full_reads` +31 (1 956 / 2 200 / 2 194 → 1 987 / 2 231 / 2 225).
///   The 31 keys evicted first are removed while `keys[1]` is still
///   linked at the front of the index, so each removal's index descent
///   reads one more link, through its tower.
///
/// `full_starts` and `full_writes` did not move: the removals are the
/// parent's, in another order.
///
/// Then each removal began to descend the index with single reads and to
/// log only its window (EXPERIMENTS.md "Membership transactions search
/// the way the paper searches").  On the Short rows the descents' reads
/// moved from `full_reads` to `singles`, and the transaction logs the
/// tower's predecessors at its height instead:
///
/// * depth 0, 14 removals: `singles` 1 064 → 1 198 / 1 188 (+134 / +124
///   descent reads); `full_reads` 199 / 188 → 88 / 86 (−134 + 23 and
///   −124 + 22 predecessor links).
/// * chained, 48 removals: `singles` 420 → 887 / 1 125 (+467 / +705);
///   `full_reads` 1 987 / 2 231 → 1 627 / 1 639 (−467 + 107 and
///   −705 + 113).
///
/// The Full rows, `full_starts` and `full_writes` did not move.
/// Exact on any machine: one thread runs a fixed script and tower heights
/// come from its own stream.
#[test]
fn sweep_makes_the_recorded_stm_calls() {
    let row = |full: u64, reads: u64, writes: u64, rw: u64, singles: u64| StatsSnapshot {
        full_starts: full,
        full_commits: full,
        full_reads: reads,
        full_writes: writes,
        short_rw_starts: rw,
        short_rw_commits: rw,
        singles,
        ..StatsSnapshot::default()
    };
    for (chained, expect) in [
        (
            false,
            [
                row(14, 88, 60, 0, 1_198),
                row(14, 86, 58, 0, 1_188),
                row(14, 222, 54, 0, 1_064),
            ],
        ),
        (
            true,
            [
                row(48, 1_627, 262, 0, 887),
                row(48, 1_639, 274, 0, 1_125),
                row(48, 2_225, 258, 0, 420),
            ],
        ),
    ] {
        let calls = [
            sweep_calls(ValShort::new(), ApiMode::Short, chained),
            sweep_calls(TvarShortG::new(), ApiMode::Short, chained),
            sweep_calls(OrecFullG::new(), ApiMode::Full, chained),
        ];
        assert_eq!(calls, expect, "chained = {chained}");
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

/// Scans over keys in dense runs with gaps between them, against a
/// `BTreeMap`, at 1, 2 and 16 shards.  Runs of 1 to 130 keys are separated
/// by gaps from one routing block to 2^40 keys, with runs at 0 and ending
/// at `u64::MAX`; every third key is deleted halfway through, so the runs
/// get holes.  Each pass scans from inside runs and gaps, from every
/// block edge near a run (keys ≡ 63, 0 and 1 mod 64) and from the top of
/// the key space — where a shard's floor saturates — with limits 0, 1, 16,
/// 100 and `usize::MAX`, and reads ranges of several widths from the same
/// starts.
fn gapped_scan_oracle<S: Stm + Clone>(stm: S, mode: ApiMode) {
    const B: u64 = ShardRouter::BLOCK_KEYS;
    const GAPS: [u64; 8] = [
        B,
        B + 1,
        3 * B - 1,
        1_000,
        17 * B,
        1 << 20,
        1 << 33,
        1 << 40,
    ];
    const RUNS: [u64; 8] = [1, 3, 63, 64, 65, 130, 2, 100];
    let mut keys = Vec::new();
    let mut next = 0u64;
    for (gap, len) in GAPS.iter().zip(RUNS) {
        keys.extend(next..next + len);
        next += len + gap;
    }
    keys.extend(u64::MAX - 70..=u64::MAX);
    let mut starts: Vec<u64> = vec![u64::MAX, u64::MAX - 1, u64::MAX - B, u64::MAX - B - 1];
    for &k in &keys {
        let block = k & !(B - 1);
        starts.extend([k, k.saturating_add(1), k.wrapping_sub(1)]);
        starts.extend([block.wrapping_sub(1), block, block + 1, block + (B - 1)]);
        starts.push(k.saturating_add(B * 5 / 2));
    }
    starts.sort_unstable();
    starts.dedup();
    for shards in [1, 2, 16] {
        let store = ShardedKv::new(&stm, shards, 64, mode);
        let mut t = store.register();
        let mut oracle: BTreeMap<u64, Value> = BTreeMap::new();
        for &k in &keys {
            let bytes = payload(k, k >> 3);
            store.put(k, &bytes, &mut t).unwrap();
            oracle.insert(k, Value::from(bytes));
        }
        for pass in 0..2 {
            for &start in &starts {
                for limit in [0, 1, 16, 100, usize::MAX] {
                    let expect: Vec<(u64, Value)> = oracle
                        .range(start..)
                        .take(limit)
                        .map(|(&k, v)| (k, v.clone()))
                        .collect();
                    let got = store.scan(start, limit, &mut t);
                    assert_eq!(
                        got, expect,
                        "{shards} shards, pass {pass}: scan {start} x{limit}"
                    );
                }
                for width in [1, B, 3 * B, 1 << 41] {
                    let end = start.saturating_add(width);
                    let expect: Vec<(u64, Value)> = oracle
                        .range(start..end)
                        .map(|(&k, v)| (k, v.clone()))
                        .collect();
                    let got = store.range(start, end, &mut t);
                    assert_eq!(
                        got, expect,
                        "{shards} shards, pass {pass}: range {start}..{end}"
                    );
                }
            }
            for &k in keys.iter().step_by(3) {
                assert_eq!(store.del(k, &mut t), oracle.remove(&k), "del {k}");
            }
        }
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
fn neighbour_churn_val_short() {
    neighbour_churn(ValShort::new(), ApiMode::Short);
}

#[test]
fn neighbour_churn_tvar_short() {
    neighbour_churn(TvarShortG::new(), ApiMode::Short);
}

#[test]
fn neighbour_churn_orec_full() {
    neighbour_churn(OrecFullG::new(), ApiMode::Full);
}

#[test]
fn scan_entries_follow_reinserted_keys_val_short() {
    scan_entries_follow_reinserted_keys(ValShort::new(), ApiMode::Short);
}

#[test]
fn scan_entries_follow_reinserted_keys_tvar_short() {
    scan_entries_follow_reinserted_keys(TvarShortG::new(), ApiMode::Short);
}

#[test]
fn scan_entries_follow_reinserted_keys_orec_full() {
    scan_entries_follow_reinserted_keys(OrecFullG::new(), ApiMode::Full);
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
fn gapped_scan_oracle_val_short() {
    gapped_scan_oracle(ValShort::new(), ApiMode::Short);
}

#[test]
fn gapped_scan_oracle_tvar_short() {
    gapped_scan_oracle(TvarShortG::new(), ApiMode::Short);
}

#[test]
fn gapped_scan_oracle_orec_full() {
    gapped_scan_oracle(OrecFullG::new(), ApiMode::Full);
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
