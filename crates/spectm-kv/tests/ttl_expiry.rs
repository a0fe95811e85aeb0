//! TTL observability: an expired entry must never be returned through
//! **any** read surface — `get`, `scan`, `execute_batch`, or the wire
//! codec path — no matter how the clock, the operations and the sweeps
//! interleave.
//!
//! Three layers:
//!
//! * A proptest drives a random schedule of TTL'd puts, deletes, clock
//!   advances and sweep steps on a manually driven clock against a
//!   `BTreeMap` oracle, checking every read surface after every step.
//! * A barrier-started multi-threaded run (the [`common`] scaffolding)
//!   races workers against the background [`Reclaimer`] while a dedicated
//!   thread advances the clock, asserting that a key known to be past its
//!   deadline is never observed and an immortal key never disappears.
//! * A fixed manual-clock case pinning down that a scan's `limit` counts
//!   live pairs, not index entries.
//! * One generated operation sequence replayed through every write/read
//!   surface — plain API, one-op batches, 32-op batches, two-frame
//!   `MultiBatch` dispatches — on four fresh stores, asserting that results
//!   *and cache counters* agree: accounting cannot drift between paths.
//! * The sweep's claimed runs: two threads sweeping half the table each
//!   remove every expired key exactly once; an expired key in an overflow
//!   bucket is found; a hit bumps only its own entry's frequency byte, and
//!   a saturated one is halved once per pass.

mod common;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use common::run_workers;
use proptest::prelude::*;
use spectm::variants::{OrecFullG, TvarShortG, ValShort};
use spectm::{Stm, StmThread};
use spectm_ds::ApiMode;
use spectm_kv::wire;
use spectm_kv::{
    BatchOp, BatchRequest, BatchResponse, CacheConfig, Clock, MultiBatch, Reclaimer, ShardedKv,
    Value,
};

const RANGE: u64 = 24;

/// Deterministic payload for `(key, draw)` sweeping the inline and
/// out-of-line value regimes.
fn payload(key: u64, draw: u64) -> Vec<u8> {
    let len = (draw % 49) as usize;
    (0..len)
        .map(|i| (key as u8).wrapping_mul(167) ^ (draw as u8) ^ (i as u8).wrapping_mul(59))
        .collect()
}

/// Reads the manual clock.
fn clock_now(clock: &AtomicU64) -> u64 {
    // ORDERING: the manual clock is a monotonic test counter; every
    // assertion bounds itself with its own read, so Relaxed suffices.
    clock.load(Ordering::Relaxed)
}

/// Advances the manual clock by `ms`.
fn clock_advance(clock: &AtomicU64, ms: u64) {
    // ORDERING: see `clock_now`.
    clock.fetch_add(ms, Ordering::Relaxed);
}

/// Oracle entry: bytes plus absolute deadline (`0` = immortal).
type Oracle = BTreeMap<u64, (Vec<u8>, u64)>;

/// Whether the oracle considers `key` observable at `now`.
fn observable(oracle: &Oracle, key: u64, now: u64) -> Option<&[u8]> {
    oracle.get(&key).and_then(|(bytes, deadline)| {
        (*deadline == 0 || *deadline > now).then_some(bytes.as_slice())
    })
}

/// Reads every key over the wire codec path — encode the request frame,
/// decode it server-side, execute, encode the response, decode it
/// client-side — and checks each result against the oracle.
fn check_wire_surface(
    store: &ShardedKv<ValShort>,
    t: &mut <ValShort as Stm>::Thread,
    oracle: &Oracle,
    now: u64,
) {
    let ops: Vec<BatchOp> = (0..RANGE).map(BatchOp::Get).collect();
    let mut frame = Vec::new();
    wire::encode_request(&ops, &mut frame).unwrap();
    let mut req = BatchRequest::new();
    wire::decode_request(&frame[4..], &mut req).unwrap();
    let mut resp = BatchResponse::new();
    store.execute_batch_into(&mut req, &mut resp, t).unwrap();
    let mut resp_frame = Vec::new();
    wire::encode_response(&resp, &mut resp_frame).unwrap();
    let mut decoded = BatchResponse::new();
    wire::decode_response(&resp_frame[4..], &mut decoded).unwrap();
    for (key, result) in (0..RANGE).zip(&decoded) {
        match observable(oracle, key, now) {
            Some(bytes) => assert_eq!(
                result.as_ref().map(|v| v.as_ref()),
                Some(bytes),
                "wire get of live key {key} at {now}ms"
            ),
            None => assert_eq!(*result, None, "wire get exposed dead key {key} at {now}ms"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random schedules of TTL'd writes, clock advances, deletes and
    /// sweeps: after every step, `get`, `scan`, `execute_batch` and the
    /// wire path agree with the oracle and never expose an expired entry.
    #[test]
    fn expired_entries_are_unobservable_on_every_surface(
        steps in proptest::collection::vec((0u8..6, 0u64..RANGE, 0u64..1 << 60), 1..60),
    ) {
        let stm = ValShort::new();
        let now_ms = Arc::new(AtomicU64::new(0));
        let config = CacheConfig {
            clock: Clock::manual(&now_ms),
            ..CacheConfig::default()
        };
        let store = ShardedKv::with_config(&stm, 2, 16, ApiMode::Short, config);
        let mut t = store.register();
        let mut oracle: Oracle = BTreeMap::new();

        for (op, key, draw) in steps {
            let now = clock_now(&now_ms);
            match op {
                // A put with a short TTL, a long TTL, or none (immortal).
                0 => {
                    let ttl = draw % 8; // 0 = immortal, else 1..=7 ms
                    let bytes = payload(key, draw);
                    store.put_with_ttl(key, &bytes, Some(ttl), &mut t).unwrap();
                    let deadline = if ttl == 0 { 0 } else { now + ttl };
                    oracle.insert(key, (bytes, deadline));
                }
                // Time passes.
                1 => {
                    clock_advance(&now_ms, draw % 5);
                }
                // A delete (possibly of an expired corpse: reports None
                // either way, and the key stays gone).
                2 => {
                    let expect = observable(&oracle, key, now).map(<[u8]>::to_vec);
                    let got = store.del(key, &mut t).map(|v| v.as_ref().to_vec());
                    prop_assert_eq!(got, expect, "del of key {} at {}ms", key, now);
                    oracle.remove(&key);
                }
                // A sweep step changes nothing observable, ever.
                3 => {
                    store.sweep_step((draw % 64) as usize, &mut t);
                }
                // Point get.
                4 => {
                    let got = store.get(key, &mut t);
                    let expect = observable(&oracle, key, now);
                    prop_assert_eq!(
                        got.as_ref().map(|v| v.as_ref()),
                        expect,
                        "get of key {} at {}ms",
                        key,
                        now
                    );
                }
                // Batched gets through `execute_batch`.
                _ => {
                    let ops: Vec<BatchOp> = (0..RANGE).map(BatchOp::Get).collect();
                    let results = store.execute_batch(&ops, &mut t).unwrap();
                    for (k, result) in (0..RANGE).zip(&results) {
                        prop_assert_eq!(
                            result.as_ref().map(|v| v.as_ref()),
                            observable(&oracle, k, now),
                            "batched get of key {} at {}ms",
                            k,
                            now
                        );
                    }
                }
            }
            // The full-table surfaces hold after every step: the scan shows
            // exactly the observable oracle, and the wire path agrees.
            let now = clock_now(&now_ms);
            let scanned: Vec<(u64, Vec<u8>)> = store
                .scan(0, usize::MAX, &mut t)
                .into_iter()
                .map(|(k, v)| (k, v.as_ref().to_vec()))
                .collect();
            let visible: Vec<(u64, Vec<u8>)> = oracle
                .iter()
                .filter(|(k, _)| observable(&oracle, **k, now).is_some())
                .map(|(k, (bytes, _))| (*k, bytes.clone()))
                .collect();
            prop_assert_eq!(scanned, visible, "scan at {}ms", now);
            check_wire_surface(&store, &mut t, &oracle, now);
        }
        store.assert_index_consistent();
    }
}

/// A scan keeps walking past expired-but-unswept entries until it holds
/// `limit` *live* pairs: 24 keys, the middle 8 dead on the manual clock and
/// still physically present, and a `scan(first, 16)` that must return the
/// 16 live ones in order (not the 8 before the gap) — whether the keys
/// share one shard or spread over several.
#[test]
fn scans_fill_their_limit_past_unswept_corpses() {
    for shards in [1, 4] {
        let stm = ValShort::new();
        let now_ms = Arc::new(AtomicU64::new(0));
        let config = CacheConfig {
            clock: Clock::manual(&now_ms),
            ..CacheConfig::default()
        };
        let store = ShardedKv::with_config(&stm, shards, 32, ApiMode::Short, config);
        let mut t = store.register();
        for key in 0..RANGE {
            let ttl = if (8..16).contains(&key) { 5 } else { 0 };
            store
                .put_with_ttl(key, &payload(key, key), Some(ttl), &mut t)
                .unwrap();
        }
        clock_advance(&now_ms, 5);
        let live_bytes = store.live_bytes();
        let run = store.scan(0, 16, &mut t);
        let keys: Vec<u64> = run.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..8).chain(16..24).collect::<Vec<_>>());
        for (key, value) in &run {
            assert_eq!(value.as_ref(), payload(*key, *key).as_slice(), "key {key}");
        }
        assert_eq!(
            store.range(6, 18, &mut t).len(),
            4,
            "range skips the corpses"
        );
        // The scan stepped over the corpses; it did not remove them.
        assert_eq!(store.live_bytes(), live_bytes);
        assert_eq!(store.cache_stats().expired, 0);
        store.assert_index_consistent();
    }
}

/// One store of the surfaces-agree test, with the surface it is driven
/// through: `0` plain API, `1` one-op batches, `2` one batch per segment,
/// `3` one two-frame `MultiBatch` dispatch per segment.
struct Surface<S: Stm + Clone> {
    store: ShardedKv<S>,
    thread: S::Thread,
}

impl<S: Stm + Clone> Surface<S> {
    fn run(&mut self, surface: usize, ops: &[BatchOp]) -> Vec<Option<Value>> {
        let (store, t) = (&self.store, &mut self.thread);
        match surface {
            0 => ops
                .iter()
                .map(|op| match op {
                    BatchOp::Get(k) => store.get(*k, t),
                    BatchOp::Put(k, v, ttl) => store.put_with_ttl(*k, v, *ttl, t).unwrap(),
                    BatchOp::Del(k) => store.del(*k, t),
                })
                .collect(),
            1 => ops
                .iter()
                .map(|op| {
                    let mut one = store.execute_batch(std::slice::from_ref(op), t).unwrap();
                    assert_eq!(one.len(), 1);
                    one.pop().unwrap()
                })
                .collect(),
            2 => {
                let mut req: BatchRequest = ops.iter().cloned().collect();
                let mut resp = BatchResponse::new();
                store.execute_batch_into(&mut req, &mut resp, t).unwrap();
                resp
            }
            _ => {
                let mut multi = MultiBatch::new();
                for (source, frame) in ops.chunks(ops.len().div_ceil(2)).enumerate() {
                    for op in frame {
                        multi.request_mut().push(op.clone());
                    }
                    multi.commit_frame(source);
                }
                store.execute_multi(&mut multi, t).unwrap();
                multi.frames().flat_map(|(_, r)| r.to_vec()).collect()
            }
        }
    }
}

/// Accounting cannot drift between paths: one generated sequence of gets,
/// default-TTL puts, explicit-TTL puts, deletes and clock advances —
/// colliding keys and short TTLs, so puts, deletes and gets land on
/// expired-but-unswept corpses (asserted below) and most 32-op segments mix
/// reads and writes of one key in a shard group (the atomic fallback) —
/// replayed through the four surfaces on four fresh stores.  Per-op results
/// and the hit/miss counters agree after every segment.  An atomic shard
/// group reports an expired entry as absent without removing it where the
/// plain read removes it on the spot, so physical state is compared after
/// one closing full sweep: same entries, same byte account, and the same
/// `expired` count — every corpse counted exactly once, whichever path
/// buried it.
fn surfaces_agree_on_results_and_counters<S: Stm + Clone>(new_stm: fn() -> S, mode: ApiMode) {
    const SEGMENTS: usize = 40;
    const SEGMENT_OPS: usize = 32;
    let now_ms = Arc::new(AtomicU64::new(0));
    let mut surfaces: Vec<Surface<S>> = (0..4)
        .map(|_| {
            let config = CacheConfig {
                // A default TTL switches the hit/miss counters on.
                default_ttl_ms: 6,
                clock: Clock::manual(&now_ms),
                ..CacheConfig::default()
            };
            let store = ShardedKv::with_config(&new_stm(), 4, 16, mode, config);
            let thread = store.register();
            Surface { store, thread }
        })
        .collect();
    let mut rng = common::thread_rng(0x5EED_7715, 0);
    // key -> deadline (0 = immortal) as the plain surface holds it, to
    // prove the sequence reaches the corpse cases at all.
    let mut held: BTreeMap<u64, u64> = BTreeMap::new();
    let mut on_corpses = [0usize; 3]; // gets, puts, dels
    for segment in 0..SEGMENTS {
        let now = clock_now(&now_ms);
        let ops: Vec<BatchOp> = (0..SEGMENT_OPS)
            .map(|_| {
                let (key, draw) = (rng.next() % RANGE, rng.next());
                let corpse = held.get(&key).is_some_and(|&d| d != 0 && d <= now);
                match draw % 8 {
                    0..=2 => {
                        on_corpses[0] += corpse as usize;
                        if corpse {
                            held.remove(&key); // the plain read buries it
                        }
                        BatchOp::Get(key)
                    }
                    3 | 4 => {
                        on_corpses[1] += corpse as usize;
                        held.insert(key, now + 6);
                        BatchOp::put(key, &payload(key, draw))
                    }
                    5 | 6 => {
                        on_corpses[1] += corpse as usize;
                        let ttl = (draw >> 8) % 5; // 0 = immortal, else 1..=4 ms
                        held.insert(key, if ttl == 0 { 0 } else { now + ttl });
                        BatchOp::put_ttl(key, &payload(key, draw), ttl)
                    }
                    _ => {
                        on_corpses[2] += corpse as usize;
                        held.remove(&key);
                        BatchOp::Del(key)
                    }
                }
            })
            .collect();
        let runs: Vec<Vec<Option<Value>>> = surfaces
            .iter_mut()
            .enumerate()
            .map(|(surface, s)| s.run(surface, &ops))
            .collect();
        let stats: Vec<(u64, u64)> = surfaces
            .iter()
            .map(|s| s.store.cache_stats())
            .map(|c| (c.hits, c.misses))
            .collect();
        for surface in 1..4 {
            assert_eq!(
                runs[surface], runs[0],
                "segment {segment}: surface {surface} results"
            );
            assert_eq!(
                stats[surface], stats[0],
                "segment {segment}: surface {surface} hits/misses"
            );
        }
        clock_advance(&now_ms, rng.next() % 4);
    }
    assert!(
        on_corpses.iter().all(|&n| n > 0),
        "the sequence must get, put and delete over corpses: {on_corpses:?}"
    );
    let settled: Vec<_> = surfaces
        .iter_mut()
        .map(|s| {
            s.store.sweep_step(s.store.bucket_count(), &mut s.thread);
            s.store.assert_index_consistent();
            (
                s.store.quiescent_snapshot(),
                s.store.live_bytes(),
                s.store.cache_stats().expired,
            )
        })
        .collect();
    assert!(settled[0].2 > 0, "corpses were buried and counted");
    for surface in 1..4 {
        assert_eq!(
            settled[surface], settled[0],
            "surface {surface} after the sweep"
        );
    }
}

#[test]
fn surfaces_agree_on_results_and_counters_val_short() {
    surfaces_agree_on_results_and_counters(ValShort::new, ApiMode::Short);
}

#[test]
fn surfaces_agree_on_results_and_counters_tvar_short() {
    surfaces_agree_on_results_and_counters(TvarShortG::new, ApiMode::Short);
}

#[test]
fn surfaces_agree_on_results_and_counters_orec_full() {
    surfaces_agree_on_results_and_counters(OrecFullG::new, ApiMode::Full);
}

/// Workers over disjoint key ranges race the background reclaimer and a
/// clock-advancer thread.  Every worker tracks a conservative deadline
/// upper bound per key, so "this key is past its deadline for sure" and
/// "this key is immortal" are both assertable despite the concurrency.
#[test]
fn racing_reclaimer_never_exposes_expired_entries() {
    const WORKERS: u64 = 3;
    const KEYS_PER_WORKER: u64 = 48;
    const OPS: usize = 2_500;

    let stm = ValShort::new();
    let now_ms = Arc::new(AtomicU64::new(0));
    let config = CacheConfig {
        clock: Clock::manual(&now_ms),
        ..CacheConfig::default()
    };
    let store = Arc::new(ShardedKv::with_config(&stm, 4, 64, ApiMode::Short, config));
    let reclaimer = Reclaimer::spawn(Arc::clone(&store), Duration::from_micros(200), 64);
    // Immortal entries must survive everything; the shared oracle records
    // them (workers write disjoint ranges, so entries never conflict).
    let immortal: Mutex<BTreeMap<u64, Vec<u8>>> = Mutex::new(BTreeMap::new());

    // Worker 0 is the clock: everyone else runs the workload.
    run_workers(WORKERS + 1, 0xDEAD_0011, |tid, rng| {
        if tid == 0 {
            for _ in 0..OPS {
                clock_advance(&now_ms, 1);
                std::thread::yield_now();
            }
            return;
        }
        let mut t = store.register();
        let base = (tid - 1) * KEYS_PER_WORKER;
        // key -> (bytes, deadline upper bound; 0 = immortal), absent = gone.
        let mut local: BTreeMap<u64, (Vec<u8>, u64)> = BTreeMap::new();
        for _ in 0..OPS {
            let draw = rng.next();
            let key = base + draw % KEYS_PER_WORKER;
            match draw % 8 {
                0 | 1 => {
                    let ttl = (draw >> 32) % 4; // 0 = immortal, else 1..=3 ms
                    let bytes = payload(key, draw);
                    store.put_with_ttl(key, &bytes, Some(ttl), &mut t).unwrap();
                    // The put computed its deadline from a clock reading no
                    // later than now: this bound is conservative.
                    let after = clock_now(&now_ms);
                    let hi = if ttl == 0 { 0 } else { after + ttl };
                    if ttl == 0 {
                        immortal.lock().unwrap().insert(key, bytes.clone());
                    } else {
                        immortal.lock().unwrap().remove(&key);
                    }
                    local.insert(key, (bytes, hi));
                }
                2 => {
                    store.del(key, &mut t);
                    local.remove(&key);
                    immortal.lock().unwrap().remove(&key);
                }
                _ => {
                    let before = clock_now(&now_ms);
                    let got = store.get(key, &mut t);
                    match local.get(&key) {
                        None => assert_eq!(got, None, "deleted key {key} observed"),
                        Some((bytes, 0)) => {
                            let got = got.unwrap_or_else(|| panic!("immortal key {key} vanished"));
                            assert_eq!(got.as_ref(), &bytes[..], "immortal key {key} bytes");
                        }
                        Some((bytes, hi)) => {
                            if *hi <= before {
                                // Past its deadline for sure: must be gone.
                                assert_eq!(
                                    got, None,
                                    "key {key} expired by {hi}ms still visible at {before}ms"
                                );
                                local.remove(&key);
                            } else if let Some(v) = got {
                                assert_eq!(v.as_ref(), &bytes[..], "live key {key} bytes");
                            }
                        }
                    }
                }
            }
        }
    });
    // The reclaimer counts each sweep it finishes; on a loaded box its
    // first may come after the workers', so wait for it rather than race.
    let waiting = std::time::Instant::now();
    while reclaimer.stats().sweeps == 0 {
        assert!(
            waiting.elapsed() < Duration::from_secs(30),
            "no sweep counted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let swept = reclaimer.stop();
    assert!(swept.busy_ns > 0);
    assert_eq!(
        swept.buckets,
        swept.sweeps * store.bucket_count().min(64) as u64
    );

    // Quiescent endgame: advance past every possible deadline, run a full
    // sweep, and only the immortal entries may remain.
    clock_advance(&now_ms, 1_000);
    let mut t = store.register();
    store.sweep_step(store.bucket_count(), &mut t);
    let remaining: BTreeMap<u64, Vec<u8>> = store
        .scan(0, usize::MAX, &mut t)
        .into_iter()
        .map(|(k, v)| (k, v.as_ref().to_vec()))
        .collect();
    assert_eq!(remaining, *immortal.lock().unwrap());
    store.assert_index_consistent();
}

/// Two threads each run `sweep_step(total / 2)` at once over a store where
/// every key has expired.  Each call claims its whole run with one cursor
/// move, so the runs are disjoint and cover the table: every key is
/// removed exactly once, by the sweep whose run holds its home bucket.
fn concurrent_sweeps_remove_each_key_once<S: Stm + Clone + Sync>(stm: S, mode: ApiMode) {
    const N: u64 = 3_000;
    for shards in [1, 2, 16] {
        let now_ms = Arc::new(AtomicU64::new(0));
        let config = CacheConfig {
            clock: Clock::manual(&now_ms),
            ..CacheConfig::default()
        };
        let store = ShardedKv::with_config(&stm, shards, 2_560, mode, config);
        let mut t = store.register();
        for k in 0..N {
            store
                .put_with_ttl(k, &payload(k, k), Some(10), &mut t)
                .unwrap();
        }
        clock_advance(&now_ms, 100);
        let total = store.bucket_count();
        let outcomes = Mutex::new(Vec::new());
        run_workers(2, 0x5EE9_0000 + shards as u64, |_, _| {
            let mut t = store.register();
            let outcome = store.sweep_step(total / 2, &mut t);
            outcomes.lock().unwrap().push(outcome);
        });
        let outcomes = outcomes.into_inner().unwrap();
        let scanned: usize = outcomes.iter().map(|o| o.scanned).sum();
        let expired: u64 = outcomes.iter().map(|o| o.expired).sum();
        assert_eq!(
            (scanned, expired),
            (total, N),
            "{shards} shards: {outcomes:?}"
        );
        assert_eq!(store.cache_stats().expired, N, "{shards} shards");
        assert_eq!(store.live_bytes(), 0, "{shards} shards");
        assert!(store.scan(0, usize::MAX, &mut t).is_empty());
        store.assert_index_consistent();
    }
}

#[test]
fn concurrent_sweeps_remove_each_key_once_val_short() {
    concurrent_sweeps_remove_each_key_once(ValShort::new(), ApiMode::Short);
}

#[test]
fn concurrent_sweeps_remove_each_key_once_orec_full() {
    concurrent_sweeps_remove_each_key_once(OrecFullG::new(), ApiMode::Full);
}

/// A key that arrives after its home bucket's 7 slots are full lands in an
/// overflow bucket; the sweep's walk follows the chain and removes it once
/// it has expired, leaving every other key in place.
#[test]
fn the_sweep_finds_an_expired_key_in_an_overflow_bucket() {
    let stm = ValShort::new();
    let now_ms = Arc::new(AtomicU64::new(0));
    let config = CacheConfig {
        clock: Clock::manual(&now_ms),
        ..CacheConfig::default()
    };
    let store = ShardedKv::with_config(&stm, 1, 8, ApiMode::Short, config);
    let mut t = store.register();
    for k in 0..40 {
        store.put(k, &payload(k, 0), &mut t).unwrap();
    }
    let stats = store.stats();
    assert_eq!(
        stats.occupied_home_slots,
        7 * stats.home_buckets,
        "every home slot is taken: {stats}"
    );
    store
        .put_with_ttl(1_000, b"mortal", Some(10), &mut t)
        .unwrap();
    clock_advance(&now_ms, 100);
    let outcome = store.sweep_step(store.bucket_count(), &mut t);
    assert_eq!((outcome.expired, outcome.evicted), (1, 0));
    assert_eq!(store.get(1_000, &mut t), None);
    assert_eq!(store.scan(0, usize::MAX, &mut t).len(), 40);
    store.assert_index_consistent();
}

/// A budgeted hit bumps its own entry's CLOCK byte, saturating at 255,
/// and no other key's — keys sharing its home bucket included — with no
/// transaction.  The expiry pass halves a saturated byte (a relaxed store,
/// no STM call) and leaves an unsaturated one alone, so a byte that stays
/// saturated is halved once per pass, however the pass is split into
/// claimed runs.
#[test]
fn a_saturated_frequency_byte_is_halved_once_per_pass() {
    let stm = ValShort::new();
    let config = CacheConfig {
        max_bytes: Some(1 << 30),
        ..CacheConfig::default()
    };
    // Two shards of one home bucket each, so a pass can be split in two
    // claimed runs; keys 0..=7 route to one shard (64-key blocks), so
    // every key shares key 7's bucket.
    let store = ShardedKv::with_config(&stm, 2, 1, ApiMode::Short, config);
    assert_eq!(store.bucket_count(), 2);
    let total = store.bucket_count();
    let mut reader = store.register();
    for key in 0..7 {
        store.put(key, b"cold", &mut reader).unwrap();
    }
    let hot = 7;
    store.put(hot, b"hot", &mut reader).unwrap();
    let hit = |times: usize, reader: &mut _| {
        let before = reader_stats(reader);
        for _ in 0..times {
            assert!(store.get(hot, reader).is_some());
        }
        let after = reader_stats(reader);
        assert_eq!(after.1 - before.1, 0, "a hit ran a read-write transaction");
        assert_eq!(
            after.0 - before.0,
            times as u64,
            "one read-only lookup a hit"
        );
    };
    let sweep = |runs: &[usize]| {
        let mut sweeper = store.register();
        for &run in runs {
            store.sweep_step(run, &mut sweeper);
        }
        assert_eq!(
            sweeper.stats().short_rw_commits,
            0,
            "halving is not a transaction"
        );
    };
    let clock = |key| store.quiescent_clock(key).expect("present");
    hit(3, &mut reader);
    assert_eq!(clock(hot), 3);
    hit(300, &mut reader);
    assert_eq!(clock(hot), 255, "saturates");
    assert!((0..7).all(|key| clock(key) == 0), "a neighbour was bumped");
    sweep(&[total]);
    assert_eq!(clock(hot), 127, "255 → 127");
    sweep(&[total]);
    assert_eq!(clock(hot), 127, "127 is not saturated");
    hit(128, &mut reader);
    assert_eq!(clock(hot), 255);
    sweep(&[total / 2, total - total / 2]);
    assert_eq!(clock(hot), 127, "255 → 127 in two runs");
    sweep(&[total / 2, total - total / 2]);
    assert_eq!(clock(hot), 127);
    assert_eq!(store.quiescent_clock(1_000), None, "absent key");
}

/// `(short read-only commits, short read-write commits)` of `thread`.
fn reader_stats(thread: &<ValShort as Stm>::Thread) -> (u64, u64) {
    let stats = thread.stats();
    (stats.short_ro_commits, stats.short_rw_commits)
}
