//! Property and concurrency tests for the batched operation pipeline
//! (`ShardedKv::execute_batch`).
//!
//! The batch module documents four guarantees; each has a test here:
//!
//! * **Request-order results + batch read-your-writes** — random batches
//!   (duplicate keys included, so get/put/del chains on one key are
//!   common) must return exactly what a sequential `BTreeMap` replay of
//!   the same operations returns, at every position.  Sequentially those
//!   two properties *are* the oracle equality.  A per-batch kind mask makes
//!   single-kind batches (all gets, all puts, all deletes — the pipelined
//!   dispatch with duplicate keys, never the atomic fallback) a deliberate
//!   share of the inputs.
//! * **Per-shard group atomicity under read/write mixing** — batches
//!   whose shard groups read and write the same keys run each group as
//!   one transaction, so concurrent *scanning observers* (atomic
//!   cross-shard snapshots) must never see a group half-applied: within
//!   one shard, every observed key carries the same write-round tag.
//! * **No atomicity across shards** — nothing in the observer asserts
//!   cross-shard tag agreement; the test documents the boundary by
//!   construction (one batch writes every shard, observers may see shards
//!   at different rounds, each internally whole).
//! * **All-or-nothing validation** — covered by unit tests in the batch
//!   module; here the proptests additionally guarantee a validated batch
//!   applies *every* operation (the oracle would diverge otherwise).
//!
//! Concurrency runs through the deterministic scaffolding of [`common`]
//! (barrier-started workers, canonical per-thread seeds, bounded
//! iterations).

mod common;

use std::collections::BTreeMap;

use common::run_workers;
use proptest::prelude::*;
use spectm::variants::{OrecFullG, TvarShortG, ValShort};
use spectm::Stm;
use spectm_ds::ApiMode;
use spectm_kv::{BatchOp, ShardRouter, ShardedKv, Value};

/// Deterministic payload for `(key, draw)` sweeping the inline-bytes,
/// inline-int and out-of-line regimes.
fn payload(key: u64, draw: u64) -> Vec<u8> {
    let len = (draw % 41) as usize;
    (0..len)
        .map(|i| (key as u8).wrapping_mul(113) ^ (draw as u8) ^ (i as u8).wrapping_mul(29))
        .collect()
}

/// Builds a [`BatchOp`] from one generated `(kind, key, draw)` triple.
fn op_from(kind: u8, key: u64, draw: u64) -> BatchOp {
    match kind % 4 {
        0 => BatchOp::Get(key),
        1 => BatchOp::Del(key),
        2 => BatchOp::put(key, &payload(key, draw)),
        // An explicit never-expires TTL must behave exactly like a plain
        // put through the whole batch pipeline.
        _ => BatchOp::put_ttl(key, &payload(key, draw), 0),
    }
}

/// Maps a generated kind onto the kinds `mask` allows (bit `k` = kind `k`
/// of [`op_from`]): the first allowed kind at or after it, cyclically.  A
/// one-bit mask makes the whole batch single-kind.
fn masked_kind(kind: u8, mask: u8) -> u8 {
    (0..4)
        .map(|step| (kind + step) % 4)
        .find(|k| mask & (1 << k) != 0)
        .expect("masks are non-zero")
}

/// Applies `ops` to a `BTreeMap` oracle, returning the per-op results the
/// store must reproduce (request order and read-your-writes both fall out
/// of replaying sequentially).
fn oracle_results(ops: &[BatchOp], oracle: &mut BTreeMap<u64, Value>) -> Vec<Option<Value>> {
    ops.iter()
        .map(|op| match op {
            BatchOp::Get(k) => oracle.get(k).cloned(),
            BatchOp::Put(k, v, _) => oracle.insert(*k, v.clone()),
            BatchOp::Del(k) => oracle.remove(k),
        })
        .collect()
}

/// One generated batch: its kind mask and its `(kind, key, draw)` triples.
type GenBatch = (u8, Vec<(u8, u64, u64)>);

fn oracle_check<S: Stm + Clone>(stm: S, mode: ApiMode, shards: usize, batches: &[GenBatch]) {
    let store = ShardedKv::new(&stm, shards, 16, mode);
    let mut t = store.register();
    let mut oracle = BTreeMap::new();
    for (no, (mask, batch)) in batches.iter().enumerate() {
        let ops: Vec<BatchOp> = batch
            .iter()
            // One key per routing block, so the 24 keys span every shard.
            .map(|&(kind, key, draw)| {
                op_from(
                    masked_kind(kind, *mask),
                    key << ShardRouter::BLOCK_BITS,
                    draw,
                )
            })
            .collect();
        let expect = oracle_results(&ops, &mut oracle);
        let got = store.execute_batch(&ops, &mut t).unwrap();
        assert_eq!(got, expect, "batch {no} diverged from the oracle");
    }
    assert_eq!(
        store.quiescent_snapshot(),
        oracle.into_iter().collect::<Vec<_>>(),
        "final state diverged"
    );
    store.assert_index_consistent();
}

proptest! {
    /// Random batches with heavily colliding keys against the sequential
    /// oracle: request-order results and read-your-writes at every
    /// position, across shard counts and both API modes.  Each batch draws
    /// a kind mask, so 4 in 15 are single-kind (duplicates applied in
    /// request order by the pipelined dispatch) and the rest mix kinds.
    #[test]
    fn execute_batch_matches_a_sequential_oracle(
        batches in proptest::collection::vec(
            (
                1u8..16,
                proptest::collection::vec((0u8..4, 0u64..24, 0u64..1 << 60), 0..20),
            ),
            1..8,
        ),
        shards_log2 in 0u32..4,
    ) {
        oracle_check(ValShort::new(), ApiMode::Short, 1 << shards_log2, &batches);
        oracle_check(OrecFullG::new(), ApiMode::Full, 1 << shards_log2, &batches);
    }
}

/// Tagged payload of a group-atomicity round: an 8-byte little-endian tag
/// followed by filler derived from `(key, tag)`, long enough to live out
/// of line so torn values would also corrupt cell reclamation.
fn tagged_payload(key: u64, tag: u64) -> Vec<u8> {
    let mut bytes = tag.to_le_bytes().to_vec();
    bytes.extend((0..16 + (key % 9) as u8).map(|i| (key as u8) ^ (tag as u8).wrapping_add(i)));
    bytes
}

/// Splits `count` keys per shard out of the dense key space, so a test can
/// build batches that hit every shard with a known group.
fn keys_per_shard<S: Stm + Clone>(store: &ShardedKv<S>, count: usize) -> Vec<Vec<u64>> {
    let router = store.router();
    let mut groups: Vec<Vec<u64>> = vec![Vec::new(); store.shard_count()];
    let mut key = 0u64;
    while groups.iter().any(|g| g.len() < count) {
        let g = &mut groups[router.route(key)];
        if g.len() < count {
            g.push(key);
        }
        key += 1;
    }
    groups
}

/// Writers batch a `Get` + tagged `Put` for **every** key of **every**
/// shard — same-key read/write mixing forces each shard's group into the
/// atomic fallback — while observers `scan` the whole store (atomic
/// cross-shard snapshots).  Within one shard every observed value must
/// carry the same tag (group atomicity), and every value must be
/// well-formed for its key and tag (no torn individual writes).  Nothing
/// is asserted *across* shards: the batch as a whole is documented not to
/// be atomic, and observers legitimately see shards at different rounds.
///
/// `per_shard_keys` and `capacity_per_shard` set the bucket-table
/// occupancy; the `_high_load` variants undersize the tables to one home
/// bucket per shard with more keys than its seven slots, so the atomic
/// fallback and the scans run over overflow chains.
fn scans_never_see_torn_groups<S: Stm + Clone>(
    stm: S,
    mode: ApiMode,
    per_shard_keys: usize,
    capacity_per_shard: usize,
) {
    const WRITERS: u64 = 2;
    const OBSERVERS: u64 = 2;
    const ROUNDS: u64 = 250;
    let store = ShardedKv::new(&stm, 4, capacity_per_shard, mode);
    let shard_keys = keys_per_shard(&store, per_shard_keys);
    {
        let mut t = store.register();
        for keys in &shard_keys {
            for &k in keys {
                store.put(k, &tagged_payload(k, 0), &mut t).unwrap();
            }
        }
    }
    let total_keys: usize = shard_keys.iter().map(Vec::len).sum();
    run_workers(WRITERS + OBSERVERS, 0x7049, |tid, rng| {
        let mut t = store.register();
        if tid < WRITERS {
            // The reusable request/response pair is the intended steady
            // state of the batched API; reuse it across rounds here.
            let mut req = spectm_kv::BatchRequest::new();
            let mut results = spectm_kv::BatchResponse::new();
            for round in 1..=ROUNDS {
                // One batch spanning every shard: per shard, a read of
                // each key then a tagged overwrite of each key.
                let tag = tid * ROUNDS + round;
                req.clear();
                for keys in &shard_keys {
                    for &k in keys {
                        req.get(k);
                    }
                    for &k in keys {
                        req.put(k, &tagged_payload(k, tag));
                    }
                }
                store
                    .execute_batch_into(&mut req, &mut results, &mut t)
                    .unwrap();
                // Every individual result must be whole: a valid tagged
                // payload for its key (reads and displaced writes alike).
                for (op, result) in req.ops().iter().zip(&results) {
                    let value = result.as_ref().expect("loaded keys never vanish");
                    let seen = value.as_u64();
                    assert_eq!(
                        value.as_slice(),
                        tagged_payload(op.key(), seen).as_slice(),
                        "torn value for key {}",
                        op.key()
                    );
                }
                // Jitter the interleaving so rounds do not lockstep.
                if rng.next() % 8 == 0 {
                    std::thread::yield_now();
                }
            }
        } else {
            for scan_no in 0..400 {
                let run = store.scan(0, usize::MAX, &mut t);
                assert_eq!(run.len(), total_keys, "scan missed keys");
                let mut tags: Vec<Option<u64>> = vec![None; store.shard_count()];
                for (key, value) in &run {
                    let tag = value.as_u64();
                    assert_eq!(
                        value.as_slice(),
                        tagged_payload(*key, tag).as_slice(),
                        "scan {scan_no} saw a torn value for key {key}"
                    );
                    let shard = store.router().route(*key);
                    match tags[shard] {
                        None => tags[shard] = Some(tag),
                        Some(t) => assert_eq!(
                            t, tag,
                            "scan {scan_no} saw shard {shard} half-written \
                             (keys at tags {t} and {tag})"
                        ),
                    }
                }
            }
        }
    });
    store.assert_index_consistent();
}

#[test]
fn scans_never_see_torn_groups_val_short() {
    scans_never_see_torn_groups(ValShort::new(), ApiMode::Short, 4, 32);
}

#[test]
fn scans_never_see_torn_groups_orec_full() {
    scans_never_see_torn_groups(OrecFullG::new(), ApiMode::Full, 4, 32);
}

#[test]
fn scans_never_see_torn_groups_val_short_high_load() {
    scans_never_see_torn_groups(ValShort::new(), ApiMode::Short, 10, 1);
}

#[test]
fn scans_never_see_torn_groups_orec_full_high_load() {
    scans_never_see_torn_groups(OrecFullG::new(), ApiMode::Full, 10, 1);
}

/// An atomic shard group whose puts link adjacent fresh keys: `[put k,
/// put k + 1, get k]` inside one routing block runs as one full
/// transaction (the get reads a key the group writes), so the second
/// insert's index window is stale against the first's buffered link and
/// must be answered from the transaction's own writes.  Later groups
/// remove a key beside one they insert, and remove and re-insert a key
/// the same group inserted, in one transaction.  Every result is the
/// sequential oracle's, on all three variants, with neighbours already
/// linked on both sides of some of the groups.
fn adjacent_fresh_keys_in_one_group<S: Stm + Clone>(stm: S, mode: ApiMode) {
    let store = ShardedKv::new(&stm, 4, 16, mode);
    let mut t = store.register();
    let mut oracle = BTreeMap::new();
    let block = 7 << ShardRouter::BLOCK_BITS;
    let mut run = |ops: Vec<BatchOp>, t: &mut S::Thread| {
        let expect = oracle_results(&ops, &mut oracle);
        assert_eq!(store.execute_batch(&ops, t).unwrap(), expect, "{ops:?}");
    };
    // Empty index, then between and beside linked neighbours.
    for k in [block, block + 10, block + 20, block + 61] {
        run(
            vec![
                BatchOp::put(k, &payload(k, 1)),
                BatchOp::put(k + 1, &payload(k + 1, 1)),
                BatchOp::Get(k),
            ],
            &mut t,
        );
        run(
            vec![
                BatchOp::put(k + 2, &payload(k + 2, 2)),
                BatchOp::Del(k + 1),
                BatchOp::Get(k + 2),
                BatchOp::Del(k),
                BatchOp::Get(k + 1),
                BatchOp::Del(k + 2),
                BatchOp::put(k + 2, &payload(k + 2, 3)),
            ],
            &mut t,
        );
        run(
            vec![
                BatchOp::Get(k),
                BatchOp::put(k, &payload(k, 3)),
                BatchOp::put(k + 1, &payload(k + 1, 3)),
                BatchOp::Del(k + 2),
                BatchOp::put(k + 2, &payload(k + 2, 4)),
                BatchOp::Get(k + 1),
            ],
            &mut t,
        );
    }
    assert_eq!(
        store.quiescent_snapshot(),
        oracle.into_iter().collect::<Vec<_>>()
    );
    store.assert_index_consistent();
}

#[test]
fn adjacent_fresh_keys_in_one_group_val_short() {
    adjacent_fresh_keys_in_one_group(ValShort::new(), ApiMode::Short);
}

#[test]
fn adjacent_fresh_keys_in_one_group_tvar_short() {
    adjacent_fresh_keys_in_one_group(TvarShortG::new(), ApiMode::Short);
}

#[test]
fn adjacent_fresh_keys_in_one_group_orec_full() {
    adjacent_fresh_keys_in_one_group(OrecFullG::new(), ApiMode::Full);
}

/// Batches raced from many threads against disjoint key ranges must land
/// exactly like the per-thread sequential replay — the batched analogue of
/// the `disjoint_replay` invariant test, pinning down that concurrent
/// batches neither drop nor duplicate operations.
#[test]
fn concurrent_disjoint_batches_replay_exactly() {
    const THREADS: u64 = 4;
    const RANGE: u64 = 96;
    const BATCHES: usize = 150;
    const SEED: u64 = 0xBA7C;
    let stm = ValShort::new();
    let store = ShardedKv::new(&stm, 4, 32, ApiMode::Short);
    run_workers(THREADS, SEED, |tid, rng| {
        let mut t = store.register();
        let base = tid * RANGE;
        let mut req = spectm_kv::BatchRequest::new();
        let mut results = spectm_kv::BatchResponse::new();
        for _ in 0..BATCHES {
            let len = (rng.next() % 24) as usize;
            req.clear();
            for _ in 0..len {
                let kind = (rng.next() % 4) as u8;
                let key = base + rng.next() % RANGE;
                req.push(op_from(kind, key, rng.next()));
            }
            store
                .execute_batch_into(&mut req, &mut results, &mut t)
                .unwrap();
        }
    });
    // Replay each thread's stream sequentially; disjoint ranges make the
    // merged outcome order-independent.
    let mut oracle: BTreeMap<u64, Value> = BTreeMap::new();
    for tid in 0..THREADS {
        let mut rng = common::thread_rng(SEED, tid);
        let base = tid * RANGE;
        for _ in 0..BATCHES {
            let len = (rng.next() % 24) as usize;
            let ops: Vec<BatchOp> = (0..len)
                .map(|_| {
                    let kind = (rng.next() % 4) as u8;
                    let key = base + rng.next() % RANGE;
                    op_from(kind, key, rng.next())
                })
                .collect();
            oracle_results(&ops, &mut oracle);
        }
    }
    assert_eq!(
        store.quiescent_snapshot(),
        oracle.into_iter().collect::<Vec<_>>()
    );
    store.assert_index_consistent();
}
