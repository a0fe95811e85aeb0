//! Loopback end-to-end test: N client threads hammer a real server over
//! 127.0.0.1 with seeded mixed batches, checking **every** response
//! against a per-thread `BTreeMap` oracle, then drain their key ranges
//! over the wire and verify both oracle equality and the self-certifying
//! payload checksums (`--verify` style).
//!
//! Uses the deterministic scaffolding of the spectm-kv `tests/common/`
//! module (barrier-started workers, canonical per-thread seeds, bounded
//! iterations), so a failure reproduces from nothing but the seed.
//! Threads own disjoint key ranges — concurrency stresses the server's
//! accept/dispatch/epoch machinery while keeping a sequential oracle
//! sound per thread.
//!
//! The last test drives the server with the `kv-loadgen` closed loop
//! itself ([`harness::loadgen::run_loadgen`]), so the load generator's
//! preload, scatter/gather and verify paths run under `cargo test`.

#[path = "../../spectm-kv/tests/common/mod.rs"]
mod common;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use common::{run_workers, Xorshift};
use harness::kv::{fill_payload, payload_is_valid, KvMix, KvWorkloadConfig};
use harness::loadgen::{preload, run_loadgen, LoadgenConfig, WireConn};
use spectm::variants::ValShort;
use spectm::Stm;
use spectm_ds::ApiMode;
use spectm_kv::{BatchOp, ShardedKv};
use spectm_serve::Server;

const THREADS: u64 = 4;
/// Keys per thread; thread `tid` owns `[tid·RANGE, (tid+1)·RANGE)`.
const RANGE: u64 = 64;
const ROUNDS: usize = 80;
const BATCH: usize = 16;

/// Replays `ops` on the oracle, returning what the server must answer at
/// every position (request order and batch read-your-writes both fall out
/// of sequential replay).
fn oracle_replay(ops: &[BatchOp], oracle: &mut BTreeMap<u64, Vec<u8>>) -> Vec<Option<Vec<u8>>> {
    ops.iter()
        .map(|op| match op {
            BatchOp::Get(key) => oracle.get(key).cloned(),
            BatchOp::Put(key, value, _) => oracle.insert(*key, value.to_vec()),
            BatchOp::Del(key) => oracle.remove(key),
        })
        .collect()
}

fn draw_batch(rng: &mut Xorshift, base: u64, scratch: &mut Vec<u8>) -> Vec<BatchOp> {
    let n = (rng.next() % BATCH as u64) as usize + 1;
    (0..n)
        .map(|_| {
            let key = base + rng.next() % RANGE;
            let draw = rng.next();
            match draw % 10 {
                // 40% gets, 40% puts, 20% dels: plenty of churn and misses.
                0..=3 => BatchOp::Get(key),
                4..=7 => {
                    let len = (draw >> 8) as usize % 120;
                    fill_payload(key, draw, len, scratch);
                    BatchOp::put(key, scratch)
                }
                _ => BatchOp::Del(key),
            }
        })
        .collect()
}

#[test]
fn concurrent_clients_match_their_oracles_over_the_wire() {
    let stm = ValShort::new();
    let store = Arc::new(ShardedKv::new(&stm, 8, 256, ApiMode::Short));
    let server = Server::start(store, "127.0.0.1:0", THREADS as usize).expect("start server");
    let addr = server.local_addr();

    run_workers(THREADS, 0x0100_BACC_5EED, |tid, rng| {
        let base = tid * RANGE;
        let mut conn = WireConn::connect(addr).expect("client connect");
        let mut oracle: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut scratch = Vec::new();

        for round in 0..ROUNDS {
            let ops = draw_batch(rng, base, &mut scratch);
            let expect = oracle_replay(&ops, &mut oracle);
            let got = conn.execute(&ops).expect("batch over the wire");
            assert_eq!(got.len(), expect.len());
            for (pos, (got, expect)) in got.iter().zip(&expect).enumerate() {
                assert_eq!(
                    got.as_deref(),
                    expect.as_deref(),
                    "thread {tid} round {round} position {pos} diverged"
                );
            }
        }

        // Final drain: the server's view of this thread's range must be
        // exactly the oracle, and every surviving payload must carry a
        // valid checksum for its key.
        let drain: Vec<BatchOp> = (base..base + RANGE).map(BatchOp::Get).collect();
        let mut server_view: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for chunk in drain.chunks(BATCH) {
            let results = conn.execute(chunk).expect("drain batch").clone();
            for (op, result) in chunk.iter().zip(results) {
                if let Some(value) = result {
                    assert!(
                        payload_is_valid(op.key(), &value),
                        "thread {tid}: checksum failure for key {}",
                        op.key()
                    );
                    server_view.insert(op.key(), value.to_vec());
                }
            }
        }
        assert_eq!(server_view, oracle, "thread {tid}: final drain diverged");
    });

    let stats = server.shutdown();
    assert_eq!(stats.wire_errors, 0, "no client broke the protocol");
    assert_eq!(stats.connections, THREADS, "one connection per client");
    assert!(
        stats.batches >= THREADS * ROUNDS as u64,
        "every workload batch was served"
    );
}

/// The server answers a batch mixing hits, misses and same-key chains in
/// one frame — a direct, single-connection sanity check of wire-level
/// read-your-writes (the store-level property tests live in spectm-kv).
#[test]
fn single_connection_read_your_writes() {
    let stm = ValShort::new();
    let store = Arc::new(ShardedKv::new(&stm, 2, 64, ApiMode::Short));
    let server = Server::start(store, "127.0.0.1:0", 1).expect("start server");
    let mut conn = WireConn::connect(server.local_addr()).expect("connect");

    let big = vec![0x5Au8; 500]; // out-of-line value
    let results = conn
        .execute(&[
            BatchOp::Get(1),
            BatchOp::put(1, b"first"),
            BatchOp::put(1, &big),
            BatchOp::Get(1),
            BatchOp::Del(1),
            BatchOp::Get(1),
        ])
        .expect("mixed batch");
    assert_eq!(results[0], None);
    assert_eq!(results[1], None);
    assert_eq!(results[2].as_deref(), Some(&b"first"[..]));
    assert_eq!(results[3].as_deref(), Some(&big[..]));
    assert_eq!(results[4].as_deref(), Some(&big[..]));
    assert_eq!(results[5], None);

    // Values persist across frames on the same connection.
    let results = conn
        .execute(&[BatchOp::put(2, b"stay"), BatchOp::Get(2)])
        .expect("second frame");
    assert_eq!(results[1].as_deref(), Some(&b"stay"[..]));

    let stats = server.shutdown();
    assert_eq!(stats.wire_errors, 0);
    assert_eq!(stats.batches, 2);
}

/// `kv-loadgen`'s closed loop against an in-process server: a preload over
/// one connection, then eight verified connections on two client threads.
/// Every frame carries exactly `batch` operations, every get of the
/// preloaded space hits, and the server counted every connection.
#[test]
fn closed_loop_loadgen_run_is_verified_and_counted() {
    let stm = ValShort::new();
    let store = Arc::new(ShardedKv::new(&stm, 8, 256, ApiMode::Short));
    let server = Server::start(store, "127.0.0.1:0", 2).expect("start server");
    let addr = server.local_addr();
    let workload = KvWorkloadConfig {
        mix: KvMix::ReadHeavy,
        verify: true,
        ..KvWorkloadConfig::sized_for(2_048)
    };
    let mut control = WireConn::connect(addr).expect("control connect");
    preload(&mut control, &workload).expect("preload");

    let cfg = LoadgenConfig {
        connections: 8,
        threads: 2,
        duration: Duration::from_millis(100),
        batch: 16,
        fill_ttl_ms: None,
        workload,
    };
    let result = run_loadgen(addr, &cfg).expect("verified closed-loop run");
    assert!(result.batches > 0);
    assert_eq!(result.ops, result.batches * cfg.batch as u64);
    assert_eq!(result.hist.count(), result.batches);
    assert_eq!(result.hit_rate(), Some(1.0));

    assert_eq!(
        server.stats().connections,
        8 + 1,
        "eight run connections and the preload's"
    );
    drop(control);
    assert_eq!(server.shutdown().wire_errors, 0);
}
