//! The one multiplexing property that belongs to the socket driver rather
//! than to the worker's sweep: **slow readers cannot block shutdown** — a
//! peer holding unread responses pins only its own connection, never its
//! worker, because the driver checks the shutdown flag before every sweep.
//! Shutdown completes promptly with responses still queued (the old
//! one-connection-per-worker design blocked in `write_all` forever).
//!
//! Fairness, coalescing and the interleaved-frames byte identity are
//! properties of the sweep itself; they run as step-counted unit tests
//! over seeded in-memory pipes (`src/server/tests.rs`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use spectm::variants::ValShort;
use spectm::Stm;
use spectm_ds::ApiMode;
use spectm_kv::{BatchOp, ShardedKv};
use spectm_serve::Server;

use harness::loadgen::WireConn;

/// A peer that stops reading its responses cannot delay shutdown: queue
/// ~20 MB of responses behind a full socket, then shut down and require it
/// to complete promptly.  The seed design sits in `write_all` on a
/// blocking socket until the peer drains — shutdown never returns.
#[test]
fn slow_reader_does_not_block_shutdown() {
    const VALUE_LEN: usize = 512 * 1024;
    const UNREAD_GETS: usize = 40;

    let stm = ValShort::new();
    let store = Arc::new(ShardedKv::new(&stm, 8, 256, ApiMode::Short));
    let server = Server::start(store, "127.0.0.1:0", 1).expect("start server");
    let mut conn = WireConn::connect(server.local_addr()).expect("connect");

    let big = vec![0xB5u8; VALUE_LEN];
    conn.execute(&[BatchOp::put(9, &big)]).expect("seed value");

    // Pipeline responses far past what the socket and the server's write
    // backlog can absorb, and never read a byte of them.
    for _ in 0..UNREAD_GETS {
        conn.send(&[BatchOp::Get(9)]).expect("pipelined get");
    }
    // Let the worker pull the frames and wedge its flushes against the
    // full socket before the flag goes up.
    std::thread::sleep(Duration::from_millis(300));

    let begun = Instant::now();
    let stats = server.shutdown();
    let took = begun.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "shutdown took {took:?} with a slow reader holding unread responses"
    );
    assert_eq!(stats.wire_errors, 0);
    assert_eq!(stats.connections, 1);
    drop(conn);
}
