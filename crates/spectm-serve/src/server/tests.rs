//! The worker's sweep, stepped over SimNet pipes: the read rules, teardown,
//! fairness, coalescing, backpressure and hostile I/O, each as a count of
//! sweeps that replays from its seed.  Plus the pure helpers beside it
//! (write buffer, idle policy, acceptor dispatch, histogram buckets).

use std::collections::BTreeMap;

use proptest::prelude::*;
use spectm::variants::ValShort;
use spectm_ds::ApiMode;
use spectm_kv::{BatchOp, BatchRequest, CacheConfig, Clock, Value};

use super::*;
use crate::sim::{Link, Peer, Pipe, SimNet};

type SimWorker<'a> = Worker<'a, ValShort, Pipe>;

/// Seeds every seeded scenario runs over.
const SEEDS: std::ops::Range<u64> = 1..17;

/// Sweeps any seeded scenario may take before it counts as stuck.
const SWEEP_LIMIT: usize = 100_000;

/// A store whose clock never moves, so no TTL a frame carries can expire
/// in the middle of a test.
fn store() -> ShardedKv<ValShort> {
    let config = CacheConfig {
        clock: Clock::manual(&Arc::new(AtomicU64::new(0))),
        ..CacheConfig::default()
    };
    ShardedKv::with_config(&ValShort::new(), 8, 256, ApiMode::Short, config)
}

/// Admits a fresh pipe and returns its peer end.
fn connect(worker: &mut SimWorker<'_>, net: &mut SimNet, link: Link) -> Peer {
    let (pipe, peer) = net.pipe(link);
    worker.admit(pipe);
    peer
}

/// Sweeps until `done` holds and returns how many sweeps that took; fails,
/// naming the seed, after [`SWEEP_LIMIT`].
fn sweep_until(
    worker: &mut SimWorker<'_>,
    seed: u64,
    mut done: impl FnMut(&SimWorker<'_>) -> bool,
) -> usize {
    for sweeps in 0..SWEEP_LIMIT {
        if done(worker) {
            return sweeps;
        }
        worker.sweep();
    }
    panic!("seed {seed}: stuck after {SWEEP_LIMIT} sweeps");
}

fn request(ops: &[BatchOp]) -> Vec<u8> {
    let mut frame = Vec::new();
    wire::encode_request(ops, &mut frame).unwrap();
    frame
}

fn get_frame(key: u64) -> Vec<u8> {
    request(&[BatchOp::Get(key)])
}

/// The response body (no length prefix) for `results`.
fn response_body(results: &[Option<Value>]) -> Vec<u8> {
    let mut frame = Vec::new();
    wire::encode_response(results, &mut frame).unwrap();
    frame.split_off(4)
}

/// Applies `ops` to the oracle and returns the response body the server
/// owes for them.
fn replay(ops: &[BatchOp], oracle: &mut BTreeMap<u64, Value>) -> Vec<u8> {
    let results: Vec<Option<Value>> = ops
        .iter()
        .map(|op| match op {
            BatchOp::Get(k) => oracle.get(k).cloned(),
            BatchOp::Put(k, v) | BatchOp::PutTtl(k, v, _) => oracle.insert(*k, v.clone()),
            BatchOp::Del(k) => oracle.remove(k),
        })
        .collect();
    response_body(&results)
}

/// One to four seed-drawn operations over keys `0..keys`.
fn random_ops(net: &mut SimNet, keys: u64) -> Vec<BatchOp> {
    (0..1 + net.below(4))
        .map(|_| {
            let key = net.below(keys);
            let value: Vec<u8> = (0..net.below(40)).map(|_| net.below(256) as u8).collect();
            match net.below(5) {
                0 => BatchOp::Get(key),
                1 => BatchOp::Del(key),
                2 => BatchOp::put_ttl(key, &value, 1 + net.below(1_000)),
                _ => BatchOp::put(key, &value),
            }
        })
        .collect()
}

/// The short-read rule, counted: a read that returned less than it was
/// offered drained the transport, so the sweep does not pay for a second
/// `read` just to be told `WouldBlock`.
#[test]
fn a_short_read_ends_the_sweep_without_a_follow_up_read() {
    let (store, stats) = (store(), ServerStats::default());
    let mut worker = Worker::new(&store, &stats);
    let mut peer = connect(&mut worker, &mut SimNet::new(1), Link::CLEAN);
    peer.send(&get_frame(7));
    assert!(worker.sweep());
    assert_eq!((peer.reads(), peer.recv().len()), (1, 1));
    // The next sweep finds nothing: one read, answered WouldBlock.
    assert!(!worker.sweep());
    assert_eq!((peer.reads(), peer.recv().len()), (2, 0));
}

/// A read that filled everything it was offered may have left more in
/// the transport, so the follow-up read *is* issued — up to the fairness
/// bound, and then (on a later sweep) until one comes back short.
#[test]
fn full_reads_are_followed_up_within_the_per_sweep_bound() {
    let (store, stats) = (store(), ServerStats::default());
    let mut worker = Worker::new(&store, &stats);
    let mut peer = connect(&mut worker, &mut SimNet::new(1), Link::CLEAN);
    let frame = get_frame(3);
    let full_reads = MAX_FILLS_PER_SWEEP + 2;
    let stream: Vec<u8> = frame
        .iter()
        .copied()
        .cycle()
        .take(full_reads * wire::READ_CHUNK)
        .collect();
    peer.send(&stream);
    worker.sweep();
    assert_eq!(peer.reads(), MAX_FILLS_PER_SWEEP);
    let first = stats.snapshot().batches as usize;
    assert_eq!(first, MAX_FILLS_PER_SWEEP * wire::READ_CHUNK / frame.len());
    // Two full reads remain; the read after them is the WouldBlock.
    worker.sweep();
    assert_eq!(peer.reads(), MAX_FILLS_PER_SWEEP + 3);
    assert_eq!(
        stats.snapshot().batches as usize,
        stream.len() / frame.len()
    );
    assert_eq!(peer.recv().len(), stream.len() / frame.len());
}

/// Level-triggered sweeps cannot strand or repeat a frame: wherever the
/// bytes are cut, the frame is executed and answered exactly once, by the
/// sweep that receives its last byte.
#[test]
fn a_frame_split_at_any_offset_across_sweeps_commits_exactly_once() {
    let (store, stats) = (store(), ServerStats::default());
    let frame = get_frame(11);
    for cut in 1..frame.len() {
        let mut worker = Worker::new(&store, &stats);
        let mut peer = connect(&mut worker, &mut SimNet::new(1), Link::CLEAN);
        let batches = stats.snapshot().batches;
        peer.send(&frame[..cut]);
        worker.sweep();
        assert_eq!((peer.reads(), peer.recv().len()), (1, 0), "cut at {cut}");
        peer.send(&frame[cut..]);
        worker.sweep();
        assert_eq!((peer.reads(), peer.recv().len()), (2, 1), "cut at {cut}");
        worker.sweep();
        assert_eq!((peer.reads(), peer.recv().len()), (3, 0), "cut at {cut}");
        assert_eq!(stats.snapshot().batches, batches + 1, "cut at {cut}");
    }
}

#[test]
fn eof_is_a_wire_error_mid_frame_and_a_clean_close_on_a_boundary() {
    let (store, stats) = (store(), ServerStats::default());
    let mut worker = Worker::new(&store, &stats);
    let mut net = SimNet::new(1);
    let frame = get_frame(5);

    let mut peer = connect(&mut worker, &mut net, Link::CLEAN);
    peer.send(&frame[..frame.len() - 1]);
    peer.close();
    worker.sweep();
    assert_eq!((peer.reads(), peer.recv().len()), (1, 0));
    assert!(!peer.at_eof());
    worker.sweep();
    assert_eq!(peer.reads(), 2);
    assert!(peer.at_eof());
    assert_eq!(stats.snapshot().wire_errors, 1);

    let mut peer = connect(&mut worker, &mut net, Link::CLEAN);
    peer.send(&frame);
    peer.close();
    worker.sweep();
    assert_eq!((peer.reads(), peer.recv().len()), (1, 1));
    worker.sweep();
    assert!(peer.at_eof());
    assert_eq!(
        stats.snapshot().wire_errors,
        1,
        "a close on a boundary is clean"
    );
    assert!(worker.conns.is_empty());
}

/// A malformed frame tears the connection down without taking the good
/// frame before it along: that one executes and is answered before the
/// reaper drops the transport, and none of the bad frame's ops run.
#[test]
fn a_malformed_frame_leaves_the_good_frame_before_it_committed() {
    let (store, stats) = (store(), ServerStats::default());
    let mut worker = Worker::new(&store, &stats);
    let mut peer = connect(&mut worker, &mut SimNet::new(1), Link::CLEAN);
    let mut bytes = get_frame(9);
    bytes.extend_from_slice(&5u32.to_le_bytes()); // prefix: 5-byte body
    bytes.extend_from_slice(&1u32.to_le_bytes()); // one operation …
    bytes.push(0xEE); // … with an opcode nobody defined
    peer.send(&bytes);
    worker.sweep();
    assert_eq!(peer.reads(), 1);
    assert_eq!(peer.recv(), vec![response_body(&[None])]);
    assert!(peer.at_eof());
    let stats = stats.snapshot();
    assert_eq!((stats.batches, stats.ops, stats.wire_errors), (1, 1, 1));
}

/// The cap's first test: a worker multiplexes 1024 connections and closes
/// the 1025th at admission, counting each.
#[test]
fn the_connection_cap_admits_1024_and_closes_the_next() {
    let (store, stats) = (store(), ServerStats::default());
    let mut worker = Worker::new(&store, &stats);
    let mut net = SimNet::new(1);
    let admitted: Vec<Peer> = (0..MAX_CONNS_PER_WORKER)
        .map(|_| connect(&mut worker, &mut net, Link::CLEAN))
        .collect();
    let rejected = connect(&mut worker, &mut net, Link::CLEAN);
    let snapshot = stats.snapshot();
    assert_eq!((snapshot.connections, snapshot.conns_rejected), (1024, 1));
    assert!(rejected.at_eof());
    assert!(admitted.iter().all(|peer| !peer.at_eof()));
    assert_eq!(worker.conns.len(), 1024);
}

/// 32 connections that never speak and 4 that do, the active ones last in
/// the table: every active frame is answered by the sweep that reads it.
#[test]
fn idle_connections_do_not_starve_active_ones() {
    const IDLE: usize = 32;
    const ACTIVE: u64 = 4;
    const ROUNDS: u64 = 20;
    let (store, stats) = (store(), ServerStats::default());
    let mut worker = Worker::new(&store, &stats);
    let mut net = SimNet::new(1);
    let _idle: Vec<Peer> = (0..IDLE)
        .map(|_| connect(&mut worker, &mut net, Link::CLEAN))
        .collect();
    let mut active: Vec<Peer> = (0..ACTIVE)
        .map(|_| connect(&mut worker, &mut net, Link::CLEAN))
        .collect();
    let live = Value::new(b"live");
    for round in 0..ROUNDS {
        for (i, peer) in (0..).zip(&active) {
            let key = i * 1_000 + round;
            peer.send(&request(&[
                BatchOp::Put(key, live.clone()),
                BatchOp::Get(key),
            ]));
        }
        assert!(worker.sweep());
        for (i, peer) in active.iter_mut().enumerate() {
            assert_eq!(
                peer.recv(),
                vec![response_body(&[None, Some(live.clone())])],
                "active connection {i} starved at round {round}"
            );
        }
    }
    let stats = stats.snapshot();
    assert_eq!(stats.connections, IDLE as u64 + ACTIVE);
    assert_eq!((stats.batches, stats.dispatches), (ACTIVE * ROUNDS, ROUNDS));
    assert_eq!(stats.wire_errors, 0);
}

/// Two connections each pipeline 32 single-op frames: one sweep reads all
/// 64, runs them as one dispatch (histogram bucket 33–64) and answers every
/// one.
#[test]
fn pipelined_connections_coalesce_into_one_dispatch() {
    const FRAMES_PER_CONN: usize = 32;
    let (store, stats) = (store(), ServerStats::default());
    let mut worker = Worker::new(&store, &stats);
    let mut net = SimNet::new(1);
    let mut peers: Vec<Peer> = (0..2)
        .map(|_| connect(&mut worker, &mut net, Link::CLEAN))
        .collect();
    for peer in &peers {
        let bytes: Vec<u8> = (0..FRAMES_PER_CONN as u64).flat_map(get_frame).collect();
        peer.send(&bytes);
    }
    worker.sweep();
    for peer in &mut peers {
        assert_eq!(peer.recv(), vec![response_body(&[None]); FRAMES_PER_CONN]);
    }
    let stats = stats.snapshot();
    assert_eq!((stats.batches, stats.dispatches), (64, 1));
    let mut hist = [0; COALESCE_BUCKETS];
    hist[6] = 1;
    assert_eq!(stats.coalesce_hist, hist);
}

#[test]
fn coalesce_buckets_split_at_powers_of_two() {
    let table = [
        (1, 0),
        (2, 1),
        (3, 2),
        (4, 2),
        (5, 3),
        (8, 3),
        (64, 6),
        (65, 7),
        (10_000, 7),
    ];
    for (frames, bucket) in table {
        assert_eq!(coalesce_bucket(frames), bucket, "{frames} frames");
    }
}

/// Builds a [`BatchOp`] from one generated `(kind, key, draw)` triple,
/// with `key` offset into its connection's private range.
fn op_from(kind: u8, key: u64, draw: u64) -> BatchOp {
    match kind % 4 {
        0 => BatchOp::Get(key),
        1 => BatchOp::Del(key),
        _ => {
            let len = (draw % 40) as usize;
            let payload: Vec<u8> = (0..len)
                .map(|i| (key as u8) ^ (draw as u8).wrapping_add(i as u8))
                .collect();
            BatchOp::put(key, &payload)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// Frames from K connections, interleaved frame by frame and cut by
    /// seed-drawn read and write sizes and stalls, with sweeps at
    /// seed-drawn points between the sends, produce **byte-identical**
    /// responses to serial execution of each connection's frames against
    /// its own oracle.  Connections own disjoint key ranges, so
    /// per-connection serial semantics pin every byte regardless of how the
    /// server coalesced.
    #[test]
    fn interleaved_connections_answer_identically_to_serial(
        per_conn in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec((0u8..4, 0u64..32, 0u64..1 << 60), 1..8),
                1..6,
            ),
            2..5,
        ),
        seed in 0u64..u64::MAX,
    ) {
        let (store, stats) = (store(), ServerStats::default());
        let mut worker = Worker::new(&store, &stats);
        let mut net = SimNet::new(seed);
        let mut peers: Vec<Peer> = Vec::new();
        let mut frames: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut expect: Vec<Vec<Vec<u8>>> = Vec::new();
        for (c, conn_frames) in (0..).zip(&per_conn) {
            let link = Link {
                read_cut: Some(1 + net.below(64) as usize),
                write_cut: Some(1 + net.below(64) as usize),
                stall: net.below(128) as u8,
                window: usize::MAX,
            };
            peers.push(connect(&mut worker, &mut net, link));
            let mut oracle = BTreeMap::new();
            let (encoded, bodies): (Vec<_>, Vec<_>) = conn_frames
                .iter()
                .map(|frame| {
                    let ops: Vec<BatchOp> = frame
                        .iter()
                        .map(|&(kind, key, draw)| op_from(kind, c * 1_000 + key, draw))
                        .collect();
                    (request(&ops), replay(&ops, &mut oracle))
                })
                .unzip();
            frames.push(encoded);
            expect.push(bodies);
        }

        // Interleave: round-robin one frame per connection per turn.
        let turns = frames.iter().map(Vec::len).max().unwrap_or(0);
        for turn in 0..turns {
            for (peer, conn_frames) in peers.iter().zip(&frames) {
                if let Some(frame) = conn_frames.get(turn) {
                    peer.send(frame);
                    if net.below(4) == 0 {
                        worker.sweep();
                    }
                }
            }
        }

        let mut got: Vec<Vec<Vec<u8>>> = vec![Vec::new(); peers.len()];
        sweep_until(&mut worker, seed, |_| {
            for (peer, got) in peers.iter_mut().zip(&mut got) {
                got.extend(peer.recv());
            }
            got.iter().zip(&expect).all(|(got, expect)| got.len() >= expect.len())
        });
        prop_assert_eq!(&got, &expect, "seed {}: diverged from serial execution", seed);
        prop_assert_eq!(stats.snapshot().wire_errors, 0, "seed {}", seed);
    }
}

/// Partial-write storms: one-byte writes and short reads under
/// `WouldBlock` bursts.  Every response arrives, byte-identical to what the
/// oracle says the store owes.
#[test]
fn partial_write_storms_deliver_identical_bytes() {
    const FRAMES: usize = 48;
    for seed in SEEDS {
        let (store, stats) = (store(), ServerStats::default());
        let mut worker = Worker::new(&store, &stats);
        let mut net = SimNet::new(seed);
        let mut peer = connect(&mut worker, &mut net, Link::STORM);
        let mut oracle = BTreeMap::new();
        let mut expect = Vec::new();
        for _ in 0..FRAMES {
            let ops = random_ops(&mut net, 16);
            expect.push(replay(&ops, &mut oracle));
            peer.send(&request(&ops));
        }
        let mut got = Vec::new();
        let sweeps = sweep_until(&mut worker, seed, |_| {
            got.extend(peer.recv());
            got.len() >= FRAMES
        });
        assert_eq!(got, expect, "seed {seed}");
        let bytes: usize = expect.iter().map(|body| 4 + body.len()).sum();
        assert!(
            sweeps > bytes / 8,
            "seed {seed}: {sweeps} sweeps was no storm"
        );
        assert_eq!(stats.snapshot().wire_errors, 0, "seed {seed}");
    }
}

/// A peer that pipelines a frame every sweep and never drains its
/// responses: once its backlog passes [`WRITE_BACKLOG_CAP`] the worker
/// stops reading it, so the backlog never exceeds the cap plus the one
/// response a sweep can add — while a second connection on the same worker
/// is answered every sweep.  Once the peer drains, every response arrives.
#[test]
fn a_peer_that_never_drains_is_bounded_and_stalls_only_itself() {
    const STEPS: usize = 48;
    let (store, stats) = (store(), ServerStats::default());
    let mut worker = Worker::new(&store, &stats);
    let mut net = SimNet::new(1);
    let stuck_link = Link {
        window: 256 * 1024,
        ..Link::CLEAN
    };
    let mut stuck = connect(&mut worker, &mut net, stuck_link);
    let mut live = connect(&mut worker, &mut net, Link::CLEAN);

    const BIG: u64 = 1 << 40;
    let big = Value::new(&vec![0xB5; 64 * 1024]);
    live.send(&request(&[BatchOp::Put(BIG, big.clone())]));
    worker.sweep();
    assert_eq!(live.recv().len(), 1);
    let big_response = response_body(&[Some(big)]);
    let bound = WRITE_BACKLOG_CAP + 4 + big_response.len();

    let mut oracle = BTreeMap::new();
    let mut max_backlog = 0;
    for step in 0..STEPS {
        stuck.send(&get_frame(BIG));
        let ops = random_ops(&mut net, 16);
        live.send(&request(&ops));
        worker.sweep();
        assert_eq!(live.recv(), vec![replay(&ops, &mut oracle)], "step {step}");
        let backlog = worker.conns[0].pending();
        assert!(backlog <= bound, "step {step}: backlog {backlog} > {bound}");
        max_backlog = max_backlog.max(backlog);
    }
    assert!(
        max_backlog >= WRITE_BACKLOG_CAP,
        "backpressure never engaged"
    );
    assert_eq!(
        stuck.unreceived(),
        stuck_link.window,
        "the peer's side is full"
    );

    let mut got = Vec::new();
    sweep_until(&mut worker, 1, |_| {
        got.extend(stuck.recv());
        got.len() >= STEPS
    });
    assert_eq!(got, vec![big_response; STEPS]);
    assert_eq!(stats.snapshot().wire_errors, 0);
}

/// A connection cut in the middle of a frame: a reset is a transport
/// failure (closed as `Done`, not counted) whether it meets the worker's
/// next write or its next read, and a close is a truncated frame (a wire
/// error).  Either way the complete frames before the cut are executed and
/// the partial one never reaches the store.
#[test]
fn mid_frame_resets_and_closes_tear_down_without_executing_the_partial_frame() {
    const SENTINEL: u64 = 1 << 50;
    for seed in SEEDS {
        let (store, stats) = (store(), ServerStats::default());
        let mut worker = Worker::new(&store, &stats);
        let mut net = SimNet::new(seed);
        // 0: close; 1: reset with a response stuck behind a tiny window,
        // met by the next write; 2: reset with nothing queued, met by the
        // next read.
        let mode = seed % 3;
        let link = Link {
            read_cut: Some(1 + net.below(16) as usize),
            window: if mode == 1 {
                1 + net.below(8) as usize
            } else {
                usize::MAX
            },
            ..Link::CLEAN
        };
        let mut peer = connect(&mut worker, &mut net, link);
        let mut oracle = BTreeMap::new();
        let mut expect = Vec::new();
        for _ in 0..1 + net.below(4) {
            let ops = random_ops(&mut net, 16);
            expect.push(replay(&ops, &mut oracle));
            peer.send(&request(&ops));
        }
        let partial = request(&[BatchOp::put(SENTINEL, b"never")]);
        let cut = 1 + net.below(partial.len() as u64 - 1) as usize;
        peer.send(&partial[..cut]);
        let frames = expect.len() as u64;
        sweep_until(&mut worker, seed, |w| {
            stats.snapshot().batches == frames && w.conns[0].reader.mid_frame()
        });
        if mode == 1 {
            assert!(worker.conns[0].pending() > 0, "seed {seed}");
        } else {
            let mut got = Vec::new();
            sweep_until(&mut worker, seed, |_| {
                got.extend(peer.recv());
                got.len() >= expect.len()
            });
            assert_eq!(got, expect, "seed {seed}");
        }
        if mode == 0 {
            peer.close();
        } else {
            peer.reset();
        }
        let sweeps = sweep_until(&mut worker, seed, |w| w.conns.is_empty());
        assert!(
            mode == 0 || sweeps == 1,
            "seed {seed}: reset took {sweeps} sweeps"
        );
        assert!(mode == 1 || peer.at_eof(), "seed {seed}");
        let wire_errors = u64::from(mode == 0);
        assert_eq!(stats.snapshot().wire_errors, wire_errors, "seed {seed}");
        let mut thread = store.register();
        assert_eq!(store.get(SENTINEL, &mut thread), None, "seed {seed}");
    }
}

/// What the server owes a peer that sends `bytes` and closes: the
/// operations of each frame it must answer, in order, and whether it must
/// then tear the connection down as a wire error.  Decided by the pure
/// codec alone.
fn verdict(bytes: &[u8]) -> (Vec<Vec<BatchOp>>, bool) {
    let mut reader = FrameReader::new();
    let mut src = bytes;
    let mut req = BatchRequest::new();
    let mut answered = Vec::new();
    loop {
        match wire::read_frame(&mut reader, &mut src) {
            Ok(Some((start, end))) => {
                if wire::decode_request(&reader.buffered()[start..end], &mut req).is_err() {
                    return (answered, true);
                }
                answered.push(req.ops().to_vec());
            }
            Ok(None) => return (answered, false),
            Err(_) => return (answered, true),
        }
    }
}

/// `frame` with one seed-drawn mutation: a byte flipped, the tail cut
/// off, or junk appended.
fn mutate(net: &mut SimNet, mut frame: Vec<u8>) -> Vec<u8> {
    match net.below(3) {
        0 => {
            let at = net.below(frame.len() as u64) as usize;
            frame[at] ^= 1 + net.below(255) as u8;
        }
        1 => frame.truncate(net.below(frame.len() as u64) as usize),
        _ => {
            for _ in 0..1 + net.below(8) {
                frame.push(net.below(256) as u8);
            }
        }
    }
    frame
}

/// A mutation fuzz over valid frames, one connection per mutated frame:
/// the server answers exactly the frames the decoder accepts, tears down
/// exactly the connections it rejects (`wire_errors` rises by that count),
/// and no operation from a rejected frame reaches the store.
#[test]
fn mutated_frames_are_answered_or_torn_down_as_the_decoder_rules() {
    const CONNS: usize = 64;
    let (mut answered_total, mut torn_total) = (0, 0);
    for seed in SEEDS {
        let (store, stats) = (store(), ServerStats::default());
        let mut worker = Worker::new(&store, &stats);
        let mut net = SimNet::new(seed);
        let mut oracle = BTreeMap::new();
        let mut torn = 0;
        for _ in 0..CONNS {
            let frame = request(&random_ops(&mut net, 32));
            let bytes = mutate(&mut net, frame);
            let (frames, tears) = verdict(&bytes);
            let expect: Vec<Vec<u8>> = frames.iter().map(|ops| replay(ops, &mut oracle)).collect();
            answered_total += expect.len();
            torn += u64::from(tears);
            // Short, stalling writes keep a good frame's response queued
            // past the sweep that finds the bad bytes behind it.
            let link = Link {
                read_cut: Some(1 + net.below(32) as usize),
                write_cut: Some(1 + net.below(16) as usize),
                stall: net.below(64) as u8,
                window: usize::MAX,
            };
            let mut peer = connect(&mut worker, &mut net, link);
            peer.send(&bytes);
            peer.close();
            let mut got = Vec::new();
            sweep_until(&mut worker, seed, |w| {
                got.extend(peer.recv());
                w.conns.is_empty()
            });
            assert_eq!(got, expect, "seed {seed}: {bytes:?}");
            assert_eq!(stats.snapshot().wire_errors, torn, "seed {seed}: {bytes:?}");
        }
        let oracle: Vec<(u64, Value)> = oracle.into_iter().collect();
        assert_eq!(store.quiescent_snapshot(), oracle, "seed {seed}");
        torn_total += torn;
    }
    assert!(
        answered_total > 0 && torn_total > 0,
        "the fuzz exercised one verdict only"
    );
}

/// The bug this type replaces: resetting the buffer only when the
/// backlog reaches exactly zero lets a peer that always leaves a byte
/// pending grow it by every byte ever sent.
#[test]
fn write_buffer_gives_back_its_flushed_prefix() {
    const RESPONSE: usize = 4096;
    let mut wbuf = WriteBuf::default();
    let mut oracle: Vec<u8> = Vec::new(); // unsent bytes, never compacted
    let (mut oracle_sent, mut max_unsent, mut max_len) = (0usize, 0usize, 0usize);
    for round in 0..10_000usize {
        let response: Vec<u8> = (0..RESPONSE).map(|i| (round + i) as u8).collect();
        wbuf.append().extend_from_slice(&response);
        oracle.extend_from_slice(&response);
        max_len = max_len.max(wbuf.buf.len());
        wbuf.consume(RESPONSE - 1);
        oracle_sent += RESPONSE - 1;
        assert_eq!(wbuf.unsent(), &oracle[oracle_sent..], "round {round}");
        max_unsent = max_unsent.max(wbuf.unsent().len());
    }
    assert_eq!(max_unsent, 10_000);
    let bound = 2 * max_unsent + RESPONSE;
    assert!(max_len <= bound, "buffer reached {max_len} > {bound}");
    // `Vec` grows by doubling, so capacity may overshoot the longest
    // the buffer ever was — by that factor and no more.
    assert!(wbuf.buf.capacity() <= 2 * bound);
}

#[test]
fn idle_policy_spins_below_the_park_length_and_parks_from_it() {
    assert_eq!(idle_action(Duration::ZERO), Idle::Spin);
    assert_eq!(idle_action(IDLE_PARK - Duration::from_nanos(1)), Idle::Spin);
    assert_eq!(idle_action(IDLE_PARK), Idle::Park);
    assert_eq!(idle_action(Duration::from_secs(60)), Idle::Park);
}

/// Regression: a worker whose receiver is gone hands the item back
/// through the send error.  The dispatcher must fall through to the
/// next worker — the old inline loop unwrapped an `Option` on exactly
/// this path, and a panic here kills the acceptor thread, after which
/// the server silently stops accepting.
#[test]
fn dispatch_skips_dead_workers_without_panicking() {
    let (tx_dead, rx_dead) = mpsc::channel::<u32>();
    let (tx_live, rx_live) = mpsc::channel::<u32>();
    drop(rx_dead);
    let txs = [tx_dead, tx_live];
    let mut next = 0;
    assert_eq!(dispatch_to_worker(7, &txs, &mut next), Ok(()));
    assert_eq!(rx_live.recv(), Ok(7));
}

/// With every worker gone the item comes back to the caller (which
/// counts the drop) instead of being lost or panicking.
#[test]
fn dispatch_returns_the_item_when_every_worker_is_gone() {
    let (tx_a, rx_a) = mpsc::channel::<u32>();
    let (tx_b, rx_b) = mpsc::channel::<u32>();
    drop((rx_a, rx_b));
    let mut next = 1;
    assert_eq!(dispatch_to_worker(9, &[tx_a, tx_b], &mut next), Err(9));
}

/// The round-robin cursor keeps rotating across calls so load spreads
/// instead of pinning to worker zero.
#[test]
fn dispatch_round_robins_across_live_workers() {
    let (tx_a, rx_a) = mpsc::channel::<u32>();
    let (tx_b, rx_b) = mpsc::channel::<u32>();
    let txs = [tx_a, tx_b];
    let mut next = 0;
    for item in 0..4u32 {
        assert_eq!(dispatch_to_worker(item, &txs, &mut next), Ok(()));
    }
    assert_eq!((rx_a.try_recv(), rx_a.try_recv()), (Ok(0), Ok(2)));
    assert_eq!((rx_b.try_recv(), rx_b.try_recv()), (Ok(1), Ok(3)));
}
