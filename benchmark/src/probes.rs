//! Layer probes: each layer's public functions timed in isolation, on one
//! thread, with the workload's own keys and value size.
//!
//! Every `*_ns` metric is the median over [`BLOCKS`] timed blocks of the
//! per-call time inside the block.  A block is [`CALLS`] calls, fewer when
//! a call is slow enough that the probe would otherwise outlast
//! [`PROBE_BUDGET`] (scans, 128-operation batches).  Keys are drawn from the
//! workload's distribution *before* the timed region and values are filled
//! before it too, so only the layer's own work is on the clock.

use std::hint::black_box;
use std::io::Read;
use std::time::{Duration, Instant};

use spectm::{variants::ValShort, Stm, StmThread};
use spectm_ds::{ApiMode, StmSkipList};
use spectm_kv::wire::{self, FrameReader};
use spectm_kv::{BatchOp, BatchRequest, BatchResponse, MultiBatch, StmHashMap};

use crate::gen::{payload, KeyDist, Xorshift};
use crate::report::Report;
use crate::served::{Driver, Store, StoreThread};
use crate::stats::{median, Stat};
use crate::workload::{self, Kind, Spec};

pub const BLOCKS: usize = 20;
pub const CALLS: usize = 10_000;
const PROBE_BUDGET: Duration = Duration::from_millis(200);
/// Most request frames a batch or codec probe cycles through.
const PROBE_FRAMES: usize = 1024;
/// Keys absent from every probed structure.
const ABSENT_BASE: u64 = 1 << 44;
/// A TTL no run outlives, for `store.put_ttl_ns` on stores whose keys must
/// stay present.
const LONG_TTL_MS: u64 = 3_600_000;

/// Times `call(i)` for `i` in `0..calls`, block after block, and returns
/// the median ns per call.
fn timed(mut call: impl FnMut(usize)) -> Stat {
    timed_with(&mut (), |_| {}, |_, i| call(i))
}

/// [`timed`] with per-block preparation off the clock: `prepare(state)` runs
/// before each block, `call(state, i)` is what is timed.
fn timed_with<S>(
    state: &mut S,
    mut prepare: impl FnMut(&mut S),
    mut call: impl FnMut(&mut S, usize),
) -> Stat {
    // Size the block from a short trial that is not recorded.
    prepare(state);
    let trial = 200;
    let started = Instant::now();
    for i in 0..trial {
        call(state, i);
    }
    let per_call = started.elapsed().as_secs_f64() / trial as f64;
    let affordable = PROBE_BUDGET.as_secs_f64() / BLOCKS as f64 / per_call.max(1e-9);
    let calls = (affordable as usize).clamp(trial, CALLS);
    let mut per_block = Vec::with_capacity(BLOCKS);
    for _ in 0..BLOCKS {
        prepare(state);
        let started = Instant::now();
        for i in 0..calls {
            call(state, i);
        }
        per_block.push(started.elapsed().as_nanos() as f64 / calls as f64);
    }
    Stat {
        value: median(&per_block),
        samples: (BLOCKS * calls) as u64,
    }
}

/// Keys for one probe, from the workload's distribution.
fn draw_keys(spec: &Spec, seed: u64) -> Vec<u64> {
    let dist = KeyDist::new(spec.keys, spec.zipfian);
    let mut rng = Xorshift::new(seed ^ 0x5EED_0B5E);
    (0..CALLS).map(|_| dist.key(&mut rng)).collect()
}

/// `CALLS` valid payloads for `keys`, refilled with fresh nonces per block.
struct Values {
    len: usize,
    bytes: Vec<u8>,
    nonce: u64,
}

impl Values {
    fn new(len: usize) -> Self {
        Self {
            len,
            bytes: vec![0u8; len * CALLS],
            nonce: 1 << 50,
        }
    }

    fn refill(&mut self, keys: &[u64]) {
        for (key, chunk) in keys.iter().zip(self.bytes.chunks_mut(self.len)) {
            payload::fill(*key, self.nonce, chunk);
            self.nonce += 1;
        }
    }

    fn get(&self, i: usize) -> &[u8] {
        &self.bytes[i * self.len..(i + 1) * self.len]
    }
}

/// `spectm.*` on bare `ValShort` cells and `txepoch.pin_ns`: the paper's
/// single-thread-overhead rung.
pub fn stm_cells(report: &mut Report) {
    let stm = ValShort::new();
    // The value-based layout keeps bit 0 of every word for its lock.
    let cells: Vec<_> = (0..1024usize).map(|i| stm.new_cell(i << 1)).collect();
    let mut thread = stm.register();
    let pair = |i: usize| (&cells[i % 1024], &cells[(i + 511) % 1024]);
    report.set_stat(
        "spectm.single_read_ns",
        timed(|i| {
            black_box(thread.single_read(&cells[i % 1024]));
        }),
    );
    report.set_stat(
        "spectm.short_ro2_ns",
        timed(|i| {
            let (a, b) = pair(i);
            loop {
                let va = thread.ro_read(0, a);
                let vb = thread.ro_read(1, b);
                if thread.ro_is_valid(2) {
                    black_box((va, vb));
                    break;
                }
            }
        }),
    );
    report.set_stat(
        "spectm.short_rw2_ns",
        timed(|i| {
            let (a, b) = pair(i);
            loop {
                let va = thread.rw_read(0, a);
                let vb = thread.rw_read(1, b);
                if thread.rw_is_valid(2) && thread.rw_commit(2, &[vb, va]) {
                    break;
                }
            }
        }),
    );
    report.set_stat(
        "spectm.full_rw2_ns",
        timed(|i| {
            let (a, b) = pair(i);
            thread.atomic(|tx| {
                let va = tx.read(a)?;
                let vb = tx.read(b)?;
                tx.write(a, vb)?;
                tx.write(b, va)
            });
        }),
    );
    report.set_stat(
        "txepoch.pin_ns",
        timed(|_| {
            black_box(thread.epoch().pin());
        }),
    );
}

/// `spectm-ds.*`: the skip-list index alone, holding the workload's keys.
pub fn skiplist(spec: &Spec, seed: u64, report: &mut Report) {
    let stm = ValShort::new();
    let list = StmSkipList::new(&stm, ApiMode::Short);
    let mut thread = stm.register();
    for key in 0..spec.keys {
        list.put(key, key, &mut thread);
    }
    let keys = draw_keys(spec, seed);
    report.set_stat(
        "spectm-ds.skiplist_get_ns",
        timed(|i| {
            black_box(list.get(keys[i], &mut thread));
        }),
    );
    let mut fresh = ABSENT_BASE;
    report.set_stat(
        "spectm-ds.skiplist_insert_remove_ns",
        timed(|_| {
            fresh += 1;
            list.insert(fresh, &mut thread);
            list.remove(fresh, &mut thread);
        }),
    );
    report.set_stat(
        "spectm-ds.skiplist_range16_ns",
        timed(|i| {
            let from = keys[i].min(spec.keys - 16);
            black_box(list.range(from, from + 16, &mut thread));
        }),
    );
}

/// `map.*_ns`: one `StmHashMap` with the store's total bucket count,
/// holding the workload's keys and values.
pub fn hash_map(spec: &Spec, seed: u64, report: &mut Report) {
    let stm = ValShort::new();
    let map = StmHashMap::new(
        &stm,
        workload::SHARDS * workload::CAPACITY_PER_SHARD,
        ApiMode::Short,
    );
    let mut thread = stm.register();
    let mut buf = vec![0u8; spec.value_len];
    for key in 0..spec.keys {
        payload::fill(key, 0, &mut buf);
        map.put(key, &buf, &mut thread).expect("value fits");
    }
    let keys = draw_keys(spec, seed);
    let mut values = Values::new(spec.value_len);
    report.set_stat(
        "map.get_hit_ns",
        timed(|i| {
            black_box(map.get(keys[i], &mut thread));
        }),
    );
    report.set_stat(
        "map.get_miss_ns",
        timed(|i| {
            black_box(map.get(ABSENT_BASE + keys[i], &mut thread));
        }),
    );
    report.set_stat(
        "map.put_overwrite_ns",
        timed_with(
            &mut values,
            |v| v.refill(&keys),
            |v, i| {
                black_box(map.put(keys[i], v.get(i), &mut thread)).expect("value fits");
            },
        ),
    );
    let mut fresh = ABSENT_BASE << 1;
    report.set_stat(
        "map.insert_del_ns",
        timed(|i| {
            fresh += 1;
            map.put(fresh, values.get(i), &mut thread)
                .expect("value fits");
            black_box(map.del(fresh, &mut thread));
        }),
    );
}

/// `lockfree.*`: the CAS-based map — the paper's "zero" that `store.*` and
/// `map.*` are read against.
pub fn lockfree_kv(spec: &Spec, seed: u64, report: &mut Report) {
    let collector = txepoch::Collector::new();
    let map = lockfree::LockFreeKvMap::new(
        workload::SHARDS * workload::CAPACITY_PER_SHARD,
        collector.clone(),
    );
    let handle = collector.register();
    let mut buf = vec![0u8; spec.value_len];
    for key in 0..spec.keys {
        payload::fill(key, 0, &mut buf);
        map.put(key, &buf, &handle).expect("value fits");
    }
    let keys = draw_keys(spec, seed);
    let mut values = Values::new(spec.value_len);
    report.set_stat(
        "lockfree.kv_get_ns",
        timed(|i| {
            black_box(map.get(keys[i], &handle));
        }),
    );
    report.set_stat(
        "lockfree.kv_put_ns",
        timed_with(
            &mut values,
            |v| v.refill(&keys),
            |v, i| {
                black_box(map.put(keys[i], v.get(i), &handle)).expect("value fits");
            },
        ),
    );
}

/// `store.*` timings on the workload's own (now quiescent) store.
pub fn store_ops(
    spec: &Spec,
    store: &Store,
    thread: &mut StoreThread,
    seed: u64,
    report: &mut Report,
) {
    let keys = draw_keys(spec, seed);
    let mut values = Values::new(spec.value_len);
    report.set_stat(
        "store.get_ns",
        timed(|i| {
            black_box(store.get(keys[i], thread));
        }),
    );
    report.set_stat(
        "store.put_overwrite_ns",
        timed_with(
            &mut values,
            |v| v.refill(&keys),
            |v, i| {
                black_box(store.put(keys[i], v.get(i), thread)).expect("value fits");
            },
        ),
    );
    let mut fresh = ABSENT_BASE;
    report.set_stat(
        "store.insert_del_ns",
        timed(|i| {
            fresh += 1;
            store.put(fresh, values.get(i), thread).expect("value fits");
            black_box(store.del(fresh, thread));
        }),
    );
    let ttl = if spec.kind == Kind::Churn {
        workload::CHURN_TTL_MS
    } else {
        LONG_TTL_MS
    };
    report.set_stat(
        "store.put_ttl_ns",
        timed_with(
            &mut values,
            |v| v.refill(&keys),
            |v, i| {
                black_box(store.put_with_ttl(keys[i], v.get(i), Some(ttl), thread))
                    .expect("value fits");
            },
        ),
    );
    report.set_stat(
        "store.scan16_ns",
        timed(|i| {
            black_box(store.scan(keys[i].min(spec.keys - 16), 16, thread));
        }),
    );
    if spec.kind == Kind::Embedded {
        report.set_stat(
            "store.rmw2_ns",
            timed(|i| {
                let a = workload::COUNTER_BASE + (i as u64 % workload::COUNTERS);
                let b = workload::COUNTER_BASE + ((i as u64 + 37) % workload::COUNTERS);
                // Adding 0 keeps the conservation oracle's sum intact.
                black_box(store.rmw_add(&[a, b], 0, thread)).expect("two keys");
            }),
        );
    }
}

/// A block of request frames of one shape, pre-built in every form the
/// codec and batch probes need.
struct FrameSet {
    requests: Vec<BatchRequest>,
    encoded_requests: Vec<Vec<u8>>,
    responses: Vec<BatchResponse>,
    encoded_responses: Vec<Vec<u8>>,
    ops: usize,
}

impl FrameSet {
    /// Re-chunks `stream` into frames of `per_frame` operations, executes
    /// each once (off the clock) to learn its response, and encodes both.
    fn build(
        stream: &[BatchOp],
        per_frame: usize,
        store: &Store,
        thread: &mut StoreThread,
    ) -> Self {
        let mut set = FrameSet {
            requests: Vec::new(),
            encoded_requests: Vec::new(),
            responses: Vec::new(),
            encoded_responses: Vec::new(),
            ops: 0,
        };
        for chunk in stream.chunks(per_frame) {
            let mut request: BatchRequest = chunk.iter().cloned().collect();
            let mut response = BatchResponse::new();
            store
                .execute_batch_into(&mut request, &mut response, thread)
                .expect("legal batch");
            let mut bytes = Vec::new();
            wire::encode_request(request.ops(), &mut bytes).expect("legal frame");
            set.encoded_requests.push(bytes);
            let mut bytes = Vec::new();
            wire::encode_response(&response, &mut bytes).expect("legal frame");
            set.encoded_responses.push(bytes);
            set.ops += request.len();
            set.requests.push(request);
            set.responses.push(response);
        }
        set
    }

    fn frames(&self) -> usize {
        self.requests.len()
    }

    fn ops_per_frame(&self) -> f64 {
        self.ops as f64 / self.frames() as f64
    }
}

/// Per-operation view of a per-frame timing.
fn per_op(stat: Stat, ops_per_frame: f64) -> Stat {
    Stat {
        value: stat.value / ops_per_frame,
        samples: stat.samples,
    }
}

/// An in-memory byte stream that hands the reader one frame per `read`, as
/// a socket does when a single frame is in flight.
struct OneFramePerRead<'a> {
    frames: &'a [Vec<u8>],
    next: usize,
}

impl Read for OneFramePerRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let frame = &self.frames[self.next % self.frames.len()];
        self.next += 1;
        buf[..frame.len()].copy_from_slice(frame);
        Ok(frame.len())
    }
}

/// `batch.*` and `wire.*`: the batch engine and the codec on frames of the
/// workload's own stream, against the workload's store, with no socket.
pub fn batch_and_wire(
    spec: &'static Spec,
    store: &Store,
    thread: &mut StoreThread,
    seed: u64,
    report: &mut Report,
) {
    // One stream of operations, cut three ways.  On `serve_churn` the
    // stream is what the read-through client would send: executing each
    // frame as it is generated tells the generator what missed.
    let mut driver = Driver::new(spec, seed ^ 0xBA7C);
    let mut stream: Vec<BatchOp> = Vec::new();
    let mut fills = Vec::new();
    let mut generated_frames = 0usize;
    while stream.len() < 4096 {
        let ops = driver.next_ops(&mut fills);
        let results = store.execute_batch(ops, thread).expect("legal batch");
        if spec.kind == Kind::Churn {
            for (op, result) in ops.iter().zip(&results) {
                if matches!(op, BatchOp::Get(_)) && result.is_none() {
                    fills.push(op.key());
                }
            }
        }
        stream.extend_from_slice(ops);
        generated_frames += 1;
    }
    // The workload's own frame size (the mean, on `serve_churn`, where the
    // fills make it vary), then the two ends of the wire's range.
    // At most PROBE_FRAMES frames of each, so that all three cycle through a
    // similar amount of pre-built request memory.
    let mean_frame = (stream.len() / generated_frames).max(1);
    let own_ops = (mean_frame * PROBE_FRAMES).min(stream.len());
    let mut own = FrameSet::build(&stream[..own_ops], mean_frame, store, thread);
    let mut one = FrameSet::build(&stream[..PROBE_FRAMES], 1, store, thread);
    let mut big = FrameSet::build(&stream, wire::MAX_WIRE_OPS, store, thread);

    let mut out = BatchResponse::new();
    let mut exec = |set: &mut FrameSet| {
        let frames = set.frames();
        let per_frame = timed(|i| {
            store
                .execute_batch_into(&mut set.requests[i % frames], &mut out, thread)
                .expect("legal batch");
        });
        per_op(per_frame, set.ops_per_frame())
    };
    report.set_stat("batch.exec_ns_per_op", exec(&mut own));
    report.set_stat("batch.exec1_ns_per_op", exec(&mut one));
    report.set_stat("batch.exec128_ns_per_op", exec(&mut big));

    // Two coalesced frames per dispatch, as a sweep that found both
    // connections ready would execute them.
    let mut multis: Vec<MultiBatch> = own
        .requests
        .chunks(2)
        .map(|pair| {
            let mut multi = MultiBatch::new();
            for (source, request) in pair.iter().enumerate() {
                for op in request.ops() {
                    multi.request_mut().push(op.clone());
                }
                multi.commit_frame(source);
            }
            multi
        })
        .collect();
    let dispatches = multis.len();
    let per_dispatch = timed(|i| {
        store
            .execute_multi(&mut multis[i % dispatches], thread)
            .expect("legal batch");
    });
    report.set_stat(
        "batch.multi2_ns_per_op",
        per_op(per_dispatch, own.ops as f64 / dispatches as f64),
    );

    let frames = own.frames();
    let per_frame = own.ops_per_frame();
    let mut bytes = Vec::new();
    report.set_stat(
        "wire.encode_req_ns_per_op",
        per_op(
            timed(|i| {
                wire::encode_request(own.requests[i % frames].ops(), &mut bytes).expect("legal");
            }),
            per_frame,
        ),
    );
    let mut request = BatchRequest::new();
    report.set_stat(
        "wire.decode_req_ns_per_op",
        per_op(
            timed(|i| {
                wire::decode_request(&own.encoded_requests[i % frames][4..], &mut request)
                    .expect("own frame");
            }),
            per_frame,
        ),
    );
    report.set_stat(
        "wire.encode_resp_ns_per_op",
        per_op(
            timed(|i| {
                wire::encode_response(&own.responses[i % frames], &mut bytes).expect("legal");
            }),
            per_frame,
        ),
    );
    let mut response = BatchResponse::new();
    report.set_stat(
        "wire.decode_resp_ns_per_op",
        per_op(
            timed(|i| {
                wire::decode_response(&own.encoded_responses[i % frames][4..], &mut response)
                    .expect("own frame");
            }),
            per_frame,
        ),
    );
    let mut reader = FrameReader::new();
    let mut source = OneFramePerRead {
        frames: &own.encoded_requests,
        next: 0,
    };
    report.set_stat(
        "wire.frame_read_ns",
        timed(|_| {
            reader.fill_from(&mut source).expect("reading from memory");
            black_box(reader.try_frame().expect("well formed").expect("complete"));
        }),
    );
    let request_bytes: usize = own.encoded_requests.iter().map(Vec::len).sum();
    let response_bytes: usize = own.encoded_responses.iter().map(Vec::len).sum();
    report.set(
        "wire.req_bytes_per_op",
        request_bytes as f64 / own.ops as f64,
        own.ops as u64,
    );
    report.set(
        "wire.resp_bytes_per_op",
        response_bytes as f64 / own.ops as f64,
        own.ops as u64,
    );
}
