//! The network load generator: drives a `spectm-serve` server over the
//! batch wire protocol in a closed loop and reports latency percentiles.
//!
//! It reuses the in-process workload machinery — [`KvWorkloadConfig`] for
//! the mix, key distribution, value sizes and key-space size,
//! [`WorkerState`] for the per-connection operation stream, and the
//! self-certifying checksummed payloads of [`crate::kv::fill_payload`] for
//! `--verify` — so a network run draws the same keys and values as an
//! in-process `kv` run, plus the wire.  The frame size
//! ([`LoadgenConfig::batch`]) is the one knob only the wire has.
//!
//! Connections are decoupled from client threads (the multiplexing server
//! serves many connections per worker, so the interesting operating points
//! have far more connections than a client machine has cores): each
//! thread scatters one batch onto every one of its [`WireConn`]s, then
//! gathers every response, so all its connections stay in flight at once.
//! Each connection's next batch is issued the moment its previous response
//! arrives.  Latency is per connection, send to response, under maximal
//! client pressure — with the coordinated-omission caveat of every closed
//! loop.  Open-loop tails are the repo benchmark's job (its `serve_*`
//! workloads), not this module's.
//!
//! Per-thread histograms merge losslessly into one [`LatencyHistogram`]
//! for the run's p50/p99/p999.  The `kv-loadgen` binary sweeps mixes and
//! connection counts and prints one TSV row per run.

use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use spectm_kv::wire::{self, FrameError, FrameReader, WireError, MAX_WIRE_OPS};
use spectm_kv::{BatchOp, BatchResponse};

use crate::intset::Xorshift;
use crate::kv::{
    fill_payload, payload_is_valid, KvMix, KvWorkloadConfig, ValueLenSampler, WorkerState,
};
use crate::measure::LatencyHistogram;

/// Everything that can end a load-generation run early.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, send or receive).
    Io(std::io::Error),
    /// The server answered with bytes that violate the protocol.
    Wire(WireError),
    /// The server closed the connection where a response was due.
    ServerClosed,
    /// A response carried the wrong number of results.
    ResultCount {
        /// Operations in the request.
        sent: usize,
        /// Results in the response.
        got: usize,
    },
    /// Under `--verify`, a returned value failed its checksum or a key
    /// that must be present was absent.
    Verify {
        /// The offending key.
        key: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "protocol error: {e}"),
            ClientError::ServerClosed => write!(f, "server closed with a response due"),
            ClientError::ResultCount { sent, got } => {
                write!(f, "sent {sent} operations, got {got} results")
            }
            ClientError::Verify { key } => {
                write!(f, "verification failed for key {key}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Wire(e) => ClientError::Wire(e),
            FrameError::Io(e) => ClientError::Io(e),
        }
    }
}

/// One client connection speaking the batch wire protocol, with every
/// buffer reused across requests (zero steady-state allocations for
/// inline-sized values).
pub struct WireConn {
    stream: TcpStream,
    reader: FrameReader,
    out: Vec<u8>,
    resp: BatchResponse,
}

impl WireConn {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            reader: FrameReader::new(),
            out: Vec::new(),
            resp: BatchResponse::new(),
        })
    }

    /// Sends `ops` as one request frame and blocks for the response;
    /// returns the results in request order.
    pub fn execute(&mut self, ops: &[BatchOp]) -> Result<&BatchResponse, ClientError> {
        self.send(ops)?;
        self.recv(ops.len())
    }

    /// Sends `ops` as one request frame **without waiting** for the
    /// response — the scatter half of a pipelined client; pair each call
    /// with a [`WireConn::recv`] (responses arrive in request order).
    pub fn send(&mut self, ops: &[BatchOp]) -> Result<(), ClientError> {
        wire::encode_request(ops, &mut self.out)?;
        self.stream.write_all(&self.out)?;
        Ok(())
    }

    /// Blocks for the next response frame, checking it carries `expected`
    /// results — the gather half of a pipelined client.
    pub fn recv(&mut self, expected: usize) -> Result<&BatchResponse, ClientError> {
        match wire::read_frame(&mut self.reader, &mut self.stream)? {
            Some((start, end)) => {
                wire::decode_response(&self.reader.buffered()[start..end], &mut self.resp)?;
                if self.resp.len() != expected {
                    return Err(ClientError::ResultCount {
                        sent: expected,
                        got: self.resp.len(),
                    });
                }
                Ok(&self.resp)
            }
            None => Err(ClientError::ServerClosed),
        }
    }
}

/// Loads every key of `0..num_keys` with a checksummed payload over the
/// wire, [`MAX_WIRE_OPS`] puts per batch — the network counterpart of
/// [`crate::kv::load_keys`], same payloads and length stream.
pub fn preload(conn: &mut WireConn, cfg: &KvWorkloadConfig) -> Result<(), ClientError> {
    let lens = ValueLenSampler::new(cfg.value_size);
    let mut rng = Xorshift::new(0x10AD_5EED);
    let mut buf = Vec::with_capacity(cfg.value_size.max_len());
    let mut ops = Vec::with_capacity(MAX_WIRE_OPS);
    for key in 0..cfg.num_keys {
        fill_payload(key, 0, lens.sample(&mut rng), &mut buf);
        ops.push(BatchOp::put(key, &buf));
        if ops.len() == MAX_WIRE_OPS {
            conn.execute(&ops)?;
            ops.clear();
        }
    }
    if !ops.is_empty() {
        conn.execute(&ops)?;
    }
    Ok(())
}

/// Reads the whole key space back in batched gets and checks presence and
/// checksums — the final oracle sweep of a `--verify` run.
pub fn verify_sweep(conn: &mut WireConn, num_keys: u64) -> Result<(), ClientError> {
    let mut ops = Vec::with_capacity(MAX_WIRE_OPS);
    let mut start = 0u64;
    while start < num_keys {
        let end = (start + MAX_WIRE_OPS as u64).min(num_keys);
        ops.clear();
        ops.extend((start..end).map(BatchOp::Get));
        let results = conn.execute(&ops)?;
        for (key, result) in (start..end).zip(results) {
            match result {
                Some(value) if payload_is_valid(key, value) => {}
                _ => return Err(ClientError::Verify { key }),
            }
        }
        start = end;
    }
    Ok(())
}

/// Parameters of one load-generation run.
pub struct LoadgenConfig {
    /// Concurrent connections, dealt round-robin across the client
    /// threads.
    pub connections: usize,
    /// Client threads driving those connections (`0` means one thread per
    /// connection; more threads than connections is clamped down).
    pub threads: usize,
    /// The measured duration.
    pub duration: Duration,
    /// Operations per request frame, `1..=`[`MAX_WIRE_OPS`].
    pub batch: usize,
    /// The TTL every churn fill put carries over the wire (`None` takes
    /// the server's default TTL).
    pub fill_ttl_ms: Option<u64>,
    /// The workload: mix, key distribution, value sizes, key-space size
    /// and the per-batch verify flag.  (The store-shape fields — shards,
    /// capacity, threads, cache configuration — belong to the server.)
    pub workload: KvWorkloadConfig,
}

/// The merged outcome of one run.
pub struct LoadgenResult {
    /// Batches completed across all connections.
    pub batches: u64,
    /// Operations inside those batches.
    pub ops: u64,
    /// Get operations that returned a value.
    pub hits: u64,
    /// Get operations that returned nothing (absent, expired or evicted
    /// server-side).
    pub misses: u64,
    /// Wall-clock time of the run (first connect to last drain).
    pub elapsed: Duration,
    /// Per-batch latency over all connections.
    pub hist: LatencyHistogram,
}

impl LoadgenResult {
    /// Aggregate operation throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.ops as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// `hits / (hits + misses)` over the run's gets, or `None` when the
    /// mix issued none.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// One of a client thread's connections: its socket plus its own seeded
/// operation stream, so a connection's workload is a deterministic
/// function of its **global connection index** — independent of how
/// connections are dealt across threads.
struct ClientConn {
    conn: WireConn,
    state: WorkerState,
    /// Keys whose gets missed, awaiting a read-through fill in this
    /// connection's next batch (churn mix only).
    fills: Vec<u64>,
}

/// Per-thread hit/miss tally over get results.
#[derive(Default)]
struct HitCounts {
    hits: u64,
    misses: u64,
}

/// Post-processes one batch response: tallies get hits and misses,
/// queues missed keys for read-through fills (churn), and — under
/// `--verify` — checks checksums.  A churn get may legitimately miss
/// (that is the point of the mix), so only present values are verified
/// there; every other mix keeps the strict all-hits oracle.
fn account_batch(
    ops: &[BatchOp],
    results: &BatchResponse,
    verify: bool,
    churn: bool,
    counts: &mut HitCounts,
    fills: &mut Vec<u64>,
) -> Result<(), ClientError> {
    for (op, result) in ops.iter().zip(results) {
        let key = op.key();
        let is_get = matches!(op, BatchOp::Get(_));
        match result {
            Some(value) => {
                if is_get {
                    counts.hits += 1;
                }
                if verify && !payload_is_valid(key, value) {
                    return Err(ClientError::Verify { key });
                }
            }
            None => {
                if is_get {
                    counts.misses += 1;
                    if churn {
                        fills.push(key);
                    } else if verify {
                        // Over a preloaded, delete-free space every get
                        // must hit; a put's displaced value must exist too.
                        return Err(ClientError::Verify { key });
                    }
                } else if verify && !churn {
                    return Err(ClientError::Verify { key });
                }
            }
        }
    }
    Ok(())
}

/// The canonical per-connection seed (connection `cid` of a run issues
/// the same operation stream whether it is one thread's only connection
/// or one of thirty-two).
fn conn_seed(cid: usize) -> u64 {
    0xC0FF_EE00_0000_0000 ^ (cid as u64 + 1).wrapping_mul(0x9E37_79B9)
}

/// Runs one client thread over its share of the run's connections
/// (`tid`, `tid + threads`, `tid + 2·threads`, … — a strided deal),
/// returning its histogram, batch count and hit tally.
fn run_client_thread(
    addr: std::net::SocketAddr,
    cfg: &LoadgenConfig,
    tid: usize,
    threads: usize,
    batch: usize,
) -> Result<(LatencyHistogram, u64, HitCounts), ClientError> {
    let mut clients = (tid..cfg.connections.max(1))
        .step_by(threads)
        .map(|cid| {
            Ok(ClientConn {
                conn: WireConn::connect(addr)?,
                state: WorkerState::new(&cfg.workload, conn_seed(cid)),
                fills: Vec::new(),
            })
        })
        .collect::<Result<Vec<ClientConn>, ClientError>>()?;
    let mut hist = LatencyHistogram::new();
    let mut counts = HitCounts::default();
    let verify = cfg.workload.verify;
    let churn = cfg.workload.mix == KvMix::Churn;
    let t0 = Instant::now();
    // Scatter one batch onto every connection, then gather every response,
    // so all of this thread's connections are in flight at once — the
    // whole point of measuring connection counts beyond the client's core
    // count.
    let mut batches = 0u64;
    let mut sent_at = vec![Duration::ZERO; clients.len()];
    loop {
        for (i, client) in clients.iter_mut().enumerate() {
            if churn {
                client
                    .state
                    .build_churn_batch(batch, &mut client.fills, cfg.fill_ttl_ms);
            } else {
                client.state.build_batch(batch);
            }
            sent_at[i] = t0.elapsed();
            client.conn.send(client.state.batch_ops())?;
        }
        let mut now = Duration::ZERO;
        for (i, client) in clients.iter_mut().enumerate() {
            let results = client.conn.recv(client.state.batch_ops().len())?;
            account_batch(
                client.state.batch_ops(),
                results,
                verify,
                churn,
                &mut counts,
                &mut client.fills,
            )?;
            now = t0.elapsed();
            hist.record(now.saturating_sub(sent_at[i]));
            batches += 1;
        }
        if now >= cfg.duration {
            return Ok((hist, batches, counts));
        }
    }
}

/// Runs one load-generation pass against `addr`: `threads` client threads
/// drive `connections` [`WireConn`]s round-robin, each connection with its
/// own seeded [`WorkerState`] stream; per-thread latency histograms merge
/// on completion.  The key space must already be [`preload`]ed when the
/// workload verifies.
pub fn run_loadgen(
    addr: impl ToSocketAddrs,
    cfg: &LoadgenConfig,
) -> Result<LoadgenResult, ClientError> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or(ClientError::ServerClosed)?;
    let batch = cfg.batch.max(1);
    let connections = cfg.connections.max(1);
    let threads = if cfg.threads == 0 {
        connections
    } else {
        cfg.threads.min(connections)
    };
    let started = Instant::now();
    let per_thread: Vec<Result<(LatencyHistogram, u64, HitCounts), ClientError>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|tid| scope.spawn(move || run_client_thread(addr, cfg, tid, threads, batch)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("loadgen client thread panicked"))
                .collect()
        });
    let mut hist = LatencyHistogram::new();
    let mut batches = 0u64;
    let mut hits = 0u64;
    let mut misses = 0u64;
    for outcome in per_thread {
        let (thread_hist, thread_batches, counts) = outcome?;
        hist.merge(&thread_hist);
        batches += thread_batches;
        hits += counts.hits;
        misses += counts.misses;
    }
    Ok(LoadgenResult {
        batches,
        ops: batches * batch as u64,
        hits,
        misses,
        elapsed: started.elapsed(),
        hist,
    })
}
