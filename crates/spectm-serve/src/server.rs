//! The server proper: acceptor + multiplexing worker threads over
//! `std::net`.
//!
//! The threading model is the Pelikan/memcached deployment shape: a small,
//! fixed set of workers, each **multiplexing many connections** over
//! nonblocking sockets.  The acceptor round-robins accepted connections to
//! workers.  A worker thread is two parts:
//!
//! * the *worker* proper — the connection table, the STM thread handle and
//!   one reused [`MultiBatch`] — whose *sweep* is the whole turn over every
//!   connection: flush → read/decode → coalesced execute → flush → reap.
//!   It is generic over the transport (`Read + Write`), never blocks and
//!   never reads the clock, so its tests step it over a seeded in-memory
//!   net instead of sockets and timers;
//! * a thin socket *driver* that owns only what is socket- or
//!   thread-specific: the accept queue, `set_nonblocking`/`set_nodelay`,
//!   the shutdown flag, the clock, and a yield or a short park after a
//!   sweep that moved nothing.
//!
//! A connection is open or closing.  An open connection has an incremental
//! [`FrameReader`] and a compacting write buffer with partial-write
//! continuation; it keeps reading while its queued output stays under a
//! cap, so a slow-reading peer stalls only itself, never the worker.  A
//! closing one reads nothing more, flushes what is queued and is dropped.
//! Every STM thread handle (`S::Thread` is deliberately not `Send`) stays
//! pinned to the worker that created it.
//!
//! The payoff is **cross-connection batch coalescing**: on each sweep a
//! worker drains every decodable frame from every ready connection into
//! one [`MultiBatch`] and dispatches it as a single shard-grouped
//! [`ShardedKv`] call under **one epoch entry**, demultiplexing responses
//! back per connection in request order.  Per-connection ordering and the
//! batch-atomicity contract are untouched — see the [`MultiBatch`] docs
//! for why coalescing is performance-transparent — so the wire hot path
//! amortizes epoch entry and grouping over every ready peer, not just one.
//!
//! All blocking points are bounded so shutdown is prompt: the listener is
//! non-blocking (the acceptor sleeps `POLL` between empty accepts), a
//! worker with no connections waits on its queue with a `POLL` timeout,
//! and a worker with connections re-checks the shutdown flag every sweep —
//! including while a response is still queued for a peer that stopped
//! reading (the old one-connection design could pin a worker in
//! `write_all` there).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spectm::Stm;
use spectm_kv::wire::{self, Fill, FrameReader};
use spectm_kv::{MultiBatch, ShardedKv};

/// How long the acceptor sleeps between empty accepts and how long an
/// empty worker waits on its connection queue before re-checking the
/// shutdown flag.
const POLL: Duration = Duration::from_millis(5);

/// The idle window, in time since the worker last made progress: for this
/// long it keeps sweeping (yielding between sweeps), and from then on it
/// parks this long between sweeps.  One constant serves both because they
/// are one trade: a park delays a newly ready connection by up to its
/// length, so spinning for about as long as a park costs is the most that
/// can pay for itself, and a gap between requests shorter than this never
/// meets a parked worker.  Stated in time, not sweeps, because what a sweep
/// costs changes with the connection count and with every change to the
/// read path.  Also the longest quiet-worker shutdown can lag the flag.
const IDLE_PARK: Duration = Duration::from_micros(500);

/// What a worker does after a sweep that made no progress.
#[derive(Debug, PartialEq, Eq)]
enum Idle {
    /// Yield the core and sweep again.
    Spin,
    /// Sleep [`IDLE_PARK`] before sweeping again.
    Park,
}

/// The idle policy: spin while idle for less than [`IDLE_PARK`], park
/// thereafter.
fn idle_action(idle_for: Duration) -> Idle {
    if idle_for < IDLE_PARK {
        Idle::Spin
    } else {
        Idle::Park
    }
}

/// Queued-response bytes above which a worker stops *reading* from a
/// connection (backpressure): a peer that pipelines requests faster than
/// it drains responses bounds the worker's memory instead of growing it.
const WRITE_BACKLOG_CAP: usize = 1 << 20;

/// Socket reads per connection per sweep: bounds how long one firehose
/// peer can monopolize a sweep before the worker services its neighbours.
/// Only a peer whose reads keep coming back full gets this many; a read
/// that returns less than it was offered ends the connection's turn.
const MAX_FILLS_PER_SWEEP: usize = 4;

/// Connections one worker multiplexes; connections admitted above it are
/// dropped and counted in [`StatsSnapshot::conns_rejected`].
const MAX_CONNS_PER_WORKER: usize = 1024;

/// Buckets in the coalesced-dispatch histogram: frame counts 1, 2, 3–4,
/// 5–8, 9–16, 17–32, 33–64, 65+.
pub const COALESCE_BUCKETS: usize = 8;

/// The [`COALESCE_BUCKETS`] histogram bucket for a dispatch coalescing
/// `frames` frames (power-of-two buckets, saturating at the last).
fn coalesce_bucket(frames: usize) -> usize {
    debug_assert!(frames >= 1);
    ((usize::BITS - (frames - 1).leading_zeros()) as usize).min(COALESCE_BUCKETS - 1)
}

/// Monotonic service counters, updated by workers and read by reporters.
#[derive(Default)]
struct ServerStats {
    connections: AtomicU64,
    batches: AtomicU64,
    ops: AtomicU64,
    dispatches: AtomicU64,
    wire_errors: AtomicU64,
    io_errors: AtomicU64,
    conns_rejected: AtomicU64,
    coalesce_hist: [AtomicU64; COALESCE_BUCKETS],
}

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted and admitted to a worker's table.
    pub connections: u64,
    /// Request frames decoded, executed and answered (the response is
    /// queued for the peer in the same sweep that executes the frame).
    pub batches: u64,
    /// Operations inside those frames.
    pub ops: u64,
    /// Coalesced store dispatches: each executed one epoch entry covering
    /// the frames of every connection ready in that sweep, so
    /// `batches / dispatches` is the mean coalesced batch size.
    pub dispatches: u64,
    /// Connections torn down for malformed input (including closes
    /// mid-frame).  Nothing from such a frame reaches the store.
    pub wire_errors: u64,
    /// Local socket-configuration failures (`set_nonblocking`,
    /// `set_nodelay`) and connections dropped because no worker queue
    /// could take them — connections dropped or degraded for reasons that
    /// are the server's, not the peer's.
    pub io_errors: u64,
    /// Connections dropped at admission because the worker already
    /// multiplexed its cap of 1024.
    pub conns_rejected: u64,
    /// Histogram of frames-per-dispatch: buckets for 1, 2, 3–4, 5–8,
    /// 9–16, 17–32, 33–64 and 65+ frames.  Sums to `dispatches`.
    pub coalesce_hist: [u64; COALESCE_BUCKETS],
}

impl StatsSnapshot {
    /// Mean frames coalesced per store dispatch (0.0 before the first
    /// dispatch).  Above 1.0 means cross-connection coalescing is
    /// amortizing epoch entries; equal to 1.0 means every sweep found one
    /// ready frame — the per-connection behaviour this design subsumes.
    pub fn mean_coalesced_frames(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.batches as f64 / self.dispatches as f64
        }
    }
}

impl ServerStats {
    fn snapshot(&self) -> StatsSnapshot {
        // ORDERING: monotonic counters read for reporting; no counter
        // guards any other memory.
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let mut coalesce_hist = [0u64; COALESCE_BUCKETS];
        for (out, counter) in coalesce_hist.iter_mut().zip(&self.coalesce_hist) {
            *out = load(counter);
        }
        StatsSnapshot {
            connections: load(&self.connections),
            batches: load(&self.batches),
            ops: load(&self.ops),
            dispatches: load(&self.dispatches),
            wire_errors: load(&self.wire_errors),
            io_errors: load(&self.io_errors),
            conns_rejected: load(&self.conns_rejected),
            coalesce_hist,
        }
    }

    /// Accounts one coalesced dispatch of `frames` frames / `ops`
    /// operations.
    fn record_dispatch(&self, frames: usize, ops: u64) {
        // ORDERING: monotonic counters read only for reporting; no counter
        // guards any other memory (see ServerStats::snapshot).
        let bump = |counter: &AtomicU64, n: u64| counter.fetch_add(n, Ordering::Relaxed);
        bump(&self.dispatches, 1);
        bump(&self.batches, frames as u64);
        bump(&self.ops, ops);
        bump(&self.coalesce_hist[coalesce_bucket(frames)], 1);
    }
}

/// Why a connection is being torn down; only protocol violations are
/// counted in [`StatsSnapshot::wire_errors`].
#[derive(Clone, Copy)]
enum ConnEnd {
    /// Peer closed cleanly at a frame boundary, or the transport failed.
    Done,
    /// Peer broke the protocol (malformed frame or close mid-frame).
    WireError,
}

/// Response bytes queued for one peer, with partial-write continuation.
///
/// Bytes the socket accepted are given back by compaction rather than only
/// when the backlog happens to drain to zero: a peer that pipelines
/// continuously and always leaves a few bytes pending would otherwise grow
/// the buffer by every byte ever sent to it while [`WriteBuf::unsent`] —
/// all that [`WRITE_BACKLOG_CAP`] bounds — stayed small.
#[derive(Default)]
struct WriteBuf {
    buf: Vec<u8>,
    /// `buf[..sent]` has been accepted by the socket.
    sent: usize,
}

impl WriteBuf {
    /// The vector to append encoded responses to (append only).
    fn append(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Queued bytes the socket has not accepted yet.
    fn unsent(&self) -> &[u8] {
        &self.buf[self.sent..]
    }

    /// Marks the first `n` unsent bytes accepted.  Compacts once the
    /// accepted prefix is at least as long as what remains, so each
    /// compaction's copy is paid for by bytes consumed since the last one
    /// (amortised O(1) per byte) and the buffer stays under twice its
    /// unsent high-water mark plus one append.
    fn consume(&mut self, n: usize) {
        self.sent += n;
        if self.sent >= self.unsent().len() {
            self.buf.drain(..self.sent);
            self.sent = 0;
        }
    }

    /// Drops everything queued (the transport is dead).
    fn clear(&mut self) {
        self.buf.clear();
        self.sent = 0;
    }
}

/// One multiplexed connection: transport (a [`TcpStream`] outside tests),
/// incremental frame reader and write buffer.
struct Conn<T> {
    stream: T,
    reader: FrameReader,
    wbuf: WriteBuf,
    /// `None` while open.  Once set, the connection reads nothing more; it
    /// flushes whatever is queued and is then dropped.  Frames decoded
    /// *before* the failure still execute and their responses still flush —
    /// a peer that pipelines a good frame and then garbage gets the good
    /// frame's answer before teardown.
    closing: Option<ConnEnd>,
}

impl<T: Read + Write> Conn<T> {
    fn new(stream: T) -> Self {
        Self {
            stream,
            reader: FrameReader::new(),
            wbuf: WriteBuf::default(),
            closing: None,
        }
    }

    /// Queued response bytes the socket has not accepted yet.
    fn pending(&self) -> usize {
        self.wbuf.unsent().len()
    }

    /// Whether the read phase should pull from this connection: open
    /// connections only, and only under the write-backlog cap.
    fn wants_read(&self) -> bool {
        self.closing.is_none() && self.pending() < WRITE_BACKLOG_CAP
    }

    /// Pushes queued bytes into the nonblocking transport until it would
    /// block or the buffer drains, returning whether any byte was accepted.
    /// On a fatal transport error the connection is marked for reaping
    /// (queued bytes are unsendable and dropped).
    fn flush(&mut self) -> bool {
        let mut wrote = false;
        while self.pending() > 0 {
            match self.stream.write(self.wbuf.unsent()) {
                // A zero-length write cannot make progress; treat it as a
                // dead transport rather than spin.
                Ok(0) => {
                    self.fail_transport();
                    break;
                }
                Ok(n) => {
                    self.wbuf.consume(n);
                    wrote = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.fail_transport();
                    break;
                }
            }
        }
        wrote
    }

    /// Transport death during a write: drop the unsendable backlog so the
    /// reaper collects the connection, preserving a pre-existing
    /// `WireError` verdict (the peer broke the protocol *and* vanished).
    fn fail_transport(&mut self) {
        self.wbuf.clear();
        self.closing.get_or_insert(ConnEnd::Done);
    }

    /// Reads and decodes everything currently available: alternates
    /// buffered-frame draining with nonblocking fills, committing each
    /// decoded frame into `multi` tagged with `slot`.  Returns whether any
    /// byte arrived or frame decoded.
    ///
    /// A fill that returns fewer bytes than it offered has drained the
    /// transport, so the connection's turn ends there — no follow-up `read`
    /// whose only answer would be `WouldBlock`.  Nothing can be stranded by
    /// that: the sweep is level-triggered (every sweep reads every readable
    /// connection), so bytes that land a microsecond later are found by the
    /// next sweep.  A fill that came back full is followed by another, at
    /// most [`MAX_FILLS_PER_SWEEP`] in all so one firehose peer cannot
    /// monopolize the sweep.
    ///
    /// Failure handling preserves the wire contract: a malformed frame rolls
    /// its partial ops back out of `multi` and closes the connection as a
    /// wire error — frames committed before it still execute, and their
    /// responses still flush before the reaper drops the transport.
    fn read_frames(&mut self, slot: usize, multi: &mut MultiBatch) -> bool {
        let mut progressed = false;
        let mut fills = 0usize;
        let mut drained = false;
        'sweep: loop {
            // Drain every complete frame already buffered.
            loop {
                match self.reader.try_frame() {
                    Ok(None) => break,
                    Ok(Some((start, end))) => {
                        let body = &self.reader.buffered()[start..end];
                        match wire::decode_request_append(body, multi.request_mut()) {
                            Ok(_) => {
                                multi.commit_frame(slot);
                                progressed = true;
                            }
                            Err(_) => {
                                multi.rollback_frame();
                                self.closing = Some(ConnEnd::WireError);
                                break 'sweep;
                            }
                        }
                    }
                    Err(_) => {
                        self.closing = Some(ConnEnd::WireError);
                        break 'sweep;
                    }
                }
            }
            if drained || fills == MAX_FILLS_PER_SWEEP {
                break;
            }
            fills += 1;
            match self.reader.fill_nonblocking(&mut self.stream) {
                Ok(Fill::Bytes(n)) => {
                    progressed = true;
                    drained = n < wire::READ_CHUNK;
                }
                Ok(Fill::WouldBlock) => break,
                Ok(Fill::Eof) => {
                    self.closing = Some(if self.reader.mid_frame() {
                        ConnEnd::WireError
                    } else {
                        ConnEnd::Done
                    });
                    break;
                }
                Err(_) => {
                    self.closing = Some(ConnEnd::Done);
                    break;
                }
            }
        }
        progressed
    }
}

/// A running cache server.  Dropping it shuts it down and joins every
/// thread; [`Server::shutdown`] does the same while returning the final
/// counters.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use spectm::{variants::ValShort, Stm};
/// use spectm_ds::ApiMode;
/// use spectm_kv::ShardedKv;
/// use spectm_serve::Server;
///
/// let stm = ValShort::new();
/// let store = Arc::new(ShardedKv::new(&stm, 4, 64, ApiMode::Short));
/// let server = Server::start(store, "127.0.0.1:0", 2).unwrap();
/// let addr = server.local_addr(); // ephemeral port, ready for clients
/// let stats = server.shutdown();
/// assert_eq!(stats.wire_errors, 0);
/// # let _ = addr;
/// ```
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor plus `workers` multiplexing worker threads (at least one)
    /// over the shared `store`, each multiplexing up to 1024 connections.
    /// Returns once the listener is live; clients may connect immediately.
    pub fn start<S: Stm + Clone>(
        store: Arc<ShardedKv<S>>,
        addr: impl ToSocketAddrs,
        workers: usize,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let mut txs = Vec::new();
        let worker_handles = (0..workers.max(1))
            .map(|i| {
                let (tx, rx) = mpsc::channel::<TcpStream>();
                txs.push(tx);
                let store = Arc::clone(&store);
                let shutdown = Arc::clone(&shutdown);
                let stats = Arc::clone(&stats);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&store, &rx, &shutdown, &stats))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("serve-acceptor".to_string())
                .spawn(move || acceptor_loop(&listener, &txs, &shutdown, &stats))?
        };
        Ok(Self {
            local_addr,
            shutdown,
            stats,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// The address the server is listening on (with the real port when
    /// bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The current service counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Raises the shutdown flag, joins the acceptor and every worker, and
    /// returns the final counters.  Multiplexed connections are dropped at
    /// the next sweep — even those with responses still queued for a peer
    /// that stopped reading; connections still queued for a worker are
    /// dropped unserved.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop();
        self.stats.snapshot()
    }

    fn stop(&mut self) {
        // ORDERING: the flag carries no data; the joins below synchronize
        // with everything the threads wrote.
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn acceptor_loop(
    listener: &TcpListener,
    txs: &[Sender<TcpStream>],
    shutdown: &AtomicBool,
    stats: &ServerStats,
) {
    let mut next = 0usize;
    // ORDERING: shutdown flag only; see Server::stop.
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                if let Err(refused) = dispatch_to_worker(stream, txs, &mut next) {
                    // Every worker queue is gone: the connection cannot be
                    // served.  Count the drop and stop accepting — closing
                    // the listener makes further connects fail fast instead
                    // of queueing behind a server that will never answer.
                    // ORDERING: monotonic counter; see ServerStats::snapshot.
                    stats.io_errors.fetch_add(1, Ordering::Relaxed);
                    drop(refused);
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            // Transient accept failures (e.g. the peer resetting before the
            // accept completes) must not kill the acceptor.
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Offers `item` to each worker queue exactly once, round-robin starting
/// at `*next`.  A worker whose receiving end is gone hands the item back
/// inside the send error; the acceptor must *keep trying the rest* rather
/// than unwrap mid-loop — a panic here kills the acceptor thread and the
/// server silently stops accepting (the bug this replaces).  Returns the
/// item if every worker refused it, so the caller decides the drop policy.
fn dispatch_to_worker<T>(mut item: T, txs: &[Sender<T>], next: &mut usize) -> Result<(), T> {
    for _ in 0..txs.len() {
        let tx = &txs[*next];
        *next = (*next + 1) % txs.len();
        match tx.send(item) {
            Ok(()) => return Ok(()),
            Err(mpsc::SendError(back)) => item = back,
        }
    }
    Err(item)
}

/// One worker's connections and everything a sweep over them needs: the
/// STM thread handle, the reused [`MultiBatch`] and the shared counters.
///
/// This is the only code that reads, executes, flushes or reaps a
/// connection.  It never blocks and never reads the clock; whoever owns it
/// decides when to sweep and what to do when a sweep moved nothing.
struct Worker<'a, S: Stm + Clone, T> {
    store: &'a ShardedKv<S>,
    stats: &'a ServerStats,
    thread: S::Thread,
    conns: Vec<Conn<T>>,
    multi: MultiBatch,
}

impl<'a, S: Stm + Clone, T: Read + Write> Worker<'a, S, T> {
    /// A worker with an empty table.  Registers the STM thread handle, so
    /// it must be called on the thread that sweeps.
    fn new(store: &'a ShardedKv<S>, stats: &'a ServerStats) -> Self {
        Self {
            store,
            stats,
            thread: store.register(),
            conns: Vec::new(),
            multi: MultiBatch::new(),
        }
    }

    /// Adds one connection to the table, or drops it (closing it) when the
    /// table is at [`MAX_CONNS_PER_WORKER`].  Either outcome is counted.
    fn admit(&mut self, stream: T) {
        if self.conns.len() >= MAX_CONNS_PER_WORKER {
            // ORDERING: monotonic counter; see ServerStats::snapshot.
            self.stats.conns_rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // ORDERING: monotonic counter; see ServerStats::snapshot.
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
        self.conns.push(Conn::new(stream));
    }

    /// One turn over every connection: flush → read/decode → coalesced
    /// execute → flush → reap.  Returns whether anything moved (bytes in or
    /// out, a frame executed).
    ///
    /// The read phase appends every decodable frame from every readable
    /// connection into one [`MultiBatch`]; the execute phase dispatches it
    /// under a single epoch entry and scatters responses into each source
    /// connection's write buffer in request order.
    fn sweep(&mut self) -> bool {
        // Flush before reading: freeing transport buffers early lets peers
        // that pipeline make progress within a single sweep.
        let mut progressed = false;
        for conn in &mut self.conns {
            progressed |= conn.flush();
        }

        // Read/decode: drain every decodable frame from every readable
        // connection into the shared MultiBatch, tagged by table slot.
        debug_assert!(self.multi.is_empty());
        for (slot, conn) in self.conns.iter_mut().enumerate() {
            if conn.wants_read() {
                progressed |= conn.read_frames(slot, &mut self.multi);
            }
        }

        // Execute: one shard-grouped dispatch, one epoch entry, covering
        // every frame the sweep found; then scatter responses per source.
        if !self.multi.is_empty() {
            let multi = &mut self.multi;
            let (frames, ops) = (multi.frame_count(), multi.op_count() as u64);
            if self.store.execute_multi(multi, &mut self.thread).is_ok() {
                self.stats.record_dispatch(frames, ops);
                for (slot, results) in multi.frames() {
                    let conn = &mut self.conns[slot];
                    // Encoding can only refuse values larger than the store
                    // can hold — unreachable for store output, but a refusal
                    // must tear down rather than answer out of position.
                    if wire::encode_response_append(results, conn.wbuf.append()).is_err() {
                        conn.fail_transport();
                    }
                }
            } else {
                // Unreachable for frames the decoder accepted (its caps
                // equal the store's), but a store refusal must still tear
                // down every contributing connection rather than answer
                // out of position or panic.
                for slot in multi.sources() {
                    self.conns[slot].closing = Some(ConnEnd::WireError);
                }
            }
            multi.clear();
            progressed = true;
        }

        // Second flush: answers computed this sweep usually fit the
        // transport's buffer, so most request/response cycles complete in
        // one sweep.
        for conn in &mut self.conns {
            progressed |= conn.flush();
        }

        // Reap: closing connections leave once their queued responses are
        // flushed (or proved unsendable).
        self.conns.retain(|conn| match conn.closing {
            Some(end) if conn.pending() == 0 => {
                if matches!(end, ConnEnd::WireError) {
                    // ORDERING: monotonic counter; see ServerStats::snapshot.
                    self.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                }
                false
            }
            _ => true,
        });
        progressed
    }
}

/// The socket driver of one worker thread: admits what the acceptor
/// queued, sweeps, and yields or parks after sweeps that moved nothing.
fn worker_loop<S: Stm + Clone>(
    store: &ShardedKv<S>,
    queue: &Receiver<TcpStream>,
    shutdown: &AtomicBool,
    stats: &ServerStats,
) {
    let mut worker = Worker::<S, TcpStream>::new(store, stats);
    // When the current run of progress-free sweeps began; `None` while
    // traffic flows, so the busy path never reads the clock.
    let mut idle_since: Option<Instant> = None;
    loop {
        // ORDERING: shutdown flag only; see Server::stop.  Checked every
        // sweep, so neither a quiet peer nor one that stopped reading its
        // responses can delay shutdown.
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        let mut progressed = false;

        // Admit: with an empty table, block (briefly) on the queue; with
        // live connections, only drain what is already there.  Admitting a
        // connection, even refusing one, is progress.
        if worker.conns.is_empty() {
            match queue.recv_timeout(POLL) {
                Ok(stream) => progressed |= admit_socket(&mut worker, stream),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
        loop {
            match queue.try_recv() {
                Ok(stream) => progressed |= admit_socket(&mut worker, stream),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    if worker.conns.is_empty() {
                        return;
                    }
                    break;
                }
            }
        }

        progressed |= worker.sweep();

        // Idle policy: spin politely right after traffic, park once quiet.
        if progressed {
            idle_since = None;
        } else {
            let now = Instant::now();
            match idle_action(now - *idle_since.get_or_insert(now)) {
                Idle::Spin => std::thread::yield_now(),
                Idle::Park => std::thread::sleep(IDLE_PARK),
            }
        }
    }
}

/// Configures one accepted socket for the sweep and hands it to the
/// worker.  Returns `true`: any outcome here is observable work.
fn admit_socket<S: Stm + Clone>(worker: &mut Worker<'_, S, TcpStream>, stream: TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        // A blocking socket would stall the whole sweep: unusable here.
        // ORDERING: monotonic counter; see ServerStats::snapshot.
        worker.stats.io_errors.fetch_add(1, Ordering::Relaxed);
        return true;
    }
    if stream.set_nodelay(true).is_err() {
        // Latency nicety only — count it, keep the connection.
        // ORDERING: monotonic counter; see ServerStats::snapshot.
        worker.stats.io_errors.fetch_add(1, Ordering::Relaxed);
    }
    worker.admit(stream);
    true
}

#[cfg(test)]
mod tests;
