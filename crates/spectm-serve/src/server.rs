//! The server proper: acceptor + multiplexing worker threads over
//! `std::net`.
//!
//! The threading model is the Pelikan/memcached deployment shape: a small,
//! fixed set of workers, each **multiplexing many connections** over
//! nonblocking sockets.  The acceptor round-robins accepted connections to
//! workers; each worker owns a std-only poll loop — `set_nonblocking(true)`
//! plus a readiness sweep with a short park when fully idle — over
//! per-connection state machines (an incremental [`FrameReader`], a
//! compacting write buffer with partial-write continuation, and explicit
//! Reading/Executing/Writing states so a slow-reading peer can never block
//! the worker).  Every STM thread handle (`S::Thread` is deliberately not
//! `Send`) stays pinned to the worker that created it.
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

/// Default per-worker connection cap (see `--max-conns-per-worker`);
/// connections above it are dropped at admission and counted in
/// [`StatsSnapshot::conns_rejected`].
pub const DEFAULT_MAX_CONNS_PER_WORKER: usize = 1024;

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
    /// Connections dropped at admission because the worker was at its
    /// `--max-conns-per-worker` cap.
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

/// Where a connection's state machine stands between sweeps.
#[derive(Clone, Copy)]
enum ConnState {
    /// No queued output; waiting for request bytes.
    Reading,
    /// Frames read this sweep are committed into the worker's
    /// [`MultiBatch`], awaiting the coalesced dispatch (transient: the
    /// same sweep's execute phase moves the connection on).
    Executing,
    /// Queued response bytes awaiting socket capacity.  The connection
    /// keeps reading new requests while the backlog stays under
    /// [`WRITE_BACKLOG_CAP`]; a slow reader only ever stalls itself.
    Writing,
    /// No more reads; flush whatever is queued, then drop.  Frames decoded
    /// *before* the failure still execute and their responses still flush —
    /// a peer that pipelines a good frame and then garbage gets the good
    /// frame's answer before teardown.
    Closing(ConnEnd),
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
    state: ConnState,
}

impl<T> Conn<T> {
    fn new(stream: T) -> Self {
        Self {
            stream,
            reader: FrameReader::new(),
            wbuf: WriteBuf::default(),
            state: ConnState::Reading,
        }
    }

    /// Queued response bytes the socket has not accepted yet.
    fn pending(&self) -> usize {
        self.wbuf.unsent().len()
    }

    /// Whether the read phase should pull from this connection: reading
    /// states only, and only under the write-backlog cap.
    fn wants_read(&self) -> bool {
        matches!(self.state, ConnState::Reading | ConnState::Writing)
            && self.pending() < WRITE_BACKLOG_CAP
    }

    /// Pushes queued bytes into the nonblocking socket until it would
    /// block or the buffer drains, returning bytes written this call.
    /// On a fatal transport error the connection is marked for reaping
    /// (queued bytes are unsendable and dropped).
    fn flush(&mut self) -> usize
    where
        T: Write,
    {
        let mut written = 0usize;
        while self.pending() > 0 {
            match self.stream.write(self.wbuf.unsent()) {
                // A zero-length write cannot make progress; treat it as a
                // dead transport rather than spin.
                Ok(0) => {
                    self.fail_transport();
                    return written;
                }
                Ok(n) => {
                    self.wbuf.consume(n);
                    written += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.fail_transport();
                    return written;
                }
            }
        }
        if self.pending() == 0 && matches!(self.state, ConnState::Writing) {
            self.state = ConnState::Reading;
        }
        written
    }

    /// Transport death during a write: drop the unsendable backlog so the
    /// reaper collects the connection, preserving a pre-existing
    /// `WireError` verdict (the peer broke the protocol *and* vanished).
    fn fail_transport(&mut self) {
        self.wbuf.clear();
        if !matches!(self.state, ConnState::Closing(_)) {
            self.state = ConnState::Closing(ConnEnd::Done);
        }
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
    /// over the shared `store`, with the default
    /// [`DEFAULT_MAX_CONNS_PER_WORKER`] connection cap per worker.
    /// Returns once the listener is live; clients may connect immediately.
    pub fn start<S: Stm + Clone>(
        store: Arc<ShardedKv<S>>,
        addr: impl ToSocketAddrs,
        workers: usize,
    ) -> io::Result<Self> {
        Self::start_with(store, addr, workers, DEFAULT_MAX_CONNS_PER_WORKER)
    }

    /// [`Server::start`] with an explicit per-worker connection cap:
    /// connections admitted while a worker already multiplexes
    /// `max_conns_per_worker` are dropped and counted in
    /// [`StatsSnapshot::conns_rejected`].
    pub fn start_with<S: Stm + Clone>(
        store: Arc<ShardedKv<S>>,
        addr: impl ToSocketAddrs,
        workers: usize,
        max_conns_per_worker: usize,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let max_conns = max_conns_per_worker.max(1);
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
                    .spawn(move || worker_loop(&store, &rx, max_conns, &shutdown, &stats))
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

/// One worker: a poll loop multiplexing up to `max_conns` connections.
///
/// Each sweep runs admit → flush → read/decode → coalesced execute →
/// flush → reap, then yields or parks if nothing moved.  The read phase
/// appends every decodable frame from every ready connection into one
/// [`MultiBatch`]; the execute phase dispatches it under a single epoch
/// entry and scatters responses into each source connection's write
/// buffer in request order.
fn worker_loop<S: Stm + Clone>(
    store: &ShardedKv<S>,
    queue: &Receiver<TcpStream>,
    max_conns: usize,
    shutdown: &AtomicBool,
    stats: &ServerStats,
) {
    // The STM thread handle must be created on the thread that uses it.
    let mut thread = store.register();
    let mut conns: Vec<Conn<TcpStream>> = Vec::new();
    let mut multi = MultiBatch::new();
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
        // live connections, only drain what is already there.
        if conns.is_empty() {
            match queue.recv_timeout(POLL) {
                Ok(stream) => progressed |= admit(stream, &mut conns, max_conns, stats),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
        loop {
            match queue.try_recv() {
                Ok(stream) => progressed |= admit(stream, &mut conns, max_conns, stats),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    if conns.is_empty() {
                        return;
                    }
                    break;
                }
            }
        }

        // Flush before reading: freeing socket buffers early lets peers
        // that pipeline make progress within a single sweep.
        for conn in &mut conns {
            if conn.pending() > 0 {
                progressed |= conn.flush() > 0;
            }
        }

        // Read/decode: drain every decodable frame from every readable
        // connection into the shared MultiBatch, tagged by table slot.
        debug_assert!(multi.is_empty());
        for (slot, conn) in conns.iter_mut().enumerate() {
            if conn.wants_read() {
                progressed |= read_frames(conn, slot, &mut multi);
            }
        }

        // Execute: one shard-grouped dispatch, one epoch entry, covering
        // every frame the sweep found; then scatter responses per source.
        if !multi.is_empty() {
            let (frames, ops) = (multi.frame_count(), multi.op_count() as u64);
            if store.execute_multi(&mut multi, &mut thread).is_ok() {
                stats.record_dispatch(frames, ops);
                for (slot, results) in multi.frames() {
                    let conn = &mut conns[slot];
                    // Encoding can only refuse values larger than the store
                    // can hold — unreachable for store output, but a refusal
                    // must tear down rather than answer out of position.
                    if wire::encode_response_append(results, conn.wbuf.append()).is_err() {
                        conn.fail_transport();
                    } else if matches!(conn.state, ConnState::Executing) {
                        conn.state = ConnState::Writing;
                    }
                }
            } else {
                // Unreachable for frames the decoder accepted (its caps
                // equal the store's), but a store refusal must still tear
                // down every contributing connection rather than answer
                // out of position or panic.
                for slot in multi.sources().collect::<Vec<_>>() {
                    conns[slot].state = ConnState::Closing(ConnEnd::WireError);
                }
            }
            multi.clear();
            progressed = true;
        }

        // Second flush: answers computed this sweep usually fit the socket
        // buffer, so most request/response cycles complete in one sweep.
        for conn in &mut conns {
            if conn.pending() > 0 {
                progressed |= conn.flush() > 0;
            }
        }

        // Reap: closing connections leave once their queued responses are
        // flushed (or proved unsendable).  Backwards so swap_remove keeps
        // unvisited slots stable.
        for slot in (0..conns.len()).rev() {
            if let ConnState::Closing(end) = conns[slot].state {
                if conns[slot].pending() == 0 {
                    if matches!(end, ConnEnd::WireError) {
                        // ORDERING: monotonic counter; see
                        // ServerStats::snapshot.
                        stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    drop(conns.swap_remove(slot));
                }
            }
        }

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

/// Configures and admits one accepted connection into the worker's table,
/// enforcing the per-worker cap.  Returns whether the sweep made progress
/// (it did unless the queue handed us nothing — any outcome here, even a
/// rejection, is observable work).
fn admit(
    stream: TcpStream,
    conns: &mut Vec<Conn<TcpStream>>,
    max_conns: usize,
    stats: &ServerStats,
) -> bool {
    if conns.len() >= max_conns {
        // ORDERING: monotonic counter; see ServerStats::snapshot.
        stats.conns_rejected.fetch_add(1, Ordering::Relaxed);
        return true; // dropping `stream` closes it
    }
    if stream.set_nonblocking(true).is_err() {
        // A blocking socket would stall the whole sweep: unusable here.
        // ORDERING: monotonic counter; see ServerStats::snapshot.
        stats.io_errors.fetch_add(1, Ordering::Relaxed);
        return true;
    }
    if stream.set_nodelay(true).is_err() {
        // Latency nicety only — count it, keep the connection.
        // ORDERING: monotonic counter; see ServerStats::snapshot.
        stats.io_errors.fetch_add(1, Ordering::Relaxed);
    }
    // ORDERING: monotonic counter; see ServerStats::snapshot.
    stats.connections.fetch_add(1, Ordering::Relaxed);
    conns.push(Conn::new(stream));
    true
}

/// Reads and decodes everything currently available on one connection:
/// alternates buffered-frame draining with nonblocking fills, committing
/// each decoded frame into `multi` tagged with `slot`.  Returns whether any
/// byte arrived or frame decoded.
///
/// A fill that returns fewer bytes than it offered has drained the socket,
/// so the connection's turn ends there — no follow-up `read` whose only
/// answer would be `WouldBlock`.  Nothing can be stranded by that: the sweep
/// is level-triggered (every sweep reads every readable connection), so
/// bytes that land a microsecond later are found by the next sweep.  A fill
/// that came back full is followed by another, at most
/// [`MAX_FILLS_PER_SWEEP`] in all so one firehose peer cannot monopolize
/// the sweep.
///
/// Failure handling preserves the wire contract: a malformed frame rolls
/// its partial ops back out of `multi` and marks the connection
/// `Closing(WireError)` — frames committed before it still execute, and
/// their responses still flush before the reaper closes the socket.
fn read_frames<R: Read>(conn: &mut Conn<R>, slot: usize, multi: &mut MultiBatch) -> bool {
    let committed_from = multi.frame_count();
    let mut progressed = false;
    let mut fills = 0usize;
    let mut drained = false;
    'sweep: loop {
        // Drain every complete frame already buffered.
        loop {
            match conn.reader.try_frame() {
                Ok(None) => break,
                Ok(Some((start, end))) => {
                    let body = &conn.reader.buffered()[start..end];
                    match wire::decode_request_append(body, multi.request_mut()) {
                        Ok(_) => {
                            multi.commit_frame(slot);
                            progressed = true;
                        }
                        Err(_) => {
                            multi.rollback_frame();
                            conn.state = ConnState::Closing(ConnEnd::WireError);
                            break 'sweep;
                        }
                    }
                }
                Err(_) => {
                    conn.state = ConnState::Closing(ConnEnd::WireError);
                    break 'sweep;
                }
            }
        }
        if drained || fills == MAX_FILLS_PER_SWEEP {
            break;
        }
        fills += 1;
        match conn.reader.fill_nonblocking(&mut conn.stream) {
            Ok(Fill::Bytes(n)) => {
                progressed = true;
                drained = n < wire::READ_CHUNK;
            }
            Ok(Fill::WouldBlock) => break,
            Ok(Fill::Eof) => {
                conn.state = ConnState::Closing(if conn.reader.mid_frame() {
                    ConnEnd::WireError
                } else {
                    ConnEnd::Done
                });
                break;
            }
            Err(_) => {
                conn.state = ConnState::Closing(ConnEnd::Done);
                break;
            }
        }
    }
    if multi.frame_count() > committed_from && !matches!(conn.state, ConnState::Closing(_)) {
        conn.state = ConnState::Executing;
    }
    progressed
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectm_kv::BatchOp;
    use std::collections::VecDeque;

    /// A nonblocking transport replaying a script: each `read` hands out the
    /// next chunk whole (an empty chunk is EOF), an exhausted script answers
    /// `WouldBlock`, and every call is counted.
    struct Scripted {
        chunks: VecDeque<Vec<u8>>,
        reads: usize,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            match self.chunks.pop_front() {
                Some(chunk) => {
                    buf[..chunk.len()].copy_from_slice(&chunk);
                    Ok(chunk.len())
                }
                None => Err(io::ErrorKind::WouldBlock.into()),
            }
        }
    }

    fn scripted(chunks: impl IntoIterator<Item = Vec<u8>>) -> Conn<Scripted> {
        Conn::new(Scripted {
            chunks: chunks.into_iter().collect(),
            reads: 0,
        })
    }

    fn get_frame(key: u64) -> Vec<u8> {
        let mut frame = Vec::new();
        wire::encode_request(&[BatchOp::Get(key)], &mut frame).unwrap();
        frame
    }

    /// One sweep's read phase over `conn` as the worker runs it; returns
    /// `(reads issued, frames committed)`.
    fn sweep(conn: &mut Conn<Scripted>, multi: &mut MultiBatch) -> (usize, usize) {
        let (reads, frames) = (conn.stream.reads, multi.frame_count());
        read_frames(conn, 0, multi);
        (conn.stream.reads - reads, multi.frame_count() - frames)
    }

    /// The short-read rule, counted: a read that returned less than it was
    /// offered drained the socket, so the sweep does not pay for a second
    /// `read` just to be told `WouldBlock`.
    #[test]
    fn a_short_read_ends_the_sweep_without_a_follow_up_read() {
        let mut conn = scripted([get_frame(7)]);
        let mut multi = MultiBatch::new();
        assert_eq!(sweep(&mut conn, &mut multi), (1, 1));
        assert!(matches!(conn.state, ConnState::Executing));
        // The next sweep finds nothing: one read, answered WouldBlock.
        conn.state = ConnState::Reading;
        assert_eq!(sweep(&mut conn, &mut multi), (1, 0));
        assert!(matches!(conn.state, ConnState::Reading));
    }

    /// A read that filled everything it was offered may have left more in
    /// the socket, so the follow-up read *is* issued — up to the fairness
    /// bound, and then (on a later sweep) until one comes back short.
    #[test]
    fn full_reads_are_followed_up_within_the_per_sweep_bound() {
        let frame = get_frame(3);
        let full_reads = MAX_FILLS_PER_SWEEP + 2;
        let stream: Vec<u8> = frame
            .iter()
            .copied()
            .cycle()
            .take(full_reads * wire::READ_CHUNK)
            .collect();
        let mut conn = scripted(stream.chunks(wire::READ_CHUNK).map(<[u8]>::to_vec));
        let mut multi = MultiBatch::new();
        let (reads, first) = sweep(&mut conn, &mut multi);
        assert_eq!(reads, MAX_FILLS_PER_SWEEP);
        assert_eq!(first, MAX_FILLS_PER_SWEEP * wire::READ_CHUNK / frame.len());
        // Two full reads remain; the read after them is the WouldBlock.
        let (reads, second) = sweep(&mut conn, &mut multi);
        assert_eq!(reads, 3);
        assert_eq!(first + second, stream.len() / frame.len());
    }

    /// Level-triggered sweeps cannot strand or repeat a frame: wherever the
    /// bytes are cut, the frame is committed exactly once, by the sweep that
    /// receives its last byte.
    #[test]
    fn a_frame_split_at_any_offset_across_sweeps_commits_exactly_once() {
        let frame = get_frame(11);
        for cut in 1..frame.len() {
            let mut conn = scripted([frame[..cut].to_vec()]);
            let mut multi = MultiBatch::new();
            assert_eq!(sweep(&mut conn, &mut multi), (1, 0), "cut at {cut}");
            conn.stream.chunks.push_back(frame[cut..].to_vec());
            assert_eq!(sweep(&mut conn, &mut multi), (1, 1), "cut at {cut}");
            assert_eq!(sweep(&mut conn, &mut multi), (1, 0), "cut at {cut}");
        }
    }

    #[test]
    fn eof_is_a_wire_error_mid_frame_and_a_clean_close_on_a_boundary() {
        let frame = get_frame(5);
        let mut multi = MultiBatch::new();

        let mut conn = scripted([frame[..frame.len() - 1].to_vec(), Vec::new()]);
        assert_eq!(sweep(&mut conn, &mut multi), (1, 0));
        assert_eq!(sweep(&mut conn, &mut multi), (1, 0));
        assert!(matches!(conn.state, ConnState::Closing(ConnEnd::WireError)));

        let mut conn = scripted([frame, Vec::new()]);
        assert_eq!(sweep(&mut conn, &mut multi), (1, 1));
        assert_eq!(sweep(&mut conn, &mut multi), (1, 0));
        assert!(matches!(conn.state, ConnState::Closing(ConnEnd::Done)));
    }

    /// A malformed frame tears the connection down without taking the good
    /// frame before it along: that one stays committed (and is answered
    /// before the reaper closes the socket).
    #[test]
    fn a_malformed_frame_leaves_the_good_frame_before_it_committed() {
        let mut bytes = get_frame(9);
        bytes.extend_from_slice(&5u32.to_le_bytes()); // prefix: 5-byte body
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one operation …
        bytes.push(0xEE); // … with an opcode nobody defined
        let mut conn = scripted([bytes]);
        let mut multi = MultiBatch::new();
        assert_eq!(sweep(&mut conn, &mut multi), (1, 1));
        assert_eq!(multi.op_count(), 1, "the bad frame's ops were rolled back");
        assert!(matches!(conn.state, ConnState::Closing(ConnEnd::WireError)));
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
}
