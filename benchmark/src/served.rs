//! The system under test as a user meets it, and the load generator for the
//! three served workloads.
//!
//! [`Rig::setup`] builds what the `spectm-serve` binary builds — a
//! `ValShort` store in `ApiMode::Short`, preloaded in-process, behind
//! `Server::start` with one worker (plus the budget and reclaimer on
//! `serve_churn`) — and connects two loopback connections.  One client
//! thread (the caller's) drives both connections through a closed phase and
//! two open-loop phases; every returned value is verified against its
//! self-certifying payload as it arrives.

use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spectm::{variants::ValShort, Stm};
use spectm_ds::ApiMode;
use spectm_kv::wire::{self, Fill, FrameReader};
use spectm_kv::{BatchOp, BatchResponse, CacheConfig, EvictionPolicy, Reclaimer, ShardedKv, Value};
use spectm_serve::{Server, StatsSnapshot};

use crate::gen::{payload, KeyDist, Xorshift};
use crate::pin;
use crate::procfs::{self, ThreadCpu};
use crate::report::Report;
use crate::stats::{clamp_ns, median, quiet_segments, segment_percentile, Schedule, Stat};
use crate::workload::{self, Kind, Spec};

pub type Store = ShardedKv<ValShort>;
pub type StoreThread = <ValShort as Stm>::Thread;

/// One connection, one frame in flight: the bare round trip.
pub const ONE_IN_FLIGHT: Pacing = Pacing::Closed { connections: 1 };
/// The closed loop proper: both connections kept in flight.
pub const ALL_IN_FLIGHT: Pacing = Pacing::Closed {
    connections: workload::CONNECTIONS,
};

/// How long a phase waits for unanswered frames after its last send before
/// declaring them failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Builds the workload's store and, for the preloaded workloads, loads every
/// key with a valid payload (nonce 0).  Shared with `embed_mix`.
pub fn build_store(spec: &Spec, mode: ApiMode) -> (Arc<Store>, StoreThread) {
    let stm = ValShort::new();
    let config = match spec.kind {
        Kind::Churn => CacheConfig {
            max_bytes: Some(workload::CHURN_MAX_BYTES),
            policy: EvictionPolicy::Freq,
            ..CacheConfig::default()
        },
        Kind::Served | Kind::Embedded => CacheConfig::default(),
    };
    let store = Arc::new(ShardedKv::with_config(
        &stm,
        workload::SHARDS,
        workload::CAPACITY_PER_SHARD,
        mode,
        config,
    ));
    if spec.kind != Kind::Churn {
        // Loaded from a thread of its own, not the caller's: in a real
        // server the data is allocated by server threads, never by the
        // thread that will generate load — whose allocator arena would
        // otherwise also be the one the worker frees every overwritten
        // value back into.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut thread = store.register();
                let mut buf = vec![0u8; spec.value_len];
                for key in 0..spec.keys {
                    payload::fill(key, 0, &mut buf);
                    store
                        .put(key, &buf, &mut thread)
                        .expect("preload value fits");
                }
            });
        });
    }
    let thread = store.register();
    (store, thread)
}

/// What setting the system up cost.
#[derive(Debug, Clone, Copy)]
pub struct SetupCost {
    pub seconds: f64,
    /// RSS before the store existed.
    pub rss_before: u64,
    /// RSS growth from before store creation to the end of preload.
    pub rss_growth: u64,
    /// `live_bytes` at the end of preload.
    pub live_bytes: u64,
}

/// One set-up system under test with its client connections.
pub struct Rig {
    pub spec: &'static Spec,
    pub store: Arc<Store>,
    /// The caller's STM handle: preload, oracle sweep and layer probes.
    pub thread: StoreThread,
    server: Server,
    reclaimer: Option<Reclaimer>,
    pub conns: Vec<ClientConn>,
    worker_cpu: ThreadCpu,
    /// Whether the generator and the program's threads got a core each.
    pub pinned: bool,
}

impl Rig {
    pub fn setup(spec: &'static Spec) -> Result<(Rig, SetupCost), String> {
        let rss_before = procfs::rss_bytes();
        let started = Instant::now();
        let (store, thread) = build_store(spec, ApiMode::Short);
        let rss_growth = procfs::rss_bytes().saturating_sub(rss_before);
        let live_bytes = store.live_bytes();
        let reclaimer = (spec.kind == Kind::Churn).then(|| {
            Reclaimer::spawn(
                Arc::clone(&store),
                Duration::from_millis(workload::RECLAIM_INTERVAL_MS),
                (store.bucket_count() / 8).max(64),
            )
        });
        let server = Server::start(Arc::clone(&store), "127.0.0.1:0", workload::SERVER_WORKERS)
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let conns = (0..workload::CONNECTIONS)
            .map(|_| ClientConn::connect(&server))
            .collect::<Result<Vec<_>, _>>()?;
        let seconds = started.elapsed().as_secs_f64();
        // The worker names itself as it starts; it is certainly up once it
        // has a connection to admit, so a few retries always find it.
        let worker_cpu = (0..1000)
            .find_map(|_| {
                ThreadCpu::find("serve-worker-0").or_else(|| {
                    std::thread::sleep(Duration::from_millis(1));
                    None
                })
            })
            .ok_or("server worker thread not found under /proc/self/task")?;
        let cost = SetupCost {
            seconds,
            rss_before,
            rss_growth,
            live_bytes,
        };
        let pinned = pin::split_generator_from_program();
        let rig = Rig {
            spec,
            store,
            thread,
            server,
            reclaimer,
            conns,
            worker_cpu,
            pinned,
        };
        Ok((rig, cost))
    }

    /// Closes the connections, stops the reclaimer and the server (joining
    /// every thread), and hands back the quiescent store with the server's
    /// final counters.
    pub fn shutdown(self) -> (Arc<Store>, StoreThread, StatsSnapshot) {
        drop(self.conns);
        if let Some(reclaimer) = self.reclaimer {
            reclaimer.stop();
        }
        let stats = self.server.shutdown();
        (self.store, self.thread, stats)
    }
}

/// A request operation as the response check needs to remember it.
#[derive(Debug, Clone, Copy)]
pub enum Sent {
    Get(u64),
    Put(u64),
}

struct InFlight {
    due_ns: u64,
    ops: u32,
}

/// One client connection: the wire codec's own `FrameReader` and
/// `encode_request`/`decode_response`, a write buffer with partial-write
/// continuation for the nonblocking phases, and the log of what was sent so
/// every response can be checked.
pub struct ClientConn {
    stream: TcpStream,
    reader: FrameReader,
    wbuf: Vec<u8>,
    wpos: usize,
    in_flight: VecDeque<InFlight>,
    sent: VecDeque<Sent>,
    /// `serve_churn`: keys whose GET missed, filled by the next frame.
    fills: Vec<u64>,
    resp: BatchResponse,
}

impl ClientConn {
    fn connect(server: &Server) -> Result<Self, String> {
        let stream = TcpStream::connect(server.local_addr())
            .and_then(|s| s.set_nodelay(true).map(|()| s))
            .map_err(|e| format!("cannot connect to the server: {e}"))?;
        Ok(Self {
            stream,
            reader: FrameReader::new(),
            wbuf: Vec::new(),
            wpos: 0,
            in_flight: VecDeque::new(),
            sent: VecDeque::new(),
            fills: Vec::new(),
            resp: BatchResponse::new(),
        })
    }

    fn set_nonblocking(&self, on: bool) -> Result<(), String> {
        self.stream
            .set_nonblocking(on)
            .map_err(|e| format!("set_nonblocking: {e}"))
    }

    /// Pushes queued request bytes into the nonblocking socket until it
    /// would block.
    fn flush(&mut self) -> Result<(), String> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err("server closed the connection mid-write".into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        Ok(())
    }
}

/// Output-check counters of the running phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub frames: u64,
    pub ops: u64,
    pub gets: u64,
    pub hits: u64,
    pub failed: u64,
    /// Nanoseconds the generator spent building frames and checking
    /// responses (its own cost, as opposed to waiting for the server).
    pub work_ns: u64,
}

/// Generates request frames from the seed and checks the responses.
pub struct Driver {
    spec: &'static Spec,
    rng: Xorshift,
    dist: KeyDist,
    nonce: u64,
    value: Vec<u8>,
    ops: Vec<BatchOp>,
    frame: Vec<u8>,
    pub tally: Tally,
    notes: Vec<String>,
}

impl Driver {
    pub fn new(spec: &'static Spec, seed: u64) -> Self {
        Self {
            spec,
            rng: Xorshift::new(seed),
            dist: KeyDist::new(spec.keys, spec.zipfian),
            nonce: 1,
            value: vec![0u8; spec.value_len],
            ops: Vec::new(),
            frame: Vec::new(),
            tally: Tally::default(),
            notes: Vec::new(),
        }
    }

    fn fail(&mut self, ops: u64, note: String) {
        self.tally.failed += ops;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Moves the output-check counts and notes into the report.
    pub fn settle(&mut self, report: &mut Report) {
        report.attempted += self.tally.ops;
        report.failed += self.tally.failed;
        for note in self.notes.drain(..) {
            report.note_failure(note);
        }
    }

    /// Builds the next frame's operations: the generated mix, preceded on
    /// `serve_churn` by `PUT_TTL` fills for up to a frame's worth of the
    /// keys `fills` holds.  Returns the operations for encoding.
    pub fn next_ops(&mut self, fills: &mut Vec<u64>) -> &[BatchOp] {
        self.ops.clear();
        let take = fills.len().min(self.spec.ops_per_frame);
        for key in fills.drain(..take) {
            payload::fill(key, self.nonce, &mut self.value);
            self.nonce += 1;
            self.ops
                .push(BatchOp::put_ttl(key, &self.value, workload::CHURN_TTL_MS));
        }
        for _ in 0..self.spec.ops_per_frame {
            let key = self.dist.key(&mut self.rng);
            if self.rng.below(100) < self.spec.put_pct {
                payload::fill(key, self.nonce, &mut self.value);
                self.nonce += 1;
                self.ops.push(BatchOp::put(key, &self.value));
            } else {
                self.ops.push(BatchOp::Get(key));
            }
        }
        &self.ops
    }

    /// Encodes the next frame for `conn`, logs what it asks, and queues it
    /// (the caller flushes or writes).  `due_ns` is the time the response
    /// will be measured from.
    fn queue_frame(&mut self, conn: &mut ClientConn, due_ns: u64) {
        let started = Instant::now();
        self.next_ops(&mut conn.fills);
        log_ops(&self.ops, &mut conn.sent);
        wire::encode_request(&self.ops, &mut self.frame).expect("generated frames are legal");
        conn.wbuf.extend_from_slice(&self.frame);
        conn.in_flight.push_back(InFlight {
            due_ns,
            ops: self.ops.len() as u32,
        });
        self.tally.work_ns += started.elapsed().as_nanos() as u64;
    }

    /// Checks one response body against the oldest unanswered frame of
    /// `conn`; returns that frame's due time.
    fn check_response(&mut self, conn: &mut ClientConn, range: (usize, usize)) -> u64 {
        let started = Instant::now();
        let frame = conn
            .in_flight
            .pop_front()
            .expect("a response without a request");
        let ops = frame.ops as usize;
        let body = &conn.reader.buffered()[range.0..range.1];
        if let Err(e) = wire::decode_response(body, &mut conn.resp) {
            conn.resp.clear();
            self.fail(0, format!("undecodable response: {e}"));
        }
        self.check_results(ops, &conn.resp, &mut conn.sent, &mut conn.fills);
        self.tally.work_ns += started.elapsed().as_nanos() as u64;
        frame.due_ns
    }

    /// Checks the results of one frame of `ops` operations against the log
    /// of what was asked (consuming that much of `sent`): the right count,
    /// every returned value a valid payload for its key, every must-exist
    /// key present.  Missed GETs of `serve_churn` go to `fills`.
    pub fn check_results(
        &mut self,
        ops: usize,
        results: &[Option<Value>],
        sent: &mut VecDeque<Sent>,
        fills: &mut Vec<u64>,
    ) {
        self.tally.frames += 1;
        self.tally.ops += ops as u64;
        if results.len() != ops {
            sent.drain(..ops);
            self.fail(
                ops as u64,
                format!("frame of {ops} ops answered by {} results", results.len()),
            );
            return;
        }
        let must_exist = self.spec.kind != Kind::Churn;
        let len = self.spec.value_len;
        for result in results {
            let (key, is_get) = match sent.pop_front().expect("one log entry per op") {
                Sent::Get(key) => (key, true),
                Sent::Put(key) => (key, false),
            };
            self.tally.gets += u64::from(is_get);
            match result {
                Some(value) if payload::valid(key, len, value) => {
                    self.tally.hits += u64::from(is_get);
                }
                Some(value) => self.fail(
                    1,
                    format!("key {key}: {} bytes failed their checksum", value.len()),
                ),
                None if must_exist => self.fail(1, format!("key {key} must exist but was absent")),
                None => {
                    if is_get {
                        fills.push(key);
                    }
                }
            }
        }
    }
}

/// Appends what `ops` asks to the log the response check consumes.
pub fn log_ops(ops: &[BatchOp], sent: &mut VecDeque<Sent>) {
    sent.extend(ops.iter().map(|op| match op {
        BatchOp::Get(key) => Sent::Get(*key),
        other => Sent::Put(other.key()),
    }));
}

/// Readings taken at every one-second cut of a phase; a segment is the
/// difference of two neighbours.
#[derive(Debug, Clone, Copy)]
struct Cut {
    t_s: f64,
    process_cpu_s: f64,
    worker_cpu_s: f64,
    generator_cpu_s: f64,
    steal_s: f64,
    tally: Tally,
    server: StatsSnapshot,
}

fn cut(server: &Server, worker_cpu: &ThreadCpu, t_s: f64, tally: Tally) -> Cut {
    Cut {
        t_s,
        process_cpu_s: procfs::process_cpu_s(),
        worker_cpu_s: worker_cpu.cpu_s(),
        generator_cpu_s: procfs::thread_cpu_s(),
        steal_s: procfs::steal_s(),
        tally,
        server: server.stats(),
    }
}

/// How a phase decides when to send.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Closed loop: each of the first `connections` connections sends its
    /// next frame when its previous response arrives, so all of them stay
    /// in flight and a slower server is offered less.
    Closed { connections: usize },
    /// Open loop: a fixed schedule of `rate` frames/s alternating over the
    /// connections whatever the server does, each frame timed from when it
    /// was *due*.
    Open { rate: u64 },
}

/// The sending half of a phase: when the next frame goes out, and how late
/// the ones sent so far went out.
struct Generator {
    started: Instant,
    duration_ns: u64,
    /// `None` in a closed loop.
    schedule: Option<Schedule>,
    closed_connections: usize,
    lateness: Vec<Vec<u32>>,
    last_send_ns: u64,
}

impl Generator {
    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Sends every frame whose time has come.  Called at the top of every
    /// polling round *and after every response*, so that a burst of
    /// responses never stands between a due frame and the wire.
    fn issue(&mut self, conns: &mut [ClientConn], driver: &mut Driver) -> Result<(), String> {
        let mut now = self.now_ns();
        let Some(schedule) = &mut self.schedule else {
            for conn in conns[..self.closed_connections].iter_mut() {
                if conn.in_flight.is_empty() && now < self.duration_ns {
                    driver.queue_frame(conn, now);
                    conn.flush()?;
                    now = self.started.elapsed().as_nanos() as u64;
                }
            }
            return Ok(());
        };
        while let Some((index, due)) = schedule.peek().filter(|&(_, due)| due <= now) {
            let conn = &mut conns[index as usize % workload::CONNECTIONS];
            if conn.in_flight.len() >= workload::MAX_IN_FLIGHT {
                break;
            }
            schedule.pop_due(now);
            let segment = segment_of(due, self.lateness.len());
            self.lateness[segment].push(clamp_ns(now - due));
            driver.queue_frame(conn, due);
            conn.flush()?;
            self.last_send_ns = now;
            now = self.started.elapsed().as_nanos() as u64;
        }
        Ok(())
    }

    /// Whether nothing more will be sent.
    fn done_sending(&self) -> bool {
        match &self.schedule {
            Some(schedule) => schedule.peek().is_none(),
            None => self.now_ns() >= self.duration_ns,
        }
    }
}

fn segment_of(at_ns: u64, segments: usize) -> usize {
    ((at_ns / 1_000_000_000) as usize).min(segments - 1)
}

/// Everything one phase recorded; the metrics are read off it below.
pub struct PhaseOut {
    cuts: Vec<Cut>,
    tally: Tally,
    /// Per one-second segment (by due or send time), per-frame latency.
    latency: Vec<Vec<u32>>,
    lateness: Vec<Vec<u32>>,
    over_limit: u64,
    unanswered: u64,
    /// Max of `live_bytes / max_bytes - 1`, sampled every 1024 frames.
    overshoot: Stat,
}

/// Runs one phase of `seconds` on the calling thread — the one load
/// generator thread — over nonblocking sockets: send what is due, flush,
/// poll both connections for responses, check each as it arrives.
///
/// The generator polls rather than blocks in both loops: on a small
/// virtual machine the wake-up of a blocked reader costs tens to hundreds of
/// microseconds and varies with the host, which would drown the server's
/// own cost (README.md, "Noise").
pub fn run_phase(
    rig: &mut Rig,
    driver: &mut Driver,
    pacing: Pacing,
    seconds: f64,
) -> Result<PhaseOut, String> {
    let Rig {
        conns,
        server,
        worker_cpu,
        spec,
        store,
        ..
    } = rig;
    for conn in conns.iter() {
        conn.set_nonblocking(true)?;
    }
    let duration_ns = (seconds * 1e9) as u64;
    let whole_seconds = seconds.ceil() as usize;
    let mut latency: Vec<Vec<u32>> = vec![Vec::new(); whole_seconds];
    let lateness = latency.clone();
    let mut generator = Generator {
        started: Instant::now(),
        duration_ns,
        schedule: match pacing {
            Pacing::Open { rate } => Some(Schedule::new(rate, duration_ns)),
            Pacing::Closed { .. } => None,
        },
        closed_connections: match pacing {
            Pacing::Closed { connections } => connections,
            Pacing::Open { .. } => 0,
        },
        lateness,
        last_send_ns: 0,
    };
    let limit_ns = spec.limit_us * 1000;
    let budget = store.config().max_bytes;
    let start_tally = driver.tally;
    let mut out = PhaseOut {
        cuts: vec![cut(server, worker_cpu, 0.0, driver.tally)],
        tally: Tally::default(),
        latency: Vec::new(),
        lateness: Vec::new(),
        over_limit: 0,
        unanswered: 0,
        overshoot: Stat {
            value: 0.0,
            samples: 0,
        },
    };
    let mut next_cut_ns = 1_000_000_000u64;
    loop {
        generator.issue(conns, driver)?;
        let frames_before = driver.tally.frames;
        let mut waiting = false;
        for index in 0..conns.len() {
            conns[index].flush()?;
            if conns[index].in_flight.is_empty() {
                continue;
            }
            waiting = true;
            loop {
                let conn = &mut conns[index];
                let frame = conn.reader.try_frame();
                match frame.map_err(|e| format!("malformed response frame: {e}"))? {
                    Some(range) => {
                        let from = driver.check_response(conn, range);
                        let lat = generator.now_ns().saturating_sub(from);
                        out.over_limit += u64::from(lat > limit_ns);
                        latency[segment_of(from, whole_seconds)].push(clamp_ns(lat));
                        if let Some(max_bytes) = budget.filter(|_| driver.tally.frames % 1024 == 0)
                        {
                            let over = store.live_bytes() as f64 / max_bytes as f64 - 1.0;
                            out.overshoot.value = out.overshoot.value.max(over);
                            out.overshoot.samples += 1;
                        }
                        generator.issue(conns, driver)?;
                    }
                    None => match conn.reader.fill_nonblocking(&mut conn.stream) {
                        Ok(Fill::Bytes(_)) => {}
                        Ok(Fill::WouldBlock) => break,
                        Ok(Fill::Eof) => {
                            return Err("server closed the connection with responses due".into())
                        }
                        Err(e) => return Err(format!("reading a response: {e}")),
                    },
                }
            }
        }
        let now = generator.now_ns();
        if now >= next_cut_ns && out.cuts.len() <= whole_seconds {
            out.cuts
                .push(cut(server, worker_cpu, now as f64 / 1e9, driver.tally));
            next_cut_ns = (now / 1_000_000_000 + 1) * 1_000_000_000;
        }
        let done_sending = generator.done_sending();
        if done_sending && !waiting {
            break;
        }
        let give_up_ns = generator.last_send_ns.max(duration_ns) + DRAIN_TIMEOUT.as_nanos() as u64;
        if done_sending && now > give_up_ns {
            break; // whatever is still unanswered is counted below
        }
        if driver.tally.frames == frames_before {
            // Nothing arrived this round: offer the core to whatever else
            // the box needs to run, as the server's worker does between
            // sweeps.  With the core to itself this is a no-op syscall.
            std::thread::yield_now();
        }
    }
    for conn in conns.iter_mut() {
        for frame in conn.in_flight.drain(..) {
            out.unanswered += 1;
            driver.tally.ops += u64::from(frame.ops);
            driver.fail(u64::from(frame.ops), "frame never answered".into());
        }
        conn.sent.clear();
    }
    if out.cuts.len() < 2 {
        let now_s = generator.now_ns() as f64 / 1e9;
        out.cuts.push(cut(server, worker_cpu, now_s, driver.tally));
    }
    out.tally = Tally {
        frames: driver.tally.frames - start_tally.frames,
        ops: driver.tally.ops - start_tally.ops,
        gets: driver.tally.gets - start_tally.gets,
        hits: driver.tally.hits - start_tally.hits,
        failed: driver.tally.failed - start_tally.failed,
        work_ns: driver.tally.work_ns - start_tally.work_ns,
    };
    out.latency = latency;
    out.lateness = generator.lateness;
    Ok(out)
}

/// The per-second sample vectors of the quiet segments (a second past the
/// last cut — the drain — counts as quiet).
fn quiet_only<'a>(
    segments: &'a mut [Vec<u32>],
    quiet: &'a [bool],
) -> impl Iterator<Item = &'a mut Vec<u32>> {
    segments
        .iter_mut()
        .enumerate()
        .filter(|(i, _)| quiet.get(*i).copied().unwrap_or(true))
        .map(|(_, samples)| samples)
}

fn d(before: u64, after: u64) -> f64 {
    (after - before) as f64
}

impl PhaseOut {
    /// Which one-second segments the hypervisor left alone.
    fn quiet(&self) -> Vec<bool> {
        let stolen: Vec<f64> = self
            .cuts
            .windows(2)
            .map(|w| (w[1].steal_s - w[0].steal_s) / (w[1].t_s - w[0].t_s))
            .collect();
        quiet_segments(&stolen)
    }

    /// Share of the machine the hypervisor stole over the whole phase.
    pub fn stolen_share(&self) -> f64 {
        let (first, last) = (&self.cuts[0], &self.cuts[self.cuts.len() - 1]);
        (last.steal_s - first.steal_s) / (last.t_s - first.t_s)
    }

    /// Median over the quiet one-second segments of `f(before, after)`.
    fn over_segments(&self, samples: u64, f: impl Fn(&Cut, &Cut) -> f64) -> Stat {
        let per_segment: Vec<f64> = self
            .cuts
            .windows(2)
            .zip(self.quiet())
            .filter(|(_, quiet)| *quiet)
            .map(|(w, _)| f(&w[0], &w[1]))
            .collect();
        Stat {
            value: median(&per_segment),
            samples,
        }
    }

    pub fn ops_per_s(&self) -> Stat {
        self.over_segments(self.tally.ops, |a, b| {
            d(a.tally.ops, b.tally.ops) / (b.t_s - a.t_s)
        })
    }

    pub fn frames_per_s(&self) -> Stat {
        self.over_segments(self.tally.frames, |a, b| {
            d(a.tally.frames, b.tally.frames) / (b.t_s - a.t_s)
        })
    }

    /// CPU the *program under test* spent per operation: the process's user
    /// plus system time less the load generator thread's own (which polls,
    /// so its time says nothing).  Spinning while idle counts — that is
    /// what this metric is there to catch.
    pub fn program_cpu_us_per_op(&self) -> Stat {
        self.over_segments(self.tally.ops, |a, b| {
            let process = b.process_cpu_s - a.process_cpu_s;
            let generator = b.generator_cpu_s - a.generator_cpu_s;
            1e6 * (process - generator) / d(a.tally.ops, b.tally.ops)
        })
    }

    pub fn hit_rate(&self) -> Stat {
        self.over_segments(self.tally.gets, |a, b| {
            d(a.tally.hits, b.tally.hits) / d(a.tally.gets, b.tally.gets)
        })
    }

    pub fn worker_cpu_us_per_frame(&self) -> Stat {
        self.over_segments(self.tally.frames, |a, b| {
            1e6 * (b.worker_cpu_s - a.worker_cpu_s) / d(a.tally.frames, b.tally.frames)
        })
    }

    /// Server worker CPU seconds per wall second.
    pub fn worker_cpu_frac(&self) -> Stat {
        self.over_segments(self.tally.frames, |a, b| {
            (b.worker_cpu_s - a.worker_cpu_s) / (b.t_s - a.t_s)
        })
    }

    pub fn frames_per_dispatch(&self) -> Stat {
        self.over_segments(self.tally.frames, |a, b| {
            d(a.server.batches, b.server.batches) / d(a.server.dispatches, b.server.dispatches)
        })
    }

    /// Time the generator spent building and checking, per frame.
    pub fn generator_work_us_per_frame(&self) -> Stat {
        self.over_segments(self.tally.frames, |a, b| {
            d(a.tally.work_ns, b.tally.work_ns) / 1000.0 / d(a.tally.frames, b.tally.frames)
        })
    }

    pub fn budget_overshoot(&self) -> Stat {
        self.overshoot
    }

    /// Per-frame latency percentile in µs: within each one-second segment,
    /// then the median across segments.
    pub fn latency_us(&mut self, p: f64) -> Stat {
        let quiet = self.quiet();
        segment_percentile(quiet_only(&mut self.latency, &quiet), p).scaled(1e-3)
    }

    /// How late the generator sent frames against the schedule, p99 in µs.
    pub fn late_p99_us(&mut self) -> Stat {
        let quiet = self.quiet();
        segment_percentile(quiet_only(&mut self.lateness, &quiet), 0.99).scaled(1e-3)
    }

    /// Share of frames slower than the workload's limit; an unanswered
    /// frame counts as over.
    pub fn over_limit_frac(&self) -> Stat {
        let frames = self.tally.frames + self.unanswered;
        Stat {
            value: (self.over_limit + self.unanswered) as f64 / frames.max(1) as f64,
            samples: frames,
        }
    }
}

/// Closed-loop traffic that is not measured: lets caches fill, the
/// allocator settle and (on `serve_churn`) eviction and expiry reach steady
/// state.  Runs for `spec.warmup_s`, longer if eviction has not begun.
pub fn warm_up(rig: &mut Rig, driver: &mut Driver) -> Result<(), String> {
    let started = Instant::now();
    loop {
        run_phase(rig, driver, ALL_IN_FLIGHT, rig.spec.warmup_s)?;
        let evicting = rig.store.cache_stats().evicted > 0;
        if rig.spec.kind != Kind::Churn || evicting {
            return Ok(());
        }
        if started.elapsed() > Duration::from_secs(20) {
            return Err("serve_churn: eviction never began during warm-up".into());
        }
    }
}

/// Post-run oracle sweep at quiescence over a preloaded workload's store:
/// every preloaded key is present and holds a valid payload.  Counts one
/// attempted check per key.
pub fn oracle_sweep(spec: &Spec, store: &Store, thread: &mut StoreThread, report: &mut Report) {
    for key in 0..spec.keys {
        report.attempted += 1;
        match store.get(key, thread) {
            Some(value) if payload::valid(key, spec.value_len, &value) => {}
            Some(_) => {
                report.failed += 1;
                report.note_failure(format!("oracle: key {key} holds an invalid payload"));
            }
            None => {
                report.failed += 1;
                report.note_failure(format!("oracle: preloaded key {key} is gone"));
            }
        }
    }
}
