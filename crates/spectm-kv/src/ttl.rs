//! TTL and eviction support types: the store's clock, the cache
//! configuration, and the background reclaimer thread.
//!
//! The mechanism lives in [`crate::map`] (every item carries a deadline
//! word beside its value word and a CLOCK byte in its header) and the
//! policy lives in [`crate::ShardedKv`] (lazy
//! expiry on read, [`crate::ShardedKv::sweep_step`] incremental sweeps,
//! byte-budget eviction).  This module holds the pieces around them:
//!
//! * [`Clock`] — the millisecond time source deadlines are computed
//!   against.  Production uses a monotonic clock anchored at store
//!   creation; tests inject a manually advanced counter so expiry is
//!   deterministic.
//! * [`CacheConfig`] — byte budget, default TTL, eviction policy, clock.
//! * [`Reclaimer`] — a background thread that registers with the store's
//!   STM and drives [`crate::ShardedKv::sweep_step`] on an interval, the
//!   way Pelikan's segment reclaimer walks TTL buckets in the background,
//!   and counts its work ([`ReclaimerStats`]: sweeps, buckets scanned,
//!   busy time).
//!
//! A sweep step pays per entry, not per bucket word: it claims its whole
//! run of home buckets with one cursor move and walks it in 64-bucket
//! chunks, each under one epoch pin, with every single-location read an
//! inlined load.  The walk prefetches each occupied slot's entry; keys,
//! deadlines and CLOCK bytes are read after the chunk's walk, bytes are
//! halved under its pin with relaxed stores, and removals run after the
//! pin is dropped.  DESIGN.md ("The sweep walk and what it
//! costs") has the cost per bucket, per entry and per removal.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spectm::Stm;

use crate::store::ShardedKv;

/// The millisecond time source TTL deadlines are computed against.
///
/// Cloning a clock shares its origin: two clones always agree on
/// [`Clock::now_ms`], which is what lets the store, its reclaimer, and a
/// test harness reason about the same deadlines.
#[derive(Clone)]
pub struct Clock(ClockInner);

#[derive(Clone)]
enum ClockInner {
    /// Milliseconds elapsed since the clock was created (monotonic, never
    /// jumps backwards).
    Monotonic(Instant),
    /// Milliseconds read from a shared counter advanced by hand — the
    /// deterministic test clock.
    Manual(Arc<AtomicU64>),
}

impl Clock {
    /// A monotonic clock starting at zero now.
    pub fn monotonic() -> Self {
        Clock(ClockInner::Monotonic(Instant::now()))
    }

    /// A manually driven clock reading the shared counter (store the
    /// milliseconds to advance time).  Deterministic-test support.
    pub fn manual(ms: &Arc<AtomicU64>) -> Self {
        Clock(ClockInner::Manual(Arc::clone(ms)))
    }

    /// Milliseconds on this clock.
    #[inline]
    pub fn now_ms(&self) -> u64 {
        match &self.0 {
            ClockInner::Monotonic(origin) => origin.elapsed().as_millis() as u64,
            // ORDERING: the manual clock is a test convenience; a slightly
            // stale read only delays an expiry by one observation.
            ClockInner::Manual(ms) => ms.load(Ordering::Relaxed),
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::monotonic()
    }
}

impl std::fmt::Debug for Clock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            ClockInner::Monotonic(_) => write!(f, "Clock::Monotonic"),
            ClockInner::Manual(ms) => {
                // ORDERING: debug formatting; any recent value will do.
                write!(f, "Clock::Manual({}ms)", ms.load(Ordering::Relaxed))
            }
        }
    }
}

/// How the sweep picks victims once the byte budget is exceeded.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// CLOCK-style second chance over each entry's frequency byte, which
    /// its hits bump: a live key with a non-zero byte is spared (and its
    /// byte halved) and the hand moves on; only cold keys — not hit since
    /// their byte last decayed to zero — are evicted.  Under skewed
    /// traffic this keeps the hot working set resident.
    #[default]
    Freq,
    /// Evict whatever keys the sweep's hand reaches next, ignoring their
    /// frequency bytes — the baseline the frequency policy is measured
    /// against.
    Fifo,
}

/// Cache behaviour of a [`ShardedKv`]: byte budget, default TTL, eviction
/// policy, and the clock deadlines are computed against.
///
/// The default configuration disables everything: no budget, no default
/// TTL, a monotonic clock — the store behaves exactly like the pre-TTL
/// store unless asked otherwise.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Soft ceiling on [`ShardedKv::live_bytes`]; `None` disables
    /// eviction.  Writes may overshoot between sweeps — the invariant is
    /// that accounting is at or under the budget **after** a sweep.  A
    /// budget also caps the store's table size (see
    /// [`ShardedKv::with_config`]).
    pub max_bytes: Option<u64>,
    /// TTL applied to puts that do not carry their own; `0` means entries
    /// never expire by default.
    pub default_ttl_ms: u64,
    /// Victim selection once `max_bytes` is exceeded.
    pub policy: EvictionPolicy,
    /// Time source for deadlines.
    pub clock: Clock,
}

impl CacheConfig {
    /// Whether this is cache mode: a byte budget or a default TTL is set,
    /// so the store keeps cache counters and byte accounting, and a server
    /// runs a reclaimer.
    pub fn enabled(&self) -> bool {
        self.max_bytes.is_some() || self.default_ttl_ms > 0
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            max_bytes: None,
            default_ttl_ms: 0,
            policy: EvictionPolicy::Freq,
            clock: Clock::monotonic(),
        }
    }
}

/// Snapshot of a store's cache counters (see
/// [`ShardedKv::cache_stats`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads that returned a live value.
    pub hits: u64,
    /// Reads that found nothing (absent or expired).
    pub misses: u64,
    /// Entries removed because their deadline passed (lazily on read or by
    /// a sweep).
    pub expired: u64,
    /// Live entries removed by byte-budget eviction.
    pub evicted: u64,
    /// Current live-byte accounting (payload bytes plus the fixed per-item
    /// overhead).
    pub live_bytes: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 1.0 when no reads were recorded.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }
}

/// What one [`ShardedKv::sweep_step`] call did (test and logging support).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SweepOutcome {
    /// Home buckets visited by the expiry pass.
    pub scanned: usize,
    /// Entries removed because their deadline had passed.
    pub expired: u64,
    /// Live entries removed by byte-budget eviction.
    pub evicted: u64,
}

/// Cumulative work of a [`Reclaimer`] (see [`Reclaimer::stats`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReclaimerStats {
    /// [`ShardedKv::sweep_step`] calls completed.
    pub sweeps: u64,
    /// Home buckets their expiry passes scanned.
    pub buckets: u64,
    /// Wall-clock nanoseconds spent inside those calls.
    pub busy_ns: u64,
}

/// The counters behind [`ReclaimerStats`], written by the reclaimer thread
/// alone.
#[derive(Default)]
struct ReclaimerCounters {
    sweeps: AtomicU64,
    buckets: AtomicU64,
    busy_ns: AtomicU64,
}

/// A background thread driving [`ShardedKv::sweep_step`] on an interval.
///
/// The reclaimer registers its own STM thread over the shared store, so it
/// participates in epoch reclamation and conflict resolution exactly like a
/// worker; the store needs no special synchronization with it.  Dropping
/// the handle (or calling [`Reclaimer::stop`]) shuts the thread down.
pub struct Reclaimer {
    shutdown: Arc<AtomicBool>,
    counters: Arc<ReclaimerCounters>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Reclaimer {
    /// Spawns the reclaimer: every `interval` it sweeps `buckets_per_sweep`
    /// home buckets (expiry pass; then eviction while the store is over
    /// budget).
    pub fn spawn<S>(store: Arc<ShardedKv<S>>, interval: Duration, buckets_per_sweep: usize) -> Self
    where
        S: Stm + Clone + Send + Sync + 'static,
    {
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ReclaimerCounters::default());
        let flag = Arc::clone(&shutdown);
        let record = Arc::clone(&counters);
        let handle = std::thread::Builder::new()
            .name("kv-reclaimer".into())
            .spawn(move || {
                let mut thread = store.register();
                // ORDERING: the flag is a plain shutdown latch; the join in
                // `stop` is the synchronization point.
                while !flag.load(Ordering::Relaxed) {
                    let started = Instant::now();
                    let outcome = store.sweep_step(buckets_per_sweep, &mut thread);
                    let busy = started.elapsed().as_nanos() as u64;
                    for (counter, n) in [
                        (&record.sweeps, 1),
                        (&record.buckets, outcome.scanned as u64),
                        (&record.busy_ns, busy),
                    ] {
                        // ORDERING: relaxed statistics counters (see `stats`).
                        counter.fetch_add(n, Ordering::Relaxed);
                    }
                    std::thread::park_timeout(interval);
                }
            })
            .expect("spawn kv-reclaimer");
        Self {
            shutdown,
            counters,
            handle: Some(handle),
        }
    }

    /// The reclaimer's work so far.  Each counter is exact; read while the
    /// thread runs, they may be one sweep apart.
    pub fn stats(&self) -> ReclaimerStats {
        let read = |counter: &AtomicU64| {
            // ORDERING: independent monotonic counters; a snapshot needs no
            // cross-counter consistency (and after `stop`'s join, none is
            // missing).
            counter.load(Ordering::Relaxed)
        };
        ReclaimerStats {
            sweeps: read(&self.counters.sweeps),
            buckets: read(&self.counters.buckets),
            busy_ns: read(&self.counters.busy_ns),
        }
    }

    /// Stops and joins the reclaimer thread, returning its final counters.
    pub fn stop(mut self) -> ReclaimerStats {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        if let Some(handle) = self.handle.take() {
            // ORDERING: see `spawn`.
            self.shutdown.store(true, Ordering::Relaxed);
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl Drop for Reclaimer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}
