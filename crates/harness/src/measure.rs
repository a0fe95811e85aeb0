//! Shared timed-run scaffolding for the throughput drivers.
//!
//! Both workload drivers (the integer-set driver of [`crate::intset`] and
//! the KV-store driver of [`crate::kv`]) measure the same way: spawn
//! workers, release them through a barrier, sleep for the configured
//! duration, raise a stop flag, and aggregate per-thread operation counts.
//!
//! Workers only check the stop flag between *batches* of operations, so
//! every thread runs up to a batch worth of extra operations after the flag
//! flips, and a straggling thread (contention, preemption, a slow batch)
//! keeps running after the others stopped.  Dividing the summed counts by
//! one shared wall-clock interval therefore skews throughput — badly so at
//! `--quick` durations, where a single 64-op batch can be a visible
//! fraction of the 30 ms window.  Instead, **each thread times its own
//! measured window** (barrier release to loop exit, covering exactly the
//! operations it counted) and the aggregate throughput is the sum of the
//! per-thread rates.
//!
//! The window-measurement logic is testable without touching the wall
//! clock: [`run_timed_with_clock`] accepts the monotonic clock as a
//! closure, and the unit tests drive it with a deterministic tick counter
//! — asserting *exact* windows instead of wall-clock thresholds that only
//! hold on an unloaded machine.
//!
//! The module also holds the [`LatencyHistogram`] the closed-loop network
//! load generator of [`crate::loadgen`] records per-batch latency in.
//! Open-loop tails (a fixed schedule, latency from each request's due
//! time) are measured by the repo benchmark's `serve_*` workloads, not
//! here.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One worker thread's contribution to a run: how many operations it
/// completed and the window in which it completed them.
#[derive(Debug, Clone, Copy)]
pub struct ThreadSample {
    /// Operations completed by this thread.
    pub ops: u64,
    /// The thread's own measured window (barrier release to loop exit); it
    /// covers every counted operation, including the post-stop batch tail.
    pub window: Duration,
}

impl ThreadSample {
    /// This thread's throughput in operations per second.
    pub fn rate(&self) -> f64 {
        if self.window.is_zero() {
            0.0
        } else {
            self.ops as f64 / self.window.as_secs_f64()
        }
    }
}

/// Runs `threads` workers for (at least) `duration` and returns each
/// thread's sample.
///
/// `make_worker` is invoked **on the worker thread itself** (so per-thread
/// contexts that are not `Send` can be created inside it) and returns the
/// batch closure; each call of the batch closure performs one batch of
/// operations and returns how many it completed.  The stop flag is checked
/// between batches.
pub fn run_timed<F, W>(threads: usize, duration: Duration, make_worker: F) -> Vec<ThreadSample>
where
    F: Fn(usize) -> W + Sync,
    W: FnMut() -> u64,
{
    let t0 = Instant::now();
    run_timed_with_clock(threads, duration, make_worker, move || t0.elapsed())
}

/// [`run_timed`] with the monotonic clock injected: `clock()` returns the
/// time elapsed since an arbitrary fixed origin, and each worker's window
/// is the difference of its two `clock()` readings (barrier release, loop
/// exit).  Production passes `Instant`-based elapsed time; tests pass a
/// deterministic tick counter, making window assertions exact instead of
/// wall-clock-dependent.  (The run's *duration* stays a real sleep — it
/// bounds how long workers run, but no test assertion depends on it.)
pub fn run_timed_with_clock<F, W, C>(
    threads: usize,
    duration: Duration,
    make_worker: F,
    clock: C,
) -> Vec<ThreadSample>
where
    F: Fn(usize) -> W + Sync,
    W: FnMut() -> u64,
    C: Fn() -> Duration + Sync,
{
    let stop = AtomicBool::new(false);
    let start_barrier = Barrier::new(threads + 1);
    std::thread::scope(|scope| {
        let stop = &stop;
        let start_barrier = &start_barrier;
        let make_worker = &make_worker;
        let clock = &clock;
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                scope.spawn(move || {
                    let mut batch = make_worker(tid);
                    start_barrier.wait();
                    let start = clock();
                    let mut ops = 0u64;
                    // ORDERING: the stop flag carries no data — workers
                    // publish their samples via join, which synchronizes.
                    while !stop.load(Ordering::Relaxed) {
                        ops += batch();
                    }
                    ThreadSample {
                        ops,
                        window: clock().saturating_sub(start),
                    }
                })
            })
            .collect();
        start_barrier.wait();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed); // ORDERING: see the load above
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

// ---------------------------------------------------------------------------
// Latency: HDR-style log-bucketed histogram
// ---------------------------------------------------------------------------

/// Sub-bucket resolution of [`LatencyHistogram`]: each power-of-two range
/// is split into `2^SUB_BUCKET_BITS` linear sub-buckets, bounding the
/// relative quantization error at `2^-SUB_BUCKET_BITS` (~3.1%).
const SUB_BUCKET_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
/// Values below this are recorded exactly (one bucket per nanosecond).
const EXACT_LIMIT: u64 = 2 * SUB_BUCKETS as u64;
/// Total buckets: the exact range plus 32 sub-buckets for every power of
/// two from `2^6` through `2^63`.
const BUCKETS: usize = EXACT_LIMIT as usize + (64 - 6) * SUB_BUCKETS;

/// An HDR-style log-bucketed latency histogram over nanosecond samples.
///
/// Fixed memory (~15 KiB), constant-time recording, full `u64` range,
/// ≤ ~3.1% relative error per sample: small values land in exact buckets,
/// larger ones in log-linear buckets (the top 5 bits after the leading
/// one select the sub-bucket).  Percentiles report a
/// bucket's **upper** edge (capped at the observed maximum), so a reported
/// p99 is never below the true p99 — the conservative direction for a
/// latency SLO.
///
/// Per-thread histograms [`LatencyHistogram::merge`] losslessly, so worker
/// threads record without synchronization and the aggregate percentiles
/// are exact over the union of samples.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }

    fn bucket_index(ns: u64) -> usize {
        if ns < EXACT_LIMIT {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros(); // >= 6 here
        let shift = msb - SUB_BUCKET_BITS;
        let sub = (ns >> shift) as usize - SUB_BUCKETS;
        EXACT_LIMIT as usize + (msb - 6) as usize * SUB_BUCKETS + sub
    }

    /// The largest value mapping to `index` — what percentiles report.
    fn bucket_upper(index: usize) -> u64 {
        if (index as u64) < EXACT_LIMIT {
            return index as u64;
        }
        let log = index - EXACT_LIMIT as usize;
        let shift = (log / SUB_BUCKETS) as u32 + 1;
        let sub = (log % SUB_BUCKETS) as u64;
        // The topmost buckets' upper edge exceeds u64 (their range ends at
        // u64::MAX); the percentile cap at the observed max applies anyway.
        match (1u64 << shift).checked_mul(SUB_BUCKETS as u64 + sub + 1) {
            Some(edge) => edge - 1,
            None => u64::MAX,
        }
    }

    /// Records one latency sample in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[Self::bucket_index(ns)] += 1;
        self.total += 1;
        self.max = self.max.max(ns);
    }

    /// Records one latency sample (saturating to `u64::MAX` nanoseconds).
    pub fn record(&mut self, latency: Duration) {
        self.record_ns(latency.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Folds another histogram into this one (lossless: buckets align).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The largest recorded sample, exact (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// The `p`-th percentile in nanoseconds (`p` in `0.0..=100.0`): the
    /// upper edge of the bucket holding the sample of rank
    /// `ceil(p/100 · count)` (at least 1), capped at the exact observed
    /// maximum — so `percentile(100.0)` *is* [`LatencyHistogram::max_ns`].
    /// Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0 * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Self::bucket_upper(index).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn rates_are_exact_for_synthetic_samples() {
        // Pure arithmetic — no clock of any kind.
        let s = ThreadSample {
            ops: 500,
            window: Duration::from_millis(250),
        };
        assert_eq!(s.rate(), 2_000.0);
        let zero = ThreadSample {
            ops: 10,
            window: Duration::ZERO,
        };
        assert_eq!(zero.rate(), 0.0, "a zero window must not divide");
    }

    /// Windows under an injected tick clock are *exact*: each worker reads
    /// the clock twice (barrier release, loop exit), so with a counter
    /// that advances one millisecond per reading, every window is a
    /// positive whole number of ticks bounded by the total number of
    /// readings — regardless of scheduling, machine load or the real
    /// duration of the run.
    #[test]
    fn windows_are_exact_under_an_injected_clock() {
        const THREADS: usize = 3;
        let ticks = AtomicU64::new(0);
        let samples = run_timed_with_clock(
            THREADS,
            // Wide enough that every worker gets scheduled at least once
            // even while the rest of the suite saturates the machine; the
            // window assertions below depend only on the injected ticks.
            Duration::from_millis(50),
            |_tid| {
                || {
                    std::hint::black_box(1 + 1);
                    1
                }
            },
            // ORDERING: the tick counter is a test clock; only its final
            // value is checked, after every worker has joined.
            || Duration::from_millis(ticks.fetch_add(1, Ordering::Relaxed)),
        );
        assert_eq!(samples.len(), THREADS);
        assert_eq!(
            // ORDERING: read after all workers joined; join synchronizes.
            ticks.load(Ordering::Relaxed),
            2 * THREADS as u64,
            "each worker reads the clock exactly twice"
        );
        for s in &samples {
            assert!(s.ops > 0);
            let millis = s.window.as_millis() as u64;
            assert!(
                (1..2 * THREADS as u64).contains(&millis),
                "window {millis}ms is not a sane tick delta"
            );
            // The rate is determined by the two readings alone.
            assert_eq!(s.rate(), s.ops as f64 / s.window.as_secs_f64());
        }
    }

    /// A clock that never advances yields zero-width windows, and the rate
    /// degrades to zero instead of dividing by zero — the behaviour the
    /// per-thread aggregation in `RunResult` relies on.
    #[test]
    fn frozen_clocks_produce_zero_windows_not_panics() {
        let samples = run_timed_with_clock(
            2,
            Duration::from_millis(1),
            |_tid| || 1,
            || Duration::from_secs(7),
        );
        for s in &samples {
            assert_eq!(s.window, Duration::ZERO);
            assert_eq!(s.rate(), 0.0);
        }
    }

    /// The production entry point still runs on the real clock; assert
    /// only load-insensitive facts about it (samples exist, work was
    /// counted) — the exact-window properties are pinned by the injected
    /// clock above.
    #[test]
    fn real_clock_smoke() {
        let samples = run_timed(2, Duration::from_millis(5), |_tid| || 1);
        assert_eq!(samples.len(), 2);
        assert!(samples.iter().all(|s| s.ops > 0));
    }

    #[test]
    fn worker_contexts_are_created_on_the_worker_thread() {
        // A non-Send context (Rc) must be constructible inside make_worker.
        let samples = run_timed(2, Duration::from_millis(5), |tid| {
            let ctx = std::rc::Rc::new(tid);
            move || {
                std::hint::black_box(*ctx);
                1
            }
        });
        assert!(samples.iter().all(|s| s.ops > 0));
    }

    /// 100 samples of 1..=100 ns pin the percentiles arithmetically: rank
    /// `ceil(p)` out of 100 distinct values.  50 and 99 sit on exact bucket
    /// edges; 100 exercises the observed-maximum cap.
    #[test]
    fn percentiles_are_exact_for_synthetic_ticks() {
        let mut h = LatencyHistogram::new();
        for ns in 1..=100u64 {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.max_ns(), 100);
        assert_eq!(h.percentile(50.0), 50);
        assert_eq!(h.percentile(99.0), 99);
        assert_eq!(h.percentile(99.9), 100, "rank 100 capped at the max");
        assert_eq!(h.percentile(100.0), 100);
        assert_eq!(h.percentile(0.0), 1, "rank clamps to the first sample");
    }

    /// Bucketed values stay within the histogram's advertised ~3.1%
    /// relative error, in the conservative (upper) direction, across the
    /// full magnitude range.
    #[test]
    fn quantization_error_is_bounded_and_upward() {
        for &ns in &[
            1u64,
            63,
            64,
            1_000,
            12_345,
            1_000_000,
            999_999_937,
            u64::MAX / 3,
        ] {
            let mut h = LatencyHistogram::new();
            h.record_ns(ns);
            // A lone sample is both p50 and max, so the cap makes it exact;
            // add a larger sample to expose the raw bucket edge.
            h.record_ns(u64::MAX);
            let p50 = h.percentile(50.0);
            assert!(p50 >= ns, "upper edge must not undershoot {ns}");
            assert!(
                (p50 - ns) as f64 <= ns as f64 / 32.0 + 1.0,
                "bucket edge {p50} too far above {ns}"
            );
        }
    }

    #[test]
    fn merge_is_lossless() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for ns in 1..=100u64 {
            if ns % 2 == 0 { &mut a } else { &mut b }.record_ns(ns);
            whole.record_ns(ns);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.max_ns(), whole.max_ns());
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(a.percentile(p), whole.percentile(p));
        }
    }

    #[test]
    fn empty_histograms_report_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.percentile(99.0), 0);
    }
}
