//! The integer-set workload driver (Section 4.4).
//!
//! Threads perform a random mix of lookups, insertions and removals with keys
//! drawn uniformly from a fixed range.  Before a run, the set is pre-filled
//! with half the keys of the range; inserts and removes are issued in equal
//! proportion so the set size stays roughly constant (about half the inserts
//! and removes fail, as in the paper).  Each thread times its own measured
//! window (see [`crate::measure`]); the reported throughput is the sum of
//! the per-thread rates.

use std::sync::Arc;
use std::time::Duration;

use crate::adapters::BenchSet;
use crate::measure::{run_timed, ThreadSample};

/// Operations between consecutive stop-flag checks.
pub(crate) const BATCH_OPS: u64 = 64;

/// Parameters of one integer-set run.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Keys are drawn uniformly from `0..key_range`.
    pub key_range: u64,
    /// Percentage of operations that are lookups (the rest splits evenly
    /// between inserts and removes).
    pub lookup_pct: u32,
    /// Number of worker threads.
    pub threads: usize,
    /// Wall-clock duration of the measured phase.
    pub duration: Duration,
    /// Whether to pre-fill the structure with half the key range.
    pub prefill: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            key_range: 65_536,
            lookup_pct: 90,
            threads: 1,
            duration: Duration::from_millis(300),
            prefill: true,
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total completed operations across all threads.
    pub total_ops: u64,
    /// Operations completed by each thread.
    pub per_thread_ops: Vec<u64>,
    /// Each thread's own measured window (covers exactly the operations that
    /// thread counted, including its post-stop batch tail).
    pub per_thread_windows: Vec<Duration>,
    /// Longest per-thread window (the run's wall-clock footprint).
    pub elapsed: Duration,
    /// Operations per second: the sum of the per-thread rates.
    pub throughput: f64,
}

impl RunResult {
    /// Aggregates per-thread samples into a run result.
    pub fn from_samples(samples: Vec<ThreadSample>) -> Self {
        let total_ops: u64 = samples.iter().map(|s| s.ops).sum();
        let throughput: f64 = samples.iter().map(|s| s.rate()).sum();
        let elapsed = samples
            .iter()
            .map(|s| s.window)
            .max()
            .unwrap_or(Duration::ZERO);
        Self {
            total_ops,
            per_thread_ops: samples.iter().map(|s| s.ops).collect(),
            per_thread_windows: samples.iter().map(|s| s.window).collect(),
            elapsed,
            throughput,
        }
    }
}

/// Cheap per-thread xorshift generator (the workload must not be bottlenecked
/// by random-number generation).
pub struct Xorshift(u64);

impl Xorshift {
    /// Seeds the generator (zero seeds are fixed up).
    pub fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    /// Next raw 64-bit draw.
    // Deliberately named after the C-style RNG convention; this is not an
    // iterator (it never ends and yields by value).
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Next draw mapped to `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One integer-set operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// Membership query.
    Lookup,
    /// Insertion.
    Insert,
    /// Removal.
    Remove,
}

/// Picks the operation for one raw 64-bit random draw: `lookup_pct` percent
/// lookups, the rest split **exactly evenly** between inserts and removes.
///
/// The split must not be derived from the residual of the percentage dice
/// (`dice % 2` over `lookup_pct..100`): for odd-sized residual ranges that
/// skews the mix — at 95% lookups it yields 40/60 insert/remove, which
/// slowly drains the structure and distorts long runs.  An independent bit
/// of the same draw gives an exact 50/50 split for every `lookup_pct`.
#[inline]
pub fn choose_op(raw: u64, lookup_pct: u32) -> SetOp {
    if raw % 100 < lookup_pct as u64 {
        SetOp::Lookup
    } else if (raw >> 32) & 1 == 0 {
        SetOp::Insert
    } else {
        SetOp::Remove
    }
}

/// Pre-fills `set` with every even key of the range (exactly half the range),
/// which keeps the expected set size identical across implementations.
pub fn prefill<B: BenchSet>(set: &B, key_range: u64) {
    let mut ctx = set.thread_ctx();
    for key in (0..key_range).step_by(2) {
        set.insert(key, &mut ctx);
    }
}

/// Runs the workload once and reports throughput.
///
/// # Panics
///
/// Panics if `cfg.threads > 1` and the implementation does not support
/// concurrency (the sequential baselines).
pub fn run_intset<B: BenchSet>(set: Arc<B>, cfg: &WorkloadConfig) -> RunResult {
    assert!(
        cfg.threads == 1 || set.supports_concurrency(),
        "sequential baseline cannot run with {} threads",
        cfg.threads
    );
    if cfg.prefill {
        prefill(&*set, cfg.key_range);
    }

    let samples = run_timed(cfg.threads, cfg.duration, |tid| {
        let mut ctx = set.thread_ctx();
        let mut rng = Xorshift::new(0x9E37_79B9 * (tid as u64 + 1));
        let set = &set;
        let cfg = cfg.clone();
        move || {
            // Issue a small batch between stop-flag checks.
            for _ in 0..BATCH_OPS {
                let key = rng.next() % cfg.key_range;
                match choose_op(rng.next(), cfg.lookup_pct) {
                    SetOp::Lookup => {
                        std::hint::black_box(set.contains(key, &mut ctx));
                    }
                    SetOp::Insert => {
                        std::hint::black_box(set.insert(key, &mut ctx));
                    }
                    SetOp::Remove => {
                        std::hint::black_box(set.remove(key, &mut ctx));
                    }
                }
            }
            BATCH_OPS
        }
    });
    RunResult::from_samples(samples)
}

/// The repetition policy of every sweep, over one data point's per-run
/// throughputs: the mean after discarding the minimum and the maximum (when
/// there are three or more runs).
///
/// # Panics
///
/// Panics if `throughputs` is empty.
pub(crate) fn trimmed_mean(mut throughputs: Vec<f64>) -> f64 {
    assert!(
        !throughputs.is_empty(),
        "a data point needs at least one run"
    );
    throughputs.sort_by(|a, b| a.partial_cmp(b).expect("throughputs are finite"));
    let trimmed: &[f64] = if throughputs.len() > 2 {
        &throughputs[1..throughputs.len() - 1]
    } else {
        &throughputs
    };
    trimmed.iter().sum::<f64>() / trimmed.len() as f64
}

/// Runs the workload `runs` times on fresh structures produced by `make_set`
/// and returns the mean throughput after discarding the minimum and maximum
/// (the paper's repetition policy uses six runs).
pub fn run_intset_repeated<B, F>(make_set: F, cfg: &WorkloadConfig, runs: usize) -> f64
where
    B: BenchSet,
    F: Fn() -> B,
{
    trimmed_mean(
        (0..runs)
            .map(|_| run_intset(Arc::new(make_set()), cfg).throughput)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::{LockFreeBench, SeqBench, StmHashBench};
    use lockfree::{LockFreeHashTable, SeqHashTable};
    use spectm::variants::ValShort;
    use spectm::Stm;
    use spectm_ds::ApiMode;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn quick_cfg(threads: usize) -> WorkloadConfig {
        WorkloadConfig {
            key_range: 512,
            lookup_pct: 80,
            threads,
            duration: Duration::from_millis(40),
            prefill: true,
        }
    }

    #[test]
    fn stm_workload_produces_positive_throughput() {
        let set = Arc::new(StmHashBench::new(ValShort::new(), 128, ApiMode::Short));
        let res = run_intset(set, &quick_cfg(2));
        assert!(res.total_ops > 0);
        assert!(res.throughput > 0.0);
        assert_eq!(res.per_thread_ops.len(), 2);
        assert_eq!(res.per_thread_windows.len(), 2);
    }

    #[test]
    fn lock_free_workload_produces_positive_throughput() {
        let set = Arc::new(LockFreeBench::new(LockFreeHashTable::new(
            128,
            txepoch::Collector::new(),
        )));
        let res = run_intset(set, &quick_cfg(2));
        assert!(res.total_ops > 0);
    }

    #[test]
    fn sequential_workload_runs_single_threaded() {
        let set = Arc::new(SeqBench::new(SeqHashTable::new(128)));
        let res = run_intset(set, &quick_cfg(1));
        assert!(res.total_ops > 0);
    }

    #[test]
    #[should_panic(expected = "sequential baseline")]
    fn sequential_workload_rejects_multiple_threads() {
        let set = Arc::new(SeqBench::new(SeqHashTable::new(128)));
        let _ = run_intset(set, &quick_cfg(2));
    }

    #[test]
    fn repeated_runs_trim_extremes() {
        let cfg = quick_cfg(1);
        let mean = run_intset_repeated(
            || StmHashBench::new(ValShort::new(), 128, ApiMode::Short),
            &cfg,
            3,
        );
        assert!(mean > 0.0);
    }

    /// A [`BenchSet`] whose second registered thread stalls on every
    /// operation: a controllable "straggler" for the measurement-window
    /// regression test below.
    struct StragglerSet {
        registrations: AtomicUsize,
        stall: Duration,
    }

    impl BenchSet for StragglerSet {
        type ThreadCtx = bool; // "am I the straggler?"

        fn thread_ctx(&self) -> bool {
            // ORDERING: registration counter only elects one straggler;
            // no data is published through it.
            self.registrations.fetch_add(1, Ordering::Relaxed) == 1
        }

        fn insert(&self, _key: u64, straggler: &mut bool) -> bool {
            if *straggler {
                std::thread::sleep(self.stall);
            }
            true
        }

        fn remove(&self, _key: u64, straggler: &mut bool) -> bool {
            if *straggler {
                std::thread::sleep(self.stall);
            }
            true
        }

        fn contains(&self, _key: u64, straggler: &mut bool) -> bool {
            if *straggler {
                std::thread::sleep(self.stall);
            }
            true
        }
    }

    /// The measured-window fix, pinned arithmetically: aggregation must be
    /// the sum of per-thread rates, not total ops over the slowest
    /// thread's window.  Synthetic samples reproduce the straggler shape
    /// exactly — a fast thread (3,000 ops in its 30 ms window) next to a
    /// straggler that took 350 ms to drain its final batch — with no clock
    /// anywhere, so the assertions are exact.
    #[test]
    fn from_samples_sums_per_thread_rates() {
        let fast = ThreadSample {
            ops: 3_000,
            window: Duration::from_millis(30),
        };
        let straggler = ThreadSample {
            ops: 64,
            window: Duration::from_millis(350),
        };
        let res = RunResult::from_samples(vec![fast, straggler]);
        assert_eq!(res.total_ops, 3_064);
        assert_eq!(res.elapsed, Duration::from_millis(350), "longest window");
        assert_eq!(res.throughput, fast.rate() + straggler.rate());
        // The pre-fix aggregate (total ops over the full wall window)
        // dilutes the fast thread's rate by the straggler's overrun.
        let old_estimate = res.total_ops as f64 / res.elapsed.as_secs_f64();
        assert!(
            res.throughput > 10.0 * old_estimate,
            "per-thread windows no longer correct the straggler skew: \
             {} vs old {}",
            res.throughput,
            old_estimate
        );
    }

    /// End-to-end companion of the arithmetic pin above: a real straggler
    /// thread needs ~`64 * 5 ms ≈ 320 ms` to drain its final batch after
    /// the 30 ms stop flag.  Every assertion here is driven by the forced
    /// sleeps (320 ms dwarfs the 30 ms phase by design), not by scheduler
    /// fairness — window-vs-duration comparisons on the *fast* thread,
    /// which depend on when the OS runs it, live in the injected-clock
    /// tests of `crate::measure` instead.
    #[test]
    fn throughput_is_not_skewed_by_post_stop_stragglers() {
        let set = Arc::new(StragglerSet {
            registrations: AtomicUsize::new(0),
            stall: Duration::from_millis(5),
        });
        let cfg = WorkloadConfig {
            key_range: 64,
            lookup_pct: 100,
            threads: 2,
            duration: Duration::from_millis(30),
            prefill: false,
        };
        let res = run_intset(set, &cfg);
        assert_eq!(res.per_thread_ops.len(), 2);
        // The straggler really did overrun the measured phase (320 ms of
        // forced sleeps against a 30 ms phase)…
        assert!(
            res.elapsed > cfg.duration * 3,
            "straggler finished too quickly ({:?}) for the regression to bite",
            res.elapsed
        );
        // …and the old aggregate (total ops over the full wall window)
        // must be a gross underestimate of the per-thread-rate aggregate.
        // The 4x margin is backed by the ~10x sleep-driven skew.
        let old_estimate = res.total_ops as f64 / res.elapsed.as_secs_f64();
        assert!(
            res.throughput > 4.0 * old_estimate,
            "per-thread windows no longer correct the straggler skew: \
             {} vs old {}",
            res.throughput,
            old_estimate
        );
    }

    /// Regression test for the insert/remove split: with 95% lookups the
    /// old `dice % 2` split sent 40/60 of the residual to insert/remove;
    /// the independent-bit split must stay balanced for every lookup_pct.
    #[test]
    fn insert_remove_split_is_balanced_for_odd_residuals() {
        for lookup_pct in [0u32, 10, 50, 90, 95, 97] {
            let mut rng = Xorshift::new(0xABCD_EF01);
            let (mut lookups, mut inserts, mut removes) = (0u64, 0u64, 0u64);
            const DRAWS: u64 = 200_000;
            for _ in 0..DRAWS {
                match choose_op(rng.next(), lookup_pct) {
                    SetOp::Lookup => lookups += 1,
                    SetOp::Insert => inserts += 1,
                    SetOp::Remove => removes += 1,
                }
            }
            let lookup_share = lookups as f64 / DRAWS as f64;
            assert!(
                (lookup_share - lookup_pct as f64 / 100.0).abs() < 0.01,
                "lookup share {lookup_share} at {lookup_pct}%"
            );
            let updates = inserts + removes;
            if updates > 0 {
                let insert_share = inserts as f64 / updates as f64;
                assert!(
                    (insert_share - 0.5).abs() < 0.02,
                    "insert/remove split {insert_share} at {lookup_pct}% lookups"
                );
            }
        }
    }
}
