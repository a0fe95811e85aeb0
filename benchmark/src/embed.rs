//! `embed_mix`: the store driven through its own API by two caller threads —
//! the paper's territory (short RO/RW transactions on the map and the
//! skip-list index, real two-thread conflicts, no syscalls, no wire).
//!
//! Callers that wait for each call to return are a closed loop, so there are
//! no open phases: throughput is calls completed per second, and latency is
//! the per-call time of every 32nd call.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use spectm::{StatsSnapshot, StmThread};
use spectm_kv::Value;

use crate::gen::{payload, KeyDist, Xorshift};
use crate::pin;
use crate::procfs;
use crate::report::Report;
use crate::served::{Store, StoreThread};
use crate::stats::{clamp_ns, median, quiet_segments, segment_percentile, Stat};
use crate::workload::{self, Spec};

/// Every `SAMPLE_EVERY`-th call is timed (and the clock consulted for the
/// segment cut and the deadline), keeping the timer out of the other calls.
const SAMPLE_EVERY: u64 = 32;

/// The mix, in percent of calls, as cumulative thresholds.
const GET_BELOW: u64 = 65;
const PUT_BELOW: u64 = 85;
const INSERT_DEL_BELOW: u64 = 90;
const SCAN_BELOW: u64 = 95;
const SCAN_LIMIT: usize = 16;
const RMW_DELTA: u64 = 2;

/// Which calls a run draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The workload: 65 % get, 20 % put, 5 % insert+delete, 5 % scan,
    /// 5 % two-key `rmw_add`.
    Whole,
    /// The same without scan and `rmw_add`, in the same proportions: only
    /// the calls that `ApiMode` changes.  Scans and read-modify-writes are
    /// full transactions in either mode (and at the seed commit take most of
    /// the workload's time), so they would only dilute the comparison.
    PointCalls,
}

/// Loads the counter range `rmw_add` works on (the data keys are loaded by
/// `served::build_store`).
pub fn load_counters(store: &Store, thread: &mut StoreThread) {
    for i in 0..workload::COUNTERS {
        let bytes = workload::COUNTER_INIT.to_le_bytes();
        store
            .put(workload::COUNTER_BASE + i, &bytes, thread)
            .expect("counter fits");
    }
}

/// Process-wide readings the sampling thread takes at each one-second cut.
#[derive(Clone, Copy)]
struct Cut {
    t_s: f64,
    cpu_s: f64,
    steal_s: f64,
}

/// What one caller thread did.
struct WorkerOut {
    calls_per_segment: Vec<u64>,
    latency: Vec<Vec<u32>>,
    calls: u64,
    failed: u64,
    notes: Vec<String>,
    /// Calls that are full transactions by nature (scan, rmw).
    full_by_nature: u64,
    /// Total this thread added to the counter range.
    counter_sum_added: u64,
    stm: StatsSnapshot,
    /// Whether this caller got a core of its own (see `pin`).
    pinned: bool,
}

/// What a closed run of the mix measured.
pub struct MixOut {
    pub ops_per_s: Stat,
    pub cpu_us_per_op: Stat,
    pub p50_us: Stat,
    pub p99_us: Stat,
    pub abort_ratio: Stat,
    pub full_fallbacks_per_kop: Stat,
    /// Sum added to the counter range, for the conservation check.
    pub counter_sum_added: u64,
    /// Whether each caller thread got a core of its own.
    pub pinned: bool,
    /// Share of the machine the hypervisor stole over the whole run.
    pub stolen_share: f64,
}

fn worker(
    spec: &Spec,
    store: &Store,
    mix: Mix,
    seed: u64,
    tid: u64,
    seconds: f64,
    start: &Barrier,
) -> WorkerOut {
    let mut thread = store.register();
    let mut rng = Xorshift::new(seed ^ (tid + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let dist = KeyDist::new(spec.keys, spec.zipfian);
    let len = spec.value_len;
    let mut value = vec![0u8; len];
    let segments = seconds.ceil() as usize;
    let mut out = WorkerOut {
        calls_per_segment: vec![0; segments],
        latency: (0..segments).map(|_| Vec::with_capacity(1 << 17)).collect(),
        calls: 0,
        failed: 0,
        notes: Vec::new(),
        full_by_nature: 0,
        counter_sum_added: 0,
        stm: StatsSnapshot::default(),
        pinned: false,
    };
    let mut nonce = (tid + 1) << 40;
    let mut fresh = workload::FRESH_BASE + (tid << 36);
    let end_ns = (seconds * 1e9) as u64;
    out.pinned = pin::pin_self_to_nth(tid as usize);
    start.wait();
    let started = Instant::now();
    let mut segment = 0usize;
    loop {
        let sampled = out.calls % SAMPLE_EVERY == 0;
        let call_started = sampled.then(Instant::now);
        let draw = rng.below(match mix {
            Mix::Whole => 100,
            Mix::PointCalls => INSERT_DEL_BELOW,
        });
        let key = dist.key(&mut rng);
        let ok = if draw < GET_BELOW {
            matches!(store.get(key, &mut thread), Some(v) if payload::valid(key, len, &v))
        } else if draw < PUT_BELOW {
            payload::fill(key, nonce, &mut value);
            nonce += 1;
            matches!(store.put(key, &value, &mut thread), Ok(Some(old)) if payload::valid(key, len, &old))
        } else if draw < INSERT_DEL_BELOW {
            fresh += 1;
            payload::fill(fresh, nonce, &mut value);
            nonce += 1;
            let inserted = matches!(store.put(fresh, &value, &mut thread), Ok(None));
            let removed = store.del(fresh, &mut thread);
            inserted && matches!(removed, Some(v) if payload::valid(fresh, len, &v))
        } else if draw < SCAN_BELOW {
            // Data keys are dense and never deleted, so a scan that starts
            // at least SCAN_LIMIT below the top returns exactly the next
            // SCAN_LIMIT keys.
            out.full_by_nature += 1;
            let from = key.min(spec.keys - SCAN_LIMIT as u64);
            let run = store.scan(from, SCAN_LIMIT, &mut thread);
            run.len() == SCAN_LIMIT
                && run
                    .iter()
                    .enumerate()
                    .all(|(i, (k, v))| *k == from + i as u64 && payload::valid(*k, len, v))
        } else {
            out.full_by_nature += 1;
            let a = rng.below(workload::COUNTERS);
            let b = (a + 1 + rng.below(workload::COUNTERS - 1)) % workload::COUNTERS;
            let keys = [workload::COUNTER_BASE + a, workload::COUNTER_BASE + b];
            let done = matches!(store.rmw_add(&keys, RMW_DELTA, &mut thread), Ok(true));
            if done {
                out.counter_sum_added += 2 * RMW_DELTA;
            }
            done
        };
        if !ok {
            out.failed += 1;
            if out.notes.len() < 4 {
                out.notes.push(format!(
                    "thread {tid}: call {} (draw {draw}, key {key}) failed its check",
                    out.calls
                ));
            }
        }
        out.calls += 1;
        out.calls_per_segment[segment] += 1;
        if let Some(call_started) = call_started {
            out.latency[segment].push(clamp_ns(call_started.elapsed().as_nanos() as u64));
            let now = started.elapsed().as_nanos() as u64;
            if now >= end_ns {
                break;
            }
            segment = ((now / 1_000_000_000) as usize).min(segments - 1);
        }
    }
    // The handle was registered for this run, so its counters are the run's.
    out.stm = thread.stats();
    out
}

/// Runs the mix on `store` for `seconds` with the fixed two caller threads,
/// while the calling thread samples process CPU at each one-second cut.
pub fn run_mix(
    spec: &'static Spec,
    store: &Arc<Store>,
    mix: Mix,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> MixOut {
    let start = Barrier::new(workload::EMBED_THREADS + 1);
    let segments = seconds.ceil() as usize;
    let (outs, cpu_cuts) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workload::EMBED_THREADS as u64)
            .map(|tid| {
                let start = &start;
                scope.spawn(move || worker(spec, store, mix, seed, tid, seconds, start))
            })
            .collect();
        start.wait();
        let started = Instant::now();
        let cut = |t_s| Cut {
            t_s,
            cpu_s: procfs::process_cpu_s(),
            steal_s: procfs::steal_s(),
        };
        let mut cpu_cuts = vec![cut(0.0)];
        for second in 1..=segments {
            let until = std::time::Duration::from_secs(second as u64);
            std::thread::sleep(until.saturating_sub(started.elapsed()));
            cpu_cuts.push(cut(started.elapsed().as_secs_f64()));
        }
        let outs: Vec<WorkerOut> = handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect();
        (outs, cpu_cuts)
    });

    let mut calls = 0u64;
    let mut full_by_nature = 0u64;
    let mut counter_sum_added = 0u64;
    let mut stm = StatsSnapshot::default();
    let mut pinned = true;
    let mut latency: Vec<Vec<u32>> = vec![Vec::new(); segments];
    let mut calls_per_segment = vec![0u64; segments];
    for out in outs {
        calls += out.calls;
        report.attempted += out.calls;
        report.failed += out.failed;
        for note in out.notes {
            report.note_failure(note);
        }
        full_by_nature += out.full_by_nature;
        counter_sum_added = counter_sum_added.wrapping_add(out.counter_sum_added);
        stm += out.stm;
        pinned &= out.pinned;
        for (all, one) in latency.iter_mut().zip(out.latency) {
            all.extend(one);
        }
        for (all, one) in calls_per_segment.iter_mut().zip(out.calls_per_segment) {
            *all += one;
        }
    }
    // Seconds in which the hypervisor took the CPU away are left out.
    let stolen: Vec<f64> = cpu_cuts
        .windows(2)
        .map(|w| (w[1].steal_s - w[0].steal_s) / (w[1].t_s - w[0].t_s))
        .collect();
    let quiet = quiet_segments(&stolen);
    // (seconds, CPU seconds, calls) of each quiet segment.  A thread's final
    // segment ends at its last sampled call, a little past the whole second;
    // the one-second cuts of the CPU clock are close enough to divide by.
    let kept: Vec<(f64, f64, f64)> = cpu_cuts
        .windows(2)
        .zip(&calls_per_segment)
        .zip(&quiet)
        .filter(|(_, &quiet)| quiet)
        .map(|((w, &n), _)| (w[1].t_s - w[0].t_s, w[1].cpu_s - w[0].cpu_s, n as f64))
        .collect();
    let per_s: Vec<f64> = kept.iter().map(|(seconds, _, n)| n / seconds).collect();
    let cpu_us: Vec<f64> = kept.iter().map(|(_, cpu_s, n)| 1e6 * cpu_s / n).collect();
    let mut latency: Vec<Vec<u32>> = latency
        .into_iter()
        .zip(&quiet)
        .filter(|(_, &quiet)| quiet)
        .map(|(samples, _)| samples)
        .collect();
    let fallbacks = stm.full_commits.saturating_sub(full_by_nature);
    MixOut {
        ops_per_s: Stat {
            value: median(&per_s),
            samples: calls,
        },
        cpu_us_per_op: Stat {
            value: median(&cpu_us),
            samples: calls,
        },
        p50_us: segment_percentile(&mut latency, 0.50).scaled(1e-3),
        p99_us: segment_percentile(&mut latency, 0.99).scaled(1e-3),
        abort_ratio: Stat {
            value: stm.abort_ratio(),
            samples: stm.total_commits() + stm.total_aborts(),
        },
        full_fallbacks_per_kop: Stat {
            value: 1000.0 * fallbacks as f64 / calls.max(1) as f64,
            samples: calls,
        },
        counter_sum_added,
        pinned,
        stolen_share: {
            let (first, last) = (cpu_cuts[0], cpu_cuts[cpu_cuts.len() - 1]);
            (last.steal_s - first.steal_s) / (last.t_s - first.t_s)
        },
    }
}

/// Post-run oracle at quiescence: every data key present and valid, the
/// `rmw_add` counter sum conserved, every counter present, no insert+delete
/// key left behind, and the ordered index consistent with the hash shards.
pub fn oracle(
    spec: &Spec,
    store: &Store,
    thread: &mut StoreThread,
    counter_sum_added: u64,
    report: &mut Report,
) {
    crate::served::oracle_sweep(spec, store, thread, report);
    report.attempted += 3;
    let counters: Vec<Option<Value>> = (0..workload::COUNTERS)
        .map(|i| store.get(workload::COUNTER_BASE + i, thread))
        .collect();
    let sum = counters
        .iter()
        .flatten()
        .fold(0u64, |acc, v| acc.wrapping_add(v.as_u64()));
    let expected = (workload::COUNTERS * workload::COUNTER_INIT).wrapping_add(counter_sum_added);
    if counters.iter().any(Option::is_none) || sum != expected {
        report.failed += 1;
        report.note_failure(format!("oracle: counter sum {sum}, expected {expected}"));
    }
    let leftover = store.scan(workload::FRESH_BASE, 1, thread);
    if !leftover.is_empty() {
        report.failed += 1;
        report.note_failure(format!(
            "oracle: insert+delete key {} left behind",
            leftover[0].0
        ));
    }
    let consistent = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        store.assert_index_consistent();
    }));
    if consistent.is_err() {
        report.failed += 1;
        report.note_failure("oracle: ordered index diverged from the hash shards".into());
    }
}
