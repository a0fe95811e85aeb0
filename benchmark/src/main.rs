//! The repo benchmark: one command runs one workload in one process, prints
//! every metric by name with unit and sample count, checks outputs, and
//! writes `benchmark/out/<workload>.json` (`--trace 0`, end-to-end) or
//! `benchmark/out/trace-<workload>.json` (`--trace 1`, per-layer + spans).
//! README.md in this directory is the manual; `BENCHMARK.json` at the repo
//! root is the contract.

#![forbid(unsafe_code)]

mod compare;
mod embed;
mod gen;
mod json;
mod pin;
mod probes;
mod procfs;
mod report;
mod served;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spectm::Stm;
use spectm_ds::ApiMode;
use spectm_kv::ITEM_OVERHEAD_BYTES;

use embed::Mix;
use json::{number, quote};
use report::{Report, END_TO_END, LATENCIES, PER_LAYER};
use served::{Driver, Pacing, Rig, SetupCost, Store, StoreThread};
use stats::{median, Stat};
use workload::{Kind, Spec};

const USAGE: &str = "\
Usage:
  spectm-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
  spectm-benchmark --repeat N [--seconds S] [--out DIR]
  spectm-benchmark compare BASE_DIR NEW_DIR

Workloads: serve_small serve_batch serve_churn embed_mix.
--trace 0 measures the end-to-end metrics, --trace 1 the per-layer metrics
(tracing on); --quick runs 1 s phases and stamps the output non-comparable.
--repeat runs the suite N times for each of two sets and compares them;
compare reads two directories of result files.  Both judge against the
bounds in ./BENCHMARK.json.  Run from the repo root.
";

/// Set-ups per `--trace 0` run; every end-to-end metric is the median over
/// them.
const SETUPS: usize = 5;
/// Frames the traced replay covers, unless `REPLAY_BUDGET` runs out first.
const REPLAY_FRAMES: usize = 100_000;
const REPLAY_BUDGET: Duration = Duration::from_millis(1500);
/// Requests whose spans are written out in full (the summary covers all).
const TRACE_KEEP_FRAMES: u32 = 2000;
/// Longest a run waits for a quiet box before measuring anyway.
const QUIET_WAIT: Duration = Duration::from_secs(6);

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("spectm-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(argv: &[String]) -> Result<u8, String> {
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, base, new] = argv else {
            return Err(format!("compare takes two directories\n{USAGE}"));
        };
        return compare::compare(Path::new(base), Path::new(new));
    }
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 15u64;
    let mut trace = 0u64;
    let mut quick = false;
    let mut repeat = None;
    let mut out = PathBuf::from("benchmark/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}\n{USAGE}"));
        let number = |text: &String| {
            text.parse::<u64>()
                .map_err(|_| format!("bad number {text:?} for {flag}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("a name")?.clone()),
            "--seed" => seed = number(value("a number")?)?,
            "--seconds" => seconds = number(value("a number")?)?,
            "--trace" => trace = number(value("0 or 1")?)?,
            "--repeat" => repeat = Some(number(value("a count")?)?),
            "--out" => out = PathBuf::from(value("a directory")?),
            "--quick" => quick = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(0);
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if seconds == 0 || trace > 1 {
        return Err(format!(
            "--seconds must be at least 1 and --trace 0 or 1\n{USAGE}"
        ));
    }
    if let Some(n) = repeat {
        return compare::repeat(n.max(1) as usize, seconds, &out);
    }
    let name = workload.ok_or(format!("--workload is required\n{USAGE}"))?;
    let spec = workload::find(&name).ok_or(format!("unknown workload {name:?}\n{USAGE}"))?;
    let args = Args {
        spec,
        seed,
        seconds: if quick { 3.0 } else { seconds as f64 },
        trace: trace == 1,
        quick,
        out,
    };
    // Before any thread is pinned (see `pin::allowed_cores`).
    pin::allowed_cores();
    let mut report = Report::default();
    let mut spans = Vec::new();
    match (spec.kind, args.trace) {
        (Kind::Embedded, false) => embedded_end_to_end(&args, &mut report),
        (Kind::Embedded, true) => embedded_layers(&args, &mut report),
        (_, false) => served_end_to_end(&args, &mut report)?,
        (_, true) => spans = served_layers(&args, &mut report)?,
    }
    report.set(
        "loadgen.fail_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.attempted,
    );
    emit(&args, &report, &spans)?;
    Ok(u8::from(!report.correct()))
}

/// Prints the run for a human, writes the result file, and prints the
/// contract's result line last.
fn emit(args: &Args, report: &Report, spans: &[trace::Span]) -> Result<(), String> {
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "workload {} seed {} seconds {} trace {}{}",
        args.spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.quick {
            " QUICK (not comparable)"
        } else {
            ""
        }
    );
    print!("{}", report.human(table));
    for note in &report.failure_notes {
        println!("FAILED CHECK: {note}");
    }
    let notes: Vec<String> = report.failure_notes.iter().map(|n| quote(n)).collect();
    let diagnostics: Vec<String> = report
        .diagnostics
        .iter()
        .map(|(name, value)| format!("{}: {}", quote(name), number(*value)))
        .collect();
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let mut file = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"comparable\": {},\n \
         \"available_parallelism\": {cores},\n \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"fail_frac\": {},\n \"failure_notes\": [{}],\n \"diagnostics\": {{{}}},\n \"metrics\": {}",
        quote(args.spec.name),
        args.seed,
        number(args.seconds),
        args.trace,
        !args.quick,
        report.correct(),
        report.attempted,
        report.failed,
        number(report.failed as f64 / report.attempted.max(1) as f64),
        notes.join(", "),
        diagnostics.join(", "),
        report.metrics_json(table, true, ",\n  "),
    );
    if args.trace {
        file.push_str(",\n \"trace\": ");
        file.push_str(&trace::to_json(spans, TRACE_KEEP_FRAMES));
    }
    file.push_str("}\n");
    let prefix = if args.trace { "trace-" } else { "" };
    let path = args.out.join(format!("{prefix}{}.json", args.spec.name));
    std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, file))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    println!("{}", report.result_line(table));
    Ok(())
}

/// Before anything is measured, waits for the hypervisor to leave the box
/// alone — a 250 ms window with stolen time under the per-segment limit —
/// for at most `QUIET_WAIT`.  Neighbours' bursts last seconds to minutes
/// (README.md, "Noise"); a run that starts inside one measures them.
fn wait_for_quiet(report: &mut Report) {
    let started = Instant::now();
    loop {
        let (t0, s0) = (Instant::now(), procfs::steal_s());
        std::thread::sleep(Duration::from_millis(250));
        let stolen = (procfs::steal_s() - s0) / t0.elapsed().as_secs_f64();
        if stolen <= stats::STEAL_LIMIT || started.elapsed() > QUIET_WAIT {
            break;
        }
    }
    report.diagnose("quiet_wait_s", started.elapsed().as_secs_f64());
}

/// Length of each of `phases` measured phases inside the `--seconds` budget.
fn phase_seconds(args: &Args, phases: f64) -> f64 {
    if args.quick {
        1.0
    } else {
        args.seconds / phases
    }
}

fn per_key(bytes: u64, keys: u64) -> f64 {
    bytes as f64 / keys.max(1) as f64
}

/// Items resident in a store whose values all have the workload's length.
fn resident_items(spec: &Spec, store: &Store) -> u64 {
    store.live_bytes() / (ITEM_OVERHEAD_BYTES + spec.value_len as u64)
}

fn record_server_errors(stats: &spectm_serve::StatsSnapshot, report: &mut Report) {
    report.attempted += 1;
    if stats.wire_errors + stats.io_errors + stats.conns_rejected > 0 {
        report.failed += 1;
        report.note_failure(format!(
            "server counted wire_errors={} io_errors={} conns_rejected={}",
            stats.wire_errors, stats.io_errors, stats.conns_rejected
        ));
    }
}

/// The median of one metric's values over the set-ups the hypervisor left
/// alone (`quiet`, from `stats::quiet_segments`), over all their samples.
fn across_setups(per_setup: &[Stat], quiet: &[bool]) -> Stat {
    let kept = || {
        per_setup
            .iter()
            .zip(quiet)
            .filter(|(_, &quiet)| quiet)
            .map(|(s, _)| s)
    };
    let values: Vec<f64> = kept().map(|s| s.value).collect();
    Stat {
        value: median(&values),
        samples: kept().map(|s| s.samples).sum(),
    }
}

/// `--trace 0` on a served workload, tracing off.  The system is set up
/// `SETUPS` times and each one is warmed up and driven through closed,
/// open-lo and open-hi, so that each phase gets a third of `--seconds` in
/// all; every metric is the median of the set-ups' values.  How fast a
/// given set-up runs depends on where its memory happened to land — on this
/// box `serve_batch` set-ups differ by up to 20 % inside one process — and
/// the median over the set-ups is what holds still (README.md, "Noise").
fn served_end_to_end(args: &Args, report: &mut Report) -> Result<(), String> {
    let spec = args.spec;
    let setups = if args.quick { 1 } else { SETUPS };
    let phase = phase_seconds(args, 3.0 * setups as f64);
    let mut driver = Driver::new(spec, args.seed);
    let mut setup_s = Vec::new();
    let mut mem = None;
    let mut pinned = true;
    let mut stolen_share = Vec::new();
    let mut per_setup: [Vec<Stat>; 9] = Default::default();
    for setup in 0..setups {
        let (mut rig, cost) = Rig::setup(spec)?;
        setup_s.push(cost.seconds);
        pinned &= rig.pinned;
        if setup == 0 {
            wait_for_quiet(report);
        }
        served::warm_up(&mut rig, &mut driver)?;
        let closed = served::run_phase(&mut rig, &mut driver, served::ALL_IN_FLIGHT, phase)?;
        // Memory per key, from the first set-up (a fresh process image): on
        // the preloaded workloads what loading cost; on `serve_churn`, which
        // starts empty, what the process has grown by once the cache is full
        // and churning, per resident key.
        mem.get_or_insert_with(|| {
            if spec.kind == Kind::Churn {
                let resident = resident_items(spec, &rig.store);
                let grown = procfs::rss_bytes().saturating_sub(cost.rss_before);
                Stat {
                    value: per_key(grown, resident),
                    samples: resident,
                }
            } else {
                Stat {
                    value: per_key(cost.rss_growth, spec.keys),
                    samples: spec.keys,
                }
            }
        });
        let mut lo = served::run_phase(
            &mut rig,
            &mut driver,
            Pacing::Open { rate: spec.rate_lo },
            phase,
        )?;
        let mut hi = served::run_phase(
            &mut rig,
            &mut driver,
            Pacing::Open { rate: spec.rate_hi },
            phase,
        )?;
        let (store, mut thread, server) = rig.shutdown();
        record_server_errors(&server, report);
        if spec.kind != Kind::Churn {
            served::oracle_sweep(spec, &store, &mut thread, report);
        }
        stolen_share.push(
            closed
                .stolen_share()
                .max(lo.stolen_share())
                .max(hi.stolen_share()),
        );
        let values = [
            closed.ops_per_s(),
            closed.program_cpu_us_per_op(),
            closed.hit_rate(),
            lo.latency_us(0.50),
            lo.latency_us(0.99),
            hi.latency_us(0.99),
            closed.frames_per_s(),
            lo.late_p99_us(),
            hi.late_p99_us(),
        ];
        for (all, one) in per_setup.iter_mut().zip(values) {
            all.push(one);
        }
    }
    driver.settle(report);
    let quiet = stats::quiet_segments(&stolen_share);
    let [ops, cpu, hit, p50, p99, load_p99, frames, late_lo, late_hi] =
        per_setup.map(|v| across_setups(&v, &quiet));
    report.set("setup_s", median(&setup_s), setup_s.len() as u64);
    report.set_stat("ops_per_s", ops);
    report.set_stat("cpu_us_per_op", cpu);
    report.set_stat("hit_rate", hit);
    report.set_stat("mem_bytes_per_key", mem.expect("at least one set-up"));
    for ((name, _), stat) in LATENCIES.iter().zip([p50, p99, load_p99]) {
        report.diagnose(name, stat.value);
    }
    let stolen = quiet.iter().filter(|&&q| !q).count();
    report.diagnose_flag("pinned", pinned);
    report.diagnose("stolen_setups", stolen as f64);
    report.diagnose("closed_frames_per_s", frames.value);
    report.diagnose("loadgen.late_p99_us@rate_lo", late_lo.value);
    report.diagnose("loadgen.late_p99_us@rate_hi", late_hi.value);
    Ok(())
}

/// `--trace 1` on a served workload: one set-up, the same phases (a fifth of
/// `--seconds` each) for the counters only live traffic can give, then the
/// probes and the traced replay.
fn served_layers(args: &Args, report: &mut Report) -> Result<Vec<trace::Span>, String> {
    let spec = args.spec;
    let (mut rig, cost) = Rig::setup(spec)?;
    report.diagnose_flag("pinned", rig.pinned);
    let mut driver = Driver::new(spec, args.seed);
    let phase = phase_seconds(args, 5.0);
    wait_for_quiet(report);
    served::warm_up(&mut rig, &mut driver)?;
    let cache_before = rig.store.cache_stats();
    let ops_before = driver.tally.ops;
    let closed = served::run_phase(&mut rig, &mut driver, served::ALL_IN_FLIGHT, phase)?;
    let cache = rig.store.cache_stats();
    let closed_kops = (driver.tally.ops - ops_before) as f64 / 1000.0;
    let reclamation = rig.store.stm().collector().stats();
    let grown = procfs::rss_bytes().saturating_sub(cost.rss_before);
    let resident = resident_items(spec, &rig.store);
    let live_bytes = rig.store.live_bytes();
    let mut lo = served::run_phase(
        &mut rig,
        &mut driver,
        Pacing::Open { rate: spec.rate_lo },
        phase,
    )?;
    let mut hi = served::run_phase(
        &mut rig,
        &mut driver,
        Pacing::Open { rate: spec.rate_hi },
        phase,
    )?;
    let rtt1 =
        served::run_phase(&mut rig, &mut driver, served::ONE_IN_FLIGHT, 1.0)?.latency_us(0.50);
    let (store, mut thread, server) = rig.shutdown();
    record_server_errors(&server, report);

    report.set_stat("server.frames_per_dispatch", closed.frames_per_dispatch());
    report.set_stat(
        "server.worker_cpu_us_per_frame",
        closed.worker_cpu_us_per_frame(),
    );
    report.set_stat("server.worker_cpu_frac_lo", lo.worker_cpu_frac());
    report.set("server.wire_errors", server.wire_errors as f64, 1);
    report.set("server.io_errors", server.io_errors as f64, 1);
    report.set("server.conns_rejected", server.conns_rejected as f64, 1);
    report.set_stat("server.rtt1_p50_us", rtt1);
    report.set_stat("loadgen.lat_p50_us", lo.latency_us(0.50));
    report.set_stat("loadgen.lat_p99_us", lo.latency_us(0.99));
    report.set_stat("loadgen.lat_load_p99_us", hi.latency_us(0.99));
    report.set_stat("loadgen.late_p99_us", lo.late_p99_us());
    report.set_stat("loadgen.late_hi_p99_us", hi.late_p99_us());
    report.set_stat(
        "loadgen.work_us_per_frame",
        closed.generator_work_us_per_frame(),
    );
    report.set_stat("loadgen.over_limit_frac_hi", hi.over_limit_frac());
    record_backlog(&reclamation, report);
    if spec.kind == Kind::Churn {
        // The reclaimer is stopped, so this pass is the only sweeper.
        let buckets = store.bucket_count();
        let started = Instant::now();
        store.sweep_step(buckets, &mut thread);
        let ns = started.elapsed().as_nanos() as f64;
        report.set(
            "ttl.sweep_ns_per_bucket",
            ns / buckets as f64,
            buckets as u64,
        );
        let evicted = (cache.evicted - cache_before.evicted) as f64;
        let expired = (cache.expired - cache_before.expired) as f64;
        report.set("ttl.evicted_per_kop", evicted / closed_kops, evicted as u64);
        report.set("ttl.expired_per_kop", expired / closed_kops, expired as u64);
        report.set_stat("ttl.budget_overshoot_frac", closed.budget_overshoot());
        account(report, live_bytes, grown, resident);
    } else {
        served::oracle_sweep(spec, &store, &mut thread, report);
        account(report, cost.live_bytes, cost.rss_growth, spec.keys);
    }
    driver.settle(report);

    store_shape(&store, report);
    probes::store_ops(spec, &store, &mut thread, args.seed, report);
    probes::batch_and_wire(spec, &store, &mut thread, args.seed, report);

    // The traced replay, then the same frames' worth with spans compiled
    // out; both check every result.
    let mut replay_driver = Driver::new(spec, args.seed);
    let warm = REPLAY_FRAMES / 50;
    trace::replay(
        &mut replay_driver,
        &store,
        &mut thread,
        warm,
        REPLAY_BUDGET,
        &mut trace::NoTrace,
    );
    let mut recorder = trace::Recorder::with_capacity(REPLAY_FRAMES * trace::SpanName::ALL.len());
    let (frames, traced) = trace::replay(
        &mut replay_driver,
        &store,
        &mut thread,
        REPLAY_FRAMES,
        REPLAY_BUDGET,
        &mut recorder,
    );
    let (_, untraced) = trace::replay(
        &mut replay_driver,
        &store,
        &mut thread,
        frames,
        REPLAY_BUDGET * 4,
        &mut trace::NoTrace,
    );
    replay_driver.settle(report);
    report.set(
        "loadgen.trace_overhead_frac",
        traced.as_secs_f64() / untraced.as_secs_f64() - 1.0,
        frames as u64,
    );
    report.set("loadgen.samples", frames as f64, frames as u64);
    let layers_us: f64 = trace::summarize(&recorder.spans)
        .iter()
        .filter(|s| s.name != trace::SpanName::Request)
        .map(|s| s.median_ns / 1000.0)
        .sum();
    report.set(
        "server.unattributed_us",
        rtt1.value - layers_us,
        frames as u64,
    );

    drop((thread, store));
    standalone_probes(args, report);
    Ok(recorder.spans)
}

/// `txepoch.backlog`: objects retired but not yet reclaimed.
fn record_backlog(reclamation: &txepoch::CollectorStats, report: &mut Report) {
    report.set(
        "txepoch.backlog",
        reclamation.retired.saturating_sub(reclamation.reclaimed) as f64,
        reclamation.retired as u64,
    );
}

/// `store.live_bytes_per_key` and `store.accounting_error_frac`: the
/// store's own byte account against what the process actually grew by.
fn account(report: &mut Report, live_bytes: u64, rss_growth: u64, keys: u64) {
    report.set("store.live_bytes_per_key", per_key(live_bytes, keys), keys);
    let error = (live_bytes as f64 - rss_growth as f64).abs() / (rss_growth as f64).max(1.0);
    report.set("store.accounting_error_frac", error, keys);
}

/// `map.load_factor` and `map.probe_within1_frac` of the workload's store,
/// at quiescence.
fn store_shape(store: &Store, report: &mut Report) {
    let shape = store.stats();
    report.set("map.load_factor", shape.load_factor(), shape.keys as u64);
    report.set(
        "map.probe_within1_frac",
        shape.fraction_within(1),
        shape.keys as u64,
    );
}

/// The probes that need no workload store: bare STM cells, the epoch pin,
/// and the index, map and lock-free map holding the workload's keys.
fn standalone_probes(args: &Args, report: &mut Report) {
    probes::stm_cells(report);
    probes::skiplist(args.spec, args.seed, report);
    probes::hash_map(args.spec, args.seed, report);
    probes::lockfree_kv(args.spec, args.seed, report);
}

/// One `embed_mix` set-up: the preloaded store and its counter range.
fn embed_setup(spec: &'static Spec, mode: ApiMode) -> (Arc<Store>, StoreThread, SetupCost) {
    let rss_before = procfs::rss_bytes();
    let started = Instant::now();
    let (store, mut thread) = served::build_store(spec, mode);
    let rss_growth = procfs::rss_bytes().saturating_sub(rss_before);
    let live_bytes = store.live_bytes();
    embed::load_counters(&store, &mut thread);
    let cost = SetupCost {
        seconds: started.elapsed().as_secs_f64(),
        rss_before,
        rss_growth,
        live_bytes,
    };
    (store, thread, cost)
}

/// `--trace 0` on `embed_mix`: `SETUPS` set-ups, each warmed up and run
/// closed for a third of `--seconds`; every metric is the median of the
/// set-ups' values (see `served_end_to_end`).
fn embedded_end_to_end(args: &Args, report: &mut Report) {
    let spec = args.spec;
    let setups = if args.quick { 1 } else { SETUPS };
    let seconds = phase_seconds(args, setups as f64);
    let mut setup_s = Vec::new();
    let mut pinned = true;
    let mut stolen_share = Vec::new();
    let mut per_setup: [Vec<Stat>; 4] = Default::default();
    for setup in 0..setups {
        let (store, mut thread, cost) = embed_setup(spec, ApiMode::Short);
        setup_s.push(cost.seconds);
        if setup == 0 {
            report.set(
                "mem_bytes_per_key",
                per_key(cost.rss_growth, spec.keys),
                spec.keys,
            );
            wait_for_quiet(report);
        }
        let seed = args.seed + setup as u64;
        let warm = embed::run_mix(
            spec,
            &store,
            Mix::Whole,
            seed ^ 0x3A3A,
            spec.warmup_s,
            report,
        );
        let mix = embed::run_mix(spec, &store, Mix::Whole, seed, seconds, report);
        let added = warm.counter_sum_added.wrapping_add(mix.counter_sum_added);
        embed::oracle(spec, &store, &mut thread, added, report);
        pinned &= mix.pinned;
        stolen_share.push(mix.stolen_share);
        let values = [mix.ops_per_s, mix.cpu_us_per_op, mix.p50_us, mix.p99_us];
        for (all, one) in per_setup.iter_mut().zip(values) {
            all.push(one);
        }
    }
    let quiet = stats::quiet_segments(&stolen_share);
    let [ops, cpu, p50, p99] = per_setup.map(|v| across_setups(&v, &quiet));
    report.set("setup_s", median(&setup_s), setup_s.len() as u64);
    report.set_stat("ops_per_s", ops);
    report.set_stat("cpu_us_per_op", cpu);
    // No server to load: the closed loop with both callers running *is*
    // this workload under load.
    for ((name, _), stat) in LATENCIES.iter().zip([p50, p99, p99]) {
        report.diagnose(name, stat.value);
    }
    // Every call's result was checked against what must be there.
    let checked_out = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    report.set("hit_rate", checked_out, report.attempted);
    let stolen = quiet.iter().filter(|&&q| !q).count();
    report.diagnose_flag("pinned", pinned);
    report.diagnose("stolen_setups", stolen as f64);
}

/// `--trace 1` on `embed_mix`: the STM counters of a closed run, the
/// paper's Full-versus-Short comparison, and the probes.
fn embedded_layers(args: &Args, report: &mut Report) {
    let spec = args.spec;
    let (store, mut thread, cost) = embed_setup(spec, ApiMode::Short);
    let third = phase_seconds(args, 3.0).max(2.0);
    let compare_s = if args.quick { 1.0 } else { 3.0 };
    wait_for_quiet(report);
    let warm = embed::run_mix(
        spec,
        &store,
        Mix::Whole,
        args.seed ^ 0x3A3A,
        spec.warmup_s,
        report,
    );
    let mix = embed::run_mix(spec, &store, Mix::Whole, args.seed, third, report);
    let reclamation = store.stm().collector().stats();
    report.diagnose_flag("pinned", mix.pinned);
    for ((_, name), stat) in LATENCIES.iter().zip([mix.p50_us, mix.p99_us, mix.p99_us]) {
        report.set_stat(name, stat);
    }
    report.set_stat("spectm.abort_ratio", mix.abort_ratio);
    report.set_stat("spectm.full_fallbacks_per_kop", mix.full_fallbacks_per_kop);
    record_backlog(&reclamation, report);
    // The paper's headline: the same mix through the traditional
    // interface, against the short-transaction interface, like for like.
    let short = embed::run_mix(
        spec,
        &store,
        Mix::PointCalls,
        args.seed ^ 0x5151,
        compare_s,
        report,
    );
    let (full_store, full_thread, _) = embed_setup(spec, ApiMode::Full);
    let full = embed::run_mix(
        spec,
        &full_store,
        Mix::PointCalls,
        args.seed ^ 0x5151,
        compare_s,
        report,
    );
    drop((full_thread, full_store));
    report.set(
        "spectm.full_vs_short_ops_ratio",
        full.ops_per_s.value / short.ops_per_s.value,
        full.ops_per_s.samples + short.ops_per_s.samples,
    );
    let added = warm
        .counter_sum_added
        .wrapping_add(mix.counter_sum_added)
        .wrapping_add(short.counter_sum_added);
    embed::oracle(spec, &store, &mut thread, added, report);
    account(report, cost.live_bytes, cost.rss_growth, spec.keys);
    store_shape(&store, report);
    probes::store_ops(spec, &store, &mut thread, args.seed, report);
    report.set(
        "loadgen.samples",
        mix.p50_us.samples as f64,
        mix.p50_us.samples,
    );
    drop((thread, store));
    standalone_probes(args, report);
}
