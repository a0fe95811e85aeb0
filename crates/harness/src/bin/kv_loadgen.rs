//! Network load generator for a running `spectm-serve` server (see
//! EXPERIMENTS.md § "The latency sweep" for the recipe).
//!
//! Preloads the key space over the wire, then sweeps the selected YCSB
//! mixes × connection counts in a closed loop and prints one TSV row per
//! (mix, connection count) with batch-latency percentiles from the
//! log-bucketed histogram.  Open-loop tails are the repo benchmark's
//! `serve_*` workloads.  With `--verify`, every returned value is
//! checksum-verified during the run and a full oracle sweep of the key
//! space runs at the end; any failure exits non-zero.

use std::time::Duration;

use harness::kv::{KeyDist, KvMix, KvWorkloadConfig, ValueSize};
use harness::loadgen::{preload, run_loadgen, verify_sweep, LoadgenConfig, WireConn};
use spectm_kv::wire::MAX_WIRE_OPS;

const USAGE: &str = "\
Usage: kv-loadgen --addr HOST:PORT [OPTIONS]

Drive a spectm-serve server over the batch wire protocol in a closed loop
and report p50/p99/p999 batch latency.

Options:
  --addr HOST:PORT    server address (required; spectm-serve prints it and
                      can write it to a file via --port-file)
  --workload a,b,c,x  mixes to sweep: a=update-heavy, b=read-heavy,
                      c=read-only, x=read-through cache churn (gets, with
                      fill puts for the previous batch's misses; point the
                      run at a server with --max-bytes to measure eviction)
                      (default a,b,c)
  --connections N     client connections, dealt round-robin across the
                      client threads (default 4)
  --threads N         client threads driving those connections (default:
                      min(connections, available cores); capped at
                      --connections)
  --sweep-connections A,B,C
                      sweep connection counts instead of a single
                      --connections value: one TSV row per (mix,
                      connection count) — the scaling-curve one-liner
  --duration-ms N     measured duration per run (default 500)
  --batch N           operations per request frame (default 16, max 128)
  --keys N            key-space size, preloaded before the runs (default 65536)
  --dist NAME         key distribution: uniform, zipfian or latest
                      (default uniform)
  --value-size SPEC   payload lengths: fixed:N, uniform:A..B or zipf
                      (default fixed:8)
  --ttl-ms N          attach an N-millisecond TTL to every churn fill put
                      (rides the PUT_TTL opcode; 0 = immortal, the default)
  --verify            checksum-verify every returned value and replay an
                      oracle sweep over the key space afterwards
  --help              print this help
";

fn die(msg: &str) -> ! {
    eprintln!("kv-loadgen: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(value) = value else {
        die(&format!("{flag} needs a value"));
    };
    match value.parse() {
        Ok(v) => v,
        Err(_) => die(&format!("bad value {value:?} for {flag}")),
    }
}

fn main() {
    let mut addr: Option<String> = None;
    let mut mixes = vec![KvMix::UpdateHeavy, KvMix::ReadHeavy, KvMix::ReadOnly];
    let mut connections = 4usize;
    let mut threads: Option<usize> = None;
    let mut sweep_connections: Option<Vec<usize>> = None;
    let mut duration_ms = 500u64;
    let mut batch = 16usize;
    let mut keys = 65_536u64;
    let mut dist = KeyDist::Uniform;
    let mut value_size = ValueSize::default();
    let mut ttl_ms = 0u64;
    let mut verify = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(parse(&arg, args.next())),
            "--workload" => {
                let raw: String = parse(&arg, args.next());
                let parsed: Vec<KvMix> = raw
                    .split(',')
                    .filter_map(|s| {
                        let s = s.trim();
                        s.chars()
                            .next()
                            .filter(|_| s.len() == 1)
                            .and_then(KvMix::from_ycsb_letter)
                            .filter(|m| m.supports_batching() || *m == KvMix::Churn)
                    })
                    .collect();
                if parsed.is_empty() || parsed.len() != raw.split(',').count() {
                    die(&format!(
                        "`--workload {raw}` must be a comma list of the wire mixes a, b, c, x"
                    ));
                }
                mixes = parsed;
            }
            "--connections" => connections = parse(&arg, args.next()),
            "--threads" => threads = Some(parse(&arg, args.next())),
            "--sweep-connections" => {
                let raw: String = parse(&arg, args.next());
                let parsed: Vec<usize> = raw
                    .split(',')
                    .filter_map(|s| s.trim().parse().ok())
                    .filter(|&n| n > 0)
                    .collect();
                if parsed.is_empty() || parsed.len() != raw.split(',').count() {
                    die(&format!(
                        "`--sweep-connections {raw}` must be a comma list of positive counts"
                    ));
                }
                sweep_connections = Some(parsed);
            }
            "--duration-ms" => duration_ms = parse(&arg, args.next()),
            "--batch" => batch = parse(&arg, args.next()),
            "--keys" => keys = parse(&arg, args.next()),
            "--dist" => {
                let raw: String = parse(&arg, args.next());
                match KeyDist::from_name(raw.trim()) {
                    Some(d) => dist = d,
                    None => die(&format!("`--dist {raw}` is not uniform, zipfian or latest")),
                }
            }
            "--value-size" => {
                let raw: String = parse(&arg, args.next());
                match ValueSize::from_flag(raw.trim()) {
                    Some(vs) => value_size = vs,
                    None => die(&format!(
                        "`--value-size {raw}` is not fixed:N, uniform:A..B or zipf"
                    )),
                }
            }
            "--ttl-ms" => ttl_ms = parse(&arg, args.next()),
            "--verify" => verify = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    let Some(addr) = addr else {
        die("--addr is required");
    };
    if batch == 0 || batch > MAX_WIRE_OPS {
        die(&format!("--batch must be in 1..={MAX_WIRE_OPS}"));
    }
    if connections == 0 {
        die("--connections must be at least 1");
    }
    if threads == Some(0) {
        die("--threads must be at least 1");
    }
    // One row per (mix, connection count); a plain run is a single-point
    // sweep.
    let conn_points = sweep_connections.unwrap_or_else(|| vec![connections]);
    let default_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8);

    let mut control = match WireConn::connect(addr.as_str()) {
        Ok(conn) => conn,
        Err(e) => {
            eprintln!("kv-loadgen: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let base = KvWorkloadConfig {
        num_keys: keys,
        dist,
        value_size,
        verify,
        default_ttl_ms: ttl_ms,
        ..KvWorkloadConfig::sized_for(keys)
    };
    if let Err(e) = preload(&mut control, &base) {
        eprintln!("kv-loadgen: preload failed: {e}");
        std::process::exit(1);
    }

    println!(
        "mix\tconnections\tthreads\tbatch\tbatches\tops\tops_per_sec\t\
         p50_us\tp99_us\tp999_us\tmax_us\thit_rate"
    );
    for &mix in &mixes {
        for &conns in &conn_points {
            let run_threads = threads.unwrap_or(default_threads).min(conns);
            let cfg = LoadgenConfig {
                connections: conns,
                threads: run_threads,
                duration: Duration::from_millis(duration_ms),
                batch,
                workload: KvWorkloadConfig {
                    mix,
                    ..base.clone()
                },
            };
            let result = match run_loadgen(addr.as_str(), &cfg) {
                Ok(result) => result,
                Err(e) => {
                    eprintln!("kv-loadgen: {mix:?} run at {conns} connections failed: {e}");
                    std::process::exit(1);
                }
            };
            let us = |ns: u64| ns as f64 / 1_000.0;
            let hit_rate = match result.hit_rate() {
                Some(rate) => format!("{rate:.4}"),
                None => "-".to_string(),
            };
            println!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{:.0}\t{:.1}\t{:.1}\t{:.1}\t{:.1}\t{}",
                mix.ycsb_letter(),
                conns,
                run_threads,
                batch,
                result.batches,
                result.ops,
                result.ops_per_sec(),
                us(result.hist.percentile(50.0)),
                us(result.hist.percentile(99.0)),
                us(result.hist.percentile(99.9)),
                us(result.hist.max_ns()),
                hit_rate,
            );
        }
    }

    if verify {
        // The oracle sweep asserts every key is still present, which an
        // evicting or expiring server legitimately violates — churn runs
        // keep the per-batch checksum verification but skip the sweep.
        if mixes.contains(&KvMix::Churn) {
            eprintln!("kv-loadgen: churn in the sweep; skipping the full-presence oracle sweep");
        } else {
            if let Err(e) = verify_sweep(&mut control, keys) {
                eprintln!("kv-loadgen: final oracle sweep failed: {e}");
                std::process::exit(1);
            }
            eprintln!("kv-loadgen: verify clean over {keys} keys");
        }
    }
}
