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

use harness::cli::{self, LoadgenCommand};
use harness::kv::{KvMix, KvWorkloadConfig};
use harness::loadgen::{preload, run_loadgen, verify_sweep, LoadgenConfig, WireConn};

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
  --connections A,B,C client connections, dealt round-robin across the
                      client threads; a list sweeps them, one TSV row per
                      (mix, connection count) — the scaling curve
                      (default 4)
  --threads N         client threads driving those connections (default:
                      min(connections, available cores); capped at each
                      connection count)
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

fn main() {
    let cmd = match LoadgenCommand::parse(std::env::args().skip(1)) {
        Ok(Some(cmd)) => cmd,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => cli::exit_usage(&e, USAGE),
    };
    let addr = cmd.addr.as_str();
    let default_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8);

    let mut control = match WireConn::connect(addr) {
        Ok(conn) => conn,
        Err(e) => {
            eprintln!("kv-loadgen: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let base = KvWorkloadConfig {
        num_keys: cmd.keys,
        dist: cmd.dist,
        value_size: cmd.value_size,
        verify: cmd.verify,
        ..KvWorkloadConfig::sized_for(cmd.keys)
    };
    if let Err(e) = preload(&mut control, &base) {
        eprintln!("kv-loadgen: preload failed: {e}");
        std::process::exit(1);
    }

    println!(
        "mix\tconnections\tthreads\tbatch\tbatches\tops\tops_per_sec\t\
         p50_us\tp99_us\tp999_us\tmax_us\thit_rate"
    );
    for &mix in &cmd.mixes {
        for &conns in &cmd.connections {
            let run_threads = cmd.threads.unwrap_or(default_threads).min(conns);
            let cfg = LoadgenConfig {
                connections: conns,
                threads: run_threads,
                duration: cmd.duration,
                batch: cmd.batch,
                fill_ttl_ms: cmd.fill_ttl_ms,
                workload: KvWorkloadConfig {
                    mix,
                    ..base.clone()
                },
            };
            let result = match run_loadgen(addr, &cfg) {
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
                cmd.batch,
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

    if cmd.verify {
        // The oracle sweep asserts every key is still present, which an
        // evicting or expiring server legitimately violates — churn runs
        // keep the per-batch checksum verification but skip the sweep.
        if cmd.mixes.contains(&KvMix::Churn) {
            eprintln!("kv-loadgen: churn in the sweep; skipping the full-presence oracle sweep");
        } else {
            if let Err(e) = verify_sweep(&mut control, cmd.keys) {
                eprintln!("kv-loadgen: final oracle sweep failed: {e}");
                std::process::exit(1);
            }
            eprintln!("kv-loadgen: verify clean over {} keys", cmd.keys);
        }
    }
}
