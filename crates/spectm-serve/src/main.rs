//! The `spectm-serve` binary: a [`spectm::variants::ValShort`]-backed
//! sharded KV store behind the threaded cache server, for the `kv-loadgen`
//! client and the CI smoke.

use std::sync::Arc;
use std::time::Duration;

use spectm::variants::ValShort;
use spectm::Stm;
use spectm_ds::ApiMode;
use spectm_kv::{CacheConfig, Reclaimer, ShardedKv};
use spectm_serve::Server;

const USAGE: &str = "\
Usage: spectm-serve [OPTIONS]

Serve a SpecTM sharded KV store over the batch wire protocol.

Options:
  --addr HOST:PORT    bind address (default 127.0.0.1:0 = ephemeral port)
  --workers N         worker threads, each multiplexing many connections
                      (default 4)
  --shards N          store shards (default 16)
  --capacity N        per-shard capacity hint in keys (default 65536)
  --max-bytes N       live-byte budget; the background reclaimer evicts
                      down to it (default: no budget, nothing is evicted)
  --default-ttl-ms N  TTL for puts that carry none; 0 = entries never
                      expire by default (default 0)
  --port-file PATH    write the bound address to PATH once listening
  --run-for-ms N      serve for N ms, then shut down cleanly (default: forever)
  --help              print this help
";

fn die(msg: &str) -> ! {
    eprintln!("spectm-serve: {msg}");
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
    let mut addr = String::from("127.0.0.1:0");
    let mut workers = 4usize;
    let mut shards = 16usize;
    let mut capacity = 1usize << 16;
    let mut max_bytes: Option<u64> = None;
    let mut default_ttl_ms = 0u64;
    let mut port_file: Option<String> = None;
    let mut run_for_ms: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse(&arg, args.next()),
            "--workers" => workers = parse(&arg, args.next()),
            "--shards" => shards = parse(&arg, args.next()),
            "--capacity" => capacity = parse(&arg, args.next()),
            "--max-bytes" => max_bytes = Some(parse(&arg, args.next())),
            "--default-ttl-ms" => default_ttl_ms = parse(&arg, args.next()),
            "--port-file" => port_file = Some(parse(&arg, args.next())),
            "--run-for-ms" => run_for_ms = Some(parse(&arg, args.next())),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    if workers == 0 {
        die("--workers must be at least 1");
    }

    let stm = ValShort::new();
    let config = CacheConfig {
        max_bytes,
        default_ttl_ms,
        ..CacheConfig::default()
    };
    let cache_enabled = max_bytes.is_some() || default_ttl_ms > 0;
    let store = Arc::new(ShardedKv::with_config(
        &stm,
        shards,
        capacity,
        ApiMode::Short,
        config,
    ));
    // One expiry pass over the whole table every ~40ms, in 5ms increments;
    // the eviction phase inside each step already drains to the budget.
    let reclaimer = cache_enabled.then(|| {
        Reclaimer::spawn(
            Arc::clone(&store),
            Duration::from_millis(5),
            (store.bucket_count() / 8).max(64),
        )
    });
    let server = match Server::start(Arc::clone(&store), addr.as_str(), workers) {
        Ok(server) => server,
        Err(e) => die(&format!("cannot bind {addr}: {e}")),
    };
    println!("listening on {}", server.local_addr());
    if let Some(path) = &port_file {
        // Written after the listener is live, so a script waiting on this
        // file can connect the moment it appears.
        if let Err(e) = std::fs::write(path, server.local_addr().to_string()) {
            die(&format!("cannot write port file {path}: {e}"));
        }
    }

    match run_for_ms {
        Some(ms) => std::thread::sleep(Duration::from_millis(ms)),
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
    let stats = server.shutdown();
    if let Some(reclaimer) = reclaimer {
        reclaimer.stop();
        // Final full sweep at quiescence: with the workers gone nothing can
        // outrun it, so afterwards the accounting invariant holds —
        // live_bytes is at or under the budget — and the smoke can assert
        // it straight off the stats line.
        let mut thread = store.register();
        store.sweep_step(store.bucket_count(), &mut thread);
    }
    let cache = store.cache_stats();
    // key=value tokens so shell smokes can awk out any field by name.
    println!(
        "served connections={} batches={} ops={} dispatches={} mean_frames={:.2} \
         wire_errors={} io_errors={} rejected={} hits={} misses={} hit_rate={:.4} \
         expired={} evicted={} live_bytes={}",
        stats.connections,
        stats.batches,
        stats.ops,
        stats.dispatches,
        stats.mean_coalesced_frames(),
        stats.wire_errors,
        stats.io_errors,
        stats.conns_rejected,
        cache.hits,
        cache.misses,
        cache.hit_rate(),
        cache.expired,
        cache.evicted,
        cache.live_bytes,
    );
}
