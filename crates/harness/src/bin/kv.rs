//! Throughput sweeps of the sharded transactional KV store (see
//! EXPERIMENTS.md for the workload index).
//!
//! Sweeps threads × mixes × distributions over the short-transaction STM
//! variants, the BaseTM full-transaction shape and the lock-free baseline,
//! printing the same TSV rows as the `fig*` binaries.  Accepts the common
//! flags (`--quick`, `--paper`, `--threads a,b,c`, `--duration-ms`,
//! `--runs`, `--key-range`) plus the ones below; any other argument, a
//! malformed value or a bad item in a list exits with status 2 and the
//! usage line before anything runs.  Every operation
//! is one store call (get, put, scan or multi-key RMW); in-process batch
//! throughput is the repo benchmark's `batch.*` rungs, and wire batches
//! are `kv-loadgen`'s.
//!
//! * `--workload a,b,c,e,f,x` — restrict the sweep to the named YCSB core
//!   mixes (a = update 50/50, b = read-heavy 95/5, c = read-only,
//!   e = scan-heavy 95/5, f = multi-key read-modify-write, x = read-through
//!   cache churn: get, then fill on miss).  Default: `b,a,f,e`.
//! * `--dist uniform,zipfian,latest` — restrict the key-popularity
//!   distributions.  Default: all three.
//! * `--value-size fixed:N|uniform:A..B|zipf` — the payload-length
//!   distribution of every written value (default `fixed:8`, the word-sized
//!   inline fast path).  Non-default sizes are appended to the panel label.
//! * `--verify` — checksum-verify every payload read during the run and
//!   replay an oracle sweep over the key space afterwards (costs cycles;
//!   off by default so throughput rows stay honest.  Counter writes make
//!   checksums meaningless for workload `f`, where the flag is ignored).
//! * `--capacity N` — override the total capacity hint the store tables are
//!   sized from (default: the key range, which lands near the ~0.75 bucket
//!   load-factor target).  An `N` below the key range undersizes the tables
//!   and drives them to high occupancy — the load-factor stress shape.
//! * `--stats` — instead of a throughput sweep, load the key space into
//!   each variant's store and print one TSV row per variant with its
//!   occupancy and probe-length statistics (keys, load factor, overflow
//!   buckets, fraction of probes within 1 and 2 buckets).
//! * `--max-bytes N` — run the STM stores in cache mode with an N-byte
//!   live-byte budget; the background reclaimer evicts down to it during
//!   the run and each row's `hit_rate` column reports the measured-phase
//!   hit rate.  Size the budget below the working set (keys × (value size
//!   + 128-byte item overhead)) to see eviction.
//! * `--ttl-ms N` — stamp every put with an N-millisecond TTL (cache mode;
//!   0 = immortal, the default).
//! * `--policy freq|fifo` — eviction victim selection in cache mode:
//!   per-key frequency-byte CLOCK (default) or hand-order FIFO, the
//!   baseline the frequency policy is measured against.
//!
//! `--key-range` plus optionally `--capacity` are the only sizing inputs:
//! bucket counts are derived from the capacity hint, never passed by hand.

use harness::cli::{self, KvCommand};

/// The kv-specific flags, as the usage line prints them after the common
/// ones.
const KV_FLAGS: &str = " [--workload a,b,c,e,f,x] [--dist uniform,zipfian,latest] \
     [--value-size SPEC] [--verify] [--capacity N] [--stats] [--max-bytes N] [--ttl-ms N] \
     [--policy freq|fifo]";

fn main() {
    let cmd = KvCommand::parse(std::env::args().skip(1))
        .unwrap_or_else(|e| cli::exit_usage(&e, &harness::figures::usage(KV_FLAGS)));
    if cmd.stats {
        println!(
            "variant\tkeys\tload\thome_buckets\toverflow_buckets\tprobes<=1\tprobes<=2\tmax_probe"
        );
        for (variant, stats) in harness::kv::kv_stats_rows(&cmd) {
            println!(
                "{variant}\t{}\t{:.3}\t{}\t{}\t{:.4}\t{:.4}\t{}",
                stats.keys,
                stats.load_factor(),
                stats.home_buckets,
                stats.overflow_buckets,
                stats.fraction_within(1),
                stats.fraction_within(2),
                stats.max_probe(),
            );
        }
        return;
    }
    harness::figures::print_rows(&harness::kv::kv_rows(&cmd));
}
