//! Throughput sweeps of the sharded transactional KV store (see
//! EXPERIMENTS.md for the workload index).
//!
//! Sweeps threads × mixes × distributions over the short-transaction STM
//! variants, the BaseTM full-transaction shape and the lock-free baseline,
//! printing the same TSV rows as the `fig*` binaries.  Accepts the common
//! flags (`--quick`, `--paper`, `--threads a,b,c`, `--duration-ms`,
//! `--runs`, `--key-range`) plus four of its own:
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
//! * `--batch N` — drive the stores through `execute_batch` with batches of
//!   N operations instead of the single-key API, amortizing routing and
//!   epoch entry (default 1, the unbatched path).  Point-operation mixes
//!   only; scan and RMW workloads are skipped with a warning when N > 1.
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
//!   frequency-byte CLOCK (default) or cursor-order FIFO, the baseline the
//!   frequency policy is measured against.
//!
//! `--keys`/`--key-range` plus optionally `--capacity` are the only sizing
//! inputs: bucket counts are derived from the capacity hint, never passed
//! by hand.

use harness::kv::{kv_default_dists, kv_default_mixes, KeyDist, KvCacheArgs, KvMix, ValueSize};
use spectm_kv::EvictionPolicy;

/// The kv-specific flags split off the argument list; `rest` goes to the
/// common parser.
struct KvArgs {
    mixes: Vec<KvMix>,
    dists: Vec<KeyDist>,
    value_size: ValueSize,
    verify: bool,
    batch: usize,
    capacity: Option<usize>,
    cache: KvCacheArgs,
    stats: bool,
    rest: Vec<String>,
}

/// Parses a numeric flag value of at least `min`, or exits with status 2
/// saying what `what` the flag expects.
fn number_or_exit(flag: &str, raw: &str, min: u64, what: &str) -> u64 {
    match raw.parse::<u64>() {
        Ok(n) if n >= min => n,
        _ => {
            eprintln!("error: `{flag} {raw}` is not {what}");
            std::process::exit(2);
        }
    }
}

/// Advances to the flag's value (empty when the list ends first).
fn next_value(args: &[String], i: &mut usize) -> String {
    *i += 1;
    args.get(*i).cloned().unwrap_or_default()
}

fn parse_kv_args(args: impl Iterator<Item = String>) -> KvArgs {
    let args: Vec<String> = args.collect();
    let mut mixes = kv_default_mixes();
    let mut dists = kv_default_dists();
    let mut value_size = ValueSize::default();
    let mut verify = false;
    let mut batch = 1usize;
    let mut capacity = None;
    let mut cache = KvCacheArgs::default();
    let mut stats = false;
    let mut rest = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--capacity" => {
                let raw = next_value(&args, &mut i);
                let n = number_or_exit("--capacity", &raw, 1, "a positive key count");
                capacity = Some(n as usize);
            }
            "--stats" => stats = true,
            "--max-bytes" => {
                let raw = next_value(&args, &mut i);
                let n = number_or_exit("--max-bytes", &raw, 1, "a positive byte count");
                cache.max_bytes = Some(n);
            }
            "--ttl-ms" => {
                let raw = next_value(&args, &mut i);
                cache.default_ttl_ms = number_or_exit("--ttl-ms", &raw, 0, "a millisecond count");
            }
            "--policy" => {
                let raw = next_value(&args, &mut i);
                cache.policy = match raw.trim() {
                    "freq" => EvictionPolicy::Freq,
                    "fifo" => EvictionPolicy::Fifo,
                    _ => {
                        eprintln!("error: `--policy {raw}` is not freq or fifo");
                        std::process::exit(2);
                    }
                };
            }
            "--batch" => {
                let raw = next_value(&args, &mut i);
                batch = number_or_exit("--batch", &raw, 1, "a positive operation count") as usize;
            }
            "--workload" => {
                let raw = next_value(&args, &mut i);
                let parsed: Vec<KvMix> = raw
                    .split(',')
                    .filter_map(|s| {
                        let s = s.trim();
                        let mix = s
                            .chars()
                            .next()
                            .filter(|_| s.len() == 1)
                            .and_then(KvMix::from_ycsb_letter);
                        if mix.is_none() {
                            eprintln!(
                                "warning: ignoring workload `{s}` \
                                 (expected one of a, b, c, e, f, x)"
                            );
                        }
                        mix
                    })
                    .collect();
                if parsed.is_empty() {
                    eprintln!(
                        "error: `--workload {raw}` selected no valid mix \
                         (expected a comma list of a, b, c, e, f, x)"
                    );
                    std::process::exit(2);
                }
                mixes = parsed;
            }
            "--dist" => {
                let raw = next_value(&args, &mut i);
                let parsed: Vec<KeyDist> = raw
                    .split(',')
                    .filter_map(|s| {
                        let dist = KeyDist::from_name(s.trim());
                        if dist.is_none() {
                            eprintln!(
                                "warning: ignoring distribution `{}` (expected uniform, \
                                 zipfian or latest)",
                                s.trim()
                            );
                        }
                        dist
                    })
                    .collect();
                if parsed.is_empty() {
                    eprintln!(
                        "error: `--dist {raw}` selected no valid distribution \
                         (expected a comma list of uniform, zipfian, latest)"
                    );
                    std::process::exit(2);
                }
                dists = parsed;
            }
            "--value-size" => {
                let raw = next_value(&args, &mut i);
                match ValueSize::from_flag(raw.trim()) {
                    Some(vs) => value_size = vs,
                    None => {
                        eprintln!(
                            "error: `--value-size {raw}` is not fixed:N, uniform:A..B or zipf \
                             (sizes up to {} bytes)",
                            spectm_kv::MAX_VALUE_LEN
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--verify" => verify = true,
            other => rest.push(other.to_string()),
        }
        i += 1;
    }
    KvArgs {
        mixes,
        dists,
        value_size,
        verify,
        batch,
        capacity,
        cache,
        stats,
        rest,
    }
}

fn main() {
    let args = parse_kv_args(std::env::args().skip(1));
    let opts = harness::figures::opts_from_args(args.rest.into_iter());
    if args.stats {
        println!(
            "variant\tkeys\tload\thome_buckets\toverflow_buckets\tprobes<=1\tprobes<=2\tmax_probe"
        );
        for (variant, stats) in harness::kv::kv_stats_rows(&opts, args.value_size, args.capacity) {
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
    let rows = harness::kv::kv_rows(
        &opts,
        &args.mixes,
        &args.dists,
        args.value_size,
        args.verify,
        args.batch,
        args.capacity,
        args.cache,
    );
    harness::figures::print_rows(&rows);
}
