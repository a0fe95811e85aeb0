//! One driver per figure of the paper's evaluation.
//!
//! Each `figN` function (and [`ablation`], for §4.4.2) produces the series of
//! the corresponding figure as plain rows (figure, panel, series label, x
//! value, y value) so the `fig*` binaries can print them and the tests can
//! assert on them.  The defaults are scaled down so a full figure
//! regenerates in seconds on a laptop; pass [`FigureOpts::paper`] sized
//! options to approach the paper's durations and thread counts (the shape,
//! not the absolute numbers, is what the reproduction targets — see
//! EXPERIMENTS.md).

use std::time::Duration;

use crate::cli::{self, Args};
use crate::intset::WorkloadConfig;
use crate::single_thread::{run_ablation, run_fig5};
use crate::variants::{run_hash_variant, run_skip_variant, VariantSpec};

/// Options shared by every figure driver.
#[derive(Debug, Clone)]
pub struct FigureOpts {
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Measured duration per data point.
    pub duration: Duration,
    /// Runs per data point (min and max are discarded when > 2).
    pub runs: usize,
    /// Key range of the integer-set workloads.
    pub key_range: u64,
}

impl Default for FigureOpts {
    fn default() -> Self {
        Self {
            threads: default_thread_sweep(),
            duration: Duration::from_millis(250),
            runs: 3,
            key_range: 65_536,
        }
    }
}

impl FigureOpts {
    /// A fast smoke configuration (used by `--quick` and by the tests).
    pub fn quick() -> Self {
        Self {
            threads: vec![1, 2],
            duration: Duration::from_millis(30),
            runs: 1,
            key_range: 4_096,
        }
    }

    /// A configuration close to the paper's methodology (six runs, one-second
    /// points, 64k keys); thread counts still depend on the host.
    pub fn paper() -> Self {
        Self {
            threads: default_thread_sweep(),
            duration: Duration::from_secs(1),
            runs: 6,
            key_range: 65_536,
        }
    }
}

/// Threads to sweep by default: powers of two up to the host's parallelism,
/// always including 1.
pub fn default_thread_sweep() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut sweep = vec![1usize];
    let mut t = 2;
    while t <= max {
        sweep.push(t);
        t *= 2;
    }
    if !sweep.contains(&max) {
        sweep.push(max);
    }
    sweep
}

/// One data point of a figure.
#[derive(Debug, Clone)]
pub struct FigureRow {
    /// Figure identifier, e.g. `"fig6"`.
    pub figure: &'static str,
    /// Panel within the figure, e.g. `"(a) 90% lookups"`.
    pub panel: String,
    /// Series label (variant name).
    pub series: String,
    /// X coordinate (thread count; array size for Figure 5; writes per
    /// transaction or orec-table size for the ablations).
    pub x: f64,
    /// Y value (throughput in ops/s, a normalized value, or ns/op for the
    /// ablations).
    pub y: f64,
    /// Cache hit rate over the measured phase, for cache-mode KV sweeps
    /// (`None` — rendered as `-` — everywhere else).
    pub hit_rate: Option<f64>,
}

impl FigureRow {
    /// Renders the row as a tab-separated line.
    pub fn tsv(&self) -> String {
        let hit_rate = match self.hit_rate {
            Some(rate) => format!("{rate:.4}"),
            None => "-".to_string(),
        };
        format!(
            "{}\t{}\t{}\t{}\t{:.1}\t{}",
            self.figure, self.panel, self.series, self.x, self.y, hit_rate
        )
    }
}

/// Prints rows with a header, as the `fig*` binaries do.
pub fn print_rows(rows: &[FigureRow]) {
    println!("figure\tpanel\tseries\tx\ty\thit_rate");
    for row in rows {
        println!("{}", row.tsv());
    }
}

/// Which data structure a figure sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Structure {
    Hash { buckets: usize },
    Skip,
}

/// Sweeps `variants` over the thread counts for one panel.
#[expect(clippy::too_many_arguments)]
fn sweep(
    figure: &'static str,
    panel: &str,
    structure: Structure,
    lookup_pct: u32,
    variants: &[VariantSpec],
    opts: &FigureOpts,
    normalize_to_sequential: bool,
    rows: &mut Vec<FigureRow>,
) {
    let run = |variant: VariantSpec, threads: usize| {
        let cfg = WorkloadConfig {
            key_range: opts.key_range,
            lookup_pct,
            threads,
            duration: opts.duration,
            prefill: true,
        };
        match structure {
            Structure::Hash { buckets } => run_hash_variant(variant, buckets, &cfg, opts.runs),
            Structure::Skip => run_skip_variant(variant, &cfg, opts.runs),
        }
    };
    // The sequential reference point is measured once, single-threaded.
    let seq_throughput = normalize_to_sequential.then(|| run(VariantSpec::Sequential, 1));

    for &variant in variants {
        for &threads in &opts.threads {
            if threads > 1 && !variant.concurrent() {
                continue;
            }
            let throughput = run(variant, threads);
            let y = match seq_throughput {
                Some(seq) if seq > 0.0 => throughput / seq,
                _ => throughput,
            };
            rows.push(FigureRow {
                figure,
                panel: panel.to_string(),
                series: variant.label().to_string(),
                x: threads as f64,
                y,
                hit_rate: None,
            });
        }
    }
}

/// Figure 1: hash table, 90% lookups, throughput normalized to sequential.
pub fn fig1(opts: &FigureOpts) -> Vec<FigureRow> {
    let variants = [
        VariantSpec::LockFree,
        VariantSpec::ValShort,
        VariantSpec::TvarShortG,
        VariantSpec::OrecShortG,
        VariantSpec::OrecFullG,
    ];
    let mut rows = Vec::new();
    sweep(
        "fig1",
        "hash table, 90% lookups (normalized to sequential)",
        Structure::Hash { buckets: 16_384 },
        90,
        &variants,
        opts,
        true,
        &mut rows,
    );
    rows
}

/// Figure 5: single-threaded synthetic array workload, normalized execution
/// time per transaction kind and array size.
pub fn fig5(iters: usize) -> Vec<FigureRow> {
    let rows5 = run_fig5(&[128, 1024, 32_768], iters);
    rows5
        .into_iter()
        .map(|r| FigureRow {
            figure: "fig5",
            panel: format!("{} elements / {}", r.array_size, r.kind),
            series: r.variant,
            x: r.array_size as f64,
            y: r.normalized_time,
            hit_rate: None,
        })
        .collect()
}

/// The §4.4.2 ablations: single-threaded nanoseconds per transaction for
/// each setting of the four design choices (see [`run_ablation`]).
pub fn ablation(iters: usize) -> Vec<FigureRow> {
    run_ablation(iters)
        .into_iter()
        .map(|r| FigureRow {
            figure: "ablation",
            panel: r.panel.to_string(),
            series: r.series.to_string(),
            x: r.x as f64,
            y: r.ns_per_op,
            hit_rate: None,
        })
        .collect()
}

/// Figure 6: skip list on the 16-way machine, 90% and 10% lookups.
pub fn fig6(opts: &FigureOpts) -> Vec<FigureRow> {
    let variants_a = [
        VariantSpec::LockFree,
        VariantSpec::ValShort,
        VariantSpec::TvarShortG,
        VariantSpec::OrecShortG,
        VariantSpec::OrecFullG,
        VariantSpec::TvarFullL,
        VariantSpec::OrecFullGFine,
    ];
    let variants_b = [
        VariantSpec::LockFree,
        VariantSpec::ValShort,
        VariantSpec::TvarShortG,
        VariantSpec::OrecShortG,
        VariantSpec::OrecFullG,
    ];
    let mut rows = Vec::new();
    sweep(
        "fig6",
        "(a) skip list, 90% lookups",
        Structure::Skip,
        90,
        &variants_a,
        opts,
        false,
        &mut rows,
    );
    sweep(
        "fig6",
        "(b) skip list, 10% lookups",
        Structure::Skip,
        10,
        &variants_b,
        opts,
        false,
        &mut rows,
    );
    rows
}

/// Figure 7: hash table on the 16-way machine, 90% and 10% lookups.
pub fn fig7(opts: &FigureOpts) -> Vec<FigureRow> {
    let variants = [
        VariantSpec::LockFree,
        VariantSpec::ValShort,
        VariantSpec::TvarShortG,
        VariantSpec::TvarShortL,
        VariantSpec::OrecShortG,
        VariantSpec::OrecFullG,
        VariantSpec::OrecFullL,
    ];
    let mut rows = Vec::new();
    for (panel, pct) in [("(a) 90% lookups", 90), ("(b) 10% lookups", 10)] {
        sweep(
            "fig7",
            &format!("hash table {panel}"),
            Structure::Hash { buckets: 16_384 },
            pct,
            &variants,
            opts,
            false,
            &mut rows,
        );
    }
    rows
}

/// Figure 8: skip list on the 128-way machine, 98%, 90% and 10% lookups.
pub fn fig8(opts: &FigureOpts) -> Vec<FigureRow> {
    let variants = [
        VariantSpec::LockFree,
        VariantSpec::ValShort,
        VariantSpec::TvarShortL,
        VariantSpec::OrecShortL,
        VariantSpec::OrecFullL,
        VariantSpec::OrecFullG,
        VariantSpec::OrecShortG,
    ];
    let mut rows = Vec::new();
    for (panel, pct) in [
        ("(a) 98% lookups", 98),
        ("(b) 90% lookups", 90),
        ("(c) 10% lookups", 10),
    ] {
        sweep(
            "fig8",
            &format!("skip list {panel}"),
            Structure::Skip,
            pct,
            &variants,
            opts,
            false,
            &mut rows,
        );
    }
    rows
}

/// Figure 9: hash table on the 128-way machine, 98%, 90% and 10% lookups.
pub fn fig9(opts: &FigureOpts) -> Vec<FigureRow> {
    let variants = [
        VariantSpec::LockFree,
        VariantSpec::ValShort,
        VariantSpec::TvarShortL,
        VariantSpec::OrecShortL,
        VariantSpec::OrecFullL,
        VariantSpec::OrecFullG,
    ];
    let mut rows = Vec::new();
    for (panel, pct) in [
        ("(a) 98% lookups", 98),
        ("(b) 90% lookups", 90),
        ("(c) 10% lookups", 10),
    ] {
        sweep(
            "fig9",
            &format!("hash table {panel}"),
            Structure::Hash { buckets: 16_384 },
            pct,
            &variants,
            opts,
            false,
            &mut rows,
        );
    }
    rows
}

/// Figure 10: hash table with short (0.5-entry) and long (32-entry) chains.
pub fn fig10(opts: &FigureOpts) -> Vec<FigureRow> {
    let variants = [
        VariantSpec::LockFree,
        VariantSpec::ValShort,
        VariantSpec::TvarShortL,
        VariantSpec::OrecShortL,
        VariantSpec::OrecFullL,
        VariantSpec::TvarFullL,
    ];
    let mut rows = Vec::new();
    sweep(
        "fig10",
        "(a) 98% lookups, 64k buckets (0.5-entry chains)",
        Structure::Hash { buckets: 65_536 },
        98,
        &variants,
        opts,
        false,
        &mut rows,
    );
    sweep(
        "fig10",
        "(b) 90% lookups, 1k buckets (32-entry chains)",
        Structure::Hash { buckets: 1_024 },
        90,
        &variants,
        opts,
        false,
        &mut rows,
    );
    rows
}

/// The common flags of the `fig*`, `ablation` and `kv` binaries, as their
/// usage line prints them.
const COMMON_FLAGS: &str =
    "[--quick | --paper] [--threads A,B,C] [--duration-ms N] [--runs N] [--key-range N]";

impl FigureOpts {
    /// Applies `flag` if it is one of the common flags, taking its value
    /// off `args`; says whether it was.
    pub(crate) fn apply_flag(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--quick" => *self = Self::quick(),
            "--paper" => *self = Self::paper(),
            "--threads" => self.threads = args.list(flag, "thread counts >= 1", cli::positive)?,
            "--duration-ms" => self.duration = Duration::from_millis(args.number(flag, 0)?),
            "--runs" => self.runs = args.number(flag, 1)?,
            "--key-range" => self.key_range = args.number(flag, 1)?,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Parses the common flags of the `fig*` binaries in the one grammar of
/// [`cli`]: an unknown flag or a malformed value is an error.
pub fn opts_from_args(args: impl IntoIterator<Item = String>) -> Result<FigureOpts, String> {
    let mut opts = FigureOpts::default();
    cli::parse(args, |flag, args| opts.apply_flag(flag, args))?;
    Ok(opts)
}

/// The usage line of a binary taking the common flags, then `own_flags`.
pub fn usage(own_flags: &str) -> String {
    let program = std::env::args().next().unwrap_or_default();
    let name = std::path::Path::new(&program)
        .file_name()
        .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    format!("usage: {name} {COMMON_FLAGS}{own_flags}")
}

/// [`opts_from_args`] for a `fig*` binary's `main`: an error prints itself
/// and the usage line and exits with status 2 before anything runs.
pub fn opts_or_exit(args: impl IntoIterator<Item = String>) -> FigureOpts {
    opts_from_args(args).unwrap_or_else(|e| cli::exit_usage(&e, &usage("")))
}

/// Number of Figure 5 (and ablation) iterations corresponding to `opts`.
///
/// These are the single-threaded synthetic benchmarks: they have no threads
/// or key range, so their one size knob (iterations per data point) is
/// derived from the shared per-point duration — 800 iterations per
/// millisecond, which maps the default 250 ms to the historical 200k
/// iterations, `--quick` to 24k and `--paper` to 800k.
pub fn fig5_iters(opts: &FigureOpts) -> usize {
    (opts.duration.as_millis() as usize).max(1) * 800
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_sweep_starts_at_one() {
        let sweep = default_thread_sweep();
        assert_eq!(sweep[0], 1);
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn opts_parse_overrides() {
        let opts = opts_from_args(
            ["--threads", "1,3,5", "--duration-ms", "10", "--runs", "2"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(opts.threads, vec![1, 3, 5]);
        assert_eq!(opts.duration, Duration::from_millis(10));
        assert_eq!(opts.runs, 2);
    }

    /// A zero would panic (`--runs`), divide by zero (`--key-range`) or
    /// print meaningless rows (`--threads`): each is an error naming its
    /// flag.
    #[test]
    fn zero_valued_flags_are_errors() {
        let parse = |args: &[&str]| opts_from_args(args.iter().map(|s| s.to_string()));
        for (flag, value) in [
            ("--runs", "0"),
            ("--key-range", "0"),
            ("--threads", "0"),
            ("--threads", "2,0,4"),
        ] {
            let err = parse(&["--quick", flag, value]).unwrap_err();
            assert!(err.contains(&format!("`{flag} {value}`")), "{err}");
        }
    }

    /// An unknown flag is an error naming it, wherever it sits — not a
    /// warning followed by the default sweep.
    #[test]
    fn unknown_arguments_are_errors() {
        let parse = |args: &[&str]| opts_from_args(args.iter().map(|s| s.to_string()));
        let err = parse(&["--quick", "--batch", "16"]).unwrap_err();
        assert!(err.contains("`--batch`"), "{err}");
        assert!(parse(&["--mode", "open"]).is_err());
        assert!(parse(&["--quick", "--runs", "2"]).is_ok());
    }

    #[test]
    fn fig1_quick_produces_rows_for_every_series() {
        let mut opts = FigureOpts::quick();
        opts.threads = vec![1];
        opts.duration = Duration::from_millis(10);
        let rows = fig1(&opts);
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.y > 0.0));
    }

    #[test]
    fn rows_render_as_tsv() {
        let row = FigureRow {
            figure: "fig1",
            panel: "p".into(),
            series: "s".into(),
            x: 1.0,
            y: 2.0,
            hit_rate: None,
        };
        assert!(row.tsv().starts_with("fig1\tp\ts\t1"));
        assert!(row.tsv().ends_with("\t-"));
    }
}
