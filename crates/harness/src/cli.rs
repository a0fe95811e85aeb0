//! The one flag grammar of the measuring binaries (`fig*`, `ablation`,
//! `kv` and `kv-loadgen`).
//!
//! A command line is a sequence of flags, each followed by its value when
//! it takes one; a list value is comma-separated.  The policy is strict:
//! an unknown flag, a missing, unparsable or out-of-range value, or a bad
//! item anywhere in a list is an error, and every binary turns an error
//! into its usage text and exit status 2 before anything runs
//! ([`exit_usage`]).  The parsers return `Result`, so tests call them
//! directly.

use std::fmt::Display;
use std::str::FromStr;
use std::time::Duration;

use spectm_kv::wire::MAX_WIRE_OPS;
use spectm_kv::{CacheConfig, EvictionPolicy};

use crate::figures::FigureOpts;
use crate::kv::{kv_default_dists, kv_default_mixes, KeyDist, KvMix, ValueSize};

/// The items `--dist` takes.
const DISTS: &str = "uniform, zipfian, latest";
/// What `--value-size` takes.
const VALUE_SIZES: &str = "fixed:N, uniform:A..B or zipf";

/// The values still to be read off a command line.
pub(crate) struct Args(std::vec::IntoIter<String>);

impl Args {
    /// The value of `flag`, turned into a `T` by `parse`; `expected` says
    /// what the flag takes.
    pub(crate) fn value<T>(
        &mut self,
        flag: &str,
        expected: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        let raw = self
            .0
            .next()
            .ok_or_else(|| format!("`{flag}` needs {expected}"))?;
        parse(raw.trim()).ok_or_else(|| format!("`{flag} {raw}`: expected {expected}"))
    }

    /// A number of at least `min`.
    pub(crate) fn number<T: FromStr + PartialOrd + Display>(
        &mut self,
        flag: &str,
        min: T,
    ) -> Result<T, String> {
        let expected = format!("a number >= {min}");
        self.value(flag, &expected, |s| s.parse().ok().filter(|n| *n >= min))
    }

    /// A comma list whose every item `item` accepts; `items` says what
    /// they are.
    pub(crate) fn list<T>(
        &mut self,
        flag: &str,
        items: &str,
        item: impl Fn(&str) -> Option<T>,
    ) -> Result<Vec<T>, String> {
        let expected = format!("a comma list of {items}");
        self.value(flag, &expected, |raw| {
            raw.split(',').map(|s| item(s.trim())).collect()
        })
    }
}

/// Reads `args` flag by flag: `on_flag` takes a flag's value off [`Args`]
/// and says whether it knew the flag.
pub(crate) fn parse(
    args: impl IntoIterator<Item = String>,
    mut on_flag: impl FnMut(&str, &mut Args) -> Result<bool, String>,
) -> Result<(), String> {
    let mut args = Args(args.into_iter().collect::<Vec<_>>().into_iter());
    while let Some(flag) = args.0.next() {
        if !on_flag(&flag, &mut args)? {
            return Err(format!("unknown argument `{flag}`"));
        }
    }
    Ok(())
}

/// Prints `err` and the usage text, then exits with status 2.
pub fn exit_usage(err: &str, usage: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!("{usage}");
    std::process::exit(2)
}

/// A count of at least one (a thread or connection count).
pub(crate) fn positive(s: &str) -> Option<usize> {
    s.parse().ok().filter(|&n| n > 0)
}

/// A mix by its one-letter name.
fn mix(s: &str) -> Option<KvMix> {
    let mut letters = s.chars();
    match (letters.next(), letters.next()) {
        (Some(letter), None) => KvMix::from_ycsb_letter(letter),
        _ => None,
    }
}

/// The `kv` binary's command line: the common flags and its own (see the
/// binary's documentation).
#[derive(Debug)]
pub struct KvCommand {
    /// The common flags.
    pub opts: FigureOpts,
    /// `--workload`.
    pub mixes: Vec<KvMix>,
    /// `--dist`.
    pub dists: Vec<KeyDist>,
    /// `--value-size`.
    pub value_size: ValueSize,
    /// `--verify`.
    pub verify: bool,
    /// `--capacity`.
    pub capacity: Option<usize>,
    /// `--max-bytes`, `--ttl-ms` and `--policy`.
    pub cache: CacheConfig,
    /// `--stats`.
    pub stats: bool,
}

impl KvCommand {
    /// Parses the `kv` binary's arguments.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut cmd = Self {
            opts: FigureOpts::default(),
            mixes: kv_default_mixes(),
            dists: kv_default_dists(),
            value_size: ValueSize::default(),
            verify: false,
            capacity: None,
            cache: CacheConfig::default(),
            stats: false,
        };
        parse(args, |flag, args| {
            match flag {
                "--workload" => cmd.mixes = args.list(flag, "a, b, c, e, f, x", mix)?,
                "--dist" => cmd.dists = args.list(flag, DISTS, KeyDist::from_name)?,
                "--value-size" => {
                    cmd.value_size = args.value(flag, VALUE_SIZES, ValueSize::from_flag)?
                }
                "--verify" => cmd.verify = true,
                "--capacity" => cmd.capacity = Some(args.number(flag, 1)?),
                "--stats" => cmd.stats = true,
                "--max-bytes" => cmd.cache.max_bytes = Some(args.number(flag, 1)?),
                "--ttl-ms" => cmd.cache.default_ttl_ms = args.number(flag, 0)?,
                "--policy" => {
                    cmd.cache.policy = args.value(flag, "freq or fifo", |s| match s {
                        "freq" => Some(EvictionPolicy::Freq),
                        "fifo" => Some(EvictionPolicy::Fifo),
                        _ => None,
                    })?
                }
                _ => return cmd.opts.apply_flag(flag, args),
            }
            Ok(true)
        })?;
        Ok(cmd)
    }
}

/// `kv-loadgen`'s command line (see its `--help`).
#[derive(Debug)]
pub struct LoadgenCommand {
    /// `--addr`.
    pub addr: String,
    /// `--workload`: wire mixes only.
    pub mixes: Vec<KvMix>,
    /// `--connections`: one run per count.
    pub connections: Vec<usize>,
    /// `--threads` (`None`: as many as the host has cores).
    pub threads: Option<usize>,
    /// `--duration-ms`.
    pub duration: Duration,
    /// `--batch`.
    pub batch: usize,
    /// `--keys`.
    pub keys: u64,
    /// `--dist`.
    pub dist: KeyDist,
    /// `--value-size`.
    pub value_size: ValueSize,
    /// `--ttl-ms` (`None` for 0: the fills are plain puts).
    pub fill_ttl_ms: Option<u64>,
    /// `--verify`.
    pub verify: bool,
}

impl LoadgenCommand {
    /// Parses `kv-loadgen`'s arguments; `Ok(None)` asks for the help text.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Option<Self>, String> {
        let mut help = false;
        let mut cmd = Self {
            addr: String::new(),
            mixes: vec![KvMix::UpdateHeavy, KvMix::ReadHeavy, KvMix::ReadOnly],
            connections: vec![4],
            threads: None,
            duration: Duration::from_millis(500),
            batch: 16,
            keys: 65_536,
            dist: KeyDist::Uniform,
            value_size: ValueSize::default(),
            fill_ttl_ms: None,
            verify: false,
        };
        let wire_mix = |s: &str| mix(s).filter(|m| m.supports_batching() || *m == KvMix::Churn);
        let batch = |s: &str| positive(s).filter(|&n| n <= MAX_WIRE_OPS);
        parse(args, |flag, args| {
            match flag {
                "--addr" => cmd.addr = args.value(flag, "HOST:PORT", |s| Some(s.to_owned()))?,
                "--workload" => cmd.mixes = args.list(flag, "a, b, c, x", wire_mix)?,
                "--connections" => cmd.connections = args.list(flag, "counts >= 1", positive)?,
                "--threads" => cmd.threads = Some(args.number(flag, 1)?),
                "--duration-ms" => cmd.duration = Duration::from_millis(args.number(flag, 0)?),
                "--batch" => cmd.batch = args.value(flag, &format!("1..={MAX_WIRE_OPS}"), batch)?,
                "--keys" => cmd.keys = args.number(flag, 1)?,
                "--dist" => cmd.dist = args.value(flag, DISTS, KeyDist::from_name)?,
                "--value-size" => {
                    cmd.value_size = args.value(flag, VALUE_SIZES, ValueSize::from_flag)?
                }
                "--ttl-ms" => cmd.fill_ttl_ms = Some(args.number(flag, 0)?).filter(|&ms| ms > 0),
                "--verify" => cmd.verify = true,
                "--help" | "-h" => help = true,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        if help {
            return Ok(None);
        }
        if cmd.addr.is_empty() {
            return Err("`--addr` is required".into());
        }
        Ok(Some(cmd))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    fn figure(line: &str) -> Result<FigureOpts, String> {
        crate::figures::opts_from_args(args(line))
    }

    fn loadgen(line: &str) -> Result<LoadgenCommand, String> {
        LoadgenCommand::parse(args(line)).map(|cmd| cmd.expect("not a help request"))
    }

    /// Every flag list in CI's workflow and in the README's recipes parses.
    #[test]
    fn the_documented_command_lines_parse() {
        for line in [
            "--quick",
            "--paper",
            "--threads 1,2,4 --duration-ms 250 --runs 3",
            "",
        ] {
            figure(line).unwrap_or_else(|e| panic!("fig* {line:?}: {e}"));
        }
        for line in [
            "--threads 2 --duration-ms 5 --runs 1 --key-range 512",
            "--workload e --verify --threads 2 --duration-ms 100 --runs 1 --key-range 16384",
            "--workload a --value-size uniform:64..256 --verify \
             --threads 2 --duration-ms 5 --runs 1 --key-range 512",
            "--workload a --verify --capacity 1280 \
             --threads 2 --duration-ms 5 --runs 1 --key-range 1613",
            "--stats --capacity 1280 --key-range 1613",
            "--quick",
            "--threads 1,4,8 --duration-ms 250 --runs 3",
            "--workload e --dist zipfian",
            "--workload a --value-size uniform:64..1024 --verify",
            "--stats --key-range 21504 --capacity 16384",
        ] {
            KvCommand::parse(args(line)).unwrap_or_else(|e| panic!("kv {line:?}: {e}"));
        }
        for line in [
            "--addr 127.0.0.1:1 --keys 8192 --connections 2 --duration-ms 200 --verify",
            "--addr 127.0.0.1:1 --keys 8192 --connections 2,32 --threads 4 \
             --workload a --duration-ms 300 --verify",
            "--addr 127.0.0.1:1 --keys 8192 --connections 4 --workload x \
             --duration-ms 300 --ttl-ms 50 --verify",
            "--addr 127.0.0.1:1 --verify",
            "--addr 127.0.0.1:1 --workload b --threads 8 \
             --connections 4,16,64,256 --duration-ms 2000",
        ] {
            loadgen(line).unwrap_or_else(|e| panic!("kv-loadgen {line:?}: {e}"));
        }
    }

    #[test]
    fn values_and_lists_parse_whole() {
        let opts = figure("--quick --threads 1,3,5 --key-range 99").unwrap();
        assert_eq!(opts.threads, vec![1, 3, 5]);
        assert_eq!(opts.key_range, 99);
        let kv = KvCommand::parse(args("--workload x,a --dist latest --policy fifo")).unwrap();
        assert_eq!(kv.mixes, vec![KvMix::Churn, KvMix::UpdateHeavy]);
        assert_eq!(kv.dists, vec![KeyDist::Latest]);
        assert_eq!(kv.cache.policy, EvictionPolicy::Fifo);
        let lg = loadgen("--addr h:1 --connections 2,32 --ttl-ms 0").unwrap();
        assert_eq!(lg.connections, vec![2, 32]);
        assert_eq!(lg.fill_ttl_ms, None);
        assert_eq!(
            loadgen("--addr h:1 --ttl-ms 50").unwrap().fill_ttl_ms,
            Some(50)
        );
        assert!(LoadgenCommand::parse(args("--help")).unwrap().is_none());
    }

    /// A missing, unparsable or out-of-range value, or one bad item in a
    /// list, is an error naming the flag: nothing is dropped or kept.
    #[test]
    fn malformed_values_and_items_are_errors() {
        for line in [
            "--runs 0",
            "--threads 2,0",
            "--threads",
            "--key-range x",
            "--runs -1",
        ] {
            let err = figure(line).unwrap_err();
            assert!(
                err.contains(line.split(' ').next().unwrap()),
                "{line}: {err}"
            );
        }
        for line in [
            "--workload a,q",
            "--dist uniform,nope",
            "--value-size fixed:",
            "--policy lru",
            "--max-bytes 0",
            "--capacity",
            "--threads 1,,2",
        ] {
            assert!(KvCommand::parse(args(line)).is_err(), "kv {line}");
        }
        for line in [
            "--addr h:1 --workload a,e",
            "--addr h:1 --connections 0",
            "--addr h:1 --connections 2,x",
            "--addr h:1 --batch 129",
            "--addr h:1 --dist uniform,zipfian",
            "--addr h:1 --sweep-connections 2,32",
            "--connections 2",
        ] {
            assert!(loadgen(line).is_err(), "kv-loadgen {line}");
        }
    }
}
