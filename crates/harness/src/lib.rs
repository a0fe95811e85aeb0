//! Benchmark harness for the SpecTM reproduction.
//!
//! The harness provides everything needed to regenerate the figures of the
//! paper's evaluation (Section 4):
//!
//! * [`intset`] — the multi-threaded integer-set workload (random mixes of
//!   lookups, inserts and removes over a fixed key range, the structure
//!   pre-filled to half the range), with the paper's repetition policy
//!   (mean of six runs, minimum and maximum discarded);
//! * [`adapters`] — a uniform [`BenchSet`] interface over the STM hash table
//!   and skip list (per variant and API mode), the lock-free baselines and
//!   the sequential baselines;
//! * [`variants`] — the catalogue of variant labels used in the figures and
//!   constructors that assemble the right STM + data structure + API mode
//!   for each label;
//! * [`single_thread`] — the single-threaded synthetic-array micro-benchmark
//!   of Figure 5 and the §4.4.2 ablations;
//! * [`figures`] — one driver per figure (and one for the §4.4.2
//!   ablations), used by the `fig*` and `ablation` binaries;
//! * [`measure`] — the shared timed-run scaffolding (per-thread measurement
//!   windows) and the log-bucketed [`LatencyHistogram`];
//! * [`kv`] — the YCSB-style workload driver for the sharded transactional
//!   KV store of the `spectm-kv` crate (operation mixes, zipfian/latest key
//!   distributions, and the `kv` binary's variant × mix × thread sweep over
//!   single-key operations);
//! * [`loadgen`] — the network load generator for the `spectm-serve` cache
//!   server: closed-loop clients over the batch wire protocol, many
//!   connections per client thread, with p50/p99/p999 reporting (the
//!   `kv-loadgen` binary's connection sweep);
//! * [`cli`] — the one flag grammar every binary parses its command line
//!   with.
//!
//! In-process batch throughput and open-loop tails are not measured here:
//! the repo benchmark (`benchmark/`) owns both, as its `batch.*` rungs and
//! its `serve_*` workloads' open phases.
//!
//! Binaries: `cargo run --release -p harness --bin fig1` (likewise `fig5`
//! through `fig10`, `ablation`, `kv` for the KV-store sweeps, and `kv-loadgen` against
//! a running `spectm-serve`).  The figure binaries accept `--quick` for a
//! fast smoke run and `--threads a,b,c` to override the sweep; an unknown
//! argument or a malformed value exits with status 2 before anything runs.

#![warn(missing_docs)]

pub mod adapters;
pub mod cli;
pub mod figures;
pub mod intset;
pub mod kv;
pub mod loadgen;
pub mod measure;
pub mod single_thread;
pub mod variants;

pub use adapters::BenchSet;
pub use intset::{choose_op, run_intset, run_intset_repeated, RunResult, SetOp, WorkloadConfig};
pub use kv::{run_kv, run_kv_repeated, run_kv_variant, KvMix, KvStore, KvWorkloadConfig};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenResult, WireConn};
pub use measure::LatencyHistogram;
pub use variants::VariantSpec;
