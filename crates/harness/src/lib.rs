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
//!   windows), the log-bucketed [`LatencyHistogram`] and the
//!   open-loop latency driver;
//! * [`kv`] — the YCSB-style workload driver for the sharded transactional
//!   KV store of the `spectm-kv` crate (operation mixes, zipfian/latest key
//!   distributions, and the `kv` binary's sweep);
//! * [`loadgen`] — the network load generator for the `spectm-serve` cache
//!   server: closed- and open-loop clients over the batch wire protocol
//!   with p50/p99/p999 reporting (the `kv-loadgen` binary).
//!
//! Binaries: `cargo run --release -p harness --bin fig1` (likewise `fig5`
//! through `fig10`, `ablation`, `kv` for the KV-store sweeps, and `kv-loadgen` against
//! a running `spectm-serve`).  The figure binaries accept `--quick` for a
//! fast smoke run and `--threads a,b,c` to override the sweep.

#![warn(missing_docs)]

pub mod adapters;
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
pub use loadgen::{run_loadgen, LoadMode, LoadgenConfig, LoadgenResult, WireConn};
pub use measure::LatencyHistogram;
pub use variants::VariantSpec;
