//! The catalogue of implementation variants used in the paper's figures.
//!
//! A variant is `<layout>-<api>-<clock>` plus the two non-STM baselines.  The
//! builders here assemble the right STM instance, data structure and API mode
//! for a label and run the integer-set workload on it; they are the bridge
//! between the figure drivers (which speak in labels) and the generic,
//! statically-dispatched implementations.

use lockfree::{LockFreeHashTable, LockFreeSkipList, SeqHashTable, SeqSkipList};
use spectm::Config;
use spectm_ds::ApiMode;
use txepoch::Collector;

use crate::adapters::{LockFreeBench, SeqBench, StmHashBench, StmSkipBench};
use crate::intset::{run_intset_repeated, WorkloadConfig};

/// One implementation variant, named as in the paper's figure legends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariantSpec {
    /// Optimized sequential code (single-threaded only).
    Sequential,
    /// Fraser-style CAS-based implementation.
    LockFree,
    /// Orec table, traditional API, global clock (the paper's BaseTM).
    OrecFullG,
    /// Orec table, traditional API, per-orec versions.
    OrecFullL,
    /// Orec table, short-transaction API, global clock.
    OrecShortG,
    /// Orec table, short-transaction API, per-orec versions.
    OrecShortL,
    /// TVar layout, traditional API, global clock.
    TvarFullG,
    /// TVar layout, traditional API, per-orec versions.
    TvarFullL,
    /// TVar layout, short-transaction API, global clock.
    TvarShortG,
    /// TVar layout, short-transaction API, per-orec versions.
    TvarShortL,
    /// Value-based layout, traditional (NOrec-style) API.
    ValFull,
    /// Value-based layout, short-transaction API (the paper's best variant).
    ValShort,
    /// BaseTM driven through fine-grained ordinary transactions
    /// (`orec-full-g (fine)` in Figure 6(a)).
    OrecFullGFine,
}

impl VariantSpec {
    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            VariantSpec::Sequential => "sequential",
            VariantSpec::LockFree => "lock-free",
            VariantSpec::OrecFullG => "orec-full-g",
            VariantSpec::OrecFullL => "orec-full-l",
            VariantSpec::OrecShortG => "orec-short-g",
            VariantSpec::OrecShortL => "orec-short-l",
            VariantSpec::TvarFullG => "tvar-full-g",
            VariantSpec::TvarFullL => "tvar-full-l",
            VariantSpec::TvarShortG => "tvar-short-g",
            VariantSpec::TvarShortL => "tvar-short-l",
            VariantSpec::ValFull => "val-full",
            VariantSpec::ValShort => "val-short",
            VariantSpec::OrecFullGFine => "orec-full-g (fine)",
        }
    }

    /// Parses a label (as printed by [`VariantSpec::label`]).
    pub fn from_label(label: &str) -> Option<Self> {
        Self::all().into_iter().find(|v| v.label() == label)
    }

    /// Every variant, in a stable order.
    pub fn all() -> Vec<VariantSpec> {
        vec![
            VariantSpec::Sequential,
            VariantSpec::LockFree,
            VariantSpec::OrecFullG,
            VariantSpec::OrecFullL,
            VariantSpec::OrecShortG,
            VariantSpec::OrecShortL,
            VariantSpec::TvarFullG,
            VariantSpec::TvarFullL,
            VariantSpec::TvarShortG,
            VariantSpec::TvarShortL,
            VariantSpec::ValFull,
            VariantSpec::ValShort,
            VariantSpec::OrecFullGFine,
        ]
    }

    /// Whether the variant can run with more than one thread.
    pub fn concurrent(self) -> bool {
        self != VariantSpec::Sequential
    }

    pub(crate) fn stm_parts(self) -> Option<(Layout, ApiMode, Config)> {
        let (layout, api, config) = match self {
            VariantSpec::OrecFullG => (Layout::Orec, ApiMode::Full, Config::global()),
            VariantSpec::OrecFullL => (Layout::Orec, ApiMode::Full, Config::local()),
            VariantSpec::OrecShortG => (Layout::Orec, ApiMode::Short, Config::global()),
            VariantSpec::OrecShortL => (Layout::Orec, ApiMode::Short, Config::local()),
            VariantSpec::TvarFullG => (Layout::Tvar, ApiMode::Full, Config::global()),
            VariantSpec::TvarFullL => (Layout::Tvar, ApiMode::Full, Config::local()),
            VariantSpec::TvarShortG => (Layout::Tvar, ApiMode::Short, Config::global()),
            VariantSpec::TvarShortL => (Layout::Tvar, ApiMode::Short, Config::local()),
            VariantSpec::ValFull => (Layout::Val, ApiMode::Full, Config::global()),
            VariantSpec::ValShort => (Layout::Val, ApiMode::Short, Config::global()),
            VariantSpec::OrecFullGFine => (Layout::Orec, ApiMode::Fine, Config::global()),
            _ => return None,
        };
        Some((layout, api, config))
    }
}

/// Meta-data layout component of a variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    Orec,
    Tvar,
    Val,
}

/// A smaller orec table than the library default keeps per-run setup cheap
/// while still making false sharing rare for 64k-key workloads.
pub(crate) fn bench_config(mut config: Config) -> Config {
    config.orec_table_size = 1 << 18;
    config
}

/// The one place a [`VariantSpec`] becomes a concrete STM: evaluates `$body`
/// with `$new_stm` bound to a constructor of the variant's STM type (each
/// call builds a fresh instance, so repeated runs share no orec table or
/// clock) and `$api` to its [`ApiMode`].  `$body` is instantiated once per
/// layout, statically dispatched like everything below it.
///
/// # Panics
///
/// Panics for the two non-STM baselines.
macro_rules! with_stm {
    ($spec:expr, |$new_stm:ident, $api:ident| $body:expr) => {{
        use ::spectm::variants::{OrecStm, TvarStm, ValShort};
        use ::spectm::Stm as _;
        let (layout, $api, config) = $spec.stm_parts().expect("STM variant");
        let config = $crate::variants::bench_config(config);
        match layout {
            $crate::variants::Layout::Orec => {
                let $new_stm = || OrecStm::with_config(config);
                $body
            }
            $crate::variants::Layout::Tvar => {
                let $new_stm = || TvarStm::with_config(config);
                $body
            }
            $crate::variants::Layout::Val => {
                let $new_stm = || ValShort::with_config(config);
                $body
            }
        }
    }};
}
pub(crate) use with_stm;

/// Runs the hash-table workload for `spec`, returning mean throughput
/// (operations per second) using the paper's repetition policy.
pub fn run_hash_variant(
    spec: VariantSpec,
    buckets: usize,
    cfg: &WorkloadConfig,
    runs: usize,
) -> f64 {
    match spec {
        VariantSpec::Sequential => {
            run_intset_repeated(|| SeqBench::new(SeqHashTable::new(buckets)), cfg, runs)
        }
        VariantSpec::LockFree => run_intset_repeated(
            || LockFreeBench::new(LockFreeHashTable::new(buckets, Collector::new())),
            cfg,
            runs,
        ),
        _ => with_stm!(spec, |new_stm, api| run_intset_repeated(
            || StmHashBench::new(new_stm(), buckets, api),
            cfg,
            runs
        )),
    }
}

/// Runs the skip-list workload for `spec`, returning mean throughput
/// (operations per second) using the paper's repetition policy.
pub fn run_skip_variant(spec: VariantSpec, cfg: &WorkloadConfig, runs: usize) -> f64 {
    match spec {
        VariantSpec::Sequential => {
            run_intset_repeated(|| SeqBench::new(SeqSkipList::new()), cfg, runs)
        }
        VariantSpec::LockFree => run_intset_repeated(
            || LockFreeBench::new(LockFreeSkipList::new(Collector::new())),
            cfg,
            runs,
        ),
        _ => with_stm!(spec, |new_stm, api| run_intset_repeated(
            || StmSkipBench::new(new_stm(), api),
            cfg,
            runs
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tiny_cfg() -> WorkloadConfig {
        WorkloadConfig {
            key_range: 256,
            lookup_pct: 90,
            threads: 1,
            duration: Duration::from_millis(15),
            prefill: true,
        }
    }

    #[test]
    fn labels_roundtrip() {
        for v in VariantSpec::all() {
            assert_eq!(VariantSpec::from_label(v.label()), Some(v));
        }
    }

    #[test]
    fn every_variant_runs_a_tiny_hash_workload() {
        let cfg = tiny_cfg();
        for v in VariantSpec::all() {
            let thpt = run_hash_variant(v, 64, &cfg, 1);
            assert!(thpt > 0.0, "{} produced no throughput", v.label());
        }
    }

    #[test]
    fn every_variant_runs_a_tiny_skip_workload() {
        let cfg = tiny_cfg();
        for v in VariantSpec::all() {
            let thpt = run_skip_variant(v, &cfg, 1);
            assert!(thpt > 0.0, "{} produced no throughput", v.label());
        }
    }
}
