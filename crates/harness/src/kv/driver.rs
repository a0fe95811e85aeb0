//! The in-process driver: load, timed run, repetition, per-variant runs and
//! the `kv` binary's sweeps.

use std::sync::Arc;

use lockfree::LockFreeKvMap;
use spectm::Stm;
use spectm_ds::ApiMode;
use spectm_kv::{CacheConfig, EvictionPolicy, MapStats};
use txepoch::Collector;

use super::store::{KvStore, LockFreeKvBench, StmKvBench};
use super::workload::{
    fill_payload, payload_is_valid, perform_op, KeyDist, KvMix, KvWorkloadConfig, ValueLenSampler,
    ValueSize, WorkerState,
};
use crate::cli::KvCommand;
use crate::figures::{FigureOpts, FigureRow};
use crate::intset::{trimmed_mean, RunResult, Xorshift, BATCH_OPS};
use crate::measure::run_timed;
use crate::variants::{with_stm, VariantSpec};

/// Loads every key of `0..num_keys` with a self-certifying payload whose
/// length follows `value_size`.
pub fn load_keys<K: KvStore>(store: &K, num_keys: u64, value_size: ValueSize) {
    let mut ctx = store.thread_ctx();
    let lens = ValueLenSampler::new(value_size);
    let mut rng = Xorshift::new(0x10AD_5EED);
    let mut buf = Vec::with_capacity(value_size.max_len());
    for key in 0..num_keys {
        fill_payload(key, 0, lens.sample(&mut rng), &mut buf);
        store.put(key, &buf, &mut ctx);
    }
}

/// Runs the workload once (load phase + measured phase) and reports
/// throughput together with the hit rate observed over the measured phase
/// (`None` when the store is not running in cache mode).  One
/// read-modify-write or one scan counts as one operation.  With
/// `cfg.verify` set, reads are checksum-verified throughout and a final
/// oracle sweep re-reads the whole key space after the workers stop.
///
/// In cache mode the store's background reclaimer runs for the whole load +
/// measure window, so budget eviction and expiry happen concurrently with
/// the workload — the shape the churn mix exists to measure.  Hits and
/// misses accumulated during the load phase are subtracted out.
pub fn run_kv<K: KvStore>(store: Arc<K>, cfg: &KvWorkloadConfig) -> (RunResult, Option<f64>) {
    assert!(
        cfg.rmw_keys >= 1 && cfg.rmw_keys <= spectm_kv::MAX_RMW_KEYS,
        "rmw_keys must be in 1..={}",
        spectm_kv::MAX_RMW_KEYS
    );
    let reclaimer = store.spawn_reclaimer();
    load_keys(&*store, cfg.num_keys, cfg.value_size);
    let loaded = store.cache_stats();

    let samples = run_timed(cfg.threads, cfg.duration, |tid| {
        let mut ctx = store.thread_ctx();
        let mut state = WorkerState::new(cfg, 0x0BAD_5EED ^ (0x9E37_79B9 * (tid as u64 + 1)));
        let store = &store;
        move || {
            for _ in 0..BATCH_OPS {
                let key = state.sample_key();
                let raw = state.next_raw();
                perform_op(&**store, &mut ctx, key, raw, &mut state);
            }
            BATCH_OPS
        }
    });
    let result = RunResult::from_samples(samples);
    let hit_rate = store.cache_stats().map(|after| {
        let before = loaded.unwrap_or_default();
        let hits = after.hits.saturating_sub(before.hits);
        let misses = after.misses.saturating_sub(before.misses);
        if hits + misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    });
    if let Some(reclaimer) = reclaimer {
        reclaimer.stop();
    }
    // The oracle sweep asserts every loaded key survived, which only holds
    // when nothing expires or evicts them: cache-mode runs skip it.
    if cfg.verify
        && cfg.mix != KvMix::ReadModifyWrite
        && cfg.mix != KvMix::Churn
        && !cfg.cache.enabled()
    {
        verify_sweep(&*store, cfg.num_keys);
    }
    (result, hit_rate)
}

/// Oracle replay after quiescence: every loaded key must still be present
/// and carry a payload whose checksum certifies it was written whole for
/// exactly that key.  (The mixes never delete loaded keys; scan-heavy
/// inserts land above the loaded space and are verified too, when present.)
fn verify_sweep<K: KvStore>(store: &K, num_keys: u64) {
    let mut ctx = store.thread_ctx();
    for key in 0..num_keys {
        let value = store
            .get(key, &mut ctx)
            .unwrap_or_else(|| panic!("loaded key {key} vanished"));
        assert!(
            payload_is_valid(key, &value),
            "post-run checksum mismatch for key {key}: {value:?}"
        );
    }
}

/// Runs the workload `runs` times on fresh stores produced by `make_store`
/// and returns the mean throughput after discarding the minimum and maximum
/// (the same repetition policy as the figure sweeps), with the mean
/// measured-phase hit rate across all runs (`None` when the store has no
/// cache counters).
pub fn run_kv_repeated<K, F>(
    make_store: F,
    cfg: &KvWorkloadConfig,
    runs: usize,
) -> (f64, Option<f64>)
where
    K: KvStore,
    F: Fn() -> K,
{
    let (throughputs, rates): (Vec<f64>, Vec<Option<f64>>) = (0..runs)
        .map(|_| {
            let (result, hit_rate) = run_kv(Arc::new(make_store()), cfg);
            (result.throughput, hit_rate)
        })
        .unzip();
    // Hit rates are far more stable than throughput, so a plain mean over
    // every run suffices (no min/max trimming).
    let rates: Vec<f64> = rates.into_iter().flatten().collect();
    let hit_rate = (!rates.is_empty()).then(|| rates.iter().sum::<f64>() / rates.len() as f64);
    (trimmed_mean(throughputs), hit_rate)
}

/// The lock-free baseline store sized for `cfg`.
fn lock_free_store(cfg: &KvWorkloadConfig) -> LockFreeKvBench {
    LockFreeKvBench::new(LockFreeKvMap::new(
        cfg.shards * cfg.capacity_per_shard,
        Collector::new(),
    ))
}

/// The STM store `cfg` describes (sizing and cache fields), over `stm`.
fn stm_store<S: Stm + Clone>(stm: S, api: ApiMode, cfg: &KvWorkloadConfig) -> StmKvBench<S> {
    StmKvBench::with_cache(
        stm,
        cfg.shards,
        cfg.capacity_per_shard,
        api,
        cfg.cache.clone(),
    )
}

/// Runs the KV workload for a [`VariantSpec`] label, returning mean
/// throughput in operations per second and the mean measured-phase hit
/// rate.  STM variants honour the workload's cache fields
/// ([`KvWorkloadConfig::cache`]); the lock-free baseline has no TTL
/// machinery, so its hit rate is `None` (and its cache fields are ignored).
///
/// # Panics
///
/// Panics for [`VariantSpec::Sequential`]: the store is a concurrent
/// subsystem and has no single-threaded reference implementation.
pub fn run_kv_variant(
    spec: VariantSpec,
    cfg: &KvWorkloadConfig,
    runs: usize,
) -> (f64, Option<f64>) {
    match spec {
        VariantSpec::Sequential => {
            panic!("the KV store has no sequential baseline; use lock-free or an STM variant")
        }
        VariantSpec::LockFree => run_kv_repeated(|| lock_free_store(cfg), cfg, runs),
        _ => with_stm!(spec, |new_stm, api| run_kv_repeated(
            || stm_store(new_stm(), api, cfg),
            cfg,
            runs
        )),
    }
}

// ---------------------------------------------------------------------------
// The `kv` binary's sweep
// ---------------------------------------------------------------------------

/// Variants the `kv` binary sweeps: the paper's best short-transaction
/// variant, a second short layout, the BaseTM full-transaction shape and the
/// CAS baseline.
pub fn kv_variants() -> Vec<VariantSpec> {
    vec![
        VariantSpec::ValShort,
        VariantSpec::TvarShortG,
        VariantSpec::OrecFullG,
        VariantSpec::LockFree,
    ]
}

/// The mixes the `kv` binary sweeps by default (YCSB B, A, F and E; the
/// read-only C mix is available through `--workload c`).
pub fn kv_default_mixes() -> Vec<KvMix> {
    vec![
        KvMix::ReadHeavy,
        KvMix::UpdateHeavy,
        KvMix::ReadModifyWrite,
        KvMix::ScanHeavy,
    ]
}

/// The distributions the `kv` binary sweeps by default.
pub fn kv_default_dists() -> Vec<KeyDist> {
    vec![KeyDist::Uniform, KeyDist::Zipfian, KeyDist::Latest]
}

/// Store sizing for a sweep's key space (`--key-range`), with the optional
/// total capacity-hint override (`--capacity`) applied.
fn sized_for_sweep(opts: &FigureOpts, capacity: Option<usize>) -> KvWorkloadConfig {
    let sized = KvWorkloadConfig::sized_for(opts.key_range);
    match capacity {
        Some(total) => sized.with_total_capacity(total),
        None => sized,
    }
}

/// The panel-label suffix describing the cache knobs (`--max-bytes` /
/// `--ttl-ms` / `--policy`), e.g. `" / budget:1048576 / fifo"` (empty when
/// cache mode is off).
fn panel_suffix(cache: &CacheConfig) -> String {
    let mut suffix = String::new();
    if let Some(budget) = cache.max_bytes {
        suffix.push_str(&format!(" / budget:{budget}"));
    }
    if cache.default_ttl_ms > 0 {
        suffix.push_str(&format!(" / ttl:{}ms", cache.default_ttl_ms));
    }
    if cache.enabled() && cache.policy == EvictionPolicy::Fifo {
        suffix.push_str(" / fifo");
    }
    suffix
}

/// Produces the `kv` binary's rows: threads × mix × distribution × variant,
/// in the same TSV row shape as the figure drivers (`figure` is `"kv"`,
/// `panel` is `"<mix> / <dist>"` — with the value-size label appended when
/// it is not the default — and `x` is the thread count), as the `kv`
/// binary's command line asks.  A `--capacity` below the key-space size
/// undersizes the tables, driving them to high load factors (the occupancy
/// stress shape CI exercises).
pub fn kv_rows(cmd: &KvCommand) -> Vec<FigureRow> {
    let opts = &cmd.opts;
    let sized = sized_for_sweep(opts, cmd.capacity);
    let mut rows = Vec::new();
    for &mix in &cmd.mixes {
        for &dist in &cmd.dists {
            let mut panel = if cmd.value_size == ValueSize::default() {
                format!("{} / {}", mix.label(), dist.label())
            } else {
                format!(
                    "{} / {} / {}",
                    mix.label(),
                    dist.label(),
                    cmd.value_size.label()
                )
            };
            panel.push_str(&panel_suffix(&cmd.cache));
            for variant in kv_variants() {
                for &threads in &opts.threads {
                    let cfg = KvWorkloadConfig {
                        threads,
                        duration: opts.duration,
                        mix,
                        dist,
                        value_size: cmd.value_size,
                        verify: cmd.verify,
                        cache: cmd.cache.clone(),
                        ..sized.clone()
                    };
                    let (y, hit_rate) = run_kv_variant(variant, &cfg, opts.runs);
                    rows.push(FigureRow {
                        figure: "kv",
                        panel: panel.clone(),
                        series: variant.label().to_string(),
                        x: threads as f64,
                        y,
                        hit_rate,
                    });
                }
            }
        }
    }
    rows
}

/// The `kv --stats` mode: loads the key space of `0..opts.key_range` into a
/// fresh store per acceptance variant (sized by [`KvWorkloadConfig::sized_for`],
/// optionally capacity-overridden) and returns each variant's occupancy and
/// probe-length statistics, quiescently.  This is the probe-length
/// acceptance surface: at the default sizing the histogram must show the
/// overwhelming majority of probes touching one bucket.
pub fn kv_stats_rows(cmd: &KvCommand) -> Vec<(String, MapStats)> {
    let cfg = sized_for_sweep(&cmd.opts, cmd.capacity);
    let value_size = cmd.value_size;
    fn loaded_stats<K: KvStore>(store: K, num_keys: u64, value_size: ValueSize) -> MapStats {
        load_keys(&store, num_keys, value_size);
        store.stats().expect("bundled stores report stats")
    }
    kv_variants()
        .into_iter()
        .map(|spec| {
            let stats = match spec {
                VariantSpec::LockFree => {
                    loaded_stats(lock_free_store(&cfg), cfg.num_keys, value_size)
                }
                _ => with_stm!(spec, |new_stm, api| loaded_stats(
                    stm_store(new_stm(), api, &cfg),
                    cfg.num_keys,
                    value_size
                )),
            };
            (spec.label().to_string(), stats)
        })
        .collect()
}
