//! Per-operation latency of the sharded KV store under the YCSB-style
//! mixes, key distributions and value sizes — the Criterion companion of
//! the `kv` binary's multi-threaded sweeps (see EXPERIMENTS.md).
//!
//! One group per mix × distribution panel; within each group, one series
//! per variant (the short-transaction layouts, the BaseTM full-transaction
//! shape and the lock-free baseline).  Scan latency and batch dispatch are
//! not measured here: the repo benchmark's `store.scan16_ns`,
//! `batch.exec{,1,128}_ns_per_op` and `batch.multi2_ns_per_op` rungs
//! (benchmark/README.md) and the `kv --workload e` / `kv --batch N` sweeps
//! (EXPERIMENTS.md) cover them.
//!
//! The `kv_value_*` groups sweep the payload size — 8 B (the inline
//! fast path: word-sized values never touch the allocator), 100 B and
//! 1 KiB (out-of-line epoch-reclaimed cells) — under the read-heavy mix.
//! Each is annotated with its bytes-per-operation throughput, so the
//! harness reports MB/s next to ns/iter and ops/s.
//!
//! The `kv_load_*` groups pin the tables' bucket arrays and sweep the key
//! count so occupancy lands at 0.25, 0.50 and 0.90 of the slot budget —
//! the probe-length panel that shows lookups staying flat as the flat
//! 7-slot buckets fill and overflow chains appear.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use bench::kv_runner;
use harness::intset::Xorshift;
use harness::kv::{KeyDist, KeySampler, KvMix, ValueSize};
use harness::VariantSpec;

const NUM_KEYS: u64 = 16_384;
const SHARDS: usize = 16;
/// Capacity hint per shard (keys, not buckets): the key space split evenly,
/// landing each shard's table near the ~0.75 target load factor.
const CAPACITY_PER_SHARD: usize = (NUM_KEYS as usize) / SHARDS;

const VARIANTS: [VariantSpec; 4] = [
    VariantSpec::ValShort,
    VariantSpec::TvarShortG,
    VariantSpec::OrecFullG,
    VariantSpec::LockFree,
];

fn configure(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(400));
}

fn bench_kv_panel(c: &mut Criterion, name: &str, mix: KvMix, dist: KeyDist, value_size: ValueSize) {
    let mut group = c.benchmark_group(name);
    configure(&mut group);
    // Bytes-per-op annotation only for the point-operation mixes, where one
    // operation moves exactly one value of the distribution.  An RMW moves
    // `rmw_keys`, so a flat per-value figure would misreport its MB/s by a
    // mix-dependent factor; those panels report ns/iter only.
    if matches!(mix, KvMix::ReadHeavy | KvMix::UpdateHeavy | KvMix::ReadOnly) {
        group.throughput(Throughput::Bytes(value_size.mean_len() as u64));
    }
    for spec in VARIANTS {
        let mut runner = kv_runner(
            spec,
            SHARDS,
            CAPACITY_PER_SHARD,
            NUM_KEYS,
            mix,
            dist,
            value_size,
        );
        let sampler = KeySampler::new(dist, NUM_KEYS);
        let mut rng = Xorshift::new(0xC0DE_5EED);
        group.bench_function(spec.label(), |b| {
            b.iter(|| {
                let key = sampler.sample(&mut rng);
                let raw = rng.next();
                runner(key, raw);
            })
        });
    }
    group.finish();
}

fn mix_panel(c: &mut Criterion, mix: KvMix, dist: KeyDist) {
    let name = format!("kv_{}_{}", mix.label().replace('/', "_"), dist.label());
    bench_kv_panel(c, &name, mix, dist, ValueSize::default());
}

fn read_heavy(c: &mut Criterion) {
    mix_panel(c, KvMix::ReadHeavy, KeyDist::Uniform);
    mix_panel(c, KvMix::ReadHeavy, KeyDist::Zipfian);
}

fn update_heavy(c: &mut Criterion) {
    mix_panel(c, KvMix::UpdateHeavy, KeyDist::Uniform);
    mix_panel(c, KvMix::UpdateHeavy, KeyDist::Zipfian);
}

fn read_modify_write(c: &mut Criterion) {
    mix_panel(c, KvMix::ReadModifyWrite, KeyDist::Uniform);
    mix_panel(c, KvMix::ReadModifyWrite, KeyDist::Latest);
}

/// The value-size sweep: 8 B inline, 100 B and 1 KiB out-of-line cells,
/// read-heavy 95/5 over uniform keys (EXPERIMENTS.md § value-size sweep).
fn value_sizes(c: &mut Criterion) {
    for (label, size) in [
        ("8B", ValueSize::Fixed(8)),
        ("100B", ValueSize::Fixed(100)),
        ("1KB", ValueSize::Fixed(1_024)),
    ] {
        let name = format!("kv_value_{label}_read_heavy_uniform");
        bench_kv_panel(c, &name, KvMix::ReadHeavy, KeyDist::Uniform, size);
    }
}

/// The probe-length panel: read-heavy point lookups with the tables pinned
/// at low, target and stressed occupancy (EXPERIMENTS.md § load-factor
/// sweep).  Every table is built with the same capacity hint — 1 280 keys
/// per shard, which sizes each shard at 256 home buckets (1 792 slots) —
/// and the *key count* sweeps the load factor: 0.25 (half-empty lines),
/// 0.50, and 0.90 (past the ~0.75 design target, where overflow chains
/// appear).  Bounded probe lengths mean the ns/op spread across these three
/// groups stays small; `kv --stats --key-range N --capacity 20480` prints
/// the matching probe-length histograms.
fn load_factors(c: &mut Criterion) {
    const SWEEP_CAPACITY_PER_SHARD: usize = 1_280;
    const SLOTS: u64 = 16 * 256 * 7; // shards x home buckets x slots/bucket
    for (label, num_keys) in [
        ("0.25", SLOTS / 4),
        ("0.50", SLOTS / 2),
        ("0.90", SLOTS * 9 / 10),
    ] {
        let name = format!("kv_load_{label}_read_heavy_uniform");
        let mut group = c.benchmark_group(&name);
        configure(&mut group);
        for spec in VARIANTS {
            let mut runner = kv_runner(
                spec,
                SHARDS,
                SWEEP_CAPACITY_PER_SHARD,
                num_keys,
                KvMix::ReadHeavy,
                KeyDist::Uniform,
                ValueSize::default(),
            );
            let sampler = KeySampler::new(KeyDist::Uniform, num_keys);
            let mut rng = Xorshift::new(0xC0DE_5EED);
            group.bench_function(spec.label(), |b| {
                b.iter(|| {
                    let key = sampler.sample(&mut rng);
                    let raw = rng.next();
                    runner(key, raw);
                })
            });
        }
        group.finish();
    }
}

criterion_group!(
    kvstore,
    read_heavy,
    update_heavy,
    read_modify_write,
    value_sizes,
    load_factors
);
criterion_main!(kvstore);
