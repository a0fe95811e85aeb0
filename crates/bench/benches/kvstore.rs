//! Per-operation latency of the sharded KV store under the YCSB-style
//! mixes, key distributions and value sizes — the Criterion companion of
//! the `kv` binary's multi-threaded sweeps (see EXPERIMENTS.md).
//!
//! One group per mix × distribution panel; within each group, one series
//! per variant (the short-transaction layouts, the BaseTM full-transaction
//! shape and the lock-free baseline).  Scan latency is not measured here:
//! the repo benchmark's `store.scan16_ns` rung (benchmark/README.md) and the
//! `kv --workload e` sweep (EXPERIMENTS.md) cover it.
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

use bench::{kv_batch_runner, kv_runner};
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

/// The batch-size sweep: one iteration executes one whole batch, and the
/// `Throughput::Elements` annotation divides it back out, so every panel
/// reports **operations per second** — directly comparable across batch
/// sizes and against the unbatched read-heavy panel.  Batch 1 measures the
/// batch API's fixed cost; 16 and 128 show routing + epoch entry
/// amortizing away (EXPERIMENTS.md § "The batch sweep").
fn batch_sizes(c: &mut Criterion) {
    for batch in [1usize, 16, 128] {
        let name = format!("kv_batch_{batch}_read_heavy_uniform");
        let mut group = c.benchmark_group(&name);
        configure(&mut group);
        group.throughput(Throughput::Elements(batch as u64));
        for spec in VARIANTS {
            let mut runner = kv_batch_runner(
                spec,
                SHARDS,
                CAPACITY_PER_SHARD,
                NUM_KEYS,
                KvMix::ReadHeavy,
                KeyDist::Uniform,
                ValueSize::default(),
                batch,
            );
            group.bench_function(spec.label(), |b| b.iter(&mut runner));
        }
        group.finish();
    }
}

/// The coalescing panel: F frames of 16 gets each, executed either as F
/// separate `execute_batch_into` dispatches — one epoch entry and one
/// grouping pass per frame, what a per-connection server pays — or as one
/// `MultiBatch` dispatch covering all F frames, what the multiplexing
/// server's sweep pays.  Both series run the identical pre-drawn key
/// stream and report ops/s via `Throughput::Elements`, so the gap *is* the
/// amortized per-frame fixed cost (EXPERIMENTS.md § "The connection
/// sweep").
fn coalesced_dispatch(c: &mut Criterion) {
    use spectm::variants::ValShort;
    use spectm::Stm;
    use spectm_ds::ApiMode;
    use spectm_kv::{BatchRequest, BatchResponse, MultiBatch, ShardedKv};

    const OPS_PER_FRAME: usize = 16;
    let stm = ValShort::new();
    let store = ShardedKv::new(&stm, SHARDS, CAPACITY_PER_SHARD, ApiMode::Short);
    let mut thread = store.register();
    for key in 0..NUM_KEYS {
        store.put(key, &key.to_le_bytes(), &mut thread).unwrap();
    }
    let mut rng = Xorshift::new(0xC0DE_5EED);
    for frames in [4usize, 16] {
        let name = format!("kv_coalesce_{frames}x{OPS_PER_FRAME}_get_uniform");
        let mut group = c.benchmark_group(&name);
        configure(&mut group);
        group.throughput(Throughput::Elements((frames * OPS_PER_FRAME) as u64));
        let keys: Vec<Vec<u64>> = (0..frames)
            .map(|_| (0..OPS_PER_FRAME).map(|_| rng.next() % NUM_KEYS).collect())
            .collect();
        let mut reqs: Vec<BatchRequest> = keys
            .iter()
            .map(|frame| {
                let mut req = BatchRequest::new();
                for &key in frame {
                    req.get(key);
                }
                req
            })
            .collect();
        let mut resp = BatchResponse::new();
        group.bench_function("separate_dispatches", |b| {
            b.iter(|| {
                for req in &mut reqs {
                    store
                        .execute_batch_into(req, &mut resp, &mut thread)
                        .unwrap();
                }
            })
        });
        let mut multi = MultiBatch::new();
        for (source, frame) in keys.iter().enumerate() {
            for &key in frame {
                multi.request_mut().get(key);
            }
            multi.commit_frame(source);
        }
        group.bench_function("one_multibatch", |b| {
            b.iter(|| store.execute_multi(&mut multi, &mut thread).unwrap())
        });
        group.finish();
    }
}

criterion_group!(
    kvstore,
    read_heavy,
    update_heavy,
    read_modify_write,
    value_sizes,
    load_factors,
    batch_sizes,
    coalesced_dispatch
);
criterion_main!(kvstore);
