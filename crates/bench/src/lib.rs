//! Shared helpers for the Criterion benchmarks.
//!
//! The benchmark targets in `benches/` reproduce the paper's figures at the
//! granularity Criterion is good at — per-operation latency of each variant —
//! while the `harness` binaries (`fig1`..`fig10`) produce the full
//! multi-threaded throughput sweeps.  DESIGN.md maps every figure to both.
//!
//! The main abstraction here is a *type-erased operation runner*: a boxed
//! closure that owns a fully constructed integer set (a given STM variant +
//! data structure + API mode, or a baseline) together with its per-thread
//! context, and performs one lookup/insert/remove per call.  Erasing the
//! types lets one Criterion loop iterate over the whole variant catalogue.

#![warn(missing_docs)]

use harness::adapters::{BenchSet, LockFreeBench, SeqBench, StmHashBench, StmSkipBench};
use harness::intset::{choose_op, SetOp};
use harness::kv::{
    KeyDist, KvMix, KvStore, KvWorkloadConfig, LockFreeKvBench, StmKvBench, ValueSize, WorkerState,
};
use harness::VariantSpec;
use lockfree::{LockFreeHashTable, LockFreeKvMap, LockFreeSkipList, SeqHashTable, SeqSkipList};
use spectm::variants::{OrecStm, TvarStm, ValShort};
use spectm::{Config, Stm};
use spectm_ds::ApiMode;
use txepoch::Collector;

/// A type-erased integer-set operation driver: `runner(key, raw)` picks a
/// lookup, insert or remove from the raw random draw via
/// [`harness::intset::choose_op`] — the same dispatch the multi-threaded
/// driver uses, so the two agree on the exact operation mix.
pub type OpRunner = Box<dyn FnMut(u64, u64)>;

fn erase<B: BenchSet>(set: B, key_range: u64, lookup_pct: u64) -> OpRunner {
    harness::intset::prefill(&set, key_range);
    let mut ctx = set.thread_ctx();
    Box::new(move |key, raw| match choose_op(raw, lookup_pct as u32) {
        SetOp::Lookup => {
            std::hint::black_box(set.contains(key, &mut ctx));
        }
        SetOp::Insert => {
            std::hint::black_box(set.insert(key, &mut ctx));
        }
        SetOp::Remove => {
            std::hint::black_box(set.remove(key, &mut ctx));
        }
    })
}

fn stm_config(spec: VariantSpec) -> Config {
    let mut config = match spec {
        VariantSpec::OrecFullL
        | VariantSpec::OrecShortL
        | VariantSpec::TvarFullL
        | VariantSpec::TvarShortL => Config::local(),
        _ => Config::global(),
    };
    config.orec_table_size = 1 << 18;
    config
}

fn api_mode(spec: VariantSpec) -> ApiMode {
    match spec {
        VariantSpec::OrecShortG
        | VariantSpec::OrecShortL
        | VariantSpec::TvarShortG
        | VariantSpec::TvarShortL
        | VariantSpec::ValShort => ApiMode::Short,
        VariantSpec::OrecFullGFine => ApiMode::Fine,
        _ => ApiMode::Full,
    }
}

/// Builds an operation runner over the hash table for `spec`.
pub fn hash_runner(spec: VariantSpec, buckets: usize, key_range: u64, lookup_pct: u64) -> OpRunner {
    match spec {
        VariantSpec::Sequential => erase(
            SeqBench::new(SeqHashTable::new(buckets)),
            key_range,
            lookup_pct,
        ),
        VariantSpec::LockFree => erase(
            LockFreeBench::new(LockFreeHashTable::new(buckets, Collector::new())),
            key_range,
            lookup_pct,
        ),
        VariantSpec::OrecFullG
        | VariantSpec::OrecFullL
        | VariantSpec::OrecShortG
        | VariantSpec::OrecShortL
        | VariantSpec::OrecFullGFine => erase(
            StmHashBench::new(
                OrecStm::with_config(stm_config(spec)),
                buckets,
                api_mode(spec),
            ),
            key_range,
            lookup_pct,
        ),
        VariantSpec::TvarFullG
        | VariantSpec::TvarFullL
        | VariantSpec::TvarShortG
        | VariantSpec::TvarShortL => erase(
            StmHashBench::new(
                TvarStm::with_config(stm_config(spec)),
                buckets,
                api_mode(spec),
            ),
            key_range,
            lookup_pct,
        ),
        VariantSpec::ValFull | VariantSpec::ValShort => erase(
            StmHashBench::new(
                ValShort::with_config(stm_config(spec)),
                buckets,
                api_mode(spec),
            ),
            key_range,
            lookup_pct,
        ),
    }
}

/// Builds an operation runner over the skip list for `spec`.
pub fn skip_runner(spec: VariantSpec, key_range: u64, lookup_pct: u64) -> OpRunner {
    match spec {
        VariantSpec::Sequential => erase(SeqBench::new(SeqSkipList::new()), key_range, lookup_pct),
        VariantSpec::LockFree => erase(
            LockFreeBench::new(LockFreeSkipList::new(Collector::new())),
            key_range,
            lookup_pct,
        ),
        VariantSpec::OrecFullG
        | VariantSpec::OrecFullL
        | VariantSpec::OrecShortG
        | VariantSpec::OrecShortL
        | VariantSpec::OrecFullGFine => erase(
            StmSkipBench::new(OrecStm::with_config(stm_config(spec)), api_mode(spec)),
            key_range,
            lookup_pct,
        ),
        VariantSpec::TvarFullG
        | VariantSpec::TvarFullL
        | VariantSpec::TvarShortG
        | VariantSpec::TvarShortL => erase(
            StmSkipBench::new(TvarStm::with_config(stm_config(spec)), api_mode(spec)),
            key_range,
            lookup_pct,
        ),
        VariantSpec::ValFull | VariantSpec::ValShort => erase(
            StmSkipBench::new(ValShort::with_config(stm_config(spec)), api_mode(spec)),
            key_range,
            lookup_pct,
        ),
    }
}

// ---------------------------------------------------------------------------
// KV-store runners
// ---------------------------------------------------------------------------

fn erase_kv<K: KvStore>(
    store: K,
    num_keys: u64,
    mix: KvMix,
    dist: KeyDist,
    value_size: ValueSize,
) -> OpRunner {
    harness::kv::load_keys(&store, num_keys, value_size);
    let mut ctx = store.thread_ctx();
    // Extra RMW keys, scan lengths and payload lengths follow the panel's
    // distributions, exactly as in the multi-threaded driver (`perform_op`
    // is the single dispatch shared by both, so the bench and the `kv`
    // binary measure the same workload).
    let cfg = KvWorkloadConfig {
        num_keys,
        mix,
        dist,
        value_size,
        ..KvWorkloadConfig::default()
    };
    let mut state = WorkerState::new(&cfg, 0x1D10_7BEE);
    Box::new(move |key, raw| {
        harness::kv::perform_op(&store, &mut ctx, key, raw, &mut state);
    })
}

/// Builds an operation runner over the sharded KV store for `spec` (any STM
/// variant or the lock-free baseline; there is no sequential KV store).
/// `capacity_per_shard` is the per-shard key-capacity hint the tables size
/// their bucket arrays from (~0.75 target load factor); `dist` governs the
/// keys of multi-key read-modify-writes, `value_size` the payload lengths;
/// the primary key is whatever the caller feeds the runner.
pub fn kv_runner(
    spec: VariantSpec,
    shards: usize,
    capacity_per_shard: usize,
    num_keys: u64,
    mix: KvMix,
    dist: KeyDist,
    value_size: ValueSize,
) -> OpRunner {
    match spec {
        VariantSpec::Sequential => panic!("the KV store has no sequential baseline"),
        VariantSpec::LockFree => erase_kv(
            LockFreeKvBench::new(LockFreeKvMap::new(
                shards * capacity_per_shard,
                Collector::new(),
            )),
            num_keys,
            mix,
            dist,
            value_size,
        ),
        VariantSpec::OrecFullG
        | VariantSpec::OrecFullL
        | VariantSpec::OrecShortG
        | VariantSpec::OrecShortL
        | VariantSpec::OrecFullGFine => erase_kv(
            StmKvBench::new(
                OrecStm::with_config(stm_config(spec)),
                shards,
                capacity_per_shard,
                api_mode(spec),
            ),
            num_keys,
            mix,
            dist,
            value_size,
        ),
        VariantSpec::TvarFullG
        | VariantSpec::TvarFullL
        | VariantSpec::TvarShortG
        | VariantSpec::TvarShortL => erase_kv(
            StmKvBench::new(
                TvarStm::with_config(stm_config(spec)),
                shards,
                capacity_per_shard,
                api_mode(spec),
            ),
            num_keys,
            mix,
            dist,
            value_size,
        ),
        VariantSpec::ValFull | VariantSpec::ValShort => erase_kv(
            StmKvBench::new(
                ValShort::with_config(stm_config(spec)),
                shards,
                capacity_per_shard,
                api_mode(spec),
            ),
            num_keys,
            mix,
            dist,
            value_size,
        ),
    }
}

/// A deterministic key/raw-draw stream shared by the bench loops.
pub struct KeyStream {
    state: u64,
    key_range: u64,
}

impl KeyStream {
    /// Creates a stream over `0..key_range`.
    pub fn new(seed: u64, key_range: u64) -> Self {
        Self {
            state: seed | 1,
            key_range,
        }
    }

    /// Next `(key, raw)` pair: a uniform key plus a raw 64-bit draw for the
    /// operation dispatch.
    pub fn next_pair(&mut self) -> (u64, u64) {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let key = self.state % self.key_range;
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        (key, self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runners_execute_operations_for_every_variant() {
        for spec in VariantSpec::all() {
            let mut runner = hash_runner(spec, 64, 256, 80);
            let mut stream = KeyStream::new(7, 256);
            for _ in 0..200 {
                let (key, dice) = stream.next_pair();
                runner(key, dice);
            }
        }
    }

    #[test]
    fn skip_runners_execute_operations_for_every_variant() {
        for spec in VariantSpec::all() {
            let mut runner = skip_runner(spec, 256, 80);
            let mut stream = KeyStream::new(9, 256);
            for _ in 0..200 {
                let (key, dice) = stream.next_pair();
                runner(key, dice);
            }
        }
    }

    #[test]
    fn kv_runners_execute_operations_for_every_concurrent_variant() {
        for mix in [KvMix::ReadHeavy, KvMix::UpdateHeavy, KvMix::ReadModifyWrite] {
            for spec in VariantSpec::all() {
                if spec == VariantSpec::Sequential {
                    continue;
                }
                let mut runner =
                    kv_runner(spec, 4, 64, 256, mix, KeyDist::Zipfian, ValueSize::Zipf);
                let mut stream = KeyStream::new(21, 256);
                for _ in 0..200 {
                    let (key, raw) = stream.next_pair();
                    runner(key, raw);
                }
            }
        }
    }
}
