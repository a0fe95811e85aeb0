//! Deterministic eviction-policy comparison on the zipfian read-through
//! churn workload (the acceptance gate of the TTL/eviction work): with a
//! byte budget far below the working set, per-key CLOCK eviction (each
//! entry's frequency byte) must keep the hot keys resident and beat FIFO
//! on hit rate.
//!
//! Everything is driven single-threaded with manual sweep steps instead of
//! the background reclaimer, so both runs are exact replays of the same
//! operation stream and the comparison carries no scheduling noise.

use harness::kv::{fill_payload, KeyDist, KvMix, KvWorkloadConfig, ValueSize, WorkerState};
use spectm::variants::ValShort;
use spectm::Stm;
use spectm_ds::ApiMode;
use spectm_kv::{CacheConfig, CacheStats, EvictionPolicy, ShardedKv, ITEM_OVERHEAD_BYTES};

const NUM_KEYS: u64 = 8_192;
const VALUE_LEN: usize = 64;
/// ~1/6 of the working set fits: `NUM_KEYS × (VALUE_LEN + overhead)` is
/// 1.5 MiB against a 256 KiB budget, so eviction runs constantly.
const BUDGET: u64 = 256 * 1024;
/// Home buckets the budget gives the store: `BUDGET / (4 ×
/// ITEM_OVERHEAD_BYTES)`, fewer than the 16 × 128 the key count would.
const BUCKETS: usize = 512;
const OPS: u64 = 120_000;
/// A sweep step every this many operations bounds the overshoot between
/// sweeps to `SWEEP_EVERY × item_bytes` ≈ 9% of the budget.
const SWEEP_EVERY: u64 = 128;
const SWEEP_BUCKETS: usize = 128;

/// Runs the churn stream once under `policy` and reports the steady-state
/// hit rate (second half of the run, after the resident set has churned to
/// the policy's equilibrium) plus the final counters.
fn churn_run(policy: EvictionPolicy) -> (f64, CacheStats) {
    let stm = ValShort::new();
    let cfg = KvWorkloadConfig {
        mix: KvMix::Churn,
        dist: KeyDist::Zipfian,
        value_size: ValueSize::Fixed(VALUE_LEN),
        cache: CacheConfig {
            max_bytes: Some(BUDGET),
            policy,
            ..CacheConfig::default()
        },
        ..KvWorkloadConfig::sized_for(NUM_KEYS)
    };
    // The budget sizes the tables, not the key count: one home bucket per
    // four minimum-cost items it holds, so the ~1 400 resident keys share
    // 512 buckets, about three a bucket.  Each key's CLOCK byte is its
    // own, so sharing a bucket blurs no hot key into a cold one.
    let store = ShardedKv::with_config(
        &stm,
        cfg.shards,
        cfg.capacity_per_shard,
        ApiMode::Short,
        cfg.cache.clone(),
    );
    assert_eq!(store.bucket_count(), BUCKETS);
    let mut thread = store.register();
    let mut state = WorkerState::new(&cfg, 0xC0DE_CAFE);
    let mut buf = Vec::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    for i in 0..OPS {
        let key = state.sample_key();
        let raw = state.next_raw();
        match store.get(key, &mut thread) {
            Some(_) => {
                if i >= OPS / 2 {
                    hits += 1;
                }
            }
            None => {
                if i >= OPS / 2 {
                    misses += 1;
                }
                fill_payload(key, raw, VALUE_LEN, &mut buf);
                store
                    .put(key, &buf, &mut thread)
                    .expect("fill payloads are size-bounded");
            }
        }
        if i % SWEEP_EVERY == SWEEP_EVERY - 1 {
            store.sweep_step(SWEEP_BUCKETS, &mut thread);
        }
    }
    // Final full pass at quiescence: afterwards the accounting invariant
    // (live bytes at or under budget) must hold unconditionally.
    store.sweep_step(store.bucket_count(), &mut thread);
    let stats = store.cache_stats();
    (hits as f64 / (hits + misses) as f64, stats)
}

#[test]
fn freq_eviction_beats_fifo_on_zipfian_churn() {
    assert!(
        NUM_KEYS * (VALUE_LEN as u64 + ITEM_OVERHEAD_BYTES) > 4 * BUDGET,
        "the working set must dwarf the budget for the comparison to mean anything"
    );
    let (freq_rate, freq) = churn_run(EvictionPolicy::Freq);
    let (fifo_rate, fifo) = churn_run(EvictionPolicy::Fifo);
    println!("hit rate: freq {freq_rate:.4}, fifo {fifo_rate:.4}");

    assert!(freq.evicted > 0, "freq run never evicted: {freq:?}");
    assert!(fifo.evicted > 0, "fifo run never evicted: {fifo:?}");
    assert!(
        freq.live_bytes <= BUDGET,
        "freq run over budget after the final sweep: {} > {BUDGET}",
        freq.live_bytes
    );
    assert!(
        fifo.live_bytes <= BUDGET,
        "fifo run over budget after the final sweep: {} > {BUDGET}",
        fifo.live_bytes
    );
    // The margin is deliberately coarse — the claim is "frequency
    // protection visibly helps", not a specific number.
    assert!(
        freq_rate > fifo_rate + 0.02,
        "freq hit rate {freq_rate:.4} must beat fifo {fifo_rate:.4} by more than 2 points"
    );
}
