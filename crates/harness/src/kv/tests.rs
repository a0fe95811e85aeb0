//! Unit tests of the KV workload, adapters and driver.

use std::sync::Arc;
use std::time::Duration;

use lockfree::LockFreeKvMap;
use spectm::variants::ValShort;
use spectm::Stm;
use spectm_ds::ApiMode;
use spectm_kv::BatchOp;
use txepoch::Collector;

use super::*;
use crate::intset::Xorshift;
use crate::variants::VariantSpec;

fn tiny_cfg(mix: KvMix, dist: KeyDist, threads: usize) -> KvWorkloadConfig {
    KvWorkloadConfig {
        threads,
        duration: Duration::from_millis(20),
        mix,
        dist,
        ..KvWorkloadConfig::sized_for(512)
    }
}

#[test]
fn value_size_flags_roundtrip() {
    assert_eq!(ValueSize::from_flag("fixed:8"), Some(ValueSize::Fixed(8)));
    assert_eq!(
        ValueSize::from_flag("uniform:64..1024"),
        Some(ValueSize::Uniform(64, 1024))
    );
    assert_eq!(ValueSize::from_flag("zipf"), Some(ValueSize::Zipf));
    assert_eq!(ValueSize::from_flag("uniform:9..3"), None, "A > B");
    assert_eq!(ValueSize::from_flag("fixed:"), None);
    assert_eq!(ValueSize::from_flag("bogus"), None);
    assert_eq!(
        ValueSize::from_flag(&format!("fixed:{}", spectm_kv::MAX_VALUE_LEN + 1)),
        None,
        "sizes beyond the store cap are rejected at parse time"
    );
    for vs in [
        ValueSize::Fixed(100),
        ValueSize::Uniform(64, 256),
        ValueSize::Zipf,
    ] {
        assert_eq!(ValueSize::from_flag(&vs.label()), Some(vs));
    }
}

#[test]
fn value_len_samplers_stay_in_range() {
    for vs in [
        ValueSize::Fixed(100),
        ValueSize::Uniform(64, 256),
        ValueSize::Uniform(0, 0),
        ValueSize::Zipf,
    ] {
        let sampler = ValueLenSampler::new(vs);
        let mut rng = Xorshift::new(31);
        for _ in 0..5_000 {
            let len = sampler.sample(&mut rng);
            assert!(len <= vs.max_len(), "{vs:?} drew {len}");
            match vs {
                ValueSize::Fixed(n) => assert_eq!(len, n),
                ValueSize::Uniform(a, _) => assert!(len >= a),
                ValueSize::Zipf => assert!(len >= 1),
            }
        }
    }
}

#[test]
fn payloads_self_certify_and_reject_corruption() {
    let mut buf = Vec::new();
    for len in [0usize, 1, 3, 4, 7, 8, 9, 100, 1024] {
        for nonce in [0u64, 7, 0xDEAD] {
            fill_payload(42, nonce, len, &mut buf);
            assert_eq!(buf.len(), len);
            assert!(payload_is_valid(42, &buf), "len {len} nonce {nonce}");
            if len > 0 {
                // Any flipped byte must fail, as must the wrong key.
                let mut corrupt = buf.clone();
                corrupt[len / 2] ^= 0x40;
                assert!(!payload_is_valid(42, &corrupt), "len {len}");
                assert!(!payload_is_valid(43, &buf), "len {len}");
            }
        }
    }
}

#[test]
fn eight_byte_payloads_stay_on_the_inline_int_path() {
    // The checksum mask must keep word-sized payloads below
    // 2^INLINE_INT_BITS so the default value size never allocates.
    let mut buf = Vec::new();
    for key in 0..500u64 {
        fill_payload(key, key.wrapping_mul(977), 8, &mut buf);
        assert!(
            spectm::encode_inline(&buf).is_some(),
            "key {key}: 8-byte payload fell off the inline path"
        );
    }
}

#[test]
fn zipfian_ranks_are_skewed_and_in_range() {
    let z = Zipfian::new(1_000, ZIPFIAN_THETA);
    let mut rng = Xorshift::new(7);
    let mut counts = vec![0u32; 1_000];
    for _ in 0..20_000 {
        let rank = z.sample(rng.next_f64());
        assert!(rank < 1_000);
        counts[rank as usize] += 1;
    }
    // Rank 0 must dominate: more draws than the entire upper half.
    let upper_half: u32 = counts[500..].iter().sum();
    assert!(
        counts[0] > upper_half,
        "rank 0 drawn {} times vs upper half {}",
        counts[0],
        upper_half
    );
}

#[test]
fn samplers_stay_in_range_for_every_distribution() {
    for dist in [KeyDist::Uniform, KeyDist::Zipfian, KeyDist::Latest] {
        let sampler = KeySampler::new(dist, 333);
        let mut rng = Xorshift::new(11);
        for _ in 0..5_000 {
            assert!(sampler.sample(&mut rng) < 333, "{dist:?} out of range");
        }
    }
}

#[test]
fn latest_distribution_prefers_recent_keys() {
    let sampler = KeySampler::new(KeyDist::Latest, 1_000);
    let mut rng = Xorshift::new(13);
    let mut top_decile = 0u32;
    const DRAWS: u32 = 10_000;
    for _ in 0..DRAWS {
        if sampler.sample(&mut rng) >= 900 {
            top_decile += 1;
        }
    }
    // Under uniform the top decile would get ~10%; recency skew must
    // push it far beyond that.
    assert!(
        top_decile > DRAWS / 2,
        "top decile only drew {top_decile} of {DRAWS}"
    );
}

const ALL_MIXES: [KvMix; 5] = [
    KvMix::ReadHeavy,
    KvMix::UpdateHeavy,
    KvMix::ReadOnly,
    KvMix::ScanHeavy,
    KvMix::ReadModifyWrite,
];

#[test]
fn stm_store_serves_every_mix() {
    for mix in ALL_MIXES {
        let store = Arc::new(StmKvBench::new(ValShort::new(), 4, 128, ApiMode::Short));
        let (res, _) = run_kv(store, &tiny_cfg(mix, KeyDist::Zipfian, 2));
        assert!(res.total_ops > 0, "{mix:?}");
        assert!(res.throughput > 0.0, "{mix:?}");
    }
}

#[test]
fn lock_free_store_serves_every_mix() {
    for mix in ALL_MIXES {
        let store = Arc::new(LockFreeKvBench::new(LockFreeKvMap::new(
            512,
            Collector::new(),
        )));
        let (res, _) = run_kv(store, &tiny_cfg(mix, KeyDist::Uniform, 2));
        assert!(res.total_ops > 0, "{mix:?}");
    }
}

#[test]
fn verified_runs_pass_for_every_value_size() {
    // Concurrent checksum verification plus the post-run oracle sweep,
    // across all three value-size distributions (and both stores for
    // the acceptance shape, uniform:64..1024).
    for vs in [
        ValueSize::Fixed(8),
        ValueSize::Uniform(64, 1024),
        ValueSize::Zipf,
    ] {
        let cfg = KvWorkloadConfig {
            value_size: vs,
            verify: true,
            ..tiny_cfg(KvMix::UpdateHeavy, KeyDist::Zipfian, 2)
        };
        let store = Arc::new(StmKvBench::new(ValShort::new(), 4, 128, ApiMode::Short));
        assert!(run_kv(store, &cfg).0.total_ops > 0, "{vs:?}");
    }
    let cfg = KvWorkloadConfig {
        value_size: ValueSize::Uniform(64, 1024),
        verify: true,
        ..tiny_cfg(KvMix::ScanHeavy, KeyDist::Uniform, 2)
    };
    let store = Arc::new(LockFreeKvBench::new(LockFreeKvMap::new(
        512,
        Collector::new(),
    )));
    assert!(run_kv(store, &cfg).0.total_ops > 0);
}

#[test]
fn build_batch_follows_the_mix_split() {
    let cfg = KvWorkloadConfig {
        mix: KvMix::ReadHeavy,
        ..KvWorkloadConfig::sized_for(512)
    };
    let mut state = WorkerState::new(&cfg, 0xABCD);
    state.build_batch(1_000);
    assert_eq!(state.batch_ops().len(), 1_000);
    let reads = state.batch_ops().iter().filter(|op| !op.is_write()).count();
    // 95/5 split, give or take sampling noise.
    assert!((900..=990).contains(&reads), "{reads} reads of 1000");
    for op in state.batch_ops() {
        assert!(op.key() < 512, "key outside the space");
        if let BatchOp::Put(key, value, _) = op {
            assert!(payload_is_valid(*key, value), "unverifiable payload");
        }
    }
    // Read-only mixes build pure get batches.
    let cfg = KvWorkloadConfig {
        mix: KvMix::ReadOnly,
        ..KvWorkloadConfig::sized_for(512)
    };
    let mut state = WorkerState::new(&cfg, 0xABCD);
    state.build_batch(100);
    assert!(state.batch_ops().iter().all(|op| !op.is_write()));
}

#[test]
fn scan_params_draw_sane_lengths_and_insert_keys() {
    let scan = ScanParams::for_keys(1_000);
    let mut rng = Xorshift::new(17);
    let mut max_len = 0;
    for _ in 0..5_000 {
        let len = scan.sample_len(&mut rng);
        assert!((1..=MAX_SCAN_LEN).contains(&len));
        max_len = max_len.max(len);
        let key = scan.insert_key(&mut rng);
        assert!((1_000..2_000).contains(&key), "insert key {key}");
    }
    // The zipfian tail must actually be exercised now and then.
    assert!(max_len > MAX_SCAN_LEN / 2, "longest draw was {max_len}");
}

#[test]
fn ycsb_letters_map_to_mixes() {
    assert_eq!(KvMix::from_ycsb_letter('a'), Some(KvMix::UpdateHeavy));
    assert_eq!(KvMix::from_ycsb_letter('B'), Some(KvMix::ReadHeavy));
    assert_eq!(KvMix::from_ycsb_letter('c'), Some(KvMix::ReadOnly));
    assert_eq!(KvMix::from_ycsb_letter('e'), Some(KvMix::ScanHeavy));
    assert_eq!(KvMix::from_ycsb_letter('f'), Some(KvMix::ReadModifyWrite));
    assert_eq!(KvMix::from_ycsb_letter('d'), None);
    assert_eq!(KeyDist::from_name("Zipfian"), Some(KeyDist::Zipfian));
    assert_eq!(KeyDist::from_name("bogus"), None);
}

#[test]
fn scan_heavy_mix_produces_ordered_scans() {
    // Drive the dispatch directly and check scans come back sorted and
    // bounded from the STM store.
    let bench = StmKvBench::new(ValShort::new(), 4, 64, ApiMode::Short);
    load_keys(&bench, 256, ValueSize::Uniform(1, 64));
    let mut ctx = bench.thread_ctx();
    let scan = ScanParams::for_keys(256);
    let mut rng = Xorshift::new(23);
    for _ in 0..200 {
        let start = rng.next() % 256;
        let len = scan.sample_len(&mut rng);
        let run = bench.scan(start, len, &mut ctx);
        assert!(run.len() <= len);
        assert!(run.windows(2).all(|w| w[0].0 < w[1].0), "unsorted scan");
        assert!(run.iter().all(|(k, _)| *k >= start), "key below start");
        assert!(
            run.iter().all(|(k, v)| payload_is_valid(*k, v)),
            "scan returned a corrupt payload"
        );
    }
}

/// Every concurrent [`VariantSpec`] builds a store through the one
/// catalogue expansion and serves a tiny run.
#[test]
fn variant_runner_covers_the_acceptance_variants() {
    let cfg = tiny_cfg(KvMix::ReadModifyWrite, KeyDist::Zipfian, 1);
    let concurrent = VariantSpec::all().into_iter().filter(|v| v.concurrent());
    for spec in concurrent {
        let (thpt, hit_rate) = run_kv_variant(spec, &cfg, 1);
        assert!(thpt > 0.0, "{} produced no throughput", spec.label());
        assert_eq!(hit_rate, None, "cache mode is off");
    }
}
