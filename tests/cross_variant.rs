//! Cross-crate integration tests: every STM variant drives every data
//! structure through the same scenarios, and results are checked against the
//! sequential baselines from the `lockfree` crate; the STM map and its
//! lock-free twin must build the same bucket table from the same keys.

use std::sync::Arc;

use lockfree::{LockFreeKvMap, SeqHashTable, SeqSkipList, SequentialIntSet};
use spectm::variants::{OrecFullG, OrecStm, TvarShortG, TvarStm, ValShort};
use spectm::{Config, Stm};
use spectm_ds::{ApiMode, StmHashTable, StmSkipList, TxDeque};
use spectm_kv::StmHashMap;

fn mixed_ops<S: Stm + Clone>(stm: S, mode: ApiMode, seed: u64) {
    let table = StmHashTable::new(&stm, 64, mode);
    let list = StmSkipList::new(&stm, mode);
    let mut oracle_table = SeqHashTable::new(64);
    let mut oracle_list = SeqSkipList::new();
    let mut thread = stm.register();

    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..1_500 {
        let k = rng() % 128 + 1;
        match rng() % 3 {
            0 => {
                assert_eq!(table.insert(k, &mut thread), oracle_table.insert(k));
                assert_eq!(list.insert(k, &mut thread), oracle_list.insert(k));
            }
            1 => {
                assert_eq!(table.remove(k, &mut thread), oracle_table.remove(k));
                assert_eq!(list.remove(k, &mut thread), oracle_list.remove(k));
            }
            _ => {
                assert_eq!(table.contains(k, &mut thread), oracle_table.contains(k));
                assert_eq!(list.contains(k, &mut thread), oracle_list.contains(k));
            }
        }
    }
    assert_eq!(table.quiescent_snapshot().len(), oracle_table.len());
    assert_eq!(list.quiescent_snapshot().len(), oracle_list.len());
}

#[test]
fn every_layout_and_mode_matches_the_sequential_oracle() {
    mixed_ops(OrecStm::with_config(Config::global()), ApiMode::Full, 11);
    mixed_ops(OrecStm::with_config(Config::local()), ApiMode::Full, 12);
    mixed_ops(OrecStm::with_config(Config::global()), ApiMode::Short, 13);
    mixed_ops(OrecStm::with_config(Config::local()), ApiMode::Short, 14);
    mixed_ops(OrecStm::with_config(Config::global()), ApiMode::Fine, 15);
    mixed_ops(TvarStm::with_config(Config::global()), ApiMode::Full, 16);
    mixed_ops(TvarStm::with_config(Config::local()), ApiMode::Short, 17);
    mixed_ops(TvarStm::with_config(Config::global()), ApiMode::Short, 18);
    mixed_ops(ValShort::new(), ApiMode::Full, 19);
    mixed_ops(ValShort::new(), ApiMode::Short, 20);
    mixed_ops(ValShort::new(), ApiMode::Fine, 21);
}

#[test]
fn deque_and_sets_share_one_stm_instance() {
    // All data structures of one program can share a single STM instance and
    // a single per-thread handle, as in the paper's implementation.
    let stm = ValShort::new();
    let table = StmHashTable::new(&stm, 32, ApiMode::Short);
    let deque = TxDeque::new(&stm, 16);
    let mut thread = stm.register();

    for k in 0..10u64 {
        assert!(table.insert(k, &mut thread));
        assert!(deque.push_right(k, &mut thread));
    }
    for k in 0..10u64 {
        assert!(table.contains(k, &mut thread));
        assert_eq!(deque.pop_left(&mut thread), Some(k));
    }
}

#[test]
fn concurrent_mixed_structures_stay_consistent() {
    // Threads move keys between a hash table and a skip list; a key must
    // never be lost (it is in exactly one structure at quiescence).
    let stm = Arc::new(TvarStm::with_config(Config::global()));
    let table = Arc::new(StmHashTable::new(&*stm, 128, ApiMode::Short));
    let list = Arc::new(StmSkipList::new(&*stm, ApiMode::Short));

    const KEYS: u64 = 256;
    {
        let mut t = stm.register();
        for k in 1..=KEYS {
            assert!(table.insert(k, &mut t));
        }
    }

    let mut joins = Vec::new();
    for tid in 0..4u64 {
        let stm = Arc::clone(&stm);
        let table = Arc::clone(&table);
        let list = Arc::clone(&list);
        joins.push(std::thread::spawn(move || {
            let mut t = stm.register();
            let mut state = tid * 97 + 3;
            for _ in 0..2_000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let k = state % KEYS + 1;
                // Try to move the key from the table to the list, or back.
                if table.remove(k, &mut t) {
                    assert!(list.insert(k, &mut t), "key {k} duplicated in list");
                } else if list.remove(k, &mut t) {
                    assert!(table.insert(k, &mut t), "key {k} duplicated in table");
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    let in_table = table.quiescent_snapshot();
    let in_list = list.quiescent_snapshot();
    assert_eq!(
        in_table.len() + in_list.len(),
        KEYS as usize,
        "every key lives in exactly one structure"
    );
    for k in 1..=KEYS {
        let t = in_table.binary_search(&k).is_ok();
        let l = in_list.binary_search(&k).is_ok();
        assert!(t ^ l, "key {k} must be in exactly one structure");
    }
}

/// Loads 600 keys into a `StmHashMap` of `stm`/`mode` and into the
/// lock-free `LockFreeKvMap` at the same 64-key capacity hint, so chains run
/// at least 3 buckets deep, then deletes every third key: both times the two
/// maps must have built the same table — bucket count, every `MapStats`
/// field including the probe histogram — holding the same pairs.
fn maps_build_one_table<S: Stm + Clone>(stm: S, mode: ApiMode) {
    const CAPACITY: usize = 64;
    const KEYS: u64 = 600;
    let map = StmHashMap::new(&stm, CAPACITY, mode);
    let lock_free = LockFreeKvMap::new(CAPACITY, txepoch::Collector::new());
    let mut thread = stm.register();
    let handle = lock_free.collector().register();
    let key = |i: u64| i.wrapping_mul(0x9E37_79B1);
    for i in 0..KEYS {
        let value = i.to_le_bytes();
        assert_eq!(map.put(key(i), &value, &mut thread).unwrap(), None);
        assert_eq!(lock_free.put(key(i), &value, &handle).unwrap(), None);
    }
    assert!(map.stats().max_probe() >= 3, "{}", map.stats());
    for deleted in [false, true] {
        if deleted {
            for i in (0..KEYS).step_by(3) {
                assert!(map.del(key(i), &mut thread).is_some());
                assert!(lock_free.del(key(i), &handle).is_some());
            }
        }
        assert_eq!(map.bucket_count(), lock_free.bucket_count());
        assert_eq!(map.stats(), lock_free.stats(&handle), "{mode:?}");
        assert_eq!(map.quiescent_snapshot(), lock_free.snapshot(&handle));
    }
}

#[test]
fn stm_and_lock_free_maps_probe_identical_tables() {
    maps_build_one_table(ValShort::new(), ApiMode::Short);
    maps_build_one_table(TvarShortG::new(), ApiMode::Short);
    maps_build_one_table(OrecFullG::new(), ApiMode::Full);
}

#[test]
fn stats_reflect_api_usage() {
    use spectm::StmThread;
    let stm = ValShort::new();
    let table = StmHashTable::new(&stm, 32, ApiMode::Short);
    let mut thread = stm.register();
    for k in 0..50u64 {
        table.insert(k, &mut thread);
    }
    let stats = thread.stats();
    assert!(stats.singles > 0, "short mode uses single-location CASes");
    assert_eq!(stats.full_aborts, 0, "uncontended run should not abort");
}
