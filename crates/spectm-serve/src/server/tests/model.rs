//! A seeded model check of the served cache: a budgeted store on a manual
//! clock behind a worker, driven over SimNet pipes by peers sending random
//! get, put, put-with-TTL and delete frames, with inline and out-of-line
//! values.  Between rounds of frames the seed advances the clock, runs a
//! `sweep_step` of a drawn length, or both.  After every step the store is
//! held to a sequential model — a map of keys to values and deadlines,
//! and the byte account those keys charge:
//!
//! * every response is the model's;
//! * the store holds exactly the model's keys and values;
//! * a sweep loses only expired keys and, while the account is over the
//!   budget, live ones — `CacheStats::evicted` counts exactly the live keys
//!   lost, and the sweep stops once at or under the budget; a sweep over
//!   the whole table leaves no expired key;
//! * `live_bytes` is Σ(`ITEM_OVERHEAD_BYTES` + length) over the keys held;
//! * `hits`, `misses` and `expired` are the model's;
//! * the index is consistent with the hash shards.
//!
//! Which keys a sweep evicts is the store's choice (CLOCK order over its
//! buckets); the model learns it from `quiescent_snapshot` and checks that
//! the choice kept the rules.  Runs on every STM variant over a fixed seed
//! range, on clean pipes and on partial-I/O storms, so any failure replays
//! from its seed.

use std::collections::BTreeMap;

use spectm::variants::{OrecFullG, TvarShortG};
use spectm_kv::{CacheStats, EvictionPolicy, ShardRouter, ITEM_OVERHEAD_BYTES};

use super::*;

/// Distinct keys, one per routing block so they spread over the shards.
const KEYS: u64 = 48;
/// Peers, each sending at most one frame per round.
const PEERS: usize = 3;
/// Rounds of frames per seed, each followed by the seed's clock and sweep
/// choice.
const ROUNDS: usize = 250;
/// About 16 items of the mean value length: a third of the key space fits.
const BUDGET: u64 = 16 * (ITEM_OVERHEAD_BYTES + 24);
/// The store's default TTL, which a plain put carries.
const DEFAULT_TTL_MS: u64 = 60;

fn key(i: u64) -> u64 {
    i * ShardRouter::BLOCK_KEYS
}

fn cost(value: &Value) -> u64 {
    ITEM_OVERHEAD_BYTES + value.len() as u64
}

/// What the store must hold and have counted.
#[derive(Default)]
struct Model {
    /// Every key physically present, expired ones included: its value and
    /// its deadline in ms on the store's clock (0 = immortal).
    items: BTreeMap<u64, (Value, u64)>,
    /// The counters; the account is recomputed from `items`.
    stats: CacheStats,
}

impl Model {
    fn expired(deadline: u64, now: u64) -> bool {
        deadline != 0 && deadline <= now
    }

    fn live_bytes(&self) -> u64 {
        self.items.values().map(|(value, _)| cost(value)).sum()
    }

    /// The entry under `key` if it is live at `now`, and whether a corpse
    /// lies there instead.
    fn lookup(&self, key: u64, now: u64) -> (Option<Value>, bool) {
        match self.items.get(&key) {
            Some((value, deadline)) if !Self::expired(*deadline, now) => {
                (Some(value.clone()), false)
            }
            Some(_) => (None, true),
            None => (None, false),
        }
    }

    /// Applies one operation and returns its response.  `atomic` says the
    /// operation runs in its shard group's one transaction, where a get
    /// leaves a corpse in place instead of removing it.
    fn apply(&mut self, op: &BatchOp, atomic: bool, now: u64) -> Option<Value> {
        let key = op.key();
        let (live, corpse) = self.lookup(key, now);
        if corpse && (op.is_write() || !atomic) {
            self.stats.expired += 1;
            self.items.remove(&key);
        }
        match op {
            BatchOp::Get(_) => {
                if live.is_some() {
                    self.stats.hits += 1;
                } else {
                    self.stats.misses += 1;
                }
            }
            BatchOp::Put(_, value, ttl) => {
                let ttl = ttl.unwrap_or(DEFAULT_TTL_MS);
                let deadline = if ttl == 0 { 0 } else { now + ttl };
                self.items.insert(key, (value.clone(), deadline));
            }
            BatchOp::Del(_) => {
                self.items.remove(&key);
            }
        }
        live
    }
}

/// Which operations of one dispatch run in an atomic shard group: a
/// dispatch of several operations groups them by shard, and a group that
/// reads and writes one key runs as one transaction.
fn atomic_ops(ops: &[BatchOp], router: ShardRouter) -> Vec<bool> {
    if ops.len() == 1 {
        return vec![false];
    }
    let shard = |op: &BatchOp| router.route(op.key());
    let mixes = |s: usize| {
        ops.iter().any(|w| {
            w.is_write()
                && shard(w) == s
                && ops
                    .iter()
                    .any(|r| !r.is_write() && shard(r) == s && r.key() == w.key())
        })
    };
    ops.iter().map(|op| mixes(shard(op))).collect()
}

/// A value of a drawn length: inline (up to 7 bytes, or an 8-byte
/// integer) or out of line.
fn draw_value(net: &mut SimNet) -> Vec<u8> {
    let len = match net.below(4) {
        0 => net.below(8),
        1 => 8,
        2 => 9 + net.below(40),
        _ => 100 + net.below(200),
    };
    (0..len).map(|_| net.below(256) as u8).collect()
}

/// One to four seed-drawn operations over the model's keys.
fn draw_ops(net: &mut SimNet) -> Vec<BatchOp> {
    (0..1 + net.below(4))
        .map(|_| {
            let key = key(net.below(KEYS));
            match net.below(10) {
                0..=3 => BatchOp::Get(key),
                4..=5 => BatchOp::put(key, &draw_value(net)),
                6..=8 => {
                    let ttl = match net.below(4) {
                        0 => 0,
                        _ => 1 + net.below(50),
                    };
                    BatchOp::put_ttl(key, &draw_value(net), ttl)
                }
                _ => BatchOp::Del(key),
            }
        })
        .collect()
}

/// The store holds exactly the model's keys and values, and its counters
/// and account are the model's.
fn assert_matches<S: Stm + Clone>(store: &ShardedKv<S>, model: &Model, at: &str) {
    let held: Vec<(u64, Value)> = model
        .items
        .iter()
        .map(|(&key, (value, _))| (key, value.clone()))
        .collect();
    assert_eq!(store.quiescent_snapshot(), held, "{at}: contents");
    let live_bytes = model.live_bytes();
    assert_eq!(
        store.cache_stats(),
        CacheStats {
            live_bytes,
            ..model.stats
        },
        "{at}: counters and live bytes"
    );
    store.assert_index_consistent();
}

/// One sweep step of `run` buckets, checked against the model: what it
/// removed must be expired keys, or live ones evicted while the account
/// was over the budget, it must end at or under the budget, and a run of
/// the whole table must leave no expired key behind.
fn checked_sweep<S: Stm + Clone>(
    store: &ShardedKv<S>,
    sweeper: &mut S::Thread,
    model: &mut Model,
    run: usize,
    now: u64,
    at: &str,
) {
    let before = model.live_bytes();
    let outcome = store.sweep_step(run, sweeper);
    let held: BTreeMap<u64, Value> = store.quiescent_snapshot().into_iter().collect();
    let (mut expired, mut evicted, mut dearest) = (0, 0, 0);
    model.items.retain(|key, (value, deadline)| {
        if let Some(kept) = held.get(key) {
            assert_eq!(kept, value, "{at}: key {key} changed in a sweep");
            return true;
        }
        if Model::expired(*deadline, now) {
            expired += 1;
        } else {
            evicted += 1;
        }
        dearest = dearest.max(cost(value));
        false
    });
    assert_eq!(held.len(), model.items.len(), "{at}: a sweep added keys");
    assert_eq!(
        (outcome.expired, outcome.evicted),
        (expired, evicted),
        "{at}: the outcome miscounts the keys lost"
    );
    model.stats.expired += expired;
    model.stats.evicted += evicted;
    let after = model.live_bytes();
    if evicted > 0 {
        assert!(before > BUDGET, "{at}: evicted at {before} B, under budget");
        // The last removal happened while the account was over budget.
        assert!(
            after + dearest > BUDGET,
            "{at}: evicted down to {after} B, past the budget {BUDGET}"
        );
    }
    assert!(
        after <= BUDGET,
        "{at}: a sweep ended over budget: {after} B"
    );
    if run >= store.bucket_count() {
        let left = model
            .items
            .values()
            .filter(|(_, d)| Model::expired(*d, now));
        assert_eq!(left.count(), 0, "{at}: a whole pass left expired keys");
    }
}

/// One seed's run on one STM variant.
fn model_check<S: Stm + Clone>(stm: S, mode: ApiMode, seed: u64) {
    let now_ms = Arc::new(AtomicU64::new(1_000));
    let config = CacheConfig {
        max_bytes: Some(BUDGET),
        default_ttl_ms: DEFAULT_TTL_MS,
        policy: if seed % 2 == 0 {
            EvictionPolicy::Freq
        } else {
            EvictionPolicy::Fifo
        },
        clock: Clock::manual(&now_ms),
    };
    let store = ShardedKv::with_config(&stm, 4, 64, mode, config);
    let total = store.bucket_count();
    let stats = ServerStats::default();
    let mut worker = Worker::<S, Pipe>::new(&store, &stats);
    let mut sweeper = store.register();
    let mut net = SimNet::new(seed);
    // Clean pipes carry every peer's frame into one sweep, so they run as
    // one dispatch; a storm of short reads, one-byte writes and stalls
    // splits frames across sweeps, so there one peer sends a round.
    let storm = seed % 4 >= 2;
    let link = if storm { Link::STORM } else { Link::CLEAN };
    let mut peers: Vec<Peer> = (0..PEERS)
        .map(|_| {
            let (pipe, peer) = net.pipe(link);
            worker.admit(pipe);
            peer
        })
        .collect();
    let mut model = Model::default();
    for round in 0..ROUNDS {
        // ORDERING: one thread writes and reads the manual clock.
        let now = now_ms.load(Ordering::Relaxed);
        let at = format!("{} seed {seed} round {round}", stm.label());
        let frames: Vec<Vec<BatchOp>> = (0..PEERS)
            .map(|i| match net.below(4) {
                _ if storm && i != round % PEERS => Vec::new(),
                0 => Vec::new(),
                _ => draw_ops(&mut net),
            })
            .collect();
        let dispatch: Vec<BatchOp> = frames.iter().flatten().cloned().collect();
        let atomic = atomic_ops(&dispatch, store.router());
        let mut results = dispatch
            .iter()
            .zip(atomic)
            .map(|(op, atomic)| model.apply(op, atomic, now));
        let expect: Vec<Vec<u8>> = frames
            .iter()
            .map(|ops| response_body(&results.by_ref().take(ops.len()).collect::<Vec<_>>()))
            .collect();
        for (peer, ops) in peers.iter().zip(&frames) {
            if !ops.is_empty() {
                peer.send(&request(ops));
            }
        }
        let mut got = vec![Vec::new(); PEERS];
        let answered = |got: &[Vec<Vec<u8>>]| {
            got.iter()
                .zip(&frames)
                .all(|(got, ops)| got.len() == usize::from(!ops.is_empty()))
        };
        for _ in 0..SWEEP_LIMIT {
            if answered(&got) {
                break;
            }
            worker.sweep();
            for (got, peer) in got.iter_mut().zip(&mut peers) {
                got.extend(peer.recv());
            }
        }
        for (i, (got, ops)) in got.iter().zip(&frames).enumerate() {
            let want = if ops.is_empty() {
                Vec::new()
            } else {
                vec![expect[i].clone()]
            };
            assert_eq!(got, &want, "{at}: peer {i}'s responses to {ops:?}");
        }
        assert_matches(&store, &model, &at);
        // The seed's choice between rounds.
        let choice = net.below(4);
        if choice & 1 == 1 {
            // ORDERING: as above.
            now_ms.fetch_add(1 + net.below(30), Ordering::Relaxed);
        }
        if choice & 2 == 2 {
            let run = 1 + net.below(2 * total as u64) as usize;
            // ORDERING: as above.
            let now = now_ms.load(Ordering::Relaxed);
            checked_sweep(&store, &mut sweeper, &mut model, run, now, &at);
            assert_matches(&store, &model, &at);
        }
    }
    assert_eq!(stats.snapshot().wire_errors, 0);
    assert!(
        model.stats.evicted > 0,
        "seed {seed}: nothing was ever evicted"
    );
}

/// Seeds the model check runs over, on each variant.
const MODEL_SEEDS: std::ops::Range<u64> = 1..13;

#[test]
fn served_cache_matches_its_model_val_short() {
    for seed in MODEL_SEEDS {
        model_check(ValShort::new(), ApiMode::Short, seed);
    }
}

#[test]
fn served_cache_matches_its_model_tvar_short() {
    for seed in MODEL_SEEDS {
        model_check(TvarShortG::new(), ApiMode::Short, seed);
    }
}

#[test]
fn served_cache_matches_its_model_orec_full() {
    for seed in MODEL_SEEDS {
        model_check(OrecFullG::new(), ApiMode::Full, seed);
    }
}
