//! The store interface the KV driver is generic over, and its two adapters.

use std::sync::Arc;
use std::time::Duration;

use lockfree::LockFreeKvMap;
use spectm::Stm;
use spectm_kv::{CacheConfig, CacheStats, MapStats, Reclaimer, ShardedKv, Value};

/// A key-value store as seen by the workload driver.
///
/// `ThreadCtx` carries the per-thread state (an STM thread handle or an
/// epoch handle) and is created on the worker thread itself.  Values are
/// byte payloads; the driver never exceeds [`spectm_kv::MAX_VALUE_LEN`], so
/// adapters unwrap the stores' size errors.
pub trait KvStore: Send + Sync + 'static {
    /// Per-worker-thread context.
    type ThreadCtx;

    /// Creates the calling thread's context.
    fn thread_ctx(&self) -> Self::ThreadCtx;
    /// Returns the value stored under `key`.
    fn get(&self, key: u64, ctx: &mut Self::ThreadCtx) -> Option<Value>;
    /// Stores `value` under `key`, returning the previous value if present.
    fn put(&self, key: u64, value: &[u8], ctx: &mut Self::ThreadCtx) -> Option<Value>;
    /// Removes `key`, returning the value it held.
    fn del(&self, key: u64, ctx: &mut Self::ThreadCtx) -> Option<Value>;
    /// Adds `delta` to every key in `keys` (values as 8-byte little-endian
    /// counters).  Atomic across keys for the STM store; per-key atomic only
    /// for the lock-free baseline.
    fn rmw_add(&self, keys: &[u64], delta: u64, ctx: &mut Self::ThreadCtx) -> bool;
    /// Returns up to `limit` `(key, value)` pairs with `key >= start` in
    /// ascending key order.  An atomically consistent snapshot for the STM
    /// store; a best-effort (tearable) walk for the lock-free baseline.
    fn scan(&self, start: u64, limit: usize, ctx: &mut Self::ThreadCtx) -> Vec<(u64, Value)>;
    /// Snapshot of the store's cache counters, when it maintains them
    /// (`None` for stores without TTL machinery, and for stores whose
    /// configuration keeps cache behaviour off).
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }
    /// Starts the store's background reclaimer when its configuration
    /// enables cache behaviour; the handle stops the thread on drop.
    /// `None` when there is nothing to sweep.
    fn spawn_reclaimer(&self) -> Option<Reclaimer> {
        None
    }
    /// Occupancy and probe-length statistics of the store's hash table(s),
    /// when the implementation exposes them (both bundled stores do).
    /// Non-transactional — call only when no concurrent operations run.
    fn stats(&self) -> Option<MapStats> {
        None
    }
}

/// [`KvStore`] adapter for the sharded STM store.
pub struct StmKvBench<S: Stm + Clone> {
    store: Arc<ShardedKv<S>>,
}

impl<S: Stm + Clone> StmKvBench<S> {
    /// Builds a store with `shards` shards, each sized for about
    /// `capacity_per_shard` keys (the hint `StmHashMap::new` sizes its
    /// bucket array from), over `stm`, driven in `mode`.
    pub fn new(stm: S, shards: usize, capacity_per_shard: usize, mode: spectm_ds::ApiMode) -> Self {
        Self::with_cache(
            stm,
            shards,
            capacity_per_shard,
            mode,
            CacheConfig::default(),
        )
    }

    /// [`StmKvBench::new`] with an explicit cache configuration (byte
    /// budget, default TTL, eviction policy) — the cache-mode panels.
    pub fn with_cache(
        stm: S,
        shards: usize,
        capacity_per_shard: usize,
        mode: spectm_ds::ApiMode,
        config: CacheConfig,
    ) -> Self {
        Self {
            store: Arc::new(ShardedKv::with_config(
                &stm,
                shards,
                capacity_per_shard,
                mode,
                config,
            )),
        }
    }

    /// Whether the wrapped store maintains cache counters.
    fn cache_enabled(&self) -> bool {
        self.store.config().enabled()
    }
}

impl<S: Stm + Clone> KvStore for StmKvBench<S> {
    type ThreadCtx = S::Thread;

    fn thread_ctx(&self) -> Self::ThreadCtx {
        self.store.register()
    }

    fn get(&self, key: u64, ctx: &mut Self::ThreadCtx) -> Option<Value> {
        self.store.get(key, ctx)
    }

    fn put(&self, key: u64, value: &[u8], ctx: &mut Self::ThreadCtx) -> Option<Value> {
        self.store
            .put(key, value, ctx)
            .expect("driver payloads are size-bounded")
    }

    fn del(&self, key: u64, ctx: &mut Self::ThreadCtx) -> Option<Value> {
        self.store.del(key, ctx)
    }

    fn rmw_add(&self, keys: &[u64], delta: u64, ctx: &mut Self::ThreadCtx) -> bool {
        self.store
            .rmw_add(keys, delta, ctx)
            .expect("driver key counts are bounded")
    }

    fn scan(&self, start: u64, limit: usize, ctx: &mut Self::ThreadCtx) -> Vec<(u64, Value)> {
        self.store.scan(start, limit, ctx)
    }

    fn stats(&self) -> Option<MapStats> {
        Some(self.store.stats())
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.cache_enabled().then(|| self.store.cache_stats())
    }

    fn spawn_reclaimer(&self) -> Option<Reclaimer> {
        self.cache_enabled().then(|| {
            Reclaimer::spawn(
                Arc::clone(&self.store),
                Duration::from_millis(2),
                (self.store.bucket_count() / 8).max(64),
            )
        })
    }
}

/// [`KvStore`] adapter for the lock-free baseline.
pub struct LockFreeKvBench {
    inner: Arc<LockFreeKvMap>,
}

impl LockFreeKvBench {
    /// Wraps a lock-free KV map.
    pub fn new(inner: LockFreeKvMap) -> Self {
        Self {
            inner: Arc::new(inner),
        }
    }
}

impl KvStore for LockFreeKvBench {
    type ThreadCtx = txepoch::LocalHandle;

    fn thread_ctx(&self) -> Self::ThreadCtx {
        self.inner.collector().register()
    }

    fn get(&self, key: u64, ctx: &mut Self::ThreadCtx) -> Option<Value> {
        self.inner.get(key, ctx)
    }

    fn put(&self, key: u64, value: &[u8], ctx: &mut Self::ThreadCtx) -> Option<Value> {
        self.inner
            .put(key, value, ctx)
            .expect("driver payloads are size-bounded")
    }

    fn del(&self, key: u64, ctx: &mut Self::ThreadCtx) -> Option<Value> {
        self.inner.del(key, ctx)
    }

    fn rmw_add(&self, keys: &[u64], delta: u64, ctx: &mut Self::ThreadCtx) -> bool {
        self.inner.rmw_add(keys, delta, ctx)
    }

    fn scan(&self, start: u64, limit: usize, ctx: &mut Self::ThreadCtx) -> Vec<(u64, Value)> {
        self.inner.scan(start, limit, ctx)
    }

    fn stats(&self) -> Option<MapStats> {
        let handle = self.inner.collector().register();
        Some(self.inner.stats(&handle))
    }
}
