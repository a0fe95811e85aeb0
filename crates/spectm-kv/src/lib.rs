//! A sharded, concurrent key-value store built on the SpecTM API.
//!
//! The paper evaluates specialized short transactions through integer-set
//! microbenchmarks; this crate grows them into a service-level subsystem: a
//! `u64 -> bytes` store whose hot paths are exactly the short-transaction
//! shapes the paper optimizes, layered behind the sharding a production
//! deployment would use.
//!
//! Three layers:
//!
//! * [`StmHashMap`] — a transactional hash map over **cache-line
//!   bulk-chaining buckets**: flat 64-byte home buckets of 7 tagged item
//!   words plus a stat word linking rare overflow buckets (the
//!   Pelikan/Segcache hashtable layout, every slot one STM word).
//!   Single-key reads are short read-only transactions over one or two
//!   cache lines, updates and deletes are two-location short read-write
//!   transactions, inserts are combined RO/RW short transactions over the
//!   home bucket (falling back to a full transaction on overflowing
//!   chains), and every operation also exists as a traditional full
//!   transaction (the BaseTM shape).  [`StmHashMap::stats`] reports the
//!   probe-length histogram and bucket occupancy;
//! * [`ShardRouter`] — a power-of-two router assigning each block of 64
//!   consecutive keys to a shard;
//! * [`ShardedKv`] — the store itself.  All shards (and their per-shard
//!   [`spectm_ds::StmSkipList`] ordered indexes, whose towers are the
//!   shards' entries: one block per key) share **one** STM
//!   instance, so while `get` and value-overwriting `put` touch only the
//!   owning shard, a multi-key [`ShardedKv::rmw`] composes reads and writes
//!   *across* shards inside a single full transaction, and
//!   [`ShardedKv::scan`] / [`ShardedKv::range`] return atomically
//!   consistent ordered snapshots spanning every shard — the
//!   interoperability the paper's design guarantees (Section 2).
//!
//! On top of the single-key paths sits the **batched pipeline** (the
//! [`batch`] module): [`BatchRequest`] / [`BatchResponse`] carry
//! request-ordered operations that [`ShardedKv::execute_batch`] groups by
//! shard, runs under one epoch entry per batch, and drains through
//! prefetch-pipelined short transactions — amortizing the fixed
//! per-operation toll a request-serving front-end would otherwise pay per
//! key.  The module docs state the exact atomicity contract.
//!
//! Values are arbitrary byte payloads up to [`MAX_VALUE_LEN`], yet every
//! transaction still touches only machine words: each value is one *value
//! word* — packed inline for small payloads, a pointer to an immutable
//! epoch-reclaimed [`ValueCell`] otherwise (see the [`value`] module and
//! DESIGN.md § "Variable-size values").  Keys are arbitrary `u64`s.  The
//! workload drivers live in the `harness` crate (`kv` binary, including the
//! scan-heavy YCSB-E mix and the `--value-size` distributions), the
//! CAS-based baseline in `lockfree::LockFreeKvMap`; EXPERIMENTS.md indexes
//! the workloads.
//!
//! With a [`CacheConfig`] (see [`ShardedKv::with_config`]) the store runs
//! as a **memory-capped cache**: every item carries a deadline word beside
//! its value word (per-key TTL, lazily expired on read and reclaimed
//! incrementally by a [`Reclaimer`] thread via [`ShardedKv::sweep_step`]),
//! and a `max_bytes` budget drives CLOCK eviction over a frequency byte
//! in each entry ([`EvictionPolicy`]).  An expired key is never
//! observable through any read surface; [`ShardedKv::live_bytes`] tracks
//! the physical account and [`ShardedKv::cache_stats`] the
//! hit/miss/expiry/eviction counters.  DESIGN.md § "TTL and eviction" has
//! the full design.
//!
//! # Examples
//!
//! Point operations and cross-shard read-modify-write:
//!
//! ```
//! use spectm::{Stm, variants::ValShort};
//! use spectm_ds::ApiMode;
//! use spectm_kv::{ShardedKv, Value};
//!
//! let stm = ValShort::new();
//! let store = ShardedKv::new(&stm, 4, 64, ApiMode::Short);
//! let mut thread = store.register();
//! assert_eq!(store.put(1, b"ten", &mut thread).unwrap(), None);
//! assert_eq!(store.put(2, &20u64.to_le_bytes(), &mut thread).unwrap(), None);
//! assert_eq!(store.get(1, &mut thread).as_deref(), Some(&b"ten"[..]));
//! // Cross-shard atomic transfer: one full transaction over both shards.
//! store.put(1, &10u64.to_le_bytes(), &mut thread).unwrap();
//! assert!(store
//!     .rmw(
//!         &[1, 2],
//!         |vals| {
//!             vals[0] = Value::from_u64(vals[0].as_u64() - 5);
//!             vals[1] = Value::from_u64(vals[1].as_u64() + 5);
//!         },
//!         &mut thread
//!     )
//!     .unwrap());
//! assert_eq!(store.get(1, &mut thread).unwrap().as_u64(), 5);
//! assert_eq!(store.get(2, &mut thread).unwrap().as_u64(), 25);
//! ```
//!
//! Ordered range scans over all shards, atomically consistent with every
//! concurrent operation:
//!
//! ```
//! use spectm::{Stm, variants::ValShort};
//! use spectm_ds::ApiMode;
//! use spectm_kv::ShardedKv;
//!
//! let stm = ValShort::new();
//! let store = ShardedKv::new(&stm, 4, 64, ApiMode::Short);
//! let mut thread = store.register();
//! for key in 0..100u64 {
//!     store.put(key, &(key + 1_000).to_le_bytes(), &mut thread).unwrap();
//! }
//! // YCSB-E shape: up to `limit` pairs starting at `start`, in key order.
//! let run = store.scan(40, 5, &mut thread);
//! assert_eq!(run.len(), 5);
//! assert_eq!(run[0].0, 40);
//! assert_eq!(run[0].1.as_u64(), 1_040);
//! assert!(run.windows(2).all(|w| w[0].0 < w[1].0));
//! // Half-open key ranges work too.
//! assert_eq!(store.range(97, 200, &mut thread).len(), 3);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod batch;
pub mod map;
pub mod router;
pub mod store;
pub mod ttl;
pub mod value;
pub mod wire;

pub use batch::{BatchOp, BatchRequest, BatchResponse, MultiBatch};
pub use map::{MapStats, StmHashMap, BUCKET_SLOTS};
pub use router::ShardRouter;
pub use store::{ShardedKv, ITEM_OVERHEAD_BYTES, MAX_RMW_KEYS};
pub use ttl::{
    CacheConfig, CacheStats, Clock, EvictionPolicy, Reclaimer, ReclaimerStats, SweepOutcome,
};
pub use value::{Value, ValueCell, MAX_VALUE_LEN};

/// Errors the store's fallible operations report instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// A value exceeded [`MAX_VALUE_LEN`] bytes.
    ValueTooLarge {
        /// Length of the rejected value.
        len: usize,
    },
    /// A multi-key operation named more than [`MAX_RMW_KEYS`] keys.
    TooManyKeys {
        /// Number of keys in the rejected operation.
        len: usize,
    },
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::ValueTooLarge { len } => {
                write!(f, "value of {len} bytes exceeds {MAX_VALUE_LEN} bytes")
            }
            KvError::TooManyKeys { len } => {
                write!(f, "{len} keys exceed the {MAX_RMW_KEYS}-key limit")
            }
        }
    }
}

impl std::error::Error for KvError {}
