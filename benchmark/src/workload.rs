//! The four workloads and the fixed load shape.  Names, sizes and rates are
//! normative: a later PR is compared against numbers taken with exactly
//! these, so nothing here is derived from the machine (not from `nproc`,
//! not from the current build's capacity — a faster build must not be given
//! more load).  README.md has the *why* of each row.

/// Store shape everywhere: the `spectm-serve` binary's defaults.
pub const SHARDS: usize = 16;
pub const CAPACITY_PER_SHARD: usize = 1 << 16;

/// Served workloads: one server worker, one client thread, two connections.
pub const SERVER_WORKERS: usize = 1;
pub const CONNECTIONS: usize = 2;
/// Embedded workload: two caller threads on one store.
pub const EMBED_THREADS: usize = 2;

/// `serve_churn`: byte budget, TTL of read-through fills, and the reclaimer
/// cadence the `spectm-serve` binary uses (5 ms, an eighth of the table).
pub const CHURN_MAX_BYTES: u64 = 16 << 20;
pub const CHURN_TTL_MS: u64 = 2000;
pub const RECLAIM_INTERVAL_MS: u64 = 5;

/// `embed_mix`: the counter range `rmw_add` works on, and where the
/// insert+delete keys live (both above every data key).
pub const COUNTER_BASE: u64 = 1 << 40;
pub const COUNTERS: u64 = 1024;
pub const COUNTER_INIT: u64 = 1000;
pub const FRESH_BASE: u64 = 1 << 41;

/// Open-loop frames a connection may have unanswered before the generator
/// holds further due frames back (they stay timed from their due time).
pub const MAX_IN_FLIGHT: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Preloaded store behind the server; every GET must hit.
    Served,
    /// Budgeted store behind the server, started cold, read-through client.
    Churn,
    /// No server: caller threads on the store's own API.
    Embedded,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub keys: u64,
    pub value_len: usize,
    pub zipfian: bool,
    /// Generated operations per frame (`serve_churn`: GETs per frame, the
    /// fills of the previous frame's misses ride on top).
    pub ops_per_frame: usize,
    /// Share of generated operations that are PUTs, in percent.
    pub put_pct: u64,
    /// Open-loop rates in frames/s, frozen after one re-centring on the seed
    /// commit at about 25 % and 65 % of its closed-loop frames/s.
    pub rate_lo: u64,
    pub rate_hi: u64,
    /// Latency limit a `rate_hi` frame is held to (`loadgen.over_limit_frac_hi`).
    pub limit_us: u64,
    /// Closed-loop warm-up before anything is measured.
    pub warmup_s: f64,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "serve_small",
        kind: Kind::Served,
        keys: 1 << 16,
        value_len: 8,
        zipfian: false,
        ops_per_frame: 1,
        put_pct: 5,
        rate_lo: 25_000,
        rate_hi: 65_000,
        limit_us: 2000,
        warmup_s: 1.0,
    },
    Spec {
        name: "serve_batch",
        kind: Kind::Served,
        keys: 1 << 18,
        value_len: 512,
        zipfian: true,
        ops_per_frame: 32,
        put_pct: 50,
        rate_lo: 5_500,
        rate_hi: 14_500,
        limit_us: 2000,
        warmup_s: 1.0,
    },
    Spec {
        name: "serve_churn",
        kind: Kind::Churn,
        keys: 1 << 18,
        value_len: 256,
        zipfian: true,
        ops_per_frame: 16,
        put_pct: 0,
        rate_lo: 4_000,
        rate_hi: 10_500,
        limit_us: 2000,
        // Longer than the TTL, so expiry as well as eviction is in steady
        // state before the closed phase starts.
        warmup_s: 2.5,
    },
    Spec {
        name: "embed_mix",
        kind: Kind::Embedded,
        keys: 1 << 18,
        value_len: 100,
        zipfian: true,
        ops_per_frame: 1,
        put_pct: 20,
        rate_lo: 0,
        rate_hi: 0,
        limit_us: 0,
        warmup_s: 1.0,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
