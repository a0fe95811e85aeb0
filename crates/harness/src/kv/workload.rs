//! The KV workload: operation mixes, key and value-size distributions,
//! self-certifying payloads and the per-thread operation stream.

use std::time::Duration;

use spectm_kv::{BatchOp, CacheConfig, Value};

use super::store::KvStore;
use crate::intset::Xorshift;

// ---------------------------------------------------------------------------
// Operation mixes and key distributions
// ---------------------------------------------------------------------------

/// Operation mix of a KV workload (labels follow the YCSB core workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvMix {
    /// 95% reads / 5% writes (YCSB-B).
    ReadHeavy,
    /// 50% reads / 50% writes (YCSB-A).
    UpdateHeavy,
    /// 100% reads (YCSB-C).
    ReadOnly,
    /// 95% short range scans / 5% inserts of fresh keys (YCSB-E).  Scan
    /// lengths are zipfian-drawn from `1..=`[`MAX_SCAN_LEN`]; inserts land
    /// in the extension region above the loaded key space (see
    /// [`ScanParams`]).
    ScanHeavy,
    /// 50% reads / 50% multi-key read-modify-writes (YCSB-F, generalized to
    /// [`KvWorkloadConfig::rmw_keys`] keys so updates span shards).
    ReadModifyWrite,
    /// Read-through cache churn (no YCSB counterpart): every operation is a
    /// get, and a miss refills the key with a fresh payload — the
    /// look-aside-cache pattern.  Pointful when the store runs under a byte
    /// budget smaller than the working set (`max_bytes` of
    /// [`KvWorkloadConfig::cache`]): eviction makes misses, refills make
    /// eviction pressure, and the steady-state hit rate measures how well
    /// victim selection protects the popular keys.
    Churn,
}

impl KvMix {
    /// Label used in the TSV panel column.
    pub fn label(self) -> &'static str {
        match self {
            KvMix::ReadHeavy => "read-heavy-95/5",
            KvMix::UpdateHeavy => "update-50/50",
            KvMix::ReadOnly => "read-only-100",
            KvMix::ScanHeavy => "scan-heavy-95/5",
            KvMix::ReadModifyWrite => "rmw-50/50",
            KvMix::Churn => "churn-read-through",
        }
    }

    /// Percentage of operations that are plain point reads.  Zero for the
    /// scan mix: its dispatch (scan vs insert) happens before this split,
    /// in [`perform_op`].
    pub fn read_pct(self) -> u32 {
        match self {
            KvMix::ReadHeavy => 95,
            KvMix::UpdateHeavy | KvMix::ReadModifyWrite => 50,
            KvMix::ReadOnly => 100,
            // Churn and scans dispatch before this split, in `perform_op`.
            KvMix::ScanHeavy | KvMix::Churn => 0,
        }
    }

    /// Whether the mix consists purely of point gets and puts — the shape
    /// a wire frame carries ([`WorkerState::build_batch`]).  Scans and
    /// multi-key RMWs are whole multi-key operations of their own and have
    /// no wire shape.
    pub fn supports_batching(self) -> bool {
        matches!(
            self,
            KvMix::ReadHeavy | KvMix::UpdateHeavy | KvMix::ReadOnly
        )
    }

    /// The workload letter of the mix — the YCSB core-workload letter
    /// where one exists, `x` for the churn extension; the inverse of
    /// [`KvMix::from_ycsb_letter`], used in compact reports like the
    /// `kv-loadgen` TSV.
    pub fn ycsb_letter(self) -> char {
        match self {
            KvMix::UpdateHeavy => 'a',
            KvMix::ReadHeavy => 'b',
            KvMix::ReadOnly => 'c',
            KvMix::ScanHeavy => 'e',
            KvMix::ReadModifyWrite => 'f',
            KvMix::Churn => 'x',
        }
    }

    /// Parses a workload letter: `a` (update 50/50), `b` (read-heavy
    /// 95/5), `c` (read-only), `e` (scan-heavy), `f` (read-modify-write)
    /// or `x` (read-through churn, the non-YCSB cache extension).
    pub fn from_ycsb_letter(letter: char) -> Option<KvMix> {
        match letter.to_ascii_lowercase() {
            'a' => Some(KvMix::UpdateHeavy),
            'b' => Some(KvMix::ReadHeavy),
            'c' => Some(KvMix::ReadOnly),
            'e' => Some(KvMix::ScanHeavy),
            'f' => Some(KvMix::ReadModifyWrite),
            'x' => Some(KvMix::Churn),
            _ => None,
        }
    }
}

/// Key-popularity distribution of a KV workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDist {
    /// Every key equally likely (the microbenchmarks' draw).
    Uniform,
    /// Zipfian-popular keys scattered over the key space (YCSB's scrambled
    /// zipfian, constant 0.99).
    Zipfian,
    /// Zipfian-popular keys clustered at the top of the key space (YCSB's
    /// "latest": recency skew with locality).
    Latest,
}

impl KeyDist {
    /// Label used in the TSV panel column.
    pub fn label(self) -> &'static str {
        match self {
            KeyDist::Uniform => "uniform",
            KeyDist::Zipfian => "zipfian",
            KeyDist::Latest => "latest",
        }
    }

    /// Parses a distribution name (the same strings [`KeyDist::label`]
    /// prints).
    pub fn from_name(name: &str) -> Option<KeyDist> {
        match name.to_ascii_lowercase().as_str() {
            "uniform" => Some(KeyDist::Uniform),
            "zipfian" => Some(KeyDist::Zipfian),
            "latest" => Some(KeyDist::Latest),
            _ => None,
        }
    }
}

/// The YCSB zipfian constant.
pub const ZIPFIAN_THETA: f64 = 0.99;

/// Zipfian rank generator (Gray et al.'s method, as used by YCSB): rank 0 is
/// the most popular, with popularity `∝ 1 / (rank+1)^theta`.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Builds a generator over ranks `0..n` with skew `theta` in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipfian needs a non-empty rank space");
        assert!((0.0..1.0).contains(&theta) && theta > 0.0);
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// Maps a uniform draw `u ∈ [0, 1)` to a rank in `0..n`.
    pub fn sample(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// Per-thread key sampler combining a distribution with the rank-to-key
/// mapping.
pub struct KeySampler {
    dist: KeyDist,
    num_keys: u64,
    zipf: Option<Zipfian>,
}

impl KeySampler {
    /// Builds a sampler over `0..num_keys`.
    pub fn new(dist: KeyDist, num_keys: u64) -> Self {
        let zipf = match dist {
            KeyDist::Uniform => None,
            KeyDist::Zipfian | KeyDist::Latest => Some(Zipfian::new(num_keys, ZIPFIAN_THETA)),
        };
        Self {
            dist,
            num_keys,
            zipf,
        }
    }

    /// Draws the next key.
    #[inline]
    pub fn sample(&self, rng: &mut Xorshift) -> u64 {
        match self.dist {
            KeyDist::Uniform => rng.next() % self.num_keys,
            KeyDist::Zipfian => {
                // Scatter the popular ranks over the key space so hot keys
                // spread across shards and buckets (scrambled zipfian).
                let rank = self.zipf.as_ref().unwrap().sample(rng.next_f64());
                rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.num_keys
            }
            KeyDist::Latest => {
                // Popular ranks map to the *top* of the key space: recency
                // skew with locality, unscrambled on purpose.
                let rank = self.zipf.as_ref().unwrap().sample(rng.next_f64());
                self.num_keys - 1 - rank
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Value-size distributions and self-certifying payloads
// ---------------------------------------------------------------------------

/// Longest payload the zipfian value-size distribution draws.
pub const MAX_ZIPF_VALUE_LEN: usize = 1_024;

/// Value-size distribution of a KV workload (the `--value-size` flag of the
/// `kv` binary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueSize {
    /// Every value exactly `N` bytes (`fixed:N`).
    Fixed(usize),
    /// Lengths uniform in `A..=B` (`uniform:A..B`).
    Uniform(usize, usize),
    /// Zipfian-skewed lengths over `1..=`[`MAX_ZIPF_VALUE_LEN`] (`zipf`):
    /// most values are a few bytes, with a long tail up to 1 KiB — the
    /// item-size shape production caches report.
    Zipf,
}

impl Default for ValueSize {
    /// Eight-byte values: the word-sized payloads of the PR 3 store, kept
    /// on the inline fast path.
    fn default() -> Self {
        ValueSize::Fixed(8)
    }
}

impl ValueSize {
    /// Label used in the TSV panel column and the flag syntax.
    pub fn label(self) -> String {
        match self {
            ValueSize::Fixed(n) => format!("fixed:{n}"),
            ValueSize::Uniform(a, b) => format!("uniform:{a}..{b}"),
            ValueSize::Zipf => "zipf".to_string(),
        }
    }

    /// Parses the flag syntax: `fixed:N`, `uniform:A..B` (inclusive ends,
    /// `A <= B`) or `zipf`.  Sizes are capped at
    /// [`spectm_kv::MAX_VALUE_LEN`].
    pub fn from_flag(raw: &str) -> Option<ValueSize> {
        let ok = |n: usize| n <= spectm_kv::MAX_VALUE_LEN;
        if raw.eq_ignore_ascii_case("zipf") {
            return Some(ValueSize::Zipf);
        }
        if let Some(n) = raw.strip_prefix("fixed:") {
            let n = n.parse().ok().filter(|&n| ok(n))?;
            return Some(ValueSize::Fixed(n));
        }
        if let Some(range) = raw.strip_prefix("uniform:") {
            let (a, b) = range.split_once("..")?;
            let a: usize = a.parse().ok()?;
            let b: usize = b.parse().ok().filter(|&b| ok(b))?;
            if a > b {
                return None;
            }
            return Some(ValueSize::Uniform(a, b));
        }
        None
    }

    /// Largest length this distribution can draw.
    pub fn max_len(self) -> usize {
        match self {
            ValueSize::Fixed(n) => n,
            ValueSize::Uniform(_, b) => b,
            ValueSize::Zipf => MAX_ZIPF_VALUE_LEN,
        }
    }
}

/// Per-thread length sampler for a [`ValueSize`] (precomputes the zipfian
/// tables once).
pub struct ValueLenSampler {
    size: ValueSize,
    zipf: Option<Zipfian>,
}

impl ValueLenSampler {
    /// Builds a sampler for `size`.
    pub fn new(size: ValueSize) -> Self {
        let zipf = match size {
            ValueSize::Zipf => Some(Zipfian::new(MAX_ZIPF_VALUE_LEN as u64, ZIPFIAN_THETA)),
            _ => None,
        };
        Self { size, zipf }
    }

    /// Draws the next payload length.
    #[inline]
    pub fn sample(&self, rng: &mut Xorshift) -> usize {
        match self.size {
            ValueSize::Fixed(n) => n,
            ValueSize::Uniform(a, b) => a + (rng.next() as usize) % (b - a + 1),
            ValueSize::Zipf => self.zipf.as_ref().unwrap().sample(rng.next_f64()) as usize + 1,
        }
    }
}

/// FNV-1a over `body`, seeded with the key, masked so that an 8-byte
/// payload's top three bits stay clear — which keeps word-sized payloads on
/// the store's inline-integer fast path (see `spectm::INLINE_INT_BITS`).
#[inline]
fn payload_checksum(key: u64, body: &[u8]) -> [u8; 4] {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ key;
    for &b in body {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    let mut sum = ((h ^ (h >> 32)) as u32).to_le_bytes();
    sum[3] &= 0x1F;
    sum
}

/// Fills `buf` with a self-certifying payload of `len` bytes for `key`:
/// xorshift filler seeded by `(key, nonce)` followed by a 4-byte checksum
/// over the filler and the key.  Payloads shorter than the checksum are a
/// deterministic function of `(key, len)` alone.  The buffer is reused
/// (cleared and refilled), so steady-state writes do not allocate.
#[inline]
pub fn fill_payload(key: u64, nonce: u64, len: usize, buf: &mut Vec<u8>) {
    buf.clear();
    if len < 4 {
        let sum = payload_checksum(key, &[len as u8]);
        buf.extend_from_slice(&sum[..len]);
        return;
    }
    buf.resize(len, 0);
    let mut rng = Xorshift::new(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ nonce);
    let (body, tail) = buf.split_at_mut(len - 4);
    let mut chunks = body.chunks_exact_mut(8);
    for chunk in &mut chunks {
        chunk.copy_from_slice(&rng.next().to_le_bytes());
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let word = rng.next().to_le_bytes();
        let n = rem.len();
        rem.copy_from_slice(&word[..n]);
    }
    let sum = payload_checksum(key, body);
    tail.copy_from_slice(&sum);
}

/// Verifies a payload produced by [`fill_payload`] for `key` (any nonce).
pub fn payload_is_valid(key: u64, bytes: &[u8]) -> bool {
    if bytes.len() < 4 {
        let sum = payload_checksum(key, &[bytes.len() as u8]);
        return bytes == &sum[..bytes.len()];
    }
    let (body, sum) = bytes.split_at(bytes.len() - 4);
    payload_checksum(key, body) == sum
}

/// Longest scan of the scan-heavy (YCSB-E) mix.
pub const MAX_SCAN_LEN: usize = 100;

/// Percentage of scan-heavy operations that are scans (the rest insert).
pub const SCAN_PCT: u32 = 95;

/// Parameters of the scan-heavy (YCSB-E) mix: scan lengths are drawn from a
/// zipfian over `1..=`[`MAX_SCAN_LEN`] (short scans dominate, as in YCSB's
/// default), and inserts of fresh keys land uniformly in the *extension
/// region* `num_keys..2*num_keys` above the loaded key space, so scans
/// starting near the top of the space observe them.
pub struct ScanParams {
    len_zipf: Zipfian,
    insert_base: u64,
    insert_span: u64,
}

impl ScanParams {
    /// Builds the parameters for a key space of `0..num_keys` loaded keys.
    pub fn for_keys(num_keys: u64) -> Self {
        Self {
            len_zipf: Zipfian::new(MAX_SCAN_LEN as u64, ZIPFIAN_THETA),
            insert_base: num_keys,
            insert_span: num_keys.max(1),
        }
    }

    /// Draws a zipfian scan length in `1..=`[`MAX_SCAN_LEN`].
    #[inline]
    pub fn sample_len(&self, rng: &mut Xorshift) -> usize {
        self.len_zipf.sample(rng.next_f64()) as usize + 1
    }

    /// Draws the key for a YCSB-E insert, uniformly from the extension
    /// region.
    #[inline]
    pub fn insert_key(&self, rng: &mut Xorshift) -> u64 {
        self.insert_base + rng.next() % self.insert_span
    }
}

// ---------------------------------------------------------------------------
// Run parameters and the per-thread operation stream
// ---------------------------------------------------------------------------

/// Parameters of one KV-store run.
#[derive(Debug, Clone)]
pub struct KvWorkloadConfig {
    /// Keys are drawn from `0..num_keys`; the load phase inserts all of
    /// them, so reads and RMWs always hit.
    pub num_keys: u64,
    /// Shard count of the store (power of two).
    pub shards: usize,
    /// Keys budgeted per shard — the capacity hint the maps size their
    /// bucket arrays from (targeting the ~0.75 bucket load factor; not a
    /// limit, overflow buckets absorb any excess).
    pub capacity_per_shard: usize,
    /// Number of worker threads.
    pub threads: usize,
    /// Wall-clock duration of the measured phase.
    pub duration: Duration,
    /// Operation mix.
    pub mix: KvMix,
    /// Key-popularity distribution.
    pub dist: KeyDist,
    /// Value-size distribution of every written payload.
    pub value_size: ValueSize,
    /// Verify payload checksums on every read, and replay an oracle sweep
    /// over the whole key space after the measured phase.  Costs cycles in
    /// the measured loop, so keep it off for throughput numbers.  Ignored
    /// for the read-modify-write mix, whose writes are counters rather than
    /// checksummed payloads.
    pub verify: bool,
    /// Keys touched by one read-modify-write (drawn independently, so they
    /// usually land on different shards).
    pub rmw_keys: usize,
    /// The store's cache configuration: live-byte budget, default TTL and
    /// eviction policy (the default keeps the store unbounded and
    /// immortal).  Set a budget below the loaded working set and the
    /// background reclaimer evicts during the run.
    pub cache: CacheConfig,
}

impl Default for KvWorkloadConfig {
    fn default() -> Self {
        Self {
            num_keys: 65_536,
            shards: 16,
            capacity_per_shard: 4_096,
            threads: 1,
            duration: Duration::from_millis(300),
            mix: KvMix::ReadHeavy,
            dist: KeyDist::Uniform,
            value_size: ValueSize::default(),
            verify: false,
            rmw_keys: 2,
            cache: CacheConfig::default(),
        }
    }
}

impl KvWorkloadConfig {
    /// Derives the store-sizing fields from a key-space size: 16 shards (or
    /// fewer for tiny spaces) and a per-shard capacity hint of the shard's
    /// fair share of the keys, so the tables land near their target load
    /// factor without hand-picked bucket counts.
    pub fn sized_for(num_keys: u64) -> Self {
        let shards = 16usize.min((num_keys / 64).max(1) as usize);
        let capacity_per_shard = (num_keys as usize).div_ceil(shards).max(1);
        Self {
            num_keys,
            shards,
            capacity_per_shard,
            ..Self::default()
        }
    }

    /// Overrides the per-shard capacity hint from a *total* capacity (the
    /// `--capacity` flag): undersizing the hint relative to `num_keys`
    /// drives the tables to high load factors for occupancy stress runs.
    pub fn with_total_capacity(mut self, total_capacity: usize) -> Self {
        self.capacity_per_shard = total_capacity.div_ceil(self.shards).max(1);
        self
    }
}

/// Per-thread state of the workload loop: key and value-length samplers,
/// the thread's RNG, the RMW key buffer, the scan parameters, the reusable
/// payload buffer and the request frame the network load generator ships.
/// Bundling it keeps [`perform_op`] at a callable arity, keeps steady-state
/// writes allocation-free, and gives the network load generator the same
/// key, value and mix streams as the in-process driver.
pub struct WorkerState {
    mix: KvMix,
    sampler: KeySampler,
    rng: Xorshift,
    rmw_buf: Vec<u64>,
    scan: ScanParams,
    lens: ValueLenSampler,
    verify: bool,
    scratch: Vec<u8>,
    /// Reusable request frame of [`WorkerState::build_batch`] and
    /// [`WorkerState::build_churn_batch`].
    frame: Vec<BatchOp>,
}

impl WorkerState {
    /// Builds the state for one worker of the given configuration.  `seed`
    /// decorrelates the per-thread streams.
    pub fn new(cfg: &KvWorkloadConfig, seed: u64) -> Self {
        Self {
            mix: cfg.mix,
            sampler: KeySampler::new(cfg.dist, cfg.num_keys),
            rng: Xorshift::new(seed),
            rmw_buf: vec![0u64; cfg.rmw_keys],
            scan: ScanParams::for_keys(cfg.num_keys),
            lens: ValueLenSampler::new(cfg.value_size),
            // Counter writes make checksums meaningless under the RMW mix.
            verify: cfg.verify && cfg.mix != KvMix::ReadModifyWrite,
            scratch: Vec::with_capacity(cfg.value_size.max_len()),
            frame: Vec::new(),
        }
    }

    /// Fills the reusable request buffer with `n` operations drawn from the
    /// mix's read/write split and the panel's key and value-length
    /// distributions — the wire-frame counterpart of the per-op draws in
    /// [`perform_op`].  Word-sized payloads stay inline in their
    /// [`BatchOp::Put`], so building the batch does not allocate in the
    /// steady state.
    pub fn build_batch(&mut self, n: usize) {
        debug_assert!(
            self.mix.supports_batching(),
            "{:?} has no batched shape",
            self.mix
        );
        self.frame.clear();
        for _ in 0..n {
            let key = self.sampler.sample(&mut self.rng);
            let raw = self.rng.next();
            if raw % 100 < self.mix.read_pct() as u64 {
                self.frame.push(BatchOp::Get(key));
            } else {
                let len = self.lens.sample(&mut self.rng);
                fill_payload(key, raw, len, &mut self.scratch);
                self.frame.push(BatchOp::put(key, &self.scratch));
            }
        }
    }

    /// Fills the reusable request buffer with the churn mix's batched
    /// shape: fill puts for the keys in `fills` (the previous batch's
    /// get misses, read-through style), then point gets drawn from the
    /// key distribution for the remainder.  Each fill carries `ttl_ms` as
    /// its [`BatchOp::Put`] TTL (`None` takes the server's default), so
    /// `Some` exercises the TTL opcode over the wire.
    pub fn build_churn_batch(&mut self, n: usize, fills: &mut Vec<u64>, ttl_ms: Option<u64>) {
        self.frame.clear();
        for _ in 0..n {
            if let Some(key) = fills.pop() {
                let raw = self.rng.next();
                let len = self.lens.sample(&mut self.rng);
                fill_payload(key, raw, len, &mut self.scratch);
                self.frame
                    .push(BatchOp::Put(key, Value::new(&self.scratch), ttl_ms));
            } else {
                self.frame
                    .push(BatchOp::Get(self.sampler.sample(&mut self.rng)));
            }
        }
    }

    /// The operations of the last [`WorkerState::build_batch`], in request
    /// order — what a network client ships as one request frame.
    #[inline]
    pub fn batch_ops(&self) -> &[BatchOp] {
        &self.frame
    }

    /// Draws the next primary key.
    #[inline]
    pub fn sample_key(&mut self) -> u64 {
        self.sampler.sample(&mut self.rng)
    }

    /// Draws the next raw dispatch word.
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        self.rng.next()
    }

    #[inline]
    fn check(&self, key: u64, value: &Value) {
        if self.verify {
            assert!(
                payload_is_valid(key, value),
                "checksum mismatch for key {key}: {value:?}"
            );
        }
    }
}

/// Executes one workload operation.  For the scan-heavy mix the dispatch is
/// scan vs insert (`SCAN_PCT`); for every other mix it is a read with
/// probability `mix.read_pct()`, otherwise the mix's write shape.  `key` is
/// the primary key (a scan's start key) and `raw` the dispatch draw; the
/// extra read-modify-write keys and every payload length follow the panel's
/// distributions in `state`.  When the state's verify flag is set, every
/// value the operation reads back is checksum-verified against its key.
#[inline]
pub fn perform_op<K: KvStore>(
    store: &K,
    ctx: &mut K::ThreadCtx,
    key: u64,
    raw: u64,
    state: &mut WorkerState,
) {
    let mix = state.mix;
    if mix == KvMix::Churn {
        // Read-through: serve hits, refill misses.  Under a byte budget the
        // refill re-raises eviction pressure, so the run settles into the
        // steady state whose hit rate the panel reports.
        match store.get(key, ctx) {
            Some(value) => {
                state.check(key, &value);
                std::hint::black_box(&value);
            }
            None => {
                let len = state.lens.sample(&mut state.rng);
                fill_payload(key, raw, len, &mut state.scratch);
                std::hint::black_box(store.put(key, &state.scratch, ctx));
            }
        }
        return;
    }
    if mix == KvMix::ScanHeavy {
        if raw % 100 < SCAN_PCT as u64 {
            let len = state.scan.sample_len(&mut state.rng);
            let run = std::hint::black_box(store.scan(key, len, ctx));
            if state.verify {
                for (k, v) in &run {
                    state.check(*k, v);
                }
            }
        } else {
            let insert_key = state.scan.insert_key(&mut state.rng);
            let len = state.lens.sample(&mut state.rng);
            fill_payload(insert_key, raw, len, &mut state.scratch);
            std::hint::black_box(store.put(insert_key, &state.scratch, ctx));
        }
        return;
    }
    if raw % 100 < mix.read_pct() as u64 {
        // black_box by reference, and only borrow the result: consuming it
        // after the black_box would force the compiler to re-copy the
        // 24-byte value it must now assume was observed.
        let got = store.get(key, ctx);
        if let Some(value) = &got {
            state.check(key, value);
        }
        std::hint::black_box(&got);
    } else {
        match mix {
            KvMix::ReadHeavy | KvMix::UpdateHeavy => {
                let len = state.lens.sample(&mut state.rng);
                fill_payload(key, raw, len, &mut state.scratch);
                let old = store.put(key, &state.scratch, ctx);
                if let Some(old) = &old {
                    state.check(key, old);
                }
                std::hint::black_box(&old);
            }
            KvMix::ReadModifyWrite => {
                state.rmw_buf[0] = key;
                for slot in state.rmw_buf[1..].iter_mut() {
                    *slot = state.sampler.sample(&mut state.rng);
                }
                std::hint::black_box(store.rmw_add(&state.rmw_buf, 1, ctx));
            }
            KvMix::ReadOnly | KvMix::ScanHeavy | KvMix::Churn => {
                unreachable!("fully dispatched above")
            }
        }
    }
}
