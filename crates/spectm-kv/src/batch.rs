//! Batched operations: amortize routing and epoch entry over many keys.
//!
//! The single-key hot paths of [`ShardedKv`] pay a fixed toll per
//! operation — route the key, announce an epoch (a `SeqCst` store on the
//! outermost pin), set up a transaction — that the paper's specialization
//! drives toward the hardware floor but can never remove entirely.  A
//! batch removes it by division: [`ShardedKv::execute_batch`] takes a
//! request-ordered list of [`BatchOp`]s, groups it by shard with one
//! counting sort ([`crate::ShardRouter::group_runs_into`], reusing the
//! [`BatchRequest`]'s scratch so steady-state grouping never allocates),
//! **enters the epoch once for the whole batch** (the per-operation paths
//! underneath are the single-key API's own; each still pins for itself,
//! and under the batch's pin that is a counter bump, not an announce),
//! drains each shard's group through a prefetch-pipelined dispatch loop
//! (the bucket probe of operation *i* overlaps the bucket-line fetch of
//! operation *i + 4*), and writes each result back to the request position
//! it came from.  A one-operation batch bypasses all of it and costs what
//! the single-key API costs.
//!
//! # Semantics: what is and is not atomic
//!
//! A batch is **not** one transaction.  The guarantees, documented here and
//! enforced by `tests/batch_semantics.rs`, are:
//!
//! * **Request-order results.**  `results[i]` is the result of `ops[i]`:
//!   the stored value for a get, the displaced previous value for a put or
//!   delete.
//! * **Per-key program order (batch read-your-writes).**  Operations on
//!   the same key execute in request order — a get that follows a put of
//!   the same key in one batch observes that put.  (All operations on one
//!   key land in one shard group, and groups preserve request order.)
//! * **Per-operation atomicity.**  Every operation is individually
//!   serializable, exactly as if issued through the single-key API.
//! * **Per-shard group atomicity under read/write mixing.**  If a shard's
//!   group both reads (get) and writes (put/del) *the same key*, the whole
//!   group runs as **one full transaction** on that shard, so the
//!   read-your-writes chain commits atomically and concurrent scans see
//!   either all of the group's writes or none of them.
//! * **No atomicity across shards.**  A concurrent observer (including an
//!   atomic [`ShardedKv::scan`]) may see one shard's group applied and
//!   another's not.  Callers that need a cross-shard atomic multi-key
//!   update keep using [`ShardedKv::rmw`] /
//!   [`ShardedKv::multi_get_atomic`].
//! * **All-or-nothing validation.**  An oversized put value fails the
//!   whole batch with [`KvError::ValueTooLarge`] *before* any operation
//!   executes.
//!
//! * **Expired entries are absent.**  A get of a key whose TTL deadline
//!   has passed reports `None`, and a put over such a corpse reports
//!   `None` (it behaved as an insert); batch reads leave the physical
//!   removal to lazy single-key reads and the background sweep.
//!
//! DESIGN.md § "Batched operations" discusses why these are the right
//! semantics for a request-pipeline front-end.

use spectm::{Stm, StmThread, Word};

use crate::map::deadline_expired;
use crate::store::{MemberSlots, Removed, ShardedKv};
use crate::value::{RetiredValue, Value};
use crate::KvError;

/// One operation of a batch, in the request's order.
///
/// Put payloads are carried as [`Value`]s (16-byte small-buffer inline), so
/// building a batch of word-sized writes does not allocate.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOp {
    /// Read the key's value.
    Get(u64),
    /// Store the value under the key (with the store's default TTL).
    Put(u64, Value),
    /// Store the value under the key with an explicit TTL in milliseconds
    /// (`0` = immortal, the memcached convention) — the
    /// `wire::OP_PUT_TTL` shape.
    PutTtl(u64, Value, u64),
    /// Remove the key.
    Del(u64),
}

impl BatchOp {
    /// Convenience constructor copying `bytes` into a put operation.
    pub fn put(key: u64, bytes: &[u8]) -> Self {
        BatchOp::Put(key, Value::new(bytes))
    }

    /// Convenience constructor copying `bytes` into a put with an explicit
    /// TTL.
    pub fn put_ttl(key: u64, bytes: &[u8], ttl_ms: u64) -> Self {
        BatchOp::PutTtl(key, Value::new(bytes), ttl_ms)
    }

    /// The key this operation touches.
    #[inline]
    pub fn key(&self) -> u64 {
        match *self {
            BatchOp::Get(key) | BatchOp::Del(key) => key,
            BatchOp::Put(key, _) | BatchOp::PutTtl(key, _, _) => key,
        }
    }

    /// Whether this operation writes (put or del).
    #[inline]
    pub fn is_write(&self) -> bool {
        !matches!(self, BatchOp::Get(_))
    }

    /// The payload and TTL of a put of either shape (`None` TTL = the
    /// store's default).
    #[inline]
    fn as_put(&self) -> Option<(u64, &Value, Option<u64>)> {
        match self {
            BatchOp::Put(key, value) => Some((*key, value, None)),
            BatchOp::PutTtl(key, value, ttl_ms) => Some((*key, value, Some(*ttl_ms))),
            BatchOp::Get(_) | BatchOp::Del(_) => None,
        }
    }
}

/// A reusable batch of operations: the request half of the batched API.
///
/// Owns the operation list **and** the grouping scratch buffers, so a
/// request loop that clears and refills one `BatchRequest` per batch (the
/// intended steady state — what the harness's `WorkerState` does) executes
/// with zero allocations: grouping small batches is otherwise dominated by
/// allocator traffic, not by routing.
///
/// # Examples
///
/// ```
/// use spectm::{Stm, variants::ValShort};
/// use spectm_ds::ApiMode;
/// use spectm_kv::{BatchRequest, BatchResponse, ShardedKv, Value};
///
/// let stm = ValShort::new();
/// let store = ShardedKv::new(&stm, 4, 64, ApiMode::Short);
/// let mut thread = store.register();
/// let mut req = BatchRequest::new();
/// let mut resp = BatchResponse::new();
/// req.put(7, b"seven").get(7).del(7);
/// store.execute_batch_into(&mut req, &mut resp, &mut thread).unwrap();
/// assert_eq!(
///     resp,
///     vec![None, Some(Value::new(b"seven")), Some(Value::new(b"seven"))],
/// );
/// req.clear(); // reuse the buffers for the next batch
/// ```
#[derive(Default)]
pub struct BatchRequest {
    ops: Vec<BatchOp>,
    /// Grouping scratch (see [`crate::ShardRouter::group_runs_into`]),
    /// kept across batches so steady-state grouping never allocates.
    order: Vec<usize>,
    bounds: Vec<usize>,
}

impl BatchRequest {
    /// Creates an empty request.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a read of `key`; returns `self` for chaining.
    pub fn get(&mut self, key: u64) -> &mut Self {
        self.ops.push(BatchOp::Get(key));
        self
    }

    /// Appends a write of `bytes` under `key`; returns `self` for chaining.
    pub fn put(&mut self, key: u64, bytes: &[u8]) -> &mut Self {
        self.ops.push(BatchOp::put(key, bytes));
        self
    }

    /// Appends a write of `bytes` under `key` with an explicit TTL; returns
    /// `self` for chaining.
    pub fn put_ttl(&mut self, key: u64, bytes: &[u8], ttl_ms: u64) -> &mut Self {
        self.ops.push(BatchOp::put_ttl(key, bytes, ttl_ms));
        self
    }

    /// Appends a removal of `key`; returns `self` for chaining.
    pub fn del(&mut self, key: u64) -> &mut Self {
        self.ops.push(BatchOp::Del(key));
        self
    }

    /// Appends an already-built operation; returns `self` for chaining.
    pub fn push(&mut self, op: BatchOp) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// The operations queued so far, in request order.
    pub fn ops(&self) -> &[BatchOp] {
        &self.ops
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the request is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Removes every operation, keeping the buffers for reuse.
    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

impl FromIterator<BatchOp> for BatchRequest {
    fn from_iter<I: IntoIterator<Item = BatchOp>>(iter: I) -> Self {
        Self {
            ops: iter.into_iter().collect(),
            ..Self::default()
        }
    }
}

/// The response half of the batched API: one result per request position —
/// the stored value for a get, the displaced previous value for a put or
/// delete.  A plain vector, reused across batches by clearing.
pub type BatchResponse = Vec<Option<Value>>;

/// A coalesced multi-source batch: operations gathered from **several
/// independent request streams** — in practice the ready frames of many
/// client connections in one server sweep — executed as *one* shard-grouped
/// dispatch under a single epoch entry, with results scattered back per
/// source frame in request order.
///
/// This is the cross-connection generalization of [`BatchRequest`]: where a
/// per-connection server pays one epoch entry and one grouping pass per
/// frame, a multiplexing server appends every decodable frame into one
/// `MultiBatch` ([`wire::decode_request_append`](crate::wire::decode_request_append)
/// straight into [`MultiBatch::request_mut`], then [`MultiBatch::commit_frame`])
/// and dispatches once.
///
/// # Semantics: coalescing is performance-transparent
///
/// Each source frame keeps exactly the batch contract of the
/// [module docs](crate::batch), judged over *its own* operations:
///
/// * **Per-frame request-order results.**  A frame's result slice (from
///   [`MultiBatch::frames`]) has `slice[i]` answering the frame's `ops[i]`.
/// * **Per-source program order.**  Frames are appended in the order their
///   source produced them and each frame's operations keep their request
///   order, so all of one source's operations on one key execute in that
///   source's order (same-key operations land in one shard group, which
///   preserves combined append order — a refinement of per-source order).
/// * **Cross-source interleaving is some serialization.**  Operations from
///   different sources in one dispatch serialize in append order on shared
///   keys.  Concurrent connections never had an ordering contract between
///   them, so any serialization is indistinguishable from frames having
///   arrived in that order — which is why coalescing is transparent.
/// * **Atomicity can only grow.**  The per-shard read/write-mixing fallback
///   (see [module docs](crate::batch)) now considers the *combined* group,
///   so a frame may execute under a wider transaction than it would alone.
///   Observers can only see *more* atomicity, never less.
///
/// # Examples
///
/// ```
/// use spectm::{Stm, variants::ValShort};
/// use spectm_ds::ApiMode;
/// use spectm_kv::{MultiBatch, ShardedKv, Value};
///
/// let stm = ValShort::new();
/// let store = ShardedKv::new(&stm, 4, 64, ApiMode::Short);
/// let mut thread = store.register();
/// let mut multi = MultiBatch::new();
/// // Two sources' frames, coalesced into one dispatch.
/// multi.request_mut().put(1, b"one").get(1);
/// multi.commit_frame(0);
/// multi.request_mut().get(1).put(2, b"two");
/// multi.commit_frame(1);
/// store.execute_multi(&mut multi, &mut thread).unwrap();
/// let frames: Vec<_> = multi.frames().collect();
/// assert_eq!(frames[0].0, 0);
/// assert_eq!(frames[0].1, &[None, Some(Value::new(b"one"))]);
/// assert_eq!(frames[1].0, 1);
/// assert_eq!(frames[1].1, &[Some(Value::new(b"one")), None]);
/// multi.clear(); // reuse every buffer for the next sweep
/// ```
#[derive(Default)]
pub struct MultiBatch {
    /// The combined operation list plus grouping scratch, appended to
    /// frame by frame.
    req: BatchRequest,
    /// `(source, op_count)` per committed frame, in append order.
    frames: Vec<(usize, usize)>,
    /// Operations covered by committed frames; anything beyond this in
    /// `req` is a partially appended frame awaiting commit or rollback.
    committed: usize,
    /// One result per committed operation, filled by
    /// [`ShardedKv::execute_multi`].
    results: BatchResponse,
}

impl MultiBatch {
    /// Creates an empty coalescer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every frame and result, keeping all buffers for reuse — a
    /// steady-state sweep loop allocates nothing.
    pub fn clear(&mut self) {
        self.req.clear();
        self.frames.clear();
        self.committed = 0;
        self.results.clear();
    }

    /// Whether no frame has been committed.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Committed frames so far.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Operations across all committed frames.
    pub fn op_count(&self) -> usize {
        self.committed
    }

    /// The request under construction: append one frame's operations here
    /// (builder methods or
    /// [`wire::decode_request_append`](crate::wire::decode_request_append)),
    /// then call [`MultiBatch::commit_frame`] — or
    /// [`MultiBatch::rollback_frame`] if decoding failed partway.
    pub fn request_mut(&mut self) -> &mut BatchRequest {
        &mut self.req
    }

    /// Seals the operations appended since the last commit as one frame
    /// belonging to `source` (a caller-chosen id — e.g. the connection's
    /// slot — handed back by [`MultiBatch::frames`]).  Zero-operation
    /// frames are legal and produce an empty result slice.
    pub fn commit_frame(&mut self, source: usize) {
        let len = self.req.len() - self.committed;
        self.frames.push((source, len));
        self.committed = self.req.len();
    }

    /// Discards any operations appended since the last commit — the
    /// rollback half of the
    /// [`wire::decode_request_append`](crate::wire::decode_request_append)
    /// contract, so nothing from a malformed frame can execute.
    pub fn rollback_frame(&mut self) {
        self.req.ops.truncate(self.committed);
    }

    /// The committed frames' sources, in append order (usable before
    /// execution — unlike [`MultiBatch::frames`], which slices results).
    pub fn sources(&self) -> impl Iterator<Item = usize> + '_ {
        self.frames.iter().map(|&(source, _)| source)
    }

    /// Scatters the results of an executed dispatch back per frame: yields
    /// `(source, results)` in append order, each slice in its frame's
    /// request order.  Call only after a successful
    /// [`ShardedKv::execute_multi`].
    pub fn frames(&self) -> impl Iterator<Item = (usize, &[Option<Value>])> + '_ {
        debug_assert_eq!(self.results.len(), self.committed, "execute first");
        let mut start = 0usize;
        self.frames.iter().map(move |&(source, len)| {
            let slice = &self.results[start..start + len];
            start += len;
            (source, slice)
        })
    }
}

/// How many operations ahead the pipelined dispatch loop prefetches home
/// buckets.  The probe of operation *i* overlaps the memory latency of
/// operation *i + PREFETCH_AHEAD*'s home bucket — and because a bucket is
/// one flat 64-byte line holding all 7 slots plus the overflow link, that
/// single prefetch covers the whole common-case probe, not just a list
/// head.  A small constant keeps the prefetched lines resident.
const PREFETCH_AHEAD: usize = 4;

/// The all-or-nothing size validation every batch entry point runs before
/// executing anything: a batch with a put payload beyond
/// [`crate::MAX_VALUE_LEN`] is rejected whole, as a no-op.  Shared by both
/// stores
/// (`ShardedKv` here and `lockfree::LockFreeKvMap`), so the rule cannot
/// drift between them.
pub fn validate_ops(ops: &[BatchOp]) -> Result<(), KvError> {
    for op in ops {
        if let Some((_, value, _)) = op.as_put() {
            crate::map::check_len(value)?;
        }
    }
    Ok(())
}

/// Post-commit bookkeeping for one write of an atomically executed shard
/// group: which request slot it answers, and what the store's settle must
/// publish or retire once the group's transaction has committed.
enum GroupEffect<S: Stm> {
    /// A put: its displaced word if it overwrote (`None` = fresh insert),
    /// and which of the group's slot sets it used.
    Put {
        op: usize,
        put: usize,
        displaced: Option<(RetiredValue, Word)>,
    },
    /// A delete that unlinked an entry.
    Del { op: usize, removed: Removed<S> },
}

impl<S: Stm + Clone> ShardedKv<S> {
    /// Executes `ops` as one batch (see the [module docs](crate::batch) for
    /// the exact semantics) and returns the per-operation results in
    /// request order: the stored value for a get, the displaced previous
    /// value for a put or delete.
    ///
    /// If any put value exceeds [`crate::MAX_VALUE_LEN`], the whole batch is
    /// rejected **before anything executes**.
    ///
    /// # Examples
    ///
    /// ```
    /// use spectm::{Stm, variants::ValShort};
    /// use spectm_ds::ApiMode;
    /// use spectm_kv::{BatchOp, ShardedKv, Value};
    ///
    /// let stm = ValShort::new();
    /// let store = ShardedKv::new(&stm, 4, 64, ApiMode::Short);
    /// let mut thread = store.register();
    /// let results = store
    ///     .execute_batch(
    ///         &[
    ///             BatchOp::put(1, b"one"),
    ///             BatchOp::Get(1), // reads its own batch's put
    ///             BatchOp::put(1, b"uno"),
    ///             BatchOp::Del(1),
    ///             BatchOp::Get(1),
    ///         ],
    ///         &mut thread,
    ///     )
    ///     .unwrap();
    /// assert_eq!(
    ///     results,
    ///     vec![
    ///         None,
    ///         Some(Value::new(b"one")),
    ///         Some(Value::new(b"one")),
    ///         Some(Value::new(b"uno")),
    ///         None,
    ///     ],
    /// );
    /// ```
    pub fn execute_batch(
        &self,
        ops: &[BatchOp],
        thread: &mut S::Thread,
    ) -> Result<Vec<Option<Value>>, KvError> {
        let mut out = Vec::new();
        let mut order = Vec::new();
        let mut bounds = Vec::new();
        self.execute_grouped(ops, &mut order, &mut bounds, &mut out, thread)?;
        Ok(out)
    }

    /// [`ShardedKv::execute_batch`] over a reusable [`BatchRequest`],
    /// writing the results into a caller-provided [`BatchResponse`]
    /// (cleared first).  With both buffers reused across batches — the
    /// request keeps its grouping scratch alive — a steady-state request
    /// loop performs **no allocations at all** (word-sized put payloads
    /// stay inline in their [`BatchOp`]).
    pub fn execute_batch_into(
        &self,
        req: &mut BatchRequest,
        out: &mut BatchResponse,
        thread: &mut S::Thread,
    ) -> Result<(), KvError> {
        let BatchRequest { ops, order, bounds } = req;
        self.execute_grouped(ops, order, bounds, out, thread)
    }

    /// Executes every committed frame of a [`MultiBatch`] as **one**
    /// shard-grouped dispatch under a single epoch entry, filling the
    /// result buffer that [`MultiBatch::frames`] scatters back per source.
    /// See the [`MultiBatch`] docs for why coalescing frames from
    /// independent sources is performance-transparent.
    ///
    /// On error nothing executes and the results stay empty (same
    /// all-or-nothing validation as [`ShardedKv::execute_batch_into`],
    /// judged over the combined operation list).
    pub fn execute_multi(
        &self,
        multi: &mut MultiBatch,
        thread: &mut S::Thread,
    ) -> Result<(), KvError> {
        debug_assert_eq!(multi.req.len(), multi.committed, "uncommitted frame");
        let BatchRequest { ops, order, bounds } = &mut multi.req;
        self.execute_grouped(ops, order, bounds, &mut multi.results, thread)
    }

    /// The batch engine behind both entry points.
    fn execute_grouped(
        &self,
        ops: &[BatchOp],
        order: &mut Vec<usize>,
        bounds: &mut Vec<usize>,
        out: &mut Vec<Option<Value>>,
        thread: &mut S::Thread,
    ) -> Result<(), KvError> {
        validate_ops(ops)?;
        out.clear();
        // A one-operation batch has nothing to amortize: dispatch straight
        // to the single-key path, with no grouping and no extra pin, so
        // degenerate batches cost what the plain API costs.
        if let [op] = ops {
            out.push(self.run_op(self.router().route(op.key()), op, thread));
            return Ok(());
        }
        out.resize(ops.len(), None);
        self.router()
            .group_runs_into(ops.iter().map(BatchOp::key), order, bounds);
        // One epoch entry for the whole batch: the pins taken by the
        // per-operation paths below all nest inside this one, reducing
        // their announce to a counter bump.
        let _batch_pin = thread.epoch().pin();
        let mut start = 0usize;
        for (shard, &end) in bounds.iter().enumerate() {
            let group = &order[start..end];
            start = end;
            if group.is_empty() {
                continue;
            }
            if Self::mixes_read_write_on_same_key(ops, group) {
                self.run_group_atomic(shard, ops, group, out, thread);
            } else {
                // Pipelined dispatch: overlap operation `j`'s bucket probe
                // with the home-bucket fetch of the operation
                // `PREFETCH_AHEAD` positions later — one line covers the
                // whole 7-slot bucket.  `order` is contiguous across
                // groups, so the lookahead crosses group borders and stays
                // warm for every shard.
                for (j, &i) in group.iter().enumerate() {
                    if let Some(&ahead) = order.get(start - group.len() + j + PREFETCH_AHEAD) {
                        let key = ops[ahead].key();
                        self.shard_map(self.router().route(key))
                            .prefetch_bucket(key);
                    }
                    out[i] = self.run_op(shard, &ops[i], thread);
                }
            }
        }
        Ok(())
    }

    /// Dispatches one operation on a resolved shard through the single-key
    /// paths — the one-operation fast path and the pipelined dispatch loop
    /// (whose batch pin turns each path's own pin into a counter bump) run
    /// the same code.
    #[inline]
    fn run_op(&self, shard: usize, op: &BatchOp, thread: &mut S::Thread) -> Option<Value> {
        match op {
            BatchOp::Get(key) => self.get_routed(shard, *key, thread),
            BatchOp::Put(key, value) => self.put_routed(shard, *key, value, None, thread),
            BatchOp::PutTtl(key, value, ttl_ms) => {
                self.put_routed(shard, *key, value, Some(*ttl_ms), thread)
            }
            BatchOp::Del(key) => self.del_routed(shard, *key, thread),
        }
    }

    /// Whether a shard group both reads and writes the same key — the
    /// condition under which pipelining individual operations would let a
    /// concurrent writer slip between a get and the put it feeds, and the
    /// group falls back to one full transaction.
    ///
    /// Shard groups are small (a batch spreads over every shard), so the
    /// allocation-free nested scan beats sorting.
    fn mixes_read_write_on_same_key(ops: &[BatchOp], group: &[usize]) -> bool {
        for &w in group {
            if !ops[w].is_write() {
                continue;
            }
            let wkey = ops[w].key();
            for &r in group {
                if !ops[r].is_write() && ops[r].key() == wkey {
                    return true;
                }
            }
        }
        false
    }

    /// Runs one shard's group as a single full transaction, in request
    /// order, composing the store's two membership functions (so the index
    /// invariant, the slot-reuse contracts across conflict retries and the
    /// retire-only-after-commit rule are the single-key paths' own).
    fn run_group_atomic(
        &self,
        shard: usize,
        ops: &[BatchOp],
        group: &[usize],
        out: &mut [Option<Value>],
        thread: &mut S::Thread,
    ) {
        let map = self.shard_map(shard);
        let now = self.now_ms();
        // One slot set per put operation of the group, filled lazily by the
        // map/index helpers and reused across conflict retries.
        let puts = group.iter().filter(|&&i| ops[i].as_put().is_some()).count();
        let mut slots: Vec<MemberSlots<S>> = (0..puts).map(|_| MemberSlots::new()).collect();
        let mut effects: Vec<GroupEffect<S>> = Vec::new();
        thread
            .atomic(|tx| {
                // A retried body starts from scratch; dropping the previous
                // attempt's effects is the documented abort behaviour of
                // the Retired* types.
                effects.clear();
                let mut put = 0;
                for &op in group {
                    match &ops[op] {
                        BatchOp::Get(key) => {
                            // An expired entry is absent; physical removal
                            // is left to lazy reads and the sweep.
                            out[op] = match map.read_entry_in(*key, tx)? {
                                Some((_, deadline)) if deadline_expired(deadline, now) => None,
                                entry => entry.map(|(value, _)| value),
                            };
                        }
                        BatchOp::Del(key) => {
                            if let Some(removed) = self.remove_member_in(shard, *key, None, tx)? {
                                effects.push(GroupEffect::Del { op, removed });
                            }
                        }
                        BatchOp::Put(..) | BatchOp::PutTtl(..) => {
                            let (key, value, ttl_ms) = ops[op].as_put().expect("a put");
                            let deadline = self.deadline_for(ttl_ms);
                            let displaced = self.insert_member_in(
                                shard,
                                key,
                                value,
                                deadline,
                                &mut slots[put],
                                tx,
                            )?;
                            effects.push(GroupEffect::Put { op, put, displaced });
                            put += 1;
                        }
                    }
                }
                Ok(())
            })
            .expect("batch groups are never cancelled");
        // The group committed: the store's settles resolve the write
        // results, publish, account and retire.
        for effect in effects {
            match effect {
                GroupEffect::Put { op, put, displaced } => {
                    let (_, value, _) = ops[op].as_put().expect("put effect from a put");
                    out[op] = self.settle_put(displaced, &mut slots[put], value.len(), thread);
                }
                GroupEffect::Del { op, removed } => {
                    out[op] = self.settle_removed(removed, thread).live();
                }
            }
        }
        // The group's reads settle after the commit too, so conflict
        // retries are not counted.
        for &op in group {
            if let BatchOp::Get(key) = ops[op] {
                self.settle_read(shard, key, out[op].is_some(), thread);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::MAX_VALUE_LEN;
    use spectm::variants::{OrecFullG, ValShort};
    use spectm_ds::ApiMode;
    use std::collections::BTreeMap;

    fn results_of(batch: &[BatchOp], oracle: &mut BTreeMap<u64, Value>) -> Vec<Option<Value>> {
        batch
            .iter()
            .map(|op| match op {
                BatchOp::Get(k) => oracle.get(k).cloned(),
                BatchOp::Put(k, v) | BatchOp::PutTtl(k, v, _) => oracle.insert(*k, v.clone()),
                BatchOp::Del(k) => oracle.remove(k),
            })
            .collect()
    }

    #[test]
    fn mixed_batches_match_a_sequential_oracle() {
        for mode in [ApiMode::Short, ApiMode::Full] {
            let stm = ValShort::new();
            let store = ShardedKv::new(&stm, 4, 32, mode);
            let mut t = store.register();
            let mut oracle = BTreeMap::new();
            let mut state = 0x5EED_0001u64;
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for round in 0..60 {
                let len = (rng() % 24) as usize;
                let batch: Vec<BatchOp> = (0..len)
                    .map(|_| {
                        let key = rng() % 48;
                        match rng() % 4 {
                            0 => BatchOp::Get(key),
                            1 => BatchOp::Del(key),
                            // Lengths sweep inline and out-of-line values.
                            _ => BatchOp::put(key, &vec![rng() as u8; (rng() % 40) as usize]),
                        }
                    })
                    .collect();
                assert_eq!(
                    store.execute_batch(&batch, &mut t).unwrap(),
                    results_of(&batch, &mut oracle),
                    "{mode:?} diverged on batch {round}"
                );
            }
            assert_eq!(
                store.quiescent_snapshot(),
                oracle.into_iter().collect::<Vec<_>>()
            );
            store.assert_index_consistent();
        }
    }

    #[test]
    fn read_your_writes_within_one_batch() {
        let stm = OrecFullG::new();
        let store = ShardedKv::new(&stm, 2, 16, ApiMode::Full);
        let mut t = store.register();
        // put/get/del chains on one key land in one shard group and mix
        // reads with writes, forcing the atomic fallback.
        let results = store
            .execute_batch(
                &[
                    BatchOp::Get(9),
                    BatchOp::put(9, b"a"),
                    BatchOp::Get(9),
                    BatchOp::Del(9),
                    BatchOp::Get(9),
                    BatchOp::put(9, b"a second, longer, out-of-line value"),
                    BatchOp::Get(9),
                ],
                &mut t,
            )
            .unwrap();
        assert_eq!(
            results,
            vec![
                None,
                None,
                Some(Value::new(b"a")),
                Some(Value::new(b"a")),
                None,
                None,
                Some(Value::new(b"a second, longer, out-of-line value")),
            ]
        );
        store.assert_index_consistent();
    }

    #[test]
    fn oversized_puts_reject_the_whole_batch_untouched() {
        let stm = ValShort::new();
        let store = ShardedKv::new(&stm, 2, 16, ApiMode::Short);
        let mut t = store.register();
        store.put(1, b"keep", &mut t).unwrap();
        let huge = vec![0u8; MAX_VALUE_LEN + 1];
        let batch = [
            BatchOp::put(1, b"clobbered?"),
            BatchOp::Put(2, Value::from(huge.clone())),
        ];
        assert_eq!(
            store.execute_batch(&batch, &mut t),
            Err(KvError::ValueTooLarge {
                len: MAX_VALUE_LEN + 1
            })
        );
        assert_eq!(store.get(1, &mut t), Some(Value::new(b"keep")));
        assert_eq!(store.get(2, &mut t), None);
        // Position and put shape do not matter: an oversized TTL'd put
        // *behind* valid writes and a delete still rejects all of them.
        let batch = [
            BatchOp::put(1, b"x"),
            BatchOp::Del(1),
            BatchOp::PutTtl(2, Value::from(huge), 5),
        ];
        assert_eq!(
            store.execute_batch(&batch, &mut t),
            Err(KvError::ValueTooLarge {
                len: MAX_VALUE_LEN + 1
            })
        );
        assert_eq!(store.get(1, &mut t), Some(Value::new(b"keep")));
    }

    #[test]
    fn empty_and_single_op_batches_work() {
        let stm = ValShort::new();
        let store = ShardedKv::new(&stm, 1, 16, ApiMode::Short);
        let mut t = store.register();
        assert!(store.execute_batch(&[], &mut t).unwrap().is_empty());
        assert_eq!(
            store
                .execute_batch(&[BatchOp::put(3, b"x")], &mut t)
                .unwrap(),
            vec![None]
        );
        assert_eq!(
            store.execute_batch(&[BatchOp::Get(3)], &mut t).unwrap(),
            vec![Some(Value::new(b"x"))]
        );
    }

    #[test]
    fn op_accessors_expose_key_and_kind() {
        assert_eq!(BatchOp::Get(5).key(), 5);
        assert_eq!(BatchOp::put(6, b"v").key(), 6);
        assert_eq!(BatchOp::Del(7).key(), 7);
        assert!(!BatchOp::Get(5).is_write());
        assert!(BatchOp::put(6, b"v").is_write());
        assert!(BatchOp::Del(7).is_write());
    }

    #[test]
    fn multi_batch_scatters_each_source_like_serial_execution() {
        let stm = ValShort::new();
        let store = ShardedKv::new(&stm, 4, 64, ApiMode::Short);
        let mut t = store.register();
        let mut oracle = BTreeMap::new();
        let mut multi = MultiBatch::new();
        let mut state = 0xC0A1_E5CEu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Several sweeps of coalesced frames from 3 sources with disjoint
        // key ranges: each source's scattered slice must equal a serial
        // replay of that source's own operations (disjoint ranges make the
        // per-source oracle exact regardless of cross-source interleaving).
        for _ in 0..20 {
            multi.clear();
            let mut expect: Vec<(usize, Vec<Option<Value>>)> = Vec::new();
            for source in 0..3usize {
                let base = source as u64 * 100;
                let frames = 1 + rng() % 3;
                for _ in 0..frames {
                    let ops: Vec<BatchOp> = (0..rng() % 6)
                        .map(|_| {
                            let key = base + rng() % 16;
                            match rng() % 4 {
                                0 => BatchOp::Get(key),
                                1 => BatchOp::Del(key),
                                _ => BatchOp::put(key, &vec![rng() as u8; (rng() % 30) as usize]),
                            }
                        })
                        .collect();
                    expect.push((source, results_of(&ops, &mut oracle)));
                    for op in ops {
                        multi.request_mut().push(op);
                    }
                    multi.commit_frame(source);
                }
            }
            assert_eq!(multi.frame_count(), expect.len());
            assert_eq!(
                multi.op_count(),
                expect.iter().map(|(_, r)| r.len()).sum::<usize>()
            );
            store.execute_multi(&mut multi, &mut t).unwrap();
            let got: Vec<(usize, Vec<Option<Value>>)> = multi
                .frames()
                .map(|(source, results)| (source, results.to_vec()))
                .collect();
            assert_eq!(got, expect);
        }
        store.assert_index_consistent();
    }

    #[test]
    fn multi_batch_rollback_drops_only_the_partial_frame() {
        let stm = ValShort::new();
        let store = ShardedKv::new(&stm, 2, 16, ApiMode::Short);
        let mut t = store.register();
        let mut multi = MultiBatch::new();
        multi.request_mut().put(1, b"kept");
        multi.commit_frame(7);
        // A frame that fails to decode partway: its appended ops must
        // vanish without disturbing the committed frame before it.
        multi.request_mut().put(1, b"poison").del(1);
        multi.rollback_frame();
        assert_eq!(multi.frame_count(), 1);
        assert_eq!(multi.op_count(), 1);
        assert_eq!(multi.sources().collect::<Vec<_>>(), vec![7]);
        store.execute_multi(&mut multi, &mut t).unwrap();
        let frames: Vec<_> = multi.frames().collect();
        assert_eq!(frames, vec![(7, &[None][..])]);
        assert_eq!(store.get(1, &mut t), Some(Value::new(b"kept")));
    }

    #[test]
    fn multi_batch_zero_op_frames_yield_empty_slices() {
        let stm = ValShort::new();
        let store = ShardedKv::new(&stm, 2, 16, ApiMode::Short);
        let mut t = store.register();
        let mut multi = MultiBatch::new();
        assert!(multi.is_empty());
        multi.commit_frame(0); // an empty frame is a legal (if silly) request
        multi.request_mut().put(5, b"v").get(5);
        multi.commit_frame(1);
        multi.commit_frame(2);
        assert!(!multi.is_empty());
        store.execute_multi(&mut multi, &mut t).unwrap();
        let frames: Vec<_> = multi.frames().collect();
        assert_eq!(
            frames,
            vec![
                (0, &[][..]),
                (1, &[None, Some(Value::new(b"v"))][..]),
                (2, &[][..]),
            ]
        );
        // clear() resets for the next sweep without shrinking buffers.
        multi.clear();
        assert!(multi.is_empty());
        assert_eq!(multi.op_count(), 0);
    }

    #[test]
    fn multi_batch_oversized_put_rejects_the_whole_dispatch() {
        let stm = ValShort::new();
        let store = ShardedKv::new(&stm, 2, 16, ApiMode::Short);
        let mut t = store.register();
        store.put(3, b"keep", &mut t).unwrap();
        let mut multi = MultiBatch::new();
        multi.request_mut().put(3, b"clobbered?");
        multi.commit_frame(0);
        multi
            .request_mut()
            .push(BatchOp::Put(4, Value::from(vec![0u8; MAX_VALUE_LEN + 1])));
        multi.commit_frame(1);
        assert!(store.execute_multi(&mut multi, &mut t).is_err());
        assert_eq!(store.get(3, &mut t), Some(Value::new(b"keep")));
    }
}
