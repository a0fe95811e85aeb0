//! YCSB-style workload driver for the sharded transactional KV store.
//!
//! Where [`crate::intset`] reproduces the paper's microbenchmarks, this
//! module stresses the same STM variants through a *service-level* shape:
//! the sharded `u64 -> bytes` store of the `spectm-kv` crate, driven by the
//! standard key-value mixes (read-heavy 95/5, update 50/50, read-only, a
//! read-modify-write mix whose multi-key updates compose across shards, and
//! a scan-heavy YCSB-E mix of short range scans plus fresh inserts), by
//! skewed key-popularity distributions (zipfian and latest) next to the
//! uniform draw of the microbenchmarks, and by YCSB-style **value-size
//! distributions** ([`ValueSize`]: fixed, uniform or zipfian payload
//! lengths).  EXPERIMENTS.md maps the mixes to their YCSB counterparts.
//!
//! Every written payload is *self-certifying* — deterministic filler ending
//! in a checksum over the bytes and the key ([`fill_payload`] /
//! [`payload_is_valid`]) — so the driver's verify mode replays an oracle
//! check over everything it reads: any torn, stale-beyond-serializability
//! or corrupted payload fails loudly instead of skewing a throughput
//! number.
//!
//! Everything is generic over [`KvStore`], so the STM-backed store and the
//! CAS-based [`lockfree::LockFreeKvMap`] baseline run the identical driver,
//! and [`run_kv_variant`] accepts the same [`VariantSpec`](crate::VariantSpec)
//! labels the figure drivers use.  Measurement uses the per-thread windows
//! of [`crate::measure`].
//!
//! Three files, one flat namespace (everything is re-exported here): the
//! workload itself — mixes, distributions, samplers, payloads and the
//! per-thread operation stream, which the network load generator of
//! [`crate::loadgen`] shares; the [`KvStore`] interface with its two
//! adapters; and the in-process driver with the `kv` binary's sweeps.

mod driver;
mod store;
mod workload;

pub use driver::*;
pub use store::*;
pub use workload::*;

#[cfg(test)]
mod tests;
