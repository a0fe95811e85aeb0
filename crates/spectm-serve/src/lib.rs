//! A threaded cache server fronting the SpecTM sharded key-value store.
//!
//! This crate is the network front-end ROADMAP item 1 calls for: it turns
//! [`spectm_kv::ShardedKv`] into a service in the Pelikan cache-server mold
//! — one acceptor thread plus N worker threads, each worker multiplexing
//! **many nonblocking connections** while owning its own STM thread handle
//! into the one shared store, speaking the length-prefixed binary protocol
//! of [`spectm_kv::wire`].  On each sweep a worker drains every decodable
//! frame from every ready connection into one [`spectm_kv::MultiBatch`],
//! executed under a single epoch entry by
//! [`spectm_kv::ShardedKv::execute_multi`], and scatters the responses
//! back per connection in request order — so the wire hot path is the
//! batched short-transaction pipeline the store already optimizes,
//! amortized across every ready peer.
//!
//! Design points (DESIGN.md § "Wire protocol and the cache server"):
//!
//! * **One sweep, any transport.** A worker's whole turn over its
//!   connections is one function, generic over `Read + Write`; a thin
//!   driver adds the sockets, the shutdown flag, the clock and the park.
//!   The server runs it over `TcpStream`s, and the unit tests step it over
//!   seeded in-memory pipes.
//! * **Connections are open or closing, not blocking I/O.** Each
//!   connection carries an incremental [`spectm_kv::wire::FrameReader`] and
//!   a write buffer with partial-write continuation; a peer that stops
//!   reading its responses stalls only itself, never its worker.
//! * **Cross-connection coalescing.** One dispatch per sweep covers the
//!   frames of every ready connection; per-connection ordering and the
//!   batch-atomicity contract are preserved (see
//!   [`spectm_kv::MultiBatch`]), so coalescing is a pure perf win.
//! * **Typed error teardown.** Any [`spectm_kv::wire::WireError`] — bad
//!   opcode, oversized length prefix, truncated frame — tears the
//!   connection down without a response and without executing any part of
//!   the offending frame.  The server never panics on peer input.
//! * **Graceful shutdown.** [`Server::shutdown`] (or dropping the
//!   [`Server`]) raises a flag; the acceptor and every worker observe it
//!   within a sweep — even with responses still queued for a slow reader —
//!   then drain and join.
//!
//! The matching load-generator client (`kv-loadgen`) lives in the harness
//! crate; the `spectm-serve` binary in this crate wires a
//! [`spectm::variants::ValShort`] store behind [`Server::start`].

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod server;
#[cfg(test)]
mod sim;

pub use server::{Server, StatsSnapshot, COALESCE_BUCKETS};
