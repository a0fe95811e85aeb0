//! SpecTM: specialized software transactional memory, in Rust.
//!
//! This crate reproduces the STM described in *"STM in the Small: Trading
//! Generality for Performance in Software Transactional Memory"*
//! (Dragojević & Harris, EuroSys 2012).  It provides:
//!
//! * **BaseTM** — a traditional word-based STM in the style of TL2 (global
//!   version clock, commit-time locking, invisible reads, deferred updates,
//!   hash-based write sets, timebase extension) with an alternative
//!   per-orec/local-clock mode;
//! * a **specialized API for short transactions** (single-location reads,
//!   writes and CASes; read-write and read-only transactions over a small,
//!   statically-indexed set of locations; combined RO/RW commits; RO→RW
//!   upgrades);
//! * three **meta-data layouts**: a hash-indexed ownership-record table
//!   ([`layout::OrecTableLayout`]), per-data-item ownership records co-located
//!   with the data ([`layout::TvarLayout`]), and a single lock bit folded into
//!   the data word with value-based validation ([`ValStm`]).
//!
//! All variants are unified behind the [`Stm`] / [`StmThread`] traits so that
//! a data structure written once runs unchanged over every point in the
//! paper's design space — exactly how the paper isolates the contribution of
//! each specialization.
//!
//! # Quick start
//!
//! ```
//! use spectm::{Stm, StmThread};
//! use spectm::variants::TvarShortG;
//!
//! let stm = TvarShortG::new();
//! let counter = stm.new_cell(0);
//! let mut thread = stm.register();
//!
//! // A traditional (full) transaction.
//! let committed = thread.atomic(|tx| {
//!     let v = tx.read(&counter)?;
//!     tx.write(&counter, v + 1)?;
//!     Ok(v)
//! });
//! assert_eq!(committed, Some(0));
//!
//! // The same update expressed as a specialized short transaction.
//! loop {
//!     let v = thread.rw_read(0, &counter);
//!     if !thread.rw_is_valid(1) {
//!         continue;
//!     }
//!     thread.rw_commit(1, &[v + 1]);
//!     break;
//! }
//! assert_eq!(thread.single_read(&counter), 2);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod api;
pub mod backoff;
pub mod clock;
pub mod config;
pub mod layout;
pub mod orec;
pub mod prefetch;
pub mod stats;
pub mod val;
pub mod variants;
pub mod versioned;
pub mod word;

pub use api::{FullTx, Stm, StmThread, TxAbort, TxResult, MAX_SHORT};
pub use backoff::Backoff;
pub use clock::{ClockMode, GlobalClock};
pub use config::{Config, ShortLocking, WriteSetKind};
pub use orec::Orec;
pub use prefetch::prefetch;
pub use stats::{Stats, StatsSnapshot};
pub use val::{ValCell, ValStm, ValThread};
pub use variants::*;
pub use versioned::{VersionedStm, VersionedThread};
pub use word::{
    decode_inline, decode_int, encode_inline, encode_int, is_inline_value, is_marked, mark, unmark,
    Word, INLINE_BYTES_BIT, INLINE_INT_BIT, INLINE_INT_BITS, MARK_BIT, MAX_INLINE_BYTES,
    VAL_SPARE_BITS,
};
