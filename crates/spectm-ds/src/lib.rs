//! Data structures built over the SpecTM API.
//!
//! This crate contains the paper's case studies, written once and generic
//! over the [`spectm::Stm`] trait so that the *same* data-structure code runs
//! over every STM variant (orec table / TVar / value-based layouts, global or
//! local clocks):
//!
//! * [`TxDeque`] — the bounded double-ended queue used as the running example
//!   of Section 2, with both a traditional-transaction and a
//!   short-transaction implementation of every operation;
//! * [`StmHashTable`] — the integer-set hash table of the evaluation;
//! * [`StmSkipList`] — the skip list of Section 3, which uses specialized
//!   short transactions for towers of height 1–2 and ordinary transactions
//!   for taller towers; besides the paper's integer-set API it doubles as an
//!   ordered `u64 -> u64` map with transactional range scans (the ordered
//!   index of the `spectm-kv` store);
//! * [`dcss`](mod@dcss) — the double-compare-single-swap helper built from a combined
//!   read-only/read-write short transaction (Section 2.2).
//!
//! Each concurrent structure's operations take a `&mut S::Thread` handle; the
//! handle owns the transaction descriptor and the epoch-reclamation state for
//! the calling thread (register one per thread with [`spectm::Stm::register`]).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod dcss;
pub mod deque;
pub mod hashtable;
pub mod skiplist;

pub use dcss::dcss;
pub use deque::TxDeque;
pub use hashtable::StmHashTable;
pub use skiplist::{free_tower, RetiredTower, StmSkipList, Tower, TowerSlot, MAX_TOWER_VALUE};

/// Which SpecTM interface a data structure instance drives.
///
/// The paper's variant labels put this in the middle position:
/// `orec-full-g` is the orec layout driven through [`ApiMode::Full`],
/// `tvar-short-g` is the TVar layout driven through [`ApiMode::Short`], and
/// `orec-full-g (fine)` in Figure 6(a) is [`ApiMode::Fine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ApiMode {
    /// Every operation is a single traditional transaction (BaseTM usage).
    Full,
    /// Fast paths use the specialized short-transaction API; rare cases fall
    /// back to traditional transactions (the SpecTM design).
    #[default]
    Short,
    /// Operations are split into the same fine-grained steps as
    /// [`ApiMode::Short`], but each step is an ordinary (full) transaction.
    /// This isolates the benefit of the specialized implementation from the
    /// benefit of merely using smaller transactions.
    Fine,
}

impl ApiMode {
    /// The paper's label fragment for this mode.
    pub fn label(self) -> &'static str {
        match self {
            ApiMode::Full => "full",
            ApiMode::Short => "short",
            ApiMode::Fine => "full (fine)",
        }
    }
}

/// Outcome of one attempt to unlink a node (or tower) a search found.
enum Removal {
    /// This attempt unlinked and marked it.
    Removed,
    /// Another remover marked it first.
    AlreadyGone,
    /// The search's window no longer describes the structure (or
    /// validation failed): search again.
    Retry,
}
