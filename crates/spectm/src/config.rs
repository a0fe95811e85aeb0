//! Runtime configuration of an STM instance.
//!
//! The defaults correspond to the paper's BaseTM / SpecTM settings; the other
//! knobs exist for the ablation benchmarks called out in DESIGN.md.

use crate::clock::ClockMode;

/// How short read-write transactions acquire ownership of locations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShortLocking {
    /// Encounter-time locking: the location is locked by the `rw_read` call
    /// itself (the paper's design; removes commit-time read validation).
    #[default]
    Encounter,
    /// Commit-time locking: `rw_read` only records the version and locks are
    /// taken at commit.  Used by the ablation study of Section 4.4.2, which
    /// attributes the high-contention drop-off of `*-short` variants to ETL.
    Commit,
}

/// Write-set representation used by full transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteSetKind {
    /// Hash-indexed write set (Spear et al.), the paper's default.
    #[default]
    Hashed,
    /// Plain linear log with linear search on read-after-write.  Ablation.
    Linear,
}

/// Configuration for a [`crate::VersionedStm`] or [`crate::ValStm`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Version-clock strategy (`*-g` vs `*-l`).  Ignored by [`crate::ValStm`]
    /// short transactions, which are version-free.
    pub clock: ClockMode,
    /// Number of ownership records in the orec table (orec layout only).
    /// Rounded up to a power of two.
    pub orec_table_size: usize,
    /// Whether the contention manager waits between restarts.
    pub backoff: bool,
    /// Locking discipline for short read-write transactions.
    pub short_locking: ShortLocking,
    /// Write-set representation for full transactions.
    pub write_set: WriteSetKind,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            clock: ClockMode::Global,
            orec_table_size: 1 << 20,
            backoff: true,
            short_locking: ShortLocking::Encounter,
            write_set: WriteSetKind::Hashed,
        }
    }
}

impl Config {
    /// The paper's BaseTM configuration with a global clock.
    pub fn global() -> Self {
        Self::default()
    }

    /// The paper's configuration with per-orec (local) version numbers.
    pub fn local() -> Self {
        Self {
            clock: ClockMode::Local,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_basetm() {
        let c = Config::default();
        assert_eq!(c.clock, ClockMode::Global);
        assert!(c.backoff);
        assert_eq!(c.short_locking, ShortLocking::Encounter);
        assert_eq!(c.write_set, WriteSetKind::Hashed);
    }

    #[test]
    fn local_flips_clock_only() {
        let c = Config::local();
        assert_eq!(c.clock, ClockMode::Local);
        assert_eq!(c.orec_table_size, Config::default().orec_table_size);
    }
}
