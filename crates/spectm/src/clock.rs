//! Version clocks.
//!
//! The paper's `*-g` variants use a single shared version clock in the style
//! of TL2: non-read-only transactions increment it at commit time, and
//! readers snapshot it to obtain opacity cheaply.  The `*-l` variants do away
//! with the shared clock (each orec carries an independent version), trading
//! the commit-time increment for incremental read-set validation.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Which version-management strategy a [`crate::VersionedStm`] instance uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// TL2-style shared global version clock (`*-g` labels in the paper).
    #[default]
    Global,
    /// Per-orec version numbers with incremental validation (`*-l` labels).
    Local,
}

/// A shared, monotonically increasing version clock.
///
/// Padded to a cache line so that the heavily CASed counter does not share a
/// line with neighbouring data.
#[derive(Debug)]
#[repr(align(64))]
pub struct GlobalClock {
    now: AtomicUsize,
}

impl Default for GlobalClock {
    fn default() -> Self {
        Self::new()
    }
}

impl GlobalClock {
    /// Creates a clock starting at zero.
    pub const fn new() -> Self {
        Self {
            now: AtomicUsize::new(0),
        }
    }

    /// Returns the current time without advancing it.
    #[inline]
    pub fn now(&self) -> usize {
        self.now.load(Ordering::Acquire)
    }

    /// Advances the clock and returns the *new* value (the commit timestamp).
    #[inline]
    pub fn tick(&self) -> usize {
        self.now.fetch_add(1, Ordering::AcqRel) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn tick_is_monotonic() {
        let c = GlobalClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.tick(), 1);
        assert_eq!(c.tick(), 2);
        assert_eq!(c.now(), 2);
    }

    #[test]
    fn concurrent_ticks_are_unique() {
        let c = Arc::new(GlobalClock::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| c.tick()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000);
        assert_eq!(c.now(), 4000);
    }

    #[test]
    fn clock_mode_default_is_global() {
        assert_eq!(ClockMode::default(), ClockMode::Global);
    }
}
