//! The bounded double-ended queue of Section 2.
//!
//! The queue is built over an array of transactional cells holding the items
//! at indices `left..right` (modulo the capacity).  Elements must be non-zero
//! so that zero can mark empty slots.  Every operation exists in two forms:
//!
//! * `*_full` — a traditional transaction, exactly as the BaseTM `PopLeft`
//!   listing of Section 2.1;
//! * the default methods — specialized short transactions, exactly as the
//!   SpecTM `PopLeft` listing of Section 2.2 (two reads, validity check, and
//!   a two-location commit or an abort), re-run on a conflict by
//!   [`StmThread::retry`], which backs off iff `Config::backoff` is set.
//!
//! Stored values use the [`spectm::encode_int`] encoding so that the same
//! code runs over the value-based layout (which reserves bit 0).

use spectm::{encode_int, Stm, StmThread, Word};

/// A bounded, transactional double-ended queue of small integers.
///
/// # Examples
///
/// ```
/// use spectm::{Stm, variants::TvarShortG};
/// use spectm_ds::TxDeque;
///
/// let stm = TvarShortG::new();
/// let deque = TxDeque::new(&stm, 8);
/// let mut thread = stm.register();
/// assert!(deque.push_right(1, &mut thread));
/// assert!(deque.push_right(2, &mut thread));
/// assert_eq!(deque.pop_left(&mut thread), Some(1));
/// assert_eq!(deque.pop_left(&mut thread), Some(2));
/// assert_eq!(deque.pop_left(&mut thread), None);
/// ```
pub struct TxDeque<S: Stm> {
    items: Vec<S::Cell>,
    left: S::Cell,
    right: S::Cell,
    capacity: usize,
}

/// Encodes a queue element: values are shifted so that zero can represent an
/// empty slot and bit 0 stays clear for the value-based layout.
#[inline]
fn enc(value: u64) -> Word {
    encode_int(value as usize + 1)
}

/// Decodes a queue element previously encoded with [`enc`].
#[inline]
fn dec(word: Word) -> u64 {
    (spectm::decode_int(word) - 1) as u64
}

impl<S: Stm> TxDeque<S> {
    /// Creates an empty deque with room for `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2`.
    pub fn new(stm: &S, capacity: usize) -> Self {
        assert!(capacity >= 2, "deque capacity must be at least 2");
        Self {
            items: (0..capacity).map(|_| stm.new_cell(0)).collect(),
            left: stm.new_cell(encode_int(0)),
            right: stm.new_cell(encode_int(0)),
            capacity,
        }
    }

    /// Capacity in elements.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn idx(&self, i: usize) -> usize {
        i % self.capacity
    }

    // ------------------------------------------------------------------
    // Short-transaction operations (Section 2.2)
    // ------------------------------------------------------------------

    /// Pops from the left end using a specialized short transaction.
    pub fn pop_left(&self, thread: &mut S::Thread) -> Option<u64> {
        thread.retry(|thread| {
            let li = spectm::decode_int(thread.rw_read(0, &self.left));
            if !thread.rw_is_valid(1) {
                return None;
            }
            let item = thread.rw_read(1, &self.items[self.idx(li)]);
            if !thread.rw_is_valid(2) {
                return None;
            }
            if item == 0 {
                thread.rw_abort(2);
                return Some(None);
            }
            thread
                .rw_commit(2, &[encode_int(li + 1), 0])
                .then(|| Some(dec(item)))
        })
    }

    /// Pushes onto the right end using a specialized short transaction.
    ///
    /// Returns `false` if the queue is full.
    pub fn push_right(&self, value: u64, thread: &mut S::Thread) -> bool {
        thread.retry(|thread| {
            let ri = spectm::decode_int(thread.rw_read(0, &self.right));
            if !thread.rw_is_valid(1) {
                return None;
            }
            let existing = thread.rw_read(1, &self.items[self.idx(ri)]);
            if !thread.rw_is_valid(2) {
                return None;
            }
            if existing != 0 {
                thread.rw_abort(2);
                return Some(false);
            }
            thread
                .rw_commit(2, &[encode_int(ri + 1), enc(value)])
                .then_some(true)
        })
    }

    /// Pops from the right end using a specialized short transaction.
    pub fn pop_right(&self, thread: &mut S::Thread) -> Option<u64> {
        thread.retry(|thread| {
            let ri = spectm::decode_int(thread.rw_read(0, &self.right));
            if !thread.rw_is_valid(1) {
                return None;
            }
            let Some(prev) = ri.checked_sub(1) else {
                // Index 0 with nothing ever pushed: treat slot capacity-1.
                thread.rw_abort(1);
                return Some(self.pop_right_full(thread));
            };
            let item = thread.rw_read(1, &self.items[self.idx(prev)]);
            if !thread.rw_is_valid(2) {
                return None;
            }
            if item == 0 {
                thread.rw_abort(2);
                return Some(None);
            }
            thread
                .rw_commit(2, &[encode_int(prev), 0])
                .then(|| Some(dec(item)))
        })
    }

    /// Pushes onto the left end using a specialized short transaction.
    ///
    /// Returns `false` if the queue is full.
    pub fn push_left(&self, value: u64, thread: &mut S::Thread) -> bool {
        thread.retry(|thread| {
            let li = spectm::decode_int(thread.rw_read(0, &self.left));
            if !thread.rw_is_valid(1) {
                return None;
            }
            let Some(prev) = li.checked_sub(1) else {
                thread.rw_abort(1);
                return Some(self.push_left_full(value, thread));
            };
            let existing = thread.rw_read(1, &self.items[self.idx(prev)]);
            if !thread.rw_is_valid(2) {
                return None;
            }
            if existing != 0 {
                thread.rw_abort(2);
                return Some(false);
            }
            thread
                .rw_commit(2, &[encode_int(prev), enc(value)])
                .then_some(true)
        })
    }

    // ------------------------------------------------------------------
    // Traditional-transaction operations (Section 2.1)
    // ------------------------------------------------------------------

    /// Pops from the left end using a traditional transaction.
    pub fn pop_left_full(&self, thread: &mut S::Thread) -> Option<u64> {
        thread
            .atomic(|tx| {
                let li = spectm::decode_int(tx.read(&self.left)?);
                let slot = &self.items[self.idx(li)];
                let item = tx.read(slot)?;
                if item != 0 {
                    tx.write(slot, 0)?;
                    tx.write(&self.left, encode_int(li + 1))?;
                    Ok(Some(dec(item)))
                } else {
                    Ok(None)
                }
            })
            .expect("pop_left_full is never cancelled")
    }

    /// Pushes onto the right end using a traditional transaction.
    pub fn push_right_full(&self, value: u64, thread: &mut S::Thread) -> bool {
        thread
            .atomic(|tx| {
                let ri = spectm::decode_int(tx.read(&self.right)?);
                let slot = &self.items[self.idx(ri)];
                if tx.read(slot)? == 0 {
                    tx.write(slot, enc(value))?;
                    tx.write(&self.right, encode_int(ri + 1))?;
                    Ok(true)
                } else {
                    Ok(false)
                }
            })
            .expect("push_right_full is never cancelled")
    }

    /// Pops from the right end using a traditional transaction.
    pub fn pop_right_full(&self, thread: &mut S::Thread) -> Option<u64> {
        thread
            .atomic(|tx| {
                let ri = spectm::decode_int(tx.read(&self.right)?);
                if ri == 0 {
                    let li = spectm::decode_int(tx.read(&self.left)?);
                    if li == 0 {
                        return Ok(None);
                    }
                }
                let Some(prev) = ri.checked_sub(1) else {
                    return Ok(None);
                };
                let slot = &self.items[self.idx(prev)];
                let item = tx.read(slot)?;
                if item != 0 {
                    tx.write(slot, 0)?;
                    tx.write(&self.right, encode_int(prev))?;
                    Ok(Some(dec(item)))
                } else {
                    Ok(None)
                }
            })
            .expect("pop_right_full is never cancelled")
    }

    /// Pushes onto the left end using a traditional transaction.
    pub fn push_left_full(&self, value: u64, thread: &mut S::Thread) -> bool {
        thread
            .atomic(|tx| {
                let li = spectm::decode_int(tx.read(&self.left)?);
                let Some(prev) = li.checked_sub(1) else {
                    return Ok(false);
                };
                let slot = &self.items[self.idx(prev)];
                if tx.read(slot)? == 0 {
                    tx.write(slot, enc(value))?;
                    tx.write(&self.left, encode_int(prev))?;
                    Ok(true)
                } else {
                    Ok(false)
                }
            })
            .expect("push_left_full is never cancelled")
    }

    /// Number of elements currently stored (non-transactional; only meaningful
    /// when no concurrent operations run).
    pub fn quiescent_len(&self) -> usize {
        self.items.iter().filter(|c| S::peek(c) != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectm::variants::{OrecFullG, TvarShortG, ValShort};
    use std::sync::Arc;

    fn fifo_roundtrip<S: Stm>() {
        let stm = S::new();
        let q = TxDeque::new(&stm, 16);
        let mut t = stm.register();
        for v in 0..10 {
            assert!(q.push_right(v, &mut t));
        }
        for v in 0..10 {
            assert_eq!(q.pop_left(&mut t), Some(v));
        }
        assert_eq!(q.pop_left(&mut t), None);
    }

    #[test]
    fn fifo_roundtrip_all_variants() {
        fifo_roundtrip::<OrecFullG>();
        fifo_roundtrip::<TvarShortG>();
        fifo_roundtrip::<ValShort>();
    }

    #[test]
    fn full_and_short_apis_interoperate() {
        let stm = TvarShortG::new();
        let q = TxDeque::new(&stm, 8);
        let mut t = stm.register();
        assert!(q.push_right_full(7, &mut t));
        assert!(q.push_right(8, &mut t));
        assert_eq!(q.pop_left(&mut t), Some(7));
        assert_eq!(q.pop_left_full(&mut t), Some(8));
        assert_eq!(q.pop_left_full(&mut t), None);
    }

    #[test]
    fn elements_are_conserved_under_concurrency() {
        let stm = Arc::new(ValShort::new());
        let q = Arc::new(TxDeque::new(&*stm, 1 << 12));
        const PRODUCERS: usize = 2;
        const CONSUMERS: usize = 2;
        const PER_PRODUCER: u64 = 1_000;

        let mut joins = Vec::new();
        let consumed = Arc::new(std::sync::atomic::AtomicU64::new(0));
        for p in 0..PRODUCERS {
            let stm = Arc::clone(&stm);
            let q = Arc::clone(&q);
            joins.push(std::thread::spawn(move || {
                let mut t = stm.register();
                for v in 0..PER_PRODUCER {
                    while !q.push_right(p as u64 * PER_PRODUCER + v, &mut t) {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for _ in 0..CONSUMERS {
            let stm = Arc::clone(&stm);
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            joins.push(std::thread::spawn(move || {
                let mut t = stm.register();
                let mut got = 0;
                let target = PRODUCERS as u64 * PER_PRODUCER / CONSUMERS as u64;
                while got < target {
                    if let Some(v) = q.pop_left(&mut t) {
                        // ORDERING: test oracle counter, read after join.
                        consumed.fetch_add(v + 1, std::sync::atomic::Ordering::Relaxed);
                        got += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let total: u64 =
            (0..(PRODUCERS as u64 * PER_PRODUCER)).sum::<u64>() + PRODUCERS as u64 * PER_PRODUCER;
        assert_eq!(
            // ORDERING: read after all consumers joined; join synchronizes.
            consumed.load(std::sync::atomic::Ordering::Relaxed),
            total,
            "every produced element must be consumed exactly once"
        );
        assert_eq!(q.quiescent_len(), 0);
    }
}
