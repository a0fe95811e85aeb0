//! The variable-size value representation: inline words and epoch-reclaimed
//! out-of-line cells.
//!
//! The SpecTM transactions the store is built on touch only machine words,
//! so a byte value is stored as a single **value word** (the encoding lives
//! in [`spectm::word`]): payloads up to [`spectm::MAX_INLINE_BYTES`] bytes —
//! and word-sized little-endian integers below 2^[`spectm::INLINE_INT_BITS`]
//! — are packed into the word itself, everything else goes into a
//! [`ValueCell`], an immutable length-prefixed heap allocation whose pointer
//! is the word.  This is the indirection scheme production caches use
//! (Pelikan's seg storage keeps items out of line behind compact hash-table
//! references) grafted onto the paper's word-granularity STM.
//!
//! Because readers copy bytes out of a cell under nothing but an epoch pin,
//! a cell must never be freed eagerly: the overwriting or deleting
//! transaction *owns* the word it displaced and hands it to the epoch
//! collector, exactly like a retired entry.  Two small types make that
//! contract explicit, mirroring the [`spectm_ds::TowerSlot`] /
//! [`spectm_ds::RetiredTower`] pair that makes and retires entries:
//!
//! * `ValueSlot` keeps a speculative allocation alive across the conflict
//!   retries of an enclosing transaction (allocate at most once per logical
//!   write; free automatically if the value was never published);
//! * `RetiredValue` carries a displaced value word out of a committed
//!   transaction so the caller can read the old bytes and defer the free
//!   through `txepoch`.
//!
//! [`Value`] is the owned buffer reads return; payloads up to 16 bytes are
//! stored inline so the hot read path of word-sized values never allocates.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::sync::atomic::{AtomicUsize, Ordering};

use spectm::{decode_inline, encode_inline, is_inline_value, Word};
use txepoch::Guard;

/// Largest value the store accepts, in bytes (memcached's classic default
/// item-size ceiling).  [`crate::KvError::ValueTooLarge`] reports attempts
/// to exceed it.
pub const MAX_VALUE_LEN: usize = 1 << 20;

/// Process-wide count of live out-of-line cells (see
/// [`ValueCell::live_count`]).
static LIVE_CELLS: AtomicUsize = AtomicUsize::new(0);

/// An immutable, length-prefixed heap allocation holding one out-of-line
/// value: a `len` header followed by `len` payload bytes in the same
/// allocation.  Cells are created by writes, shared immutably with readers,
/// and freed through the epoch collector by whichever transaction displaces
/// their word.
#[repr(C)]
pub struct ValueCell {
    len: usize,
    // `len` payload bytes follow the header in the same allocation.
}

// A cell pointer is stored directly in a transactional value word, so its
// alignment must clear the lock bit and both inline tags (bits 0..3).
const _: () = {
    assert!(
        std::mem::align_of::<ValueCell>() as spectm::Word
            > (spectm::INLINE_BYTES_BIT | spectm::INLINE_INT_BIT | 1),
        "ValueCell pointers would collide with the value-word tag bits"
    );
};

impl ValueCell {
    fn layout(len: usize) -> Layout {
        Layout::from_size_align(
            std::mem::size_of::<usize>() + len,
            std::mem::align_of::<usize>(),
        )
        .expect("value length was range-checked")
    }

    /// Allocates a cell holding a copy of `bytes`, returning its pointer
    /// (word-aligned, so bits 0..3 are clear and the pointer is a legal
    /// value word).
    pub(crate) fn alloc(bytes: &[u8]) -> *mut ValueCell {
        let layout = Self::layout(bytes.len());
        // SAFETY: the layout has non-zero size (the header alone is a word).
        let ptr = unsafe { alloc(layout) } as *mut ValueCell;
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        // SAFETY: `ptr` is a fresh allocation of `layout`, private to this
        // thread; the payload region is `bytes.len()` bytes past the header.
        unsafe {
            (*ptr).len = bytes.len();
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                (ptr as *mut u8).add(std::mem::size_of::<usize>()),
                bytes.len(),
            );
        }
        // ORDERING: diagnostic drop-counter; the reclamation tests read it
        // only at quiescent points (stores dropped, collectors drained).
        LIVE_CELLS.fetch_add(1, Ordering::Relaxed);
        ptr
    }

    /// Frees a cell allocated by [`ValueCell::alloc`].
    ///
    /// # Safety
    ///
    /// `ptr` must come from [`ValueCell::alloc`], must not be used again,
    /// and must be unreachable for every thread (exclusively owned, or past
    /// its epoch grace period).
    pub(crate) unsafe fn free(ptr: *mut ValueCell) {
        // SAFETY: per the contract, `ptr` is a live cell we own exclusively;
        // the header still holds the allocation's length.
        let layout = Self::layout(unsafe { (*ptr).len });
        // ORDERING: diagnostic drop-counter (see `alloc`).
        LIVE_CELLS.fetch_sub(1, Ordering::Relaxed);
        // SAFETY: same allocation, same layout.
        unsafe { dealloc(ptr as *mut u8, layout) };
    }

    /// The payload bytes of a live cell.
    ///
    /// # Safety
    ///
    /// `ptr` must be a live cell, and must stay live for `'a` (hold an epoch
    /// pin predating its retirement, or own it exclusively).
    pub(crate) unsafe fn bytes<'a>(ptr: *const ValueCell) -> &'a [u8] {
        // SAFETY: per the contract the cell is live; the payload follows the
        // header and is immutable after publication.
        unsafe {
            std::slice::from_raw_parts(
                (ptr as *const u8).add(std::mem::size_of::<usize>()),
                (*ptr).len,
            )
        }
    }

    /// Number of out-of-line cells currently alive in the process — the
    /// drop-counter the reclamation regression tests assert on: churn must
    /// return this to its baseline once stores are dropped and epochs have
    /// drained.
    pub fn live_count() -> usize {
        // ORDERING: SeqCst so the count observed at a test's quiescent
        // point includes every preceding alloc/free on any thread.
        LIVE_CELLS.load(Ordering::SeqCst)
    }
}

/// Encodes `bytes` as a value word: inline when it fits, otherwise a fresh
/// [`ValueCell`].  The caller owns the word until it is published (see
/// `ValueSlot`).
#[inline]
pub fn encode_value(bytes: &[u8]) -> Word {
    debug_assert!(bytes.len() <= MAX_VALUE_LEN);
    encode_inline(bytes).unwrap_or_else(|| ValueCell::alloc(bytes) as Word)
}

/// Copies the payload of a value word into an owned [`Value`].
///
/// # Safety
///
/// If the word is out of line its cell must be live for the duration of the
/// call: hold an epoch pin acquired before the cell could have been retired,
/// or own the word exclusively (e.g. after displacing it in a committed
/// transaction).
#[inline]
pub unsafe fn decode_value(word: Word) -> Value {
    if is_inline_value(word) {
        decode_inline_value(word)
    } else {
        // SAFETY: forwarded contract.
        Value::new(unsafe { ValueCell::bytes(word as *const ValueCell) })
    }
}

/// Copies the payload of an inline value word into an owned [`Value`].
#[inline]
fn decode_inline_value(word: Word) -> Value {
    let (src, len) = decode_inline(word);
    // Fixed-size copy of the whole word buffer: the bytes past `len` are
    // zero by construction of the inline encodings, and `Value` only ever
    // exposes the first `len` bytes.  A dynamic-length copy here would cost
    // a memcpy call on the hottest read path.
    let mut buf = [0u8; VALUE_INLINE_CAP];
    buf[..std::mem::size_of::<Word>()].copy_from_slice(&src);
    Value(Repr::Inline {
        len: len as u8,
        buf,
    })
}

/// Hints the CPU to pull the first two cache lines of the cell behind
/// `word` into cache (no-op for inline words), so that a later
/// [`decode_value`] of it overlaps whatever runs in between — a scan
/// prefetches each entry's cell as it reads the word and copies the values
/// out after its walk.  Purely advisory: any word is accepted.
#[inline]
pub(crate) fn prefetch_value(word: Word) {
    if !is_inline_value(word) {
        let cell = word as *const u8;
        spectm::prefetch(cell);
        spectm::prefetch(cell.wrapping_add(64));
    }
}

/// Type-erased cell destructor for the epoch collector.
///
/// # Safety
///
/// `ptr` must be a [`ValueCell`] pointer satisfying [`ValueCell::free`]'s
/// contract.
unsafe fn free_cell_erased(ptr: *mut u8) {
    // SAFETY: forwarded contract.
    unsafe { ValueCell::free(ptr as *mut ValueCell) };
}

/// Immediately frees the cell behind `word` (no-op for inline words).
///
/// # Safety
///
/// The word must be exclusively owned and unreachable: a speculative value
/// that was never published, or one whose readers are provably gone (e.g.
/// during a store's `Drop`).
#[inline]
pub unsafe fn free_value(word: Word) {
    if !is_inline_value(word) {
        // SAFETY: forwarded contract.
        unsafe { ValueCell::free(word as *mut ValueCell) };
    }
}

/// Defers the free of the cell behind `word` through the epoch collector
/// (no-op for inline words).
///
/// # Safety
///
/// The caller must own `word` (its committed transaction displaced it from
/// the only reachable location), so that threads pinning after this call can
/// no longer reach it.
#[inline]
pub unsafe fn retire_value(word: Word, guard: &Guard) {
    if !is_inline_value(word) {
        // SAFETY: forwarded contract; `free_cell_erased` matches the
        // allocation.
        unsafe { guard.defer_unchecked(word as *mut u8, free_cell_erased) };
    }
}

// ---------------------------------------------------------------------------
// Value: the owned buffer reads return
// ---------------------------------------------------------------------------

/// Payloads at most this long are stored inline in a [`Value`] (no heap
/// allocation on the read path).
const VALUE_INLINE_CAP: usize = 16;

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        buf: [u8; VALUE_INLINE_CAP],
    },
    Heap(Box<[u8]>),
}

/// An owned byte value returned by reads.
///
/// Behaves like a `Box<[u8]>` (deref to `[u8]`, comparisons by content) but
/// keeps payloads up to 16 bytes inline, so reading word-sized values never
/// allocates.
///
/// # Examples
///
/// ```
/// use spectm_kv::Value;
///
/// let v = Value::new(b"hello");
/// assert_eq!(&*v, b"hello");
/// assert_eq!(Value::from_u64(7).as_u64(), 7);
/// ```
#[derive(Clone)]
pub struct Value(Repr);

impl Value {
    /// Copies `bytes` into an owned value.
    #[inline]
    pub fn new(bytes: &[u8]) -> Self {
        if bytes.len() <= VALUE_INLINE_CAP {
            let mut buf = [0u8; VALUE_INLINE_CAP];
            buf[..bytes.len()].copy_from_slice(bytes);
            Value(Repr::Inline {
                len: bytes.len() as u8,
                buf,
            })
        } else {
            Value(Repr::Heap(bytes.into()))
        }
    }

    /// An eight-byte little-endian value holding `v` — the conventional
    /// encoding for counters (see [`crate::ShardedKv::rmw_add`]).
    #[inline]
    pub fn from_u64(v: u64) -> Self {
        Self::new(&v.to_le_bytes())
    }

    /// Interprets the first eight bytes (zero-padded if shorter) as a
    /// little-endian integer — the inverse of [`Value::from_u64`].
    #[inline]
    pub fn as_u64(&self) -> u64 {
        let bytes = self.as_slice();
        let mut buf = [0u8; 8];
        let n = bytes.len().min(8);
        buf[..n].copy_from_slice(&bytes[..n]);
        u64::from_le_bytes(buf)
    }

    /// The payload bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(b) => b,
        }
    }

    /// Payload length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(b) => b.len(),
        }
    }

    /// Whether the payload is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::ops::Deref for Value {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Value {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<&[u8]> for Value {
    fn from(bytes: &[u8]) -> Self {
        Value::new(bytes)
    }
}

impl From<Vec<u8>> for Value {
    fn from(bytes: Vec<u8>) -> Self {
        Value::new(&bytes)
    }
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Value({} bytes: {:02x?})", self.len(), self.as_slice())
    }
}

// ---------------------------------------------------------------------------
// ValueSlot / RetiredValue: the transactional allocation contracts
// ---------------------------------------------------------------------------

/// Reusable value-word slot for transactional writes.
///
/// A transaction's body may run several times (once per conflict retry); the
/// slot keeps a speculative out-of-line allocation alive across retries so
/// each logical write allocates at most once.  After the enclosing
/// transaction **commits** an attempt that stored the slot's word, call
/// [`ValueSlot::mark_published`]; otherwise dropping the slot frees the
/// never-published cell.  The [`spectm_ds::TowerSlot`] contract, for values.
pub(crate) struct ValueSlot {
    word: Word,
}

impl ValueSlot {
    /// Creates an empty slot.
    pub(crate) fn new() -> Self {
        Self { word: 0 }
    }

    /// Encodes `bytes` on the first call and returns the cached word on
    /// every later one — for retry loops that re-write the *same* payload.
    #[inline]
    pub(crate) fn encode_once(&mut self, bytes: &[u8]) -> Word {
        if self.word == 0 {
            self.word = encode_value(bytes);
        }
        self.word
    }

    /// Encodes `bytes` for a retry loop whose payload may differ between
    /// attempts (e.g. read-modify-write).  An unpublished cell from a
    /// previous attempt is reused when it already holds exactly `bytes`
    /// (constant-payload retries thus still allocate only once, keeping the
    /// one-allocation-per-logical-write contract) and freed otherwise.
    #[inline]
    pub(crate) fn encode(&mut self, bytes: &[u8]) -> Word {
        if self.word != 0 && !spectm::is_inline_value(self.word) {
            // SAFETY: the slot's word is unpublished by the slot invariant
            // (a published word is cleared by `mark_published`), so this
            // thread owns the cell exclusively.
            if unsafe { ValueCell::bytes(self.word as *const ValueCell) } == bytes {
                return self.word;
            }
            // SAFETY: as above; the stale payload is never used again.
            unsafe { free_value(self.word) };
        }
        // An inline previous word holds no resource; just overwrite it.
        self.word = encode_value(bytes);
        self.word
    }

    /// Declares the slot's word published: a transaction that stored it has
    /// committed, so the map now owns the allocation.
    #[inline]
    pub(crate) fn mark_published(&mut self) {
        self.word = 0;
    }
}

impl Default for ValueSlot {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ValueSlot {
    fn drop(&mut self) {
        if self.word != 0 {
            // SAFETY: per the contract above, a non-empty slot at drop time
            // means the word was never published.
            unsafe { free_value(self.word) };
        }
    }
}

/// A value word displaced by a committed transaction (an overwrite's old
/// value, or a delete's captured value), awaiting epoch retirement.
///
/// After the enclosing transaction **commits**, the caller owns the word
/// exclusively: read the old payload with [`RetiredValue::value`], then
/// hand the cell to the epoch collector with
/// [`RetiredValue::retire_under`].  If the transaction aborted or was
/// retried, simply drop the carrier (the word was never displaced; dropping
/// does nothing).  The [`spectm_ds::RetiredTower`] contract, for values.
#[must_use = "call retire_under() after the transaction commits"]
pub(crate) struct RetiredValue {
    word: Word,
}

impl RetiredValue {
    #[inline]
    pub(crate) fn new(word: Word) -> Self {
        Self { word }
    }

    /// The payload of the displaced cell, or `None` for an inline word.
    /// Only call after the displacing transaction committed.
    #[inline]
    fn cell_bytes(&self) -> Option<&[u8]> {
        (!is_inline_value(self.word)).then(|| {
            // SAFETY: per the contract, the committed transaction made this
            // thread the exclusive owner of the word; the cell stays live
            // while `self` is borrowed, because only the retirements, which
            // consume `self`, release it.
            unsafe { ValueCell::bytes(self.word as *const ValueCell) }
        })
    }

    /// Copies out the bytes the displaced word held.  Only call after the
    /// displacing transaction committed (the same ownership contract as
    /// [`RetiredValue::retire_under`]).
    #[inline]
    pub(crate) fn value(&self) -> Value {
        match self.cell_bytes() {
            Some(bytes) => Value::new(bytes),
            None => decode_inline_value(self.word),
        }
    }

    /// The length of the payload the displaced word held, read without
    /// copying it — all the byte account needs of a value nobody reads.
    /// Only call after the displacing transaction committed.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self.cell_bytes() {
            Some(bytes) => bytes.len(),
            None => decode_inline(self.word).1,
        }
    }

    /// [`RetiredValue::value`] then the retirement, under a pin the caller
    /// already holds — the owner's whole duty towards a displaced word it
    /// returns.  A path that only books the bytes reads
    /// [`RetiredValue::len`] and calls [`RetiredValue::retire_under`]
    /// instead.  Only call after the displacing transaction committed.
    #[inline]
    pub(crate) fn take(self, guard: &Guard) -> Value {
        let out = self.value();
        self.retire_under(guard);
        out
    }

    /// Defers the free of the displaced cell through the epoch collector
    /// (no-op for inline words), under a pin the caller already holds.  Only
    /// call after the displacing transaction committed.
    #[inline]
    pub(crate) fn retire_under(self, guard: &Guard) {
        // SAFETY: per the contract, the committed transaction displaced the
        // word from its only reachable location; pinned readers are
        // protected by the epoch.
        unsafe { retire_value(self.word, guard) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectm::MAX_INLINE_BYTES;

    #[test]
    fn value_roundtrips_across_reprs() {
        for len in [0usize, 1, 7, 8, 15, 16, 17, 100, 4096] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let v = Value::new(&bytes);
            assert_eq!(&*v, &bytes[..]);
            assert_eq!(v.len(), len);
            assert_eq!(v.is_empty(), len == 0);
            assert_eq!(v.clone(), v);
        }
    }

    #[test]
    fn value_u64_roundtrip() {
        for x in [0u64, 1, u64::MAX, 0x0123_4567_89AB_CDEF] {
            let v = Value::from_u64(x);
            assert_eq!(v.len(), 8);
            assert_eq!(v.as_u64(), x);
        }
        // Shorter payloads zero-pad.
        assert_eq!(Value::new(&[0x0A]).as_u64(), 0x0A);
    }

    #[test]
    fn encode_decode_inline_and_cell() {
        let small = encode_value(b"abc");
        assert!(is_inline_value(small));
        // SAFETY: inline words need no cell.
        assert_eq!(&*unsafe { decode_value(small) }, b"abc");

        let big = vec![0xCDu8; 100];
        let word = encode_value(&big);
        assert!(!is_inline_value(word));
        // SAFETY: the cell is exclusively owned by this test.
        assert_eq!(&*unsafe { decode_value(word) }, &big[..]);
        // SAFETY: as above, and never used again.
        unsafe { free_value(word) };
    }

    #[test]
    fn slot_caches_and_republishes() {
        // Cell-count behaviour (frees, leaks) is asserted in the
        // `value_reclamation` integration suite, where the process-wide
        // drop-counter is not shared with concurrently running tests.
        let payload = vec![7u8; 64];
        let other = vec![8u8; 80];
        let mut slot = ValueSlot::new();
        let w1 = slot.encode_once(&payload);
        assert_eq!(slot.encode_once(&other), w1, "encode_once caches");
        let w2 = slot.encode(&other);
        assert_eq!(
            // SAFETY: the slot's word is unpublished and exclusively owned.
            &*unsafe { decode_value(w2) },
            &other[..],
            "encode re-encodes the new payload"
        );
        assert_eq!(
            slot.encode(&other),
            w2,
            "a constant payload reuses the unpublished cell across retries"
        );
    }

    #[test]
    fn retired_value_reads_and_defers() {
        let collector = txepoch::Collector::new();
        let handle = collector.register();
        for len in [0, 3, MAX_INLINE_BYTES, MAX_INLINE_BYTES + 50] {
            let payload = vec![9u8; len];
            let retired = RetiredValue::new(encode_value(&payload));
            assert_eq!(&*retired.value(), &payload[..]);
            assert_eq!(retired.len(), len);
            retired.retire_under(&handle.pin());
        }
    }
}
