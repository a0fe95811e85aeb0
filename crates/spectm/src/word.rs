//! The transactional word type and value-encoding helpers.
//!
//! SpecTM, like the paper's C implementation, manages memory at the
//! granularity of one machine word.  Values stored in transactional cells are
//! plain [`Word`]s; data structures store either pointers (converted with
//! `as usize`) or small integers.
//!
//! The `val` layout (Section 2.4 of the paper) reserves **bit 0** of every
//! data word for the STM's lock bit, so values stored in [`crate::ValCell`]s
//! must keep bit 0 clear.  Pointers to 2-byte-or-better aligned data satisfy
//! this naturally; integers must be encoded with [`encode_int`] /
//! [`decode_int`], which shift them into the 63 spare bits.
//!
//! Data structures additionally use **bit 1** as a logical-deletion mark on
//! pointers (the skip list's "deleted" bit), via [`mark`] / [`unmark`] /
//! [`is_marked`].  Bit 1 is used instead of the customary bit 0 precisely so
//! that marked pointers remain legal `val`-layout values.
//!
//! # Value words
//!
//! Byte-addressed stores (the `spectm-kv` crate and the lock-free KV
//! baseline) keep every transactional access word-sized by storing each
//! value as a single **value word** in one of three forms, distinguished by
//! the two bits a word-aligned pointer always leaves clear:
//!
//! * **inline bytes** (bit 1 set) — payloads up to [`MAX_INLINE_BYTES`]
//!   bytes, packed into the word itself with a 3-bit length field
//!   ([`encode_inline`] / [`decode_inline`]);
//! * **inline integer** (bit 2 set) — payloads of exactly one word whose
//!   little-endian integer fits in [`INLINE_INT_BITS`] bits, so word-sized
//!   counters stay allocation-free;
//! * **out-of-line pointer** (bits 1 and 2 clear) — a pointer to an
//!   immutable, length-prefixed heap cell holding the bytes.
//!
//! The mark bit and the inline tag share bit 1 without conflict because a
//! cell never holds both roles: *link* words hold (possibly marked) node
//! pointers, *value* words hold encoded values.  Every form keeps bit 0
//! clear, so value words are legal `val`-layout data.

/// A transactional machine word.
pub type Word = usize;

/// Number of value bits available to the application in the `val` layout
/// (one bit of the word is reserved for the STM lock bit).
pub const VAL_SPARE_BITS: u32 = Word::BITS - 1;

/// Bit reserved by the *data structures* (not the STM) as a logical deletion
/// mark on stored pointers.
pub const MARK_BIT: Word = 0b10;

/// Encodes a small integer as a transactional value with bit 0 clear.
///
/// # Panics
///
/// Panics in debug builds if `v` does not fit in [`VAL_SPARE_BITS`] bits.
///
/// # Examples
///
/// ```
/// let w = spectm::encode_int(1234);
/// assert_eq!(spectm::decode_int(w), 1234);
/// assert_eq!(w & 1, 0);
/// ```
#[inline]
pub const fn encode_int(v: usize) -> Word {
    debug_assert!(v < (1 << VAL_SPARE_BITS));
    v << 1
}

/// Decodes an integer previously encoded with [`encode_int`].
#[inline]
pub const fn decode_int(w: Word) -> usize {
    w >> 1
}

/// Sets the logical-deletion mark on a stored pointer value.
///
/// # Examples
///
/// ```
/// let p = 0x1000_usize;
/// assert!(spectm::is_marked(spectm::mark(p)));
/// assert_eq!(spectm::unmark(spectm::mark(p)), p);
/// ```
#[inline]
pub const fn mark(w: Word) -> Word {
    w | MARK_BIT
}

/// Clears the logical-deletion mark from a stored pointer value.
#[inline]
pub const fn unmark(w: Word) -> Word {
    w & !MARK_BIT
}

/// Returns whether the logical-deletion mark is set.
#[inline]
pub const fn is_marked(w: Word) -> bool {
    w & MARK_BIT != 0
}

/// Tag bit marking a value word as *inline bytes* (see the module docs).
pub const INLINE_BYTES_BIT: Word = 0b010;

/// Tag bit marking a value word as an *inline integer*.
pub const INLINE_INT_BIT: Word = 0b100;

/// Longest payload storable as inline bytes: one byte of the word carries
/// the tag and length, the rest carry the payload.
pub const MAX_INLINE_BYTES: usize = std::mem::size_of::<Word>() - 1;

/// Number of payload bits of an inline integer (bits 0..3 hold the tag).
pub const INLINE_INT_BITS: u32 = Word::BITS - 3;

// The value-word layout, asserted where it is defined (the compiler is its
// one checker): every tag leaves bit 0 (the `val` layout's lock bit)
// clear, the two inline tags are distinguishable, all tag bits fit in the
// low byte that out-of-line `ValueCell` pointers keep clear through their
// alignment, and the inline forms' length and payload fields fit beside
// the tags.  `spectm-kv` asserts its node and cell alignments against
// these tags.
const _: () = {
    assert!(MARK_BIT & 1 == 0, "MARK_BIT must leave the lock bit clear");
    assert!(
        INLINE_BYTES_BIT & 1 == 0,
        "inline-bytes tag overlaps lock bit"
    );
    assert!(INLINE_INT_BIT & 1 == 0, "inline-int tag overlaps lock bit");
    assert!(
        INLINE_BYTES_BIT & INLINE_INT_BIT == 0,
        "inline tags must be distinguishable"
    );
    // Each tag (and the lock bit) sits below the out-of-line cell's
    // 8-byte alignment, so a cell pointer's low bits never carry payload.
    assert!(
        INLINE_BYTES_BIT < 8 && INLINE_INT_BIT < 8,
        "tags must fit below the alignment of out-of-line cells"
    );
    assert!(
        MAX_INLINE_BYTES < 8,
        "MAX_INLINE_BYTES must fit the 3-bit length field"
    );
    assert!(
        INLINE_INT_BITS == Word::BITS - 3,
        "an inline integer must leave exactly 3 tag bits"
    );
};

/// Packs `bytes` into a single value word, if they fit: payloads up to
/// [`MAX_INLINE_BYTES`] bytes always do, and payloads of exactly one word
/// do when their little-endian integer fits in [`INLINE_INT_BITS`] bits.
/// Returns `None` for everything else (store the bytes out of line and the
/// pointer in the word instead).
///
/// # Examples
///
/// ```
/// let w = spectm::encode_inline(b"abc").unwrap();
/// let (buf, len) = spectm::decode_inline(w);
/// assert_eq!(&buf[..len], b"abc");
/// assert_eq!(w & 1, 0); // bit 0 stays clear for the val layout
/// ```
#[inline]
pub fn encode_inline(bytes: &[u8]) -> Option<Word> {
    let len = bytes.len();
    if len <= MAX_INLINE_BYTES {
        let mut payload: Word = 0;
        for (i, &b) in bytes.iter().enumerate() {
            payload |= (b as Word) << (8 * i);
        }
        return Some((payload << 8) | ((len as Word) << 3) | INLINE_BYTES_BIT);
    }
    if len == std::mem::size_of::<Word>() {
        let mut buf = [0u8; std::mem::size_of::<Word>()];
        buf.copy_from_slice(bytes);
        let v = Word::from_le_bytes(buf);
        if v >> INLINE_INT_BITS == 0 {
            return Some((v << 3) | INLINE_INT_BIT);
        }
    }
    None
}

/// Returns whether a value word holds its payload inline (either inline
/// form) rather than an out-of-line pointer.
#[inline]
pub const fn is_inline_value(w: Word) -> bool {
    w & (INLINE_BYTES_BIT | INLINE_INT_BIT) != 0
}

/// Unpacks an inline value word produced by [`encode_inline`], returning the
/// payload buffer and its length (allocation-free; the payload is the first
/// `len` bytes of the buffer).
#[inline]
pub fn decode_inline(w: Word) -> ([u8; std::mem::size_of::<Word>()], usize) {
    debug_assert!(is_inline_value(w));
    if w & INLINE_BYTES_BIT != 0 {
        ((w >> 8).to_le_bytes(), (w >> 3) & 0b111)
    } else {
        ((w >> 3).to_le_bytes(), std::mem::size_of::<Word>())
    }
}

/// Converts a reference to a word-sized address, used as a hash key when
/// locating ownership records.
#[inline]
pub(crate) fn addr_of<T>(r: &T) -> usize {
    r as *const T as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrip() {
        for v in [0usize, 1, 42, 65_535, (1 << 62) - 1] {
            assert_eq!(decode_int(encode_int(v)), v);
            assert_eq!(encode_int(v) & 0b01, 0);
        }
    }

    #[test]
    fn mark_roundtrip() {
        let p = 0xdead_bee0_usize;
        assert!(!is_marked(p));
        let m = mark(p);
        assert!(is_marked(m));
        assert_eq!(unmark(m), p);
        // Marking must not disturb the val-layout lock bit.
        assert_eq!(m & 0b01, 0);
    }

    #[test]
    fn mark_is_idempotent() {
        let p = 0x40_usize;
        assert_eq!(mark(mark(p)), mark(p));
        assert_eq!(unmark(unmark(mark(p))), p);
    }

    #[test]
    fn inline_bytes_roundtrip() {
        for len in 0..=MAX_INLINE_BYTES {
            let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37) ^ 0xA5).collect();
            let w = encode_inline(&bytes).expect("short payloads are inline");
            assert!(is_inline_value(w));
            assert_eq!(w & 0b001, 0, "val-layout lock bit must stay clear");
            let (buf, n) = decode_inline(w);
            assert_eq!(&buf[..n], &bytes[..]);
        }
    }

    #[test]
    fn inline_int_roundtrip() {
        for v in [0 as Word, 1, 0xDEAD_BEEF, (1 << INLINE_INT_BITS) - 1] {
            let bytes = v.to_le_bytes();
            let w = encode_inline(&bytes).expect("small word-sized ints are inline");
            assert!(is_inline_value(w));
            assert_eq!(w & 0b001, 0);
            let (buf, n) = decode_inline(w);
            assert_eq!(n, std::mem::size_of::<Word>());
            assert_eq!(buf, bytes);
        }
    }

    #[test]
    fn oversized_payloads_are_not_inline() {
        // One word with the top tag bits set cannot be packed.
        assert_eq!(encode_inline(&Word::MAX.to_le_bytes()), None);
        // Anything longer than a word cannot either.
        assert_eq!(encode_inline(&[0u8; std::mem::size_of::<Word>() + 1]), None);
    }

    #[test]
    fn inline_forms_are_injective() {
        // Distinct payloads must encode to distinct words, across both forms.
        let mut seen = std::collections::BTreeSet::new();
        assert!(seen.insert(encode_inline(&[]).unwrap()));
        for len in 1..=MAX_INLINE_BYTES {
            for fill in [0x00u8, 0x01, 0xFF] {
                assert!(seen.insert(encode_inline(&vec![fill; len]).unwrap()));
            }
        }
        assert!(seen.insert(encode_inline(&(0 as Word).to_le_bytes()).unwrap()));
        assert!(seen.insert(encode_inline(&(1 as Word).to_le_bytes()).unwrap()));
    }

    #[test]
    fn addresses_are_word_aligned() {
        let x = 0u64;
        assert_eq!(addr_of(&x) % std::mem::align_of::<u64>(), 0);
    }
}
