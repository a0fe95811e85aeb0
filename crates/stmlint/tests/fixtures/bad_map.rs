// Fixture: the hash tag in bits 1..=5 of the item word while Node keeps its
// natural 8-byte alignment, so the tag overlaps node address bits.  Never
// compiled.

pub const BUCKET_SLOTS: usize = 7;
const ADDRESS_BITS: u32 = 48;
const TAG_MASK: Word = 0x3E;
const ITEM_PTR_MASK: Word = !(TAG_MASK | 1);
const FREQ_MASK: Word = 0x1FE;
const CHAIN_PTR_MASK: Word = !(FREQ_MASK | 1);

struct Node<S: Stm> {
    key: u64,
}

#[repr(align(64))]
struct Bucket<S: Stm> {
    item: [S::Cell; BUCKET_SLOTS],
}

#[repr(align(512))]
struct OverflowBucket<S: Stm> {
    bucket: Bucket<S>,
}
