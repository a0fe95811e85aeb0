// Fixture: a minimal clean mirror of spectm-kv::map's bucket constants,
// used as the [layout] map file in corpus end-to-end runs.  Never compiled.

pub const BUCKET_SLOTS: usize = 7;
const ADDRESS_BITS: u32 = 48;
const TAG_MASK: Word = !0 << ADDRESS_BITS;
const ITEM_PTR_MASK: Word = !(TAG_MASK | 1);
const FREQ_MASK: Word = 0x1FE;
const FREQ_SHIFT: u32 = 1;
const FREQ_MAX: Word = 0xFF;
const CHAIN_PTR_MASK: Word = !(FREQ_MASK | 1);
pub(crate) const DEADLINE_SHIFT: u32 = 1;

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
