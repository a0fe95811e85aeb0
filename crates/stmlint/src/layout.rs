//! The `bit-layout` rule: cross-checks the tag/mask/alignment constants of
//! `spectm::word` and `spectm-kv::map`.
//!
//! The value-word encoding (word.rs) and the bucket stat word (map.rs) pack
//! tags into bits that pointer alignment leaves clear; the bucket item word
//! packs its hash tag above the address bits instead, where the node's
//! alignment only has to clear the lock bit.  The constants live in two
//! crates and the alignment lives in `#[repr(align)]` attributes (or in a
//! struct's natural alignment) in a third place; nothing ties them together
//! at the type level, so an edit to any one of them can silently break the
//! others.
//! This rule parses all of them out of the source and re-derives the
//! invariants; the same facts are mirrored as `const _: () = assert!(...)`
//! guards next to the definitions, so both the compiler and the lint hold a
//! copy.  The lint's copy additionally covers the *cross-file* facts the
//! in-crate asserts cannot see (map tags vs. the spectm value-word tags).
//!
//! The evaluator handles the expression forms those constant definitions
//! actually use: integer literals (any radix, `_` separators, type
//! suffixes), references to previously defined constants, unary `!`/`-`,
//! the binary operators `| & ^ << >> + - *` with Rust precedence,
//! parentheses, `size_of::<T>()` (words only) and `<int type>::BITS`.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{tokenize, Token, TokenKind};
use crate::Finding;

const WORD_BYTES: u64 = 8;
const WORD_BITS: u64 = 64;

/// Constants, struct names and `#[repr(align(N))]` / `#[repr(packed)]`
/// values parsed from one file.
#[derive(Debug, Default)]
pub struct ParsedLayout {
    pub consts: BTreeMap<String, u64>,
    pub aligns: BTreeMap<String, u64>,
    /// `#[repr(packed)]` (1) and `#[repr(packed(N))]` structs: alignment
    /// capped at N, below even the fields' natural alignment.
    packed: BTreeMap<String, u64>,
    structs: BTreeSet<String>,
}

impl ParsedLayout {
    /// The alignment of struct `name`, whose largest field is one word:
    /// its `packed` cap, else the larger of its `align` and a word.
    fn word_struct_align(&self, name: &str) -> u64 {
        match self.packed.get(name) {
            Some(&n) => n,
            None => self
                .aligns
                .get(name)
                .map_or(WORD_BYTES, |&n| n.max(WORD_BYTES)),
        }
    }
}

/// Parses every `const NAME: <int type> = <expr>;`, every `struct NAME` and
/// the `#[repr(align(N))]` / `#[repr(packed)]` attribute before it in
/// `src`.  Constants whose expressions use unsupported forms are skipped
/// rather than failing the parse: the rule only needs the handful of layout
/// constants, and it reports loudly if one of *those* is missing.
pub fn parse_layout(src: &str) -> ParsedLayout {
    let toks: Vec<Token> = tokenize(src)
        .into_iter()
        .filter(|t| !t.is_comment())
        .collect();
    let mut out = ParsedLayout::default();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "struct" && i + 1 < toks.len() {
            out.structs.insert(toks[i + 1].text.to_string());
        }
        // #[repr(align(N))] or #[repr(packed)] / #[repr(packed(N))], then
        // (pub)? struct NAME
        if toks[i].text == "repr" && i + 3 < toks.len() && toks[i + 1].text == "(" {
            let n = toks.get(i + 4).and_then(int_literal);
            let attr = match (toks[i + 2].text, toks[i + 3].text) {
                ("align", "(") => n.map(|n| (&mut out.aligns, n)),
                ("packed", "(") => n.map(|n| (&mut out.packed, n)),
                ("packed", _) => Some((&mut out.packed, 1)),
                _ => None,
            };
            if let Some((map, n)) = attr {
                // Find the following `struct NAME`.
                let mut j = i + 3;
                while j < toks.len() && toks[j].text != "struct" && toks[j].text != "const" {
                    j += 1;
                }
                if j + 1 < toks.len() && toks[j].text == "struct" {
                    map.insert(toks[j + 1].text.to_string(), n);
                }
            }
        }
        // const NAME : <simple type> = expr ;  — `const fn`s are not items
        // of interest, and a type containing braces/parens (or a missing
        // `=`) abandons the item rather than scanning into unrelated code.
        if toks[i].text == "const"
            && i + 2 < toks.len()
            && toks[i + 1].kind == TokenKind::Ident
            && toks[i + 1].text != "fn"
            && toks[i + 2].text == ":"
        {
            let name = toks[i + 1].text;
            let mut j = i + 3;
            while j < toks.len() && !matches!(toks[j].text, "=" | ";" | "{" | "}" | "(" | ")") {
                j += 1;
            }
            if j < toks.len() && toks[j].text == "=" {
                let start = j + 1;
                let mut end = start;
                while end < toks.len() && toks[end].text != ";" {
                    end += 1;
                }
                let mut p = Parser {
                    toks: &toks[start..end],
                    pos: 0,
                    env: &out.consts,
                };
                if let Some(v) = p.expr(0) {
                    if p.pos == p.toks.len() {
                        out.consts.insert(name.to_string(), v);
                    }
                }
                i = end;
                continue;
            }
        }
        i += 1;
    }
    out
}

fn int_literal(t: &Token) -> Option<u64> {
    if t.kind != TokenKind::Literal {
        return None;
    }
    let s: String = t.text.chars().filter(|c| *c != '_').collect();
    let s = s
        .trim_end_matches("usize")
        .trim_end_matches("u64")
        .trim_end_matches("u32")
        .trim_end_matches("u8");
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else if let Some(bin) = s.strip_prefix("0b") {
        u64::from_str_radix(bin, 2).ok()
    } else if let Some(oct) = s.strip_prefix("0o") {
        u64::from_str_radix(oct, 8).ok()
    } else {
        s.parse().ok()
    }
}

/// Pratt parser over the token slice of one constant expression.  All
/// arithmetic is wrapping `u64` (the constants are bit masks of `usize`
/// width; the target is 64-bit, which the mirrored in-code asserts verify).
struct Parser<'a, 'b> {
    toks: &'a [Token<'b>],
    pos: usize,
    env: &'a BTreeMap<String, u64>,
}

impl<'b> Parser<'_, 'b> {
    fn peek(&self) -> &'b str {
        self.toks.get(self.pos).map(|t| t.text).unwrap_or("")
    }

    fn bump(&mut self) -> &'b str {
        let t = self.peek();
        self.pos += 1;
        t
    }

    /// Binding powers (higher binds tighter), Rust precedence.
    fn bp(op: &str) -> Option<u8> {
        Some(match op {
            "*" => 70,
            "+" | "-" => 60,
            "<<" | ">>" => 50,
            "&" => 40,
            "^" => 30,
            "|" => 20,
            _ => return None,
        })
    }

    /// Peeks the next binary operator, gluing `<<`/`>>` from two adjacent
    /// punct tokens.
    fn peek_op(&self) -> Option<(String, usize)> {
        let a = self.toks.get(self.pos)?.text;
        let b = self.toks.get(self.pos + 1).map(|t| t.text).unwrap_or("");
        match (a, b) {
            ("<", "<") => Some(("<<".into(), 2)),
            (">", ">") => Some((">>".into(), 2)),
            ("*" | "+" | "-" | "&" | "^" | "|", _) => Some((a.into(), 1)),
            _ => None,
        }
    }

    fn expr(&mut self, min_bp: u8) -> Option<u64> {
        let mut lhs = self.atom()?;
        while let Some((op, len)) = self.peek_op() {
            let bp = Self::bp(&op)?;
            if bp < min_bp {
                break;
            }
            self.pos += len;
            let rhs = self.expr(bp + 1)?;
            lhs = match op.as_str() {
                "*" => lhs.wrapping_mul(rhs),
                "+" => lhs.wrapping_add(rhs),
                "-" => lhs.wrapping_sub(rhs),
                "<<" => lhs.wrapping_shl(rhs as u32),
                ">>" => lhs.wrapping_shr(rhs as u32),
                "&" => lhs & rhs,
                "^" => lhs ^ rhs,
                "|" => lhs | rhs,
                _ => return None,
            };
        }
        Some(lhs)
    }

    fn atom(&mut self) -> Option<u64> {
        match self.bump() {
            "!" => Some(!self.atom()?),
            "-" => Some(self.atom()?.wrapping_neg()),
            "(" => {
                let v = self.expr(0)?;
                if self.bump() != ")" {
                    return None;
                }
                Some(v)
            }
            ident if !ident.is_empty() => {
                // `std :: mem :: size_of :: < T > ( )`, `Word :: BITS`,
                // `usize :: BITS`, a known constant, or a literal.
                if let Some(v) = int_literal(&self.toks[self.pos - 1]) {
                    return Some(v);
                }
                // Swallow a leading path (`a::b::c`): keep the last segment.
                let mut last = ident.to_string();
                while self.peek() == ":" {
                    let save = self.pos;
                    self.pos += 1;
                    if self.bump() != ":" {
                        self.pos = save;
                        break;
                    }
                    // `::<` turbofish belongs to the call handling below.
                    if self.peek() == "<" {
                        self.pos = save;
                        break;
                    }
                    last = self.bump().to_string();
                }
                match last.as_str() {
                    "size_of" => {
                        // :: < T > ( )
                        let tail: Vec<&str> = (0..7)
                            .map(|k| self.toks.get(self.pos + k).map(|t| t.text).unwrap_or(""))
                            .collect();
                        if tail[0] == ":" && tail[1] == ":" && tail[2] == "<" {
                            // Only word-sized types appear in the layout
                            // constants; anything else fails the parse.
                            let ty = tail[3];
                            if !matches!(ty, "Word" | "usize" | "u64") {
                                return None;
                            }
                            if tail[4] == ">" && tail[5] == "(" && tail[6] == ")" {
                                self.pos += 7;
                                return Some(WORD_BYTES);
                            }
                        }
                        None
                    }
                    "BITS" => {
                        if matches!(ident, "Word" | "usize" | "u64") {
                            Some(WORD_BITS)
                        } else {
                            None
                        }
                    }
                    name => self.env.get(name).copied(),
                }
            }
            _ => None,
        }
    }
}

/// A missing constant is itself a finding: the rule must fail loudly when
/// a rename breaks its view of the layout.
fn require(
    parsed: &ParsedLayout,
    file: &str,
    kind: &str,
    name: &str,
    out: &mut Vec<Finding>,
) -> Option<u64> {
    let v = match kind {
        "const" => parsed.consts.get(name).copied(),
        "struct" => parsed
            .structs
            .contains(name)
            .then(|| parsed.word_struct_align(name)),
        _ => parsed.aligns.get(name).copied(),
    };
    if v.is_none() {
        out.push(Finding::new(
            "bit-layout",
            file,
            1,
            format!(
                "could not parse {kind} `{name}` (renamed or rewritten? update \
                 stmlint's layout rule to match)"
            ),
        ));
    }
    v
}

/// Runs the cross-file layout checks.  `word_src`/`map_src` are the
/// contents of the files named by `[layout]` in stmlint.toml.
pub fn check_bit_layout(
    word_path: &str,
    word_src: &str,
    map_path: &str,
    map_src: &str,
    out: &mut Vec<Finding>,
) {
    let word = parse_layout(word_src);
    let map = parse_layout(map_src);

    let mut fail = |file: &str, msg: String| out.push(Finding::new("bit-layout", file, 1, msg));

    // --- word.rs: the value-word tag scheme ------------------------------
    let mut missing = Vec::new();
    let mark = require(&word, word_path, "const", "MARK_BIT", &mut missing);
    let ib = require(&word, word_path, "const", "INLINE_BYTES_BIT", &mut missing);
    let ii = require(&word, word_path, "const", "INLINE_INT_BIT", &mut missing);
    let max_inline = require(&word, word_path, "const", "MAX_INLINE_BYTES", &mut missing);
    let int_bits = require(&word, word_path, "const", "INLINE_INT_BITS", &mut missing);
    if let (Some(mark), Some(ib), Some(ii), Some(max_inline), Some(int_bits)) =
        (mark, ib, ii, max_inline, int_bits)
    {
        if (mark | ib | ii) & 1 != 0 {
            fail(
                word_path,
                "a tag bit collides with bit 0, the val layout's lock bit".into(),
            );
        }
        if ib & ii != 0 {
            fail(
                word_path,
                format!(
                    "INLINE_BYTES_BIT ({ib:#x}) and INLINE_INT_BIT ({ii:#x}) overlap: a \
                     value word's form would be ambiguous"
                ),
            );
        }
        if (ib | ii) >= WORD_BYTES {
            fail(
                word_path,
                format!(
                    "value-word tags {:#x} exceed the low bits a word-aligned ValueCell \
                     pointer keeps clear (< {WORD_BYTES:#x})",
                    ib | ii | 1
                ),
            );
        }
        if max_inline >= 8 {
            fail(
                word_path,
                format!("MAX_INLINE_BYTES ({max_inline}) does not fit the 3-bit length field"),
            );
        }
        if int_bits != WORD_BITS - 3 {
            fail(
                word_path,
                format!("INLINE_INT_BITS ({int_bits}) must leave exactly 3 tag bits"),
            );
        }
    }

    // --- map.rs: bucket item/stat words ----------------------------------
    let slots = require(&map, map_path, "const", "BUCKET_SLOTS", &mut missing);
    let address_bits = require(&map, map_path, "const", "ADDRESS_BITS", &mut missing);
    let tag = require(&map, map_path, "const", "TAG_MASK", &mut missing);
    let item_ptr = require(&map, map_path, "const", "ITEM_PTR_MASK", &mut missing);
    let freq = require(&map, map_path, "const", "FREQ_MASK", &mut missing);
    let chain_ptr = require(&map, map_path, "const", "CHAIN_PTR_MASK", &mut missing);
    let node_align = require(&map, map_path, "struct", "Node", &mut missing);
    let bucket_align = require(&map, map_path, "align", "Bucket", &mut missing);
    let overflow_align = require(&map, map_path, "align", "OverflowBucket", &mut missing);
    if let (
        Some(slots),
        Some(address_bits),
        Some(tag),
        Some(item_ptr),
        Some(freq),
        Some(chain_ptr),
        Some(node_align),
        Some(bucket_align),
        Some(overflow_align),
    ) = (
        slots,
        address_bits,
        tag,
        item_ptr,
        freq,
        chain_ptr,
        node_align,
        bucket_align,
        overflow_align,
    ) {
        if tag & 1 != 0 {
            fail(
                map_path,
                "TAG_MASK uses bit 0, the val layout's lock bit".into(),
            );
        }
        if item_ptr != !(tag | 1) {
            fail(
                map_path,
                format!(
                    "ITEM_PTR_MASK ({item_ptr:#x}) and TAG_MASK|1 ({:#x}) do not partition \
                     the item word",
                    tag | 1
                ),
            );
        }
        // The tag must be one contiguous bit run, or the hash-tag
        // extraction's mask would drop bits, and it must sit above every
        // address bit: the node's alignment frees none of them.
        let run = tag >> tag.trailing_zeros().min(63);
        if tag == 0 || run.wrapping_add(1) & run != 0 {
            fail(
                map_path,
                format!("TAG_MASK ({tag:#x}) is not a contiguous run of bits"),
            );
        }
        if u64::from(tag.trailing_zeros()) < address_bits {
            fail(
                map_path,
                format!(
                    "TAG_MASK ({tag:#x}) reaches below ADDRESS_BITS ({address_bits}), into \
                     bits a node address can set"
                ),
            );
        }
        if node_align <= 1 {
            fail(
                map_path,
                format!(
                    "Node's {node_align}-byte alignment does not clear bit 0, the item \
                     word's lock bit"
                ),
            );
        }
        if freq & 1 != 0 {
            fail(
                map_path,
                "FREQ_MASK uses bit 0, the val layout's lock bit".into(),
            );
        }
        if chain_ptr != !(freq | 1) {
            fail(
                map_path,
                format!(
                    "CHAIN_PTR_MASK ({chain_ptr:#x}) and FREQ_MASK|1 ({:#x}) do not \
                     partition the stat word",
                    freq | 1
                ),
            );
        }
        if (freq | 1) >= overflow_align {
            fail(
                map_path,
                format!(
                    "freq+lock bits ({:#x}) exceed what OverflowBucket's \
                     {overflow_align}-byte alignment keeps clear",
                    freq | 1
                ),
            );
        }
        if (slots + 1) * WORD_BYTES != 64 || bucket_align != 64 {
            fail(
                map_path,
                format!(
                    "a bucket of {slots}+1 words with alignment {bucket_align} is not one \
                     64-byte cache line"
                ),
            );
        }
        // The eviction clock reads the frequency byte by shift-and-mask;
        // the three constants must describe the same bit field or the
        // policy silently reads garbage (or always-zero) frequencies.
        let freq_shift = require(&map, map_path, "const", "FREQ_SHIFT", &mut missing);
        let freq_max = require(&map, map_path, "const", "FREQ_MAX", &mut missing);
        if let (Some(freq_shift), Some(freq_max)) = (freq_shift, freq_max) {
            if (freq_max + 1) & freq_max != 0 {
                fail(
                    map_path,
                    format!("FREQ_MAX ({freq_max:#x}) is not a contiguous all-ones field"),
                );
            }
            if freq != freq_max << freq_shift {
                fail(
                    map_path,
                    format!(
                        "FREQ_MASK ({freq:#x}) is not FREQ_MAX << FREQ_SHIFT ({:#x}): the \
                         frequency-byte extraction would drop bits",
                        freq_max << freq_shift
                    ),
                );
            }
        }
        // The TTL deadline word shares the val layout with value words, so
        // its payload must stay clear of bit 0 (the lock bit) — a shift of
        // zero would let a millisecond count toggle locks.
        if let Some(deadline_shift) =
            require(&map, map_path, "const", "DEADLINE_SHIFT", &mut missing)
        {
            if deadline_shift < 1 {
                fail(
                    map_path,
                    format!(
                        "DEADLINE_SHIFT ({deadline_shift}) must leave bit 0 clear: the \
                         deadline word shares the val layout's lock bit"
                    ),
                );
            }
        }
        // Cross-file: out-of-line *value words* (a ValueCell pointer with
        // the word.rs tag bits clear) are stored through the same map
        // cells, so the node alignment must be at least as strong as what
        // the value-word pointer form assumes — a Node pointer could
        // otherwise alias an inline tag.
        if let (Some(ib), Some(ii)) = (ib, ii) {
            if node_align <= (ib | ii) {
                fail(
                    map_path,
                    format!(
                        "Node alignment ({node_align}) does not clear the value-word tag \
                         bits ({:#x})",
                        ib | ii
                    ),
                );
            }
        }
    }

    out.extend(missing);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluates_the_real_constant_forms() {
        let src = r#"
            pub const BUCKET_SLOTS: usize = 7;
            const ADDRESS_BITS: u32 = 48;
            const TAG_MASK: Word = !0 << ADDRESS_BITS;
            const ITEM_PTR_MASK: Word = !(TAG_MASK | 1);
            const FREQ_MASK: Word = 0x1FE;
            const CHAIN_PTR_MASK: Word = !(FREQ_MASK | 1);
            pub const MAX_INLINE_BYTES: usize = std::mem::size_of::<Word>() - 1;
            pub const INLINE_INT_BITS: u32 = Word::BITS - 3;
            pub const VAL_SPARE_BITS: u32 = Word::BITS - 1;
            const SHIFTED: usize = (1 << 20) + 0b10 * 3;
        "#;
        let p = parse_layout(src);
        assert_eq!(p.consts["BUCKET_SLOTS"], 7);
        assert_eq!(p.consts["TAG_MASK"], 0xFFFF << 48);
        assert_eq!(p.consts["ITEM_PTR_MASK"], !((0xFFFF << 48) | 1));
        assert_eq!(p.consts["CHAIN_PTR_MASK"], !(0x1FE_u64 | 1));
        assert_eq!(p.consts["MAX_INLINE_BYTES"], 7);
        assert_eq!(p.consts["INLINE_INT_BITS"], 61);
        assert_eq!(p.consts["SHIFTED"], (1 << 20) + 6);
    }

    #[test]
    fn parses_repr_align() {
        let src = r#"
            struct Node<S: Stm> { key: u64 }
            #[repr(align(64))]
            pub struct Bucket<S: Stm> { item: [S::Cell; 7] }
            #[repr(align(512))]
            struct OverflowBucket<S: Stm> { bucket: Bucket<S> }
            #[repr(packed)]
            struct Packed { key: u64 }
            #[repr(packed(2))]
            struct Packed2 { key: u64 }
        "#;
        let p = parse_layout(src);
        assert!(!p.aligns.contains_key("Node"));
        assert_eq!(p.word_struct_align("Node"), 8);
        assert_eq!(p.aligns["Bucket"], 64);
        assert_eq!(p.aligns["OverflowBucket"], 512);
        assert_eq!(p.word_struct_align("OverflowBucket"), 512);
        assert_eq!(p.word_struct_align("Packed"), 1);
        assert_eq!(p.word_struct_align("Packed2"), 2);
        assert!(p.structs.contains("Node") && p.structs.contains("Packed2"));
    }

    #[test]
    fn unsupported_expressions_are_skipped_not_misparsed() {
        let src = "const WEIRD: usize = some_fn(3); const OK: usize = 4;";
        let p = parse_layout(src);
        assert!(!p.consts.contains_key("WEIRD"));
        assert_eq!(p.consts["OK"], 4);
    }

    const GOOD_WORD: &str = r#"
        pub const MARK_BIT: Word = 0b10;
        pub const INLINE_BYTES_BIT: Word = 0b010;
        pub const INLINE_INT_BIT: Word = 0b100;
        pub const MAX_INLINE_BYTES: usize = std::mem::size_of::<Word>() - 1;
        pub const INLINE_INT_BITS: u32 = Word::BITS - 3;
    "#;

    const GOOD_MAP: &str = r#"
        pub const BUCKET_SLOTS: usize = 7;
        const ADDRESS_BITS: u32 = 48;
        const TAG_MASK: Word = !0 << ADDRESS_BITS;
        const ITEM_PTR_MASK: Word = !(TAG_MASK | 1);
        const FREQ_MASK: Word = 0x1FE;
        const FREQ_SHIFT: u32 = 1;
        const FREQ_MAX: Word = 0xFF;
        const CHAIN_PTR_MASK: Word = !(FREQ_MASK | 1);
        pub(crate) const DEADLINE_SHIFT: u32 = 1;
        struct Node<S: Stm> { key: u64 }
        #[repr(align(64))]
        struct Bucket<S: Stm> { item: [S::Cell; BUCKET_SLOTS] }
        #[repr(align(512))]
        struct OverflowBucket<S: Stm> { bucket: Bucket<S> }
    "#;

    fn findings(word: &str, map: &str) -> Vec<String> {
        let mut out = Vec::new();
        check_bit_layout("word.rs", word, "map.rs", map, &mut out);
        out.into_iter().map(|f| f.message).collect()
    }

    #[test]
    fn clean_layout_passes() {
        assert_eq!(findings(GOOD_WORD, GOOD_MAP), Vec::<String>::new());
    }

    #[test]
    fn overlapping_inline_tags_fire() {
        let bad = GOOD_WORD.replace(
            "INLINE_INT_BIT: Word = 0b100",
            "INLINE_INT_BIT: Word = 0b010",
        );
        let msgs = findings(&bad, GOOD_MAP);
        assert!(msgs.iter().any(|m| m.contains("overlap")), "{msgs:?}");
    }

    #[test]
    fn tag_mask_using_lock_bit_fires() {
        let bad = GOOD_MAP.replace(
            "TAG_MASK: Word = !0 << ADDRESS_BITS",
            "TAG_MASK: Word = (!0 << ADDRESS_BITS) | 1",
        );
        let msgs = findings(GOOD_WORD, &bad);
        assert!(msgs.iter().any(|m| m.contains("bit 0")), "{msgs:?}");
    }

    #[test]
    fn tag_reaching_below_address_bits_fires() {
        let bad = GOOD_MAP.replace("!0 << ADDRESS_BITS", "!0 << 40");
        let msgs = findings(GOOD_WORD, &bad);
        assert!(
            msgs.iter().any(|m| m.contains("below ADDRESS_BITS")),
            "{msgs:?}"
        );
    }

    #[test]
    fn low_bit_tag_on_an_unaligned_node_fires() {
        // The layout before nodes lost their 64-byte alignment: a tag in
        // bits 1..=5 is a tag inside the address of an 8-aligned node.
        let bad = GOOD_MAP.replace("!0 << ADDRESS_BITS", "0x3E");
        let msgs = findings(GOOD_WORD, &bad);
        assert!(
            msgs.iter().any(|m| m.contains("below ADDRESS_BITS")),
            "{msgs:?}"
        );
    }

    #[test]
    fn non_contiguous_tag_fires() {
        let bad = GOOD_MAP.replace("!0 << ADDRESS_BITS", "0xFF7F << ADDRESS_BITS");
        let msgs = findings(GOOD_WORD, &bad);
        assert!(msgs.iter().any(|m| m.contains("contiguous")), "{msgs:?}");
    }

    #[test]
    fn insufficient_node_alignment_fires() {
        let bad = GOOD_MAP.replace("struct Node", "#[repr(packed)]\n        struct Node");
        let msgs = findings(GOOD_WORD, &bad);
        assert!(msgs.iter().any(|m| m.contains("alignment")), "{msgs:?}");
    }

    #[test]
    fn stale_mask_partition_fires() {
        let bad = GOOD_MAP.replace("!(TAG_MASK | 1)", "!(0x7E | 1)");
        let msgs = findings(GOOD_WORD, &bad);
        assert!(msgs.iter().any(|m| m.contains("partition")), "{msgs:?}");
    }

    #[test]
    fn frequency_field_mismatch_fires() {
        // Widening the mask without moving FREQ_MAX along with it means the
        // extraction and the saturation test disagree about the field.
        let bad = GOOD_MAP
            .replace("FREQ_MASK: Word = 0x1FE", "FREQ_MASK: Word = 0x3FE")
            .replace("!(FREQ_MASK | 1)", "!(0x3FE | 1)");
        let msgs = findings(GOOD_WORD, &bad);
        assert!(
            msgs.iter().any(|m| m.contains("FREQ_MAX << FREQ_SHIFT")),
            "{msgs:?}"
        );
    }

    #[test]
    fn non_contiguous_freq_max_fires() {
        let bad = GOOD_MAP.replace("FREQ_MAX: Word = 0xFF", "FREQ_MAX: Word = 0xFD");
        let msgs = findings(GOOD_WORD, &bad);
        assert!(msgs.iter().any(|m| m.contains("contiguous")), "{msgs:?}");
    }

    #[test]
    fn zero_deadline_shift_fires() {
        let bad = GOOD_MAP.replace("DEADLINE_SHIFT: u32 = 1", "DEADLINE_SHIFT: u32 = 0");
        let msgs = findings(GOOD_WORD, &bad);
        assert!(msgs.iter().any(|m| m.contains("lock bit")), "{msgs:?}");
    }

    #[test]
    fn renamed_constant_fails_loudly() {
        for (from, to) in [
            ("TAG_MASK", "HASH_TAG_MASK"),
            ("struct Node", "struct ItemNode"),
        ] {
            let bad = GOOD_MAP.replace(from, to);
            let msgs = findings(GOOD_WORD, &bad);
            assert!(
                msgs.iter().any(|m| m.contains("could not parse")),
                "{from}: {msgs:?}"
            );
        }
    }
}
