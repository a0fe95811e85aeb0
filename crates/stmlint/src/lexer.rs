//! A minimal hand-rolled Rust lexer.
//!
//! The checks in this crate need to find *tokens* — the `unsafe` keyword, a
//! `Ordering::SeqCst` path, a `transmute` call — without being fooled by the
//! same words appearing inside comments, doc comments, or string literals.
//! The offline toolchain rules out `syn`, so this module tokenizes Rust
//! source directly.  It handles exactly the lexical subtleties that matter
//! for token-level scanning:
//!
//! * line comments (`//`, `///`, `//!`) and (nested) block comments
//!   (`/* /* */ */`), kept as trivia tokens so the checks can look for
//!   `SAFETY:` / `ORDERING:` justifications;
//! * string literals (`"..."` with escapes), raw strings (`r#"..."#` with
//!   any number of `#`s), byte strings (`b"..."`, `br#"..."#`), and C
//!   strings (`c"..."`);
//! * char literals (`'a'`, `'\n'`, `'\''`) disambiguated from lifetimes
//!   (`'a`, `'static`) and labels;
//! * identifiers (including raw identifiers `r#fn` and keywords — the
//!   checks decide which identifiers are interesting), numeric literals
//!   (enough to skip them: `0x1F_usize`, `1.5e3`, `0b10`), and punctuation
//!   (one token per character; the checks match multi-character operators
//!   like `::` as adjacent `:` `:` tokens).
//!
//! It does **not** build a syntax tree; every check works on the flat token
//! stream plus line numbers.

/// The coarse classification a check can dispatch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier, keyword, or raw identifier (`r#type` yields `type`).
    Ident,
    /// A `//`-style comment, including doc comments; text excludes the
    /// trailing newline.
    LineComment,
    /// A `/* ... */` comment (possibly nested), including doc variants.
    BlockComment,
    /// A string, raw-string, byte-string, c-string, char, or numeric
    /// literal.  The checks never look inside literals; they only need to
    /// not look *through* them.
    Literal,
    /// A lifetime or loop label (`'a`, `'static`).
    Lifetime,
    /// A single punctuation character (`:`, `{`, `#`, ...).
    Punct,
}

/// One lexed token: classification, source text, and 1-based start line.
#[derive(Debug, Clone)]
pub struct Token<'a> {
    pub kind: TokenKind,
    pub text: &'a str,
    pub line: u32,
}

impl Token<'_> {
    /// Whether this token is comment trivia.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// Tokenizes `src`.  Unterminated constructs (running off the end of the
/// file inside a string or block comment) terminate the token at EOF rather
/// than failing: the lint must degrade gracefully on files rustc would
/// reject, because it runs before the compiler does.
pub fn tokenize(src: &str) -> Vec<Token<'_>> {
    Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    out: Vec<Token<'a>>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token<'a>> {
        while self.pos < self.bytes.len() {
            let start = self.pos;
            let line = self.line;
            let b = self.bytes[self.pos];
            match b {
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'\n' => {
                    self.pos += 1;
                    self.line += 1;
                }
                b'/' if self.peek(1) == Some(b'/') => {
                    self.line_comment();
                    self.push(TokenKind::LineComment, start, line);
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    self.block_comment();
                    self.push(TokenKind::BlockComment, start, line);
                }
                b'r' | b'b' | b'c' => {
                    if self.try_string_prefix() {
                        self.push(TokenKind::Literal, start, line);
                    } else {
                        self.ident();
                        self.push(TokenKind::Ident, start, line);
                    }
                }
                b'"' => {
                    self.pos += 1;
                    self.string_body();
                    self.push(TokenKind::Literal, start, line);
                }
                b'\'' => {
                    if self.try_char_literal() {
                        self.push(TokenKind::Literal, start, line);
                    } else {
                        // Lifetime or label: consume the quote and the name.
                        self.pos += 1;
                        self.ident();
                        self.push(TokenKind::Lifetime, start, line);
                    }
                }
                b'0'..=b'9' => {
                    self.number();
                    self.push(TokenKind::Literal, start, line);
                }
                _ if is_ident_start(b) => {
                    self.ident();
                    self.push(TokenKind::Ident, start, line);
                }
                _ => {
                    // Punctuation, or a multi-byte UTF-8 character (only
                    // legal inside comments/strings/idents in Rust, but
                    // degrade gracefully): one token per char.
                    let ch_len = utf8_len(b);
                    self.pos += ch_len;
                    self.push(TokenKind::Punct, start, line);
                }
            }
        }
        self.out
    }

    fn push(&mut self, kind: TokenKind, start: usize, line: u32) {
        let mut text = &self.src[start..self.pos];
        if kind == TokenKind::Ident {
            // Raw identifiers lex as their unescaped name.
            text = text.strip_prefix("r#").unwrap_or(text);
        }
        self.out.push(Token { kind, text, line });
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn line_comment(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
            self.pos += 1;
        }
    }

    fn block_comment(&mut self) {
        self.pos += 2; // consume `/*`
        let mut depth = 1usize;
        while self.pos < self.bytes.len() && depth > 0 {
            match self.bytes[self.pos] {
                b'/' if self.peek(1) == Some(b'*') => {
                    depth += 1;
                    self.pos += 2;
                }
                b'*' if self.peek(1) == Some(b'/') => {
                    depth -= 1;
                    self.pos += 2;
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// At a `r`, `b`, or `c`: if this starts a (raw/byte/c) string or raw
    /// identifier prefix that is actually a string, consume it and return
    /// true.  `r#ident` is *not* a string and returns false.
    fn try_string_prefix(&mut self) -> bool {
        let b0 = self.bytes[self.pos];
        // `br"`, `br#"`, `cr"`, `cr#"` — two-letter prefixes.
        let (prefix_len, raw) = match (b0, self.peek(1)) {
            (b'r', Some(b'"')) => (1, true),
            (b'r', Some(b'#')) => {
                // Distinguish r"..."/r#"..."# from raw identifier r#foo.
                let mut i = self.pos + 1;
                while self.bytes.get(i) == Some(&b'#') {
                    i += 1;
                }
                if self.bytes.get(i) == Some(&b'"') {
                    (1, true)
                } else {
                    return false;
                }
            }
            (b'b' | b'c', Some(b'"')) => (1, false),
            (b'b' | b'c', Some(b'r')) => match self.peek(2) {
                Some(b'"') => (2, true),
                Some(b'#') => {
                    let mut i = self.pos + 2;
                    while self.bytes.get(i) == Some(&b'#') {
                        i += 1;
                    }
                    if self.bytes.get(i) == Some(&b'"') {
                        (2, true)
                    } else {
                        return false;
                    }
                }
                _ => return false,
            },
            (b'b', Some(b'\'')) => {
                // Byte char literal b'x'.
                self.pos += 1;
                if !self.try_char_literal() {
                    // `b'` not followed by a char literal can't occur in
                    // valid Rust; consume the quote to make progress.
                    self.pos += 1;
                }
                return true;
            }
            _ => return false,
        };
        self.pos += prefix_len;
        if raw {
            self.raw_string_body();
        } else {
            self.pos += 1; // opening quote
            self.string_body();
        }
        true
    }

    /// Consumes a `"..."` body (opening quote already consumed), honouring
    /// `\"` and `\\` escapes and counting newlines.
    fn string_body(&mut self) {
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' => self.pos += 2,
                b'"' => {
                    self.pos += 1;
                    return;
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Consumes `#*"..."#*` (positioned at the first `#` or the `"`).  No
    /// escapes inside raw strings; the body ends at `"` followed by the same
    /// number of `#`s.
    fn raw_string_body(&mut self) {
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.pos += 1;
        }
        self.pos += 1; // opening quote
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'"' => {
                    let mut i = 0;
                    while i < hashes && self.peek(1 + i) == Some(b'#') {
                        i += 1;
                    }
                    self.pos += 1 + i;
                    if i == hashes {
                        return;
                    }
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// At a `'`: consume a char literal and return true, or return false if
    /// this is a lifetime/label (position unchanged).
    fn try_char_literal(&mut self) -> bool {
        // A char literal is 'x', '\..' or '<multibyte>'; a lifetime is
        // 'ident NOT followed by a closing quote ('a' the char vs 'a the
        // lifetime differ in the byte after the name).
        match self.peek(1) {
            Some(b'\\') => {
                // Escape: consume until the closing quote.
                self.pos += 2; // ' and backslash
                self.pos += 1; // escaped char (enough for \n \' \\ \0; for
                               // \x41 and \u{..} the loop below finds ')
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\'' {
                    self.pos += 1;
                }
                self.pos += 1;
                true
            }
            Some(c) if !is_ident_start(c) && c != b'\'' => {
                // 'x' with x non-identifier (punctuation, digit, space):
                // always a char literal.
                let ch_len = utf8_len(c);
                if self.peek(1 + ch_len) == Some(b'\'') {
                    self.pos += 2 + ch_len;
                    true
                } else {
                    false
                }
            }
            Some(c) if is_ident_start(c) => {
                // 'a' vs 'a: scan the identifier; a closing quote right
                // after a single char means char literal.
                let ch_len = utf8_len(c);
                if self.peek(1 + ch_len) == Some(b'\'') {
                    self.pos += 2 + ch_len;
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    fn ident(&mut self) {
        if self.peek(0) == Some(b'r') && self.peek(1) == Some(b'#') {
            self.pos += 2;
        }
        while self.pos < self.bytes.len() && is_ident_continue(self.bytes[self.pos]) {
            self.pos += 1;
        }
    }

    fn number(&mut self) {
        // Numeric literals never contain the tokens the checks look for;
        // consume the maximal run of characters that can appear in one
        // (digits, radix prefixes, `_`, `.`, exponents, type suffixes).
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            let prev = self.bytes[self.pos - 1];
            let cont = b.is_ascii_alphanumeric()
                || b == b'_'
                || (b == b'.' && self.peek(1).is_some_and(|n| n.is_ascii_digit()))
                || ((b == b'+' || b == b'-') && (prev == b'e' || prev == b'E'));
            if !cont {
                break;
            }
            self.pos += 1;
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<&str> {
        tokenize(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_hide_keywords() {
        let src = "// unsafe here\n/* unsafe there */ fn ok() {}";
        assert_eq!(idents(src), ["fn", "ok"]);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner unsafe */ still comment */ unsafe";
        assert_eq!(idents(src), ["unsafe"]);
        assert_eq!(tokenize(src)[0].kind, TokenKind::BlockComment);
    }

    #[test]
    fn strings_hide_keywords() {
        let src = "let s = \"unsafe { }\"; let e = \"esc \\\" unsafe\";";
        assert!(!idents(src).contains(&"unsafe"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r###"let s = r#"embedded " quote and unsafe"#; unsafe"###;
        assert_eq!(idents(src).last(), Some(&"unsafe"));
        // Exactly one Ident token named unsafe.
        assert_eq!(idents(src).iter().filter(|t| **t == "unsafe").count(), 1);
    }

    #[test]
    fn byte_and_c_strings() {
        let src = r#"let a = b"unsafe"; let b = c"unsafe"; let c = br"unsafe";"#;
        assert!(!idents(src).contains(&"unsafe"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "let c = 'u'; fn f<'unsafe_lt>(x: &'unsafe_lt u8) {} let q = '\\'';";
        let toks = tokenize(src);
        assert!(!idents(src).contains(&"unsafe"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "'unsafe_lt"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Literal && t.text == "'u'"));
    }

    #[test]
    fn raw_identifiers() {
        assert_eq!(idents("r#unsafe r#fn plain"), ["unsafe", "fn", "plain"]);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "/* a\nb\nc */\n\"x\ny\"\nunsafe";
        let toks = tokenize(src);
        let u = toks.iter().find(|t| t.text == "unsafe").unwrap();
        assert_eq!(u.line, 6);
    }

    #[test]
    fn numbers_lex_as_literals() {
        let src = "const M: usize = 0x1FE_usize; let f = 1.5e-3; let b = 0b10;";
        let toks = tokenize(src);
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Literal && t.text == "0x1FE_usize"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Literal && t.text == "1.5e-3"));
    }

    #[test]
    fn ordering_path_is_adjacent_tokens() {
        let toks = tokenize("Ordering::SeqCst");
        let texts: Vec<&str> = toks.iter().map(|t| t.text).collect();
        assert_eq!(texts, ["Ordering", ":", ":", "SeqCst"]);
    }
}
