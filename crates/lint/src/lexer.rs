//! A hand-rolled Rust lexer producing a lossless token stream.
//!
//! The lints in this crate work on tokens, not syntax trees, so the lexer
//! only has to classify text correctly — it never needs to *parse*. Its one
//! hard contract is losslessness: concatenating the text of every token
//! reproduces the input byte for byte (`tests/roundtrip.rs` asserts this
//! over the whole workspace). That contract is what makes `file:line:col`
//! diagnostics trustworthy: every byte of the source belongs to exactly one
//! token.
//!
//! Comments and whitespace are real tokens (trivia) rather than being
//! skipped, because suppression comments (`// balloc-lint: allow(...)`) and
//! doc-comment examples must be visible to the engine while staying
//! invisible to the lints' significant-token scans.

/// Classification of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Spaces, tabs, newlines.
    Whitespace,
    /// `// ...` including doc comments (`///`, `//!`).
    LineComment,
    /// `/* ... */` including doc comments, with nesting.
    BlockComment,
    /// Identifiers and keywords, including raw identifiers (`r#match`).
    Ident,
    /// `'a`, `'static`, `'_` — but not char literals.
    Lifetime,
    /// Integer and float literals, with any suffix (`1_000u64`, `1.5e-3`).
    Num,
    /// String-like literals: `"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    Str,
    /// Character-like literals: `'x'`, `'\n'`, `b'x'`.
    Char,
    /// Operators and delimiters, longest-match (`<<=`, `..=`, `::`, `+`).
    Punct,
}

impl TokenKind {
    /// Whether this token carries no meaning for the lints (whitespace and
    /// comments).
    #[must_use]
    pub fn is_trivia(self) -> bool {
        matches!(
            self,
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
        )
    }
}

/// One lexed token: a classification plus the byte range it occupies in the
/// source. The text itself is always `&src[start..end]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

/// Three-byte operators, tried before the two- and one-byte ones.
const PUNCT3: &[&str] = &["<<=", ">>=", "..=", "..."];
/// Two-byte operators.
const PUNCT2: &[&str] = &[
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
    "::", "->", "=>", "..",
];

/// Tokenizes `src` completely. Never fails: bytes that fit no rule become
/// one-character [`TokenKind::Punct`] tokens, preserving the round-trip
/// contract even on malformed input.
#[must_use]
pub fn tokenize(src: &str) -> Vec<Token> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let start = pos;
        let kind = scan(src, bytes, &mut pos);
        debug_assert!(pos > start, "lexer must always make progress");
        tokens.push(Token {
            kind,
            start,
            end: pos,
        });
    }
    tokens
}

/// Scans one token starting at `*pos`, advancing `*pos` past it.
fn scan(src: &str, bytes: &[u8], pos: &mut usize) -> TokenKind {
    let b = bytes[*pos];
    match b {
        b' ' | b'\t' | b'\r' | b'\n' => {
            while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\r' | b'\n') {
                *pos += 1;
            }
            TokenKind::Whitespace
        }
        b'/' if peek(bytes, *pos + 1) == Some(b'/') => {
            while *pos < bytes.len() && bytes[*pos] != b'\n' {
                *pos += 1;
            }
            TokenKind::LineComment
        }
        b'/' if peek(bytes, *pos + 1) == Some(b'*') => {
            *pos += 2;
            let mut depth = 1u32;
            while *pos < bytes.len() && depth > 0 {
                if bytes[*pos] == b'/' && peek(bytes, *pos + 1) == Some(b'*') {
                    depth += 1;
                    *pos += 2;
                } else if bytes[*pos] == b'*' && peek(bytes, *pos + 1) == Some(b'/') {
                    depth -= 1;
                    *pos += 2;
                } else {
                    *pos += advance_char(src, *pos);
                }
            }
            TokenKind::BlockComment
        }
        b'r' | b'b' if raw_or_byte_literal(bytes, pos) => {
            // `raw_or_byte_literal` advanced past the whole literal and
            // reports which kind it was via the byte before the payload.
            if bytes[*pos - 1] == b'\'' {
                TokenKind::Char
            } else {
                TokenKind::Str
            }
        }
        b'"' => {
            scan_string(src, bytes, pos);
            TokenKind::Str
        }
        b'\'' => scan_quote(src, bytes, pos),
        b'0'..=b'9' => {
            scan_number(bytes, pos);
            TokenKind::Num
        }
        _ if is_ident_start(src, *pos) => {
            scan_ident(src, bytes, pos);
            TokenKind::Ident
        }
        _ => {
            for table in [PUNCT3, PUNCT2] {
                for op in table {
                    if src[*pos..].starts_with(op) {
                        *pos += op.len();
                        return TokenKind::Punct;
                    }
                }
            }
            *pos += advance_char(src, *pos);
            TokenKind::Punct
        }
    }
}

fn peek(bytes: &[u8], at: usize) -> Option<u8> {
    bytes.get(at).copied()
}

/// Byte length of the char starting at `at` (1 for ASCII).
fn advance_char(src: &str, at: usize) -> usize {
    src[at..].chars().next().map_or(1, char::len_utf8)
}

fn is_ident_start(src: &str, at: usize) -> bool {
    src[at..]
        .chars()
        .next()
        .is_some_and(|c| c == '_' || c.is_alphabetic())
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

fn scan_ident(src: &str, bytes: &[u8], pos: &mut usize) {
    // Raw identifier: consume the `r#` prefix, then the ident proper
    // (`raw_or_byte_literal` already ruled out raw strings).
    if bytes[*pos] == b'r' && peek(bytes, *pos + 1) == Some(b'#') && is_ident_start(src, *pos + 2) {
        *pos += 2;
    }
    for c in src[*pos..].chars() {
        if is_ident_continue(c) {
            *pos += c.len_utf8();
        } else {
            break;
        }
    }
}

/// Handles the `r` / `b` prefixed literal family: raw strings (`r"…"`,
/// `r#"…"#`), byte strings (`b"…"`), raw byte strings (`br#"…"#`), byte
/// chars (`b'x'`), and raw identifiers (`r#match`). Returns `true` (with
/// `*pos` advanced past the literal) only for the literal forms; raw
/// identifiers and plain idents starting with r/b return `false` so the
/// caller lexes them as identifiers.
fn raw_or_byte_literal(bytes: &[u8], pos: &mut usize) -> bool {
    let b0 = bytes[*pos];
    let mut probe = *pos + 1;
    // `br` / `rb`? Only `br` exists in Rust.
    if b0 == b'b' && peek(bytes, probe) == Some(b'r') {
        probe += 1;
    }
    let raw = b0 == b'r' || probe > *pos + 1;
    if raw {
        let mut hashes = 0;
        while peek(bytes, probe) == Some(b'#') {
            hashes += 1;
            probe += 1;
        }
        if peek(bytes, probe) == Some(b'"') {
            // Raw (byte) string: scan to `"` followed by `hashes` hashes.
            probe += 1;
            loop {
                match peek(bytes, probe) {
                    None => break,
                    Some(b'"') => {
                        let mut h = 0;
                        while h < hashes && peek(bytes, probe + 1 + h) == Some(b'#') {
                            h += 1;
                        }
                        if h == hashes {
                            probe += 1 + hashes;
                            break;
                        }
                        probe += 1;
                    }
                    Some(_) => probe += 1,
                }
            }
            *pos = probe;
            return true;
        }
        // `r#ident` (raw identifier) or plain ident — not a literal.
        return false;
    }
    // b"…" byte string or b'…' byte char.
    if b0 == b'b' {
        if peek(bytes, probe) == Some(b'"') {
            *pos = probe;
            scan_string_bytes(bytes, pos);
            return true;
        }
        if peek(bytes, probe) == Some(b'\'') {
            *pos = probe + 1;
            scan_char_body(bytes, pos);
            return true;
        }
    }
    false
}

fn scan_string(src: &str, bytes: &[u8], pos: &mut usize) {
    let _ = src;
    scan_string_bytes(bytes, pos);
}

/// Scans a `"…"` body starting at the opening quote.
fn scan_string_bytes(bytes: &[u8], pos: &mut usize) {
    *pos += 1; // opening quote
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'\\' => *pos += 2.min(bytes.len() - *pos),
            b'"' => {
                *pos += 1;
                return;
            }
            _ => *pos += 1,
        }
    }
}

/// Scans a char-literal body after the opening `'`, through the closing `'`.
fn scan_char_body(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'\\' => *pos += 2.min(bytes.len() - *pos),
            b'\'' => {
                *pos += 1;
                return;
            }
            _ => *pos += 1,
        }
    }
}

/// Disambiguates `'a'` (char) from `'a` (lifetime) at an opening `'`.
fn scan_quote(src: &str, bytes: &[u8], pos: &mut usize) -> TokenKind {
    let after = *pos + 1;
    if peek(bytes, after) == Some(b'\\') {
        *pos += 1;
        scan_char_body(bytes, pos);
        return TokenKind::Char;
    }
    if is_ident_start(src, after) {
        // `'x'` is a char; `'x` with no closing quote is a lifetime.
        let ch_len = advance_char(src, after);
        if peek(bytes, after + ch_len) == Some(b'\'') {
            *pos = after + ch_len + 1;
            return TokenKind::Char;
        }
        *pos = after;
        scan_ident(src, bytes, pos);
        return TokenKind::Lifetime;
    }
    // Non-ident char literal like '+' or '\u{…}' handled above; anything
    // else ('', stray quote) — scan to the closing quote if present.
    *pos += 1;
    scan_char_body(bytes, pos);
    TokenKind::Char
}

/// Scans a numeric literal: ints, floats, exponents, radix prefixes, and
/// type suffixes. Deliberately does not consume `..` (ranges) or method
/// calls on literals (`1.max(2)`).
fn scan_number(bytes: &[u8], pos: &mut usize) {
    *pos += 1;
    while *pos < bytes.len() {
        let b = bytes[*pos];
        let digit_next = || peek(bytes, *pos + 1).is_some_and(|n| n.is_ascii_digit());
        let continues = b.is_ascii_alphanumeric()
            || b == b'_'
            || (b == b'.' && digit_next())
            || ((b == b'+' || b == b'-') && matches!(bytes[*pos - 1], b'e' | b'E') && digit_next());
        if !continues {
            break;
        }
        *pos += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, &src[t.start..t.end]))
            .collect()
    }

    fn roundtrip(src: &str) {
        let joined: String = tokenize(src).iter().map(|t| &src[t.start..t.end]).collect();
        assert_eq!(joined, src);
    }

    #[test]
    fn basic_tokens() {
        let toks = kinds("let seed = base + 1;");
        assert!(toks.contains(&(TokenKind::Ident, "seed")));
        assert!(toks.contains(&(TokenKind::Punct, "+")));
        assert!(toks.contains(&(TokenKind::Num, "1")));
        roundtrip("let seed = base + 1;");
    }

    #[test]
    fn multichar_operators_are_single_tokens() {
        for (src, op) in [
            ("a <<= 1", "<<="),
            ("a == b", "=="),
            ("a::b", "::"),
            ("a..=b", "..="),
            ("|x| x => y", "=>"),
            ("a >>= 2", ">>="),
        ] {
            assert!(
                kinds(src).contains(&(TokenKind::Punct, op)),
                "{src} should lex `{op}` as one token"
            );
            roundtrip(src);
        }
    }

    #[test]
    fn range_does_not_glue_to_number() {
        let toks = kinds("for i in 0..cfg.n {}");
        assert!(toks.contains(&(TokenKind::Num, "0")));
        assert!(toks.contains(&(TokenKind::Punct, "..")));
    }

    #[test]
    fn numbers_with_suffixes_and_exponents() {
        for (src, lit) in [
            ("1_000u64", "1_000u64"),
            ("0xDEAD_BEEF", "0xDEAD_BEEF"),
            ("1.5e-3", "1.5e-3"),
            ("2E+10f64", "2E+10f64"),
            ("0b1010", "0b1010"),
        ] {
            assert_eq!(kinds(src), vec![(TokenKind::Num, lit)], "{src}");
        }
        // Method call on a literal: the dot is not part of the number.
        let toks = kinds("2.min(3)");
        assert_eq!(toks[0], (TokenKind::Num, "2"));
        assert_eq!(toks[1], (TokenKind::Punct, "."));
    }

    #[test]
    fn char_vs_lifetime() {
        assert_eq!(kinds("'a'")[0], (TokenKind::Char, "'a'"));
        assert_eq!(kinds("'\\n'")[0], (TokenKind::Char, "'\\n'"));
        assert_eq!(kinds("&'a str")[1], (TokenKind::Lifetime, "'a"));
        assert_eq!(kinds("<'static>")[1], (TokenKind::Lifetime, "'static"));
        assert_eq!(kinds("'_'")[0], (TokenKind::Char, "'_'"));
        roundtrip("fn f<'a>(x: &'a str) -> char { 'x' }");
    }

    #[test]
    fn string_family() {
        assert_eq!(kinds(r#""hi \" there""#)[0].0, TokenKind::Str);
        assert_eq!(kinds(r##"r#"raw "inner" text"#"##)[0].0, TokenKind::Str);
        assert_eq!(kinds(r#"b"bytes""#)[0].0, TokenKind::Str);
        assert_eq!(kinds(r##"br#"raw bytes"#"##)[0].0, TokenKind::Str);
        assert_eq!(kinds("b'x'")[0].0, TokenKind::Char);
        roundtrip(r##"let s = r#"a "b" c"#; let t = "d\\";"##);
    }

    #[test]
    fn raw_identifiers_are_idents() {
        let toks = kinds("r#match + r#fn");
        assert_eq!(toks[0], (TokenKind::Ident, "r#match"));
        assert!(toks.contains(&(TokenKind::Ident, "r#fn")));
    }

    #[test]
    fn comments_including_nested_blocks() {
        let src = "a /* outer /* inner */ still */ b // line\nc";
        let toks = kinds(src);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::BlockComment && t.contains("inner")));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::LineComment && t.contains("line")));
        roundtrip(src);
    }

    #[test]
    fn doc_comments_are_trivia() {
        let src = "/// docs with Rng::from_seed(1)\nfn f() {}";
        let toks = tokenize(src);
        assert!(toks[0].kind.is_trivia());
    }

    #[test]
    fn lossless_on_awkward_input() {
        for src in [
            "",
            "\u{1F980} unicode idents: café",
            "let x = '\\u{1F980}';",
            "#![forbid(unsafe_code)]\nmacro_rules! m { ($x:expr) => { $x } }",
            "\"unterminated",
            "/* unterminated",
        ] {
            roundtrip(src);
        }
    }
}
