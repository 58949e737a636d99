//! Per-file analysis context shared by every lint.
//!
//! [`FileContext`] wraps the raw token stream from [`crate::lexer`] with the
//! derived structure the lints need:
//!
//! * the **significant token** index (trivia filtered out, with neighbor
//!   navigation),
//! * **test regions** — byte ranges of `#[cfg(test)]` / `#[test]` items, so
//!   lints that only bind library code (L004, L005) can skip them,
//! * **function scopes** — the innermost enclosing `fn` name per offset,
//!   which is how L003 knows it is inside a digest/replay code path,
//! * the file's **role** (library / binary / test / bench / example),
//!   derived from its workspace-relative path and overridable by a
//!   `// balloc-lint: role(<role>)` pragma (used by the fixture corpus),
//! * parsed **suppression comments** (`// balloc-lint: allow(<codes>)`).
//!
//! Everything here is heuristic token scanning, not parsing — deliberately
//! so (vendoring discipline: no `syn`). The heuristics are pinned by the
//! fixture corpus and by running the tool over the workspace in CI, which
//! is the level of assurance a project-internal contract checker needs.

use crate::lexer::{self, Token, TokenKind};

/// What kind of code a file holds, which decides whether library-only lints
/// apply. Derived from the path, overridable via a `role(...)` pragma.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Crate library source (`crates/*/src/**`, `src/lib.rs`).
    Library,
    /// Binary entry points (`src/bin/**`, `src/main.rs`).
    Binary,
    /// Integration tests (`tests/**`).
    Test,
    /// Criterion benches (`benches/**`).
    Bench,
    /// Examples (`examples/**`).
    Example,
    /// Nonblocking reactor code (`crates/net/src/**`): library code that
    /// additionally binds the L007 no-blocking-calls contract.
    Reactor,
}

impl Role {
    fn from_path(rel_path: &str) -> Self {
        let has = |part: &str| rel_path.starts_with(&part[1..]) || rel_path.contains(part);
        if has("/tests/") {
            Role::Test
        } else if has("/benches/") {
            Role::Bench
        } else if has("/examples/") {
            Role::Example
        } else if has("/src/bin/") || rel_path.ends_with("/src/main.rs") {
            Role::Binary
        } else if has("/crates/net/src/") {
            Role::Reactor
        } else {
            Role::Library
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "library" => Some(Role::Library),
            "binary" => Some(Role::Binary),
            "test" => Some(Role::Test),
            "bench" => Some(Role::Bench),
            "example" => Some(Role::Example),
            "reactor" => Some(Role::Reactor),
            _ => None,
        }
    }
}

/// One suppression directive parsed from a `balloc-lint:` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The lint codes being allowed.
    pub codes: Vec<String>,
    /// The 1-based source line the suppression applies to, or `None` for a
    /// whole-file `allow-file`.
    pub line: Option<usize>,
    /// Where the comment itself sits (for L000 diagnostics).
    pub at: (usize, usize),
}

/// A `balloc-lint:` comment that could not be parsed (unknown directive,
/// missing parentheses). Surfaced as an L000 diagnostic: a typo here would
/// otherwise silently fail to suppress — or silently stop enforcing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadDirective {
    /// What the comment said after `balloc-lint:`.
    pub text: String,
    /// 1-based line/column of the comment.
    pub at: (usize, usize),
}

/// The fully analyzed file every lint receives.
#[derive(Debug)]
pub struct FileContext {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// The raw source.
    pub text: String,
    /// The lossless token stream.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of every non-trivia token.
    pub sig: Vec<usize>,
    /// The file's role.
    pub role: Role,
    /// Parsed suppression directives.
    pub suppressions: Vec<Suppression>,
    /// Unparseable `balloc-lint:` comments.
    pub bad_directives: Vec<BadDirective>,
    /// Byte ranges covered by `#[cfg(test)]` / `#[test]` items.
    test_regions: Vec<(usize, usize)>,
    /// `(start, end, name)` byte ranges of function bodies.
    fn_scopes: Vec<(usize, usize, String)>,
    /// Byte offset of each line start, for `line_col`.
    line_starts: Vec<usize>,
}

impl FileContext {
    /// Lexes and analyzes one source file.
    #[must_use]
    pub fn analyze(rel_path: &str, text: &str) -> Self {
        let tokens = lexer::tokenize(text);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.kind.is_trivia())
            .map(|(i, _)| i)
            .collect();
        let line_starts = std::iter::once(0)
            .chain(
                text.bytes()
                    .enumerate()
                    .filter(|&(_, b)| b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        let mut cx = Self {
            path: rel_path.to_string(),
            text: text.to_string(),
            tokens,
            sig,
            role: Role::from_path(rel_path),
            suppressions: Vec::new(),
            bad_directives: Vec::new(),
            test_regions: Vec::new(),
            fn_scopes: Vec::new(),
            line_starts,
        };
        cx.scan_directives();
        cx.scan_test_regions();
        cx.scan_fn_scopes();
        cx
    }

    /// The text of token `ti`.
    #[must_use]
    pub fn text_of(&self, ti: usize) -> &str {
        let t = &self.tokens[ti];
        &self.text[t.start..t.end]
    }

    /// 1-based `(line, column)` of a byte offset (column counts chars).
    #[must_use]
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let line = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let col = self.text[self.line_starts[line]..offset].chars().count();
        (line + 1, col + 1)
    }

    /// 1-based line of a byte offset.
    #[must_use]
    pub fn line_of(&self, offset: usize) -> usize {
        self.line_col(offset).0
    }

    /// Whether `offset` falls inside a `#[cfg(test)]` / `#[test]` item.
    #[must_use]
    pub fn in_test_region(&self, offset: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(s, e)| offset >= s && offset < e)
    }

    /// The name of the innermost function containing `offset`, if any.
    #[must_use]
    pub fn enclosing_fn(&self, offset: usize) -> Option<&str> {
        self.fn_scopes
            .iter()
            .filter(|&&(s, e, _)| offset >= s && offset < e)
            .min_by_key(|&&(s, e, _)| e - s)
            .map(|(_, _, name)| name.as_str())
    }

    /// Whether the path equals or ends with one of the given
    /// workspace-relative paths.
    #[must_use]
    pub fn path_matches(&self, paths: &[&str]) -> bool {
        paths
            .iter()
            .any(|p| self.path == *p || self.path.ends_with(&format!("/{p}")))
    }

    /// Whether a diagnostic with `code` at 1-based `line` is suppressed.
    #[must_use]
    pub fn is_suppressed(&self, code: &str, line: usize) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.codes.iter().any(|c| c == code) && s.line.is_none_or(|l| l == line))
    }

    /// Parses every `balloc-lint:` comment: `allow(...)`, `allow-file(...)`,
    /// and `role(...)` directives. Only comments whose *content* starts with
    /// the marker count, so prose that merely mentions the syntax (like this
    /// crate's own docs) is not a directive.
    fn scan_directives(&mut self) {
        let mut suppressions = Vec::new();
        let mut bad = Vec::new();
        let mut role_override = None;
        for (i, tok) in self.tokens.iter().enumerate() {
            if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            let text = &self.text[tok.start..tok.end];
            let Some(marked) = directive_content(text) else {
                continue;
            };
            let here = self.line_col(tok.start);
            let Some(rest) = marked.strip_prefix(':') else {
                bad.push(BadDirective {
                    text: marked.to_string(),
                    at: here,
                });
                continue;
            };
            let directive = rest.trim_start();
            if let Some(rest) = directive.strip_prefix("allow-file(") {
                match parse_codes(rest) {
                    Some(codes) => suppressions.push(Suppression {
                        codes,
                        line: None,
                        at: here,
                    }),
                    None => bad.push(BadDirective {
                        text: directive.to_string(),
                        at: here,
                    }),
                }
            } else if let Some(rest) = directive.strip_prefix("allow(") {
                match parse_codes(rest) {
                    Some(codes) => suppressions.push(Suppression {
                        codes,
                        line: Some(self.target_line(i)),
                        at: here,
                    }),
                    None => bad.push(BadDirective {
                        text: directive.to_string(),
                        at: here,
                    }),
                }
            } else if let Some(rest) = directive.strip_prefix("role(") {
                match rest.split(')').next().and_then(Role::from_name) {
                    Some(role) => role_override = Some(role),
                    None => bad.push(BadDirective {
                        text: directive.to_string(),
                        at: here,
                    }),
                }
            } else {
                bad.push(BadDirective {
                    text: directive.to_string(),
                    at: here,
                });
            }
        }
        self.suppressions = suppressions;
        self.bad_directives = bad;
        if let Some(role) = role_override {
            self.role = role;
        }
    }

    /// The line an `allow(...)` comment at token index `ci` governs: its own
    /// line when code precedes it on that line (trailing comment), otherwise
    /// the next line carrying significant tokens (standalone comment above
    /// the flagged statement — intervening comment lines are skipped, so a
    /// directive's justification may wrap onto continuation lines).
    fn target_line(&self, ci: usize) -> usize {
        let line = self.line_of(self.tokens[ci].start);
        let line_start = self.line_starts[line - 1];
        let has_code_before = self.tokens[..ci]
            .iter()
            .any(|t| !t.kind.is_trivia() && t.end > line_start && t.start < self.tokens[ci].start);
        if has_code_before {
            return line;
        }
        self.tokens[ci + 1..]
            .iter()
            .find(|t| !t.kind.is_trivia())
            .map_or(line + 1, |t| self.line_of(t.start))
    }

    /// Marks the byte range of every `#[cfg(test)]` / `#[test]` item.
    fn scan_test_regions(&mut self) {
        let mut regions = Vec::new();
        let mut k = 0;
        while k < self.sig.len() {
            if let Some((body_open, after)) = self.test_attr_item(k) {
                if let Some(close) = self.matching_brace(body_open) {
                    regions.push((
                        self.tokens[self.sig[body_open]].start,
                        self.tokens[self.sig[close]].end,
                    ));
                    k = after;
                    continue;
                }
            }
            k += 1;
        }
        self.test_regions = regions;
    }

    /// If sig index `k` starts a `#[test]`-like attribute stack followed by
    /// an item with a brace body, returns `(sig index of the opening brace,
    /// sig index to resume scanning at)`.
    fn test_attr_item(&self, mut k: usize) -> Option<(usize, usize)> {
        let mut saw_test = false;
        // Consume a run of attributes, remembering if any mentions `test`.
        loop {
            if self.sig_text(k)? != "#" {
                break;
            }
            let open = k + 1;
            if self.sig_text(open)? != "[" {
                break;
            }
            let close = self.matching_bracket(open)?;
            saw_test |= (open..=close).any(|i| {
                self.sig_kind(i) == Some(TokenKind::Ident) && self.sig_text(i) == Some("test")
            });
            k = close + 1;
        }
        if !saw_test {
            return None;
        }
        // The attributed item: scan to its opening brace, giving up at a
        // `;` (e.g. `#[cfg(test)] mod tests;` or a use declaration).
        let mut i = k;
        while let Some(text) = self.sig_text(i) {
            match text {
                "{" => return Some((i, i + 1)),
                ";" => return None,
                _ => i += 1,
            }
        }
        None
    }

    /// Records `(body range, name)` for every `fn name … { … }`.
    fn scan_fn_scopes(&mut self) {
        let mut scopes = Vec::new();
        let mut k = 0;
        while k < self.sig.len() {
            if self.sig_text(k) == Some("fn") && self.sig_kind(k) == Some(TokenKind::Ident) {
                if let Some(name_i) = self.sig.get(k + 1).copied() {
                    let name_tok = self.tokens[name_i];
                    if name_tok.kind == TokenKind::Ident {
                        // Scan the signature for the body's `{`; a `;`
                        // first means a trait method declaration.
                        let name = self.text[name_tok.start..name_tok.end].to_string();
                        let mut i = k + 2;
                        let mut angle = 0i32;
                        while let Some(text) = self.sig_text(i) {
                            match text {
                                "<" => angle += 1,
                                ">" => angle -= 1,
                                // Nested generics close two levels at once
                                // (`Vec<Vec<u64>>` lexes `>>` as one token).
                                ">>" => angle -= 2,
                                ";" if angle <= 0 => break,
                                "{" => {
                                    if let Some(close) = self.matching_brace(i) {
                                        scopes.push((
                                            self.tokens[self.sig[i]].start,
                                            self.tokens[self.sig[close]].end,
                                            name,
                                        ));
                                    }
                                    break;
                                }
                                _ => {}
                            }
                            i += 1;
                        }
                    }
                }
            }
            k += 1;
        }
        self.fn_scopes = scopes;
    }

    /// Kind of the `k`-th significant token.
    #[must_use]
    pub fn sig_kind(&self, k: usize) -> Option<TokenKind> {
        self.sig.get(k).map(|&ti| self.tokens[ti].kind)
    }

    /// Text of the `k`-th significant token.
    #[must_use]
    pub fn sig_text(&self, k: usize) -> Option<&str> {
        self.sig.get(k).map(|&ti| self.text_of(ti))
    }

    /// Start offset of the `k`-th significant token.
    #[must_use]
    pub fn sig_start(&self, k: usize) -> usize {
        self.tokens[self.sig[k]].start
    }

    /// Sig index of the `}` matching the `{` at sig index `open`.
    #[must_use]
    pub fn matching_brace(&self, open: usize) -> Option<usize> {
        self.matching(open, "{", "}")
    }

    /// Sig index of the `]` matching the `[` at sig index `open`.
    #[must_use]
    pub fn matching_bracket(&self, open: usize) -> Option<usize> {
        self.matching(open, "[", "]")
    }

    /// Sig index of the `)` matching the `(` at sig index `open`.
    #[must_use]
    pub fn matching_paren(&self, open: usize) -> Option<usize> {
        self.matching(open, "(", ")")
    }

    fn matching(&self, open: usize, l: &str, r: &str) -> Option<usize> {
        debug_assert_eq!(self.sig_text(open), Some(l));
        let mut depth = 0i32;
        for k in open..self.sig.len() {
            match self.sig_text(k) {
                Some(t) if t == l => depth += 1,
                Some(t) if t == r => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(k);
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// Scans a balanced group *backwards*: given the sig index of a closing
    /// `)` or `]`, returns the sig index of its opener.
    #[must_use]
    pub fn matching_back(&self, close: usize) -> Option<usize> {
        let (l, r) = match self.sig_text(close)? {
            ")" => ("(", ")"),
            "]" => ("[", "]"),
            _ => return None,
        };
        let mut depth = 0i32;
        for k in (0..=close).rev() {
            match self.sig_text(k) {
                Some(t) if t == r => depth += 1,
                Some(t) if t == l => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(k);
                    }
                }
                _ => {}
            }
        }
        None
    }
}

/// The content of a comment with the `balloc-lint` marker as its first
/// word, with comment sigils stripped: `// balloc-lint: allow(L001)` →
/// `": allow(L001)"`. `None` for ordinary comments.
fn directive_content(text: &str) -> Option<&str> {
    let body = if let Some(rest) = text.strip_prefix("//") {
        rest
    } else if let Some(rest) = text.strip_prefix("/*") {
        rest.strip_suffix("*/").unwrap_or(rest)
    } else {
        return None;
    };
    body.trim_start_matches(['/', '!', '*', ' ', '\t'])
        .strip_prefix("balloc-lint")
}

/// Parses `L001, L005)` → `["L001", "L005"]`; `None` when the close paren
/// is missing or a code is empty.
fn parse_codes(rest: &str) -> Option<Vec<String>> {
    let inner = rest.split(')').next()?;
    if !rest.contains(')') {
        return None;
    }
    let codes: Vec<String> = inner.split(',').map(|c| c.trim().to_string()).collect();
    if codes.iter().any(String::is_empty) {
        return None;
    }
    Some(codes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_from_paths() {
        assert_eq!(Role::from_path("crates/core/src/rng.rs"), Role::Library);
        assert_eq!(Role::from_path("src/lib.rs"), Role::Library);
        assert_eq!(Role::from_path("tests/shape.rs"), Role::Test);
        assert_eq!(Role::from_path("crates/sim/tests/parallel.rs"), Role::Test);
        assert_eq!(
            Role::from_path("crates/bench/benches/fig12_1.rs"),
            Role::Bench
        );
        assert_eq!(Role::from_path("examples/quickstart.rs"), Role::Example);
        assert_eq!(
            Role::from_path("crates/bench/src/bin/balloc.rs"),
            Role::Binary
        );
        assert_eq!(Role::from_path("crates/net/src/server.rs"), Role::Reactor);
        assert_eq!(
            Role::from_path("crates/net/tests/end_to_end.rs"),
            Role::Test
        );
    }

    #[test]
    fn role_pragma_overrides_path() {
        let cx = FileContext::analyze(
            "crates/lint/tests/fixtures/x.rs",
            "// balloc-lint: role(library)\nfn f() {}\n",
        );
        assert_eq!(cx.role, Role::Library);
    }

    #[test]
    fn trailing_allow_governs_its_own_line() {
        let cx = FileContext::analyze(
            "x.rs",
            "let a = 1; // balloc-lint: allow(L001)\nlet b = 2;\n",
        );
        assert!(cx.is_suppressed("L001", 1));
        assert!(!cx.is_suppressed("L001", 2));
    }

    #[test]
    fn standalone_allow_governs_the_next_line() {
        let src = "// balloc-lint: allow(L002): justified\nlet a = 1;\nlet b = 2;\n";
        let cx = FileContext::analyze("x.rs", src);
        assert!(!cx.is_suppressed("L002", 1));
        assert!(cx.is_suppressed("L002", 2));
        assert!(!cx.is_suppressed("L002", 3));
    }

    #[test]
    fn standalone_allow_skips_continuation_comment_lines() {
        // A directive whose justification wraps onto further comment
        // lines still governs the first code line below it.
        let src = "// balloc-lint: allow(L002): a long justification that\n\
                   // wraps onto a second comment line.\n\
                   let a = 1;\n\
                   let b = 2;\n";
        let cx = FileContext::analyze("x.rs", src);
        assert!(cx.is_suppressed("L002", 3));
        assert!(!cx.is_suppressed("L002", 2));
        assert!(!cx.is_suppressed("L002", 4));
    }

    #[test]
    fn allow_file_governs_everything() {
        let cx = FileContext::analyze("x.rs", "// balloc-lint: allow-file(L005)\nfn f() {}\n");
        assert!(cx.is_suppressed("L005", 1));
        assert!(cx.is_suppressed("L005", 999));
        assert!(!cx.is_suppressed("L001", 1));
    }

    #[test]
    fn multi_code_allow() {
        let cx = FileContext::analyze("x.rs", "// balloc-lint: allow(L001, L004)\nlet a = 1;\n");
        assert!(cx.is_suppressed("L001", 2));
        assert!(cx.is_suppressed("L004", 2));
        assert!(!cx.is_suppressed("L002", 2));
    }

    #[test]
    fn malformed_directives_are_reported() {
        for src in [
            "// balloc-lint: alow(L001)\n",
            "// balloc-lint: allow(L001\n",
            "// balloc-lint: allow()\n",
            "// balloc-lint: role(nonsense)\n",
            "// balloc-lint allow(L001)\n",
        ] {
            let cx = FileContext::analyze("x.rs", src);
            assert_eq!(cx.bad_directives.len(), 1, "{src:?}");
        }
    }

    #[test]
    fn prose_mentions_are_not_directives() {
        let src = "/// Suppress with `// balloc-lint: allow(L001)` on the line.\nfn f() {}\n";
        let cx = FileContext::analyze("x.rs", src);
        assert!(cx.suppressions.is_empty());
        assert!(cx.bad_directives.is_empty());
    }

    #[test]
    fn block_comment_directives_parse() {
        let cx = FileContext::analyze("x.rs", "/* balloc-lint: allow-file(L003) */\nfn f() {}\n");
        assert!(cx.is_suppressed("L003", 2));
    }

    #[test]
    fn test_regions_cover_cfg_test_mod_and_test_fns() {
        let src = "fn lib() {}\n\
                   #[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n\
                   #[test]\nfn standalone() { body(); }\n";
        let cx = FileContext::analyze("x.rs", src);
        let lib_at = src.find("fn lib").unwrap();
        let helper_at = src.find("fn helper").unwrap();
        let body_at = src.find("body()").unwrap();
        assert!(!cx.in_test_region(lib_at));
        assert!(cx.in_test_region(helper_at));
        assert!(cx.in_test_region(body_at));
    }

    #[test]
    fn cfg_test_on_bodyless_item_is_ignored() {
        let src = "#[cfg(test)]\nuse std::fmt;\nfn after() {}\n";
        let cx = FileContext::analyze("x.rs", src);
        assert!(!cx.in_test_region(src.find("fn after").unwrap()));
    }

    #[test]
    fn enclosing_fn_tracks_nesting() {
        let src = "fn outer() {\n    fn digest_inner() { here(); }\n    there();\n}\n";
        let cx = FileContext::analyze("x.rs", src);
        assert_eq!(
            cx.enclosing_fn(src.find("here").unwrap()),
            Some("digest_inner")
        );
        assert_eq!(cx.enclosing_fn(src.find("there").unwrap()), Some("outer"));
        assert_eq!(cx.enclosing_fn(0), None);
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let src = "trait T { fn sig(&self) -> u64; }\nfn real() { x(); }\n";
        let cx = FileContext::analyze("x.rs", src);
        assert_eq!(cx.enclosing_fn(src.find("x()").unwrap()), Some("real"));
    }

    #[test]
    fn line_col_is_one_based() {
        let cx = FileContext::analyze("x.rs", "ab\ncd\n");
        assert_eq!(cx.line_col(0), (1, 1));
        assert_eq!(cx.line_col(3), (2, 1));
        assert_eq!(cx.line_col(4), (2, 2));
    }
}
