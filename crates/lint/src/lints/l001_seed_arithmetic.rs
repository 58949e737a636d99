//! L001 `seed-arithmetic` — the workspace's most-repeated bug class.
//!
//! Every RNG stream must derive through the tagged mixers in
//! `balloc_core::rng` (`point_seed`, `run_seed`, `Rng::fork`) or
//! `balloc_bench::experiment_seed`. Raw arithmetic on seed-valued
//! expressions (`base + j`, `seed ^ tag`, `experiment_seed(tag) + t`)
//! produces *shift-aligned* streams: nearby bases share almost every
//! derived seed, silently correlating results that claim independence.
//! This bit twice before the lint existed — PR 2's sweep `base + j` and
//! PR 5's multicounter `experiment_seed(tag) + t`.
//!
//! Detection: a seed-named identifier (name contains `seed`) adjacent to an
//! arithmetic/bitwise operator, on either side, including through one
//! balanced call group (`experiment_seed(tag) + t`), plus value-mangling
//! method calls (`seed.wrapping_add(1)`). The blessed mixer module is
//! exempt wholesale — it is where that arithmetic is *supposed* to live.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokenKind;
use crate::lints::{emit, Lint, LintInfo};
use crate::source::FileContext;

/// The one module allowed to do seed arithmetic: the mixers themselves.
const BLESSED: &[&str] = &["crates/core/src/rng.rs"];

/// Binary arithmetic/bitwise operators (and their compound assignments)
/// that mangle seed values. `|` is deliberately absent: it is lexically
/// ambiguous with closure parameter bars, and OR-folding has never been
/// the observed bug class; `|=` is kept since it has no closure reading.
const ARITH: &[&str] = &[
    "+", "-", "*", "/", "%", "^", "<<", ">>", "&", "+=", "-=", "*=", "/=", "%=", "^=", "<<=",
    ">>=", "&=", "|=",
];

/// Operators that also have a prefix (unary) reading and therefore require
/// an operand-shaped token on their left to count as binary.
const PREFIX_AMBIGUOUS: &[&str] = &["-", "*", "&"];

/// Method names that arithmetically transform the receiver.
const MANGLING_PREFIXES: &[&str] = &["wrapping_", "checked_", "saturating_", "overflowing_"];

/// Keywords that look like identifiers but can never be a binary operand
/// (`return *seed` is a deref, not a multiplication).
const NON_OPERAND_KEYWORDS: &[&str] = &[
    "return", "break", "continue", "if", "else", "match", "in", "let", "mut", "ref", "move",
    "while", "loop", "fn", "use", "pub", "const", "static", "where", "impl", "for", "dyn", "as",
    "yield", "box",
];

pub struct SeedArithmetic;

static INFO: LintInfo = LintInfo {
    code: "L001",
    name: "seed-arithmetic",
    severity: Severity::Deny,
    summary: "seeds must derive via the tagged mixers in core::rng, never raw arithmetic",
};

impl Lint for SeedArithmetic {
    fn info(&self) -> &'static LintInfo {
        &INFO
    }

    fn check(&self, cx: &FileContext, out: &mut Vec<Diagnostic>) {
        if cx.path_matches(BLESSED) {
            return;
        }
        for k in 0..cx.sig.len() {
            if cx.sig_kind(k) == Some(TokenKind::Punct) {
                self.check_operator(cx, k, out);
            } else if cx.sig_kind(k) == Some(TokenKind::Ident) {
                self.check_method_call(cx, k, out);
            }
        }
    }
}

impl SeedArithmetic {
    /// Flags `seedish OP _`, `_ OP seedish`, and `seedish(...) OP _`.
    fn check_operator(&self, cx: &FileContext, k: usize, out: &mut Vec<Diagnostic>) {
        let op = cx.sig_text(k).unwrap_or_default().to_string();
        if !ARITH.contains(&op.as_str()) {
            return;
        }
        if k == 0 {
            return;
        }
        // Unary readings (`&seed`, `*seed`, `-seed`) need an operand on the
        // left to count as binary arithmetic.
        if PREFIX_AMBIGUOUS.contains(&op.as_str()) && !self.is_operand(cx, k - 1) {
            return;
        }
        let seedish = self
            .seedish_ident(cx, k - 1)
            .or_else(|| self.seedish_call_head(cx, k - 1))
            .or_else(|| {
                cx.sig
                    .get(k + 1)
                    .and_then(|_| self.seedish_ident(cx, k + 1))
            });
        if let Some(name) = seedish {
            emit(
                &INFO,
                cx,
                cx.sig_start(k),
                format!(
                    "`{name}` is combined with `{op}`; derive seeds through \
                     balloc_core::rng::{{point_seed, run_seed}} or \
                     balloc_bench::experiment_seed instead (docs/LINTS.md#l001)"
                ),
                out,
            );
        }
    }

    /// Flags `seedish.wrapping_add(...)` and friends.
    fn check_method_call(&self, cx: &FileContext, k: usize, out: &mut Vec<Diagnostic>) {
        let Some(name) = self.seedish_ident(cx, k) else {
            return;
        };
        if cx.sig_text(k + 1) != Some(".") {
            return;
        }
        let Some(method) = cx.sig_text(k + 2) else {
            return;
        };
        let mangles = MANGLING_PREFIXES.iter().any(|p| method.starts_with(p))
            || method == "pow"
            || method == "abs_diff";
        if mangles && cx.sig_text(k + 3) == Some("(") {
            let method = method.to_string();
            emit(
                &INFO,
                cx,
                cx.sig_start(k),
                format!(
                    "`{name}.{method}(...)` mangles a seed value; derive seeds through \
                     balloc_core::rng::{{point_seed, run_seed}} or \
                     balloc_bench::experiment_seed instead (docs/LINTS.md#l001)"
                ),
                out,
            );
        }
    }

    /// The token at sig index `k`, if it is a seed-named identifier.
    fn seedish_ident(&self, cx: &FileContext, k: usize) -> Option<String> {
        if cx.sig_kind(k)? != TokenKind::Ident {
            return None;
        }
        let text = cx.sig_text(k)?;
        let lower = text.to_lowercase();
        if lower.contains("seed") && !NON_OPERAND_KEYWORDS.contains(&text) {
            Some(text.to_string())
        } else {
            None
        }
    }

    /// Looks through one balanced group ending at sig index `k` for a
    /// seed-named callee: `experiment_seed(tag) + t` has `)` on the
    /// operator's left with `experiment_seed` before the opener.
    fn seedish_call_head(&self, cx: &FileContext, k: usize) -> Option<String> {
        if cx.sig_text(k)? != ")" {
            return None;
        }
        let open = cx.matching_back(k)?;
        if open == 0 {
            return None;
        }
        self.seedish_ident(cx, open - 1)
    }

    /// Whether sig token `k` can terminate a left operand: a value-shaped
    /// token, not a keyword or punctuation other than closers.
    fn is_operand(&self, cx: &FileContext, k: usize) -> bool {
        match cx.sig_kind(k) {
            Some(TokenKind::Ident) => {
                !NON_OPERAND_KEYWORDS.contains(&cx.sig_text(k).unwrap_or_default())
            }
            Some(TokenKind::Num | TokenKind::Str | TokenKind::Char) => true,
            Some(TokenKind::Punct) => matches!(cx.sig_text(k), Some(")" | "]")),
            _ => false,
        }
    }
}
