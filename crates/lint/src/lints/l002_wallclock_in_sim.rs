//! L002 `wallclock-in-sim` — simulated time must flow through `VClock`.
//!
//! Since PR 6 the serve path measures latency, deadlines, hedging delays,
//! and rate limits in virtual ticks on `balloc_serve::VClock`, which is
//! what keeps replay digests pure functions of `(config, seed)`. A stray
//! `Instant::now()` or `thread::sleep` reintroduces wall-clock dependence
//! — results change with machine load and the digest contract quietly
//! stops meaning anything. The few legitimate wall-clock sites (measuring
//! *real* throughput of the concurrent engine, test watchdogs) carry
//! per-line `allow(L002)` suppressions with justifications.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokenKind;
use crate::lints::{emit, Lint, LintInfo};
use crate::source::FileContext;

/// `(first, second, third)` token triples that read the wall clock.
const PATTERNS: &[(&str, &str, &str)] = &[
    ("Instant", "::", "now"),
    ("SystemTime", "::", "now"),
    ("thread", "::", "sleep"),
];

pub struct WallclockInSim;

static INFO: LintInfo = LintInfo {
    code: "L002",
    name: "wallclock-in-sim",
    severity: Severity::Deny,
    summary: "timing must flow through balloc_serve::VClock, not Instant/SystemTime/sleep",
};

impl Lint for WallclockInSim {
    fn info(&self) -> &'static LintInfo {
        &INFO
    }

    fn check(&self, cx: &FileContext, out: &mut Vec<Diagnostic>) {
        for k in 0..cx.sig.len() {
            if cx.sig_kind(k) != Some(TokenKind::Ident) {
                continue;
            }
            for &(head, sep, tail) in PATTERNS {
                if cx.sig_text(k) == Some(head)
                    && cx.sig_text(k + 1) == Some(sep)
                    && cx.sig_text(k + 2) == Some(tail)
                {
                    emit(
                        &INFO,
                        cx,
                        cx.sig_start(k),
                        format!(
                            "`{head}{sep}{tail}` reads the wall clock; simulated and served \
                             time must advance through balloc_serve::VClock so replay digests \
                             stay pure functions of (config, seed) (docs/LINTS.md#l002)"
                        ),
                        out,
                    );
                }
            }
        }
    }
}
