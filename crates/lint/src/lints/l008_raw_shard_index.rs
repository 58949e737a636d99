//! L008 `raw-shard-index` — bin↔shard arithmetic lives in the directory.
//!
//! PR 10's elastic-membership refactor moved every piece of ownership
//! arithmetic (`bin % shards`, `s * n / shards`, `bins_per_shard`
//! block math) into [`ShardDirectory`], the epoch-versioned membership
//! map. Duplicating that arithmetic anywhere else silently re-freezes the
//! fixed-`S` assumption the refactor removed: the copy is correct exactly
//! until the first `Insert`/`Remove` changes the membership, and then it
//! routes balls to shards that no longer own them — without any error,
//! because the arithmetic still produces a valid-looking index. This lint
//! flags arithmetic operators adjacent to shard-count identifiers in
//! library and reactor code; the sanctioned fixes are `directory.slot_of`,
//! `directory.members()`, `directory.ranges()`, and
//! `directory.retarget`. `crates/serve/src/directory.rs` itself is the
//! one exempt home of the real thing.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokenKind;
use crate::lints::{emit, Lint, LintInfo};
use crate::source::{FileContext, Role};

/// Identifiers that name a shard count (or a per-shard block width) in
/// this workspace's code and in the idioms it absorbs from reviews.
const SHARD_IDENTS: &[&str] = &[
    "shards",
    "num_shards",
    "n_shards",
    "shard_count",
    "bins_per_shard",
];

/// Arithmetic operators that turn a shard count into an ownership
/// decision. (`+`/`-` alone do not map bins to shards, so they stay
/// legal — e.g. `shards - 1` as a bound.)
const OPS: &[&str] = &["%", "/", "*"];

pub struct RawShardIndex;

static INFO: LintInfo = LintInfo {
    code: "L008",
    name: "raw-shard-index",
    severity: Severity::Deny,
    summary: "bin-to-shard arithmetic belongs to ShardDirectory: use slot_of/members/ranges",
};

impl Lint for RawShardIndex {
    fn info(&self) -> &'static LintInfo {
        &INFO
    }

    fn check(&self, cx: &FileContext, out: &mut Vec<Diagnostic>) {
        if cx.role != Role::Library && cx.role != Role::Reactor {
            return;
        }
        // The directory is where the arithmetic is *supposed* to live.
        if cx.path_matches(&["crates/serve/src/directory.rs"]) {
            return;
        }
        for k in 0..cx.sig.len() {
            if cx.sig_kind(k) != Some(TokenKind::Ident) {
                continue;
            }
            let Some(text) = cx.sig_text(k) else { continue };
            if !SHARD_IDENTS.contains(&text) {
                continue;
            }
            let offset = cx.sig_start(k);
            if cx.in_test_region(offset) {
                continue;
            }
            // `shards %`, `% shards`, `shards *`, `* shards`, … — an
            // arithmetic neighbor on either side is an ownership
            // computation. A lone `*text` prefix could also be a deref,
            // but nothing in this workspace derefs a shard count, and a
            // false positive here is a cheap `allow(L008)` with a
            // justification — the right trade for a contract lint.
            let before = k.checked_sub(1).and_then(|p| cx.sig_text(p));
            let after = cx.sig_text(k + 1);
            let adjacent_op =
                before.is_some_and(|t| OPS.contains(&t)) || after.is_some_and(|t| OPS.contains(&t));
            if adjacent_op {
                emit(
                    &INFO,
                    cx,
                    offset,
                    format!(
                        "arithmetic on `{text}` re-derives bin-to-shard ownership, which \
                         goes stale the moment the membership changes; route through \
                         `ShardDirectory` (`slot_of`/`members`/`ranges`) instead \
                         (docs/LINTS.md#l008)"
                    ),
                    out,
                );
            }
        }
    }
}
