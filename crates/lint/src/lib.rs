//! `balloc-lint` — workspace-native static analysis for the determinism,
//! seeding, and virtual-clock contracts.
//!
//! The workspace's correctness story rests on contracts no compiler
//! checks: seeds derive through tagged mixers, replay digests are pure
//! functions of `(config, seed)`, served time flows through `VClock`, and
//! experiments emit through `OutputSink`. Each contract has been violated
//! by a real bug at least once (see `docs/LINTS.md` for the history);
//! this crate machine-enforces them as named lints over a hand-rolled
//! lossless token stream — no `syn`, no registry dependencies, in keeping
//! with the workspace's vendoring discipline.
//!
//! | Code | Name | Contract |
//! |------|------|----------|
//! | L000 | bad-suppression | suppression comments must parse and name known codes |
//! | L001 | seed-arithmetic | seeds derive via `core::rng` mixers, never raw arithmetic |
//! | L002 | wallclock-in-sim | timing flows through `VClock`, not `Instant`/`sleep` |
//! | L003 | nondet-iteration-in-digest | digest paths never iterate hash collections |
//! | L004 | unseeded-rng-construction | no literal seeds in library/binary code |
//! | L005 | println-in-library | libraries emit through `OutputSink`, not `println!` |
//!
//! Findings can be suppressed per line with a trailing or preceding
//! comment — `// balloc-lint: allow(L001): <justification>` — or per file
//! with `allow-file`. Unknown codes and typoed directives are themselves
//! a denial (L000), so a suppression can never silently rot.
//!
//! Run as `balloc-lint` (or `balloc lint`): walks the workspace
//! (excluding `vendor/`, `target/`, and fixture corpora), exits non-zero
//! under `--deny-all` if anything fires, and renders `--json` through the
//! workspace's own `Report` layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod diag;
pub mod lexer;
pub mod lints;
pub mod source;
pub mod walk;

pub use diag::{Diagnostic, Severity};

use source::FileContext;

/// The outcome of linting one file.
#[derive(Debug)]
pub struct FileOutcome {
    /// Findings that survived suppression, sorted by position.
    pub diagnostics: Vec<Diagnostic>,
    /// How many findings suppression comments absorbed.
    pub suppressed: usize,
}

/// Lints one source file given its workspace-relative path and contents.
///
/// Pure: no filesystem access, so tests and the fixture corpus drive it
/// directly.
#[must_use]
pub fn lint_source(rel_path: &str, text: &str) -> FileOutcome {
    let cx = FileContext::analyze(rel_path, text);
    let mut raw = Vec::new();
    for lint in lints::registry() {
        lint.check(&cx, &mut raw);
    }
    check_suppression_health(&cx, &mut raw);
    let (kept, absorbed): (Vec<_>, Vec<_>) = raw
        .into_iter()
        .partition(|d| !cx.is_suppressed(d.code, d.line));
    let mut diagnostics = kept;
    diagnostics.sort_by(|a, b| (a.line, a.col, a.code).cmp(&(b.line, b.col, b.code)));
    FileOutcome {
        diagnostics,
        suppressed: absorbed.len(),
    }
}

/// Emits L000 for malformed directives and for `allow(...)` codes that
/// name no known lint.
fn check_suppression_health(cx: &FileContext, out: &mut Vec<Diagnostic>) {
    let known = lints::known_codes();
    for bad in &cx.bad_directives {
        out.push(Diagnostic {
            code: lints::L000.code,
            name: lints::L000.name,
            severity: lints::L000.severity,
            path: cx.path.clone(),
            line: bad.at.0,
            col: bad.at.1,
            message: format!(
                "unparseable `balloc-lint` directive `{}`; expected \
                 allow(<codes>), allow-file(<codes>), or role(<role>)",
                bad.text.trim()
            ),
        });
    }
    for sup in &cx.suppressions {
        for code in &sup.codes {
            if !known.contains(&code.as_str()) {
                out.push(Diagnostic {
                    code: lints::L000.code,
                    name: lints::L000.name,
                    severity: lints::L000.severity,
                    path: cx.path.clone(),
                    line: sup.at.0,
                    col: sup.at.1,
                    message: format!(
                        "suppression names unknown lint code `{code}` (known: {})",
                        known.join(", ")
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_has_no_findings() {
        let out = lint_source("crates/x/src/lib.rs", "pub fn f(n: u64) -> u64 { n * 2 }\n");
        assert!(out.diagnostics.is_empty());
        assert_eq!(out.suppressed, 0);
    }

    #[test]
    fn findings_are_sorted_by_position() {
        let src = "fn f(seed: u64) -> u64 { let a = seed + 1; let b = seed ^ 2; a ^ b }\n";
        let out = lint_source("crates/x/src/lib.rs", src);
        assert!(out.diagnostics.len() >= 2);
        let cols: Vec<usize> = out.diagnostics.iter().map(|d| d.col).collect();
        let mut sorted = cols.clone();
        sorted.sort_unstable();
        assert_eq!(cols, sorted);
    }

    #[test]
    fn suppression_absorbs_and_counts() {
        let src = "fn f(seed: u64) -> u64 { seed + 1 } // balloc-lint: allow(L001): demo\n";
        let out = lint_source("crates/x/src/lib.rs", src);
        assert!(out.diagnostics.is_empty());
        assert_eq!(out.suppressed, 1);
    }

    #[test]
    fn unknown_code_in_allow_is_l000() {
        let src = "// balloc-lint: allow(L999)\nfn f() {}\n";
        let out = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].code, "L000");
        assert!(out.diagnostics[0].message.contains("L999"));
    }

    #[test]
    fn blessed_mixer_module_is_exempt_from_l001() {
        let src = "fn derive(master_seed: u64, tag: u64) -> u64 { master_seed ^ tag }\n";
        let out = lint_source("crates/core/src/rng.rs", src);
        assert!(out.diagnostics.is_empty());
    }
}
