//! Command-line driver shared by the `balloc-lint` binary and the
//! `balloc lint` subcommand.
//!
//! Output flows through injected `Write` handles rather than `println!`
//! so the driver itself passes L005 and stays unit-testable; `--json`
//! renders through the workspace `Report` layer like every experiment.

use std::io::{self, Write};
use std::path::PathBuf;

use balloc_sim::{OutputMode, OutputSink};
use serde::Serialize;

use crate::diag::Severity;
use crate::{lint_source, lints, walk};

/// Exit code: no effective-deny findings.
pub const EXIT_OK: i32 = 0;
/// Exit code: at least one finding at (or promoted to) deny severity.
pub const EXIT_FINDINGS: i32 = 1;
/// Exit code: bad usage or I/O failure.
pub const EXIT_USAGE: i32 = 2;

const USAGE: &str = "\
balloc-lint: static analysis for the workspace determinism contracts

USAGE:
    balloc-lint [OPTIONS] [PATHS...]

ARGS:
    [PATHS...]        files or directories to lint (default: the
                      enclosing cargo workspace, minus vendor/, target/,
                      and fixture corpora)

OPTIONS:
    --deny-all        promote warn-level lints to deny (CI mode)
    --json            machine-readable report on stdout
    --list            list the lints and exit
    --root <DIR>      lint the workspace rooted at DIR
    -h, --help        show this help

EXIT CODES:
    0  no deny-severity findings
    1  deny-severity findings present
    2  usage or I/O error

Lint catalog and suppression syntax: docs/LINTS.md
";

/// JSON artifact shape for `--json` mode, embedded in the standard
/// `Report` envelope.
#[derive(Serialize)]
struct Artifact {
    files_checked: usize,
    findings: usize,
    denials: usize,
    suppressed: usize,
    deny_all: bool,
    diagnostics: Vec<FindingArtifact>,
}

/// One finding in the JSON artifact.
#[derive(Serialize)]
struct FindingArtifact {
    code: &'static str,
    name: &'static str,
    severity: &'static str,
    path: String,
    line: usize,
    col: usize,
    message: String,
}

/// Parsed command line.
struct Options {
    deny_all: bool,
    json: bool,
    list: bool,
    root: Option<PathBuf>,
    paths: Vec<String>,
}

fn parse(argv: &[String], err: &mut dyn Write) -> Result<Option<Options>, i32> {
    let mut opts = Options {
        deny_all: false,
        json: false,
        list: false,
        root: None,
        paths: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny-all" => opts.deny_all = true,
            "--json" => opts.json = true,
            "--list" => opts.list = true,
            "--root" => match it.next() {
                Some(dir) => opts.root = Some(PathBuf::from(dir)),
                None => {
                    let _ = writeln!(err, "error: --root requires a directory argument");
                    return Err(EXIT_USAGE);
                }
            },
            "-h" | "--help" => return Ok(None),
            flag if flag.starts_with('-') => {
                let _ = writeln!(err, "error: unknown flag `{flag}`\n\n{USAGE}");
                return Err(EXIT_USAGE);
            }
            path => opts.paths.push(path.to_string()),
        }
    }
    Ok(Some(opts))
}

/// Runs the linter. Returns a process exit code; all output goes to the
/// provided handles.
///
/// A reader that closes `out` early ends the run quietly with the code it
/// would have had; any other failed write to `out` is an I/O error
/// ([`EXIT_USAGE`], with `error: writing to stdout: …` on `err`).
pub fn run(argv: &[String], out: &mut dyn Write, err: &mut dyn Write) -> i32 {
    let opts = match parse(argv, err) {
        Ok(Some(opts)) => opts,
        Ok(None) => return finish(write!(out, "{USAGE}"), EXIT_OK, out, err),
        Err(code) => return code,
    };

    if opts.list {
        return finish(write_list(out), EXIT_OK, out, err);
    }

    let root = match &opts.root {
        Some(dir) => dir.clone(),
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match walk::find_workspace_root(&cwd) {
                Some(root) => root,
                None => {
                    let _ = writeln!(
                        err,
                        "error: no enclosing cargo workspace found; pass --root <DIR>"
                    );
                    return EXIT_USAGE;
                }
            }
        }
    };

    let files = if opts.paths.is_empty() {
        match walk::workspace_files(&root) {
            Ok(files) => files,
            Err(e) => {
                let _ = writeln!(err, "error: walking {}: {e}", root.display());
                return EXIT_USAGE;
            }
        }
    } else {
        let mut files = Vec::new();
        for p in &opts.paths {
            let abs = root.join(p);
            if abs.is_dir() {
                match walk::workspace_files(&abs) {
                    Ok(sub) => files.extend(sub.into_iter().map(|f| format!("{p}/{f}"))),
                    Err(e) => {
                        let _ = writeln!(err, "error: walking {p}: {e}");
                        return EXIT_USAGE;
                    }
                }
            } else {
                files.push(p.clone());
            }
        }
        files.sort();
        files
    };

    let mut all = Vec::new();
    let mut suppressed = 0usize;
    let mut files_checked = 0usize;
    for rel in &files {
        let abs = root.join(rel);
        let text = match std::fs::read_to_string(&abs) {
            Ok(text) => text,
            Err(e) => {
                let _ = writeln!(err, "error: reading {rel}: {e}");
                return EXIT_USAGE;
            }
        };
        files_checked += 1;
        let outcome = lint_source(rel, &text);
        suppressed += outcome.suppressed;
        all.extend(outcome.diagnostics);
    }

    let denials = all
        .iter()
        .filter(|d| opts.deny_all || d.severity == Severity::Deny)
        .count();

    let written = if opts.json {
        let mut sink = OutputSink::new("lint", OutputMode::Json).with_save_dir(None);
        sink.save_artifact(&Artifact {
            files_checked,
            findings: all.len(),
            denials,
            suppressed,
            deny_all: opts.deny_all,
            diagnostics: all
                .iter()
                .map(|d| FindingArtifact {
                    code: d.code,
                    name: d.name,
                    severity: d.effective_severity(opts.deny_all).label(),
                    path: d.path.clone(),
                    line: d.line,
                    col: d.col,
                    message: d.message.clone(),
                })
                .collect(),
        });
        let report = sink.take_report();
        writeln!(out, "{}", report.to_json("docs/LINTS.md"))
    } else {
        for d in &all {
            let _ = writeln!(err, "{}", d.render(opts.deny_all));
        }
        writeln!(
            out,
            "balloc-lint: {files_checked} files checked, {} finding{}, {denials} \
             deny-level, {suppressed} suppressed",
            all.len(),
            if all.len() == 1 { "" } else { "s" },
        )
    };
    let code = if denials > 0 { EXIT_FINDINGS } else { EXIT_OK };
    finish(written, code, out, err)
}

/// The lint catalog of `--list`.
fn write_list(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "{:<6} {:<30} {:<6} SUMMARY", "CODE", "NAME", "LEVEL")?;
    writeln!(
        out,
        "{:<6} {:<30} {:<6} {}",
        lints::L000.code,
        lints::L000.name,
        lints::L000.severity.label(),
        lints::L000.summary
    )?;
    for lint in lints::registry() {
        let info = lint.info();
        writeln!(
            out,
            "{:<6} {:<30} {:<6} {}",
            info.code,
            info.name,
            info.severity.label(),
            info.summary
        )?;
    }
    Ok(())
}

/// The exit code of a run that ends with `written` on `out`: `code` when
/// the output landed or the reader closed `out` early (it has what it
/// read, and a verdict still stands), [`EXIT_USAGE`] on any other error.
fn finish(written: io::Result<()>, code: i32, out: &mut dyn Write, err: &mut dyn Write) -> i32 {
    match written.and_then(|()| out.flush()) {
        Ok(()) => code,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => code,
        Err(e) => {
            let _ = writeln!(err, "error: writing to stdout: {e}");
            EXIT_USAGE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_vec(args: &[&str]) -> (i32, String, String) {
        let argv: Vec<String> = args.iter().map(ToString::to_string).collect();
        let mut out = Vec::new();
        let mut err = Vec::new();
        let code = run(&argv, &mut out, &mut err);
        (
            code,
            String::from_utf8(out).unwrap(),
            String::from_utf8(err).unwrap(),
        )
    }

    #[test]
    fn help_exits_zero() {
        let (code, out, _) = run_vec(&["--help"]);
        assert_eq!(code, EXIT_OK);
        assert!(out.contains("balloc-lint"));
        assert!(out.contains("--deny-all"));
    }

    #[test]
    fn list_names_every_lint() {
        let (code, out, _) = run_vec(&["--list"]);
        assert_eq!(code, EXIT_OK);
        for code_name in ["L000", "L001", "L002", "L003", "L004", "L005", "L007"] {
            assert!(out.contains(code_name), "missing {code_name} in: {out}");
        }
    }

    /// A stdout whose every write fails with `kind`.
    struct Failing(io::ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(self.0.into())
        }
    }

    fn run_failing(args: &[&str], kind: io::ErrorKind) -> (i32, String) {
        let argv: Vec<String> = args.iter().map(ToString::to_string).collect();
        let mut err = Vec::new();
        let code = run(&argv, &mut Failing(kind), &mut err);
        (code, String::from_utf8(err).unwrap())
    }

    #[test]
    fn stdout_write_errors_are_io_errors() {
        for args in [&["--list"][..], &["--help"]] {
            let (code, err) = run_failing(args, io::ErrorKind::StorageFull);
            assert_eq!(code, EXIT_USAGE, "{args:?}");
            assert!(
                err.starts_with("error: writing to stdout: "),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn closed_stdout_ends_quietly_with_the_verdict() {
        for args in [&["--list"][..], &["--help"], &["--deny-all"]] {
            let (code, err) = run_failing(args, io::ErrorKind::BrokenPipe);
            assert_eq!((code, err.as_str()), (EXIT_OK, ""), "{args:?}");
        }
        let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
        let args = ["--deny-all", "--root", fixtures];
        let (code, err) = run_failing(&args, io::ErrorKind::BrokenPipe);
        assert_eq!(code, EXIT_FINDINGS);
        assert!(!err.contains("writing to stdout"), "{err}");
    }

    #[test]
    fn unknown_flag_is_usage_error() {
        let (code, _, err) = run_vec(&["--frobnicate"]);
        assert_eq!(code, EXIT_USAGE);
        assert!(err.contains("unknown flag"));
    }

    #[test]
    fn missing_root_argument_is_usage_error() {
        let (code, _, err) = run_vec(&["--root"]);
        assert_eq!(code, EXIT_USAGE);
        assert!(err.contains("--root"));
    }

    #[test]
    fn workspace_passes_deny_all() {
        let (code, out, err) = run_vec(&["--deny-all"]);
        assert_eq!(
            code, EXIT_OK,
            "workspace must be lint-clean; stderr:\n{err}"
        );
        assert!(out.contains("files checked"));
    }

    #[test]
    fn json_mode_emits_report() {
        let (code, out, _) = run_vec(&["--json"]);
        assert_eq!(code, EXIT_OK);
        assert!(out.contains("\"files_checked\""));
        assert!(out.contains("\"paper_ref\": \"docs/LINTS.md\""));
        assert!(out.contains("\"diagnostics\""));
    }
}
