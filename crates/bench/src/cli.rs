//! The `balloc` subcommand driver.
//!
//! ```text
//! balloc list [--markdown | --ids]   registered experiments
//! balloc all [flags]                 run every experiment (CI: --smoke)
//! balloc <id> [flags]                run one experiment
//! ```
//!
//! Exit codes: `0` success, `1` experiment failure, `2` usage error. A
//! reader that closes stdout early (`balloc list | head -1`) ends the run
//! quietly with `0`; any other failed write to stdout is a failure.

use std::fmt::Display;
use std::io::{self, Write};

use balloc_sim::{OutputMode, OutputSink, Report, TextTable};

use crate::experiments::{self, Experiment};
use crate::{BenchError, CommonArgs, ExtraArgs, ParseOutcome};

/// Exit code for usage errors.
pub const EXIT_USAGE: i32 = 2;

/// How a dispatch failed, driving what gets printed alongside the error.
enum Failure {
    /// Bad command line — show the global usage (or was already shown
    /// parse-side help).
    UsageTop(String),
    /// Bad experiment parameter caught *at runtime* (range checks the
    /// declarative flag layer cannot express) — point at the
    /// experiment's own `--help` instead of dumping the global usage.
    UsageRun(String),
    /// Experiment runtime failure.
    Run(String),
    /// The reader closed stdout: nothing is left to print to.
    Closed,
}

/// Classifies a failed write to stdout.
fn stdout_failure(e: &io::Error) -> Failure {
    match e.kind() {
        io::ErrorKind::BrokenPipe => Failure::Closed,
        _ => Failure::Run(format!("writing to stdout: {e}")),
    }
}

/// Writes `text` to stdout, like `print!`, but hands a failed write back
/// instead of panicking on it.
fn print(text: impl Display) -> Result<(), Failure> {
    write!(io::stdout(), "{text}").map_err(|e| stdout_failure(&e))
}

/// Writes `text` and a newline to stdout (see [`print`]).
fn println(text: impl Display) -> Result<(), Failure> {
    print(format_args!("{text}\n"))
}

/// Runs the CLI on an explicit argument list (`std::env::args().skip(1)`),
/// returning the process exit code.
#[must_use]
pub fn run(argv: Vec<String>) -> i32 {
    // `balloc lint` is the static-analysis pass, not an experiment —
    // delegate to its driver (same binary CI runs as `balloc-lint`).
    if argv.first().map(String::as_str) == Some("lint") {
        let mut out = std::io::stdout();
        let mut err = std::io::stderr();
        return balloc_lint::cli::run(&argv[1..], &mut out, &mut err);
    }
    match dispatch(argv) {
        Ok(()) | Err(Failure::Closed) => 0,
        Err(Failure::UsageTop(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{}", usage());
            EXIT_USAGE
        }
        Err(Failure::UsageRun(msg)) => {
            eprintln!("error: {msg}");
            EXIT_USAGE
        }
        Err(Failure::Run(msg)) => {
            eprintln!("error: {msg}");
            1
        }
    }
}

/// Maps an error escaping a *running* experiment: usage errors keep exit
/// code 2 but reference the experiment's own help.
fn runtime_failure(exp: &dyn Experiment, e: BenchError) -> Failure {
    match e {
        BenchError::Usage(msg) => {
            Failure::UsageRun(format!("{msg} (see `balloc {} --help`)", exp.id()))
        }
        BenchError::Run(msg) => Failure::Run(msg),
    }
}

fn dispatch(argv: Vec<String>) -> Result<(), Failure> {
    let mut argv = argv.into_iter();
    let Some(command) = argv.next() else {
        return println(usage());
    };
    match command.as_str() {
        "--help" | "-h" | "help" => println(usage()),
        "list" => list(argv),
        "all" => run_all(argv),
        id => match experiments::find(id) {
            Some(exp) => run_one(exp, argv),
            None => {
                let hint = match nearest_id(id) {
                    Some(candidate) => format!("did you mean `{candidate}`?"),
                    None => "see `balloc list`".to_string(),
                };
                Err(Failure::UsageTop(format!(
                    "unknown subcommand `{id}` ({hint})"
                )))
            }
        },
    }
}

/// The closest experiment id within edit distance 3 (ids are long, so a
/// slightly looser threshold than flag suggestions).
fn nearest_id(id: &str) -> Option<&'static str> {
    experiments::registry()
        .iter()
        .map(|e| (crate::edit_distance(id, e.id()), e.id()))
        .min_by_key(|&(d, _)| d)
        .filter(|&(d, _)| d <= 3)
        .map(|(_, eid)| eid)
}

fn usage() -> String {
    let mut out = String::from(
        "balloc — reproduce the figures, tables, and ablations of\n\
         'Balanced Allocations with the Choice of Noise' (Los & Sauerwald, PODC 2022)\n\
         \n\
         Usage:\n  \
         balloc list [--markdown | --ids]   list registered experiments\n  \
         balloc <experiment> [flags]        run one experiment (--help for its flags)\n  \
         balloc all [flags]                 run every experiment in paper order\n  \
         balloc lint [--deny-all --json]    static analysis: determinism contracts\n\
         \n\
         Common flags: --n --balls-per-bin --runs --threads --seed --full --smoke\n\
         Output:       --json | --csv [--out <dir>]   (default: human text +\n\
         \u{20}             JSON artifact under target/experiments/)\n\
         \n\
         Experiments:\n",
    );
    for exp in experiments::registry() {
        out.push_str(&format!(
            "  {:<22} {:<14} {}\n",
            exp.id(),
            short_ref(exp.paper_ref()),
            exp.description()
        ));
    }
    out.pop();
    out
}

/// The figure/table part of a paper reference (`"Ablation A2 (Theorem
/// 10.2, …)"` → `"Ablation A2"`), for compact listings.
fn short_ref(paper_ref: &str) -> &str {
    paper_ref
        .split_once(" (")
        .map_or(paper_ref, |(head, _)| head)
}

fn list(argv: impl Iterator<Item = String>) -> Result<(), Failure> {
    let mut markdown = false;
    let mut ids_only = false;
    for flag in argv {
        match flag.as_str() {
            "--markdown" => markdown = true,
            "--ids" => ids_only = true,
            other => {
                return Err(Failure::UsageTop(format!(
                    "unknown flag `{other}` for `balloc list` (expected --markdown or --ids)"
                )))
            }
        }
    }
    if ids_only {
        for exp in experiments::registry() {
            println(exp.id())?;
        }
    } else if markdown {
        print(markdown_table())?;
    } else {
        let mut table = TextTable::new(vec![
            "experiment".into(),
            "paper artifact".into(),
            "description".into(),
        ]);
        for exp in experiments::registry() {
            table.push_row(vec![
                exp.id().to_string(),
                exp.paper_ref().to_string(),
                exp.description().to_string(),
            ]);
        }
        println(table.render())?;
        println(format_args!(
            "{} experiments; run one with `balloc <experiment>`, everything with `balloc all`.",
            experiments::registry().len()
        ))?;
    }
    Ok(())
}

/// The subcommand ↔ paper artifact ↔ module table embedded in
/// `docs/PAPER_MAP.md` (kept in sync by CI via `balloc list --markdown`).
#[must_use]
pub fn markdown_table() -> String {
    let mut out = String::from("| Subcommand | Paper artifact | Module |\n|---|---|---|\n");
    for exp in experiments::registry() {
        out.push_str(&format!(
            "| `balloc {}` | {} | `crates/bench/src/experiments/{}.rs` |\n",
            exp.id(),
            exp.paper_ref(),
            exp.id()
        ));
    }
    out
}

fn parse(
    exp: &dyn Experiment,
    argv: impl Iterator<Item = String>,
) -> Result<Option<CommonArgs>, Failure> {
    let description = format!("{}: {} ({})", exp.id(), exp.description(), exp.paper_ref());
    match CommonArgs::parse_from(&description, exp.extra_flags(), argv)
        .map_err(|e| Failure::UsageTop(e.to_string()))?
    {
        ParseOutcome::Help(text) => {
            println(text)?;
            Ok(None)
        }
        ParseOutcome::Args(args) => Ok(Some(args)),
    }
}

fn run_one(exp: &dyn Experiment, argv: impl Iterator<Item = String>) -> Result<(), Failure> {
    let Some(args) = parse(exp, argv)? else {
        return Ok(());
    };
    let report = execute(exp, &args)?;
    render(exp, &report, &args)
}

fn run_all(argv: impl Iterator<Item = String>) -> Result<(), Failure> {
    // `all` accepts the common flags only; per-experiment extras keep
    // their defaults.
    let outcome = CommonArgs::parse_from(
        "all: run every registered experiment in paper order",
        &[],
        argv,
    )
    .map_err(|e| Failure::UsageTop(e.to_string()))?;
    match outcome {
        ParseOutcome::Help(text) => println(text),
        ParseOutcome::Args(args) => {
            let registry = experiments::registry();
            let mut reports = Vec::new();
            for (i, exp) in registry.iter().enumerate() {
                if args.output == OutputMode::Text {
                    if i > 0 {
                        println("")?;
                    }
                    let header = format!("[{}/{}] balloc {}", i + 1, registry.len(), exp.id());
                    println(header)?;
                }
                let exp_args = CommonArgs {
                    extras: ExtraArgs::defaults(exp.extra_flags())
                        .map_err(|e| runtime_failure(*exp, e))?,
                    ..args.clone()
                };
                reports.push(execute(*exp, &exp_args)?);
            }
            match args.output {
                OutputMode::Text => Ok(()),
                OutputMode::Json => {
                    let docs: Vec<String> = registry
                        .iter()
                        .zip(&reports)
                        .map(|(exp, report)| indent(&report.to_json(exp.paper_ref()), "  "))
                        .collect();
                    println(format_args!("[\n{}\n]", docs.join(",\n")))
                }
                OutputMode::Csv => {
                    for (i, (exp, report)) in registry.iter().zip(&reports).enumerate() {
                        // Keep the blank-line delimiter render_csv uses
                        // between tables across experiment boundaries too.
                        if i > 0 && args.out_dir.is_none() {
                            println("")?;
                        }
                        render(*exp, report, &args)?;
                    }
                    Ok(())
                }
            }
        }
    }
}

fn execute(exp: &dyn Experiment, args: &CommonArgs) -> Result<Report, Failure> {
    let mut sink = OutputSink::new(exp.id(), args.output);
    let report = exp.run(args, &mut sink);
    // A closed stdout outranks the run's own result: nobody reads it.
    if let Some(e) = sink.stdout_error() {
        return Err(stdout_failure(e));
    }
    report.map_err(|e| runtime_failure(exp, e))
}

/// Renders a finished report for the non-text modes (text mode already
/// streamed while running).
fn render(exp: &dyn Experiment, report: &Report, args: &CommonArgs) -> Result<(), Failure> {
    match args.output {
        OutputMode::Text => Ok(()),
        OutputMode::Json => println(report.to_json(exp.paper_ref())),
        OutputMode::Csv => match &args.out_dir {
            Some(dir) => {
                let paths = report
                    .write_csv_files(dir)
                    .map_err(|e| Failure::Run(format!("writing CSV files: {e}")))?;
                for path in paths {
                    eprintln!("wrote {}", path.display());
                }
                Ok(())
            }
            None => print(report.render_csv()),
        },
    }
}

fn indent(s: &str, pad: &str) -> String {
    s.lines()
        .map(|l| format!("{pad}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_every_experiment() {
        let text = usage();
        for exp in experiments::registry() {
            assert!(text.contains(exp.id()), "usage is missing {}", exp.id());
        }
        assert!(
            text.contains("balloc lint"),
            "usage is missing the lint subcommand"
        );
    }

    #[test]
    fn nearest_id_suggests_for_typos() {
        assert_eq!(nearest_id("fig121"), Some("fig12_1"));
        assert_eq!(nearest_id("tabel11_1"), Some("table11_1"));
        assert_eq!(nearest_id("completely_unrelated"), None);
    }

    #[test]
    fn markdown_table_has_one_row_per_experiment() {
        let md = markdown_table();
        // Header + separator + one row per experiment.
        assert_eq!(
            md.trim_end().lines().count(),
            experiments::registry().len() + 2
        );
        assert!(md.contains("| `balloc fig12_1` | Figure 12.1 |"));
    }

    #[test]
    fn short_ref_strips_theorem_lists() {
        assert_eq!(short_ref("Ablation A2 (Theorem 10.2)"), "Ablation A2");
        assert_eq!(short_ref("Figure 12.1"), "Figure 12.1");
    }
}
