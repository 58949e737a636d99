//! Shared infrastructure for the `balloc` experiment CLI.
//!
//! Every figure, table, and ablation of the paper is a module under
//! [`experiments`], registered behind the [`experiments::Experiment`]
//! trait and driven by one binary:
//!
//! ```text
//! balloc list                         # id, paper reference, description
//! balloc fig12_1 --runs 50 --n 50000  # run one experiment
//! balloc all --smoke                  # run everything at tiny parameters
//! balloc table12_4 --json             # machine-readable output
//! balloc fig12_2 --csv --out out/     # tables as CSV files
//! ```
//!
//! This crate provides:
//!
//! * [`CommonArgs`] — the shared `--flag value` parser (no external CLI
//!   crate) with the reduced *default* scale, the paper's `--full` scale,
//!   and the CI `--smoke` scale. Parse failures are [`BenchError::Usage`]
//!   values (exit code 2 with a usage hint), never panics;
//! * [`FlagSpec`] / [`ExtraArgs`] — declarative per-experiment flags;
//! * [`experiment_seed`] — the cross-experiment seeding contract;
//! * [`cli`] — the subcommand driver behind `src/bin/balloc.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::num::NonZeroUsize;
use std::path::PathBuf;

use balloc_sim::{OutputMode, OutputSink};

pub mod cli;
pub mod experiments;

/// Error type for CLI parsing and experiment execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenchError {
    /// Invalid command line — reported on stderr with a usage hint, exit
    /// code 2.
    Usage(String),
    /// A runtime failure inside an experiment — exit code 1.
    Run(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Usage(msg) | Self::Run(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        Self::Run(e.to_string())
    }
}

/// The value type of an experiment-specific flag, validated at parse time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagKind {
    /// An unsigned integer value.
    U64,
    /// A floating-point value.
    F64,
    /// A boolean switch taking no value.
    Switch,
}

/// Declaration of one experiment-specific flag (see
/// [`experiments::Experiment::extra_flags`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlagSpec {
    /// Flag name including the leading dashes, e.g. `"--g"`.
    pub name: &'static str,
    /// Value type (drives parse-time validation).
    pub kind: FlagKind,
    /// Whether the value must be strictly positive (rejected at parse
    /// time with a usage error otherwise; ignored for switches). Declared
    /// here once instead of re-checked inside every experiment.
    pub positive: bool,
    /// Default, shown in `--help` and seeded into [`ExtraArgs`] like a user
    /// value (switches ignore it).
    pub default: &'static str,
    /// One-line help text.
    pub help: &'static str,
}

/// Values of the experiment-specific flags declared via [`FlagSpec`] (or
/// their defaults), validated during [`CommonArgs::parse_from`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExtraArgs(BTreeMap<&'static str, String>);

impl ExtraArgs {
    /// Every value flag of `extra` at its declared default.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Usage`] if a default fails its flag's kind
    /// or `positive` rule.
    pub fn defaults(extra: &[FlagSpec]) -> Result<Self, BenchError> {
        let mut out = Self::default();
        for spec in extra.iter().filter(|spec| spec.kind != FlagKind::Switch) {
            out.0.insert(spec.name, validated(spec, spec.default)?);
        }
        Ok(out)
    }

    /// The value of a declared integer flag (panics on an undeclared one).
    #[must_use]
    pub fn u64(&self, name: &str) -> u64 {
        self.0[name].parse().expect("validated at parse time")
    }

    /// The value of a declared float flag (panics on an undeclared one).
    #[must_use]
    pub fn f64(&self, name: &str) -> f64 {
        self.0[name].parse().expect("validated at parse time")
    }

    /// Whether a switch flag was provided.
    #[must_use]
    pub fn switch(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

/// Command-line options shared by all experiments.
///
/// Defaults are the *reduced* scale documented in DESIGN.md (`n = 10⁴`,
/// `m = 200·n`, 25 runs); `--full` switches to the paper's Section 12
/// parameters (`m = 1000·n`, 100 runs — expect hours of CPU time) and
/// `--smoke` to the tiny CI scale (`n = 128`, `m = 10·n`, 2 runs).
#[derive(Debug, Clone, PartialEq)]
pub struct CommonArgs {
    /// Number of bins.
    pub n: usize,
    /// Balls per bin (`m = balls_per_bin · n`).
    pub balls_per_bin: u64,
    /// Repetitions per configuration.
    pub runs: usize,
    /// Worker threads for `balloc_sim::{repeat, repeat_grid, sweep}`.
    /// `--threads 0` resolves to all available cores.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Paper-scale mode.
    pub full: bool,
    /// Tiny-parameter CI mode.
    pub smoke: bool,
    /// Output rendering selected by `--json` / `--csv`.
    pub output: OutputMode,
    /// Directory `--csv` files are written to (`--out <dir>`).
    pub out_dir: Option<PathBuf>,
    /// Experiment-specific flag values.
    pub extras: ExtraArgs,
}

impl Default for CommonArgs {
    fn default() -> Self {
        Self {
            n: 10_000,
            balls_per_bin: 200,
            runs: 25,
            threads: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            seed: 2022,
            full: false,
            smoke: false,
            output: OutputMode::Text,
            out_dir: None,
            extras: ExtraArgs::default(),
        }
    }
}

/// Result of a successful [`CommonArgs::parse_from`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParseOutcome {
    /// Parsed arguments.
    Args(CommonArgs),
    /// `--help` was requested; the payload is the rendered help text.
    Help(String),
}

/// Flags common to every experiment (help text, typo suggestions, and the
/// registry test's no-shadowing check against experiment extras).
pub const COMMON_FLAGS: &[&str] = &[
    "--n",
    "--balls-per-bin",
    "--runs",
    "--threads",
    "--seed",
    "--full",
    "--smoke",
    "--json",
    "--csv",
    "--out",
    "--help",
];

impl CommonArgs {
    /// Parses an explicit argument iterator against the common flags plus
    /// the experiment's `extra` flag declarations.
    ///
    /// The `--full` / `--smoke` scale presets apply *before* any explicit
    /// `--n`/`--balls-per-bin`/`--runs`, regardless of where they appear
    /// on the command line — `--n 500 --smoke` and `--smoke --n 500` both
    /// run at n = 500.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Usage`] on unknown flags (with a
    /// nearest-match suggestion for likely misspellings), missing or
    /// unparsable values, and out-of-range parameters.
    pub fn parse_from<I: Iterator<Item = String>>(
        description: &str,
        extra: &[FlagSpec],
        mut args: I,
    ) -> Result<ParseOutcome, BenchError> {
        // Tokenize first, apply after: explicit flags must win over the
        // --full/--smoke presets wherever they appear on the line.
        enum Op {
            N(usize),
            BallsPerBin(u64),
            Runs(usize),
            Threads(usize),
            Seed(u64),
            Json,
            Csv,
            Out(PathBuf),
            Extra(&'static str, String),
        }
        let mut ops = Vec::new();
        let mut full = false;
        let mut smoke = false;
        let mut saw_json = false;
        let mut saw_csv = false;
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--help" | "-h" => return Ok(ParseOutcome::Help(help_text(description, extra))),
                "--full" => full = true,
                "--smoke" => smoke = true,
                "--json" => {
                    saw_json = true;
                    ops.push(Op::Json);
                }
                "--csv" => {
                    saw_csv = true;
                    ops.push(Op::Csv);
                }
                "--out" => ops.push(Op::Out(PathBuf::from(value_for(&flag, args.next())?))),
                "--n" => ops.push(Op::N(parse_value(&flag, args.next())?)),
                "--balls-per-bin" => ops.push(Op::BallsPerBin(parse_value(&flag, args.next())?)),
                "--runs" => ops.push(Op::Runs(parse_value(&flag, args.next())?)),
                "--threads" => ops.push(Op::Threads(parse_value(&flag, args.next())?)),
                "--seed" => ops.push(Op::Seed(parse_value(&flag, args.next())?)),
                other => match extra.iter().find(|spec| spec.name == other) {
                    Some(spec) => {
                        let raw = match spec.kind {
                            FlagKind::Switch => "true".to_string(),
                            FlagKind::U64 | FlagKind::F64 => {
                                validated(spec, &value_for(&flag, args.next())?)?
                            }
                        };
                        ops.push(Op::Extra(spec.name, raw));
                    }
                    None => return Err(unknown_flag(other, extra)),
                },
            }
        }
        if full && smoke {
            return Err(BenchError::Usage(
                "--full and --smoke are mutually exclusive".into(),
            ));
        }
        if saw_json && saw_csv {
            return Err(BenchError::Usage(
                "--json and --csv are mutually exclusive".into(),
            ));
        }
        let mut out = Self {
            extras: ExtraArgs::defaults(extra)?,
            ..Self::default()
        };
        if full {
            out.full = true;
            out.balls_per_bin = 1_000;
            out.runs = 100;
        }
        if smoke {
            out.smoke = true;
            out.n = 128;
            out.balls_per_bin = 10;
            out.runs = 2;
        }
        for op in ops {
            match op {
                Op::N(v) => out.n = v,
                Op::BallsPerBin(v) => out.balls_per_bin = v,
                Op::Runs(v) => out.runs = v,
                Op::Threads(v) => out.threads = v,
                Op::Seed(v) => out.seed = v,
                Op::Json => out.output = OutputMode::Json,
                Op::Csv => out.output = OutputMode::Csv,
                Op::Out(dir) => out.out_dir = Some(dir),
                Op::Extra(name, raw) => {
                    out.extras.0.insert(name, raw);
                }
            }
        }
        if out.threads == 0 {
            out.threads = Self::default().threads;
        }
        if out.n < 2 {
            return Err(BenchError::Usage(
                "--n must be at least 2 (Two-Choice needs two bins)".into(),
            ));
        }
        if out.balls_per_bin == 0 {
            return Err(BenchError::Usage(
                "--balls-per-bin must be positive (m = balls_per_bin * n)".into(),
            ));
        }
        if out.runs == 0 {
            return Err(BenchError::Usage("--runs must be positive".into()));
        }
        if out.out_dir.is_some() && out.output != OutputMode::Csv {
            return Err(BenchError::Usage(
                "--out only applies to --csv output".into(),
            ));
        }
        Ok(ParseOutcome::Args(out))
    }

    /// Total balls `m = balls_per_bin · n`.
    #[must_use]
    pub fn m(&self) -> u64 {
        self.balls_per_bin * self.n as u64
    }

    /// One-line description of the scale, for report headers.
    #[must_use]
    pub fn scale_line(&self) -> String {
        let suffix = if self.full {
            " (paper scale)"
        } else if self.smoke {
            " (smoke scale)"
        } else {
            ""
        };
        format!(
            "n = {}, m = {}·n = {}, runs = {}, threads = {}, seed = {}{}",
            self.n,
            self.balls_per_bin,
            self.m(),
            self.runs,
            self.threads,
            self.seed,
            suffix,
        )
    }
}

/// `raw` as a value of the value flag `spec`, checked against its kind
/// and its `positive` rule.
fn validated(spec: &FlagSpec, raw: &str) -> Result<String, BenchError> {
    let flag = spec.name;
    let invalid =
        |e: &dyn fmt::Display| BenchError::Usage(format!("invalid value for {flag}: {e}"));
    let positive = match spec.kind {
        FlagKind::U64 => raw.parse::<u64>().map_err(|e| invalid(&e))? > 0,
        FlagKind::F64 => {
            let v = raw.parse::<f64>().map_err(|e| invalid(&e))?;
            if !v.is_finite() {
                return Err(invalid(&"must be finite"));
            }
            v > 0.0
        }
        FlagKind::Switch => true,
    };
    if spec.positive && !positive {
        return Err(BenchError::Usage(format!("{flag} must be positive")));
    }
    Ok(raw.to_string())
}

fn value_for(flag: &str, value: Option<String>) -> Result<String, BenchError> {
    value.ok_or_else(|| BenchError::Usage(format!("flag {flag} needs a value")))
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, BenchError>
where
    T::Err: fmt::Display,
{
    value_for(flag, value)?
        .parse()
        .map_err(|e| BenchError::Usage(format!("invalid value for {flag}: {e}")))
}

fn unknown_flag(flag: &str, extra: &[FlagSpec]) -> BenchError {
    let known = COMMON_FLAGS
        .iter()
        .copied()
        .chain(extra.iter().map(|spec| spec.name));
    let hint = match nearest(flag, known) {
        Some(candidate) => format!("did you mean `{candidate}`?"),
        None => "try --help".to_string(),
    };
    BenchError::Usage(format!("unknown flag `{flag}` ({hint})"))
}

/// The closest known flag within edit distance 2, for typo suggestions.
fn nearest<'a>(flag: &str, known: impl Iterator<Item = &'a str>) -> Option<&'a str> {
    known
        .map(|k| (edit_distance(flag, k), k))
        .min_by_key(|&(d, _)| d)
        .filter(|&(d, _)| d <= 2)
        .map(|(_, k)| k)
}

/// Levenshtein distance (insert/delete/substitute, unit costs).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            curr[j + 1] = sub.min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Renders the `--help` text for an experiment.
fn help_text(description: &str, extra: &[FlagSpec]) -> String {
    let d = CommonArgs::default();
    let mut out = format!(
        "{description}\n\n\
         Options:\n  \
         --n <bins>             number of bins (default {})\n  \
         --balls-per-bin <k>    m = k*n (default {})\n  \
         --runs <r>             repetitions (default {})\n  \
         --threads <t>          simulation worker threads (default/0: all cores)\n  \
         --seed <s>             master seed (default {})\n  \
         --full                 paper-scale parameters (m = 1000n, 100 runs)\n  \
         --smoke                tiny CI parameters (n = 128, m = 10n, 2 runs)\n  \
         --json                 emit one JSON document instead of text\n  \
         --csv                  emit recorded tables as CSV\n  \
         --out <dir>            write --csv tables to files under <dir>",
        d.n, d.balls_per_bin, d.runs, d.seed
    );
    if !extra.is_empty() {
        out.push_str("\n\nExperiment flags:");
        for spec in extra {
            let name = match spec.kind {
                FlagKind::Switch => spec.name.to_string(),
                _ => format!("{} <v>", spec.name),
            };
            out.push_str(&format!(
                "\n  {name:<22} {} (default {})",
                spec.help, spec.default
            ));
        }
    }
    out
}

/// Derives a per-experiment (or per-arm) base seed by folding a domain tag
/// into the user's `--seed`.
///
/// Every experiment passes the shared `--seed` (default 2022) through this
/// with its own tag (e.g. `"fig12_2/one_choice"`) before deriving point
/// and run seeds, so two *different* experiments run at the same `--seed`
/// never share seed streams — the cross-experiment analogue of
/// [`balloc_core::rng::point_seed`]'s adjacent-base decorrelation. Same
/// tag + same seed is stable, which keeps every experiment reproducible.
#[must_use]
pub fn experiment_seed(tag: &str, seed: u64) -> u64 {
    // FNV-1a over the tag, then through the point_seed mixer with the
    // digest as the index, so tag and seed both pass a full avalanche.
    let mut digest = balloc_core::rng::Fnv1a::new();
    digest.write_bytes(tag.as_bytes());
    balloc_core::rng::point_seed(seed, digest.finish())
}

/// Formats a float with three decimals for tables.
#[must_use]
pub fn fmt3(x: f64) -> String {
    format!("{x:.3}")
}

/// Emits the standard experiment header through the sink.
pub fn emit_header(sink: &mut OutputSink, id: &str, title: &str, args: &CommonArgs) {
    sink.line(format!("== {id}: {title} =="));
    sink.line(args.scale_line());
    sink.blank();
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXTRA: &[FlagSpec] = &[
        FlagSpec {
            name: "--g",
            kind: FlagKind::U64,
            positive: true,
            default: "4",
            help: "noise budget",
        },
        FlagSpec {
            name: "--sigma",
            kind: FlagKind::F64,
            positive: true,
            default: "5",
            help: "noise scale",
        },
    ];

    fn args(v: &[&str]) -> CommonArgs {
        match CommonArgs::parse_from("test", EXTRA, v.iter().map(|s| s.to_string())).unwrap() {
            ParseOutcome::Args(a) => a,
            ParseOutcome::Help(_) => panic!("unexpected help"),
        }
    }

    fn usage_err(v: &[&str]) -> String {
        match CommonArgs::parse_from("test", EXTRA, v.iter().map(|s| s.to_string())) {
            Err(BenchError::Usage(msg)) => msg,
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn defaults_are_reduced_scale() {
        let a = args(&[]);
        assert_eq!(a.n, 10_000);
        assert_eq!(a.balls_per_bin, 200);
        assert_eq!(a.runs, 25);
        assert!(!a.full);
        assert_eq!(a.m(), 2_000_000);
        assert_eq!(a.output, OutputMode::Text);
    }

    #[test]
    fn full_flag_switches_to_paper_scale() {
        let a = args(&["--full"]);
        assert!(a.full);
        assert_eq!(a.balls_per_bin, 1_000);
        assert_eq!(a.runs, 100);
    }

    #[test]
    fn smoke_flag_switches_to_tiny_scale() {
        let a = args(&["--smoke"]);
        assert!(a.smoke);
        assert_eq!(a.n, 128);
        assert_eq!(a.balls_per_bin, 10);
        assert_eq!(a.runs, 2);
        assert!(a.scale_line().contains("(smoke scale)"));
    }

    #[test]
    fn full_and_smoke_are_mutually_exclusive() {
        assert!(usage_err(&["--full", "--smoke"]).contains("mutually exclusive"));
        assert!(usage_err(&["--smoke", "--full"]).contains("mutually exclusive"));
    }

    #[test]
    fn smoke_then_override() {
        let a = args(&["--smoke", "--runs", "2", "--n", "64"]);
        assert_eq!(a.n, 64);
        assert_eq!(a.runs, 2);
    }

    #[test]
    fn explicit_flags_beat_presets_regardless_of_order() {
        let a = args(&["--n", "500", "--smoke"]);
        assert!(a.smoke);
        assert_eq!(a.n, 500);
        assert_eq!(a.runs, 2); // untouched fields still take the preset
        let a = args(&["--runs", "10", "--full"]);
        assert!(a.full);
        assert_eq!(a.runs, 10);
        assert_eq!(a.balls_per_bin, 1_000);
    }

    #[test]
    fn explicit_flags_override() {
        let a = args(&[
            "--n",
            "500",
            "--runs",
            "7",
            "--seed",
            "99",
            "--threads",
            "2",
        ]);
        assert_eq!(a.n, 500);
        assert_eq!(a.runs, 7);
        assert_eq!(a.seed, 99);
        assert_eq!(a.threads, 2);
    }

    #[test]
    fn zero_threads_resolves_to_all_cores() {
        let a = args(&["--threads", "0"]);
        assert!(a.threads >= 1);
        assert_eq!(a.threads, CommonArgs::default().threads);
    }

    #[test]
    fn full_then_override_runs() {
        let a = args(&["--full", "--runs", "10"]);
        assert!(a.full);
        assert_eq!(a.runs, 10);
    }

    #[test]
    fn output_mode_flags() {
        assert_eq!(args(&["--json"]).output, OutputMode::Json);
        let a = args(&["--csv", "--out", "somewhere"]);
        assert_eq!(a.output, OutputMode::Csv);
        assert_eq!(
            a.out_dir.as_deref(),
            Some(std::path::Path::new("somewhere"))
        );
    }

    #[test]
    fn out_without_csv_is_rejected() {
        assert!(usage_err(&["--out", "dir"]).contains("--out only applies to --csv"));
    }

    #[test]
    fn json_and_csv_are_mutually_exclusive() {
        assert!(usage_err(&["--json", "--csv"]).contains("mutually exclusive"));
        assert!(usage_err(&["--csv", "--json"]).contains("mutually exclusive"));
    }

    #[test]
    fn unknown_flag_is_clean_usage_error() {
        let msg = usage_err(&["--bogusness"]);
        assert!(msg.contains("unknown flag `--bogusness`"), "{msg}");
        assert!(msg.contains("try --help"), "{msg}");
    }

    #[test]
    fn misspelled_flag_gets_a_suggestion() {
        let msg = usage_err(&["--sed", "7"]);
        assert!(msg.contains("did you mean `--seed`?"), "{msg}");
        let msg = usage_err(&["--smoke", "--sgma", "2"]);
        assert!(msg.contains("did you mean `--sigma`?"), "{msg}");
    }

    #[test]
    fn zero_balls_per_bin_rejected() {
        // m = 0 would make every parameter filter empty and panic deep in
        // sweep(); reject it at the shared parser instead.
        assert!(usage_err(&["--balls-per-bin", "0"]).contains("--balls-per-bin must be positive"));
    }

    #[test]
    fn zero_n_and_zero_runs_rejected() {
        for n in ["0", "1"] {
            assert!(usage_err(&["--n", n]).contains("--n must be at least 2"));
        }
        assert!(usage_err(&["--runs", "0"]).contains("--runs must be positive"));
    }

    #[test]
    fn missing_value_is_usage_error() {
        assert!(usage_err(&["--n"]).contains("needs a value"));
    }

    #[test]
    fn bad_value_is_usage_error() {
        assert!(usage_err(&["--n", "lots"]).contains("invalid value for --n"));
        assert!(usage_err(&["--g", "-3"]).contains("invalid value for --g"));
        assert!(usage_err(&["--sigma", "nope"]).contains("invalid value for --sigma"));
    }

    #[test]
    fn positive_extra_flags_reject_zero_and_negatives_at_parse_time() {
        assert!(usage_err(&["--g", "0"]).contains("--g must be positive"));
        assert!(usage_err(&["--sigma", "0"]).contains("--sigma must be positive"));
        assert!(usage_err(&["--sigma", "-2.5"]).contains("--sigma must be positive"));
    }

    #[test]
    fn extra_flags_parse_and_read_back() {
        let a = args(&["--g", "9", "--sigma", "2.5"]);
        assert_eq!(a.extras.u64("--g"), 9);
        assert_eq!(a.extras.f64("--sigma"), 2.5);
        let absent = args(&[]);
        assert_eq!(absent.extras.u64("--g"), 4, "the declared default");
        assert_eq!(absent.extras.f64("--sigma"), 5.0, "the declared default");
    }

    #[test]
    fn help_lists_common_and_extra_flags() {
        let outcome =
            CommonArgs::parse_from("demo", EXTRA, ["--help".to_string()].into_iter()).unwrap();
        let ParseOutcome::Help(text) = outcome else {
            panic!("expected help");
        };
        assert!(text.starts_with("demo"));
        assert!(text.contains("--balls-per-bin"));
        assert!(text.contains("--smoke"));
        assert!(text.contains("--g"));
        assert!(text.contains("noise budget"));
    }

    #[test]
    fn scale_line_mentions_everything() {
        let line = args(&["--n", "123"]).scale_line();
        assert!(line.contains("n = 123"));
        assert!(line.contains("runs"));
    }

    #[test]
    fn fmt3_rounds() {
        assert_eq!(fmt3(1.23456), "1.235");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("--seed", "--seed"), 0);
        assert_eq!(edit_distance("--sed", "--seed"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
    }

    #[test]
    fn experiment_seeds_are_stable_and_tag_separated() {
        assert_eq!(
            experiment_seed("fig12_2", 2022),
            experiment_seed("fig12_2", 2022)
        );
        assert_ne!(
            experiment_seed("fig12_2", 2022),
            experiment_seed("table12_4", 2022)
        );
        assert_ne!(
            experiment_seed("fig12_2", 2022),
            experiment_seed("fig12_2", 2023)
        );
        // Tagged bases stay apart even under the point_seed layer: the
        // first few point masters of two experiments never collide.
        for j in 0..16u64 {
            assert_ne!(
                balloc_core::rng::point_seed(experiment_seed("a", 7), j),
                balloc_core::rng::point_seed(experiment_seed("b", 7), j),
            );
        }
    }
}
