//! Regenerates **Table 2.3** (the bounds overview): every lower/upper
//! bound formula of the paper evaluated at a concrete `n`, with a measured
//! spot-check per row.
//!
//! The measured column runs the corresponding process at the configured
//! scale; the comparison is qualitative (measured gaps should sit between
//! the lower-bound term and a constant multiple of the upper-bound term).

use balloc_analysis::bounds::table_2_3;
use balloc_core::stats::Summary;
use balloc_core::Process;
use balloc_noise::{Batched, DelayStrategy, Delayed, GBounded, GMyopic, SigmaNoisyLoad};
use balloc_sim::{gaps, repeat, OutputSink, Report, RunConfig, TextTable};
use serde::Serialize;

use crate::{emit_header, experiment_seed, fmt3, BenchError, CommonArgs, FlagKind, FlagSpec};

use super::Experiment;

#[derive(Serialize)]
struct MeasuredRow {
    setting: String,
    range: String,
    lower_term: Option<f64>,
    upper_term: Option<f64>,
    reference: String,
    measured_mean_gap: Option<f64>,
}

#[derive(Serialize)]
struct Table2_3Artifact {
    scale: String,
    g: u64,
    b: u64,
    sigma: f64,
    rows: Vec<MeasuredRow>,
}

fn measure(
    process: impl Fn() -> Box<dyn Process + Send> + Sync,
    base: RunConfig,
    runs: usize,
    threads: usize,
) -> f64 {
    let results = repeat(process, base, runs, threads);
    Summary::from_values(&gaps(&results)).mean()
}

/// `balloc table2_3` — see the module docs.
pub struct Table2_3;

impl Experiment for Table2_3 {
    fn id(&self) -> &'static str {
        "table2_3"
    }

    fn paper_ref(&self) -> &'static str {
        "Table 2.3"
    }

    fn description(&self) -> &'static str {
        "the paper's bounds-overview table evaluated at concrete n, with measured spot-checks"
    }

    fn extra_flags(&self) -> &'static [FlagSpec] {
        &[
            FlagSpec {
                name: "--g",
                kind: FlagKind::U64,
                positive: true,
                default: "8",
                help: "adversarial window g the bounds are evaluated at",
            },
            FlagSpec {
                name: "--sigma",
                kind: FlagKind::F64,
                positive: true,
                default: "4",
                help: "sigma-Noisy-Load noise scale",
            },
        ]
    }

    fn run(&self, args: &CommonArgs, sink: &mut OutputSink) -> Result<Report, BenchError> {
        emit_header(sink, "T2.3", "bounds overview (evaluated + measured)", args);

        let g = args.extras.u64("--g");
        let b = args.n as u64;
        let sigma = args.extras.f64("--sigma");
        let rows_theory = table_2_3(args.n as u64, g, b, sigma);
        let base = RunConfig::new(
            args.n,
            args.m(),
            experiment_seed("table2_3/bounded", args.seed),
        );
        let runs = args.runs.min(20); // spot-checks, not full experiments
        let threads = args.threads;

        // One measured value per distinct setting.
        let measured_bounded = measure(|| Box::new(GBounded::new(g)), base, runs, threads);
        let measured_myopic = measure(
            || Box::new(GMyopic::new(g)),
            base.with_seed(experiment_seed("table2_3/myopic", args.seed)),
            runs,
            threads,
        );
        let measured_batch = measure(
            || Box::new(Batched::new(b)),
            base.with_seed(experiment_seed("table2_3/batch", args.seed)),
            runs,
            threads,
        );
        let measured_delay = measure(
            || Box::new(Delayed::new(b, DelayStrategy::AdversarialFlip)),
            base.with_seed(experiment_seed("table2_3/delay", args.seed)),
            runs,
            threads,
        );
        let measured_noisy = measure(
            || Box::new(SigmaNoisyLoad::new(sigma)),
            base.with_seed(experiment_seed("table2_3/noisy_load", args.seed)),
            runs,
            threads,
        );

        let measured_for = |setting: &str| -> Option<f64> {
            match setting {
                "g-Bounded" => Some(measured_bounded),
                "g-Adv-Comp" => Some(measured_bounded), // strongest implemented instance
                "g-Myopic-Comp" => Some(measured_myopic),
                "b-Batch" => Some(measured_batch),
                "tau-Delay" => Some(measured_delay),
                "sigma-Noisy-Load" => Some(measured_noisy),
                _ => None,
            }
        };

        sink.line(format!(
            "{:<18} {:<34} {:>12} {:>12} {:>10}  reference",
            "setting", "range", "lower term", "upper term", "measured"
        ));
        sink.line("-".repeat(110));
        let mut shadow = TextTable::new(vec![
            "setting".into(),
            "range".into(),
            "lower term".into(),
            "upper term".into(),
            "measured".into(),
            "reference".into(),
        ]);
        let mut rows = Vec::new();
        for row in &rows_theory {
            let measured = measured_for(&row.setting);
            sink.line(format!(
                "{:<18} {:<34} {:>12} {:>12} {:>10}  {}",
                row.setting,
                row.range,
                row.lower.map(fmt3).unwrap_or_else(|| "-".into()),
                row.upper.map(fmt3).unwrap_or_else(|| "-".into()),
                measured.map(fmt3).unwrap_or_else(|| "-".into()),
                row.reference,
            ));
            shadow.push_row(vec![
                row.setting.clone(),
                row.range.clone(),
                row.lower.map(fmt3).unwrap_or_else(|| "-".into()),
                row.upper.map(fmt3).unwrap_or_else(|| "-".into()),
                measured.map(fmt3).unwrap_or_else(|| "-".into()),
                row.reference.clone(),
            ]);
            rows.push(MeasuredRow {
                setting: row.setting.clone(),
                range: row.range.clone(),
                lower_term: row.lower,
                upper_term: row.upper,
                reference: row.reference.clone(),
                measured_mean_gap: measured,
            });
        }
        sink.shadow_table("bounds_overview", shadow);

        sink.line(format!(
            "\nnote: terms are growth laws without constants; 'measured' is the mean gap over {runs} runs."
        ));

        let artifact = Table2_3Artifact {
            scale: args.scale_line(),
            g,
            b,
            sigma,
            rows,
        };
        sink.save_artifact(&artifact);
        Ok(sink.take_report())
    }
}
