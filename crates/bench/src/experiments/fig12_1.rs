//! Regenerates **Figure 12.1**: average gap of `g-Bounded`,
//! `g-Myopic-Comp` (g = 1..20), and `σ-Noisy-Load` (σ = 1..20).
//!
//! Paper setup: n ∈ {10⁴, 5·10⁴, 10⁵}, m = 1000·n, 100 runs. The default
//! here uses a single n at reduced m/runs; pass `--full` for the paper's
//! parameters and `--n` to select the bin count.
//!
//! Expected shape (Section 12): both adversarial processes grow *almost
//! linearly* in g, with `g-Bounded` above `g-Myopic-Comp`; `σ-Noisy-Load`
//! grows sublinearly and sits below both.

use balloc_analysis::fit::{fit_against, is_monotone_nondecreasing};
use balloc_noise::{GBounded, GMyopic, SigmaNoisyLoad};
use balloc_sim::{sweep, OutputSink, Report, RunConfig, SweepPoint, TextTable};
use serde::Serialize;

use crate::{emit_header, experiment_seed, fmt3, BenchError, CommonArgs};

use super::Experiment;

#[derive(Serialize)]
struct Figure12_1 {
    scale: String,
    params: Vec<f64>,
    bounded: Vec<SweepPoint>,
    myopic: Vec<SweepPoint>,
    noisy_load: Vec<SweepPoint>,
}

/// `balloc fig12_1` — see the module docs.
pub struct Fig12_1;

impl Experiment for Fig12_1 {
    fn id(&self) -> &'static str {
        "fig12_1"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 12.1"
    }

    fn description(&self) -> &'static str {
        "average gap vs g for g-Bounded / g-Myopic-Comp and vs sigma for sigma-Noisy-Load"
    }

    fn run(&self, args: &CommonArgs, sink: &mut OutputSink) -> Result<Report, BenchError> {
        emit_header(sink, "F12.1", "average gap vs noise parameter", args);

        let params: Vec<f64> = (1..=20).map(f64::from).collect();
        let base = RunConfig::new(
            args.n,
            args.m(),
            experiment_seed("fig12_1/bounded", args.seed),
        );

        let bounded = sweep(
            &params,
            |g| GBounded::new(g as u64),
            base,
            args.runs,
            args.threads,
        );
        let myopic = sweep(
            &params,
            |g| GMyopic::new(g as u64),
            base.with_seed(experiment_seed("fig12_1/myopic", args.seed)),
            args.runs,
            args.threads,
        );
        let noisy = sweep(
            &params,
            SigmaNoisyLoad::new,
            base.with_seed(experiment_seed("fig12_1/noisy_load", args.seed)),
            args.runs,
            args.threads,
        );

        let mut table = TextTable::new(vec![
            "g / sigma".into(),
            "g-Bounded".into(),
            "g-Myopic-Comp".into(),
            "sigma-Noisy-Load".into(),
        ]);
        for i in 0..params.len() {
            table.push_row(vec![
                format!("{}", params[i] as u64),
                fmt3(bounded[i].mean_gap),
                fmt3(myopic[i].mean_gap),
                fmt3(noisy[i].mean_gap),
            ]);
        }
        sink.table("gap_vs_param", table);

        // Shape checks reported alongside the series.
        let bounded_means: Vec<f64> = bounded.iter().map(|p| p.mean_gap).collect();
        let myopic_means: Vec<f64> = myopic.iter().map(|p| p.mean_gap).collect();
        let noisy_means: Vec<f64> = noisy.iter().map(|p| p.mean_gap).collect();

        let tail = 7; // fit the linear regime g >= 14
        let lin_x: Vec<f64> = params[params.len() - tail..].to_vec();
        let fit_b = fit_against(&bounded_means[params.len() - tail..], &lin_x);
        let fit_m = fit_against(&myopic_means[params.len() - tail..], &lin_x);

        sink.line("shape checks:");
        sink.line(format!(
            "  g-Bounded monotone (slack 0.5): {}",
            is_monotone_nondecreasing(&bounded_means, 0.5)
        ));
        sink.line(format!(
            "  g-Bounded   linear tail fit: slope {} r2 {}",
            fmt3(fit_b.slope),
            fmt3(fit_b.r_squared)
        ));
        sink.line(format!(
            "  g-Myopic    linear tail fit: slope {} r2 {}",
            fmt3(fit_m.slope),
            fmt3(fit_m.r_squared)
        ));
        let dominated = bounded_means
            .iter()
            .zip(&myopic_means)
            .filter(|(b, m)| *b + 0.5 >= **m)
            .count();
        sink.line(format!(
            "  g-Bounded >= g-Myopic at {}/{} points (0.5 slack)",
            dominated,
            params.len()
        ));
        let noisy_below = noisy_means
            .iter()
            .zip(&bounded_means)
            .filter(|(s, b)| *s <= *b)
            .count();
        sink.line(format!(
            "  sigma-Noisy-Load <= g-Bounded at {}/{} points",
            noisy_below,
            params.len()
        ));

        let artifact = Figure12_1 {
            scale: args.scale_line(),
            params,
            bounded,
            myopic,
            noisy_load: noisy,
        };
        sink.blank();
        sink.save_artifact(&artifact);
        Ok(sink.take_report())
    }
}
