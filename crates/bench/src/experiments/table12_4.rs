//! Regenerates **Table 12.4**: empirical gap distributions for `b-Batch`
//! (at `m = 1000·n`) against `One-Choice` with `m = b` balls.
//!
//! Paper setup: b ∈ {10, 10², 10³, 10⁴, 10⁵}, n = 10⁴, 100 runs.

use balloc_core::rng::point_seed;
use balloc_noise::Batched;
use balloc_processes::OneChoice;
use balloc_sim::{repeat_grid, sweep, GapDistribution, OutputSink, Report, RunConfig, TextTable};
use serde::Serialize;

use crate::{emit_header, experiment_seed, BenchError, CommonArgs};

use super::Experiment;

#[derive(Serialize)]
struct Table12_4Artifact {
    scale: String,
    batch_sizes: Vec<u64>,
    batched: Vec<GapDistribution>,
    one_choice: Vec<GapDistribution>,
}

/// `balloc table12_4` — see the module docs.
pub struct Table12_4;

impl Experiment for Table12_4 {
    fn id(&self) -> &'static str {
        "table12_4"
    }

    fn paper_ref(&self) -> &'static str {
        "Table 12.4"
    }

    fn description(&self) -> &'static str {
        "gap distributions of b-Batch vs One-Choice with m = b balls"
    }

    fn run(&self, args: &CommonArgs, sink: &mut OutputSink) -> Result<Report, BenchError> {
        emit_header(sink, "T12.4", "batching gap distributions", args);

        let m = args.m();
        let batch_sizes: Vec<u64> = [10u64, 100, 1_000, 10_000, 100_000]
            .into_iter()
            .filter(|&b| b <= m)
            .collect();

        if batch_sizes.is_empty() {
            sink.line(format!("no batch size <= m = {m}; nothing to measure"));
            return Ok(sink.take_report());
        }

        // b-Batch arm: one flattened b × runs grid, scheduled by sweep.
        let batched_dists: Vec<GapDistribution> = sweep(
            &batch_sizes.iter().map(|&b| b as f64).collect::<Vec<_>>(),
            |b| Batched::new(b as u64),
            RunConfig::new(args.n, m, experiment_seed("table12_4/batch", args.seed)),
            args.runs,
            args.threads,
        )
        .into_iter()
        .map(|point| point.distribution)
        .collect();

        // One-Choice arm: m = b varies per point, so schedule explicit configs.
        let oc_seed = experiment_seed("table12_4/one_choice", args.seed);
        let oc_configs: Vec<RunConfig> = batch_sizes
            .iter()
            .enumerate()
            .map(|(j, &b)| RunConfig::new(args.n, b, point_seed(oc_seed, j as u64)))
            .collect();
        let one_dists: Vec<GapDistribution> =
            repeat_grid(&oc_configs, |_| OneChoice::new(), args.runs, args.threads)
                .iter()
                .map(|results| GapDistribution::from_results(results))
                .collect();

        let mut shadow = TextTable::new(vec![
            "arm".into(),
            "b".into(),
            "distribution".into(),
            "mean".into(),
        ]);
        sink.line(format!("b-Batch (m = {}n):", args.balls_per_bin));
        for i in 0..batch_sizes.len() {
            sink.line(format!(
                "  b = {:>7} | {}",
                batch_sizes[i],
                batched_dists[i].paper_style_inline()
            ));
            shadow.push_row(vec![
                "b-Batch".into(),
                batch_sizes[i].to_string(),
                batched_dists[i].paper_style_inline(),
                format!("{:.2}", batched_dists[i].mean()),
            ]);
        }
        sink.line("\nOne-Choice (m = b):");
        for i in 0..batch_sizes.len() {
            sink.line(format!(
                "  b = {:>7} | {}",
                batch_sizes[i],
                one_dists[i].paper_style_inline()
            ));
            shadow.push_row(vec![
                "One-Choice".into(),
                batch_sizes[i].to_string(),
                one_dists[i].paper_style_inline(),
                format!("{:.2}", one_dists[i].mean()),
            ]);
        }
        sink.blank();
        sink.shadow_table("distributions", shadow);

        sink.line("mean gaps:");
        for i in 0..batch_sizes.len() {
            sink.line(format!(
                "  b = {:>7}: b-Batch {:.2} vs One-Choice(b) {:.2}",
                batch_sizes[i],
                batched_dists[i].mean(),
                one_dists[i].mean()
            ));
        }

        let artifact = Table12_4Artifact {
            scale: args.scale_line(),
            batch_sizes,
            batched: batched_dists,
            one_choice: one_dists,
        };
        sink.blank();
        sink.save_artifact(&artifact);
        Ok(sink.take_report())
    }
}
