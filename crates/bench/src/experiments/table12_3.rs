//! Regenerates **Table 12.3**: empirical gap distributions for
//! `g-Bounded`, `g-Myopic-Comp`, and `σ-Noisy-Load` with
//! g, σ ∈ {0, 1, 2, 4, 8, 16}.
//!
//! Paper setup: n ∈ {10⁴, 5·10⁴, 10⁵}, m = 1000·n, 100 runs; each cell of
//! the table is a `gap : percent%` distribution.

use balloc_core::rng::point_seed;
use balloc_core::Process;
use balloc_noise::{GBounded, GMyopic, SigmaNoisyLoad};
use balloc_sim::{repeat_grid, GapDistribution, OutputSink, Report, RunConfig, TextTable};
use serde::Serialize;

use crate::{emit_header, experiment_seed, BenchError, CommonArgs};

use super::Experiment;

#[derive(Serialize)]
struct DistributionCell {
    process: String,
    param: f64,
    distribution: GapDistribution,
    mean: f64,
}

#[derive(Serialize)]
struct Table12_3Artifact {
    scale: String,
    cells: Vec<DistributionCell>,
}

fn make_process(label: &str, p: u64) -> Box<dyn Process + Send> {
    match label {
        "g-Bounded" => Box::new(GBounded::new(p)),
        "g-Myopic-Comp" => Box::new(GMyopic::new(p)),
        "sigma-Noisy-Load" => {
            // σ = 0 is noiseless Two-Choice; a tiny σ keeps the same
            // code path (ρ(δ) ≈ 1 for every δ ⩾ 1).
            let sigma = if p == 0 { 0.05 } else { p as f64 };
            Box::new(SigmaNoisyLoad::new(sigma))
        }
        other => unreachable!("unknown process {other}"),
    }
}

/// `balloc table12_3` — see the module docs.
pub struct Table12_3;

impl Experiment for Table12_3 {
    fn id(&self) -> &'static str {
        "table12_3"
    }

    fn paper_ref(&self) -> &'static str {
        "Table 12.3"
    }

    fn description(&self) -> &'static str {
        "empirical gap distributions for g-Bounded, g-Myopic-Comp, sigma-Noisy-Load"
    }

    fn run(&self, args: &CommonArgs, sink: &mut OutputSink) -> Result<Report, BenchError> {
        emit_header(sink, "T12.3", "gap distributions", args);

        let params = [0u64, 1, 2, 4, 8, 16];
        let labels = ["g-Bounded", "g-Myopic-Comp", "sigma-Noisy-Load"];

        // All 18 table cells (3 processes × 6 parameters) × runs flatten into
        // one task set through repeat_grid; cell c is (process c / |P|,
        // parameter c mod |P|), with a point_seed-derived master per cell.
        let configs: Vec<RunConfig> = (0..labels.len() * params.len())
            .map(|c| {
                RunConfig::new(
                    args.n,
                    args.m(),
                    point_seed(experiment_seed("table12_3", args.seed), c as u64),
                )
            })
            .collect();
        let blocks = repeat_grid(
            &configs,
            |c| make_process(labels[c / params.len()], params[c % params.len()]),
            args.runs,
            args.threads,
        );

        let mut shadow = TextTable::new(vec![
            "process".into(),
            "param".into(),
            "distribution".into(),
            "mean".into(),
        ]);
        let mut cells = Vec::new();
        for (idx, label) in labels.into_iter().enumerate() {
            sink.line(format!("{label} (n = {}):", args.n));
            for (j, &p) in params.iter().enumerate() {
                let dist = GapDistribution::from_results(&blocks[idx * params.len() + j]);
                sink.line(format!("  {:>2} | {}", p, dist.paper_style_inline()));
                shadow.push_row(vec![
                    label.to_string(),
                    p.to_string(),
                    dist.paper_style_inline(),
                    format!("{:.2}", dist.mean()),
                ]);
                cells.push(DistributionCell {
                    process: label.to_string(),
                    param: p as f64,
                    mean: dist.mean(),
                    distribution: dist,
                });
            }
            sink.blank();
        }
        sink.shadow_table("distributions", shadow);

        sink.line("mean gaps:");
        for label in ["g-Bounded", "g-Myopic-Comp", "sigma-Noisy-Load"] {
            let means: Vec<String> = cells
                .iter()
                .filter(|c| c.process == label)
                .map(|c| format!("{}→{:.2}", c.param, c.mean))
                .collect();
            sink.line(format!("  {label}: {}", means.join("  ")));
        }

        let artifact = Table12_3Artifact {
            scale: args.scale_line(),
            cells,
        };
        sink.blank();
        sink.save_artifact(&artifact);
        Ok(sink.take_report())
    }
}
