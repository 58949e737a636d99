//! Regenerates **Figure 12.2**: average gap of `b-Batch` versus batch size
//! `b`, compared with `One-Choice` allocating `m = b` balls.
//!
//! Paper setup: b ∈ {5, 10, 50, 10², …, 10⁵, 5·10⁵}, n = 10⁴, m = 1000·n,
//! 100 runs.
//!
//! Expected shape (Section 12 / Theorem 10.2 / Remark 10.6): for `b ⩾ n`
//! the `b-Batch` gap tracks the One-Choice(b) gap; for `b ≪ n` it flattens
//! at a small constant while One-Choice(b) keeps falling — the two curves
//! cross near `b = n`.

use balloc_analysis::bounds::{batch_gap, one_choice_gap};
use balloc_core::rng::point_seed;
use balloc_noise::Batched;
use balloc_processes::OneChoice;
use balloc_sim::{repeat_grid, sweep, OutputSink, Report, RunConfig, SweepPoint, TextTable};
use serde::Serialize;

use crate::{emit_header, experiment_seed, fmt3, BenchError, CommonArgs};

use super::Experiment;

#[derive(Serialize)]
struct Figure12_2 {
    scale: String,
    batch_sizes: Vec<u64>,
    batched: Vec<SweepPoint>,
    one_choice_with_b_balls: Vec<SweepPoint>,
}

/// `balloc fig12_2` — see the module docs.
pub struct Fig12_2;

impl Experiment for Fig12_2 {
    fn id(&self) -> &'static str {
        "fig12_2"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 12.2"
    }

    fn description(&self) -> &'static str {
        "average gap of b-Batch vs batch size, against One-Choice with m = b"
    }

    fn run(&self, args: &CommonArgs, sink: &mut OutputSink) -> Result<Report, BenchError> {
        emit_header(sink, "F12.2", "gap vs batch size b", args);

        // The paper's batch sizes, capped at m.
        let m = args.m();
        let batch_sizes: Vec<u64> = [5u64, 10, 50, 100, 1_000, 10_000, 100_000, 500_000]
            .into_iter()
            .filter(|&b| b <= m)
            .collect();

        if batch_sizes.is_empty() {
            sink.line(format!("no batch size <= m = {m}; nothing to measure"));
            return Ok(sink.take_report());
        }

        // Both arms flatten their full b × runs grid into one task set, so
        // small-b points don't serialize behind big-b ones.
        let batched = sweep(
            &batch_sizes.iter().map(|&b| b as f64).collect::<Vec<_>>(),
            |b| Batched::new(b as u64),
            RunConfig::new(args.n, m, experiment_seed("fig12_2/batch", args.seed)),
            args.runs,
            args.threads,
        );

        // One-Choice with exactly b balls into the same n bins: m varies per
        // point, so this arm schedules explicit per-point configs as one grid.
        let oc_seed = experiment_seed("fig12_2/one_choice", args.seed);
        let oc_configs: Vec<RunConfig> = batch_sizes
            .iter()
            .enumerate()
            .map(|(j, &b)| RunConfig::new(args.n, b, point_seed(oc_seed, j as u64)))
            .collect();
        let one_choice: Vec<SweepPoint> = batch_sizes
            .iter()
            .zip(repeat_grid(
                &oc_configs,
                |_| OneChoice::new(),
                args.runs,
                args.threads,
            ))
            .map(|(&b, results)| SweepPoint::from_results(b as f64, results))
            .collect();

        let mut table = TextTable::new(vec![
            "b".into(),
            "b-Batch gap (m)".into(),
            "One-Choice gap (m=b)".into(),
            "theory batch".into(),
            "theory one-choice".into(),
        ]);
        for i in 0..batch_sizes.len() {
            let b = batch_sizes[i];
            table.push_row(vec![
                b.to_string(),
                fmt3(batched[i].mean_gap),
                fmt3(one_choice[i].mean_gap),
                fmt3(batch_gap(args.n as u64, b)),
                fmt3(one_choice_gap(args.n as u64, b)),
            ]);
        }
        sink.table("gap_vs_batch_size", table);

        // Shape summary: the curves should converge for b >= n.
        sink.line("shape checks:");
        for i in 0..batch_sizes.len() {
            let b = batch_sizes[i];
            if b >= args.n as u64 {
                let ratio = batched[i].mean_gap / one_choice[i].mean_gap.max(0.1);
                sink.line(format!(
                    "  b = {b} (>= n): batch/one-choice gap ratio = {}",
                    fmt3(ratio)
                ));
            }
        }
        let small_b: Vec<f64> = batch_sizes
            .iter()
            .zip(&batched)
            .filter(|(b, _)| **b < args.n as u64 / 10)
            .map(|(_, p)| p.mean_gap)
            .collect();
        if !small_b.is_empty() {
            sink.line(format!(
                "  small-b plateau (b << n): gaps {:?} — expected near the noiseless Two-Choice value",
                small_b.iter().map(|g| fmt3(*g)).collect::<Vec<_>>()
            ));
        }

        let artifact = Figure12_2 {
            scale: args.scale_line(),
            batch_sizes,
            batched,
            one_choice_with_b_balls: one_choice,
        };
        sink.blank();
        sink.save_artifact(&artifact);
        Ok(sink.take_report())
    }
}
