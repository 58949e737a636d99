//! Ablation **A2**: `τ-Delay` versus `b-Batch` versus One-Choice(b).
//!
//! Theorem 10.2 / Corollary 10.4 show that the *asynchronous* `τ-Delay`
//! setting achieves the same `Θ(log n/log((4n/τ)·log n))` gap as the
//! synchronized `b-Batch` — "the special property of batching to reset all
//! load values … is not crucial". This experiment measures both (several
//! delay strategies) across τ = b around n.

use balloc_analysis::bounds::batch_gap;
use balloc_noise::{Batched, DelayStrategy, Delayed};
use balloc_sim::{sweep, OutputSink, Report, RunConfig, SweepPoint, TextTable};
use serde::Serialize;

use crate::{emit_header, experiment_seed, fmt3, BenchError, CommonArgs};

use super::Experiment;

#[derive(Serialize)]
struct DelayVsBatchArtifact {
    scale: String,
    taus: Vec<u64>,
    batch: Vec<SweepPoint>,
    delay_stalest: Vec<SweepPoint>,
    delay_flip: Vec<SweepPoint>,
    delay_random: Vec<SweepPoint>,
}

/// `balloc delay_vs_batch` — see the module docs.
pub struct DelayVsBatch;

impl Experiment for DelayVsBatch {
    fn id(&self) -> &'static str {
        "delay_vs_batch"
    }

    fn paper_ref(&self) -> &'static str {
        "Ablation A2 (Theorem 10.2, Corollary 10.4)"
    }

    fn description(&self) -> &'static str {
        "tau-Delay (three strategies) vs b-Batch for tau = b around n"
    }

    fn run(&self, args: &CommonArgs, sink: &mut OutputSink) -> Result<Report, BenchError> {
        emit_header(sink, "A2", "delay vs batch", args);

        let n = args.n as u64;
        let taus: Vec<u64> = [n / 100, n / 10, n / 2, n, 2 * n, 8 * n]
            .into_iter()
            .filter(|&t| t >= 1 && t <= args.m())
            .collect();

        // Each arm schedules its full τ × runs grid as one task set through
        // sweep; arm base seeds only need to differ (point_seed
        // decorrelates even adjacent bases).
        let tau_params: Vec<f64> = taus.iter().map(|&t| t as f64).collect();
        let base = RunConfig::new(
            args.n,
            args.m(),
            experiment_seed("delay_vs_batch/batch", args.seed),
        );
        let batch = sweep(
            &tau_params,
            |t| Batched::new(t as u64),
            base,
            args.runs,
            args.threads,
        );
        let stalest = sweep(
            &tau_params,
            |t| Delayed::new(t as u64, DelayStrategy::Stalest),
            base.with_seed(experiment_seed("delay_vs_batch/stalest", args.seed)),
            args.runs,
            args.threads,
        );
        let flip = sweep(
            &tau_params,
            |t| Delayed::new(t as u64, DelayStrategy::AdversarialFlip),
            base.with_seed(experiment_seed("delay_vs_batch/flip", args.seed)),
            args.runs,
            args.threads,
        );
        let random = sweep(
            &tau_params,
            |t| Delayed::new(t as u64, DelayStrategy::RandomInWindow),
            base.with_seed(experiment_seed("delay_vs_batch/random", args.seed)),
            args.runs,
            args.threads,
        );

        let mut table = TextTable::new(vec![
            "tau = b".into(),
            "b-Batch".into(),
            "Delay/Stalest".into(),
            "Delay/AdvFlip".into(),
            "Delay/Random".into(),
            "theory".into(),
        ]);
        for i in 0..taus.len() {
            table.push_row(vec![
                taus[i].to_string(),
                fmt3(batch[i].mean_gap),
                fmt3(stalest[i].mean_gap),
                fmt3(flip[i].mean_gap),
                fmt3(random[i].mean_gap),
                fmt3(batch_gap(n, taus[i])),
            ]);
        }
        sink.table("gap_vs_tau", table);

        sink.line("shape checks:");
        for i in 0..taus.len() {
            let ratio = stalest[i].mean_gap / batch[i].mean_gap.max(0.1);
            sink.line(format!(
                "  tau = {:>8}: stalest-delay/batch gap ratio {} (expect O(1))",
                taus[i],
                fmt3(ratio)
            ));
        }

        let artifact = DelayVsBatchArtifact {
            scale: args.scale_line(),
            taus,
            batch,
            delay_stalest: stalest,
            delay_flip: flip,
            delay_random: random,
        };
        sink.blank();
        sink.save_artifact(&artifact);
        Ok(sink.take_report())
    }
}
