//! Regenerates **Figure 4.1**: how the adversary warps the probability
//! allocation vector.
//!
//! The paper's Fig. 4.1 shows, for a concrete load vector with `n = 8` and
//! `g = 3`, the `Two-Choice` vector `p_i = (2i−1)/n²` next to the
//! adversarial vector `q^t` obtained by moving up to `2/n²` of probability
//! from lighter to heavier bins within each reversible pair. This
//! experiment computes both vectors **exactly** for the paper's example
//! load vector and prints them, together with the reversible-pair set
//! `R^t` — and then cross-checks the exact vectors against seeded
//! Monte-Carlo sampling of the adversarial decider (`--trials` draws,
//! seeds derived through the `experiment_seed("fig4_1", --seed)` contract).

use balloc_core::probability::{bin_probabilities, by_rank, two_choice_vector};
use balloc_core::{Decider, LoadState, PerfectDecider, Rng, TieBreak};
use balloc_noise::{AdvComp, ReverseAll};
use balloc_sim::{OutputSink, Report, TextTable};
use serde::Serialize;

use crate::{experiment_seed, BenchError, CommonArgs, FlagKind, FlagSpec};

use super::Experiment;

#[derive(Serialize)]
struct Figure4_1Artifact {
    loads: Vec<u64>,
    g: u64,
    reversible_pairs: Vec<[usize; 2]>,
    p_formula: Vec<f64>,
    p_exact: Vec<f64>,
    q_exact: Vec<f64>,
    trials: u64,
    q_empirical: Vec<f64>,
    max_abs_deviation: f64,
}

fn bar(p: f64) -> String {
    "#".repeat((p * 150.0).round() as usize)
}

/// `balloc fig4_1` — see the module docs.
pub struct Fig4_1;

impl Experiment for Fig4_1 {
    fn id(&self) -> &'static str {
        "fig4_1"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 4.1"
    }

    fn description(&self) -> &'static str {
        "the probability allocation vector warped by the g-Adv-Comp adversary, exact + sampled"
    }

    fn extra_flags(&self) -> &'static [FlagSpec] {
        &[FlagSpec {
            name: "--trials",
            kind: FlagKind::U64,
            positive: true,
            default: "200000",
            help: "Monte-Carlo draws for the empirical cross-check",
        }]
    }

    fn run(&self, args: &CommonArgs, sink: &mut OutputSink) -> Result<Report, BenchError> {
        // The paper's example: loads (21, 19, 13, 12, 12, 11, 8, 6), g = 3.
        let loads = vec![21u64, 19, 13, 12, 12, 11, 8, 6];
        let g = 3u64;
        let trials = args.extras.u64("--trials");
        let state = LoadState::from_loads(loads.clone());
        let n = state.n();

        sink.line("== F4.1: probability allocation vector under g-Adv-Comp ==");
        sink.line(format!("loads x = {loads:?}, g = {g}\n"));

        // The reversible-pair set R^t = {(i,j) : y_j < y_i <= y_j + g}.
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let (xi, xj) = (state.load(i), state.load(j));
                if xj < xi && xi <= xj + g {
                    pairs.push((i + 1, j + 1)); // 1-indexed like the paper
                }
            }
        }
        sink.line(format!("reversible pairs R = {pairs:?}"));
        sink.line("(paper: {(1,2), (3,4), (3,5), (3,6), (4,6), (5,6), (6,7), (7,8)})\n");

        let perfect = PerfectDecider::new(TieBreak::Random);
        let p_exact = by_rank(&bin_probabilities(&perfect, &state), &state);
        let adversary = AdvComp::new(g, ReverseAll);
        let q_exact = by_rank(&bin_probabilities(&adversary, &state), &state);
        let p_formula = two_choice_vector(n);

        // Seeded Monte-Carlo cross-check: sample the adversarial decider on
        // uniform bin pairs and compare empirical per-rank frequencies with
        // the exact vector. The RNG stream derives from the shared --seed
        // through the experiment_seed domain tag, so fig4_1 never shares a
        // stream with another experiment run at the same seed.
        let mut rng = Rng::from_seed(experiment_seed("fig4_1", args.seed));
        let mut sampler = AdvComp::new(g, ReverseAll);
        let mut hits = vec![0u64; n];
        for _ in 0..trials {
            let i1 = rng.below_usize(n);
            let i2 = rng.below_usize(n);
            hits[sampler.decide(&state, i1, i2, &mut rng)] += 1;
        }
        let q_empirical: Vec<f64> = state
            .ranks_desc()
            .iter()
            .map(|&i| hits[i] as f64 / trials as f64)
            .collect();
        let max_abs_deviation = q_empirical
            .iter()
            .zip(&q_exact)
            .map(|(e, x)| (e - x).abs())
            .fold(0.0f64, f64::max);

        let mut table = TextTable::new(vec![
            "rank i".into(),
            "load".into(),
            "p_i = (2i-1)/n^2".into(),
            "p_i exact".into(),
            "q_i (greedy adversary)".into(),
            "q_i - p_i".into(),
            "q_i sampled".into(),
        ]);
        let sorted = state.sorted_loads_desc();
        for i in 0..n {
            table.push_row(vec![
                (i + 1).to_string(),
                sorted[i].to_string(),
                format!("{:.5}", p_formula[i]),
                format!("{:.5}", p_exact[i]),
                format!("{:.5}", q_exact[i]),
                format!("{:+.5}", q_exact[i] - p_exact[i]),
                format!("{:.5}", q_empirical[i]),
            ]);
        }
        sink.table("allocation_vector", table);

        sink.line("visual (probability per rank, heaviest first):");
        for i in 0..n {
            sink.line(format!("  rank {} p |{}", i + 1, bar(p_exact[i])));
            sink.line(format!("         q |{}", bar(q_exact[i])));
        }

        sink.blank();
        sink.line(format!(
            "the greedy adversary moves 2/n² = {:.5} of probability along each",
            2.0 / (n * n) as f64
        ));
        sink.line("reversible pair, from the lighter to the heavier bin — exactly the");
        sink.line("q^t = p + Σ (e_i − e_j)·γ_ij decomposition of Section 4.");
        sink.blank();
        sink.line(format!(
            "empirical cross-check: {trials} sampled decisions, max |q_sampled - q_exact| = {:.5}",
            max_abs_deviation
        ));
        sink.line(format!(
            "(expected O(1/sqrt(trials)) ≈ {:.5}; seeded via experiment_seed(\"fig4_1\", {}))",
            1.0 / (trials as f64).sqrt(),
            args.seed
        ));

        let artifact = Figure4_1Artifact {
            loads,
            g,
            reversible_pairs: pairs.iter().map(|&(i, j)| [i, j]).collect(),
            p_formula,
            p_exact,
            q_exact,
            trials,
            q_empirical,
            max_abs_deviation,
        };
        sink.blank();
        sink.save_artifact(&artifact);
        Ok(sink.take_report())
    }
}
