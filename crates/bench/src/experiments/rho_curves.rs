//! Regenerates **Figure 2.2**: the correct-comparison probability `ρ(δ)`
//! for `g-Bounded`, `g-Myopic-Comp`, and `σ-Noisy-Load`, printed as a
//! table and ASCII plot — with a seeded Monte-Carlo column estimating the
//! *physical* Gaussian comparison `P[x_i + N ⩽ x_j + N']` from actual
//! perturbation draws (`GaussianLoadDecider`), next to its closed form
//! `Φ(δ/(√2·σ))` and the paper's re-scaled `ρ(δ)` (Eq. 2.1).

use balloc_core::{Decider, DecisionProbability, LoadState, Rng};
use balloc_noise::rho::{BoundedRho, GaussianRho, MyopicRho, RhoFunction};
use balloc_noise::GaussianLoadDecider;
use balloc_sim::{OutputSink, Report, TextTable};
use serde::Serialize;

use crate::{experiment_seed, BenchError, CommonArgs, FlagKind, FlagSpec};

use super::Experiment;

#[derive(Serialize)]
struct RhoPoint {
    delta: u64,
    bounded: f64,
    myopic: f64,
    gaussian_rho: f64,
    phi_closed_form: f64,
    phi_empirical: f64,
}

#[derive(Serialize)]
struct RhoCurvesArtifact {
    g: u64,
    sigma: f64,
    trials: u64,
    points: Vec<RhoPoint>,
}

fn ascii_bar(p: f64) -> String {
    let width = 30;
    let filled = (p * width as f64).round() as usize;
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

/// `balloc rho_curves` — see the module docs.
pub struct RhoCurves;

impl Experiment for RhoCurves {
    fn id(&self) -> &'static str {
        "rho_curves"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 2.2"
    }

    fn description(&self) -> &'static str {
        "the rho(delta) correct-comparison curves, closed-form + sampled Gaussian comparisons"
    }

    fn extra_flags(&self) -> &'static [FlagSpec] {
        &[
            FlagSpec {
                name: "--g",
                kind: FlagKind::U64,
                positive: true,
                default: "5",
                help: "window for the step functions",
            },
            FlagSpec {
                name: "--sigma",
                kind: FlagKind::F64,
                positive: true,
                default: "5",
                help: "Gaussian noise scale",
            },
            FlagSpec {
                name: "--trials",
                kind: FlagKind::U64,
                positive: true,
                default: "100000",
                help: "Monte-Carlo draws per delta for the empirical column",
            },
        ]
    }

    fn run(&self, args: &CommonArgs, sink: &mut OutputSink) -> Result<Report, BenchError> {
        let g = args.extras.u64("--g");
        let sigma = args.extras.f64("--sigma");
        let trials = args.extras.u64("--trials");
        let bounded = BoundedRho::new(g);
        let myopic = MyopicRho::new(g);
        let gaussian = GaussianRho::new(sigma);

        sink.line(format!(
            "== F2.2: rho(delta) for g-Bounded(g={g}), g-Myopic-Comp(g={g}), sigma-Noisy-Load(sigma={sigma}) ==\n"
        ));

        // The empirical column samples the *physical* Gaussian comparison:
        // two bins with load difference delta, both reporting perturbed
        // loads. Seeds derive from the shared --seed through the
        // experiment_seed domain tag, so rho_curves never shares an RNG
        // stream with another experiment run at the same seed.
        let mut rng = Rng::from_seed(experiment_seed("rho_curves", args.seed));
        let mut sampler = GaussianLoadDecider::new(sigma);

        let mut table = TextTable::new(vec![
            "delta".into(),
            "g-Bounded".into(),
            "g-Myopic".into(),
            "sigma-Noisy-Load".into(),
            "Phi(d/sqrt2 s)".into(),
            "Phi sampled".into(),
            "gaussian curve".into(),
        ]);
        let mut points = Vec::new();
        for delta in 0..=15u64 {
            // Bin 0 is lighter by delta; a correct comparison picks it.
            let state = LoadState::from_loads(vec![0, delta]);
            let phi_closed = sampler.prob_first(&state, 0, 1);
            let correct = (0..trials)
                .filter(|_| sampler.decide(&state, 0, 1, &mut rng) == 0)
                .count();
            let phi_empirical = correct as f64 / trials as f64;
            table.push_row(vec![
                delta.to_string(),
                format!("{:.2}", bounded.rho(delta)),
                format!("{:.2}", myopic.rho(delta)),
                format!("{:.4}", gaussian.rho(delta)),
                format!("{:.4}", phi_closed),
                format!("{:.4}", phi_empirical),
                ascii_bar(gaussian.rho(delta)),
            ]);
            points.push(RhoPoint {
                delta,
                bounded: bounded.rho(delta),
                myopic: myopic.rho(delta),
                gaussian_rho: gaussian.rho(delta),
                phi_closed_form: phi_closed,
                phi_empirical,
            });
        }
        sink.table("rho_curves", table);

        sink.line(format!(
            "step functions jump to 1 at delta = g + 1 = {};",
            g + 1
        ));
        sink.line(format!(
            "the Gaussian curve rises smoothly: rho(sigma) = 1 - e^(-1)/2 = {:.4}.",
            1.0 - 0.5 * (-1.0f64).exp()
        ));
        sink.line(format!(
            "empirical column: {trials} draws of the physical model x + N(0, sigma^2) per delta,"
        ));
        sink.line(format!(
            "seeded via experiment_seed(\"rho_curves\", {}) — it tracks Phi(delta/(sqrt2 sigma)),",
            args.seed
        ));
        sink.line("which Eq. 2.1 re-scales into the sigma-Noisy-Load column.");

        let artifact = RhoCurvesArtifact {
            g,
            sigma,
            trials,
            points,
        };
        sink.blank();
        sink.save_artifact(&artifact);
        Ok(sink.take_report())
    }
}
