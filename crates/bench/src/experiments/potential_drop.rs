//! Ablation **A3**: empirical verification of the paper's drop
//! inequalities along real trajectories.
//!
//! Runs `g-Bounded` and periodically computes the **exact** conditional
//! expected one-step change of:
//!
//! * the hyperbolic cosine `Γ(γ(g))` against Theorem 4.3(i):
//!   `E[ΔΓ] ⩽ −(γ/96n)·Γ + c₁`;
//! * the quadratic `Υ` against Lemma 5.3: `E[ΔΥ] ⩽ −Δ/n + 2g + 1`;
//! * the offset potential `Λ(α, c₄g)` in *good* steps (`Δ ⩽ D·n·g`)
//!   against Lemma 5.7.
//!
//! Reports the worst margins; all inequalities should hold with room to
//! spare (the paper's constants are generous).

use balloc_core::TwoChoice;
use balloc_core::{LoadState, Process, Rng};
use balloc_noise::{AdvComp, ReverseAll};
use balloc_potentials::constants::{gamma_for_g, C4, D};
use balloc_potentials::{
    expected_drop_for_decider, AbsoluteValue, HyperbolicCosine, OffsetHyperbolicCosine, Potential,
    Quadratic,
};
use balloc_sim::{OutputSink, Report, TextTable};
use serde::Serialize;

use crate::{emit_header, experiment_seed, fmt3, BenchError, CommonArgs, FlagKind, FlagSpec};

use super::Experiment;

#[derive(Serialize)]
struct DropCheck {
    step: u64,
    gamma_drop: f64,
    gamma_bound: f64,
    quadratic_drop: f64,
    quadratic_bound: f64,
    lambda_drop: Option<f64>,
    good_step: bool,
}

#[derive(Serialize)]
struct PotentialDropArtifact {
    scale: String,
    g: u64,
    checks: Vec<DropCheck>,
    gamma_violations: usize,
    quadratic_violations: usize,
}

/// `balloc potential_drop` — see the module docs.
pub struct PotentialDrop;

impl Experiment for PotentialDrop {
    fn id(&self) -> &'static str {
        "potential_drop"
    }

    fn paper_ref(&self) -> &'static str {
        "Ablation A3 (Theorem 4.3(i), Lemmas 5.3, 5.7)"
    }

    fn description(&self) -> &'static str {
        "exact verification of the paper's drop inequalities along a g-Bounded trajectory"
    }

    fn extra_flags(&self) -> &'static [FlagSpec] {
        &[FlagSpec {
            name: "--g",
            kind: FlagKind::U64,
            positive: true,
            default: "4",
            help: "g-Bounded noise budget",
        }]
    }

    fn run(&self, args: &CommonArgs, sink: &mut OutputSink) -> Result<Report, BenchError> {
        let mut args = args.clone();
        // Exact drops cost O(n²) per check; default to a smaller n unless the
        // user overrides.
        if args.n == CommonArgs::default().n {
            args.n = 512;
        }
        let args = &args;
        emit_header(sink, "A3", "drop-inequality verification", args);

        let g = args.extras.u64("--g");
        let n = args.n;
        let gamma = gamma_for_g(g);
        let gamma_pot = HyperbolicCosine::new(gamma);
        let quad = Quadratic::new();
        let delta_pot = AbsoluteValue::new();
        let lambda = OffsetHyperbolicCosine::new(1.0 / 18.0, C4 * g as f64);

        let decider = AdvComp::new(g, ReverseAll);
        let mut process = TwoChoice::new(decider.clone());
        let mut state = LoadState::new(n);
        let mut rng = Rng::from_seed(experiment_seed("potential_drop", args.seed));

        let total_steps = (args.m()).min(400 * n as u64);
        let check_every = (total_steps / 40).max(1);
        let mut checks = Vec::new();

        let mut done = 0u64;
        while done < total_steps {
            let burst = check_every.min(total_steps - done);
            process.run(&mut state, burst, &mut rng);
            done += burst;

            let gamma_drop = expected_drop_for_decider(&gamma_pot, &decider, &state);
            // Theorem 4.3(i) with c₁ := 8 (the paper's constant is unspecified
            // but small; violations would show up as a positive margin).
            let gamma_bound = -gamma / (96.0 * n as f64) * gamma_pot.value(&state) + 8.0;

            let quadratic_drop = expected_drop_for_decider(&quad, &decider, &state);
            let quadratic_bound = -delta_pot.value(&state) / n as f64 + 2.0 * g as f64 + 1.0;

            let good_step = delta_pot.value(&state) <= D * n as f64 * g as f64;
            let lambda_drop = if good_step {
                Some(expected_drop_for_decider(&lambda, &decider, &state))
            } else {
                None
            };

            checks.push(DropCheck {
                step: done,
                gamma_drop,
                gamma_bound,
                quadratic_drop,
                quadratic_bound,
                lambda_drop,
                good_step,
            });
        }

        let mut table = TextTable::new(vec![
            "step".into(),
            "E[dGamma]".into(),
            "Thm4.3 bound".into(),
            "E[dUpsilon]".into(),
            "Lem5.3 bound".into(),
            "E[dLambda] (good)".into(),
        ]);
        for c in checks.iter().step_by((checks.len() / 12).max(1)) {
            table.push_row(vec![
                c.step.to_string(),
                fmt3(c.gamma_drop),
                fmt3(c.gamma_bound),
                fmt3(c.quadratic_drop),
                fmt3(c.quadratic_bound),
                c.lambda_drop
                    .map(fmt3)
                    .unwrap_or_else(|| "(bad step)".into()),
            ]);
        }
        sink.table("drop_checks", table);

        let gamma_violations = checks
            .iter()
            .filter(|c| c.gamma_drop > c.gamma_bound + 1e-9)
            .count();
        let quadratic_violations = checks
            .iter()
            .filter(|c| c.quadratic_drop > c.quadratic_bound + 1e-9)
            .count();
        sink.line(format!(
            "violations: Gamma {}/{}  Upsilon {}/{}",
            gamma_violations,
            checks.len(),
            quadratic_violations,
            checks.len()
        ));
        let good = checks.iter().filter(|c| c.good_step).count();
        sink.line(format!(
            "good steps (Delta <= D·n·g): {}/{} — Lemma 5.4 predicts a constant fraction",
            good,
            checks.len()
        ));

        let artifact = PotentialDropArtifact {
            scale: args.scale_line(),
            g,
            checks,
            gamma_violations,
            quadratic_violations,
        };
        sink.blank();
        sink.save_artifact(&artifact);
        Ok(sink.take_report())
    }
}
