//! Regenerates **Table 11.1** (the lower-bound table): runs each
//! lower-bound construction at the specific ball count `m` the paper
//! uses and reports the measured gap against the bound's growth term.
//!
//! * Observation 11.1 — any `g-Adv-Comp` instance at `m = n` has gap at
//!   least `log₂ log n − κ` (majorization with noiseless Two-Choice).
//! * Proposition 11.2(i) — `g-Myopic-Comp` at `m = ng/2` has gap `⩾ g/35`.
//! * Proposition 11.2(ii) — for `g ⩾ 6·log n`, at `m = ng²/(32·log n)`
//!   the gap is `⩾ g/60`.
//! * Theorem 11.3 — the `Ω(g/log g·log log n)` regime (vacuous at
//!   simulable `n`; the shape is checked instead).
//! * Proposition 11.5 — `σ-Noisy-Load` lower bounds at `m = n` and
//!   `m = σ^{4/5}·n/2`.
//! * Observation 11.6 — `b-Batch` inherits the One-Choice(b) gap in its
//!   first batch.

use balloc_analysis::bounds::{noisy_load_lower, one_choice_gap};
use balloc_core::rng::point_seed;
use balloc_core::stats::Summary;
use balloc_core::Process;
use balloc_core::TwoChoice;
use balloc_noise::{Batched, GMyopic, SigmaNoisyLoad};
use balloc_sim::{gaps, repeat_grid, OutputSink, Report, RunConfig, TextTable};
use serde::Serialize;

use crate::{emit_header, experiment_seed, fmt3, BenchError, CommonArgs};

use super::Experiment;

#[derive(Serialize)]
struct LowerBoundCheck {
    claim: String,
    m: u64,
    bound_value: f64,
    measured_mean_gap: f64,
    satisfied: bool,
}

#[derive(Serialize)]
struct Table11_1Artifact {
    scale: String,
    checks: Vec<LowerBoundCheck>,
}

/// One lower-bound construction: its claim, the specific `m` it is stated
/// at, the bound's numeric value, and a factory for the process under test.
struct Row {
    claim: String,
    m: u64,
    bound_value: f64,
    factory: Box<dyn Fn() -> Box<dyn Process + Send> + Sync>,
}

impl Row {
    fn new(
        claim: impl Into<String>,
        m: u64,
        bound_value: f64,
        factory: impl Fn() -> Box<dyn Process + Send> + Sync + 'static,
    ) -> Self {
        Self {
            claim: claim.into(),
            m,
            bound_value,
            factory: Box::new(factory),
        }
    }
}

/// `balloc table11_1` — see the module docs.
pub struct Table11_1;

impl Experiment for Table11_1 {
    fn id(&self) -> &'static str {
        "table11_1"
    }

    fn paper_ref(&self) -> &'static str {
        "Table 11.1"
    }

    fn description(&self) -> &'static str {
        "the paper's lower-bound constructions at their specific m, measured"
    }

    fn run(&self, args: &CommonArgs, sink: &mut OutputSink) -> Result<Report, BenchError> {
        emit_header(sink, "T11.1", "lower-bound constructions", args);

        let n = args.n as u64;
        let logn = (n as f64).ln();
        let mut rows: Vec<Row> = Vec::new();

        // Observation 11.1: Two-Choice itself (the weakest g-Adv-Comp
        // adversary) at m = n has gap >= log2 log n - k (k ~ 2 empirically).
        rows.push(Row::new(
            "Obs 11.1: any g-Adv-Comp, m = n, gap >= log2 log n - k",
            n,
            (logn / 2f64.ln()).log2() - 2.0,
            || Box::new(TwoChoice::classic()),
        ));

        // Proposition 11.2(i): g-Myopic at m = ng/2 has gap >= g/35.
        for g in [8u64, 16, 32] {
            rows.push(Row::new(
                format!("Prop 11.2(i): g-Myopic-Comp, g = {g}, m = ng/2, gap >= g/35"),
                n * g / 2,
                g as f64 / 35.0,
                move || Box::new(GMyopic::new(g)),
            ));
        }

        // Proposition 11.2(ii): g >= 6 log n, m = ng^2/(32 log n), gap >= g/60.
        {
            let g = (6.0 * logn).ceil() as u64 + 2;
            rows.push(Row::new(
                format!("Prop 11.2(ii): g-Myopic-Comp, g = {g} (>= 6 log n), gap >= g/60"),
                ((n as f64) * (g * g) as f64 / (32.0 * logn)).ceil() as u64,
                g as f64 / 60.0,
                move || Box::new(GMyopic::new(g)),
            ));
        }

        // Theorem 11.3 shape: at m = n*l with small l, the myopic gap grows
        // with g at least like the sublog term (shape check at l = 4).
        for g in [4u64, 16] {
            let ell = 4u64;
            rows.push(Row::new(
                format!(
                    "Thm 11.3 (shape): g-Myopic-Comp, g = {g}, m = {ell}n, gap ~ g/log g loglog n"
                ),
                n * ell,
                balloc_analysis::layered::myopic_lower_value(n, g) / 4.0,
                move || Box::new(GMyopic::new(g)),
            ));
        }

        // Proposition 11.5: sigma-Noisy-Load at m = sigma^{4/5}*n/2. The
        // paper's constants are 1/2, 1/30 etc.; use the growth term/8.
        for sigma in [8.0f64, 32.0] {
            rows.push(Row::new(
                format!("Prop 11.5: sigma-Noisy-Load, sigma = {sigma}, m = sigma^0.8 n/2"),
                ((sigma.powf(0.8) * n as f64) / 2.0).ceil() as u64,
                noisy_load_lower(n, sigma) / 8.0,
                move || Box::new(SigmaNoisyLoad::new(sigma)),
            ));
        }

        // Observation 11.6: b-Batch at m = b = n matches One-Choice(b).
        rows.push(Row::new(
            "Obs 11.6: b-Batch, m = b = n, gap ~ One-Choice(b)",
            n,
            one_choice_gap(n, n) / 4.0,
            move || Box::new(Batched::new(n)),
        ));

        // Every row's runs go into one flattened repeat_grid task set; row k
        // gets the decorrelated master seed point_seed(tagged_base, k), where
        // tagged_base folds this experiment's tag into --seed.
        let configs: Vec<RunConfig> = rows
            .iter()
            .enumerate()
            .map(|(k, row)| {
                RunConfig::new(
                    args.n,
                    row.m,
                    point_seed(experiment_seed("table11_1", args.seed), k as u64),
                )
            })
            .collect();
        let blocks = repeat_grid(&configs, |k| (rows[k].factory)(), args.runs, args.threads);

        let checks: Vec<LowerBoundCheck> = rows
            .iter()
            .zip(blocks)
            .map(|(row, results)| {
                let measured = Summary::from_values(&gaps(&results)).mean();
                LowerBoundCheck {
                    claim: row.claim.clone(),
                    m: row.m,
                    bound_value: row.bound_value,
                    measured_mean_gap: measured,
                    satisfied: measured >= row.bound_value,
                }
            })
            .collect();

        sink.line(format!(
            "{:<75} {:>10} {:>10} {:>10} {:>6}",
            "claim", "m", "bound", "measured", "ok"
        ));
        sink.line("-".repeat(115));
        let mut shadow = TextTable::new(vec![
            "claim".into(),
            "m".into(),
            "bound".into(),
            "measured".into(),
            "ok".into(),
        ]);
        for c in &checks {
            sink.line(format!(
                "{:<75} {:>10} {:>10} {:>10} {:>6}",
                c.claim,
                c.m,
                fmt3(c.bound_value),
                fmt3(c.measured_mean_gap),
                if c.satisfied { "yes" } else { "NO" }
            ));
            shadow.push_row(vec![
                c.claim.clone(),
                c.m.to_string(),
                fmt3(c.bound_value),
                fmt3(c.measured_mean_gap),
                if c.satisfied { "yes" } else { "NO" }.into(),
            ]);
        }
        sink.shadow_table("lower_bounds", shadow);
        let all_ok = checks.iter().all(|c| c.satisfied);
        sink.line(format!(
            "\nall lower-bound constructions exhibited: {}",
            if all_ok { "yes" } else { "NO — investigate" }
        ));

        let artifact = Table11_1Artifact {
            scale: args.scale_line(),
            checks,
        };
        sink.save_artifact(&artifact);
        Ok(sink.take_report())
    }
}
