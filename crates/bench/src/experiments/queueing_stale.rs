//! Ablation **A7**: two-choice queueing under the periodic update model.
//!
//! Mitzenmacher's periodic update model (\[39\], cited by the paper as the
//! queueing incarnation of `b-Batch`) and Dahlin's stale-load study \[22\]:
//! jobs join the shorter of two sampled queues, but the lengths they read
//! are refreshed only every `T` slots. This experiment sweeps `T` and shows
//! the three regimes: free (T small), b-Batch-like degradation (T ~ n),
//! and **herding** (T ≫ n — stale two-choice becomes *worse than random*).

use balloc_core::Rng;
use balloc_dynamic::{JoinPolicy, Supermarket};
use balloc_sim::{OutputSink, Report, TextTable};
use serde::Serialize;

use crate::{emit_header, experiment_seed, fmt3, BenchError, CommonArgs, FlagKind, FlagSpec};

use super::Experiment;

#[derive(Serialize)]
struct QueueingPoint {
    update_period: u64,
    average_jobs: f64,
    mean_sojourn_slots: f64,
    max_queue: u64,
}

#[derive(Serialize)]
struct QueueingStaleArtifact {
    scale: String,
    servers: usize,
    lambda: f64,
    mu: f64,
    slots: u64,
    random_baseline: QueueingPoint,
    live_two_choice: QueueingPoint,
    stale_points: Vec<QueueingPoint>,
}

fn measure(
    policy: JoinPolicy,
    n: usize,
    lambda: f64,
    mu: f64,
    slots: u64,
    seed: u64,
) -> QueueingPoint {
    let mut market = Supermarket::new(n, lambda, mu, policy);
    let mut rng = Rng::from_seed(seed);
    market.run(slots, &mut rng);
    let m = market.metrics();
    QueueingPoint {
        update_period: match policy {
            JoinPolicy::TwoChoiceStale { update_period } => update_period,
            _ => 0,
        },
        average_jobs: m.average_jobs(),
        mean_sojourn_slots: m.mean_sojourn(),
        max_queue: m.max_queue,
    }
}

/// `balloc queueing_stale` — see the module docs.
pub struct QueueingStale;

impl Experiment for QueueingStale {
    fn id(&self) -> &'static str {
        "queueing_stale"
    }

    fn paper_ref(&self) -> &'static str {
        "Ablation A7 (periodic update model of [39])"
    }

    fn description(&self) -> &'static str {
        "two-choice queueing under periodic (stale) load updates"
    }

    fn extra_flags(&self) -> &'static [FlagSpec] {
        &[
            FlagSpec {
                name: "--lambda",
                kind: FlagKind::F64,
                positive: false, // lambda = 0 (no arrivals) is a legal regime
                default: "0.75",
                help: "per-server arrival rate",
            },
            FlagSpec {
                name: "--mu",
                kind: FlagKind::F64,
                positive: true,
                default: "0.9",
                help: "per-server service rate",
            },
            FlagSpec {
                name: "--slots",
                kind: FlagKind::U64,
                positive: true,
                default: "6000",
                help: "time slots to simulate",
            },
        ]
    }

    fn run(&self, args: &CommonArgs, sink: &mut OutputSink) -> Result<Report, BenchError> {
        emit_header(sink, "A7", "queueing with stale information", args);

        let n = args.n.min(2_000); // O(n) work per slot
        let lambda = args.extras.f64("--lambda");
        let mu = args.extras.f64("--mu");
        if !(0.0..1.0).contains(&lambda) || mu > 1.0 {
            return Err(BenchError::Usage(
                "--lambda must lie in [0, 1) and --mu in (0, 1]".into(),
            ));
        }
        let slots = args.extras.u64("--slots");
        sink.line(format!(
            "servers = {n}, lambda = {lambda}, mu = {mu}, slots = {slots}\n"
        ));

        let tagged = experiment_seed("queueing_stale", args.seed);
        let random = measure(JoinPolicy::Random, n, lambda, mu, slots, tagged);
        let live = measure(JoinPolicy::TwoChoice, n, lambda, mu, slots, tagged + 1);

        let periods = [1u64, 10, 100, 500, 2_000, 5_000];
        let stale: Vec<QueueingPoint> = periods
            .iter()
            .enumerate()
            .map(|(j, &t)| {
                measure(
                    JoinPolicy::TwoChoiceStale { update_period: t },
                    n,
                    lambda,
                    mu,
                    slots,
                    tagged + 2 + j as u64,
                )
            })
            .collect();

        let mut table = TextTable::new(vec![
            "policy".into(),
            "avg jobs".into(),
            "mean sojourn (slots)".into(),
            "max queue".into(),
        ]);
        table.push_row(vec![
            "Random (One-Choice)".into(),
            fmt3(random.average_jobs),
            fmt3(random.mean_sojourn_slots),
            random.max_queue.to_string(),
        ]);
        table.push_row(vec![
            "Two-Choice (live)".into(),
            fmt3(live.average_jobs),
            fmt3(live.mean_sojourn_slots),
            live.max_queue.to_string(),
        ]);
        for p in &stale {
            table.push_row(vec![
                format!("Two-Choice stale T = {}", p.update_period),
                fmt3(p.average_jobs),
                fmt3(p.mean_sojourn_slots),
                p.max_queue.to_string(),
            ]);
        }
        sink.table("policies", table);

        sink.line("shape checks:");
        sink.line(format!(
            "  live two-choice beats random: {}",
            live.average_jobs < random.average_jobs
        ));
        let herding = stale
            .iter()
            .filter(|p| p.average_jobs > random.average_jobs)
            .map(|p| p.update_period)
            .collect::<Vec<_>>();
        sink.line(format!(
            "  herding (stale worse than random) at T ∈ {herding:?} — [39]'s phenomenon"
        ));

        let artifact = QueueingStaleArtifact {
            scale: args.scale_line(),
            servers: n,
            lambda,
            mu,
            slots,
            random_baseline: random,
            live_two_choice: live,
            stale_points: stale,
        };
        sink.blank();
        sink.save_artifact(&artifact);
        Ok(sink.take_report())
    }
}
