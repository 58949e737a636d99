//! Ablation **A12**: balanced allocations under churn — the
//! Power-of-Filling regime on an elastic membership.
//!
//! The paper's engines assume the bin set is fixed and balls only
//! arrive. This ablation drops both assumptions at once, the regime "The
//! Power of Filling in Balanced Allocations" analyses: balls depart as
//! well as arrive (a seeded per-slot departure schedule), and the
//! serving membership changes underneath the allocator — scripted
//! operator churn and shed-driven autoscaling, both flowing through one
//! epoch-versioned [`ShardDirectory`](balloc_serve::ShardDirectory).
//! Three arms at a fixed event budget:
//!
//! * `static` — fixed membership, arrivals + departures only: the
//!   baseline whose gap the `b`-Batch theory line tracks;
//! * `churned` — a scripted insert/remove plan forcing live rebalances
//!   and ball migrations mid-run;
//! * `autoscaled` — starts at one member; admission shedding drives the
//!   [`Autoscaler`](balloc_serve::Autoscaler) to grow the membership
//!   through the same directory.
//!
//! Every arm runs on the deterministic single-threaded churn engine
//! ([`run_churn`]): a fixed seed fixes the entire event stream, so
//! `balloc churn_bench --replay --json` is byte-stable across runs. The
//! reported `theory` column is [`batch_gap`]`(n, b)` — under churn the
//! achieved gap is measured over *resident* balls, which is what the
//! filling regime's mean-quantity tracks.

use balloc_analysis::bounds::batch_gap;
use balloc_serve::{
    run_churn, AutoscaleConfig, ChurnConfig, PlannedChange, RebalanceKind, Request, Staleness,
};
use balloc_sim::{OutputSink, Report, TextTable};
use serde::Serialize;

use crate::{emit_header, experiment_seed, fmt3, BenchError, CommonArgs, FlagKind, FlagSpec};

use super::Experiment;

#[derive(Serialize)]
struct ArmCell {
    arm: String,
    gap: f64,
    theory_gap: f64,
    max_load: u64,
    arrivals: u64,
    departures: u64,
    allocated: u64,
    shed: u64,
    migrated: u64,
    moved_bins: u64,
    changes: u64,
    inserts: u64,
    removes: u64,
    autoscale_outs: u64,
    autoscale_ins: u64,
    final_members: usize,
    max_members: usize,
    epoch: u64,
    refreshes: u64,
    ticks: u64,
    digest: String,
    membership_digest: String,
}

#[derive(Serialize)]
struct ChurnBenchArtifact {
    scale: String,
    workers: usize,
    requests_per_arm: u64,
    depart_pm: u64,
    migration_rate: u64,
    token_every: u64,
    burst: u64,
    window: u64,
    shed_threshold: u64,
    arms: Vec<ArmCell>,
}

/// `balloc churn_bench` — see the module docs.
pub struct ChurnBench;

/// One arm: a name plus the membership dynamics layered onto the shared
/// arrival/departure schedule.
struct Arm {
    name: &'static str,
    shards: usize,
    plan: Vec<(u64, PlannedChange)>,
    autoscale: Option<AutoscaleConfig>,
}

/// The three arms. The churned plan spreads two inserts and two removes
/// across the middle of the run so migrations overlap live traffic.
fn arms(requests: u64, shards: usize, auto: AutoscaleConfig) -> Vec<Arm> {
    let q = (requests / 8).max(1);
    vec![
        Arm {
            name: "static",
            shards,
            plan: Vec::new(),
            autoscale: None,
        },
        Arm {
            name: "churned",
            shards,
            plan: vec![
                (2 * q, PlannedChange::Insert),
                (3 * q, PlannedChange::RemoveOldest),
                (5 * q, PlannedChange::Insert),
                (6 * q, PlannedChange::RemoveNewest),
            ],
            autoscale: None,
        },
        Arm {
            name: "autoscaled",
            shards: 1,
            plan: Vec::new(),
            autoscale: Some(auto),
        },
    ]
}

impl Experiment for ChurnBench {
    fn id(&self) -> &'static str {
        "churn_bench"
    }

    fn paper_ref(&self) -> &'static str {
        "Ablation A12 (churn and elastic membership: the Power-of-Filling regime vs b-Batch)"
    }

    fn description(&self) -> &'static str {
        "gap under arrivals+departures with live rebalance and shed-driven autoscaling"
    }

    fn extra_flags(&self) -> &'static [FlagSpec] {
        &[
            FlagSpec {
                name: "--workers",
                kind: FlagKind::U64,
                positive: true,
                default: "2",
                help: "virtual round-robin workers (each owns a snapshot allocator)",
            },
            FlagSpec {
                name: "--shards",
                kind: FlagKind::U64,
                positive: true,
                default: "4",
                help: "initial members in the static and churned arms",
            },
            FlagSpec {
                name: "--depart-pm",
                kind: FlagKind::U64,
                positive: false,
                default: "150",
                help: "departure probability per event slot, per-mille (0..=1000)",
            },
            FlagSpec {
                name: "--migration-rate",
                kind: FlagKind::U64,
                positive: true,
                default: "4",
                help: "balls re-homed per tick while a rebalance migration is in flight",
            },
            FlagSpec {
                name: "--token-every",
                kind: FlagKind::U64,
                positive: true,
                default: "2",
                help: "each member adds one admission token every this many ticks",
            },
            FlagSpec {
                name: "--burst",
                kind: FlagKind::U64,
                positive: true,
                default: "8",
                help: "admission token bucket capacity",
            },
            FlagSpec {
                name: "--window",
                kind: FlagKind::U64,
                positive: true,
                default: "64",
                help: "autoscaler observation window in ticks (autoscaled arm)",
            },
            FlagSpec {
                name: "--shed-threshold",
                kind: FlagKind::U64,
                positive: true,
                default: "8",
                help: "sheds per window that trigger a scale-out (autoscaled arm)",
            },
            FlagSpec {
                name: "--replay",
                kind: FlagKind::Switch,
                positive: false,
                default: "off",
                help: "re-run every arm and verify reports are bit-identical",
            },
        ]
    }

    fn run(&self, args: &CommonArgs, sink: &mut OutputSink) -> Result<Report, BenchError> {
        emit_header(
            sink,
            "A12",
            "churn bench: elastic membership under filling",
            args,
        );

        let workers = args.extras.u64("--workers") as usize;
        let shards = args.extras.u64("--shards") as usize;
        let depart_pm = args.extras.u64("--depart-pm");
        let migration_rate = args.extras.u64("--migration-rate");
        let token_every = args.extras.u64("--token-every");
        let burst = args.extras.u64("--burst");
        let window = args.extras.u64("--window");
        let shed_threshold = args.extras.u64("--shed-threshold");
        let verify_all = args.extras.switch("--replay");

        if depart_pm > 1000 {
            return Err(BenchError::Usage(format!(
                "--depart-pm is per-mille and must be <= 1000 (got {depart_pm})"
            )));
        }
        if shards > args.n {
            return Err(BenchError::Usage(format!(
                "--shards must not exceed --n (got {shards} members for {} bins)",
                args.n
            )));
        }
        let auto = AutoscaleConfig {
            shed_threshold,
            window,
            idle_windows: 4,
            min_shards: 1,
            max_shards: 8.min(args.n),
        };
        auto.validate();
        let depart_pm_u32 = u32::try_from(depart_pm).expect("validated <= 1000 above");

        let requests = args.m();
        let b = args.n as u64;
        let theory = batch_gap(args.n as u64, b);

        let arm_config = |arm: &Arm| ChurnConfig {
            n: args.n,
            shards: arm.shards,
            workers,
            requests,
            request: Request::two_choice(),
            staleness: Staleness::Batch { b },
            rebalance: RebalanceKind::Proportional,
            depart_pm: depart_pm_u32,
            migration_rate,
            token_every,
            burst,
            plan: arm.plan.clone(),
            autoscale: arm.autoscale,
            seed: experiment_seed(&format!("churn_bench/{}", arm.name), args.seed),
        };

        let mut table = TextTable::new(vec![
            "arm".into(),
            "gap".into(),
            "theory".into(),
            "arrive".into(),
            "depart".into(),
            "shed".into(),
            "moved".into(),
            "migr".into(),
            "members".into(),
            "epoch".into(),
            "digest".into(),
        ]);
        let mut cells = Vec::new();
        for arm in &arms(requests, shards, auto) {
            let cfg = arm_config(arm);
            let report = run_churn(&cfg);
            if verify_all {
                let again = run_churn(&cfg);
                if again != report {
                    return Err(BenchError::Run(format!(
                        "replay determinism violated on arm {}: {:016x} != {:016x}",
                        arm.name, again.digest, report.digest
                    )));
                }
            }
            let o = &report.outcome;
            table.push_row(vec![
                arm.name.into(),
                fmt3(o.gap),
                fmt3(theory),
                o.arrivals.to_string(),
                o.departures.to_string(),
                o.shed.to_string(),
                o.moved_bins.to_string(),
                o.migrated.to_string(),
                format!("{}/{}", o.final_members, o.max_members),
                o.epoch.to_string(),
                format!("{:016x}", report.digest),
            ]);
            cells.push(ArmCell {
                arm: arm.name.into(),
                gap: o.gap,
                theory_gap: theory,
                max_load: o.max_load,
                arrivals: o.arrivals,
                departures: o.departures,
                allocated: o.allocated,
                shed: o.shed,
                migrated: o.migrated,
                moved_bins: o.moved_bins,
                changes: o.changes,
                inserts: o.inserts,
                removes: o.removes,
                autoscale_outs: o.autoscale_outs,
                autoscale_ins: o.autoscale_ins,
                final_members: o.final_members,
                max_members: o.max_members,
                epoch: o.epoch,
                refreshes: o.refreshes,
                ticks: o.ticks,
                digest: format!("{:016x}", report.digest),
                membership_digest: format!("{:016x}", report.membership_digest),
            });
        }

        // Determinism self-check even without --replay: the static arm
        // must reproduce its digest bit for bit.
        let again = run_churn(&arm_config(&arms(requests, shards, auto)[0]));
        if format!("{:016x}", again.digest) != cells[0].digest {
            return Err(BenchError::Run(format!(
                "replay determinism violated: {:016x} != {}",
                again.digest, cells[0].digest
            )));
        }

        sink.table("churn", table);
        sink.line(
            "expected: the static arm's gap tracks the b-Batch theory line (the filling \
             regime measures over resident balls); churn moves bins and migrates their \
             balls without breaking the conservation ledger; the autoscaled arm grows its \
             membership until shedding stops. Digests are bit-identical across runs at a \
             fixed seed.",
        );

        let artifact = ChurnBenchArtifact {
            scale: args.scale_line(),
            workers,
            requests_per_arm: requests,
            depart_pm,
            migration_rate,
            token_every,
            burst,
            window,
            shed_threshold,
            arms: cells,
        };
        sink.blank();
        sink.save_artifact(&artifact);
        Ok(sink.take_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_auto() -> AutoscaleConfig {
        AutoscaleConfig {
            shed_threshold: 8,
            window: 64,
            idle_windows: 4,
            min_shards: 1,
            max_shards: 8,
        }
    }

    #[test]
    fn arm_names_are_distinct_and_plans_sorted() {
        let all = arms(1_000, 4, demo_auto());
        for (i, a) in all.iter().enumerate() {
            assert!(
                a.plan.windows(2).all(|w| w[0].0 <= w[1].0),
                "{}: unsorted plan",
                a.name
            );
            for b in &all[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn churned_arm_schedules_inside_the_run() {
        for requests in [8u64, 1_000, 1_000_000] {
            let all = arms(requests, 4, demo_auto());
            let churned = &all[1];
            assert_eq!(churned.plan.len(), 4);
            assert!(churned.plan.iter().all(|&(at, _)| at < requests));
        }
    }

    #[test]
    fn autoscaled_arm_starts_from_one_member() {
        let all = arms(1_000, 4, demo_auto());
        assert_eq!(all[2].shards, 1);
        assert!(all[2].autoscale.is_some());
        assert!(all[0].autoscale.is_none());
    }
}
