//! Ablation **A10**: resilience middleware vs the power of two choices.
//!
//! The paper's thesis is that a *second choice in space* (d = 2 probes
//! against possibly-noisy loads) buys an exponential gap improvement. The
//! systems world buys tail latency with a *second choice in time*:
//! retries and hedged requests. This duel runs both families against the
//! same faulty sharded backend — one shard slow, one stalling, one
//! erroring, one corrupting its reported loads within additive budget `g`
//! (the `g`-Adv-Comp adversary) — and reports achieved gap next to
//! p50/p99 completion latency in virtual ticks:
//!
//! * `d1` / `d2` — One-Choice vs Two-Choice with only a deadline;
//! * `d1_retry` / `d1_hedge` — One-Choice rescued by time-domain
//!   middleware;
//! * `d2_hedge` / `d2_full` — both choices at once (full adds budgeted
//!   retries and a circuit breaker).
//!
//! Every arm runs on the deterministic single-threaded resilience engine
//! ([`run_resilient`]): a fixed seed fixes the entire per-request outcome
//! stream, so `balloc resilience_duel --replay --json` is byte-stable
//! across runs. The first arm is always re-run once as an in-process
//! determinism self-check; `--replay` extends the check to every arm.

use balloc_noise::CorruptKind;
use balloc_serve::{
    run_resilient, BreakerConfig, FaultKind, FaultPlan, HedgeConfig, NoiseMode, Policy, Request,
    ResilienceConfig, RetryConfig, Staleness,
};
use balloc_sim::{OutputSink, Report, TextTable};
use serde::Serialize;

use crate::{emit_header, experiment_seed, fmt3, BenchError, CommonArgs, FlagKind, FlagSpec};

use super::Experiment;

#[derive(Serialize)]
struct ArmCell {
    arm: String,
    d: usize,
    policy: String,
    gap: f64,
    max_load: u64,
    latency_p50: u64,
    latency_p99: u64,
    latency_max: u64,
    allocated: u64,
    shed: u64,
    timed_out: u64,
    broken: u64,
    retries: u64,
    hedged: u64,
    hedge_rescued: u64,
    breaker_trips: u64,
    faults_slowed: u64,
    faults_stalled: u64,
    faults_errored: u64,
    ticks: u64,
    digest: String,
}

#[derive(Serialize)]
struct ResilienceDuelArtifact {
    scale: String,
    workers: usize,
    shards: usize,
    requests_per_arm: u64,
    timeout: u64,
    slow_extra: u64,
    stall_pm: u64,
    error_pm: u64,
    g: u64,
    arms: Vec<ArmCell>,
}

/// `balloc resilience_duel` — see the module docs.
pub struct ResilienceDuel;

/// One arm of the duel: a name, a probe count, and a middleware policy.
struct Arm {
    name: &'static str,
    d: usize,
    policy: Policy,
}

/// Human-readable list of the layers a policy enables (timeout elided —
/// every arm carries it, since the stalling shard demands a deadline).
fn policy_label(p: &Policy) -> String {
    let mut parts = Vec::new();
    if p.retry.is_some() {
        parts.push("retry");
    }
    if p.hedge.is_some() {
        parts.push("hedge");
    }
    if p.rate.is_some() {
        parts.push("rate");
    }
    if p.breaker.is_some() {
        parts.push("breaker");
    }
    if parts.is_empty() {
        "timeout only".into()
    } else {
        parts.join("+")
    }
}

/// The six arms at fixed fault pressure.
fn arms(timeout: u64, retry_max: u32, hedge_q: f64) -> Vec<Arm> {
    let timeout = Some(timeout);
    let retry = RetryConfig {
        max_retries: retry_max,
        ..RetryConfig::default()
    };
    let hedge = HedgeConfig {
        quantile: hedge_q,
        ..HedgeConfig::default()
    };
    let bare = Policy {
        timeout,
        ..Policy::default()
    };
    vec![
        Arm {
            name: "d1",
            d: 1,
            policy: bare,
        },
        Arm {
            name: "d2",
            d: 2,
            policy: bare,
        },
        Arm {
            name: "d1_retry",
            d: 1,
            policy: Policy {
                timeout,
                retry: Some(retry),
                ..Policy::default()
            },
        },
        Arm {
            name: "d1_hedge",
            d: 1,
            policy: Policy {
                timeout,
                hedge: Some(hedge),
                ..Policy::default()
            },
        },
        Arm {
            name: "d2_hedge",
            d: 2,
            policy: Policy {
                timeout,
                hedge: Some(hedge),
                ..Policy::default()
            },
        },
        Arm {
            name: "d2_full",
            d: 2,
            policy: Policy {
                retry: Some(retry),
                rate: None,
                hedge: Some(hedge),
                timeout,
                breaker: Some(BreakerConfig::default()),
            },
        },
    ]
}

/// The duel's fault plan: four distinct adversaries on four shards.
fn fault_plan(slow_extra: u64, stall_pm: u32, error_pm: u32, g: u64) -> FaultPlan {
    FaultPlan::clean(1)
        .with(0, FaultKind::Slow { extra: slow_extra })
        .with(
            1,
            FaultKind::Stalled {
                per_mille: stall_pm,
            },
        )
        .with(
            2,
            FaultKind::Erroring {
                per_mille: error_pm,
            },
        )
        .with(
            3,
            FaultKind::CorruptedLoad {
                g,
                kind: CorruptKind::Understate,
            },
        )
}

impl Experiment for ResilienceDuel {
    fn id(&self) -> &'static str {
        "resilience_duel"
    }

    fn paper_ref(&self) -> &'static str {
        "Ablation A10 (middleware vs d-Choice under g-Adv-Comp and delay faults: Theorems 2.1, 2.4)"
    }

    fn description(&self) -> &'static str {
        "gap + p50/p99 latency of retry/hedge/breaker policies vs One/Two-Choice on faulty shards"
    }

    fn extra_flags(&self) -> &'static [FlagSpec] {
        &[
            FlagSpec {
                name: "--workers",
                kind: FlagKind::U64,
                positive: true,
                default: "2",
                help: "virtual round-robin workers (each owns a middleware stack)",
            },
            FlagSpec {
                name: "--timeout",
                kind: FlagKind::U64,
                positive: true,
                default: "24",
                help: "per-attempt deadline in ticks (every arm; stalls demand one)",
            },
            FlagSpec {
                name: "--retry-max",
                kind: FlagKind::U64,
                positive: true,
                default: "2",
                help: "max retries per request in the retry arms",
            },
            FlagSpec {
                name: "--hedge-q",
                kind: FlagKind::F64,
                positive: true,
                default: "0.9",
                help: "latency quantile that arms the hedge delay (must be < 1)",
            },
            FlagSpec {
                name: "--slow-extra",
                kind: FlagKind::U64,
                positive: true,
                default: "12",
                help: "mean extra ticks on the slow shard (shard 0)",
            },
            FlagSpec {
                name: "--stall-pm",
                kind: FlagKind::U64,
                positive: false,
                default: "100",
                help: "stall probability in per-mille on shard 1 (0..=1000)",
            },
            FlagSpec {
                name: "--error-pm",
                kind: FlagKind::U64,
                positive: false,
                default: "200",
                help: "clean-failure probability in per-mille on shard 2 (0..=1000)",
            },
            FlagSpec {
                name: "--g",
                kind: FlagKind::U64,
                positive: true,
                default: "4",
                help: "g-Adv-Comp corruption budget on shard 3's reported loads",
            },
            FlagSpec {
                name: "--replay",
                kind: FlagKind::Switch,
                positive: false,
                default: "off",
                help: "re-run every arm and verify digests are bit-identical",
            },
        ]
    }

    fn run(&self, args: &CommonArgs, sink: &mut OutputSink) -> Result<Report, BenchError> {
        emit_header(sink, "A10", "resilience duel: middleware vs d-Choice", args);

        let workers = args.extras.u64("--workers") as usize;
        let timeout = args.extras.u64("--timeout");
        let retry_max = args.extras.u64("--retry-max") as u32;
        let hedge_q = args.extras.f64("--hedge-q");
        let slow_extra = args.extras.u64("--slow-extra");
        let stall_pm = args.extras.u64("--stall-pm");
        let error_pm = args.extras.u64("--error-pm");
        let g = args.extras.u64("--g");
        let verify_all = args.extras.switch("--replay");

        if !(0.0..1.0).contains(&hedge_q) {
            return Err(BenchError::Usage("--hedge-q must lie in (0, 1)".into()));
        }
        for (flag, pm) in [("--stall-pm", stall_pm), ("--error-pm", error_pm)] {
            if pm > 1000 {
                return Err(BenchError::Usage(format!(
                    "{flag} is per-mille and must be <= 1000 (got {pm})"
                )));
            }
        }
        // The plan pins four distinct adversaries to shards 0..4.
        let shards = 8.min(args.n);
        if shards < 4 {
            return Err(BenchError::Usage(
                "--n must be at least 4 (the fault plan needs four shards)".into(),
            ));
        }
        let faults = fault_plan(slow_extra, stall_pm as u32, error_pm as u32, g);

        let arm_config = |arm: &Arm| ResilienceConfig {
            n: args.n,
            shards,
            workers,
            requests: args.m(),
            request: Request {
                d: arm.d,
                noise: NoiseMode::Snapshot,
            },
            staleness: Staleness::Batch { b: args.n as u64 },
            faults: faults.clone(),
            policy: arm.policy,
            seed: experiment_seed(&format!("resilience_duel/{}", arm.name), args.seed),
        };

        let mut table = TextTable::new(vec![
            "arm".into(),
            "policy".into(),
            "gap".into(),
            "p50".into(),
            "p99".into(),
            "alloc".into(),
            "shed".into(),
            "t/o".into(),
            "broken".into(),
            "digest".into(),
        ]);
        let mut cells = Vec::new();
        let all_arms = arms(timeout, retry_max, hedge_q);
        for arm in &all_arms {
            let cfg = arm_config(arm);
            let report = run_resilient(&cfg);
            if verify_all {
                let again = run_resilient(&cfg);
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
                policy_label(&arm.policy),
                fmt3(o.gap),
                o.latency_p50.to_string(),
                o.latency_p99.to_string(),
                o.allocated.to_string(),
                o.shed.to_string(),
                o.timed_out.to_string(),
                o.broken.to_string(),
                format!("{:016x}", report.digest),
            ]);
            cells.push(ArmCell {
                arm: arm.name.into(),
                d: arm.d,
                policy: policy_label(&arm.policy),
                gap: o.gap,
                max_load: o.max_load,
                latency_p50: o.latency_p50,
                latency_p99: o.latency_p99,
                latency_max: o.latency_max,
                allocated: o.allocated,
                shed: o.shed,
                timed_out: o.timed_out,
                broken: o.broken,
                retries: o.retries,
                hedged: o.hedged,
                hedge_rescued: o.hedge_rescued,
                breaker_trips: o.breaker_trips,
                faults_slowed: o.faults_slowed,
                faults_stalled: o.faults_stalled,
                faults_errored: o.faults_errored,
                ticks: o.ticks,
                digest: format!("{:016x}", report.digest),
            });
        }

        // Determinism self-check even without --replay: the first arm must
        // reproduce its digest bit for bit.
        let again = run_resilient(&arm_config(&all_arms[0]));
        if format!("{:016x}", again.digest) != cells[0].digest {
            return Err(BenchError::Run(format!(
                "replay determinism violated: {:016x} != {}",
                again.digest, cells[0].digest
            )));
        }

        sink.table("duel", table);
        sink.line(
            "expected: d2 beats d1 on gap even under g-Adv-Comp corruption; hedging cuts \
             p99 where retries cannot (the slow shard answers, late); the full policy \
             combines both. Digests are bit-identical across runs at a fixed seed.",
        );

        let artifact = ResilienceDuelArtifact {
            scale: args.scale_line(),
            workers,
            shards,
            requests_per_arm: args.m(),
            timeout,
            slow_extra,
            stall_pm,
            error_pm,
            g,
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

    #[test]
    fn every_arm_is_stall_safe_and_valid() {
        let faults = fault_plan(12, 100, 200, 4);
        assert!(faults.can_stall());
        for arm in arms(24, 2, 0.9) {
            // Policy::validate panics on an unusable arm (e.g. a stalling
            // fault without a timeout) — every arm must pass.
            arm.policy.validate(&faults);
            assert!(arm.d == 1 || arm.d == 2, "{}: unexpected d", arm.name);
        }
    }

    #[test]
    fn arm_names_are_distinct() {
        let all = arms(24, 2, 0.9);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn policy_labels_read_well() {
        let all = arms(24, 2, 0.9);
        assert_eq!(policy_label(&all[0].policy), "timeout only");
        assert_eq!(policy_label(&all[2].policy), "retry");
        assert_eq!(policy_label(&all[5].policy), "retry+hedge+breaker");
    }
}
