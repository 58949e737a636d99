//! Golden values for the deterministic replay, resilience and churn
//! engines.
//!
//! `fault_replay.rs` pins the resilience engine one fault kind and at most
//! two layers at a time; the resilience golden here runs the full
//! `d2_full` stack (retry, hedge, timeout, breaker) against all four
//! faults at once, so the hedge soft deadline nests around the timeout
//! deadline and the clock's overrun register feeds hedge regret; the
//! all-layers golden adds a rate limit and a small retry budget, so the
//! shed, exhaustion and timeout counters are pinned nonzero. Each
//! engine's output is a pure function of `(config, seed)`, so
//! the constants below fix the whole decision stream (the digest), the
//! refresh schedule and every ledger count. A refactor of the engines
//! must leave every value here unchanged. The binary-level `cmp` gates
//! in CI compare two runs of one build and cannot catch drift across
//! commits; these constants can.
//!
//! If a change *intentionally* alters a stream, re-pin the constants from
//! the failure output and say why in the commit.

use balloc_noise::CorruptKind;
use balloc_serve::{
    run_churn, run_replay, run_resilient, AutoscaleConfig, BreakerConfig, ChurnConfig, FaultKind,
    FaultPlan, HedgeConfig, NoiseMode, PlannedChange, Policy, RateLimitConfig, Request,
    ResilienceConfig, ResilienceOutcome, RetryConfig, ServeConfig, Staleness,
};

/// Sharded store, b-Batch, two workers that split the requests evenly.
fn replay_batch() -> ServeConfig {
    ServeConfig::demo(64, 4, 2022)
}

/// One shard, τ-Delay, three workers over an uneven request count,
/// 3-choice requests.
fn replay_delay() -> ServeConfig {
    ServeConfig {
        workers: 3,
        requests: 5_003,
        request: Request {
            d: 3,
            noise: NoiseMode::Snapshot,
        },
        staleness: Staleness::Delay { tau: 100 },
        ..ServeConfig::demo(256, 1, 2023)
    }
}

#[test]
fn replay_goldens() {
    // (name, config, digest, refreshes, gap)
    let goldens = [
        (
            "batch",
            replay_batch(),
            0x2e37_7715_3ac3_ee4e_u64,
            8_u64,
            4.0_f64,
        ),
        (
            "delay",
            replay_delay(),
            0x70a3_f50a_5357_9b3f,
            150,
            2.457_031_25,
        ),
    ];
    for (name, cfg, digest, refreshes, gap) in goldens {
        let r = run_replay(&cfg);
        let got = (r.digest, r.outcome.refreshes, r.outcome.gap);
        assert_eq!(
            got,
            (digest, refreshes, gap),
            "{name}: run_replay drifted; got (digest {:#018x}, refreshes {}, gap {:?})",
            got.0,
            got.1,
            got.2
        );
        assert_eq!(r.outcome.allocated, cfg.requests, "{name}");
        assert_eq!(r.outcome.shed, 0, "{name}");
    }
}

/// Fixed membership: arrivals and seeded departures only.
fn churn_static() -> ChurnConfig {
    ChurnConfig::demo(64, 4, 2022)
}

/// Scripted changes, shed-driven autoscaling and departures together,
/// with a slow migration drain so changes overlap in-flight handoffs.
fn churn_elastic() -> ChurnConfig {
    ChurnConfig {
        shards: 2,
        requests: 2_000,
        migration_rate: 2,
        token_every: 2,
        burst: 4,
        plan: vec![
            (150, PlannedChange::Insert),
            (151, PlannedChange::RemoveOldest),
            (600, PlannedChange::RemoveSlot(1)),
            (900, PlannedChange::Insert),
        ],
        autoscale: Some(AutoscaleConfig {
            shed_threshold: 4,
            window: 32,
            idle_windows: 3,
            min_shards: 1,
            max_shards: 6,
        }),
        ..ChurnConfig::demo(96, 2, 2024)
    }
}

/// Every deterministic count of a churn run, in a fixed order.
fn churn_counts(cfg: &ChurnConfig) -> ([u64; 3], [u64; 19], f64) {
    let r = run_churn(cfg);
    let o = &r.outcome;
    (
        [r.digest, r.membership_digest, o.epoch],
        [
            o.requests,
            o.arrivals,
            o.departures,
            o.allocated,
            o.shed,
            o.in_migration,
            o.migrated,
            o.moved_bins,
            o.changes,
            o.changes_skipped,
            o.inserts,
            o.removes,
            o.autoscale_outs,
            o.autoscale_ins,
            o.final_members as u64,
            o.max_members as u64,
            o.refreshes,
            o.max_load,
            o.ticks,
        ],
        o.gap,
    )
}

#[test]
fn churn_goldens() {
    let goldens = [
        (
            "static",
            churn_static(),
            (
                [0xd124_6d34_d2a7_871a_u64, 0x0ada_24c4_401a_c304, 4],
                [
                    512_u64, 432, 80, 352, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 4, 8, 9, 512,
                ],
                3.5_f64,
            ),
        ),
        (
            "elastic",
            churn_elastic(),
            (
                [0xd26e_cee0_53d8_5863, 0x6c56_ad3b_1046_e04e, 31],
                [
                    2000, 1715, 285, 1332, 98, 0, 4163, 1392, 29, 1, 14, 15, 12, 14, 1, 3, 17, 26,
                    2416,
                ],
                12.125,
            ),
        ),
    ];
    for (name, cfg, golden) in goldens {
        let got = churn_counts(&cfg);
        assert_eq!(got, golden, "{name}: run_churn drifted; got {got:#x?}");
    }
}

/// `resilience_duel`'s `d2_full` policy against its four faults (slow,
/// stalling, erroring and load-corrupting shards), at n = 64 with four
/// shards, four workers and 8·n requests.
fn resilient_d2_full() -> ResilienceConfig {
    ResilienceConfig {
        workers: 4,
        faults: FaultPlan::clean(1)
            .with(0, FaultKind::Slow { extra: 12 })
            .with(1, FaultKind::Stalled { per_mille: 100 })
            .with(2, FaultKind::Erroring { per_mille: 200 })
            .with(
                3,
                FaultKind::CorruptedLoad {
                    g: 4,
                    kind: CorruptKind::Understate,
                },
            ),
        policy: Policy {
            retry: Some(RetryConfig::default()),
            rate: None,
            hedge: Some(HedgeConfig::default()),
            timeout: Some(24),
            breaker: Some(BreakerConfig::default()),
        },
        ..ResilienceConfig::demo(64, 4, 2025)
    }
}

#[test]
fn resilient_golden() {
    let r = run_resilient(&resilient_d2_full());
    let golden = ResilienceOutcome {
        requests: 512,
        allocated: 413,
        shed: 0,
        timed_out: 0,
        broken: 99,
        shed_rate_limited: 0,
        shed_faulted: 0,
        retries: 34,
        retries_exhausted: 0,
        hedged: 81,
        hedge_rescued: 65,
        hedge_regret: 3,
        hedge_retargeted: 25,
        breaker_trips: 16,
        breaker_rejections: 99,
        faults_slowed: 134,
        faults_stalled: 11,
        faults_errored: 31,
        refreshes: 11,
        gap: 6.546_875,
        max_load: 13,
        latency_p50: 1,
        latency_p99: 17,
        latency_max: 37,
        ticks: 2216,
    };
    assert_eq!(
        (r.digest, &r.outcome),
        (0x0bb0_dd83_ba52_7a72_u64, &golden),
        "d2_full: run_resilient drifted; got digest {:#018x}",
        r.digest
    );
}

/// All five layers on against `d2_full`'s four faults, with a rate limit
/// tight enough to shed, a retry budget small enough to run dry and a
/// timeout below the warm hedge delay, so the counters `d2_full` leaves
/// at zero — `shed`, `shed_rate_limited`, `shed_faulted`,
/// `retries_exhausted` and `timed_out` — are pinned too.
fn resilient_all_layers() -> ResilienceConfig {
    let mut cfg = resilient_d2_full();
    cfg.policy.retry = Some(RetryConfig {
        max_retries: 2,
        budget_cap: 200,
        budget_deposit: 5,
        budget_withdraw: 100,
    });
    cfg.policy.rate = Some(RateLimitConfig {
        permits: 1,
        period: 12,
        burst: 2,
    });
    cfg.policy.timeout = Some(12);
    cfg
}

#[test]
fn resilient_all_layers_golden() {
    let r = run_resilient(&resilient_all_layers());
    let golden = ResilienceOutcome {
        requests: 512,
        allocated: 291,
        shed: 98,
        timed_out: 14,
        broken: 109,
        shed_rate_limited: 86,
        shed_faulted: 12,
        retries: 22,
        retries_exhausted: 26,
        hedged: 60,
        hedge_rescued: 41,
        hedge_regret: 2,
        hedge_retargeted: 18,
        breaker_trips: 21,
        breaker_rejections: 109,
        faults_slowed: 97,
        faults_stalled: 11,
        faults_errored: 24,
        refreshes: 8,
        gap: 6.453_125,
        max_load: 11,
        latency_p50: 1,
        latency_p99: 17,
        latency_max: 23,
        ticks: 1596,
    };
    assert_eq!(
        (r.digest, &r.outcome),
        (0xa865_9647_e515_51ee_u64, &golden),
        "all layers: run_resilient drifted; got digest {:#018x}",
        r.digest
    );
}
