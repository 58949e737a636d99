//! Golden values for the deterministic replay and churn engines.
//!
//! `fault_replay.rs` pins the resilience engine; this file pins the other
//! two. Each engine's output is a pure function of `(config, seed)`, so
//! the constants below fix the whole decision stream (the digest), the
//! refresh schedule and every ledger count. A refactor of the engines
//! must leave every value here unchanged. The binary-level `cmp` gates
//! in CI compare two runs of one build and cannot catch drift across
//! commits; these constants can.
//!
//! If a change *intentionally* alters a stream, re-pin the constants from
//! the failure output and say why in the commit.

use balloc_serve::{
    run_churn, run_replay, AutoscaleConfig, BackendKind, ChurnConfig, NoiseMode, PlannedChange,
    Request, ServeConfig, Staleness,
};

/// Sharded store, b-Batch, two workers that split the requests evenly.
fn replay_batch() -> ServeConfig {
    ServeConfig::demo(64, 4, 2022)
}

/// Multicounter store, τ-Delay, three workers over an uneven request
/// count, 3-choice requests.
fn replay_delay() -> ServeConfig {
    ServeConfig {
        workers: 3,
        requests: 5_003,
        request: Request {
            d: 3,
            noise: NoiseMode::Snapshot,
        },
        staleness: Staleness::Delay { tau: 100 },
        backend: BackendKind::Multicounter,
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
