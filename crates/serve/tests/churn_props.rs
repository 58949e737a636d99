//! Property tests for the churn engine: the extended conservation
//! ledger, replay determinism, and membership-epoch accounting must hold
//! under *random* insert/remove/delete schedules — including schedules
//! that remove a member while a previous change's migration is still in
//! flight, which is exactly where a hand-written test suite runs out of
//! imagination first.
//!
//! The vendored proptest has no combinators, so structured values are
//! expanded from drawn `u64` specs in plain code (the conformance
//! harness's byte-script idiom).

use balloc_serve::{
    run_churn, AutoscaleConfig, ChurnConfig, PlannedChange, RebalanceKind, Request, Staleness,
};
use proptest::prelude::*;

/// Expands one spec into a scheduled membership change. Inserts are
/// weighted up so random plans actually grow before they shrink.
fn change_from(spec: u64) -> (u64, PlannedChange) {
    let tick = (spec >> 8) % 600;
    let change = match spec % 6 {
        0..=2 => PlannedChange::Insert,
        3 => PlannedChange::RemoveNewest,
        4 => PlannedChange::RemoveOldest,
        _ => PlannedChange::RemoveSlot(((spec >> 40) % 8) as usize),
    };
    (tick, change)
}

/// A sorted random change plan over the first ~600 ticks.
fn plan_from(specs: &[u64]) -> Vec<(u64, PlannedChange)> {
    let mut plan: Vec<(u64, PlannedChange)> = specs.iter().map(|&s| change_from(s)).collect();
    plan.sort_by_key(|&(at, _)| at);
    plan
}

#[allow(clippy::too_many_arguments, clippy::fn_params_excessive_bools)]
fn config_from(
    n: usize,
    shards: usize,
    workers: usize,
    depart_pm: u32,
    migration_rate: u64,
    token_every: u64,
    burst: u64,
    specs: &[u64],
    hash_slot: bool,
    autoscale: bool,
    seed: u64,
) -> ChurnConfig {
    ChurnConfig {
        n,
        shards: shards.min(n),
        workers,
        requests: 800,
        request: Request::two_choice(),
        staleness: Staleness::Batch { b: n as u64 },
        rebalance: if hash_slot {
            RebalanceKind::HashSlot
        } else {
            RebalanceKind::Proportional
        },
        depart_pm,
        migration_rate,
        token_every,
        burst,
        plan: plan_from(specs),
        autoscale: autoscale.then_some(AutoscaleConfig {
            shed_threshold: 4,
            window: 32,
            idle_windows: 4,
            min_shards: 1,
            max_shards: 8,
        }),
        seed,
    }
}

proptest! {
    // `run_churn` itself hard-asserts the ledger after every event slot
    // in debug builds; these properties re-state the end-of-run books
    // from the outside so a release-mode regression cannot hide either.
    #[test]
    fn ledger_holds_under_any_schedule(
        n in 16usize..=96,
        shards in 1usize..=6,
        workers in 1usize..=3,
        depart_pm in 0u32..=400,
        migration_rate in 1u64..=8,
        token_every in 1u64..=4,
        burst in 2u64..=16,
        specs in proptest::collection::vec(any::<u64>(), 0..6),
        hash_slot in any::<bool>(),
        autoscale in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let cfg = config_from(
            n, shards, workers, depart_pm, migration_rate, token_every,
            burst, &specs, hash_slot, autoscale, seed,
        );
        let report = run_churn(&cfg);
        let o = &report.outcome;
        prop_assert_eq!(
            o.allocated + o.shed + o.in_migration + o.departures,
            o.arrivals,
            "extended conservation ledger"
        );
        prop_assert_eq!(o.arrivals + o.departures, o.requests);
        prop_assert_eq!(o.in_migration, 0, "the final drain must settle every ball");
        prop_assert!(o.final_members >= 1);
        prop_assert!(o.final_members <= o.max_members);
        prop_assert!(o.ticks >= o.requests, "drain ticks only add");
    }

    #[test]
    fn runs_replay_bit_identically(
        n in 16usize..=96,
        shards in 1usize..=6,
        depart_pm in 0u32..=400,
        migration_rate in 1u64..=8,
        specs in proptest::collection::vec(any::<u64>(), 0..6),
        hash_slot in any::<bool>(),
        autoscale in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let cfg = config_from(
            n, shards, 2, depart_pm, migration_rate, 1, 8,
            &specs, hash_slot, autoscale, seed,
        );
        let a = run_churn(&cfg);
        let b = run_churn(&cfg);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn epoch_counts_every_applied_change(
        n in 16usize..=96,
        shards in 1usize..=6,
        specs in proptest::collection::vec(any::<u64>(), 0..6),
        hash_slot in any::<bool>(),
        autoscale in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let cfg = config_from(
            n, shards, 2, 200, 4, 1, 8, &specs, hash_slot, autoscale, seed,
        );
        let report = run_churn(&cfg);
        let o = &report.outcome;
        // Founding inserts + every applied (not skipped) change, whether
        // scripted or autoscaler-emitted, each bump the epoch once.
        prop_assert_eq!(o.epoch, cfg.shards as u64 + o.changes);
        prop_assert_eq!(o.inserts + o.removes, o.changes);
        prop_assert_eq!(
            o.final_members as u64,
            cfg.shards as u64 + o.inserts - o.removes,
            "membership arithmetic"
        );
    }

    // The adversarial corner the tentpole calls out by name: a removal
    // landing while the previous change's balls are still mid-flight.
    // migration_rate 1 with back-to-back changes forces the overlap.
    #[test]
    fn removal_mid_migration_conserves(
        n in 32usize..=96,
        gap in 1u64..=3,
        hash_slot in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let cfg = ChurnConfig {
            migration_rate: 1,
            rebalance: if hash_slot {
                RebalanceKind::HashSlot
            } else {
                RebalanceKind::Proportional
            },
            plan: vec![
                (200, PlannedChange::Insert),
                (200 + gap, PlannedChange::RemoveOldest),
                (200 + 2 * gap, PlannedChange::RemoveNewest),
            ],
            ..ChurnConfig::demo(n, 4.min(n), seed)
        };
        let report = run_churn(&cfg);
        prop_assert_eq!(&report, &run_churn(&cfg));
        let o = &report.outcome;
        prop_assert_eq!(o.in_migration, 0);
        prop_assert_eq!(
            o.allocated + o.shed + o.departures,
            o.arrivals,
            "ledger with overlapping migrations"
        );
    }
}
