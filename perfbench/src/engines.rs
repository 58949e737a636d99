//! `engines_replay`: the three deterministic engines, single-threaded and
//! back to back, at n = 10⁴ with 4 virtual workers, 4 shards and b = n.
//!
//! * `run_replay`: two-choice;
//! * `run_resilient`: `resilience_duel`'s `d2_full` policy against its
//!   four-fault plan (slow, stalling, erroring and load-corrupting shards);
//! * `run_churn`: `churn_bench`'s `churned` arm (departures, scripted
//!   insert/remove, live migration).
//!
//! A run cycles through `SEEDS` engine seeds derived from the benchmark
//! seed, so every seed is served several times and must reproduce its
//! digests and exact counts bit for bit.

use balloc_core::rng::point_seed;
use balloc_noise::CorruptKind;
use balloc_serve::{
    run_churn, run_replay, run_resilient, BackendKind, BreakerConfig, ChurnConfig, ChurnReport,
    FaultKind, FaultPlan, HedgeConfig, PlannedChange, Policy, RebalanceKind, ReplayOutcome,
    Request, ResilienceConfig, ResilienceReport, RetryConfig, ServeConfig, SnapshotPath, Staleness,
};

use crate::trace::{span, Tracer};

pub const N: usize = 10_000;
pub const SHARDS: usize = 4;
pub const WORKERS: usize = 4;
/// Requests (event slots) per engine call: 8 balls per bin, so each
/// worker refreshes twice at b = n.
pub const REQUESTS: u64 = 8 * N as u64;
/// Distinct engine seeds a run cycles through.
pub const SEEDS: u64 = 4;

/// The `d2_full` middleware policy of `resilience_duel`.
pub fn d2_full() -> Policy {
    Policy {
        retry: Some(RetryConfig::default()),
        rate: None,
        hedge: Some(HedgeConfig::default()),
        timeout: Some(24),
        breaker: Some(BreakerConfig::default()),
    }
}

/// `resilience_duel`'s four adversaries on shards 0..4.
pub fn four_faults() -> FaultPlan {
    FaultPlan::clean(1)
        .with(0, FaultKind::Slow { extra: 12 })
        .with(1, FaultKind::Stalled { per_mille: 100 })
        .with(2, FaultKind::Erroring { per_mille: 200 })
        .with(
            3,
            FaultKind::CorruptedLoad {
                g: 4,
                kind: CorruptKind::Understate,
            },
        )
}

/// The three engine configurations of one seed.
#[derive(Clone)]
pub struct EngineSet {
    pub replay: ServeConfig,
    pub resilient: ResilienceConfig,
    pub churn: ChurnConfig,
}

pub fn engine_set(seed: u64) -> EngineSet {
    let staleness = Staleness::Batch { b: N as u64 };
    let q = REQUESTS / 8;
    EngineSet {
        replay: ServeConfig {
            n: N,
            shards: SHARDS,
            workers: WORKERS,
            requests: REQUESTS,
            request: Request::two_choice(),
            staleness,
            buffer_capacity: 1024,
            inflight: None,
            backend: BackendKind::Sharded,
            snapshot: SnapshotPath::Buffered,
            seed: point_seed(seed, 1),
        },
        resilient: ResilienceConfig {
            n: N,
            shards: SHARDS,
            workers: WORKERS,
            requests: REQUESTS,
            request: Request::two_choice(),
            staleness,
            faults: four_faults(),
            policy: d2_full(),
            seed: point_seed(seed, 2),
        },
        churn: ChurnConfig {
            n: N,
            shards: SHARDS,
            workers: WORKERS,
            requests: REQUESTS,
            request: Request::two_choice(),
            staleness,
            rebalance: RebalanceKind::Proportional,
            depart_pm: 150,
            migration_rate: 4,
            token_every: 2,
            burst: 8,
            plan: vec![
                (2 * q, PlannedChange::Insert),
                (3 * q, PlannedChange::RemoveOldest),
                (5 * q, PlannedChange::Insert),
                (6 * q, PlannedChange::RemoveNewest),
            ],
            autoscale: None,
            seed: point_seed(seed, 3),
        },
    }
}

/// The outcomes of one pass over an [`EngineSet`], with each call's wall
/// time in seconds.
pub struct Pass {
    pub replay: ReplayOutcome,
    pub resilient: ResilienceReport,
    pub churn: ChurnReport,
    pub call_s: [f64; 3],
}

pub fn run_pass(set: &EngineSet, id: u64, tracer: Option<&Tracer>) -> Pass {
    let (replay_s, replay) =
        crate::util::timed(|| span(tracer, "engine.replay", id, || run_replay(&set.replay)));
    let (resilient_s, resilient) = crate::util::timed(|| {
        span(tracer, "engine.resilient", id, || {
            run_resilient(&set.resilient)
        })
    });
    let (churn_s, churn) =
        crate::util::timed(|| span(tracer, "engine.churn", id, || run_churn(&set.churn)));
    Pass {
        replay,
        resilient,
        churn,
        call_s: [replay_s, resilient_s, churn_s],
    }
}

impl Pass {
    /// Requests offered to the three engines (churn: arrival attempts).
    pub fn attempted(&self) -> u64 {
        self.replay.outcome.requests + self.resilient.outcome.requests + self.churn.outcome.arrivals
    }

    /// Balls placed (churn: arrivals admitted, whether or not they later
    /// departed).
    pub fn placed(&self) -> u64 {
        self.replay.outcome.allocated
            + self.resilient.outcome.allocated
            + (self.churn.outcome.arrivals - self.churn.outcome.shed)
    }

    pub fn mean_gap(&self) -> f64 {
        (self.replay.outcome.gap + self.resilient.outcome.gap + self.churn.outcome.gap) / 3.0
    }

    /// Digests and exact counts: equal between any two passes of one seed,
    /// traced or not.
    pub fn signature(&self) -> Vec<u64> {
        let (r, s, c) = (
            &self.replay.outcome,
            &self.resilient.outcome,
            &self.churn.outcome,
        );
        vec![
            self.replay.digest,
            self.resilient.digest,
            self.churn.digest,
            self.churn.membership_digest,
            r.allocated,
            r.refreshes,
            s.allocated,
            s.shed,
            s.timed_out,
            s.broken,
            s.retries,
            s.hedged,
            s.breaker_trips,
            s.refreshes,
            s.latency_p99,
            c.allocated,
            c.shed,
            c.departures,
            c.migrated,
            c.refreshes,
        ]
    }

    /// The ledgers close: every request has exactly one terminal outcome.
    pub fn check_ledgers(&self) -> Result<(), String> {
        let r = &self.replay.outcome;
        if r.allocated + r.shed != r.requests {
            return Err(format!(
                "replay ledger: {} + {} != {}",
                r.allocated, r.shed, r.requests
            ));
        }
        let s = &self.resilient.outcome;
        if s.allocated + s.shed + s.timed_out + s.broken != s.requests {
            return Err(format!(
                "resilient ledger: {} + {} + {} + {} != {}",
                s.allocated, s.shed, s.timed_out, s.broken, s.requests
            ));
        }
        let c = &self.churn.outcome;
        if c.allocated + c.in_migration + c.shed + c.departures != c.arrivals
            || c.arrivals + c.departures != c.requests
        {
            return Err(format!(
                "churn ledger: {} + {} + {} + {} != {} arrivals of {} slots",
                c.allocated, c.in_migration, c.shed, c.departures, c.arrivals, c.requests
            ));
        }
        Ok(())
    }
}
