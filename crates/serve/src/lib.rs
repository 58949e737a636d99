//! Sharded allocation serving front-end — the paper's noise models as a
//! systems component.
//!
//! A real load balancer never sees live load: it sees counters scraped a
//! batch ago, gossip delayed by a network round-trip, a snapshot another
//! worker refreshed. *Balanced Allocations with the Choice of Noise* (and
//! the batched follow-ups it cites) is precisely the theory of how much
//! that staleness costs, so this crate turns the theory around and builds
//! the system: a service that places balls (requests) into `n` bins
//! (backends) with Two-Choice decisions made **against stale snapshots**,
//! while the authoritative loads live in one direct store: a single
//! [`LoadState`](balloc_core::LoadState) over all `n` bins, routed over
//! `S` shards by a [`ShardDirectory`] that only fault roles, hedge
//! retargeting and membership read.
//!
//! # Architecture
//!
//! ```text
//!  one thread, round-robin over virtual workers (or TCP connections)
//!  ┌────────────────────────────┐         ┌──────────────────────────┐
//!  │ worker w's stack           │  apply  │ DirectCluster            │
//!  │  (middleware layers)       │────────▶│  LoadState (all n bins)  │
//!  │   └ SnapshotService        │         │  change log (n/4 ring)   │
//!  │      snapshot ◀────────────│◀────────│  ShardDirectory: routing │
//!  │      (refresh: b / τ)      │catch-up │   (bins s·n/S..(s+1)n/S) │
//!  └────────────────────────────┘         └──────────────────────────┘
//!            × workers
//! ```
//!
//! * [`Service`]/[`Layer`] — tower-style synchronous service traits;
//! * [`InFlightLimit`]/[`Permits`] — a concurrency cap;
//! * [`LoadShed`]/[`ShedCounter`] — converts back-pressure into counted,
//!   typed drops;
//! * [`SnapshotAllocator`]/[`Staleness`] — the decision state: private
//!   snapshots refreshed every `b` own requests (`b-Batch`) or at age `τ`
//!   (`τ-Delay`), each refresh copying only the bins changed since the
//!   last one while the store's change log still covers them;
//! * [`VClock`] — the one virtual clock, for snapshot age and the
//!   middleware's deadlines;
//! * one deterministic driver behind [`run_replay`], [`run_resilient`]
//!   and [`run_churn`]: a round-robin slot loop over per-worker stacks
//!   with a per-slot engine hook, one [`DirectCluster`] store, and one
//!   conservation ledger whose check every engine ends in. The TCP
//!   reactor in `balloc-net` serves over the same store and leaf on its
//!   one thread.
//!
//! # Resilience middleware
//!
//! On top of the pressure layers sits a resilience suite, every layer a
//! deterministic synchronous port of a classic (tower/Finagle) pattern
//! onto the [`VClock`] virtual clock:
//!
//! * [`Retry`] — budgeted retries of transient faults (token-bucket
//!   budget, never retries pressure or an open breaker);
//! * [`Hedge`] — duplicate a request once its first attempt outlives a
//!   latency-percentile delay: the paper's "second choice", taken in
//!   *time* instead of space;
//! * [`Timeout`] — per-attempt deadlines with side-effect-free aborts;
//! * [`RateLimit`] — clock-driven token-bucket admission control;
//! * [`CircuitBreaker`] — closed/open/half-open over a rolling failure
//!   window;
//! * [`LayerStats`] — the suite's one counter block: every counting
//!   layer of every worker's stack counts into one shared
//!   `Rc<LayerStats>` of plain cells (every engine serves on one thread);
//! * [`FaultPlan`]/[`FaultKind`] — the adversaries: slow, stalled, and
//!   erroring shards, plus `g`-Adv-Comp load corruption via
//!   [`LoadCorruptor`](balloc_noise::LoadCorruptor);
//! * [`run_resilient`] — drives fault plan against policy; the ledger
//!   check asserts every request ends exactly once — allocated, shed,
//!   timed out, or broken.
//!
//! # Determinism contract
//!
//! [`run_replay`] decisions are a pure function of `(config, seed)`:
//! two runs at the same seed produce bit-identical decision streams
//! (asserted via [`ReplayOutcome::digest`]), final loads, gaps, and
//! counts. Worker `w`'s decision state is
//! [`SnapshotAllocator::for_worker`]`(n, staleness, seed, w)`, streamed
//! from [`point_seed`](balloc_core::rng::point_seed)`(seed, w)` — the
//! same mixer discipline as the sweep engine, so serving never shares
//! streams with the simulation experiments. Staleness is therefore
//! exactly the configured `b` or `τ`, the fixed parameter the batched
//! analyses take as input.
//!
//! # Examples
//!
//! ```
//! use balloc_serve::{run_replay, ServeConfig};
//!
//! let cfg = ServeConfig::demo(128, 4, 2022);
//! let replay = run_replay(&cfg);
//! assert_eq!(replay.outcome.allocated, cfg.requests);
//! assert_eq!(replay.digest, run_replay(&cfg).digest);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod autoscale;
mod breaker;
mod churn;
mod cluster;
mod directory;
mod drive;
mod engine;
mod fault;
mod hedge;
mod limit;
mod rate;
mod resilience;
mod retry;
mod service;
mod shed;
mod sink;
mod snapshot;
mod stats;
mod timeout;
mod vclock;

pub use autoscale::{AutoscaleConfig, Autoscaler, ScaleAction};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use churn::{run_churn, ChurnConfig, ChurnOutcome, ChurnReport, PlannedChange};
pub use cluster::DirectCluster;
pub use directory::{BinMove, Change, MembershipEpoch, RebalanceKind, ShardDirectory, ShardId};
pub use engine::{
    run_replay, worker_share, BackendKind, ReplayOutcome, ServeConfig, ServeOutcome, SnapshotPath,
};
pub use fault::{FaultKind, FaultPlan, FaultyShard, ShardRole};
pub use hedge::{Hedge, HedgeConfig, HedgeSteer, LatencyHistogram};
pub use limit::{InFlightLimit, InFlightLimitLayer, Permits};
pub use rate::{RateLimit, RateLimitConfig};
pub use resilience::{
    run_resilient, Policy, ResilienceConfig, ResilienceOutcome, ResilienceReport,
};
pub use retry::{retryable, Retry, RetryBudget, RetryConfig};
pub use service::{decide, Layer, NoiseMode, Request, Response, ServeError, Service};
pub use shed::{LoadShed, LoadShedLayer, ShedCounter};
pub use sink::{LoadSink, SnapshotService};
pub use snapshot::{SnapshotAllocator, Staleness};
pub use stats::LayerStats;
pub use timeout::Timeout;
pub use vclock::{DeadlineExpired, DeadlineScope, ServeClock, VClock};

/// Shard ranges as the routing layer sees them: the directory's block
/// partition and its shard-count bound. The loads themselves live in one
/// flat store ([`DirectCluster`]), so this module holds only tests.
#[cfg(test)]
mod shard {
    mod tests {
        use crate::directory::ShardDirectory;

        #[test]
        fn ranges_cover_every_bin_exactly_once() {
            for (n, shards) in [(10, 1), (10, 3), (128, 8), (7, 7), (1000, 13)] {
                let ranges = ShardDirectory::uniform(n, shards).ranges();
                assert_eq!(ranges.len(), shards);
                let mut covered = 0;
                for (i, r) in ranges.iter().enumerate() {
                    assert_eq!(r.start, covered, "gap before shard {i}");
                    assert!(!r.is_empty(), "empty shard {i} for n = {n}, S = {shards}");
                    covered = r.end;
                }
                assert_eq!(covered, n);
            }
        }

        #[test]
        #[should_panic(expected = "shards must lie in 1..=n")]
        fn more_shards_than_bins_rejected() {
            let _ = ShardDirectory::uniform(3, 4);
        }
    }
}
