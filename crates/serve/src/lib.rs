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
//! while the authoritative loads live in `S` shards, each an owned
//! [`LoadState`](balloc_core::LoadState) behind a worker.
//!
//! # Architecture
//!
//! ```text
//!  client workers (workpool)          shard workers (Buffer threads)
//!  ┌───────────────────────────┐       ┌─────────────────────────┐
//!  │ LoadShed                  │ cast  │ bounded queue ─ drain ─▶│
//!  │  └ InFlightLimit          │──────▶│  ShardService           │
//!  │     └ SnapshotService     │       │   owns LoadState        │
//!  │        snapshot ◀─────────│◀──────│  (bins s·n/S..(s+1)n/S) │
//!  │        (refresh: b / τ)    │ call  └─────────────────────────┘
//!  └───────────────────────────┘            × S shards
//! ```
//!
//! * [`Service`]/[`Layer`] — tower-style synchronous service traits;
//! * [`Buffer`] — bounded request buffer in front of a worker-owned
//!   service (back-pressure via [`ServeError::BufferFull`]);
//! * [`InFlightLimit`]/[`Permits`] — a fleet-wide concurrency cap;
//! * [`LoadShed`]/[`ShedCounter`] — converts back-pressure into counted,
//!   typed drops;
//! * [`SnapshotAllocator`]/[`Staleness`] — the decision state: private
//!   snapshots refreshed every `b` own requests (`b-Batch`) or at age `τ`
//!   (`τ-Delay`);
//! * [`run_concurrent`]/[`run_replay`] — the closed-loop engine and its
//!   deterministic single-threaded replay twin;
//! * one deterministic driver behind [`run_replay`], [`run_resilient`]
//!   and [`run_churn`]: a round-robin slot loop over per-worker stacks
//!   with a per-slot engine hook, one [`DirectCluster`] store, and one
//!   conservation ledger whose check every engine (the concurrent one
//!   included) ends in;
//! * [`BackendKind::Multicounter`] — swaps the sharded store for a
//!   [`MultiCounter`](balloc_multicounter::MultiCounter), turning the
//!   engine into a stress harness for the counter.
//!
//! # Resilience middleware
//!
//! On top of the pressure layers sits a resilience suite, every layer a
//! deterministic synchronous port of a classic (tower/Finagle) pattern
//! onto the [`VClock`](balloc_sim::VClock) virtual clock:
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
//! streams with the simulation experiments. [`run_concurrent`] keeps the exact
//! *conservation* guarantees (`allocated + shed == requests`, final state
//! holds exactly `allocated` balls) but lets the decision stream race —
//! measuring that race against the replayed baseline is the point of the
//! `balloc serve_bench` experiment.
//!
//! # Examples
//!
//! ```
//! use balloc_serve::{run_concurrent, run_replay, ServeConfig};
//!
//! let cfg = ServeConfig::demo(128, 4, 2022);
//! let live = run_concurrent(&cfg);
//! assert_eq!(live.allocated + live.shed, cfg.requests);
//!
//! let replay = run_replay(&cfg);
//! assert_eq!(replay.outcome.allocated, cfg.requests);
//! assert_eq!(replay.digest, run_replay(&cfg).digest);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod autoscale;
mod breaker;
mod buffer;
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
mod shard;
mod shed;
mod sink;
mod snapshot;
mod striped;
mod timeout;

pub use autoscale::{AutoscaleConfig, Autoscaler, ScaleAction};
pub use breaker::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker, CircuitBreakerLayer};
pub use buffer::{Buffer, BufferController};
pub use churn::{run_churn, ChurnConfig, ChurnOutcome, ChurnReport, PlannedChange};
pub use cluster::{DirectCluster, ShardCluster, ShardHandle};
pub use directory::{
    BinMove, Change, MembershipEpoch, RebalanceKind, ShardDirectory, ShardId,
};
pub use engine::{
    run_concurrent, run_replay, worker_share, BackendKind, ReplayOutcome, ServeConfig,
    ServeOutcome, SnapshotPath,
};
pub use fault::{FaultKind, FaultPlan, FaultStats, FaultyShard, ShardRole};
pub use hedge::{Hedge, HedgeConfig, HedgeLayer, HedgeStats, HedgeSteer, LatencyHistogram};
pub use limit::{InFlightLimit, InFlightLimitLayer, Permits};
pub use rate::{RateLimit, RateLimitConfig, RateLimitLayer, RateStats};
pub use resilience::{
    run_resilient, Policy, ResilienceConfig, ResilienceOutcome, ResilienceReport,
};
pub use retry::{retryable, Retry, RetryBudget, RetryConfig, RetryLayer, RetryStats};
pub use service::{decide, Layer, NoiseMode, Request, Response, ServeError, Service};
pub use shard::{merge_states, shard_ranges, ShardRequest, ShardResponse, ShardService};
pub use shed::{LoadShed, LoadShedLayer, ShedCounter};
pub use sink::{LoadSink, ServeClock, SnapshotService};
pub use snapshot::{SnapshotAllocator, Staleness};
pub use striped::StripedLoads;
pub use timeout::{Timeout, TimeoutLayer, TimeoutStats};
