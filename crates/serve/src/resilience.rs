//! The resilience engine: a fault-injected sharded backend under a
//! composable middleware policy, on the virtual clock.
//!
//! This is the serving layer's adversarial twin of
//! [`run_replay`](crate::run_replay). The backend is the same sharded
//! store and the same snapshot-based Two-Choice decision state, but time
//! is virtual ([`VClock`]), shards misbehave according to a [`FaultPlan`],
//! and between the caller and the backend sits a [`Policy`]-selected
//! middleware stack:
//!
//! ```text
//!  LoadShed → Retry → RateLimit → Hedge → Timeout → CircuitBreaker
//!      → FaultyAlloc (decide against snapshot, advance clock, apply)
//! ```
//!
//! Every layer is optional except the outermost [`LoadShed`], which is
//! what keeps the run's ledger closed: a request ends in exactly one of
//! four terminal outcomes — **allocated**, **shed** (pressure or an
//! unrecovered clean fault), **timed out**, or **broken** (circuit open).
//! The workers' stacks run under the crate's one round-robin driver, and
//! its ledger check asserts the four sum to the request count — the same
//! check every engine ends in. This engine's slot hook adds the outcome
//! digest and the virtual clock: one inter-arrival tick per slot, and
//! each allocated request's latency.
//!
//! Everything is deterministic: decisions, fault draws, latencies, and
//! therefore the [`ResilienceReport::digest`] are pure functions of
//! `(config, seed)`. Latency percentiles are in virtual ticks; no
//! wall-clock value appears anywhere in the output.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::rc::Rc;

use balloc_core::rng::{point_seed, Fnv1a};
use balloc_core::Rng;
use balloc_noise::LoadCorruptor;
use balloc_sim::VClock;

use crate::breaker::{BreakerConfig, BreakerStats, CircuitBreaker};
use crate::cluster::DirectCluster;
use crate::drive::{drive, validate_shape};
use crate::fault::{FaultPlan, FaultStats, ShardRole};
use crate::hedge::{Hedge, HedgeConfig, HedgeStats, HedgeSteer};
use crate::rate::{RateLimit, RateLimitConfig, RateStats};
use crate::retry::{Retry, RetryBudget, RetryConfig, RetryStats};
use crate::service::{Layer, Request, Response, ServeError, Service};
use crate::shed::{LoadShedLayer, ShedCounter};
use crate::sink::LoadSink;
use crate::snapshot::{SnapshotAllocator, Staleness};

/// Distinguishes the fault-draw RNG domain from the decision streams.
const FAULT_STREAM: u64 = 0xFA17;
/// Seed domain of per-shard load corruptors.
const CORRUPT_STREAM: u64 = 0xC0_7A10;

/// Which middleware layers wrap the faulty backend, outermost first
/// (`None` = layer absent). The load-shed layer is always present.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Policy {
    /// Budgeted retry of transient failures.
    pub retry: Option<RetryConfig>,
    /// Token-bucket admission control.
    pub rate: Option<RateLimitConfig>,
    /// Latency-percentile hedging (the "second choice in time").
    pub hedge: Option<HedgeConfig>,
    /// Per-attempt deadline in ticks.
    pub timeout: Option<u64>,
    /// Closed/open/half-open circuit breaking.
    pub breaker: Option<BreakerConfig>,
}

impl Policy {
    /// Asserts the policy is usable against `faults`.
    ///
    /// # Panics
    ///
    /// Panics if a sub-configuration is invalid, the timeout is zero, or
    /// the plan can stall requests and no timeout is configured (a
    /// stalled request would otherwise never terminate).
    pub fn validate(&self, faults: &FaultPlan) {
        if let Some(cfg) = &self.retry {
            cfg.validate();
        }
        if let Some(cfg) = &self.rate {
            cfg.validate();
        }
        if let Some(cfg) = &self.hedge {
            cfg.validate();
        }
        if let Some(budget) = self.timeout {
            assert!(budget > 0, "timeout budget must be positive");
        }
        if let Some(cfg) = &self.breaker {
            cfg.validate();
        }
        assert!(
            !faults.can_stall() || self.timeout.is_some(),
            "stall faults require a timeout policy: a stalled request has no other terminal outcome"
        );
    }
}

/// Configuration of one resilience run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Number of bins.
    pub n: usize,
    /// Number of shards.
    pub shards: usize,
    /// Virtual round-robin workers (each owns a full middleware stack).
    pub workers: usize,
    /// Total requests across all workers.
    pub requests: u64,
    /// The request template every client issues.
    pub request: Request,
    /// Snapshot refresh policy.
    pub staleness: Staleness,
    /// Which shards misbehave, and how.
    pub faults: FaultPlan,
    /// Which middleware layers absorb the faults.
    pub policy: Policy,
    /// Master seed (decision streams, fault draws, corruption).
    pub seed: u64,
}

impl ResilienceConfig {
    /// A small, fast, fault-free configuration used by tests.
    #[must_use]
    pub fn demo(n: usize, shards: usize, seed: u64) -> Self {
        Self {
            n,
            shards,
            workers: 2,
            requests: (n as u64) * 8,
            request: Request::two_choice(),
            staleness: Staleness::Batch { b: n as u64 },
            faults: FaultPlan::clean(1),
            policy: Policy::default(),
            seed,
        }
    }

    fn validate(&self) {
        validate_shape(self.n, Some(self.shards), self.workers, self.staleness);
        self.faults.validate(self.shards);
        self.policy.validate(&self.faults);
    }
}

/// What a resilience run did. Every field is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceOutcome {
    /// Requests issued.
    pub requests: u64,
    /// Terminal outcome: a ball was placed.
    pub allocated: u64,
    /// Terminal outcome: shed (pressure or an unrecovered clean fault).
    pub shed: u64,
    /// Terminal outcome: the deadline expired.
    pub timed_out: u64,
    /// Terminal outcome: rejected by an open circuit breaker.
    pub broken: u64,
    /// Sheds attributed to the rate limiter.
    pub shed_rate_limited: u64,
    /// Sheds attributed to unrecovered clean faults.
    pub shed_faulted: u64,
    /// Retry attempts issued.
    pub retries: u64,
    /// Retryable failures dropped because the retry budget was empty.
    pub retries_exhausted: u64,
    /// Hedge duplicates issued.
    pub hedged: u64,
    /// Hedged requests rescued by the duplicate.
    pub hedge_rescued: u64,
    /// Hedges that finished later than waiting would have.
    pub hedge_regret: u64,
    /// Hedge duplicates whose decision was moved off the first attempt's
    /// shard (always 0 with a single member — the fallback).
    pub hedge_retargeted: u64,
    /// Circuit-breaker trips (transitions into open).
    pub breaker_trips: u64,
    /// Requests rejected by an open breaker (including mid-retry).
    pub breaker_rejections: u64,
    /// Injected faults: requests slowed.
    pub faults_slowed: u64,
    /// Injected faults: requests stalled.
    pub faults_stalled: u64,
    /// Injected faults: requests failed cleanly.
    pub faults_errored: u64,
    /// Snapshot refreshes across workers.
    pub refreshes: u64,
    /// Gap of the final authoritative load vector.
    pub gap: f64,
    /// Maximum final bin load.
    pub max_load: u64,
    /// Median latency of allocated requests, in virtual ticks.
    pub latency_p50: u64,
    /// 99th-percentile latency of allocated requests, in ticks.
    pub latency_p99: u64,
    /// Maximum latency of an allocated request, in ticks.
    pub latency_max: u64,
    /// Final virtual time.
    pub ticks: u64,
}

/// A resilience run's outcome plus its determinism digest (outcome code,
/// chosen bin, and completion tick of every request, in issue order).
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// The run's measurements.
    pub outcome: ResilienceOutcome,
    /// FNV-1a digest of the full per-request outcome stream.
    pub digest: u64,
}

/// Everything the faulty leaves share: the store, roles, and the load
/// corruptor of each corrupted shard's bin range.
struct Backend {
    store: RefCell<DirectCluster>,
    roles: Vec<ShardRole>,
    corruptors: Vec<(Range<usize>, LoadCorruptor)>,
    base_latency: u64,
}

/// The leaf service: refresh-if-stale (through the corruption filter),
/// decide, then *serve* — advancing the virtual clock by the drawn
/// latency — and apply. Faults strike in a frozen order (slow, stall,
/// timeout, clean error, apply) so the per-request outcome stream is a
/// pure function of the seed.
struct FaultyAlloc {
    alloc: SnapshotAllocator,
    backend: Rc<Backend>,
    clock: VClock,
    /// Completed requests across workers: the staleness clock.
    completed: Rc<Cell<u64>>,
    fault_rng: Rng,
    stats: FaultStats,
    /// Per-leaf refresh counter: the corruption epoch.
    refresh_epoch: u64,
    /// Hedge→leaf shard-diversity channel: duplicates avoid the first
    /// attempt's shard when the directory has a second member.
    steer: HedgeSteer,
}

impl Service<Request> for FaultyAlloc {
    type Response = Response;

    fn call(&mut self, req: Request) -> Result<Response, ServeError> {
        let now = self.completed.get();
        if self.alloc.needs_refresh(now) {
            let snapshot = self.alloc.snapshot_mut();
            let mut store = self.backend.store.borrow_mut();
            store
                .refresh(snapshot)
                .expect("direct stores cannot reject");
            self.refresh_epoch += 1;
            for (range, c) in &self.backend.corruptors {
                c.corrupt(&mut snapshot[range.clone()], self.refresh_epoch);
            }
            self.stats.note_refresh();
            self.alloc.note_refresh(now);
        }
        let mut bin = self.alloc.decide(&req);
        let s = {
            let store = self.backend.store.borrow();
            let directory = store.directory();
            // A hedge duplicate in flight avoids the first attempt's shard
            // — a true second choice in space — unless it is the only
            // member.
            if let Some(avoid) = self.steer.avoid() {
                if directory.len() >= 2 && directory.slot_of(bin) == avoid {
                    bin = directory.retarget(bin, avoid);
                    self.steer.note_retarget();
                }
            }
            directory.slot_of(bin)
        };
        self.steer.note_attempt(s);
        let role = self.backend.roles[s];

        let mut latency = self.backend.base_latency;
        if role.slow_extra > 0 {
            latency = latency.saturating_add(1 + self.fault_rng.below(2 * role.slow_extra));
            self.stats.note_slowed();
        }
        // Draw stall and error up front so the RNG stream consumed per
        // request depends only on the shard's role, never on the outcome.
        let stalls = role.stall_per_mille > 0
            && self.fault_rng.below(1000) < u64::from(role.stall_per_mille);
        let errors = role.error_per_mille > 0
            && self.fault_rng.below(1000) < u64::from(role.error_per_mille);

        if stalls {
            // The shard never answers: burn time until a deadline ends
            // the wait. Policy validation guarantees one is active.
            self.stats.note_stalled();
            let _ = self.clock.advance(u64::MAX);
            return Err(ServeError::TimedOut);
        }
        if self.clock.advance(latency).is_err() {
            // The deadline expired mid-service: abort before any side
            // effect, so a timed-out request places zero balls.
            return Err(ServeError::TimedOut);
        }
        if errors {
            self.stats.note_errored();
            return Err(ServeError::Faulted);
        }
        self.backend
            .store
            .borrow_mut()
            .apply(bin)
            .expect("direct stores cannot reject");
        self.completed.set(self.completed.get() + 1);
        Ok(Response { bin })
    }
}

/// A worker's full dynamic stack under the load-shed roof.
type BoxAlloc = Box<dyn Service<Request, Response = Response>>;

/// All the per-layer counters of one run, shared across workers.
struct PolicyStats {
    shed: ShedCounter,
    retry: RetryStats,
    rate: RateStats,
    hedge: HedgeStats,
    breaker: BreakerStats,
    fault: FaultStats,
}

/// Builds worker `w`'s stack per the policy, innermost (leaf) outward.
#[allow(clippy::too_many_arguments)]
fn build_stack(
    cfg: &ResilienceConfig,
    w: usize,
    backend: &Rc<Backend>,
    clock: &VClock,
    completed: &Rc<Cell<u64>>,
    budget: &RetryBudget,
    stats: &PolicyStats,
    steer: &HedgeSteer,
) -> crate::shed::LoadShed<BoxAlloc> {
    let leaf = FaultyAlloc {
        alloc: SnapshotAllocator::for_worker(cfg.n, cfg.staleness, cfg.seed, w),
        backend: Rc::clone(backend),
        clock: clock.clone(),
        completed: Rc::clone(completed),
        fault_rng: Rng::from_seed(point_seed(point_seed(cfg.seed, FAULT_STREAM), w as u64)),
        stats: stats.fault.clone(),
        refresh_epoch: 0,
        steer: steer.clone(),
    };
    let mut stack: BoxAlloc = Box::new(leaf);
    if let Some(b) = cfg.policy.breaker {
        stack = Box::new(CircuitBreaker::new(
            stack,
            clock.clone(),
            b,
            stats.breaker.clone(),
        ));
    }
    if let Some(budget_ticks) = cfg.policy.timeout {
        stack = Box::new(crate::timeout::Timeout::new(
            stack,
            clock.clone(),
            budget_ticks,
            crate::timeout::TimeoutStats::new(),
        ));
    }
    if let Some(h) = cfg.policy.hedge {
        stack = Box::new(
            Hedge::new(stack, clock.clone(), h, stats.hedge.clone()).with_steer(steer.clone()),
        );
    }
    if let Some(r) = cfg.policy.rate {
        stack = Box::new(RateLimit::new(
            stack,
            clock.clone(),
            r,
            stats.rate.clone(),
        ));
    }
    if let Some(r) = cfg.policy.retry {
        stack = Box::new(Retry::new(stack, &r, budget.clone(), stats.retry.clone()));
    }
    LoadShedLayer::new(stats.shed.clone()).layer(stack)
}

/// Latency percentile by nearest-rank over a sorted sample vector.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let idx = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the resilience engine: `workers` virtual clients round-robin
/// through their middleware stacks against the fault-injected sharded
/// backend, one inter-arrival tick apart, until the request budget is
/// spent.
///
/// The run is a pure function of `(cfg, seed)`: two calls at the same
/// configuration produce bit-identical [`ResilienceReport`]s, digest
/// included.
///
/// # Panics
///
/// Panics on an invalid configuration (see [`ResilienceConfig`],
/// [`FaultPlan::validate`], [`Policy::validate`]) and if the terminal
/// outcomes fail to conserve the request count — that assertion is the
/// contract, not a debug aid.
#[must_use]
pub fn run_resilient(cfg: &ResilienceConfig) -> ResilienceReport {
    cfg.validate();
    let clock = VClock::new();
    let completed = Rc::new(Cell::new(0));
    let store = DirectCluster::new(cfg.n, cfg.shards);
    let corrupt_seed = point_seed(cfg.seed, CORRUPT_STREAM);
    let corruptors = store.directory().ranges().into_iter().enumerate();
    let backend = Rc::new(Backend {
        roles: (0..cfg.shards).map(|s| cfg.faults.role_of(s)).collect(),
        corruptors: corruptors
            .filter_map(|(s, range)| {
                let (g, kind) = cfg.faults.role_of(s).corrupt?;
                Some((
                    range,
                    LoadCorruptor::new(g, kind, point_seed(corrupt_seed, s as u64)),
                ))
            })
            .collect(),
        store: RefCell::new(store),
        base_latency: cfg.faults.base_latency,
    });
    let stats = PolicyStats {
        shed: ShedCounter::new(),
        retry: RetryStats::new(),
        rate: RateStats::new(),
        hedge: HedgeStats::new(),
        breaker: BreakerStats::new(),
        fault: FaultStats::new(),
    };
    let budget = RetryBudget::new(&cfg.policy.retry.unwrap_or_default());
    let steers: Vec<HedgeSteer> = (0..cfg.workers).map(|_| HedgeSteer::new()).collect();
    let mut stacks: Vec<_> = (0..cfg.workers)
        .map(|w| build_stack(cfg, w, &backend, &clock, &completed, &budget, &stats, &steers[w]))
        .collect();

    let mut digest = Fnv1a::new();
    let mut latencies: Vec<u64> = Vec::new();
    let ledger = drive(&mut stacks, cfg.requests, |_, ledger, stack| {
        let start = clock.now();
        let result = ledger.record(stack.call(cfg.request));
        let end = clock.now();
        // The ledger has already refused every non-terminal error.
        let (code, bin) = match result {
            Ok(resp) => {
                latencies.push(end - start);
                (0u64, resp.bin as u64)
            }
            Err(ServeError::Shed) => (1, u64::MAX),
            Err(ServeError::TimedOut) => (2, u64::MAX),
            Err(_) => (3, u64::MAX),
        };
        digest.write_u64(code);
        digest.write_u64(bin);
        digest.write_u64(end);
        clock
            .advance(1)
            .expect("no deadline is active between requests");
    });
    let state = backend.store.borrow().state();
    ledger.check(cfg.requests, state.balls(), &stats.shed);

    latencies.sort_unstable();
    let outcome = ResilienceOutcome {
        requests: cfg.requests,
        allocated: ledger.allocated,
        shed: ledger.shed,
        timed_out: ledger.timed_out,
        broken: ledger.broken,
        shed_rate_limited: stats.shed.rate_limited(),
        shed_faulted: stats.shed.faulted(),
        retries: stats.retry.retries(),
        retries_exhausted: stats.retry.exhausted(),
        hedged: stats.hedge.hedged(),
        hedge_rescued: stats.hedge.rescued(),
        hedge_regret: stats.hedge.regret(),
        hedge_retargeted: steers.iter().map(HedgeSteer::retargeted).sum(),
        breaker_trips: stats.breaker.opened(),
        breaker_rejections: stats.breaker.broken(),
        faults_slowed: stats.fault.slowed(),
        faults_stalled: stats.fault.stalled(),
        faults_errored: stats.fault.errored(),
        refreshes: stats.fault.refreshes(),
        gap: state.gap(),
        max_load: state.max_load(),
        latency_p50: percentile(&latencies, 0.50),
        latency_p99: percentile(&latencies, 0.99),
        latency_max: latencies.last().copied().unwrap_or(0),
        ticks: clock.now(),
    };
    ResilienceReport {
        outcome,
        digest: digest.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use balloc_noise::CorruptKind;

    fn faulty_cfg(seed: u64) -> ResilienceConfig {
        let mut cfg = ResilienceConfig::demo(64, 4, seed);
        cfg.faults = FaultPlan::clean(2)
            .with(0, FaultKind::Slow { extra: 6 })
            .with(1, FaultKind::Stalled { per_mille: 200 })
            .with(2, FaultKind::Erroring { per_mille: 200 })
            .with(
                3,
                FaultKind::CorruptedLoad {
                    g: 3,
                    kind: CorruptKind::Understate,
                },
            );
        cfg.policy = Policy {
            retry: Some(RetryConfig::default()),
            rate: None,
            hedge: Some(HedgeConfig::default()),
            timeout: Some(24),
            breaker: Some(BreakerConfig::default()),
        };
        cfg
    }

    #[test]
    fn clean_run_allocates_everything() {
        let report = run_resilient(&ResilienceConfig::demo(64, 4, 7));
        let o = &report.outcome;
        assert_eq!(o.allocated, o.requests);
        assert_eq!(o.shed + o.timed_out + o.broken, 0);
        assert_eq!(o.faults_slowed + o.faults_stalled + o.faults_errored, 0);
        assert_eq!(o.latency_p50, 1, "clean base latency is 1 tick");
        assert!(o.gap >= 0.0);
    }

    #[test]
    fn faulty_run_conserves_every_request() {
        let report = run_resilient(&faulty_cfg(11));
        let o = &report.outcome;
        assert_eq!(o.allocated + o.shed + o.timed_out + o.broken, o.requests);
        assert!(o.faults_stalled > 0, "a 20% stall rate must strike");
        // A stall ends as a timeout unless the retry layer rescues it or
        // the breaker has already opened on the stalling shard's failures.
        assert!(
            o.timed_out + o.broken > 0,
            "stall pressure must surface as timeouts or breaker rejections"
        );
        assert!(o.retries > 0, "clean faults get retried");
        assert_eq!(
            o.shed_rate_limited + o.shed_faulted,
            o.shed,
            "every shed here is a rate or fault shed (no buffers/permits in this stack)"
        );
    }

    #[test]
    fn reports_are_bit_identical_across_runs() {
        let a = run_resilient(&faulty_cfg(3));
        let b = run_resilient(&faulty_cfg(3));
        assert_eq!(a, b, "the full report, digest included, must replay");
        let c = run_resilient(&faulty_cfg(4));
        assert_ne!(a.digest, c.digest, "a different seed must change the stream");
    }

    #[test]
    fn retry_recovers_clean_faults() {
        let mut cfg = ResilienceConfig::demo(64, 4, 19);
        cfg.faults = FaultPlan::clean(1).with(1, FaultKind::Erroring { per_mille: 300 });
        let bare = run_resilient(&cfg).outcome;
        assert!(bare.shed_faulted > 0, "without retry, faults surface as sheds");
        cfg.policy.retry = Some(RetryConfig {
            max_retries: 4,
            budget_cap: 100_000,
            budget_deposit: 100,
            budget_withdraw: 100,
        });
        let retried = run_resilient(&cfg).outcome;
        assert!(retried.retries > 0);
        assert!(
            retried.allocated > bare.allocated,
            "a roomy retry budget must recover faults ({} vs {})",
            retried.allocated,
            bare.allocated
        );
    }

    #[test]
    fn hedging_cuts_the_slow_shard_tail() {
        // One slow shard out of 16: a duplicate re-decides and almost
        // always lands on a healthy shard, so hedging moves the p99 (with
        // a 1-in-4 slow fleet, >1% of duplicates are slow too and the p99
        // barely budges — hedging is a tail cure, not a capacity one).
        let mut cfg = ResilienceConfig::demo(64, 16, 23);
        cfg.requests = 2048;
        cfg.faults = FaultPlan::clean(2).with(0, FaultKind::Slow { extra: 24 });
        let waiting = run_resilient(&cfg).outcome;
        cfg.policy.hedge = Some(HedgeConfig {
            quantile: 0.9,
            cold_delay: 4,
            min_samples: 16,
        });
        let hedged = run_resilient(&cfg).outcome;
        assert!(hedged.hedged > 0, "the slow shard must trigger hedges");
        assert!(
            hedged.latency_p99 < waiting.latency_p99,
            "hedging must cut p99 ({} vs {})",
            hedged.latency_p99,
            waiting.latency_p99
        );
        assert_eq!(hedged.allocated, cfg.requests, "hedging loses no requests");
        assert!(
            hedged.hedge_retargeted > 0,
            "with 16 members, duplicates that re-land on the slow shard must move"
        );
    }

    #[test]
    fn single_shard_hedges_never_retarget() {
        // The fallback pin: with one member there is no other shard to
        // steer a duplicate onto, so hedging degrades gracefully to the
        // pure second-choice-in-time it was before the directory.
        let mut cfg = ResilienceConfig::demo(64, 1, 23);
        cfg.requests = 512;
        cfg.faults = FaultPlan::clean(2).with(0, FaultKind::Slow { extra: 24 });
        cfg.policy.hedge = Some(HedgeConfig {
            quantile: 0.9,
            cold_delay: 4,
            min_samples: 16,
        });
        let a = run_resilient(&cfg);
        assert!(a.outcome.hedged > 0, "the slow shard must trigger hedges");
        assert_eq!(a.outcome.hedge_retargeted, 0, "nowhere else to go");
        assert_eq!(a, run_resilient(&cfg), "fallback stays deterministic");
    }

    #[test]
    fn breaker_sheds_load_from_an_erroring_shard() {
        let mut cfg = ResilienceConfig::demo(64, 4, 31);
        cfg.faults = FaultPlan::clean(1).with(2, FaultKind::Erroring { per_mille: 1000 });
        cfg.policy.breaker = Some(BreakerConfig {
            window: 8,
            max_failures: 4,
            cooldown: 16,
        });
        let o = run_resilient(&cfg).outcome;
        assert!(o.breaker_trips > 0, "an always-erroring shard must trip it");
        assert!(o.broken > 0, "open-breaker rejections are terminal outcomes");
        assert_eq!(o.allocated + o.shed + o.timed_out + o.broken, o.requests);
    }

    #[test]
    fn rate_limit_sheds_are_attributed() {
        let mut cfg = ResilienceConfig::demo(64, 4, 37);
        // A clean run moves 2 ticks per request (1 service + 1
        // inter-arrival), so each of the 2 workers sees its own request
        // every 4 ticks; 1 permit per 16 ticks must reject ~3 in 4.
        cfg.policy.rate = Some(RateLimitConfig {
            permits: 1,
            period: 16,
            burst: 1,
        });
        let o = run_resilient(&cfg).outcome;
        assert!(o.shed_rate_limited > 0, "1 permit per 16 ticks must reject");
        assert_eq!(o.shed, o.shed_rate_limited);
        assert_eq!(o.allocated + o.shed, o.requests);
    }

    #[test]
    fn corrupted_loads_still_conserve_and_replay() {
        let mut cfg = ResilienceConfig::demo(64, 4, 41);
        cfg.faults = FaultPlan::clean(1).with(
            0,
            FaultKind::CorruptedLoad {
                g: 5,
                kind: CorruptKind::Jitter,
            },
        );
        let a = run_resilient(&cfg);
        assert_eq!(a.outcome.allocated, cfg.requests, "corruption misleads, never drops");
        assert_eq!(a, run_resilient(&cfg));
    }

    #[test]
    #[should_panic(expected = "stall faults require a timeout policy")]
    fn stall_without_timeout_rejected() {
        let mut cfg = ResilienceConfig::demo(16, 2, 1);
        cfg.faults = FaultPlan::clean(1).with(0, FaultKind::Stalled { per_mille: 1 });
        let _ = run_resilient(&cfg);
    }
}
