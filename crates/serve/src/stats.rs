//! The resilience middleware's one counter block.
//!
//! Every counting layer of every worker's stack — [`Retry`](crate::Retry),
//! [`RateLimit`](crate::RateLimit), [`Hedge`](crate::Hedge),
//! [`CircuitBreaker`](crate::CircuitBreaker) and the resilience engine's
//! fault-injecting leaf — bumps its own
//! fields of one shared `Rc<LayerStats>`. Every engine serves on one
//! thread, so plain cells suffice, and no decision reads a count: the
//! block observes a run without steering it.
//!
//! A field stays only while something reads it: `run_resilient` fills
//! its outcome from most of them, and `rate_limited` feeds the
//! conformance suite's attempt-accounting identity (every backend call
//! or layer rejection is one attempt). [`Timeout`](crate::Timeout)
//! keeps no count, because the engine's ledger already counts every
//! `TimedOut` outcome.

use std::cell::Cell;
use std::rc::Rc;

/// Counters of one run's middleware, shared by every layer as
/// `Rc<LayerStats>` (see the module docs). Read a field with `.get()`.
#[derive(Debug, Default)]
pub struct LayerStats {
    /// Retry attempts issued.
    pub retries: Cell<u64>,
    /// Retryable failures given up on because the retry budget was empty.
    pub retries_exhausted: Cell<u64>,
    /// Requests rejected by an empty rate-limit bucket.
    pub rate_limited: Cell<u64>,
    /// Hedge duplicates issued (first attempts cut off at the hedge delay).
    pub hedged: Cell<u64>,
    /// Hedged requests whose duplicate succeeded.
    pub hedge_rescued: Cell<u64>,
    /// Hedged requests that finished *later* than the aborted first
    /// attempt would have — the cost side of the hedging ledger.
    pub hedge_regret: Cell<u64>,
    /// Hedge duplicates whose decision was moved off the first attempt's
    /// shard.
    pub hedge_retargeted: Cell<u64>,
    /// Requests rejected by an open circuit breaker.
    pub broken: Cell<u64>,
    /// Breaker transitions into open (trips and failed probes).
    pub breaker_opened: Cell<u64>,
    /// Injected faults: requests that drew extra latency from a slow shard.
    pub faults_slowed: Cell<u64>,
    /// Injected faults: requests that stalled (ended only by a deadline).
    pub faults_stalled: Cell<u64>,
    /// Injected faults: requests that failed cleanly with `Faulted`.
    pub faults_errored: Cell<u64>,
    /// Snapshot refreshes of the fault-injecting leaves (each one an
    /// opportunity for load corruption).
    pub refreshes: Cell<u64>,
}

impl LayerStats {
    /// A fresh block at zero, ready to share.
    #[must_use]
    pub fn new() -> Rc<Self> {
        Rc::default()
    }
}

/// Adds one to `counter`.
pub(crate) fn bump(counter: &Cell<u64>) {
    counter.set(counter.get() + 1);
}
