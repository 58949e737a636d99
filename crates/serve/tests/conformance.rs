//! Adversarial conformance harness for the middleware suite.
//!
//! Property tests assemble *random* stacks — a random subset of the
//! resilience layers in a random order, over a scripted backend that
//! fails, stalls, and back-pressures per a random script — and check the
//! invariants every composition must satisfy:
//!
//! 1. **One terminal outcome per request.** Whatever the stack, a call
//!    returns exactly one of `Ok`, `Shed`, `TimedOut`, `Broken`, and the
//!    four tallies sum to the request count.
//! 2. **Completion conservation.** A backend completion is never
//!    discarded: completions == allocations (aborts are side-effect-free
//!    by the virtual-clock contract, so a timed-out attempt completes
//!    nothing).
//! 3. **The attempt ledger balances.** Flow conservation through the
//!    stack, independent of layer order:
//!    `requests + retries + hedges == backend calls + rate rejections +
//!    breaker rejections` (retry/hedge are the only call generators,
//!    rate-limit/breaker the only absorbers).
//! 4. **Shed attribution sums.** The load-shed per-cause counters sum to
//!    its total, which equals the observed shed outcomes.
//!
//! A final static test peels a maximal concrete stack back to the echo
//! service via `into_inner`, pinning the round-trip every layer promises.

use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use balloc_serve::{
    BreakerConfig, CircuitBreaker, Hedge, HedgeConfig, InFlightLimitLayer, Layer, LayerStats,
    LoadShed, LoadShedLayer, Permits, RateLimit, RateLimitConfig, Retry, RetryBudget, RetryConfig,
    ServeError, Service, ShedCounter, Timeout, VClock,
};
use proptest::prelude::*;

/// Shared backend observability: calls that reached it, calls that
/// completed (placed their side effect).
#[derive(Clone, Default)]
struct Counters {
    calls: Arc<AtomicU64>,
    completions: Arc<AtomicU64>,
}

impl Counters {
    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn completions(&self) -> u64 {
        self.completions.load(Ordering::Relaxed)
    }
}

/// A backend whose behaviour follows a byte script: the low 3 bits of
/// each byte are the request's latency in ticks, the next bits pick the
/// outcome (succeed, fail cleanly, or reject with one of two
/// back-pressure causes).
struct ScriptedBackend {
    clock: VClock,
    script: Vec<u8>,
    pos: usize,
    counters: Counters,
}

impl Service<u64> for ScriptedBackend {
    type Response = u64;

    fn call(&mut self, req: u64) -> Result<u64, ServeError> {
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        let byte = self.script[self.pos % self.script.len()];
        self.pos += 1;
        let latency = u64::from(byte & 0x07);
        match (byte >> 3) % 5 {
            // Pressure rejections are instant — no service time burned.
            3 => Err(ServeError::RateLimited),
            4 => Err(ServeError::AtCapacity),
            kind => {
                if self.clock.advance(latency).is_err() {
                    // A deadline above cut the attempt off before its
                    // side effect: no completion.
                    return Err(ServeError::TimedOut);
                }
                if kind == 2 {
                    return Err(ServeError::Faulted);
                }
                self.counters.completions.fetch_add(1, Ordering::Relaxed);
                Ok(req)
            }
        }
    }
}

fn retry_cfg() -> RetryConfig {
    RetryConfig {
        max_retries: 2,
        budget_cap: 100,
        budget_deposit: 10,
        budget_withdraw: 30,
    }
}

fn hedge_cfg() -> HedgeConfig {
    HedgeConfig {
        quantile: 0.9,
        cold_delay: 3,
        min_samples: 4,
    }
}

fn rate_cfg() -> RateLimitConfig {
    RateLimitConfig {
        permits: 3,
        period: 4,
        burst: 8,
    }
}

fn breaker_cfg() -> BreakerConfig {
    BreakerConfig {
        window: 8,
        max_failures: 4,
        cooldown: 6,
    }
}

/// The shared counters of one assembled stack: the load shed's and the
/// resilience layers' one block.
struct StackStats {
    shed: ShedCounter,
    layers: Rc<LayerStats>,
}

impl StackStats {
    fn new() -> Self {
        Self {
            shed: ShedCounter::new(),
            layers: LayerStats::new(),
        }
    }
}

type BoxSvc = Box<dyn Service<u64, Response = u64>>;

/// Assembles a random stack: the scripted backend, wrapped by the
/// deduplicated layer codes in script order (innermost first), under the
/// always-present load shed.
fn build_stack(
    codes: &[u8],
    script: Vec<u8>,
    clock: &VClock,
    counters: &Counters,
    stats: &StackStats,
) -> LoadShed<BoxSvc> {
    let mut stack: BoxSvc = Box::new(ScriptedBackend {
        clock: clock.clone(),
        script,
        pos: 0,
        counters: counters.clone(),
    });
    let mut seen = [false; 6];
    for &raw in codes {
        let code = (raw % 6) as usize;
        if seen[code] {
            continue;
        }
        seen[code] = true;
        stack = match code {
            0 => Box::new(Retry::new(
                stack,
                &retry_cfg(),
                RetryBudget::new(&retry_cfg()),
                Rc::clone(&stats.layers),
            )),
            1 => Box::new(Hedge::new(
                stack,
                clock.clone(),
                hedge_cfg(),
                Rc::clone(&stats.layers),
            )),
            2 => Box::new(Timeout::new(stack, clock.clone(), 4)),
            3 => Box::new(RateLimit::new(
                stack,
                clock.clone(),
                rate_cfg(),
                Rc::clone(&stats.layers),
            )),
            4 => Box::new(CircuitBreaker::new(
                stack,
                clock.clone(),
                breaker_cfg(),
                Rc::clone(&stats.layers),
            )),
            _ => Box::new(InFlightLimitLayer::new(Permits::new(2)).layer(stack)),
        };
    }
    LoadShedLayer::new(stats.shed.clone()).layer(stack)
}

/// The four terminal tallies of one driven run.
#[derive(Default)]
struct Outcomes {
    allocated: u64,
    shed: u64,
    timed_out: u64,
    broken: u64,
}

impl Outcomes {
    fn total(&self) -> u64 {
        self.allocated + self.shed + self.timed_out + self.broken
    }
}

/// Drives `n` requests through the stack, classifying every outcome.
/// Panics if any non-terminal error escapes — that alone is invariant 1.
fn drive(stack: &mut LoadShed<BoxSvc>, clock: &VClock, n: u64) -> Outcomes {
    let mut out = Outcomes::default();
    for i in 0..n {
        match stack.call(i) {
            Ok(v) => {
                assert_eq!(v, i, "response must echo the request");
                out.allocated += 1;
            }
            Err(ServeError::Shed) => out.shed += 1,
            Err(ServeError::TimedOut) => out.timed_out += 1,
            Err(ServeError::Broken) => out.broken += 1,
            Err(e) => panic!("non-terminal error escaped the stack: {e}"),
        }
        clock
            .advance(1)
            .expect("no deadline is active between requests");
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Invariants 1–4 over fully random stacks and backend scripts.
    #[test]
    fn random_stacks_conserve_every_request(
        script in proptest::collection::vec(any::<u8>(), 1..64usize),
        codes in proptest::collection::vec(any::<u8>(), 0..8usize),
    ) {
        let clock = VClock::new();
        let counters = Counters::default();
        let stats = StackStats::new();
        let mut stack = build_stack(&codes, script, &clock, &counters, &stats);
        let n = 200u64;
        let out = drive(&mut stack, &clock, n);
        // Releasing the stack must not invent or lose completions.
        drop(stack);

        // 1. Every request ends exactly once.
        prop_assert_eq!(out.total(), n);
        // 2. Completions are conserved.
        prop_assert_eq!(counters.completions(), out.allocated);
        // 3. The attempt ledger balances, whatever the layer order.
        let layers = &stats.layers;
        prop_assert_eq!(
            n + layers.retries.get() + layers.hedged.get(),
            counters.calls() + layers.rate_limited.get() + layers.broken.get(),
            "attempt ledger: {} requests, {} retries, {} hedges vs {} backend calls, {} rate-limited, {} broken",
            n, layers.retries.get(), layers.hedged.get(),
            counters.calls(), layers.rate_limited.get(), layers.broken.get()
        );
        // 4. Shed attribution sums to the observed sheds.
        prop_assert_eq!(stats.shed.total(), out.shed);
        prop_assert_eq!(
            stats.shed.at_capacity()
                + stats.shed.rate_limited()
                + stats.shed.faulted(),
            out.shed,
            "per-cause shed counters must sum to the total"
        );
    }

    /// Satellite focus: the breaker alone never silently drops a request
    /// — every call either reaches the backend or is rejected `Broken`.
    #[test]
    fn breaker_never_silently_drops(
        script in proptest::collection::vec(any::<u8>(), 1..32usize),
    ) {
        let clock = VClock::new();
        let counters = Counters::default();
        let stats = StackStats::new();
        let mut stack = build_stack(&[4], script, &clock, &counters, &stats);
        let n = 150u64;
        let out = drive(&mut stack, &clock, n);
        prop_assert_eq!(out.total(), n);
        prop_assert_eq!(
            counters.calls() + stats.layers.broken.get(),
            n,
            "each request either reached the backend or was rejected Broken"
        );
    }

    /// Replay determinism of a random stack: the same script, codes, and
    /// drive produce identical outcome tallies and counters.
    #[test]
    fn random_stacks_replay_deterministically(
        script in proptest::collection::vec(any::<u8>(), 1..48usize),
        codes in proptest::collection::vec(any::<u8>(), 0..8usize),
    ) {
        let run = |script: Vec<u8>, codes: &[u8]| {
            let clock = VClock::new();
            let counters = Counters::default();
            let stats = StackStats::new();
            let mut stack = build_stack(codes, script, &clock, &counters, &stats);
            let out = drive(&mut stack, &clock, 120);
            (
                out.allocated,
                out.shed,
                out.timed_out,
                out.broken,
                counters.calls(),
                clock.now(),
            )
        };
        prop_assert_eq!(
            run(script.clone(), &codes),
            run(script, &codes),
            "virtual-clock stacks are pure functions of (script, codes)"
        );
    }
}

/// Every layer's `into_inner` round-trips: a maximal concrete stack peels
/// back to the echo service, which still works.
#[test]
fn into_inner_round_trips_through_the_whole_suite() {
    struct Echo;
    impl Service<u64> for Echo {
        type Response = u64;
        fn call(&mut self, req: u64) -> Result<u64, ServeError> {
            Ok(req)
        }
    }

    let clock = VClock::new();
    let stats = LayerStats::new();
    let stack = LoadShedLayer::new(ShedCounter::new()).layer(Retry::new(
        RateLimit::new(
            Hedge::new(
                Timeout::new(
                    CircuitBreaker::new(
                        InFlightLimitLayer::new(Permits::new(1)).layer(Echo),
                        clock.clone(),
                        breaker_cfg(),
                        Rc::clone(&stats),
                    ),
                    clock.clone(),
                    4,
                ),
                clock.clone(),
                hedge_cfg(),
                Rc::clone(&stats),
            ),
            clock.clone(),
            rate_cfg(),
            Rc::clone(&stats),
        ),
        &retry_cfg(),
        RetryBudget::new(&retry_cfg()),
        stats,
    ));

    // Sanity: the assembled stack serves.
    let mut stack = stack;
    assert_eq!(stack.call(1), Ok(1));

    // Peel: LoadShed → Retry → RateLimit → Hedge → Timeout →
    // CircuitBreaker → InFlightLimit → Echo.
    let mut echo = stack
        .into_inner() // Retry
        .into_inner() // RateLimit
        .into_inner() // Hedge
        .into_inner() // Timeout
        .into_inner() // CircuitBreaker
        .into_inner() // InFlightLimit
        .into_inner(); // Echo
    assert_eq!(echo.call(9), Ok(9));
}
