//! A load-shed layer — the tower-load-shed idiom, synchronously.
//!
//! Pressure errors from lower layers ([`ServeError::AtCapacity`] from
//! the in-flight limit, [`ServeError::RateLimited`] from the rate limiter,
//! [`ServeError::Faulted`] from a fault-injected backend once retries are
//! exhausted) surface here and are converted into an explicit, *counted*
//! drop: the caller sees [`ServeError::Shed`], the shared [`ShedCounter`]
//! records it **per cause**, and nothing ever blocks or queues
//! unboundedly. Shedding is the correct overload response for an
//! allocation service — a dropped request costs one retry upstream, while
//! an unbounded queue costs every later request its latency.
//!
//! The per-cause split exists because the resilience engine's
//! conservation accounting needs to attribute every shed to the layer
//! that produced the pressure (was the rate limit hit, or did the retry
//! budget run dry against a faulty shard?). [`ShedCounter::total`] is the
//! single number the engines' conservation ledger checks.

use std::cell::Cell;
use std::rc::Rc;

use crate::service::{Layer, ServeError, Service};
use crate::stats::bump;

/// Per-cause shed tallies (see [`ShedCounter`]).
#[derive(Debug, Default)]
struct Causes {
    at_capacity: Cell<u64>,
    rate_limited: Cell<u64>,
    faulted: Cell<u64>,
}

/// Shared counter of shed requests (one per service stack, cloned into
/// every worker's [`LoadShed`] layer), attributed per pressure cause.
#[derive(Debug, Clone, Default)]
pub struct ShedCounter {
    causes: Rc<Causes>,
}

impl ShedCounter {
    /// A fresh counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total requests shed so far, over all causes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.at_capacity() + self.rate_limited() + self.faulted()
    }

    /// Sheds caused by the in-flight limit.
    #[must_use]
    pub fn at_capacity(&self) -> u64 {
        self.causes.at_capacity.get()
    }

    /// Sheds caused by an empty rate-limit token bucket.
    #[must_use]
    pub fn rate_limited(&self) -> u64 {
        self.causes.rate_limited.get()
    }

    /// Sheds caused by a backend fault that survived the retry layer.
    #[must_use]
    pub fn faulted(&self) -> u64 {
        self.causes.faulted.get()
    }

    /// Records a shed for the pressure error `cause`, if it is one.
    fn record(&self, cause: ServeError) -> bool {
        let slot = match cause {
            ServeError::AtCapacity => &self.causes.at_capacity,
            ServeError::RateLimited => &self.causes.rate_limited,
            ServeError::Faulted => &self.causes.faulted,
            _ => return false,
        };
        bump(slot);
        true
    }
}

/// A [`Service`] converting lower-layer pressure into counted sheds.
#[derive(Debug, Clone)]
pub struct LoadShed<S> {
    inner: S,
    counter: ShedCounter,
}

impl<S> LoadShed<S> {
    /// Wraps `inner`, recording sheds into `counter`.
    #[must_use]
    pub fn new(inner: S, counter: ShedCounter) -> Self {
        Self { inner, counter }
    }

    /// Unwraps the middleware, returning the inner service (the tower
    /// `into_inner` idiom — used to read worker-local state back out of a
    /// finished stack).
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<Req, S: Service<Req>> Service<Req> for LoadShed<S> {
    type Response = S::Response;

    fn call(&mut self, req: Req) -> Result<Self::Response, ServeError> {
        match self.inner.call(req) {
            Err(cause) if self.counter.record(cause) => Err(ServeError::Shed),
            other => other,
        }
    }
}

/// [`Layer`] producing [`LoadShed`] services over a shared counter.
#[derive(Debug, Clone, Default)]
pub struct LoadShedLayer {
    counter: ShedCounter,
}

impl LoadShedLayer {
    /// A layer whose services all record into `counter`.
    #[must_use]
    pub fn new(counter: ShedCounter) -> Self {
        Self { counter }
    }
}

impl<S> Layer<S> for LoadShedLayer {
    type Service = LoadShed<S>;

    fn layer(&self, inner: S) -> Self::Service {
        LoadShed::new(inner, self.counter.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rejects every `k`-th request with the given pressure error.
    struct Flaky {
        k: u64,
        seen: u64,
        error: ServeError,
    }

    impl Service<u64> for Flaky {
        type Response = u64;
        fn call(&mut self, req: u64) -> Result<u64, ServeError> {
            self.seen += 1;
            if self.seen.is_multiple_of(self.k) {
                Err(self.error)
            } else {
                Ok(req)
            }
        }
    }

    #[test]
    fn back_pressure_becomes_counted_shed() {
        for pressure in [
            ServeError::AtCapacity,
            ServeError::RateLimited,
            ServeError::Faulted,
        ] {
            let counter = ShedCounter::new();
            let mut svc = LoadShedLayer::new(counter.clone()).layer(Flaky {
                k: 3,
                seen: 0,
                error: pressure,
            });
            let mut ok = 0;
            let mut shed = 0;
            for i in 0..99 {
                match svc.call(i) {
                    Ok(_) => ok += 1,
                    Err(e) => {
                        assert_eq!(e, ServeError::Shed);
                        shed += 1;
                    }
                }
            }
            assert_eq!((ok, shed), (66, 33));
            assert_eq!(counter.total(), 33);
        }
    }

    #[test]
    fn sheds_are_attributed_per_cause() {
        let counter = ShedCounter::new();
        let by_cause = |error: ServeError, calls: u64| {
            let mut svc = LoadShed::new(
                Flaky {
                    k: 1,
                    seen: 0,
                    error,
                },
                counter.clone(),
            );
            for i in 0..calls {
                assert_eq!(svc.call(i), Err(ServeError::Shed));
            }
        };
        by_cause(ServeError::AtCapacity, 3);
        by_cause(ServeError::RateLimited, 2);
        by_cause(ServeError::Faulted, 1);
        assert_eq!(counter.at_capacity(), 3);
        assert_eq!(counter.rate_limited(), 2);
        assert_eq!(counter.faulted(), 1);
        assert_eq!(counter.total(), 6, "causes must sum to the total");
    }

    #[test]
    fn non_pressure_errors_pass_through_uncounted() {
        for terminal in [ServeError::TimedOut, ServeError::Broken] {
            let counter = ShedCounter::new();
            let mut svc = LoadShed::new(
                Flaky {
                    k: 1,
                    seen: 0,
                    error: terminal,
                },
                counter.clone(),
            );
            assert_eq!(svc.call(1), Err(terminal));
            assert_eq!(counter.total(), 0);
        }
    }
}
