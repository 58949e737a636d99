//! A deadline layer over the virtual clock — tower-timeout,
//! synchronously and deterministically.
//!
//! [`Timeout`] opens a [`VClock::deadline_scope`] at `now + budget`
//! around the inner call; the scope closes when the call returns. A
//! backend that respects the clock (every fault-injected backend does)
//! cannot advance time past the deadline: its `advance` call fails
//! *before* any side effect, it surfaces [`ServeError::TimedOut`], and
//! the request ends with exactly zero balls placed — which is what lets
//! the engine count `timed_out` as a first-class terminal outcome
//! alongside `allocated` and `shed` without breaking conservation.
//!
//! Because deadline scopes nest (the active cutoff is the minimum over
//! the open scopes), `Timeout` composes with the hedge layer's soft
//! deadline and with outer timeouts: whichever cutoff is earliest wins.
//! The layer keeps no count of its own; the engine's ledger counts each
//! `TimedOut` outcome once.

use crate::service::{ServeError, Service};
use crate::vclock::VClock;

/// A [`Service`] bounding each inner call to `budget` virtual ticks.
#[derive(Debug, Clone)]
pub struct Timeout<S> {
    inner: S,
    clock: VClock,
    budget: u64,
}

impl<S> Timeout<S> {
    /// Wraps `inner`, bounding each call to `budget` ticks on `clock`.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0` (every request would expire instantly).
    #[must_use]
    pub fn new(inner: S, clock: VClock, budget: u64) -> Self {
        assert!(budget > 0, "timeout budget must be positive");
        Self {
            inner,
            clock,
            budget,
        }
    }

    /// The per-request tick budget.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Unwraps the middleware, returning the inner service.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<Req, S: Service<Req>> Service<Req> for Timeout<S> {
    type Response = S::Response;

    fn call(&mut self, req: Req) -> Result<Self::Response, ServeError> {
        let deadline = self.clock.now().saturating_add(self.budget);
        let _scope = self.clock.deadline_scope(deadline);
        self.inner.call(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backend that takes a fixed number of ticks per request.
    struct SlowEcho {
        clock: VClock,
        latency: u64,
    }

    impl Service<u32> for SlowEcho {
        type Response = u32;
        fn call(&mut self, req: u32) -> Result<u32, ServeError> {
            match self.clock.advance(self.latency) {
                Ok(_) => Ok(req),
                Err(_) => Err(ServeError::TimedOut),
            }
        }
    }

    #[test]
    fn fast_backend_passes_within_budget() {
        let clock = VClock::new();
        let backend = SlowEcho {
            clock: clock.clone(),
            latency: 3,
        };
        let mut svc = Timeout::new(backend, clock.clone(), 5);
        for i in 0..10 {
            assert_eq!(svc.call(i), Ok(i));
        }
        assert_eq!(clock.now(), 30);
        assert_eq!(clock.deadline(), None, "no deadline left after each call");
    }

    #[test]
    fn slow_backend_times_out_and_is_counted() {
        let clock = VClock::new();
        let backend = SlowEcho {
            clock: clock.clone(),
            latency: 9,
        };
        let mut svc = Timeout::new(backend, clock.clone(), 5);
        // Each expiry is one `TimedOut` outcome, counted by the caller.
        assert_eq!(svc.call(1), Err(ServeError::TimedOut));
        assert_eq!(clock.now(), 5, "the caller waited out its full budget");
        assert_eq!(svc.call(2), Err(ServeError::TimedOut));
        assert_eq!(
            clock.now(),
            10,
            "each attempt restarts from the current tick"
        );
    }

    #[test]
    fn inner_expiry_is_not_double_counted() {
        // An inner timeout with a tighter budget fires first; the outer
        // layer passes that one error through, and the clock stops at the
        // inner deadline, not the outer one.
        let clock = VClock::new();
        let backend = SlowEcho {
            clock: clock.clone(),
            latency: 100,
        };
        let inner = Timeout::new(backend, clock.clone(), 4);
        let mut outer = Timeout::new(inner, clock.clone(), 50);
        assert_eq!(outer.call(1), Err(ServeError::TimedOut));
        assert_eq!(clock.now(), 4, "the inner deadline fired, not ours");
        assert_eq!(clock.deadline(), None, "both scopes closed");
    }

    #[test]
    fn into_inner_round_trips() {
        let clock = VClock::new();
        let backend = SlowEcho {
            clock: clock.clone(),
            latency: 1,
        };
        let svc = Timeout::new(backend, clock.clone(), 7);
        assert_eq!(svc.budget(), 7);
        let mut backend = svc.into_inner();
        assert_eq!(backend.call(3), Ok(3));
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_rejected() {
        let clock = VClock::new();
        let backend = SlowEcho {
            clock: clock.clone(),
            latency: 1,
        };
        let _ = Timeout::new(backend, clock, 0);
    }
}
