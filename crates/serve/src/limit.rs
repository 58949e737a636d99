//! A concurrency (in-flight) limit layer — the tower-in-flight-limit
//! idiom, synchronously.
//!
//! The permit pool is shared: clones of the limited service (one per
//! serving worker) draw from the same pool, so the limit bounds the whole
//! fleet's concurrency (on one thread: nested calls), not each worker's.
//! A request that cannot get a permit is rejected with
//! [`ServeError::AtCapacity`] immediately — the load-shed layer above
//! decides what that costs.

use std::cell::Cell;
use std::rc::Rc;

use crate::service::{Layer, ServeError, Service};

/// Shared permit pool for [`InFlightLimit`] services.
#[derive(Debug, Clone)]
pub struct Permits {
    in_flight: Rc<Cell<usize>>,
    limit: usize,
}

impl Permits {
    /// Creates a pool allowing `limit` concurrent in-flight requests.
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0`.
    #[must_use]
    pub fn new(limit: usize) -> Self {
        assert!(limit > 0, "in-flight limit must be positive");
        Self {
            in_flight: Rc::new(Cell::new(0)),
            limit,
        }
    }

    /// Currently held permits.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight.get()
    }

    /// Tries to take a permit; the guard releases it on drop.
    fn acquire(&self) -> Option<PermitGuard<'_>> {
        let held = self.in_flight.get();
        (held < self.limit).then(|| {
            self.in_flight.set(held + 1);
            PermitGuard { pool: self }
        })
    }
}

/// RAII permit: releases the slot even if the inner call panics.
struct PermitGuard<'a> {
    pool: &'a Permits,
}

impl Drop for PermitGuard<'_> {
    fn drop(&mut self) {
        self.pool.in_flight.set(self.pool.in_flight.get() - 1);
    }
}

/// A [`Service`] enforcing a shared in-flight limit around `inner`.
#[derive(Debug, Clone)]
pub struct InFlightLimit<S> {
    inner: S,
    permits: Permits,
}

impl<S> InFlightLimit<S> {
    /// Wraps `inner` with the shared permit pool.
    #[must_use]
    pub fn new(inner: S, permits: Permits) -> Self {
        Self { inner, permits }
    }

    /// Unwraps the middleware, returning the inner service (the tower
    /// `into_inner` idiom — used to read worker-local state back out of a
    /// finished stack).
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<Req, S: Service<Req>> Service<Req> for InFlightLimit<S> {
    type Response = S::Response;

    fn call(&mut self, req: Req) -> Result<Self::Response, ServeError> {
        let Some(_permit) = self.permits.acquire() else {
            return Err(ServeError::AtCapacity);
        };
        self.inner.call(req)
    }
}

/// [`Layer`] producing [`InFlightLimit`] services over a shared pool.
#[derive(Debug, Clone)]
pub struct InFlightLimitLayer {
    permits: Permits,
}

impl InFlightLimitLayer {
    /// A layer whose services all draw from `permits`.
    #[must_use]
    pub fn new(permits: Permits) -> Self {
        Self { permits }
    }
}

impl<S> Layer<S> for InFlightLimitLayer {
    type Service = InFlightLimit<S>;

    fn layer(&self, inner: S) -> Self::Service {
        InFlightLimit::new(inner, self.permits.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Service<u32> for Echo {
        type Response = u32;
        fn call(&mut self, req: u32) -> Result<u32, ServeError> {
            Ok(req)
        }
    }

    #[test]
    fn permits_release_after_each_call() {
        let permits = Permits::new(1);
        let mut svc = InFlightLimitLayer::new(permits.clone()).layer(Echo);
        for i in 0..100 {
            assert_eq!(svc.call(i), Ok(i));
        }
        assert_eq!(permits.in_flight(), 0);
    }

    #[test]
    fn saturated_pool_rejects() {
        // Occupy the single permit from the "outside" by holding a guard,
        // mimicking another worker mid-call.
        let permits = Permits::new(1);
        let guard = permits.acquire().expect("free pool");
        let mut svc = InFlightLimit::new(Echo, permits.clone());
        assert_eq!(svc.call(7), Err(ServeError::AtCapacity));
        drop(guard);
        assert_eq!(svc.call(7), Ok(7));
    }

    #[test]
    fn limit_bounds_cloned_services_jointly() {
        // Each clone's call re-enters the next clone while its own permit
        // is held, so the calls nest and share one pool of two.
        struct Nest(Option<Box<InFlightLimit<Nest>>>);
        impl Service<u32> for Nest {
            type Response = u32;
            fn call(&mut self, req: u32) -> Result<u32, ServeError> {
                self.0.as_mut().map_or(Ok(req), |next| next.call(req + 1))
            }
        }
        let permits = Permits::new(2);
        let layer = InFlightLimitLayer::new(permits.clone());
        let chain = |depth: usize| {
            let mut svc = layer.layer(Nest(None));
            for _ in 1..depth {
                svc = layer.layer(Nest(Some(Box::new(svc))));
            }
            svc
        };
        assert_eq!(chain(2).call(0), Ok(1), "two nested calls fit");
        assert_eq!(
            chain(3).call(0),
            Err(ServeError::AtCapacity),
            "the third nested call finds the pool exhausted"
        );
        assert_eq!(permits.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_limit_rejected() {
        let _ = Permits::new(0);
    }
}
