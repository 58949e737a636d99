//! A token-bucket rate-limit layer over the virtual clock —
//! tower-rate-limit, deterministically.
//!
//! The bucket refills `permits` tokens per `period` virtual ticks up to
//! a `burst` cap, and every admitted request spends one token. An empty
//! bucket rejects immediately with [`ServeError::RateLimited`] — fail
//! fast, never queue — and the load-shed layer above converts that into
//! a counted shed. Admission is therefore a pure function of the clock,
//! which keeps rate-limited runs inside the replay determinism contract.
//!
//! Each service owns its bucket state (tokens, refill anchor) but shares
//! the clock and the [`LayerStats`] block with the rest of the stack. A
//! fleet-wide limit is expressed by giving each of `w` workers
//! `permits / w`. One bucket shared by the fleet would let one worker's
//! burst spend the others' tokens; a bucket per worker keeps each
//! worker's admission a function of its own requests and the clock.
//! Churn's admission bucket is not this layer: it refills one token per
//! live member, is shared by all workers, and spends only when a ball is
//! placed, not before the call. Merging the two would re-pin churn's
//! digests.

use std::rc::Rc;

use crate::service::{ServeError, Service};
use crate::stats::{bump, LayerStats};
use crate::vclock::VClock;

/// Configuration of a [`RateLimit`] layer's token bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimitConfig {
    /// Tokens refilled per period.
    pub permits: u64,
    /// Refill period in virtual ticks.
    pub period: u64,
    /// Bucket capacity (burst headroom); also the starting level.
    pub burst: u64,
}

impl RateLimitConfig {
    /// Asserts the configuration is usable.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn validate(&self) {
        assert!(self.permits > 0, "rate limit permits must be positive");
        assert!(self.period > 0, "rate limit period must be positive");
        assert!(self.burst > 0, "rate limit burst must be positive");
    }
}

/// A [`Service`] admitting requests through a clock-driven token bucket.
#[derive(Debug, Clone)]
pub struct RateLimit<S> {
    inner: S,
    clock: VClock,
    cfg: RateLimitConfig,
    tokens: u64,
    /// Tick the last whole-period refill happened at.
    anchor: u64,
    stats: Rc<LayerStats>,
}

impl<S> RateLimit<S> {
    /// Wraps `inner` with a full bucket anchored at the clock's current
    /// tick.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`RateLimitConfig::validate`]).
    #[must_use]
    pub fn new(inner: S, clock: VClock, cfg: RateLimitConfig, stats: Rc<LayerStats>) -> Self {
        cfg.validate();
        let anchor = clock.now();
        Self {
            inner,
            clock,
            cfg,
            tokens: cfg.burst,
            anchor,
            stats,
        }
    }

    /// Current bucket level (after refilling for elapsed ticks).
    #[must_use]
    pub fn tokens(&mut self) -> u64 {
        self.refill();
        self.tokens
    }

    /// Unwraps the middleware, returning the inner service.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Credits every whole period elapsed since the anchor.
    fn refill(&mut self) {
        let now = self.clock.now();
        let periods = now.saturating_sub(self.anchor) / self.cfg.period;
        if periods > 0 {
            self.tokens = self
                .tokens
                .saturating_add(periods.saturating_mul(self.cfg.permits))
                .min(self.cfg.burst);
            self.anchor += periods * self.cfg.period;
        }
    }
}

impl<Req, S: Service<Req>> Service<Req> for RateLimit<S> {
    type Response = S::Response;

    fn call(&mut self, req: Req) -> Result<Self::Response, ServeError> {
        self.refill();
        if self.tokens == 0 {
            bump(&self.stats.rate_limited);
            return Err(ServeError::RateLimited);
        }
        self.tokens -= 1;
        self.inner.call(req)
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

    fn cfg() -> RateLimitConfig {
        RateLimitConfig {
            permits: 2,
            period: 10,
            burst: 3,
        }
    }

    #[test]
    fn burst_admits_then_empty_bucket_rejects() {
        let clock = VClock::new();
        let stats = LayerStats::new();
        let mut svc = RateLimit::new(Echo, clock.clone(), cfg(), stats.clone());
        for i in 0..3 {
            assert_eq!(svc.call(i), Ok(i), "burst token {i}");
        }
        assert_eq!(svc.call(9), Err(ServeError::RateLimited));
        assert_eq!(svc.call(9), Err(ServeError::RateLimited));
        assert_eq!(stats.rate_limited.get(), 2);
    }

    #[test]
    fn elapsed_periods_refill_the_bucket() {
        let clock = VClock::new();
        let stats = LayerStats::new();
        let mut svc = RateLimit::new(Echo, clock.clone(), cfg(), stats.clone());
        for i in 0..3 {
            assert_eq!(svc.call(i), Ok(i));
        }
        assert_eq!(svc.tokens(), 0);
        clock.advance(9).unwrap();
        assert_eq!(
            svc.call(1),
            Err(ServeError::RateLimited),
            "period not complete"
        );
        clock.advance(1).unwrap();
        assert_eq!(svc.tokens(), 2, "one whole period credits `permits` tokens");
        assert_eq!(svc.call(1), Ok(1));
        assert_eq!(svc.call(2), Ok(2));
        assert_eq!(svc.call(3), Err(ServeError::RateLimited));
        // Many periods at once still cap at the burst.
        clock.advance(1_000).unwrap();
        assert_eq!(svc.tokens(), 3);
    }

    #[test]
    fn refill_anchor_tracks_whole_periods_only() {
        let clock = VClock::new();
        let mut svc = RateLimit::new(Echo, clock.clone(), cfg(), LayerStats::new());
        for i in 0..3 {
            let _ = svc.call(i);
        }
        // 15 ticks = one whole period + 5 spare; the spare must count
        // toward the *next* period rather than being discarded.
        clock.advance(15).unwrap();
        assert_eq!(svc.tokens(), 2);
        clock.advance(5).unwrap();
        assert_eq!(
            svc.tokens(),
            3,
            "the spare 5 ticks completed the second period"
        );
    }

    #[test]
    fn into_inner_round_trips() {
        let svc = RateLimit::new(Echo, VClock::new(), cfg(), LayerStats::new());
        let mut inner = svc.into_inner();
        assert_eq!(inner.call(8), Ok(8));
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let bad = RateLimitConfig { period: 0, ..cfg() };
        let _ = RateLimit::new(Echo, VClock::new(), bad, LayerStats::new());
    }
}
