//! A hedged-request layer — the "backup request" / tower-hedge idiom,
//! deterministically, over the virtual clock.
//!
//! Hedging is the *temporal* analogue of the paper's second choice: where
//! Two-Choice samples a second bin and keeps the better one, a hedged
//! client gives the first attempt a latency-percentile head start and
//! then issues a duplicate, keeping whichever response arrives — a second
//! choice in *time* instead of space. The b-Batch results predict how
//! much that delayed second sample can still help, which is exactly what
//! `balloc resilience_duel` measures.
//!
//! Synchronously there is no racing of two in-flight calls, so [`Hedge`]
//! implements the standard cancel-on-hedge variant: the first attempt
//! runs under a *soft deadline* of `now + delay`, where `delay` is the
//! configured quantile of this service's observed latencies (the
//! BigTable/"Tail at Scale" backup-request rule). The soft deadline is a
//! [`VClock::deadline_scope`] around the first attempt only, so it nests
//! with any `Timeout` deadline and the earlier cutoff wins. If the
//! attempt would outlive the delay, the virtual clock aborts it
//! side-effect-free, the duplicate is issued, and the duplicate's outcome
//! is the request's outcome. The clock's overrun register remembers when
//! the first attempt *would* have finished, so the layer also reports
//! hedge *regret* — duplicates that finished later than simply waiting
//! would have.

use std::cell::Cell;
use std::rc::Rc;

use crate::service::{ServeError, Service};
use crate::stats::{bump, LayerStats};
use crate::vclock::VClock;

/// A log₂-bucketed latency histogram (64 buckets cover all of `u64`),
/// used by [`Hedge`] to track its observed completion latencies and read
/// off percentile delays without storing samples.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [0; 64],
            count: 0,
        }
    }

    /// Index of the bucket holding `latency` (bucket `b > 0` holds
    /// `[2^(b-1), 2^b)`; bucket 0 holds latency 0).
    fn bucket_of(latency: u64) -> usize {
        ((u64::BITS - latency.leading_zeros()) as usize).min(63)
    }

    /// Upper bound of bucket `b` — the conservative (round-up) latency
    /// estimate quantile reads return.
    fn upper_bound(b: usize) -> u64 {
        match b {
            0 => 0,
            63 => u64::MAX,
            _ => (1u64 << b) - 1,
        }
    }

    /// Records one completion latency.
    pub fn record(&mut self, latency: u64) {
        self.buckets[Self::bucket_of(latency)] += 1;
        self.count += 1;
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The latency at quantile `q` (clamped to `(0, 1]`), rounded up to
    /// its bucket's upper bound; 0 if the histogram is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::upper_bound(b);
            }
        }
        u64::MAX
    }
}

/// Configuration of a [`Hedge`] layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Latency quantile after which the duplicate is issued (the "Tail at
    /// Scale" rule hedges at p95–p99).
    pub quantile: f64,
    /// Hedge delay used before `min_samples` latencies are observed, and
    /// as a floor under the quantile estimate (prevents hedging storms
    /// when the observed latencies are tiny).
    pub cold_delay: u64,
    /// Observed completions required before the quantile estimate is
    /// trusted.
    pub min_samples: u64,
}

impl Default for HedgeConfig {
    /// Hedge at the observed p90, floor 4 ticks, after 16 samples.
    fn default() -> Self {
        Self {
            quantile: 0.9,
            cold_delay: 4,
            min_samples: 16,
        }
    }
}

impl HedgeConfig {
    /// Asserts the configuration is usable.
    ///
    /// # Panics
    ///
    /// Panics if the quantile is outside `(0, 1)` or the cold delay is
    /// zero (a zero-delay hedge duplicates every request).
    pub fn validate(&self) {
        assert!(
            self.quantile > 0.0 && self.quantile < 1.0,
            "hedge quantile must lie strictly between 0 and 1"
        );
        assert!(self.cold_delay > 0, "hedge cold delay must be positive");
    }
}

/// A shard-diversity channel between a [`Hedge`] layer and the leaf
/// service beneath it: the leaf records which shard slot each attempt
/// lands on, and while a hedge duplicate is in flight the channel names
/// that slot as the one to *avoid*, so the duplicate makes a true second
/// choice in space as well as time. With fewer than two members the leaf
/// simply ignores the hint (the single-shard fallback).
#[derive(Debug, Clone, Default)]
pub struct HedgeSteer {
    last: Rc<Cell<Option<usize>>>,
    avoid: Rc<Cell<Option<usize>>>,
}

impl HedgeSteer {
    /// A fresh channel with nothing recorded.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The leaf reports the shard slot its latest attempt targeted.
    pub fn note_attempt(&self, slot: usize) {
        self.last.set(Some(slot));
    }

    /// The slot a hedge duplicate should avoid, if one is in flight.
    #[must_use]
    pub fn avoid(&self) -> Option<usize> {
        self.avoid.get()
    }

    /// Marks a duplicate in flight: avoid whatever the first attempt hit.
    fn begin_hedge(&self) {
        self.avoid.set(self.last.get());
    }

    /// Clears the in-flight marker.
    fn end_hedge(&self) {
        self.avoid.set(None);
    }
}

/// A [`Service`] hedging slow inner calls with one duplicate (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct Hedge<S> {
    inner: S,
    clock: VClock,
    cfg: HedgeConfig,
    hist: LatencyHistogram,
    stats: Rc<LayerStats>,
    steer: Option<HedgeSteer>,
}

impl<S> Hedge<S> {
    /// Wraps `inner`, hedging on `clock` per `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`HedgeConfig::validate`]).
    #[must_use]
    pub fn new(inner: S, clock: VClock, cfg: HedgeConfig, stats: Rc<LayerStats>) -> Self {
        cfg.validate();
        Self {
            inner,
            clock,
            cfg,
            hist: LatencyHistogram::new(),
            stats,
            steer: None,
        }
    }

    /// Attaches a [`HedgeSteer`] channel shared with the leaf service,
    /// so duplicates are steered off the first attempt's shard.
    #[must_use]
    pub fn with_steer(mut self, steer: HedgeSteer) -> Self {
        self.steer = Some(steer);
        self
    }

    /// The current hedge delay in ticks: the configured latency quantile
    /// once warmed up, the cold delay (also the floor) before that.
    #[must_use]
    pub fn delay(&self) -> u64 {
        if self.hist.count() >= self.cfg.min_samples {
            self.hist
                .quantile(self.cfg.quantile)
                .max(self.cfg.cold_delay)
        } else {
            self.cfg.cold_delay
        }
    }

    /// The layer's observed-latency histogram.
    #[must_use]
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.hist
    }

    /// Unwraps the middleware, returning the inner service.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<Req: Clone, S: Service<Req>> Service<Req> for Hedge<S> {
    type Response = S::Response;

    fn call(&mut self, req: Req) -> Result<Self::Response, ServeError> {
        let start = self.clock.now();
        let soft_deadline = start.saturating_add(self.delay());
        let first = {
            let _soft = self.clock.deadline_scope(soft_deadline);
            self.inner.call(req.clone())
        };
        match first {
            Ok(resp) => {
                self.hist.record(self.clock.now() - start);
                Ok(resp)
            }
            // Our soft deadline cut the first attempt off: hedge. A
            // TimedOut with the clock short of our deadline means an
            // *inner* deadline fired — that is a real timeout, not a
            // hedging trigger, and passes through below.
            Err(ServeError::TimedOut) if self.clock.now() >= soft_deadline => {
                let first_would_finish = self.clock.last_overrun();
                bump(&self.stats.hedged);
                if let Some(steer) = &self.steer {
                    steer.begin_hedge();
                }
                let second = self.inner.call(req);
                if let Some(steer) = &self.steer {
                    steer.end_hedge();
                }
                let end = self.clock.now();
                if second.is_ok() {
                    bump(&self.stats.hedge_rescued);
                    self.hist.record(end - start);
                }
                if first_would_finish.is_some_and(|t| t < end) {
                    bump(&self.stats.hedge_regret);
                }
                second
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_round_up_to_bucket_bounds() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for latency in [0u64, 1, 2, 3, 4, 100] {
            h.record(latency);
        }
        assert_eq!(h.count(), 6);
        // Buckets hit: 0→b0, 1→b1, {2,3}→b2, 4→b3, 100→b7.
        assert_eq!(h.quantile(0.01), 0);
        assert_eq!(
            h.quantile(0.5),
            3,
            "median rounds up to bucket [2,4)'s bound"
        );
        assert_eq!(h.quantile(0.99), 127, "tail lands in 100's bucket [64,128)");
        let mut top = LatencyHistogram::new();
        top.record(u64::MAX);
        assert_eq!(top.quantile(0.5), u64::MAX);
    }

    /// A backend whose per-call latencies follow a fixed script.
    struct Scripted {
        clock: VClock,
        script: Vec<u64>,
        pos: usize,
        completions: u64,
    }

    impl Service<u32> for Scripted {
        type Response = u32;
        fn call(&mut self, req: u32) -> Result<u32, ServeError> {
            let latency = self.script[self.pos % self.script.len()];
            self.pos += 1;
            match self.clock.advance(latency) {
                Ok(_) => {
                    self.completions += 1;
                    Ok(req)
                }
                Err(_) => Err(ServeError::TimedOut),
            }
        }
    }

    fn cfg(cold_delay: u64) -> HedgeConfig {
        HedgeConfig {
            quantile: 0.9,
            cold_delay,
            min_samples: 4,
        }
    }

    #[test]
    fn fast_calls_never_hedge() {
        let clock = VClock::new();
        let stats = LayerStats::new();
        let backend = Scripted {
            clock: clock.clone(),
            script: vec![1, 2, 3],
            pos: 0,
            completions: 0,
        };
        let mut svc = Hedge::new(backend, clock.clone(), cfg(10), stats.clone());
        for i in 0..30 {
            assert_eq!(svc.call(i), Ok(i));
        }
        assert_eq!(stats.hedged.get(), 0);
        assert_eq!(svc.histogram().count(), 30);
    }

    #[test]
    fn slow_first_attempt_is_hedged_and_rescued() {
        let clock = VClock::new();
        let stats = LayerStats::new();
        // First call stalls (100 ticks ≫ the 5-tick hedge delay), the
        // duplicate is fast.
        let backend = Scripted {
            clock: clock.clone(),
            script: vec![100, 2],
            pos: 0,
            completions: 0,
        };
        let mut svc = Hedge::new(backend, clock.clone(), cfg(5), stats.clone());
        assert_eq!(svc.call(7), Ok(7));
        assert_eq!(stats.hedged.get(), 1);
        assert_eq!(stats.hedge_rescued.get(), 1);
        // Waited 5 ticks for the first, then 2 for the duplicate.
        assert_eq!(clock.now(), 7);
        assert_eq!(
            stats.hedge_regret.get(),
            0,
            "7 < 100: duplicating beat waiting, no regret"
        );
    }

    #[test]
    fn pointless_hedges_are_regretted() {
        let clock = VClock::new();
        let stats = LayerStats::new();
        // The first attempt would have finished at 6, one tick past the
        // 5-tick delay; the duplicate takes until 15. Hedging lost.
        let backend = Scripted {
            clock: clock.clone(),
            script: vec![6, 10],
            pos: 0,
            completions: 0,
        };
        let mut svc = Hedge::new(backend, clock.clone(), cfg(5), stats.clone());
        assert_eq!(svc.call(1), Ok(1));
        assert_eq!(stats.hedged.get(), 1);
        assert_eq!(
            stats.hedge_regret.get(),
            1,
            "finished at 15, waiting would have been 6"
        );
    }

    #[test]
    fn hedge_delay_adapts_to_observed_latencies() {
        let clock = VClock::new();
        let stats = LayerStats::new();
        let backend = Scripted {
            clock: clock.clone(),
            script: vec![20],
            pos: 0,
            completions: 0,
        };
        let mut svc = Hedge::new(
            backend,
            clock.clone(),
            HedgeConfig {
                quantile: 0.9,
                cold_delay: 5,
                min_samples: 4,
            },
            stats.clone(),
        );
        assert_eq!(svc.delay(), 5, "cold: the configured delay");
        for i in 0..4 {
            assert_eq!(svc.call(i), Ok(i), "warm-up duplicates still complete");
        }
        assert_eq!(
            stats.hedged.get(),
            4,
            "every cold call hedged: 20-tick backend, 5-tick delay"
        );
        // Hedged completions took 5 + 20 = 25 ticks → p90 rounds up to
        // the [16, 32) bucket bound.
        assert_eq!(svc.delay(), 31, "warm: quantile of observed latencies");
        let before = stats.hedged.get();
        for i in 0..10 {
            assert_eq!(svc.call(i), Ok(i));
        }
        assert_eq!(
            stats.hedged.get(),
            before,
            "the adapted delay covers the backend"
        );
    }

    #[test]
    fn inner_deadline_expiry_passes_through_unhedged() {
        // An outer Timeout tighter than the hedge delay fires first; the
        // hedge layer must not claim it (and must not duplicate).
        use crate::timeout::Timeout;
        let clock = VClock::new();
        let stats = LayerStats::new();
        let backend = Scripted {
            clock: clock.clone(),
            script: vec![100],
            pos: 0,
            completions: 0,
        };
        let timed = Timeout::new(backend, clock.clone(), 3);
        let mut svc = Hedge::new(timed, clock.clone(), cfg(10), stats.clone());
        assert_eq!(svc.call(1), Err(ServeError::TimedOut));
        assert_eq!(
            stats.hedged.get(),
            0,
            "the inner timeout fired, not our delay"
        );
        assert_eq!(clock.now(), 3);
    }

    #[test]
    fn into_inner_round_trips() {
        let clock = VClock::new();
        let backend = Scripted {
            clock: clock.clone(),
            script: vec![1],
            pos: 0,
            completions: 0,
        };
        let svc = Hedge::new(backend, clock.clone(), cfg(5), LayerStats::new());
        let mut backend = svc.into_inner();
        assert_eq!(backend.call(2), Ok(2));
        assert_eq!(backend.completions, 1);
    }

    #[test]
    #[should_panic(expected = "quantile must lie strictly between")]
    fn degenerate_quantile_rejected() {
        let clock = VClock::new();
        let backend = Scripted {
            clock: clock.clone(),
            script: vec![1],
            pos: 0,
            completions: 0,
        };
        let _ = Hedge::new(
            backend,
            clock,
            HedgeConfig {
                quantile: 1.0,
                ..HedgeConfig::default()
            },
            LayerStats::new(),
        );
    }
}
