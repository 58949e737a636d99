//! Shed-aware autoscaling: membership changes driven by the load-shed
//! counters.
//!
//! The serve stack already counts every dropped request by cause
//! ([`ShedCounter`]). Those counters are precisely the signal a
//! production autoscaler watches: sustained shedding means the member
//! set is too small for the offered load; a long quiet stretch means it
//! is too big. The [`Autoscaler`] samples the counter over fixed
//! [`VClock`](balloc_sim::VClock) windows and recommends scale
//! decisions, which the churn engine turns into directory
//! [`Change`](crate::Change)s — **the same code path operator-driven
//! churn uses**, so an autoscaled membership log replays exactly like a
//! scripted one.

use crate::shed::ShedCounter;

/// When to grow and when to shrink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Scale out when a window sheds at least this many requests.
    pub shed_threshold: u64,
    /// Window length in virtual ticks.
    pub window: u64,
    /// Scale in after this many consecutive windows with zero sheds.
    pub idle_windows: u32,
    /// Never shrink below this member count.
    pub min_shards: usize,
    /// Never grow above this member count.
    pub max_shards: usize,
}

impl AutoscaleConfig {
    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a zero window, zero idle-window count, zero minimum,
    /// or an empty `[min_shards, max_shards]` band.
    pub fn validate(&self) {
        assert!(self.window > 0, "autoscale window must be positive");
        assert!(self.idle_windows > 0, "idle_windows must be positive");
        assert!(self.min_shards > 0, "min_shards must be positive");
        assert!(
            self.min_shards <= self.max_shards,
            "min_shards must not exceed max_shards"
        );
    }
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        Self {
            shed_threshold: 8,
            window: 64,
            idle_windows: 4,
            min_shards: 1,
            max_shards: 8,
        }
    }
}

/// What the autoscaler wants done to the membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Insert one member: the last window shed at or above threshold.
    Out,
    /// Remove one member: `idle_windows` consecutive windows were
    /// shed-free.
    In,
}

/// The window-sampling scale controller. Deterministic: decisions are a
/// pure function of the tick stream and the shed counter's values at
/// window boundaries.
#[derive(Debug)]
pub struct Autoscaler {
    cfg: AutoscaleConfig,
    /// Shed total at the last window boundary.
    last_total: u64,
    /// Consecutive shed-free windows observed.
    idle_streak: u32,
    /// The tick the current window ends at.
    boundary: u64,
}

impl Autoscaler {
    /// A controller starting its first window at tick `now`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`AutoscaleConfig::validate`].
    #[must_use]
    pub fn new(cfg: AutoscaleConfig, now: u64) -> Self {
        cfg.validate();
        Self {
            cfg,
            last_total: 0,
            idle_streak: 0,
            boundary: now + cfg.window,
        }
    }

    /// Samples the shed counter if tick `now` crossed a window boundary
    /// and returns the recommended action, if any. `members` is the
    /// current directory size (bounds the recommendation). Call once
    /// per tick; boundaries are never skipped even if the caller's
    /// ticks jump.
    pub fn poll(&mut self, now: u64, shed: &ShedCounter, members: usize) -> Option<ScaleAction> {
        if now < self.boundary {
            return None;
        }
        // Catch up past skipped boundaries so window starts stay phase-
        // locked to the configured grid regardless of caller cadence.
        while self.boundary <= now {
            self.boundary += self.cfg.window;
        }
        let total = shed.total();
        let in_window = total - self.last_total;
        self.last_total = total;
        if in_window >= self.cfg.shed_threshold {
            self.idle_streak = 0;
            if members < self.cfg.max_shards {
                return Some(ScaleAction::Out);
            }
            return None;
        }
        if in_window == 0 {
            self.idle_streak += 1;
            if self.idle_streak >= self.cfg.idle_windows && members > self.cfg.min_shards {
                self.idle_streak = 0;
                return Some(ScaleAction::In);
            }
        } else {
            self.idle_streak = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{Request, Response, ServeError, Service};
    use crate::shed::{LoadShedLayer, ShedCounter};
    use crate::Layer;

    /// A backend that rejects with `RateLimited` while `pressure` holds.
    struct Pressured(bool);

    impl Service<Request> for Pressured {
        type Response = Response;

        fn call(&mut self, _req: Request) -> Result<Response, ServeError> {
            if self.0 {
                Err(ServeError::RateLimited)
            } else {
                Ok(Response { bin: 0 })
            }
        }
    }

    fn shed_some(counter: &ShedCounter, times: u64) {
        let mut svc = LoadShedLayer::new(counter.clone()).layer(Pressured(true));
        for _ in 0..times {
            assert_eq!(svc.call(Request::two_choice()), Err(ServeError::Shed));
        }
    }

    #[test]
    fn sheds_above_threshold_scale_out() {
        let counter = ShedCounter::new();
        let cfg = AutoscaleConfig {
            shed_threshold: 3,
            window: 10,
            ..AutoscaleConfig::default()
        };
        let mut auto = Autoscaler::new(cfg, 0);
        shed_some(&counter, 3);
        assert_eq!(auto.poll(5, &counter, 2), None, "window not over yet");
        assert_eq!(auto.poll(10, &counter, 2), Some(ScaleAction::Out));
    }

    #[test]
    fn scale_out_respects_max() {
        let counter = ShedCounter::new();
        let cfg = AutoscaleConfig {
            shed_threshold: 1,
            window: 4,
            max_shards: 2,
            ..AutoscaleConfig::default()
        };
        let mut auto = Autoscaler::new(cfg, 0);
        shed_some(&counter, 5);
        assert_eq!(auto.poll(4, &counter, 2), None, "already at max");
    }

    #[test]
    fn sustained_idle_scales_in_with_hysteresis() {
        let counter = ShedCounter::new();
        let cfg = AutoscaleConfig {
            shed_threshold: 2,
            window: 10,
            idle_windows: 3,
            min_shards: 1,
            ..AutoscaleConfig::default()
        };
        let mut auto = Autoscaler::new(cfg, 0);
        assert_eq!(auto.poll(10, &counter, 4), None);
        assert_eq!(auto.poll(20, &counter, 4), None);
        assert_eq!(auto.poll(30, &counter, 4), Some(ScaleAction::In));
        // The streak resets after a recommendation: three more quiet
        // windows are needed for the next one.
        assert_eq!(auto.poll(40, &counter, 3), None);
        assert_eq!(auto.poll(50, &counter, 3), None);
        assert_eq!(auto.poll(60, &counter, 3), Some(ScaleAction::In));
    }

    #[test]
    fn scale_in_respects_min_and_sheds_reset_the_streak() {
        let counter = ShedCounter::new();
        let cfg = AutoscaleConfig {
            shed_threshold: 5,
            window: 10,
            idle_windows: 2,
            min_shards: 2,
            ..AutoscaleConfig::default()
        };
        let mut auto = Autoscaler::new(cfg, 0);
        assert_eq!(auto.poll(10, &counter, 2), None);
        assert_eq!(auto.poll(20, &counter, 2), None, "at min, never shrinks");
        // A shed below threshold still breaks the idle streak.
        let mut auto2 = Autoscaler::new(cfg, 0);
        assert_eq!(auto2.poll(10, &counter, 4), None);
        shed_some(&counter, 1);
        assert_eq!(auto2.poll(20, &counter, 4), None, "window had sheds");
        assert_eq!(auto2.poll(30, &counter, 4), None, "streak restarted");
        assert_eq!(auto2.poll(40, &counter, 4), Some(ScaleAction::In));
    }

    #[test]
    fn skipped_boundaries_stay_phase_locked() {
        let counter = ShedCounter::new();
        let cfg = AutoscaleConfig {
            window: 10,
            ..AutoscaleConfig::default()
        };
        let mut auto = Autoscaler::new(cfg, 0);
        let _ = auto.poll(35, &counter, 2);
        // Next boundary is 40, not 45.
        assert_eq!(auto.boundary, 40);
    }
}
