//! A budgeted retry layer — tower-retry with Finagle-style retry
//! budgets, synchronously.
//!
//! Naive retry policies turn partial outages into total ones: when a
//! backend browns out, every client retrying `k` times multiplies the
//! offered load by `k + 1` exactly when capacity is scarcest. The classic
//! fix is a *retry budget* (a token bucket): every initial request
//! deposits a fraction of a token, every retry withdraws a whole one, so
//! sustained retry volume is capped at a fixed percentage of fresh
//! traffic while short fault bursts still get retried promptly.
//!
//! [`Retry`] retries only the transient error class —
//! [`ServeError::Faulted`] and [`ServeError::TimedOut`] (see
//! [`retryable`]) — never pressure rejections ([`AtCapacity`],
//! [`RateLimited`]), which would amplify exactly the overload that
//! produced them, and never [`Broken`]: an open circuit breaker is a
//! *decision* not to send traffic, and retrying around it would defeat
//! the breaker.
//!
//! [`AtCapacity`]: ServeError::AtCapacity
//! [`RateLimited`]: ServeError::RateLimited
//! [`Broken`]: ServeError::Broken

use std::cell::Cell;
use std::rc::Rc;

use crate::service::{ServeError, Service};
use crate::stats::{bump, LayerStats};

/// Whether an error is worth retrying: transient backend failures only.
#[must_use]
pub fn retryable(error: ServeError) -> bool {
    matches!(error, ServeError::Faulted | ServeError::TimedOut)
}

/// Configuration of a [`Retry`] layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Maximum retries per request (attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// Token-bucket capacity of the shared [`RetryBudget`], in
    /// hundredths of a token (the bucket's fixed-point unit).
    pub budget_cap: u64,
    /// Hundredths of a token deposited per initial request.
    pub budget_deposit: u64,
    /// Hundredths of a token withdrawn per retry. The sustained
    /// retry-to-fresh ratio is `budget_deposit / budget_withdraw`.
    pub budget_withdraw: u64,
}

impl Default for RetryConfig {
    /// Up to 2 retries, sustained retry volume capped at 10% of fresh
    /// traffic (`deposit 10 / withdraw 100`), burst headroom of 10
    /// retries (`cap 1000`).
    fn default() -> Self {
        Self {
            max_retries: 2,
            budget_cap: 1_000,
            budget_deposit: 10,
            budget_withdraw: 100,
        }
    }
}

impl RetryConfig {
    /// Asserts the configuration is usable.
    ///
    /// # Panics
    ///
    /// Panics if the cap or withdraw cost is zero (a zero-capacity or
    /// free-withdrawal bucket is a misconfiguration, not a policy).
    pub fn validate(&self) {
        assert!(self.budget_cap > 0, "retry budget cap must be positive");
        assert!(
            self.budget_withdraw > 0,
            "retry budget withdraw cost must be positive"
        );
    }
}

/// The shared token bucket bounding a fleet's sustained retry ratio
/// (cloned into every worker's [`Retry`] layer).
#[derive(Debug, Clone)]
pub struct RetryBudget {
    tokens: Rc<Cell<u64>>,
    cap: u64,
    deposit: u64,
    withdraw: u64,
}

impl RetryBudget {
    /// A bucket from the budget parameters of `cfg`, starting full (a
    /// cold fleet may retry its first faults immediately).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`RetryConfig::validate`]).
    #[must_use]
    pub fn new(cfg: &RetryConfig) -> Self {
        cfg.validate();
        Self {
            tokens: Rc::new(Cell::new(cfg.budget_cap)),
            cap: cfg.budget_cap,
            deposit: cfg.budget_deposit,
            withdraw: cfg.budget_withdraw,
        }
    }

    /// Current bucket level, in hundredths of a token.
    #[must_use]
    pub fn tokens(&self) -> u64 {
        self.tokens.get()
    }

    /// Credits one initial request.
    fn deposit(&self) {
        self.tokens
            .set((self.tokens.get() + self.deposit).min(self.cap));
    }

    /// Tries to pay for one retry.
    fn withdraw(&self) -> bool {
        let Some(left) = self.tokens.get().checked_sub(self.withdraw) else {
            return false;
        };
        self.tokens.set(left);
        true
    }
}

/// A [`Service`] retrying transient inner failures under a shared budget.
#[derive(Debug, Clone)]
pub struct Retry<S> {
    inner: S,
    max_retries: u32,
    budget: RetryBudget,
    stats: Rc<LayerStats>,
}

impl<S> Retry<S> {
    /// Wraps `inner` with the retry policy of `cfg`, drawing from the
    /// shared `budget` and counting into `stats`.
    #[must_use]
    pub fn new(inner: S, cfg: &RetryConfig, budget: RetryBudget, stats: Rc<LayerStats>) -> Self {
        Self {
            inner,
            max_retries: cfg.max_retries,
            budget,
            stats,
        }
    }

    /// Unwraps the middleware, returning the inner service.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<Req: Clone, S: Service<Req>> Service<Req> for Retry<S> {
    type Response = S::Response;

    fn call(&mut self, req: Req) -> Result<Self::Response, ServeError> {
        self.budget.deposit();
        let mut attempt = 0u32;
        loop {
            match self.inner.call(req.clone()) {
                Err(e) if retryable(e) && attempt < self.max_retries => {
                    if self.budget.withdraw() {
                        attempt += 1;
                        bump(&self.stats.retries);
                    } else {
                        bump(&self.stats.retries_exhausted);
                        return Err(e);
                    }
                }
                other => return other,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails the first `failures` calls with `error`, then echoes.
    struct FailsThen {
        failures: u32,
        seen: u32,
        error: ServeError,
    }

    impl Service<u32> for FailsThen {
        type Response = u32;
        fn call(&mut self, req: u32) -> Result<u32, ServeError> {
            self.seen += 1;
            if self.seen <= self.failures {
                Err(self.error)
            } else {
                Ok(req)
            }
        }
    }

    fn roomy() -> RetryConfig {
        RetryConfig {
            max_retries: 3,
            budget_cap: 10_000,
            budget_deposit: 100,
            budget_withdraw: 100,
        }
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        for error in [ServeError::Faulted, ServeError::TimedOut] {
            let cfg = roomy();
            let stats = LayerStats::new();
            let mut svc = Retry::new(
                FailsThen {
                    failures: 2,
                    seen: 0,
                    error,
                },
                &cfg,
                RetryBudget::new(&cfg),
                stats.clone(),
            );
            assert_eq!(svc.call(5), Ok(5), "{error:?}");
            assert_eq!(stats.retries.get(), 2);
            assert_eq!(stats.retries_exhausted.get(), 0);
        }
    }

    #[test]
    fn max_retries_bounds_attempts() {
        let cfg = roomy();
        let stats = LayerStats::new();
        let mut svc = Retry::new(
            FailsThen {
                failures: u32::MAX,
                seen: 0,
                error: ServeError::Faulted,
            },
            &cfg,
            RetryBudget::new(&cfg),
            stats.clone(),
        );
        assert_eq!(svc.call(1), Err(ServeError::Faulted));
        assert_eq!(
            stats.retries.get(),
            3,
            "max_retries attempts after the first"
        );
    }

    #[test]
    fn non_retryable_errors_pass_straight_through() {
        for error in [
            ServeError::AtCapacity,
            ServeError::RateLimited,
            ServeError::Broken,
            ServeError::Shed,
        ] {
            let cfg = roomy();
            let stats = LayerStats::new();
            let mut svc = Retry::new(
                FailsThen {
                    failures: 1,
                    seen: 0,
                    error,
                },
                &cfg,
                RetryBudget::new(&cfg),
                stats.clone(),
            );
            assert_eq!(svc.call(1), Err(error));
            assert_eq!(stats.retries.get(), 0, "{error:?} must not be retried");
        }
    }

    #[test]
    fn empty_budget_stops_retries() {
        // Withdraw costs the whole cap: the first retry drains the
        // bucket, later faults surface unretried until deposits refill it.
        let cfg = RetryConfig {
            max_retries: 5,
            budget_cap: 100,
            budget_deposit: 1,
            budget_withdraw: 100,
        };
        let budget = RetryBudget::new(&cfg);
        let stats = LayerStats::new();
        let mut svc = Retry::new(
            FailsThen {
                failures: u32::MAX,
                seen: 0,
                error: ServeError::Faulted,
            },
            &cfg,
            budget.clone(),
            stats.clone(),
        );
        assert_eq!(svc.call(1), Err(ServeError::Faulted));
        assert_eq!(stats.retries.get(), 1, "the full bucket paid for one retry");
        assert_eq!(stats.retries_exhausted.get(), 1);
        let before = stats.retries.get();
        for i in 0..50 {
            assert_eq!(svc.call(i), Err(ServeError::Faulted));
        }
        // 50 deposits at 1 refill half a withdrawal — no retry yet...
        assert_eq!(
            stats.retries.get(),
            before,
            "deposits have not covered a retry"
        );
        for i in 0..60 {
            assert_eq!(svc.call(i), Err(ServeError::Faulted));
        }
        // ...but ~110 deposits cover one more.
        assert!(
            stats.retries.get() > before,
            "deposits must eventually re-arm retries"
        );
    }

    #[test]
    fn budget_is_shared_across_cloned_services() {
        let cfg = RetryConfig {
            max_retries: 1,
            budget_cap: 100,
            budget_deposit: 0,
            budget_withdraw: 100,
        };
        let budget = RetryBudget::new(&cfg);
        let stats = LayerStats::new();
        let failing = || FailsThen {
            failures: u32::MAX,
            seen: 0,
            error: ServeError::Faulted,
        };
        let mut a = Retry::new(failing(), &cfg, budget.clone(), stats.clone());
        let mut b = Retry::new(failing(), &cfg, budget.clone(), stats.clone());
        let _ = a.call(1);
        let _ = b.call(1);
        assert_eq!(
            stats.retries.get(),
            1,
            "one bucket, one paid retry across clones"
        );
        assert_eq!(budget.tokens(), 0);
    }

    #[test]
    fn into_inner_round_trips() {
        let cfg = roomy();
        let svc = Retry::new(
            FailsThen {
                failures: 0,
                seen: 0,
                error: ServeError::Faulted,
            },
            &cfg,
            RetryBudget::new(&cfg),
            LayerStats::new(),
        );
        let mut inner = svc.into_inner();
        assert_eq!(inner.call(4), Ok(4));
    }

    #[test]
    #[should_panic(expected = "withdraw cost must be positive")]
    fn free_withdrawal_rejected() {
        let cfg = RetryConfig {
            budget_withdraw: 0,
            ..RetryConfig::default()
        };
        let _ = RetryBudget::new(&cfg);
    }
}
