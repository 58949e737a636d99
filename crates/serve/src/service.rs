//! The request/response vocabulary and the `Service`/`Layer` traits.
//!
//! The shape deliberately mirrors tower's (`tower-service`,
//! `tower-layer`): a [`Service`] is anything that turns a request into a
//! response or a typed rejection, and a [`Layer`] wraps one service in
//! another to add behavior — buffering, concurrency limits, load
//! shedding — without the inner service knowing. Because this workspace is
//! synchronous, `call` blocks instead of returning a future; everything
//! else (generic middleware, handle cloning, rejection as a first-class
//! outcome) carries over.

use balloc_core::Rng;

/// How an allocation request wants its load information read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseMode {
    /// Compare snapshot loads exactly. Staleness (the `b-Batch`/`τ-Delay`
    /// refresh policy of the serving worker) is then the *only* noise —
    /// the paper's batched/delayed settings.
    Snapshot,
    /// Additionally perturb each compared load with an independent
    /// `N(0, σ²)` sample before comparing — the paper's `σ-Noisy-Load`
    /// setting (Eq. 2.1) stacked on top of the staleness.
    Noisy {
        /// Standard deviation of the Gaussian perturbation.
        sigma: f64,
    },
}

/// One allocation request: place one ball using `d` uniformly sampled
/// candidate bins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Number of candidate bins to sample (`d = 1` is One-Choice, `d = 2`
    /// the Two-Choice core case).
    pub d: usize,
    /// How loads are read for the comparison.
    pub noise: NoiseMode,
}

impl Request {
    /// A plain Two-Choice request against the snapshot.
    #[must_use]
    pub fn two_choice() -> Self {
        Self {
            d: 2,
            noise: NoiseMode::Snapshot,
        }
    }
}

/// A served allocation decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// The bin the ball was placed in (global bin index).
    pub bin: usize,
}

/// Why a service rejected a request instead of serving it.
///
/// Rejections are part of the contract, not failures: a loaded service
/// *must* be able to say no cheaply (see the load-shed layer), and every
/// variant maps to a counter in the serve engine's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The in-flight limit was reached.
    AtCapacity,
    /// A load-shed layer dropped the request after a lower layer reported
    /// pressure.
    Shed,
    /// The request's deadline expired before the backend completed (the
    /// timeout layer's terminal outcome; the backend applied no side
    /// effect — see [`VClock`](crate::VClock)).
    TimedOut,
    /// A circuit breaker is open and rejected the request without calling
    /// the backend.
    Broken,
    /// A rate-limit layer's token bucket was empty (pressure, like
    /// [`AtCapacity`](Self::AtCapacity): the load-shed layer converts it
    /// into a counted shed).
    RateLimited,
    /// A fault-injected backend failed transiently after doing no work —
    /// the retryable error class.
    Faulted,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::AtCapacity => "in-flight limit reached",
            Self::Shed => "request shed under load",
            Self::TimedOut => "request deadline expired",
            Self::Broken => "circuit breaker open",
            Self::RateLimited => "rate limit exceeded",
            Self::Faulted => "transient backend fault",
        })
    }
}

impl std::error::Error for ServeError {}

/// A synchronous service: turn a request into a response, or reject it
/// with a typed [`ServeError`].
pub trait Service<Req> {
    /// The response type produced for `Req`.
    type Response;

    /// Serves one request.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] when the request is rejected (pressure,
    /// shed, a deadline, an open breaker or a transient fault).
    fn call(&mut self, req: Req) -> Result<Self::Response, ServeError>;
}

/// Boxed services are services: the resilience engine and the
/// conformance harness compose middleware stacks whose shape is chosen
/// at runtime, which requires `Box<dyn Service<…>>` to slot into any
/// generic middleware.
impl<Req, S: Service<Req> + ?Sized> Service<Req> for Box<S> {
    type Response = S::Response;

    fn call(&mut self, req: Req) -> Result<Self::Response, ServeError> {
        (**self).call(req)
    }
}

/// Decorates a [`Service`] with additional behavior (the tower `Layer`
/// idiom): `layer(inner)` returns the wrapped service.
pub trait Layer<S> {
    /// The middleware-wrapped service type.
    type Service;

    /// Wraps `inner`.
    fn layer(&self, inner: S) -> Self::Service;
}

/// Picks the least-loaded of `d` uniformly sampled bins from a load
/// snapshot — the decision rule every serving worker runs.
///
/// Sampling is **with replacement** (the paper's convention) and ties
/// keep the earlier sample, so the decision is a pure function of the RNG
/// stream and the snapshot — the substrate of the replay determinism
/// contract. Under [`NoiseMode::Noisy`] each compared load is perturbed
/// with an independent Gaussian first (`σ-Noisy-Load`); the perturbed
/// values exist only for the comparison and never enter the snapshot.
///
/// # Panics
///
/// Panics if `d == 0` or the snapshot is empty.
pub fn decide(snapshot: &[u64], req: &Request, rng: &mut Rng) -> usize {
    assert!(req.d > 0, "need at least one candidate bin");
    let n = snapshot.len();
    let mut best = rng.below_usize(n);
    let mut best_load = observed(snapshot, best, req, rng);
    for _ in 1..req.d {
        let candidate = rng.below_usize(n);
        let load = observed(snapshot, candidate, req, rng);
        if load < best_load {
            best = candidate;
            best_load = load;
        }
    }
    best
}

/// The load value the comparison sees for bin `i`.
#[inline]
fn observed(snapshot: &[u64], i: usize, req: &Request, rng: &mut Rng) -> f64 {
    let exact = snapshot[i] as f64;
    match req.noise {
        NoiseMode::Snapshot => exact,
        NoiseMode::Noisy { sigma } => exact + rng.gaussian(0.0, sigma),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_picks_the_less_loaded_candidate() {
        // With d = n·many samples over a two-bin snapshot the argmin must
        // land on the empty bin essentially always.
        let snapshot = [100u64, 0];
        let mut rng = Rng::from_seed(1);
        let req = Request {
            d: 8,
            noise: NoiseMode::Snapshot,
        };
        for _ in 0..50 {
            assert_eq!(decide(&snapshot, &req, &mut rng), 1);
        }
    }

    #[test]
    fn decide_is_deterministic_in_the_rng_stream() {
        let snapshot: Vec<u64> = (0..64).map(|i| (i * 7) % 13).collect();
        let req = Request::two_choice();
        let mut a = Rng::from_seed(42);
        let mut b = Rng::from_seed(42);
        for _ in 0..1_000 {
            assert_eq!(
                decide(&snapshot, &req, &mut a),
                decide(&snapshot, &req, &mut b)
            );
        }
    }

    #[test]
    fn one_choice_ignores_loads() {
        // d = 1 must return the single sample untouched: the stream of a
        // One-Choice worker is exactly one below_usize call per request.
        let snapshot = [5u64, 0, 9];
        let req = Request {
            d: 1,
            noise: NoiseMode::Snapshot,
        };
        let mut rng = Rng::from_seed(3);
        let mut reference = Rng::from_seed(3);
        for _ in 0..200 {
            assert_eq!(decide(&snapshot, &req, &mut rng), reference.below_usize(3));
        }
    }

    #[test]
    fn noisy_mode_flips_some_comparisons() {
        // σ large relative to the load difference ⇒ the noisy comparison
        // sometimes prefers the fuller bin; σ = 0-ish ⇒ never.
        let snapshot = [4u64, 0];
        let mut rng = Rng::from_seed(9);
        let noisy = Request {
            d: 2,
            noise: NoiseMode::Noisy { sigma: 50.0 },
        };
        let mut wrong = 0;
        for _ in 0..2_000 {
            if decide(&snapshot, &noisy, &mut rng) == 0 {
                wrong += 1;
            }
        }
        assert!(wrong > 100, "σ = 50 should flip many comparisons: {wrong}");
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn zero_d_rejected() {
        let mut rng = Rng::from_seed(0);
        let _ = decide(
            &[0, 0],
            &Request {
                d: 0,
                noise: NoiseMode::Snapshot,
            },
            &mut rng,
        );
    }

    #[test]
    fn serve_error_displays() {
        assert_eq!(
            ServeError::AtCapacity.to_string(),
            "in-flight limit reached"
        );
        assert_eq!(ServeError::Shed.to_string(), "request shed under load");
        assert_eq!(ServeError::TimedOut.to_string(), "request deadline expired");
        assert_eq!(ServeError::Broken.to_string(), "circuit breaker open");
        assert_eq!(ServeError::RateLimited.to_string(), "rate limit exceeded");
        assert_eq!(ServeError::Faulted.to_string(), "transient backend fault");
    }

    #[test]
    fn boxed_services_are_services() {
        struct Echo;
        impl Service<u8> for Echo {
            type Response = u8;
            fn call(&mut self, req: u8) -> Result<u8, ServeError> {
                Ok(req)
            }
        }
        let mut boxed: Box<dyn Service<u8, Response = u8>> = Box::new(Echo);
        assert_eq!(boxed.call(9), Ok(9));
    }
}
