//! Initial load-vector builders for recovery experiments.
//!
//! The paper's upper-bound proofs split into a *recovery* phase (from an
//! arbitrary bad configuration back to small potential) and a
//! *stabilization* phase (staying small) — see Fig. 5.3. To study recovery
//! empirically one needs to **start** a run from a corrupted load vector;
//! this module builds the standard corrupted shapes.

use balloc_core::{LoadState, Rng};

/// A single overloaded "tower": one bin holds `base + extra` balls, every
/// other bin holds `base`.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// use balloc_sim::initial::tower;
/// let state = tower(4, 10, 12);
/// assert_eq!(state.max_load(), 22);
/// assert_eq!(state.min_load(), 10);
/// ```
#[must_use]
pub fn tower(n: usize, base: u64, extra: u64) -> LoadState {
    assert!(n > 0, "number of bins must be positive");
    let mut loads = vec![base; n];
    loads[0] = base + extra;
    LoadState::from_loads(loads)
}

/// A linear ramp: bin `i` holds `⌊i·slope⌋ + base` balls — a maximally
/// spread configuration with gap ≈ `n·slope/2`.
///
/// # Panics
///
/// Panics if `n == 0` or `slope` is negative or not finite.
#[must_use]
pub fn ramp(n: usize, base: u64, slope: f64) -> LoadState {
    assert!(n > 0, "number of bins must be positive");
    assert!(
        slope >= 0.0 && slope.is_finite(),
        "slope must be finite and non-negative"
    );
    let loads = (0..n)
        .map(|i| base + (i as f64 * slope).floor() as u64)
        .collect();
    LoadState::from_loads(loads)
}

/// A two-level "cliff": the first `k` bins hold `high`, the rest `low`.
///
/// # Panics
///
/// Panics if `n == 0`, `k > n`, or `high < low`.
#[must_use]
pub fn cliff(n: usize, k: usize, high: u64, low: u64) -> LoadState {
    assert!(n > 0, "number of bins must be positive");
    assert!(k <= n, "k must not exceed n");
    assert!(high >= low, "high level must not be below low level");
    let loads = (0..n).map(|i| if i < k { high } else { low }).collect();
    LoadState::from_loads(loads)
}

/// The load vector left behind by `One-Choice` after `m` balls — the
/// paper's canonical "bad but natural" configuration (it is what a batch
/// of size `m` produces, Observation 11.6).
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn one_choice_start(n: usize, m: u64, seed: u64) -> LoadState {
    assert!(n > 0, "number of bins must be positive");
    let mut state = LoadState::new(n);
    let mut rng = Rng::from_seed(seed);
    for _ in 0..m {
        let i = rng.below_usize(n);
        state.allocate(i);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tower_shape() {
        let s = tower(10, 5, 100);
        assert_eq!(s.balls(), 10 * 5 + 100);
        assert_eq!(s.spread(), 100);
        assert!(s.gap() > 89.0);
    }

    #[test]
    fn ramp_is_monotone() {
        let s = ramp(8, 2, 1.5);
        let loads = s.loads();
        for w in loads.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(s.min_load(), 2);
    }

    #[test]
    fn cliff_has_two_levels() {
        let s = cliff(6, 2, 9, 3);
        assert_eq!(s.load_histogram().len(), 2);
        assert_eq!(s.load_histogram()[&9], 2);
        assert_eq!(s.load_histogram()[&3], 4);
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn cliff_validates_k() {
        let _ = cliff(4, 5, 2, 1);
    }

    #[test]
    fn one_choice_start_is_reproducible() {
        let a = one_choice_start(50, 5_000, 7);
        let b = one_choice_start(50, 5_000, 7);
        assert_eq!(a, b);
        assert_eq!(a.balls(), 5_000);
        // One-Choice spread: should have a real gap.
        assert!(a.gap() > 5.0);
    }
}
