//! The `One-Choice` process.

use balloc_core::{LoadState, Process, Rng};

/// `One-Choice`: each ball is placed in a single bin chosen independently
/// and uniformly at random.
///
/// Classic facts (Appendix A.2 of the paper) reproduced by the test-suite:
/// for `m = n` the maximum load is `Θ(log n / log log n)` w.h.p., and for
/// `m ⩾ n log n` the gap is `Θ(√((m/n)·log n))` w.h.p.
///
/// # Examples
///
/// ```
/// use balloc_core::{LoadState, Process, Rng};
/// use balloc_processes::OneChoice;
///
/// let mut state = LoadState::new(100);
/// let mut rng = Rng::from_seed(4);
/// OneChoice::new().run(&mut state, 100, &mut rng);
/// assert_eq!(state.balls(), 100);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OneChoice;

impl OneChoice {
    /// Creates the `One-Choice` process.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Process for OneChoice {
    #[inline]
    fn allocate(&mut self, state: &mut LoadState, rng: &mut Rng) -> usize {
        let i = rng.below_usize(state.n());
        state.allocate(i);
        i
    }

    /// Batched engine: `One-Choice` never reads the state, so long runs
    /// simply defer aggregate maintenance to one repair scan at the end.
    fn run_batch(&mut self, state: &mut LoadState, steps: u64, rng: &mut Rng) {
        let bound = state.n() as u64;
        if steps < bound {
            for _ in 0..steps {
                self.allocate(state, rng);
            }
            return;
        }
        let mut batch = state.batch();
        for _ in 0..steps {
            batch.place(rng.below(bound) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_one_ball_per_step() {
        let mut state = LoadState::new(7);
        let mut rng = Rng::from_seed(1);
        let mut p = OneChoice::new();
        for t in 1..=100 {
            p.allocate(&mut state, &mut rng);
            assert_eq!(state.balls(), t);
        }
    }

    #[test]
    fn covers_all_bins_eventually() {
        let n = 16;
        let mut state = LoadState::new(n);
        let mut rng = Rng::from_seed(2);
        // Coupon collector: n ln n ≈ 44; use a large multiple.
        OneChoice::new().run(&mut state, 500, &mut rng);
        assert!(state.min_load() > 0, "every bin should receive a ball");
    }

    #[test]
    fn one_choice_max_load_matches_theory_at_m_equals_n() {
        // For m = n = 10^4: E[max] ≈ ln n / ln ln n ≈ 4.1; w.h.p. below ~11
        // (Corollary A.6 gives 11 ln n / ln ln n as a generous bound).
        let n = 10_000;
        let mut state = LoadState::new(n);
        let mut rng = Rng::from_seed(99);
        OneChoice::new().run(&mut state, n as u64, &mut rng);
        let max = state.max_load();
        assert!((3..=12).contains(&max), "max load {max} outside range");
    }

    #[test]
    fn heavily_loaded_gap_grows_like_sqrt() {
        // Gap(m) ≈ √((m/n)·ln n): for n=1000, m=100n → √(100·6.9) ≈ 26.
        // Accept a broad band; the point is that the gap is large, unlike
        // Two-Choice.
        let n = 1000;
        let mut state = LoadState::new(n);
        let mut rng = Rng::from_seed(5);
        OneChoice::new().run(&mut state, 100 * n as u64, &mut rng);
        let gap = state.gap();
        assert!(gap > 10.0, "one-choice gap {gap} unexpectedly small");
        assert!(gap < 60.0, "one-choice gap {gap} unexpectedly large");
    }
}
