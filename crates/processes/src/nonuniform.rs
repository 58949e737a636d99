//! Two-choice with non-uniform bin sampling.
//!
//! Wieder's setting (discussed in the paper's related work): the two bin
//! samples are drawn from a distribution that is only *close* to uniform —
//! e.g. heterogeneous servers advertised with unequal weights, or an
//! imperfect hash. For `d = 2`, the gap guarantees survive as long as the
//! sampling probabilities are within constant factors of uniform; heavy
//! skew destroys them. Both regimes are exercised by the tests.

use balloc_core::{AliasTable, Decider, LoadState, PerfectDecider, Process, Rng};

/// `Two-Choice` whose two samples are drawn i.i.d. from an arbitrary
/// distribution over bins (via an O(1) alias table).
///
/// # Examples
///
/// ```
/// use balloc_core::{LoadState, Process, Rng};
/// use balloc_processes::NonUniformTwoChoice;
///
/// // Bins sampled with mild (±25%) non-uniformity.
/// let weights: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.25 } else { 0.75 }).collect();
/// let mut process = NonUniformTwoChoice::classic(&weights);
/// let mut state = LoadState::new(100);
/// let mut rng = Rng::from_seed(2);
/// process.run(&mut state, 10_000, &mut rng);
/// assert_eq!(state.balls(), 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct NonUniformTwoChoice<D = PerfectDecider> {
    table: AliasTable,
    decider: D,
}

impl NonUniformTwoChoice<PerfectDecider> {
    /// Non-uniform two-choice with the noise-free comparison.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains negative/non-finite entries,
    /// or sums to zero.
    #[must_use]
    pub fn classic(weights: &[f64]) -> Self {
        Self::with_decider(weights, PerfectDecider::default())
    }
}

impl<D> NonUniformTwoChoice<D> {
    /// Non-uniform two-choice with an arbitrary (possibly noisy) decision
    /// rule.
    ///
    /// # Panics
    ///
    /// Panics on invalid weights (see [`AliasTable::new`]).
    #[must_use]
    pub fn with_decider(weights: &[f64], decider: D) -> Self {
        Self {
            table: AliasTable::new(weights),
            decider,
        }
    }

    /// Number of bins the sampling distribution covers.
    #[must_use]
    pub fn n(&self) -> usize {
        self.table.len()
    }
}

impl<D: Decider> Process for NonUniformTwoChoice<D> {
    #[inline]
    fn allocate(&mut self, state: &mut LoadState, rng: &mut Rng) -> usize {
        debug_assert_eq!(
            state.n(),
            self.table.len(),
            "sampling distribution must cover exactly the bins"
        );
        let i1 = self.table.sample(rng);
        let i2 = self.table.sample(rng);
        let chosen = self.decider.decide(state, i1, i2, rng);
        state.allocate(chosen);
        chosen
    }

    // `run_batch` deliberately stays on the per-ball default: benchmarks
    // showed the deferred-aggregate guard slows the alias-sampling loop
    // down on current hardware (see docs/PERFORMANCE.md).

    fn reset(&mut self) {
        self.decider.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use balloc_core::TwoChoice;

    #[test]
    fn uniform_weights_behave_like_two_choice() {
        let n = 1_000;
        let m = 50 * n as u64;
        let mut a = LoadState::new(n);
        let mut rng = Rng::from_seed(1);
        NonUniformTwoChoice::classic(&vec![1.0; n]).run(&mut a, m, &mut rng);

        let mut b = LoadState::new(n);
        let mut rng = Rng::from_seed(1);
        TwoChoice::classic().run(&mut b, m, &mut rng);

        assert!(
            (a.gap() - b.gap()).abs() < 2.5,
            "uniform alias sampling gap {} vs two-choice {}",
            a.gap(),
            b.gap()
        );
    }

    #[test]
    fn mild_skew_keeps_small_gap() {
        // Wieder: sampling within constant factors of uniform preserves
        // the d-Choice guarantees.
        let n = 1_000;
        let m = 50 * n as u64;
        let weights: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 1.3 } else { 0.7 }).collect();
        let mut state = LoadState::new(n);
        let mut rng = Rng::from_seed(2);
        NonUniformTwoChoice::classic(&weights).run(&mut state, m, &mut rng);
        assert!(
            state.gap() < 10.0,
            "mild skew should keep the gap small: {}",
            state.gap()
        );
    }

    #[test]
    fn heavy_skew_destroys_the_guarantee() {
        // A tiny fraction of bins is almost never sampled: those bins
        // starve, the average keeps rising, and the *underload* side blows
        // up (min-side gap ≈ m/n), while two-choice keeps the overload in
        // check. Compare against the uniform case.
        let n = 500;
        let m = 100 * n as u64;
        let mut weights = vec![1.0; n];
        for w in weights.iter_mut().take(n / 10) {
            *w = 0.001; // 10% of bins nearly invisible
        }
        let mut skewed = LoadState::new(n);
        let mut rng = Rng::from_seed(3);
        NonUniformTwoChoice::classic(&weights).run(&mut skewed, m, &mut rng);

        let mut uniform = LoadState::new(n);
        let mut rng = Rng::from_seed(3);
        NonUniformTwoChoice::classic(&vec![1.0; n]).run(&mut uniform, m, &mut rng);

        assert!(
            skewed.min_side_gap() > 5.0 * uniform.min_side_gap(),
            "starved bins should blow up the min-side gap: {} vs {}",
            skewed.min_side_gap(),
            uniform.min_side_gap()
        );
    }

    #[test]
    fn composes_with_noisy_decider() {
        use balloc_core::TieBreak;
        let n = 256;
        let m = 10 * n as u64;
        let mut state = LoadState::new(n);
        let mut rng = Rng::from_seed(4);
        let decider = balloc_core::PerfectDecider::new(TieBreak::Random);
        NonUniformTwoChoice::with_decider(&vec![1.0; n], decider).run(&mut state, m, &mut rng);
        assert_eq!(state.balls(), m);
    }
}
