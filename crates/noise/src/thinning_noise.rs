//! Noisy thinning — the paper's concluding open direction.
//!
//! The conclusions of the paper name `Mean-Thinning` and the
//! `(1+β)`-process as natural next targets for noisy-information analysis.
//! This module provides the noisy `Mean-Thinning` process so that those
//! experiments can be run today: the accept/forward decision ("is this
//! bin's load below the average?") is made on a *perturbed* load value.

use balloc_core::{LoadState, Process, Rng};

/// How the first sample's load is perturbed before the threshold test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdNoise {
    /// Gaussian perturbation with the given standard deviation (the
    /// `σ-Noisy-Load` model applied to the threshold query).
    Gaussian(f64),
    /// Adversarial ±g perturbation that always pushes toward the wrong
    /// side of the threshold (the `g-Adv-Load` model).
    Adversarial(u64),
}

/// `Mean-Thinning` with a noisy threshold query: sample a bin, accept it
/// if its *reported* load is below the current average, otherwise place
/// the ball in a fresh uniform sample.
///
/// With zero noise this is exactly
/// `MeanThinning` (in `balloc-processes`).
///
/// # Examples
///
/// ```
/// use balloc_core::{LoadState, Process, Rng};
/// use balloc_noise::{NoisyMeanThinning, ThresholdNoise};
///
/// let n = 500;
/// let mut process = NoisyMeanThinning::new(ThresholdNoise::Gaussian(2.0));
/// let mut state = LoadState::new(n);
/// let mut rng = Rng::from_seed(3);
/// process.run(&mut state, 10 * n as u64, &mut rng);
/// assert_eq!(state.balls(), 10 * n as u64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoisyMeanThinning {
    noise: ThresholdNoise,
}

impl NoisyMeanThinning {
    /// Creates the noisy mean-thinning process.
    ///
    /// # Panics
    ///
    /// Panics if a Gaussian noise scale is negative or not finite.
    #[must_use]
    pub fn new(noise: ThresholdNoise) -> Self {
        if let ThresholdNoise::Gaussian(sigma) = noise {
            assert!(
                sigma.is_finite() && sigma >= 0.0,
                "sigma must be finite and non-negative"
            );
        }
        Self { noise }
    }

    /// The threshold-noise model.
    #[must_use]
    pub fn noise(&self) -> ThresholdNoise {
        self.noise
    }

    /// The load value the threshold test sees for bin `i`.
    #[inline]
    fn reported_load(&self, state: &LoadState, i: usize, rng: &mut Rng) -> f64 {
        let x = state.load(i) as f64;
        match self.noise {
            ThresholdNoise::Gaussian(sigma) => {
                if sigma == 0.0 {
                    x
                } else {
                    x + rng.gaussian(0.0, sigma)
                }
            }
            ThresholdNoise::Adversarial(g) => {
                // Push toward the wrong side of the threshold: underloaded
                // bins report up, overloaded bins report down.
                let avg = state.average();
                if x < avg {
                    x + g as f64
                } else {
                    x - g as f64
                }
            }
        }
    }
}

impl Process for NoisyMeanThinning {
    #[inline]
    fn allocate(&mut self, state: &mut LoadState, rng: &mut Rng) -> usize {
        let n = state.n();
        let i1 = rng.below_usize(n);
        let reported = self.reported_load(state, i1, rng);
        let chosen = if reported < state.average() {
            i1
        } else {
            rng.below_usize(n)
        };
        state.allocate(chosen);
        chosen
    }

    // `run_batch` stays on the per-ball default: the noisy threshold test
    // draws per ball and reads the running average, leaving nothing for
    // the batched engine to defer profitably (see docs/PERFORMANCE.md).
}

#[cfg(test)]
mod tests {
    use super::*;
    use balloc_processes::{MeanThinning, OneChoice};

    #[test]
    fn zero_gaussian_noise_matches_mean_thinning_stream() {
        let n = 64;
        let m = 4_000;
        let mut a = LoadState::new(n);
        let mut b = LoadState::new(n);
        let mut rng_a = Rng::from_seed(21);
        let mut rng_b = Rng::from_seed(21);
        NoisyMeanThinning::new(ThresholdNoise::Gaussian(0.0)).run(&mut a, m, &mut rng_a);
        MeanThinning::new().run(&mut b, m, &mut rng_b);
        assert_eq!(a.loads(), b.loads());
    }

    #[test]
    fn small_noise_still_beats_one_choice() {
        let n = 2_000;
        let m = 50 * n as u64;
        let mut noisy = LoadState::new(n);
        let mut rng = Rng::from_seed(31);
        NoisyMeanThinning::new(ThresholdNoise::Gaussian(1.0)).run(&mut noisy, m, &mut rng);

        let mut one = LoadState::new(n);
        let mut rng = Rng::from_seed(31);
        OneChoice::new().run(&mut one, m, &mut rng);

        assert!(
            noisy.gap() < one.gap(),
            "noisy mean-thinning {} should beat one-choice {}",
            noisy.gap(),
            one.gap()
        );
    }

    #[test]
    fn gap_degrades_gracefully_with_sigma() {
        let n = 1_000;
        let m = 50 * n as u64;
        let gap_for = |sigma: f64| {
            let mut state = LoadState::new(n);
            let mut rng = Rng::from_seed(41);
            NoisyMeanThinning::new(ThresholdNoise::Gaussian(sigma)).run(&mut state, m, &mut rng);
            state.gap()
        };
        let g0 = gap_for(0.0);
        let g4 = gap_for(4.0);
        let g16 = gap_for(16.0);
        assert!(
            g4 >= g0 - 1.0,
            "σ=4 should not beat noiseless: {g0} vs {g4}"
        );
        assert!(g16 >= g4 - 1.0, "σ=16 should not beat σ=4: {g4} vs {g16}");
    }

    #[test]
    fn adversarial_threshold_with_huge_g_is_worst_case() {
        // With g larger than any |y|, every threshold answer is wrong:
        // overloaded bins are accepted, underloaded are skipped. The gap
        // must be far worse than noiseless mean-thinning (though the
        // second-sample fallback keeps it One-Choice-like, not unbounded).
        let n = 1_000;
        let m = 50 * n as u64;
        let mut adv = LoadState::new(n);
        let mut rng = Rng::from_seed(51);
        NoisyMeanThinning::new(ThresholdNoise::Adversarial(1_000_000)).run(&mut adv, m, &mut rng);

        let mut clean = LoadState::new(n);
        let mut rng = Rng::from_seed(51);
        MeanThinning::new().run(&mut clean, m, &mut rng);

        assert!(
            adv.gap() > 2.0 * clean.gap(),
            "fully-adversarial threshold {} should dwarf noiseless {}",
            adv.gap(),
            clean.gap()
        );
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn negative_sigma_rejected() {
        let _ = NoisyMeanThinning::new(ThresholdNoise::Gaussian(-1.0));
    }
}
