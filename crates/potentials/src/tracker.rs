//! Recording potential trajectories during a run.

use balloc_core::{LoadState, Process, Rng};

use crate::functions::Potential;

/// Records the value of a potential at fixed step intervals while a process
/// runs.
///
/// # Examples
///
/// ```
/// use balloc_core::{LoadState, Rng, TwoChoice};
/// use balloc_potentials::{PotentialTracker, Quadratic};
///
/// let n = 100;
/// let mut tracker = PotentialTracker::new(Quadratic::new(), 50);
/// let mut state = LoadState::new(n);
/// let mut rng = Rng::from_seed(12);
/// tracker.run(&mut TwoChoice::classic(), &mut state, 1_000, &mut rng);
/// let samples = tracker.samples();
/// assert_eq!(samples.len(), 21); // t = 0, 50, 100, …, 1000
/// assert_eq!(samples[0].0, 0);
/// assert_eq!(samples.last().unwrap().0, 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct PotentialTracker<P> {
    potential: P,
    every: u64,
    samples: Vec<(u64, f64)>,
}

impl<P: Potential> PotentialTracker<P> {
    /// Creates a tracker sampling every `every` allocations (including step
    /// 0 and the final step).
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    #[must_use]
    pub fn new(potential: P, every: u64) -> Self {
        assert!(every > 0, "sampling interval must be positive");
        Self {
            potential,
            every,
            samples: Vec::new(),
        }
    }

    /// The tracked potential.
    #[must_use]
    pub fn potential(&self) -> &P {
        &self.potential
    }

    /// The recorded `(step, value)` samples.
    #[must_use]
    pub fn samples(&self) -> &[(u64, f64)] {
        &self.samples
    }

    /// Clears recorded samples.
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// Runs `process` for `steps` allocations, recording the potential at
    /// every sampling point (plus the initial and final states).
    pub fn run<Q: Process>(
        &mut self,
        process: &mut Q,
        state: &mut LoadState,
        steps: u64,
        rng: &mut Rng,
    ) {
        self.samples
            .push((state.balls(), self.potential.value(state)));
        for s in 1..=steps {
            process.allocate(state, rng);
            if s % self.every == 0 || s == steps {
                self.samples
                    .push((state.balls(), self.potential.value(state)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::{AbsoluteValue, HyperbolicCosine};
    use balloc_core::TwoChoice;

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = PotentialTracker::new(AbsoluteValue::new(), 0);
    }

    #[test]
    fn records_expected_number_of_samples() {
        let mut tracker = PotentialTracker::new(AbsoluteValue::new(), 10);
        let mut state = LoadState::new(8);
        let mut rng = Rng::from_seed(0);
        tracker.run(&mut TwoChoice::classic(), &mut state, 95, &mut rng);
        // t = 0, 10, …, 90, 95 → 11 + final.
        assert_eq!(tracker.samples().len(), 11);
        assert_eq!(tracker.samples()[0], (0, 0.0));
        assert_eq!(tracker.samples().last().unwrap().0, 95);
    }

    #[test]
    fn hyperbolic_cosine_stays_bounded_for_two_choice() {
        // Two-Choice keeps Γ = O(n): check the trajectory never explodes.
        let n = 256;
        let gamma = HyperbolicCosine::new(0.5);
        let mut tracker = PotentialTracker::new(gamma, (n as u64) * 4);
        let mut state = LoadState::new(n);
        let mut rng = Rng::from_seed(7);
        tracker.run(
            &mut TwoChoice::classic(),
            &mut state,
            40 * n as u64,
            &mut rng,
        );
        for &(t, v) in tracker.samples() {
            assert!(v < 40.0 * n as f64, "Γ exploded at step {t}: {v}");
        }
    }

    #[test]
    fn clear_resets_samples() {
        let mut tracker = PotentialTracker::new(AbsoluteValue::new(), 5);
        let mut state = LoadState::new(4);
        let mut rng = Rng::from_seed(1);
        tracker.run(&mut TwoChoice::classic(), &mut state, 20, &mut rng);
        assert!(!tracker.samples().is_empty());
        tracker.clear();
        assert!(tracker.samples().is_empty());
    }
}
