//! Experiment configuration.

use serde::Serialize;

/// The configuration of a single simulation run: `m` balls into `n` bins,
/// driven by the deterministic stream of `seed`.
///
/// # Examples
///
/// ```
/// use balloc_sim::RunConfig;
///
/// let config = RunConfig::new(1_000, 50_000, 7);
/// assert_eq!(config.n, 1_000);
/// assert_eq!(config.m, 50_000);
/// // Paper-style configuration: m as a multiple of n.
/// let paper = RunConfig::per_bin(1_000, 1_000, 7);
/// assert_eq!(paper.m, 1_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct RunConfig {
    /// Number of bins.
    pub n: usize,
    /// Number of balls.
    pub m: u64,
    /// Master seed for this run.
    pub seed: u64,
}

impl RunConfig {
    /// Creates a run configuration.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize, m: u64, seed: u64) -> Self {
        assert!(n > 0, "number of bins must be positive");
        Self { n, m, seed }
    }

    /// Creates a configuration with `m = balls_per_bin · n` (the paper
    /// reports experiments at `m = 1000·n`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn per_bin(n: usize, balls_per_bin: u64, seed: u64) -> Self {
        Self::new(n, balls_per_bin * n as u64, seed)
    }

    /// Returns a copy with a different seed (used to derive per-run
    /// configurations from a base).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Generates checkpoint steps for gap traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checkpoints {
    /// No intermediate checkpoints: record only the final state.
    None,
    /// `k` evenly spaced checkpoints (plus the final step).
    Linear(u32),
    /// Geometrically spaced checkpoints with the given integer factor
    /// (1, f, f², … up to m, plus the final step).
    Geometric(u32),
}

impl Checkpoints {
    /// The sorted list of steps (⩽ `m`) at which to record the gap.
    ///
    /// Always ends with `m` itself (when `m > 0`).
    ///
    /// # Examples
    ///
    /// ```
    /// use balloc_sim::Checkpoints;
    /// assert_eq!(Checkpoints::None.steps(100), vec![100]);
    /// assert_eq!(Checkpoints::Linear(4).steps(100), vec![25, 50, 75, 100]);
    /// assert_eq!(Checkpoints::Geometric(10).steps(1000), vec![1, 10, 100, 1000]);
    /// ```
    #[must_use]
    pub fn steps(self, m: u64) -> Vec<u64> {
        if m == 0 {
            return Vec::new();
        }
        let mut steps = match self {
            Checkpoints::None => Vec::new(),
            Checkpoints::Linear(k) => {
                let k = u64::from(k.max(1));
                // With k > m the early grid points truncate to step 0, which
                // would record a meaningless (0, 0.0) trace entry.
                (1..=k).map(|i| i * m / k).filter(|&s| s > 0).collect()
            }
            Checkpoints::Geometric(f) => {
                let f = u64::from(f.max(2));
                let mut v = Vec::new();
                let mut s = 1u64;
                while s < m {
                    v.push(s);
                    match s.checked_mul(f) {
                        Some(next) => s = next,
                        None => break,
                    }
                }
                v
            }
        };
        if steps.last() != Some(&m) {
            steps.push(m);
        }
        steps.sort_unstable();
        steps.dedup();
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bins_rejected() {
        let _ = RunConfig::new(0, 10, 1);
    }

    #[test]
    fn per_bin_multiplies() {
        let c = RunConfig::per_bin(100, 1000, 3);
        assert_eq!(c.m, 100_000);
        assert_eq!(c.seed, 3);
    }

    #[test]
    fn with_seed_only_changes_seed() {
        let c = RunConfig::new(10, 20, 1).with_seed(9);
        assert_eq!((c.n, c.m, c.seed), (10, 20, 9));
    }

    #[test]
    fn linear_checkpoints_cover_m() {
        let s = Checkpoints::Linear(3).steps(10);
        assert_eq!(s, vec![3, 6, 10]);
    }

    #[test]
    fn geometric_checkpoints_deduplicate() {
        let s = Checkpoints::Geometric(2).steps(8);
        assert_eq!(s, vec![1, 2, 4, 8]);
    }

    #[test]
    fn zero_m_has_no_checkpoints() {
        assert!(Checkpoints::Linear(5).steps(0).is_empty());
    }

    #[test]
    fn linear_more_checkpoints_than_steps_skips_step_zero() {
        // Regression: Linear(5).steps(2) used to truncate i*m/k to 0 and
        // emit a spurious step-0 checkpoint.
        assert_eq!(Checkpoints::Linear(5).steps(2), vec![1, 2]);
        assert_eq!(Checkpoints::Linear(100).steps(3), vec![1, 2, 3]);
    }

    #[test]
    fn linear_exactly_m_checkpoints_hits_every_step() {
        assert_eq!(Checkpoints::Linear(4).steps(4), vec![1, 2, 3, 4]);
    }

    #[test]
    fn single_step_run_has_single_checkpoint() {
        for cp in [
            Checkpoints::None,
            Checkpoints::Linear(1),
            Checkpoints::Linear(7),
            Checkpoints::Geometric(2),
        ] {
            assert_eq!(cp.steps(1), vec![1], "{cp:?}");
        }
    }

    #[test]
    fn no_checkpoint_at_step_zero() {
        for k in [1u32, 2, 3, 5, 17, 1000] {
            for m in [1u64, 2, 3, 10, 99] {
                let steps = Checkpoints::Linear(k).steps(m);
                assert!(!steps.contains(&0), "Linear({k}).steps({m}) = {steps:?}");
                assert_eq!(*steps.last().unwrap(), m);
            }
        }
    }

    #[test]
    fn checkpoints_always_end_at_m() {
        for cp in [
            Checkpoints::None,
            Checkpoints::Linear(7),
            Checkpoints::Geometric(3),
        ] {
            let s = cp.steps(1234);
            assert_eq!(*s.last().unwrap(), 1234);
        }
    }

    #[test]
    fn config_serializes_roundtrip() {
        let c = RunConfig::new(5, 10, 42);
        let json = serde_json::to_string(&c).unwrap();
        let back = serde_json::from_str(&json).unwrap();
        assert_eq!(back.get("n"), &Value::UInt(5));
        assert_eq!(back.get("m"), &Value::UInt(10));
        assert_eq!(back.get("seed"), &Value::UInt(42));
    }
}
