//! Parameter sweeps: the building block of the paper's figures.
//!
//! Fig. 12.1 sweeps the noise parameter `g` (or `σ`) and reports the
//! average gap per value; Fig. 12.2 sweeps the batch size `b`. [`sweep`]
//! runs such an experiment — `runs` repetitions per parameter value — and
//! returns one [`SweepPoint`] per value.
//!
//! Scheduling: the whole `params × runs` grid is flattened into **one**
//! task set (via [`repeat_grid`](crate::repeat_grid)), so a 10-point ×
//! 100-repetition figure keeps every worker busy until the last task,
//! instead of parallelizing only within one point at a time.

use balloc_core::rng::point_seed;
use balloc_core::stats::Summary;
use balloc_core::Process;
use serde::Serialize;

use crate::config::RunConfig;
use crate::distribution::GapDistribution;
use crate::runner::{gaps, repeat_grid, RunResult};

/// Aggregated results of all repetitions at a single parameter value.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepPoint {
    /// The swept parameter value (`g`, `σ`, `b`, `τ`, …).
    pub param: f64,
    /// Mean final gap over the repetitions.
    pub mean_gap: f64,
    /// Sample standard deviation of the final gap.
    pub std_dev: f64,
    /// Smallest observed final gap.
    pub min_gap: f64,
    /// Largest observed final gap.
    pub max_gap: f64,
    /// Empirical integer-gap distribution (paper Tables 12.3/12.4 format).
    pub distribution: GapDistribution,
    /// The individual run results.
    pub results: Vec<RunResult>,
}

impl SweepPoint {
    /// Builds a sweep point from raw results.
    ///
    /// # Panics
    ///
    /// Panics if `results` is empty.
    #[must_use]
    pub fn from_results(param: f64, results: Vec<RunResult>) -> Self {
        let summary = Summary::from_values(&gaps(&results));
        Self {
            param,
            mean_gap: summary.mean(),
            std_dev: summary.std_dev(),
            min_gap: summary.min(),
            max_gap: summary.max(),
            distribution: GapDistribution::from_results(&results),
            results,
        }
    }
}

/// Runs `runs` repetitions of the process built by `factory(param)` for
/// every parameter value, returning one aggregated [`SweepPoint`] per
/// value.
///
/// Seeding: parameter index `j` uses master seed
/// [`point_seed(base.seed, j)`](balloc_core::rng::point_seed), and
/// repetitions within a parameter derive their seeds as in
/// [`repeat`](crate::repeat) — everything is reproducible and independent
/// of `threads`, and sweeps run with nearby base seeds share no run seeds.
///
/// The full `params × runs` grid is scheduled as one flattened task set
/// through [`repeat_grid`](crate::repeat_grid).
///
/// # Panics
///
/// Panics if `params` is empty, `runs == 0`, or `threads == 0`.
///
/// # Examples
///
/// ```
/// use balloc_noise::GBounded;
/// use balloc_sim::{sweep, RunConfig};
///
/// let points = sweep(
///     &[0.0, 4.0],
///     |g| GBounded::new(g as u64),
///     RunConfig::new(200, 4_000, 1),
///     4,
///     2,
/// );
/// assert_eq!(points.len(), 2);
/// // More adversarial budget ⇒ larger mean gap.
/// assert!(points[1].mean_gap > points[0].mean_gap);
/// ```
#[must_use]
pub fn sweep<P, F>(
    params: &[f64],
    factory: F,
    base: RunConfig,
    runs: usize,
    threads: usize,
) -> Vec<SweepPoint>
where
    P: Process,
    F: Fn(f64) -> P + Sync,
{
    assert!(!params.is_empty(), "sweep needs at least one parameter");
    let configs: Vec<RunConfig> = (0..params.len())
        .map(|j| base.with_seed(point_seed(base.seed, j as u64)))
        .collect();
    let blocks = repeat_grid(&configs, |j| factory(params[j]), runs, threads);
    params
        .iter()
        .zip(blocks)
        .map(|(&param, results)| SweepPoint::from_results(param, results))
        .collect()
}

/// The `(param, mean_gap)` series of a sweep — the paper's figure lines.
#[must_use]
pub fn series(points: &[SweepPoint]) -> (Vec<f64>, Vec<f64>) {
    (
        points.iter().map(|p| p.param).collect(),
        points.iter().map(|p| p.mean_gap).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::repeat;
    use balloc_core::TwoChoice;

    #[test]
    #[should_panic(expected = "at least one parameter")]
    fn empty_params_rejected() {
        let _ = sweep(&[], |_| TwoChoice::classic(), RunConfig::new(4, 4, 0), 1, 1);
    }

    #[test]
    fn sweep_point_aggregates() {
        let base = RunConfig::new(64, 1_000, 5);
        let results = repeat(TwoChoice::classic, base, 6, 1);
        let point = SweepPoint::from_results(1.0, results.clone());
        assert_eq!(point.results.len(), 6);
        assert!(point.min_gap <= point.mean_gap && point.mean_gap <= point.max_gap);
        assert_eq!(point.distribution.total(), 6);
    }

    #[test]
    fn sweep_is_reproducible_and_thread_independent() {
        let base = RunConfig::new(32, 500, 77);
        let a = sweep(&[1.0, 2.0], |_| TwoChoice::classic(), base, 4, 1);
        let b = sweep(&[1.0, 2.0], |_| TwoChoice::classic(), base, 4, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn different_params_use_different_seeds() {
        let base = RunConfig::new(32, 2_000, 77);
        let points = sweep(&[1.0, 2.0], |_| TwoChoice::classic(), base, 2, 1);
        // Parameter index j shifts the master seed, so the derived per-run
        // seeds differ between sweep points.
        assert_ne!(
            points[0].results[0].config.seed,
            points[1].results[0].config.seed
        );
    }

    #[test]
    fn adjacent_base_seeds_share_no_run_seeds() {
        // Regression for the sweep seed-overlap bug: with per-point masters
        // derived as `base + j`, the sweeps at base seeds 1000 and 1001
        // shared all but one per-point master (and hence whole seed blocks).
        let params = [1.0, 2.0, 3.0, 4.0];
        let base = RunConfig::new(16, 160, 1_000);
        let a = sweep(&params, |_| TwoChoice::classic(), base, 4, 1);
        let b = sweep(
            &params,
            |_| TwoChoice::classic(),
            base.with_seed(1_001),
            4,
            1,
        );
        let seeds = |points: &[SweepPoint]| -> Vec<u64> {
            points
                .iter()
                .flat_map(|p| p.results.iter().map(|r| r.config.seed))
                .collect()
        };
        let (sa, sb) = (seeds(&a), seeds(&b));
        for s in &sa {
            assert!(!sb.contains(s), "run seed {s} appears in both sweeps");
        }
    }

    #[test]
    fn series_extracts_columns() {
        let base = RunConfig::new(16, 160, 1);
        let points = sweep(&[3.0, 9.0], |_| TwoChoice::classic(), base, 2, 1);
        let (xs, ys) = series(&points);
        assert_eq!(xs, vec![3.0, 9.0]);
        assert_eq!(ys.len(), 2);
    }
}
