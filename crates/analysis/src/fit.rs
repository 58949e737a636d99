//! Shape checking: does a measured gap series follow the predicted law?
//!
//! The reproduction criterion for this repository (DESIGN.md) is that the
//! *shape* of each measured series matches the paper — who wins, by what
//! growth law, and where crossovers fall — not the absolute constants.
//! This module provides the verdict machinery used by the `balloc-bench`
//! binaries and the integration tests.

use balloc_core::stats::{correlation, linear_fit};

/// The verdict of comparing a measured series against a predicted growth
/// law.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeFit {
    /// Least-squares slope of measured vs. predicted.
    pub slope: f64,
    /// Least-squares intercept.
    pub intercept: f64,
    /// Coefficient of determination of the fit.
    pub r_squared: f64,
    /// Pearson correlation between measured and predicted.
    pub correlation: f64,
}

impl ShapeFit {
    /// Whether the measured series is well explained by the predicted law
    /// (positive association and at least the given `r²`).
    #[must_use]
    pub fn matches(&self, min_r_squared: f64) -> bool {
        self.slope > 0.0 && self.r_squared >= min_r_squared
    }
}

/// Fits `measured ≈ slope·predicted + intercept`.
///
/// # Panics
///
/// Panics if the slices have different lengths, fewer than two points, or
/// `predicted` is constant.
///
/// # Examples
///
/// ```
/// use balloc_analysis::fit::fit_against;
///
/// // A gap series that is ~2.5× the predicted term plus noise-free offset.
/// let predicted = [1.0, 2.0, 3.0, 4.0];
/// let measured = [3.5, 6.0, 8.5, 11.0];
/// let fit = fit_against(&measured, &predicted);
/// assert!((fit.slope - 2.5).abs() < 1e-9);
/// assert!(fit.matches(0.99));
/// ```
#[must_use]
pub fn fit_against(measured: &[f64], predicted: &[f64]) -> ShapeFit {
    let (slope, intercept, r_squared) = linear_fit(predicted, measured);
    ShapeFit {
        slope,
        intercept,
        r_squared,
        correlation: correlation(predicted, measured),
    }
}

/// Checks that a series is non-decreasing up to an additive `slack`
/// (statistical noise allowance).
///
/// # Examples
///
/// ```
/// use balloc_analysis::fit::is_monotone_nondecreasing;
/// assert!(is_monotone_nondecreasing(&[1.0, 1.9, 1.8, 3.0], 0.2));
/// assert!(!is_monotone_nondecreasing(&[3.0, 1.0], 0.2));
/// ```
#[must_use]
pub fn is_monotone_nondecreasing(series: &[f64], slack: f64) -> bool {
    series.windows(2).all(|w| w[1] >= w[0] - slack)
}

/// Finds the first index at which `a` exceeds `b` by more than `margin`
/// and stays above for the rest of the series (a *crossover*).
///
/// Returns `None` if no such index exists.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use balloc_analysis::fit::crossover_index;
/// let batch = [1.0, 2.0, 5.0, 9.0];
/// let one_choice = [4.0, 4.0, 4.0, 4.0];
/// assert_eq!(crossover_index(&batch, &one_choice, 0.5), Some(2));
/// ```
#[must_use]
pub fn crossover_index(a: &[f64], b: &[f64], margin: f64) -> Option<usize> {
    assert_eq!(a.len(), b.len(), "series must have equal length");
    let mut candidate = None;
    for i in 0..a.len() {
        if a[i] > b[i] + margin {
            candidate.get_or_insert(i);
        } else {
            candidate = None;
        }
    }
    candidate
}

/// The mean absolute ratio `measured_i / predicted_i` — a quick constant
/// estimate once a shape matches.
///
/// # Panics
///
/// Panics if the slices have different lengths, are empty, or `predicted`
/// contains zeros.
#[must_use]
pub fn mean_ratio(measured: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(
        measured.len(),
        predicted.len(),
        "series must have equal length"
    );
    assert!(!measured.is_empty(), "series must be non-empty");
    assert!(
        predicted.iter().all(|&p| p != 0.0),
        "predicted values must be non-zero"
    );
    measured
        .iter()
        .zip(predicted)
        .map(|(m, p)| m / p)
        .sum::<f64>()
        / measured.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_affine_relation() {
        let predicted: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let measured: Vec<f64> = predicted.iter().map(|p| 1.7 * p + 4.0).collect();
        let fit = fit_against(&measured, &predicted);
        assert!((fit.slope - 1.7).abs() < 1e-9);
        assert!((fit.intercept - 4.0).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
        assert!((fit.correlation - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fit_rejects_anticorrelated_series() {
        let predicted = [1.0, 2.0, 3.0];
        let measured = [9.0, 5.0, 1.0];
        let fit = fit_against(&measured, &predicted);
        assert!(fit.slope < 0.0);
        assert!(!fit.matches(0.5));
    }

    #[test]
    fn monotone_check_with_slack() {
        assert!(is_monotone_nondecreasing(&[], 0.0));
        assert!(is_monotone_nondecreasing(&[1.0], 0.0));
        assert!(is_monotone_nondecreasing(&[1.0, 1.0, 2.0], 0.0));
        assert!(!is_monotone_nondecreasing(&[1.0, 0.5, 2.0], 0.1));
        assert!(is_monotone_nondecreasing(&[1.0, 0.95, 2.0], 0.1));
    }

    #[test]
    fn crossover_requires_staying_above() {
        let a = [0.0, 5.0, 0.0, 5.0, 6.0];
        let b = [1.0, 1.0, 1.0, 1.0, 1.0];
        // a dips back below at index 2, so the crossover is at 3.
        assert_eq!(crossover_index(&a, &b, 0.0), Some(3));
        // With a huge margin there is no crossover.
        assert_eq!(crossover_index(&a, &b, 10.0), None);
    }

    #[test]
    fn mean_ratio_of_proportional_series() {
        let predicted = [2.0, 4.0, 8.0];
        let measured = [3.0, 6.0, 12.0];
        assert!((mean_ratio(&measured, &predicted) - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn mean_ratio_rejects_zero_prediction() {
        let _ = mean_ratio(&[1.0], &[0.0]);
    }
}
