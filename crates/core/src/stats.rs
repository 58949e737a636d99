//! Small summary-statistics helpers shared by the simulation and analysis
//! crates.

use std::fmt;

/// Summary statistics of a sample of `f64` values.
///
/// # Examples
///
/// ```
/// use balloc_core::stats::Summary;
///
/// let s = Summary::from_values(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// assert!((s.max() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    count: usize,
    mean: f64,
    std_dev: f64,
    min: f64,
    max: f64,
    median: f64,
}

impl Summary {
    /// Computes summary statistics of `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains non-finite entries.
    #[must_use]
    pub fn from_values(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "summary of an empty sample");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "summary requires finite values"
        );
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (count as f64 - 1.0)
        } else {
            0.0
        };
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = if count % 2 == 1 {
            sorted[count / 2]
        } else {
            0.5 * (sorted[count / 2 - 1] + sorted[count / 2])
        };
        Self {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median,
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (`n−1` denominator; 0 for a single sample).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Smallest sample.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Median (midpoint of the two central samples for even counts).
    #[must_use]
    pub fn median(&self) -> f64 {
        self.median
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean {:.3} ± {:.3} (min {:.3}, median {:.3}, max {:.3}, k={})",
            self.mean, self.std_dev, self.min, self.median, self.max, self.count
        )
    }
}

/// Ordinary least squares fit `y ≈ slope·x + intercept`.
///
/// Returns `(slope, intercept, r_squared)`. Used by the analysis crate to
/// check the paper's predicted shapes (e.g. gap linear in `g` for
/// `g ≳ log n`).
///
/// # Panics
///
/// Panics if the slices have different lengths, fewer than two points, or
/// zero variance in `x`.
///
/// # Examples
///
/// ```
/// use balloc_core::stats::linear_fit;
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [3.0, 5.0, 7.0, 9.0];
/// let (slope, intercept, r2) = linear_fit(&x, &y);
/// assert!((slope - 2.0).abs() < 1e-9);
/// assert!((intercept - 1.0).abs() < 1e-9);
/// assert!(r2 > 0.999);
/// ```
#[must_use]
pub fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64, f64) {
    assert_eq!(x.len(), y.len(), "x and y must have equal length");
    assert!(x.len() >= 2, "need at least two points");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxx: f64 = x.iter().map(|v| (v - mx) * (v - mx)).sum();
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let syy: f64 = y.iter().map(|v| (v - my) * (v - my)).sum();
    assert!(sxx > 0.0, "x must not be constant");
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    (slope, intercept, r2)
}

/// Pearson correlation coefficient between two equal-length samples.
///
/// # Panics
///
/// Panics if the slices have different lengths, fewer than two points, or
/// either sample has zero variance.
#[must_use]
pub fn correlation(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "x and y must have equal length");
    assert!(x.len() >= 2, "need at least two points");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxx: f64 = x.iter().map(|v| (v - mx) * (v - mx)).sum();
    let syy: f64 = y.iter().map(|v| (v - my) * (v - my)).sum();
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    assert!(sxx > 0.0 && syy > 0.0, "samples must not be constant");
    sxy / (sxx * syy).sqrt()
}

/// The standard normal cumulative distribution function `Φ(x)`.
///
/// Uses the Abramowitz & Stegun 7.1.26 rational approximation of `erf`
/// (absolute error below `1.5·10⁻⁷`), which is ample for the probability
/// computations in this workspace (e.g. the exact decision probability of
/// the Gaussian-perturbed `σ-Noisy-Load` comparison,
/// `1 − Φ(δ/(√2·σ))`).
///
/// # Examples
///
/// ```
/// use balloc_core::stats::normal_cdf;
/// assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
/// assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
/// ```
#[must_use]
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// The error function `erf(x)` (Abramowitz & Stegun 7.1.26, absolute error
/// `< 1.5·10⁻⁷`).
#[must_use]
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_rejects_empty() {
        let _ = Summary::from_values(&[]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn summary_rejects_nan() {
        let _ = Summary::from_values(&[1.0, f64::NAN]);
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::from_values(&[7.0]);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 7.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.median(), 7.0);
    }

    #[test]
    fn summary_known_values() {
        let s = Summary::from_values(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample std dev with n−1 = 7: sqrt(32/7) ≈ 2.138.
        assert!((s.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.median() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn summary_median_odd() {
        let s = Summary::from_values(&[9.0, 1.0, 5.0]);
        assert_eq!(s.median(), 5.0);
    }

    #[test]
    fn summary_display_is_nonempty() {
        let s = Summary::from_values(&[1.0, 2.0]);
        assert!(!format!("{s}").is_empty());
    }

    #[test]
    fn linear_fit_recovers_noiseless_line() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| -0.5 * v + 3.0).collect();
        let (a, b, r2) = linear_fit(&x, &y);
        assert!((a + 0.5).abs() < 1e-9);
        assert!((b - 3.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_r2_decreases_with_noise() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        // Deterministic "noise".
        let y: Vec<f64> = x
            .iter()
            .map(|v| {
                2.0 * v
                    + if (*v as u64).is_multiple_of(2) {
                        20.0
                    } else {
                        -20.0
                    }
            })
            .collect();
        let (_, _, r2) = linear_fit(&x, &y);
        assert!(r2 < 0.97, "noisy fit should have lower r²: {r2}");
    }

    #[test]
    fn correlation_signs() {
        let x = [1.0, 2.0, 3.0];
        let up = [2.0, 4.0, 6.0];
        let down = [6.0, 4.0, 2.0];
        assert!((correlation(&x, &up) - 1.0).abs() < 1e-12);
        assert!((correlation(&x, &down) + 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn linear_fit_validates_lengths() {
        let _ = linear_fit(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn erf_known_values() {
        // erf(1) = 0.8427007929, erf(2) = 0.9953222650. The A&S
        // approximation leaves a ~1e-9 residual at 0.
        assert!((erf(0.0)).abs() < 1e-8);
        assert!((erf(1.0) - 0.8427007929).abs() < 2e-7);
        assert!((erf(2.0) - 0.9953222650).abs() < 2e-7);
        assert!((erf(-1.0) + 0.8427007929).abs() < 2e-7);
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.0) - 0.841344746).abs() < 1e-6);
        assert!((normal_cdf(-1.0) - 0.158655254).abs() < 1e-6);
        assert!((normal_cdf(3.0) - 0.998650102).abs() < 1e-6);
        assert!(normal_cdf(8.0) > 0.999_999);
        assert!(normal_cdf(-8.0) < 1e-6);
    }

    #[test]
    fn normal_cdf_is_monotone() {
        let xs: Vec<f64> = (-40..=40).map(|i| i as f64 / 10.0).collect();
        for w in xs.windows(2) {
            assert!(normal_cdf(w[0]) <= normal_cdf(w[1]) + 1e-12);
        }
    }
}
