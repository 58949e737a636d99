//! Parameters of the layered-induction machinery (Sections 6, 9, 11).

/// `α₁ = 1/(6κ)` with the paper's `κ = 18` floor — the smoothing constant
/// entering the layer count (Eq. 6.2 uses the κ of Lemma 5.11; for the
/// calculators we take the paper's lower bound `κ ⩾ 1/α = 18`).
pub const ALPHA_1: f64 = 1.0 / (6.0 * 18.0);

/// `α₂ = α₁/84` (Eq. 6.3).
pub const ALPHA_2: f64 = ALPHA_1 / 84.0;

/// The number of layered-induction steps `k = k(g)`: the unique integer
/// `k ⩾ 2` with `(α₁·log n)^{1/k} ⩽ g < (α₁·log n)^{1/(k−1)}`
/// (Section 6.1).
///
/// Returns `None` when `g ⩾ α₁·log n` (no layering needed — the
/// `O(g + log n)` bound of Theorem 5.12 applies directly) or when `g ⩽ 1`.
/// Because `α₁ = 1/108`, the layering regime only opens up for
/// `log n > 108` — beyond `u64`; use [`k_from_log`] to explore it.
///
/// # Examples
///
/// ```
/// use balloc_analysis::layered::k_of_g;
/// // At simulable n the α₁·log n threshold is below every g ⩾ 2.
/// assert_eq!(k_of_g(100_000, 4), None);
/// ```
#[must_use]
pub fn k_of_g(n: u64, g: u64) -> Option<u32> {
    k_from_log((n as f64).max(2.0).ln(), g)
}

/// [`k_of_g`] parameterized directly by `log n`, for the asymptotic regime
/// the paper analyses.
///
/// # Panics
///
/// Panics if `log_n` is not positive and finite.
///
/// # Examples
///
/// ```
/// use balloc_analysis::layered::k_from_log;
/// // log n = 50 000 ⇒ α₁·log n ≈ 463: k(2) = ⌈ln 463/ln 2⌉ = 9 layers.
/// let k2 = k_from_log(50_000.0, 2).unwrap();
/// let k3 = k_from_log(50_000.0, 3).unwrap();
/// assert_eq!(k2, 9);
/// assert!(k2 >= k3);
/// ```
#[must_use]
pub fn k_from_log(log_n: f64, g: u64) -> Option<u32> {
    assert!(log_n.is_finite() && log_n > 0.0, "log_n must be positive");
    if g <= 1 {
        return None;
    }
    let base = ALPHA_1 * log_n;
    if base <= 1.0 || (g as f64) >= base {
        return None;
    }
    // (α₁ log n)^{1/k} ⩽ g  ⇔  k ⩾ ln(α₁ log n)/ln g.
    let k = (base.ln() / (g as f64).ln()).ceil() as u32;
    Some(k.max(2))
}

/// The layer offsets `z_j = c₅·g + ⌈4/α₂⌉·j·g` (Eq. 6.7), with the
/// caller-supplied constant `c₅` (Eq. 7.14 defines it through Lemma 5.5's
/// constants; the paper only needs it "sufficiently large").
///
/// # Examples
///
/// ```
/// use balloc_analysis::layered::layer_offset;
/// let z0 = layer_offset(1460, 4, 0);
/// let z1 = layer_offset(1460, 4, 1);
/// assert!(z1 > z0);
/// assert_eq!(z0, 1460 * 4);
/// ```
#[must_use]
pub fn layer_offset(c5: u64, g: u64, j: u32) -> u64 {
    let step = (4.0 / ALPHA_2).ceil() as u64;
    c5 * g + step * u64::from(j) * g
}

/// The phase count `ℓ = ⌊log((1/8)·log n / log g) / log g⌋` of the
/// `g-Myopic-Comp` lower bound (Eq. 11.1, Theorem 11.3).
///
/// Returns `None` when the formula gives `ℓ < 1` (then the theorem is
/// vacuous at this scale). Theorem 11.3's hypothesis additionally requires
/// `g ∈ [10, (1/8)·log n/log log n]` — see [`in_theorem_11_3_range`]; that
/// range is asymptotic and empty for any `u64`-representable `n`, so the
/// formula and the range check are deliberately decoupled.
///
/// # Panics
///
/// Panics if `g < 2`.
///
/// # Examples
///
/// ```
/// use balloc_analysis::layered::ell;
/// // log n ≈ 41.4 for n = 10^18: ℓ(2) = ⌊ln(41.4/(8·ln 2))/ln 2⌋ = 2.
/// assert_eq!(ell(10u64.pow(18), 2), Some(2));
/// ```
#[must_use]
pub fn ell(n: u64, g: u64) -> Option<u32> {
    ell_from_log((n as f64).max(2.0).ln(), g)
}

/// [`ell`] parameterized directly by `log n`, for values of `n` beyond
/// `u64` (the theorem's hypothesis only becomes non-vacuous around
/// `n ≈ e^450`).
///
/// # Panics
///
/// Panics if `g < 2` or `log_n` is not positive and finite.
///
/// # Examples
///
/// ```
/// use balloc_analysis::layered::ell_from_log;
/// // n = e^500: ℓ(10) = ⌊ln(500/(8·ln 10))/ln 10⌋ = 1.
/// assert_eq!(ell_from_log(500.0, 10), Some(1));
/// ```
#[must_use]
pub fn ell_from_log(log_n: f64, g: u64) -> Option<u32> {
    assert!(g >= 2, "g must be at least 2");
    assert!(log_n.is_finite() && log_n > 0.0, "log_n must be positive");
    let gf = g as f64;
    let l = ((log_n / 8.0 / gf.ln()).ln() / gf.ln()).floor();
    if l >= 1.0 {
        Some(l as u32)
    } else {
        None
    }
}

/// Whether `(n, g)` satisfies the literal hypothesis of Theorem 11.3:
/// `g ∈ [10, (1/8)·log n / log log n]`.
///
/// Requires `log n ⩾ 80·log log n`, i.e. `n ⩾ e^450` — far beyond any
/// simulable scale, which is why the experiments check the *shape* of the
/// lower bound at accessible `g` instead.
#[must_use]
pub fn in_theorem_11_3_range(n: u64, g: u64) -> bool {
    let logn = (n as f64).max(2.0).ln();
    let loglogn = logn.max(2.0).ln();
    (g as f64) >= 10.0 && (g as f64) <= logn / (8.0 * loglogn)
}

/// The ball count `m = n·ℓ` at which Theorem 11.3 exhibits the
/// `Ω(g/log g · log log n)` gap, when `g` is in the theorem's range.
#[must_use]
pub fn lower_bound_m(n: u64, g: u64) -> Option<u64> {
    ell(n, g).map(|l| n * u64::from(l))
}

/// The smoothing parameter `φ_j` of the layer-`j` super-exponential
/// potential `Φ_j` (Eq. 6.6): `α₂·log n · g^{j−k}` for `1 ⩽ j ⩽ k−1`, and
/// the constant `α₂` for the base layer `j = 0` (Eq. 6.5).
///
/// Combine with [`layer_offset`] to instantiate
/// `balloc_potentials::SuperExponential` for the layered induction.
///
/// # Panics
///
/// Panics if `g < 2`, `k < 2`, `j ⩾ k`, or `log_n` is not positive.
///
/// # Examples
///
/// ```
/// use balloc_analysis::layered::layer_smoothing;
/// // Smoothing parameters grow with the layer index j.
/// let lo = layer_smoothing(50_000.0, 3, 1, 4);
/// let hi = layer_smoothing(50_000.0, 3, 3, 4);
/// assert!(hi > lo);
/// ```
#[must_use]
pub fn layer_smoothing(log_n: f64, g: u64, j: u32, k: u32) -> f64 {
    assert!(log_n.is_finite() && log_n > 0.0, "log_n must be positive");
    assert!(g >= 2, "g must be at least 2");
    assert!(k >= 2, "k must be at least 2");
    assert!(j < k, "layer index j must be below k");
    if j == 0 {
        ALPHA_2
    } else {
        ALPHA_2 * log_n * (g as f64).powi(j as i32 - k as i32)
    }
}

/// The lower-bound value `(1/8)·(g/log g)·log log n` of Theorem 11.3.
///
/// # Panics
///
/// Panics if `g < 2`.
#[must_use]
pub fn myopic_lower_value(n: u64, g: u64) -> f64 {
    assert!(g >= 2, "g must be at least 2");
    let loglogn = (n as f64).max(2.0).ln().max(2.0).ln();
    (g as f64) / (g as f64).ln() * loglogn / 8.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_is_none_outside_range() {
        assert_eq!(k_of_g(1_000_000, 0), None);
        assert_eq!(k_of_g(1_000_000, 1), None);
        // g far above α₁·log n.
        assert_eq!(k_of_g(1_000, 1_000), None);
        // The α₁·log n base stays below 1 for all u64-scale n.
        assert_eq!(k_of_g(u64::MAX, 2), None);
    }

    #[test]
    fn k_satisfies_defining_inequality() {
        let log_n = 20_000.0;
        let base = ALPHA_1 * log_n;
        for g in 2..(base.floor() as u64) {
            if let Some(k) = k_from_log(log_n, g) {
                let k = f64::from(k);
                assert!(
                    base.powf(1.0 / k) <= g as f64 + 1e-9,
                    "g={g}: lower side violated"
                );
                if k > 2.0 {
                    assert!(
                        (g as f64) < base.powf(1.0 / (k - 1.0)) + 1e-9,
                        "g={g}: upper side violated"
                    );
                }
            }
        }
    }

    #[test]
    fn k_nonincreasing_in_g() {
        let mut prev = u32::MAX;
        for g in 2..40 {
            if let Some(k) = k_from_log(100_000.0, g) {
                assert!(k <= prev);
                prev = k;
            }
        }
    }

    #[test]
    fn layer_offsets_increase_linearly() {
        let c5 = 1460;
        let g = 3;
        let step = layer_offset(c5, g, 1) - layer_offset(c5, g, 0);
        for j in 1..5 {
            assert_eq!(
                layer_offset(c5, g, j + 1) - layer_offset(c5, g, j),
                step,
                "offsets must be evenly spaced"
            );
        }
        // Step is ⌈4/α₂⌉·g.
        assert_eq!(step, (4.0 / ALPHA_2).ceil() as u64 * g);
    }

    #[test]
    fn ell_is_none_when_vacuous() {
        // At small n the formula gives ℓ < 1 for every g.
        assert_eq!(ell(10_000, 2), None);
        assert_eq!(ell(10_000, 16), None);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn ell_rejects_tiny_g() {
        let _ = ell(1_000_000, 1);
    }

    #[test]
    fn ell_grows_with_n() {
        let small = ell_from_log(40.0, 2).unwrap_or(0);
        let large = ell_from_log(400.0, 2).unwrap_or(0);
        assert!(large >= small);
        assert!(large >= 1);
    }

    #[test]
    fn ell_matches_ell_from_log() {
        let n = 10u64.pow(18);
        assert_eq!(ell(n, 2), ell_from_log((n as f64).ln(), 2));
    }

    #[test]
    fn theorem_range_nonvacuous_for_astronomic_n() {
        // At n = e^500 the hypothesis g ∈ [10, (1/8)·log n/log log n]
        // admits g = 10, and the bound value is positive.
        let log_n: f64 = 500.0;
        let loglog = log_n.ln();
        assert!(10.0 <= log_n / (8.0 * loglog));
        assert_eq!(ell_from_log(log_n, 10), Some(1));
    }

    #[test]
    fn theorem_range_is_empty_at_simulable_scale() {
        // The literal hypothesis of Theorem 11.3 requires astronomically
        // large n; document that fact as a test.
        for exp in [4u32, 6, 9, 12, 18] {
            assert!(!in_theorem_11_3_range(10u64.pow(exp), 10));
        }
    }

    #[test]
    fn lower_bound_m_is_multiple_of_n() {
        let n = 10u64.pow(15);
        if let Some(m) = lower_bound_m(n, 2) {
            assert_eq!(m % n, 0);
        }
    }

    #[test]
    fn myopic_lower_value_matches_formula() {
        let n = 10u64.pow(9);
        let v = myopic_lower_value(n, 16);
        let loglogn = (n as f64).ln().ln();
        assert!((v - 16.0 / 16.0f64.ln() * loglogn / 8.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_constants_match_paper() {
        assert!((ALPHA_1 - 1.0 / 108.0).abs() < 1e-12);
        assert!((ALPHA_2 - 1.0 / (108.0 * 84.0)).abs() < 1e-12);
    }

    #[test]
    fn layer_smoothing_is_increasing_in_j() {
        let log_n = 50_000.0;
        let g = 3u64;
        let k = k_from_log(log_n, g).unwrap();
        let mut prev = 0.0;
        for j in 0..k {
            let phi = layer_smoothing(log_n, g, j, k);
            assert!(
                phi > prev,
                "φ_{j} = {phi} not above φ_{} = {prev}",
                j as i64 - 1
            );
            prev = phi;
        }
        // Top layer: φ_{k−1} = α₂·log n/g, matching Eq. 6.6 at j = k−1.
        let top = layer_smoothing(log_n, g, k - 1, k);
        assert!((top - ALPHA_2 * log_n / g as f64).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "below k")]
    fn layer_smoothing_validates_j() {
        let _ = layer_smoothing(1000.0, 2, 5, 3);
    }

    #[test]
    fn layer_smoothing_ratio_between_consecutive_layers_is_g() {
        let log_n = 80_000.0;
        let g = 5u64;
        let k = 4;
        for j in 1..k - 1 {
            let ratio = layer_smoothing(log_n, g, j + 1, k) / layer_smoothing(log_n, g, j, k);
            assert!((ratio - g as f64).abs() < 1e-9);
        }
    }
}
