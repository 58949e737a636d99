//! The deterministic relations between potential functions that the
//! paper's proofs rely on (Lemma 5.5, Claim 8.2, Lemma 8.4, and the
//! Γ/Λ/V orderings), checked numerically on both crafted and evolved
//! states.

use balloc_core::rng::run_seed;
use balloc_core::{LoadState, Process, Rng, TwoChoice};
use balloc_potentials::{
    AbsoluteValue, HyperbolicCosine, OffsetHyperbolicCosine, Potential, Quadratic, SuperExponential,
};
use proptest::prelude::*;

fn evolved(n: usize, steps: u64, seed: u64) -> LoadState {
    let mut state = LoadState::new(n);
    let mut rng = Rng::from_seed(seed);
    TwoChoice::classic().run(&mut state, steps, &mut rng);
    state
}

#[test]
fn lambda_is_bounded_by_gamma_with_same_alpha() {
    // Λ(α, z) ⩽ Γ(α) + n for any offset z ⩾ 0: clamping exponents to the
    // offset only removes mass, and each bin contributes at least 1 extra
    // constant per side.
    for seed in 0..5u64 {
        let state = evolved(64, 2_000, seed);
        let alpha = 0.3;
        let gamma = HyperbolicCosine::new(alpha).value(&state);
        let lambda = OffsetHyperbolicCosine::new(alpha, 4.0).value(&state);
        assert!(
            lambda <= gamma + state.n() as f64 + 1e-9,
            "seed {seed}: Λ {lambda} vs Γ + n {}",
            gamma + state.n() as f64
        );
    }
}

#[test]
fn smaller_smoothing_gives_smaller_offset_potential() {
    // V uses α₁ ⩽ α and the same offset: V ⩽ Λ pointwise (used when the
    // Section 7 analysis inherits Section 5's bounds).
    for seed in 0..5u64 {
        let state = evolved(48, 3_000, seed);
        let offset = 6.0;
        let lambda = OffsetHyperbolicCosine::new(1.0 / 18.0, offset).value(&state);
        let v = OffsetHyperbolicCosine::new(1.0 / 108.0, offset).value(&state);
        assert!(v <= lambda + 1e-9, "seed {seed}: V {v} vs Λ {lambda}");
    }
}

#[test]
fn claim_8_2_gap_bound_controls_phi() {
    // Claim 8.2: Gap(s) ⩽ log² n and φ ⩽ (log n)/6 imply
    // Φ ⩽ n·e^{φ·log² n} ⩽ e^{½ log⁴ n}. Verify the first inequality
    // numerically.
    let state = evolved(128, 5_000, 3);
    let n = state.n() as f64;
    let logn = n.ln();
    let phi = SuperExponential::new(logn / 6.0, 0.0);
    let value = phi.value(&state);
    let gap = state.gap();
    let bound = n * ((logn / 6.0) * gap).exp();
    assert!(value <= bound + 1e-6, "Φ {value} vs n·e^(φ·Gap) {bound}");
}

#[test]
fn lemma_5_5_quadratic_bounded_by_lambda_scale() {
    // Lemma 5.5(i) morally: when Λ(α, c₄g) = O(n), every |y_i| is
    // O(g + log n), so Υ = O(n·(g + log n)²). Verify the chain on
    // equilibrium states.
    let g = 2.0f64;
    for seed in 0..5u64 {
        let state = evolved(256, 30_000, run_seed(10, seed));
        let n = state.n() as f64;
        let lambda = OffsetHyperbolicCosine::new(1.0 / 18.0, 730.0 * g).value(&state);
        // Equilibrium two-choice states easily satisfy Λ ⩽ 3n.
        assert!(lambda <= 3.0 * n, "seed {seed}: Λ = {lambda}");
        let upsilon = Quadratic::new().value(&state);
        let bound_term = g + n.ln();
        assert!(
            upsilon <= n * bound_term * bound_term,
            "seed {seed}: Υ {upsilon} vs n(g+log n)² {}",
            n * bound_term * bound_term
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cauchy_schwarz_delta_upsilon(loads in proptest::collection::vec(0u64..64, 2..48)) {
        // Δ² ⩽ n·Υ (used implicitly when converting between the linear and
        // quadratic preconditions).
        let state = LoadState::from_loads(loads);
        let delta = AbsoluteValue::new().value(&state);
        let upsilon = Quadratic::new().value(&state);
        prop_assert!(delta * delta <= state.n() as f64 * upsilon + 1e-6);
    }

    #[test]
    fn gamma_monotone_in_smoothing(
        loads in proptest::collection::vec(0u64..32, 2..32),
        lo in 0.05f64..0.4,
        hi_delta in 0.05f64..0.5,
    ) {
        // Γ(γ) grows with γ on any fixed state (each cosh term does).
        let state = LoadState::from_loads(loads);
        let hi = (lo + hi_delta).min(0.95);
        let small = HyperbolicCosine::new(lo).value(&state);
        let large = HyperbolicCosine::new(hi).value(&state);
        prop_assert!(large >= small - 1e-9);
    }

    #[test]
    fn lambda_monotone_decreasing_in_offset(
        loads in proptest::collection::vec(0u64..32, 2..32),
        z1 in 0.0f64..8.0,
        dz in 0.0f64..8.0,
    ) {
        let state = LoadState::from_loads(loads);
        let near = OffsetHyperbolicCosine::new(0.25, z1).value(&state);
        let far = OffsetHyperbolicCosine::new(0.25, z1 + dz).value(&state);
        prop_assert!(far <= near + 1e-9, "larger offset must not increase Λ");
    }

    #[test]
    fn super_exponential_monotone_decreasing_in_offset(
        loads in proptest::collection::vec(0u64..32, 2..32),
        z1 in 0.0f64..8.0,
        dz in 0.0f64..8.0,
    ) {
        let state = LoadState::from_loads(loads);
        let near = SuperExponential::new(2.0, z1).value(&state);
        let far = SuperExponential::new(2.0, z1 + dz).value(&state);
        prop_assert!(far <= near + 1e-9);
        // And Φ ⩾ n always.
        prop_assert!(far >= state.n() as f64 - 1e-9);
    }

    #[test]
    fn potentials_are_minimal_on_perfectly_balanced_states(
        n in 2usize..64,
        level in 0u64..32,
    ) {
        // A perfectly flat state minimizes every potential: Γ = 2n,
        // Λ = 2n, Δ = Υ = 0, Φ = n.
        let state = LoadState::from_loads(vec![level; n]);
        let nf = n as f64;
        prop_assert!((HyperbolicCosine::new(0.5).value(&state) - 2.0 * nf).abs() < 1e-9);
        prop_assert!((OffsetHyperbolicCosine::new(0.5, 3.0).value(&state) - 2.0 * nf).abs() < 1e-9);
        prop_assert!(AbsoluteValue::new().value(&state).abs() < 1e-9);
        prop_assert!(Quadratic::new().value(&state).abs() < 1e-9);
        prop_assert!((SuperExponential::new(4.0, 1.0).value(&state) - nf).abs() < 1e-9);
    }
}
