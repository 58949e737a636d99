//! Cross-crate verification of the paper's drop inequalities on states
//! produced by the actual noisy processes (not just hand-crafted vectors).

use noisy_balance::core::{LoadState, Process, Rng, TwoChoice};
use noisy_balance::noise::{AdvComp, GBounded, ReverseAll, UniformRandom};
use noisy_balance::potentials::constants::{gamma_for_g, C4, D};
use noisy_balance::potentials::{
    expected_drop_for_decider, AbsoluteValue, HyperbolicCosine, OffsetHyperbolicCosine, Potential,
    Quadratic,
};

fn evolved_state(g: u64, n: usize, steps: u64, seed: u64) -> LoadState {
    let mut state = LoadState::new(n);
    let mut rng = Rng::from_seed(seed);
    GBounded::new(g).run(&mut state, steps, &mut rng);
    state
}

#[test]
fn lemma_5_3_quadratic_drop_under_adversary() {
    // E[ΔΥ] ⩽ −Δ/n + 2g + 1 for any g-Adv-Comp instance.
    let n = 96;
    for g in [1u64, 3, 8] {
        let decider = AdvComp::new(g, ReverseAll);
        for seed in 0..4u64 {
            let state = evolved_state(g, n, n as u64 * 40, seed);
            let drop = expected_drop_for_decider(&Quadratic::new(), &decider, &state);
            let delta = AbsoluteValue::new().value(&state);
            let bound = -delta / n as f64 + 2.0 * g as f64 + 1.0;
            assert!(
                drop <= bound + 1e-9,
                "g={g} seed={seed}: ΔΥ {drop} exceeds Lemma 5.3 bound {bound}"
            );
        }
    }
}

#[test]
fn lemma_5_3_also_holds_for_myopic() {
    let n = 96;
    let g = 5u64;
    let decider = AdvComp::new(g, UniformRandom);
    for seed in 10..14u64 {
        let state = evolved_state(g, n, n as u64 * 30, seed);
        let drop = expected_drop_for_decider(&Quadratic::new(), &decider, &state);
        let delta = AbsoluteValue::new().value(&state);
        let bound = -delta / n as f64 + 2.0 * g as f64 + 1.0;
        assert!(drop <= bound + 1e-9, "seed={seed}: {drop} > {bound}");
    }
}

#[test]
fn theorem_4_3_gamma_drop_on_skewed_states() {
    // On states with Γ ≫ n the −(γ/96n)·Γ term dominates any constant, so
    // the expected change must be negative under the g-Bounded adversary.
    let n = 80;
    let g = 3u64;
    let gamma = gamma_for_g(g);
    let potential = HyperbolicCosine::new(gamma);
    let decider = AdvComp::new(g, ReverseAll);

    // Build a heavily skewed state (far from equilibrium).
    let mut loads = vec![5u64; n];
    loads[0] = 5 + 4000;
    let state = LoadState::from_loads(loads);
    let drop = expected_drop_for_decider(&potential, &decider, &state);
    assert!(drop < 0.0, "Γ must drop on extreme states, got {drop}");
}

#[test]
fn theorem_4_3_gamma_bounded_in_equilibrium() {
    // Once the process stabilizes, E[ΔΓ] stays below the additive constant
    // of Theorem 4.3(i) (we use c₁ = 8, far above the true constant).
    let n = 96;
    let g = 2u64;
    let gamma = gamma_for_g(g);
    let potential = HyperbolicCosine::new(gamma);
    let decider = AdvComp::new(g, ReverseAll);
    for seed in 20..24u64 {
        let state = evolved_state(g, n, n as u64 * 60, seed);
        let drop = expected_drop_for_decider(&potential, &decider, &state);
        let bound = -gamma / (96.0 * n as f64) * potential.value(&state) + 8.0;
        assert!(
            drop <= bound,
            "seed={seed}: ΔΓ {drop} exceeds Thm 4.3(i) bound {bound}"
        );
    }
}

#[test]
fn lemma_5_7_lambda_drops_in_good_steps_when_large() {
    // In good steps (Δ ⩽ D·n·g) with Λ large, Λ drops in expectation.
    // Construct a good-step state with a heavy overload beyond the offset.
    let n = 64;
    let g = 1u64;
    let alpha = 1.0 / 18.0;
    let offset = C4 * g as f64;
    let lambda = OffsetHyperbolicCosine::new(alpha, offset);
    let decider = AdvComp::new(g, ReverseAll);

    let mut loads = vec![100u64; n];
    loads[0] = 100 + (offset as u64) + 200; // far beyond the offset
    let state = LoadState::from_loads(loads);
    // Verify this is a good step: Δ ⩽ D·n·g.
    let delta = AbsoluteValue::new().value(&state);
    assert!(
        delta <= D * n as f64 * g as f64,
        "test state must be a good step"
    );
    assert!(lambda.value(&state) > 100.0 * n as f64, "Λ must be large");

    let drop = expected_drop_for_decider(&lambda, &decider, &state);
    assert!(
        drop < 0.0,
        "Λ should drop in a good step when large: {drop}"
    );
}

#[test]
fn equilibrium_gamma_potential_is_linear_in_n() {
    // Theorem 4.3(ii): E[Γ] = O(n·g) in equilibrium (constant γ·g). Check
    // Γ/n stays bounded by a constant across n after long runs.
    let g = 2u64;
    let gamma = gamma_for_g(g);
    let potential = HyperbolicCosine::new(gamma);
    let mut ratios = Vec::new();
    for n in [64usize, 128, 256] {
        let state = evolved_state(g, n, n as u64 * 80, 7);
        ratios.push(potential.value(&state) / n as f64);
    }
    for r in &ratios {
        assert!(
            (2.0..20.0).contains(r),
            "Γ/n should be a small constant, got {ratios:?}"
        );
    }
}

#[test]
fn drop_computation_consistent_with_monte_carlo() {
    // The exact expected drop agrees with a brute-force Monte-Carlo
    // estimate (ties the potentials crate to the core process).
    let n = 32;
    let g = 2u64;
    let state = evolved_state(g, n, 600, 3);
    let decider = AdvComp::new(g, ReverseAll);
    let quad = Quadratic::new();
    let exact = expected_drop_for_decider(&quad, &decider, &state);

    let mut rng = Rng::from_seed(77);
    let trials = 60_000;
    let before = quad.value(&state);
    let mut total = 0.0;
    let mut process = TwoChoice::new(AdvComp::new(g, ReverseAll));
    for _ in 0..trials {
        let mut s = state.clone();
        process.allocate(&mut s, &mut rng);
        total += quad.value(&s) - before;
    }
    let mc = total / trials as f64;
    assert!(
        (mc - exact).abs() < 0.05,
        "Monte-Carlo {mc} vs exact {exact}"
    );
}
