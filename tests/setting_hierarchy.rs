//! The simulation hierarchy of settings (the paper's Fig. 2.1).
//!
//! A directed arrow `A → B` in Fig. 2.1 means setting `B` can simulate
//! setting/process `A`. These tests witness each arrow constructively:
//! the simulating setting, instantiated with the right strategy, makes
//! *identical decisions* (or identical distributions) to the simulated
//! process.

use noisy_balance::core::rng::run_seed;
use noisy_balance::core::{Decider, LoadState, Process, Rng, TwoChoice};
use noisy_balance::noise::{
    AdvComp, AdvLoad, Batched, BoundedRho, ConstantRho, CorrectAll, DelayStrategy, Delayed,
    GBounded, GMyopic, MyopicRho, NoisyComp, PerturbStrategy, ReverseAll, UniformRandom,
};
use noisy_balance::processes::OneChoice;

/// A mid-run state with a variety of load differences.
fn test_state() -> LoadState {
    LoadState::from_loads(vec![12, 11, 11, 9, 7, 7, 6, 2, 0, 0])
}

#[test]
fn adv_comp_simulates_g_bounded() {
    // g-Bounded *is* AdvComp(g, ReverseAll): decision-for-decision.
    let state = test_state();
    let mut rng = Rng::from_seed(1);
    let mut generic = AdvComp::new(3, ReverseAll);
    let named = GBounded::new(3);
    for i1 in 0..state.n() {
        for i2 in 0..state.n() {
            let mut s1 = state.clone();
            let mut s2 = state.clone();
            let d1 = generic.decide(&s1, i1, i2, &mut rng);
            // Drive the named process through a forced sample pair by
            // comparing deciders directly.
            let d2 = named.decider().clone().decide(&s2, i1, i2, &mut rng);
            assert_eq!(d1, d2, "pair ({i1},{i2})");
            s1.allocate(d1);
            s2.allocate(d2);
        }
    }
}

#[test]
fn adv_comp_simulates_g_myopic_in_distribution() {
    // AdvComp(g, UniformRandom) is the definition of g-Myopic-Comp; check
    // the named wrapper agrees in distribution on a full run.
    let n = 500;
    let m = 20_000u64;
    let mut a = LoadState::new(n);
    let mut rng = Rng::from_seed(5);
    TwoChoice::new(AdvComp::new(4, UniformRandom)).run(&mut a, m, &mut rng);
    let mut b = LoadState::new(n);
    let mut rng = Rng::from_seed(5);
    GMyopic::new(4).run(&mut b, m, &mut rng);
    // Identical RNG consumption pattern ⇒ identical streams.
    assert_eq!(a.loads(), b.loads());
}

#[test]
fn noisy_comp_simulates_g_bounded_via_step_rho() {
    // Fig. 2.1: g-Bounded is an instance of ρ-Noisy-Comp with the step
    // function of Fig. 2.2(a). On unequal loads the decisions coincide
    // deterministically.
    let state = test_state();
    let mut rng = Rng::from_seed(2);
    let g = 3;
    let mut via_rho = NoisyComp::new(BoundedRho::new(g));
    let mut direct = AdvComp::new(g, ReverseAll);
    for i1 in 0..state.n() {
        for i2 in 0..state.n() {
            if state.load(i1) == state.load(i2) {
                continue; // both break ties arbitrarily/differently
            }
            assert_eq!(
                via_rho.decide(&state, i1, i2, &mut rng),
                direct.decide(&state, i1, i2, &mut rng),
                "pair ({i1},{i2})"
            );
        }
    }
}

#[test]
fn noisy_comp_simulates_g_myopic_via_step_rho() {
    // Statistical check: the MyopicRho instance of ρ-Noisy-Comp and
    // g-Myopic-Comp produce the same decision probabilities.
    use noisy_balance::core::DecisionProbability;
    let state = test_state();
    let g = 3;
    let via_rho = NoisyComp::new(MyopicRho::new(g));
    let direct = AdvComp::new(g, UniformRandom);
    for i1 in 0..state.n() {
        for i2 in 0..state.n() {
            let p1 = via_rho.prob_first(&state, i1, i2);
            let p2 = direct.prob_first(&state, i1, i2);
            assert!((p1 - p2).abs() < 1e-12, "pair ({i1},{i2}): {p1} vs {p2}");
        }
    }
}

#[test]
fn noisy_comp_simulates_one_choice_and_two_choice() {
    use noisy_balance::core::DecisionProbability;
    // ρ ≡ 1 is Two-Choice; ρ ≡ ½ is One-Choice (every bin equally likely
    // per pair). Verify via the exact per-pair probabilities.
    let state = test_state();
    let two = NoisyComp::new(ConstantRho::new(1.0));
    let one = NoisyComp::new(ConstantRho::new(0.5));
    for i1 in 0..state.n() {
        for i2 in 0..state.n() {
            // ρ ≡ ½: both samples equally likely.
            assert!((one.prob_first(&state, i1, i2) - 0.5).abs() < 1e-12);
            // ρ ≡ 1: the lighter bin wins surely (ties split evenly).
            let p = two.prob_first(&state, i1, i2);
            match state.load(i1).cmp(&state.load(i2)) {
                std::cmp::Ordering::Less => assert_eq!(p, 1.0),
                std::cmp::Ordering::Greater => assert_eq!(p, 0.0),
                std::cmp::Ordering::Equal => assert_eq!(p, 0.5),
            }
        }
    }
}

#[test]
fn two_g_adv_comp_simulates_g_adv_load() {
    // Fig. 2.1: g-Adv-Load → (g/2 arrow) — (2g)-Adv-Comp simulates
    // g-Adv-Load. Decision-level equality on non-tied pairs.
    let state = test_state();
    let mut rng = Rng::from_seed(3);
    let g = 2u64;
    let mut load_adv = AdvLoad::new(g, PerturbStrategy::Reverse);
    let mut comp_adv = AdvComp::new(2 * g, ReverseAll);
    for i1 in 0..state.n() {
        for i2 in 0..state.n() {
            if state.load(i1) == state.load(i2) {
                continue;
            }
            assert_eq!(
                load_adv.decide(&state, i1, i2, &mut rng),
                comp_adv.decide(&state, i1, i2, &mut rng)
            );
        }
    }
}

#[test]
fn tau_delay_simulates_b_batch_statistically() {
    // Fig. 2.1: b-Batch is an instance of τ-Delay with τ = b. The stalest
    // delay strategy and batching have the same staleness budget; their
    // gaps agree within statistical noise across seeds.
    let n = 1_000;
    let m = 30 * n as u64;
    let tau = n as u64;
    let runs = 8;
    let mut batch_total = 0.0;
    let mut delay_total = 0.0;
    for seed in 0..runs {
        let mut a = LoadState::new(n);
        let mut rng = Rng::from_seed(run_seed(100, seed));
        Batched::new(tau).run(&mut a, m, &mut rng);
        batch_total += a.gap();

        let mut b = LoadState::new(n);
        let mut rng = Rng::from_seed(run_seed(200, seed));
        Delayed::new(tau, DelayStrategy::Stalest).run(&mut b, m, &mut rng);
        delay_total += b.gap();
    }
    let batch_mean = batch_total / runs as f64;
    let delay_mean = delay_total / runs as f64;
    assert!(
        (batch_mean - delay_mean).abs() < 0.4 * batch_mean.max(2.0),
        "batch {batch_mean} vs stalest delay {delay_mean}"
    );
}

#[test]
fn adv_comp_with_correct_strategy_is_two_choice() {
    // The top of the hierarchy collapses back to Two-Choice when the
    // adversary is benign, for every g.
    for g in [0u64, 1, 5, 50] {
        let n = 200;
        let m = 5_000;
        let mut a = LoadState::new(n);
        let mut rng = Rng::from_seed(17);
        TwoChoice::new(AdvComp::new(g, CorrectAll)).run(&mut a, m, &mut rng);
        let mut b = LoadState::new(n);
        let mut rng = Rng::from_seed(17);
        TwoChoice::classic().run(&mut b, m, &mut rng);
        assert_eq!(a.loads(), b.loads(), "g = {g}");
    }
}

#[test]
fn one_choice_is_weakest_in_the_hierarchy() {
    // Everything in the hierarchy (being two-sample based with any
    // correctness at large differences) beats One-Choice at heavy load.
    let n = 800;
    let m = 60 * n as u64;
    let gap_of = |p: &mut dyn Process, seed: u64| {
        let mut state = LoadState::new(n);
        let mut rng = Rng::from_seed(seed);
        p.run(&mut state, m, &mut rng);
        state.gap()
    };
    let one = gap_of(&mut OneChoice::new(), 23);
    for (name, mut p) in [
        (
            "g-bounded(2)",
            Box::new(GBounded::new(2)) as Box<dyn Process>,
        ),
        ("g-myopic(2)", Box::new(GMyopic::new(2))),
        ("batched(n/2)", Box::new(Batched::new(n as u64 / 2))),
        (
            "delayed(n/2)",
            Box::new(Delayed::new(n as u64 / 2, DelayStrategy::AdversarialFlip)),
        ),
    ] {
        let gap = gap_of(p.as_mut(), 23);
        assert!(gap < one, "{name} gap {gap} should beat one-choice {one}");
    }
}
