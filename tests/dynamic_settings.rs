//! Integration tests for the dynamic substrates (repeated balls-into-bins
//! and stale-information queueing) composed with the noisy processes.

use noisy_balance::core::{LoadState, Rng, TwoChoice};
use noisy_balance::dynamic::{JoinPolicy, RepeatedBalls, Supermarket};
use noisy_balance::noise::{Batched, GBounded, GMyopic, SigmaNoisyLoad};
use noisy_balance::sim::initial;

#[test]
fn repeated_balls_with_every_noisy_process_conserves_and_stabilizes() {
    let n = 300;
    let start = initial::tower(n, 3, 120);

    // Each reinsertion policy must conserve balls and end with a small gap.
    let total = start.balls();
    let run_with = |mut process: Box<dyn noisy_balance::core::Process>, seed: u64| -> f64 {
        let mut state = start.clone();
        let mut rng = Rng::from_seed(seed);
        let mut repeated = RepeatedBalls::new();
        repeated.run(&mut state, &mut process, 500, &mut rng);
        assert_eq!(state.balls(), total, "population must be conserved");
        state.gap()
    };

    let two = run_with(Box::new(TwoChoice::classic()), 1);
    let bounded = run_with(Box::new(GBounded::new(2)), 2);
    let myopic = run_with(Box::new(GMyopic::new(2)), 3);
    let noisy = run_with(Box::new(SigmaNoisyLoad::new(2.0)), 4);
    let batched = run_with(Box::new(Batched::new(64)), 5);

    for (name, gap) in [
        ("two-choice", two),
        ("g-bounded", bounded),
        ("g-myopic", myopic),
        ("sigma-noisy", noisy),
        ("batched", batched),
    ] {
        assert!(
            gap < 25.0,
            "{name} repeated process failed to stabilize: gap {gap}"
        );
    }
    // Noise costs something: noiseless equilibrium is the best (allowing
    // statistical slack).
    assert!(two <= bounded + 2.0);
}

#[test]
fn queueing_with_two_choice_is_stable_where_random_struggles() {
    let n = 400;
    let mut two = Supermarket::new(n, 0.85, 0.92, JoinPolicy::TwoChoice);
    let mut rng = Rng::from_seed(42);
    two.run(3_000, &mut rng);

    let mut random = Supermarket::new(n, 0.85, 0.92, JoinPolicy::Random);
    let mut rng = Rng::from_seed(42);
    random.run(3_000, &mut rng);

    assert!(two.metrics().average_jobs() < random.metrics().average_jobs());
    assert!(two.metrics().max_queue <= random.metrics().max_queue);
}

#[test]
fn queueing_staleness_interpolates_between_live_and_herding() {
    let n = 300;
    let lambda = 0.7;
    let mu = 0.9;
    let slots = 3_000;
    let measure = |policy, seed| {
        let mut market = Supermarket::new(n, lambda, mu, policy);
        let mut rng = Rng::from_seed(seed);
        market.run(slots, &mut rng);
        market.metrics().average_jobs()
    };
    let live = measure(JoinPolicy::TwoChoice, 7);
    let mild = measure(JoinPolicy::TwoChoiceStale { update_period: 5 }, 7);
    let herded = measure(
        JoinPolicy::TwoChoiceStale {
            update_period: 1_500,
        },
        7,
    );
    assert!(
        live < mild,
        "staleness must cost something: {live} vs {mild}"
    );
    assert!(
        mild < herded,
        "more staleness must cost more: {mild} vs {herded}"
    );
}

#[test]
fn recovery_followed_by_repeated_rounds_keeps_equilibrium() {
    // Compose the pieces: recover a corrupted vector with sequential
    // allocation, then hold it with repeated balls-into-bins.
    let n = 200;
    let mut state = initial::cliff(n, n / 5, 40, 10);
    let mut rng = Rng::from_seed(9);
    let mut process = TwoChoice::classic();
    // Recovery via plain allocation.
    noisy_balance::sim::run_on_state(
        &mut process,
        &mut state,
        80 * n as u64,
        noisy_balance::sim::Checkpoints::None,
        &mut rng,
    );
    let after_recovery = state.gap();
    assert!(after_recovery < 8.0, "recovery failed: {after_recovery}");
    // Equilibrium maintenance via repeated rounds.
    let mut repeated = RepeatedBalls::new();
    repeated.run(&mut state, &mut process, 200, &mut rng);
    assert!(
        state.gap() < 8.0,
        "repeated rounds should hold the equilibrium: {}",
        state.gap()
    );
}

#[test]
fn supermarket_and_batch_allocation_agree_qualitatively() {
    // The supermarket with update period T sees ≈ T·λ·n arrivals between
    // refreshes — the b-Batch regime with b ≈ T·λ·n. Check that queue
    // imbalance (max − mean queue) and the b-Batch gap move together.
    let n = 500;
    let lambda = 0.8;
    let t_small = 2u64;
    let t_large = 200u64;
    let measure_imbalance = |t: u64| {
        let mut market = Supermarket::new(
            n,
            lambda,
            0.95,
            JoinPolicy::TwoChoiceStale { update_period: t },
        );
        let mut rng = Rng::from_seed(11);
        market.run(2_000, &mut rng);
        let queues = market.queues().to_vec();
        let max = *queues.iter().max().unwrap() as f64;
        let mean = queues.iter().sum::<u64>() as f64 / n as f64;
        max - mean
    };
    let small = measure_imbalance(t_small);
    let large = measure_imbalance(t_large);
    assert!(
        large > small,
        "more staleness should mean more imbalance: {small} vs {large}"
    );

    // And the allocation-side counterpart.
    let gap_of_batch = |b: u64| {
        let mut state = LoadState::new(n);
        let mut rng = Rng::from_seed(11);
        use noisy_balance::core::Process;
        Batched::new(b).run(&mut state, 50 * n as u64, &mut rng);
        state.gap()
    };
    let b_small = gap_of_batch(t_small * (lambda * n as f64) as u64);
    let b_large = gap_of_batch(t_large * (lambda * n as f64) as u64);
    assert!(b_large > b_small);
}

#[test]
fn batched_and_delayed_resync_after_external_modification() {
    // Regression test: interleaving external deallocations (as repeated
    // balls-into-bins does) must not corrupt the internal staleness
    // bookkeeping of Batched/Delayed.
    use noisy_balance::core::Process;
    use noisy_balance::noise::DelayStrategy;
    let n = 32;
    let mut state = LoadState::from_loads(vec![4u64; n]);
    let mut rng = Rng::from_seed(99);
    let mut batched = Batched::new(8);
    let mut delayed = noisy_balance::noise::Delayed::new(8, DelayStrategy::Stalest);
    for round in 0..200 {
        // External modification: remove a ball from a bin the processes
        // did not observe.
        let victim = round % n;
        if state.load(victim) > 0 {
            state.deallocate(victim);
        }
        batched.allocate(&mut state, &mut rng);
        delayed.allocate(&mut state, &mut rng);
    }
    let total: u64 = state.loads().iter().sum();
    assert_eq!(total, state.balls());
}
