//! The batched-engine determinism contract, asserted end to end.
//!
//! `Process::run_batch` must be **bit-identical** to per-ball `allocate` at
//! every fixed seed: same final load vector (including all maintained
//! aggregates) and the same number of raw draws consumed from the
//! generator. This suite runs every registered process — every decider
//! class, both `batchable` and not, every tie rule, every topology, every
//! staleness model — against the per-ball reference, splitting the batched
//! run at arbitrary chunk boundaries, and compares the final `LoadState`
//! **and** the final `Rng` state.
//!
//! A process that pre-draws samples it does not consume, reorders draws
//! relative to its per-ball body, or reads a stale aggregate inside a
//! deferred-aggregate batch fails here.

use balloc_core::{LoadState, PerfectDecider, Process, Rng, TieBreak, TwoChoice};
use balloc_noise::{
    AdvComp, AdvLoad, Batched, CorrectAll, DelayStrategy, Delayed, GBounded, GMyopic,
    GaussianLoadDecider, NoisyMeanThinning, OverloadSeeking, PerturbStrategy, QueryComp,
    ReverseAll, ReverseWithProbability, SigmaNoisyLoad, ThresholdNoise, UniformRandom,
};
use balloc_processes::{
    AlwaysFirst, AlwaysHeavier, DChoice, GraphicalTwoChoice, MeanThinning, NonUniformTwoChoice,
    OneChoice, OnePlusBeta, Topology, TwoThinning,
};
use proptest::prelude::*;

/// A registered process: name plus a factory building it for `n` bins.
/// The factory returns the effective bin count (topologies with structural
/// constraints may adjust it) together with the process.
type Entry = (&'static str, fn(usize) -> (usize, Box<dyn Process>));

fn registry() -> Vec<Entry> {
    fn nonuniform_weights(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + (i % 3) as f64 * 0.4).collect()
    }
    vec![
        ("one_choice", |n| (n, Box::new(OneChoice::new()))),
        ("two_choice_first", |n| (n, Box::new(TwoChoice::classic()))),
        ("two_choice_random_ties", |n| {
            (n, Box::new(TwoChoice::classic_random_ties()))
        }),
        ("two_choice_lowest_index", |n| {
            (
                n,
                Box::new(TwoChoice::new(PerfectDecider::new(TieBreak::LowestIndex))),
            )
        }),
        ("two_choice_always_first", |n| {
            (n, Box::new(TwoChoice::new(AlwaysFirst)))
        }),
        ("two_choice_always_heavier", |n| {
            (n, Box::new(TwoChoice::new(AlwaysHeavier)))
        }),
        ("d_choice_1", |n| (n, Box::new(DChoice::classic(1)))),
        ("d_choice_2", |n| (n, Box::new(DChoice::classic(2)))),
        ("d_choice_4", |n| (n, Box::new(DChoice::classic(4)))),
        ("d_choice_3_bounded", |n| {
            (
                n,
                Box::new(DChoice::with_decider(3, AdvComp::new(2, ReverseAll))),
            )
        }),
        ("d_choice_3_myopic", |n| {
            (
                n,
                Box::new(DChoice::with_decider(3, AdvComp::new(2, UniformRandom))),
            )
        }),
        ("one_plus_beta_0", |n| (n, Box::new(OnePlusBeta::new(0.0)))),
        ("one_plus_beta_0.6", |n| {
            (n, Box::new(OnePlusBeta::new(0.6)))
        }),
        ("one_plus_beta_1", |n| (n, Box::new(OnePlusBeta::new(1.0)))),
        ("one_plus_beta_0.5_heavier", |n| {
            (n, Box::new(OnePlusBeta::with_decider(0.5, AlwaysHeavier)))
        }),
        ("mean_thinning", |n| (n, Box::new(MeanThinning::new()))),
        ("two_thinning_0", |n| (n, Box::new(TwoThinning::new(0.0)))),
        ("two_thinning_1.5", |n| (n, Box::new(TwoThinning::new(1.5)))),
        ("two_thinning_neg2", |n| {
            (n, Box::new(TwoThinning::new(-2.0)))
        }),
        ("g_bounded_0", |n| (n, Box::new(GBounded::new(0)))),
        ("g_bounded_3", |n| (n, Box::new(GBounded::new(3)))),
        ("g_bounded_16", |n| (n, Box::new(GBounded::new(16)))),
        ("g_myopic_3", |n| (n, Box::new(GMyopic::new(3)))),
        ("adv_comp_overload_seeking", |n| {
            (
                n,
                Box::new(TwoChoice::new(AdvComp::new(3, OverloadSeeking))),
            )
        }),
        ("adv_comp_correct_all", |n| {
            (n, Box::new(TwoChoice::new(AdvComp::new(2, CorrectAll))))
        }),
        ("adv_comp_reverse_p0", |n| {
            (
                n,
                Box::new(TwoChoice::new(AdvComp::new(
                    2,
                    ReverseWithProbability::new(0.0),
                ))),
            )
        }),
        ("adv_comp_reverse_p0.3", |n| {
            (
                n,
                Box::new(TwoChoice::new(AdvComp::new(
                    2,
                    ReverseWithProbability::new(0.3),
                ))),
            )
        }),
        ("adv_comp_reverse_p1", |n| {
            (
                n,
                Box::new(TwoChoice::new(AdvComp::new(
                    2,
                    ReverseWithProbability::new(1.0),
                ))),
            )
        }),
        ("adv_load_reverse_2", |n| {
            (
                n,
                Box::new(TwoChoice::new(AdvLoad::new(2, PerturbStrategy::Reverse))),
            )
        }),
        ("adv_load_uniform_2", |n| {
            (
                n,
                Box::new(TwoChoice::new(AdvLoad::new(2, PerturbStrategy::Uniform))),
            )
        }),
        ("sigma_noisy_load_3", |n| {
            (n, Box::new(SigmaNoisyLoad::new(3.0)))
        }),
        ("gaussian_load_2", |n| {
            (n, Box::new(TwoChoice::new(GaussianLoadDecider::new(2.0))))
        }),
        ("query_comp_3", |n| {
            (n, Box::new(TwoChoice::new(QueryComp::new(3))))
        }),
        ("batched_1", |n| (n, Box::new(Batched::new(1)))),
        ("batched_5", |n| (n, Box::new(Batched::new(5)))),
        ("batched_n", |n| (n, Box::new(Batched::new(n as u64)))),
        ("batched_4_first_sample_ties", |n| {
            (
                n,
                Box::new(Batched::with_tie_break(4, TieBreak::FirstSample)),
            )
        }),
        ("delayed_1_stalest", |n| {
            (n, Box::new(Delayed::new(1, DelayStrategy::Stalest)))
        }),
        ("delayed_3_stalest", |n| {
            (n, Box::new(Delayed::new(3, DelayStrategy::Stalest)))
        }),
        ("delayed_n_freshest", |n| {
            (n, Box::new(Delayed::new(n as u64, DelayStrategy::Freshest)))
        }),
        ("delayed_n_flip", |n| {
            (
                n,
                Box::new(Delayed::new(n as u64, DelayStrategy::AdversarialFlip)),
            )
        }),
        ("delayed_n_random_in_window", |n| {
            (
                n,
                Box::new(Delayed::new(n as u64, DelayStrategy::RandomInWindow)),
            )
        }),
        ("noisy_mean_thinning_g0", |n| {
            (
                n,
                Box::new(NoisyMeanThinning::new(ThresholdNoise::Gaussian(0.0))),
            )
        }),
        ("noisy_mean_thinning_g2", |n| {
            (
                n,
                Box::new(NoisyMeanThinning::new(ThresholdNoise::Gaussian(2.0))),
            )
        }),
        ("noisy_mean_thinning_adv3", |n| {
            (
                n,
                Box::new(NoisyMeanThinning::new(ThresholdNoise::Adversarial(3))),
            )
        }),
        ("graphical_cycle", |n| {
            (n, Box::new(GraphicalTwoChoice::classic(Topology::Cycle)))
        }),
        ("graphical_complete", |n| {
            (n, Box::new(GraphicalTwoChoice::classic(Topology::Complete)))
        }),
        ("graphical_hypercube", |n| {
            // The hypercube needs n = 2^d; round down to keep it valid.
            let n = usize::max(2, n.next_power_of_two() / 2);
            (
                n,
                Box::new(GraphicalTwoChoice::classic(Topology::Hypercube)),
            )
        }),
        ("graphical_complete_reversed", |n| {
            (
                n,
                Box::new(GraphicalTwoChoice::with_decider(
                    Topology::Complete,
                    AdvComp::new(2, ReverseAll),
                )),
            )
        }),
        ("nonuniform_two_choice", |n| {
            (
                n,
                Box::new(NonUniformTwoChoice::classic(&nonuniform_weights(n))),
            )
        }),
        ("nonuniform_always_heavier", |n| {
            (
                n,
                Box::new(NonUniformTwoChoice::with_decider(
                    &nonuniform_weights(n),
                    AlwaysHeavier,
                )),
            )
        }),
    ]
}

/// Runs `steps` balls per-ball, then batched (split at the given chunk
/// boundaries), and asserts both end states — loads *and* generator — are
/// identical.
fn assert_equivalent(
    name: &str,
    factory: fn(usize) -> (usize, Box<dyn Process>),
    n: usize,
    steps: u64,
    seed: u64,
    splits: &[u64],
) -> Result<(), TestCaseError> {
    let (n_eff, mut reference) = factory(n);
    reference.reset();
    let mut ref_state = LoadState::new(n_eff);
    let mut ref_rng = Rng::from_seed(seed);
    for _ in 0..steps {
        reference.allocate(&mut ref_state, &mut ref_rng);
    }

    let (_, mut batched) = factory(n);
    batched.reset();
    let mut batch_state = LoadState::new(n_eff);
    let mut batch_rng = Rng::from_seed(seed);
    let mut left = steps;
    for &chunk in splits {
        let chunk = chunk.min(left);
        batched.run_batch(&mut batch_state, chunk, &mut batch_rng);
        left -= chunk;
    }
    batched.run_batch(&mut batch_state, left, &mut batch_rng);

    prop_assert_eq!(
        &ref_state,
        &batch_state,
        "{}: load states diverged (n = {}, steps = {}, seed = {}, splits = {:?})",
        name,
        n_eff,
        steps,
        seed,
        splits
    );
    prop_assert_eq!(
        &ref_rng,
        &batch_rng,
        "{}: rng states diverged (n = {}, steps = {}, seed = {}, splits = {:?})",
        name,
        n_eff,
        steps,
        seed,
        splits
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every registered process: batched ≡ per-ball, across random seeds,
    /// bin counts, run lengths and chunkings. Run lengths straddle the
    /// deferred-aggregate threshold (steps ⩾ n) in both directions.
    #[test]
    fn run_batch_equals_per_ball_for_every_process(
        seed in any::<u64>(),
        n in 2usize..48,
        steps in 0u64..1_500,
        splits in proptest::collection::vec(1u64..700, 0..4),
    ) {
        for (name, factory) in registry() {
            assert_equivalent(name, factory, n, steps, seed, &splits)?;
        }
    }

    /// Long runs on few bins: the deferred-aggregate path is entered with
    /// steps ≫ n, many min-level transitions happen inside one batch scope,
    /// and a mid-run split lands at an odd boundary between two scopes.
    #[test]
    fn long_runs_stress_the_deferred_aggregate_path(
        seed in any::<u64>(),
        steps in 4_000u64..9_000,
    ) {
        for name in [
            "two_choice_first",
            "one_choice",
            "d_choice_4",
            "g_bounded_0",
            "g_bounded_3",
            "batched_5",
            "batched_n",
        ] {
            let (_, factory) = registry()
                .into_iter()
                .find(|(k, _)| *k == name)
                .expect("registered");
            assert_equivalent(name, factory, 5, steps, seed, &[4_099])?;
        }
    }
}

/// Deterministic spot-check that the suite itself can fail: a process whose
/// `run_batch` draws one extra value must be caught by the rng comparison.
#[test]
fn harness_detects_stream_divergence() {
    struct Cheater;
    impl Process for Cheater {
        fn allocate(&mut self, state: &mut LoadState, rng: &mut Rng) -> usize {
            let i = rng.below_usize(state.n());
            state.allocate(i);
            i
        }
        fn run_batch(&mut self, state: &mut LoadState, steps: u64, rng: &mut Rng) {
            for _ in 0..steps {
                self.allocate(state, rng);
            }
            let _ = rng.next_u64(); // over-draw: must be detected
        }
    }
    let mut a_rng = Rng::from_seed(1);
    let mut b_rng = Rng::from_seed(1);
    let mut a = LoadState::new(4);
    let mut b = LoadState::new(4);
    let mut p = Cheater;
    for _ in 0..10 {
        p.allocate(&mut a, &mut a_rng);
    }
    p.run_batch(&mut b, 10, &mut b_rng);
    assert_eq!(a, b, "loads should agree for the cheater");
    assert_ne!(a_rng, b_rng, "the extra draw must desynchronize the rng");
}
