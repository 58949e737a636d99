//! The batched-engine determinism contract, asserted end to end.
//!
//! `Process::run_batch` must be **bit-identical** to per-ball `allocate` at
//! every fixed seed: same final load vector (including all maintained
//! aggregates) and the same number of raw draws consumed from the
//! generator. This suite runs every registered process — every decider
//! class, both `batchable` and not, every tie rule, every staleness model
//! — against the per-ball reference, splitting the batched run at
//! arbitrary chunk boundaries, and compares the final `LoadState` **and**
//! the final `Rng` state.
//!
//! A process that pre-draws samples it does not consume, reorders draws
//! relative to its per-ball body, or reads a stale aggregate inside a
//! deferred-aggregate batch fails here.

use balloc_core::{Decider, LoadState, PerfectDecider, Process, Rng, TieBreak, TwoChoice};
use balloc_noise::{
    AdvComp, AdvLoad, Batched, CorrectAll, DelayStrategy, Delayed, GBounded, GMyopic,
    GaussianLoadDecider, OverloadSeeking, PerturbStrategy, ReverseAll, ReverseWithProbability,
    SigmaNoisyLoad, UniformRandom,
};
use balloc_processes::{AlwaysHeavier, DChoice, OneChoice, OnePlusBeta};
use proptest::prelude::*;

/// A decider that knows each sample only as below, or at or above, the
/// midpoint of `[min_load, max_load]`, and flips a coin between samples
/// on the same side. It reads the aggregates that a deferred-aggregate
/// batch leaves stale, so it is not batchable and must run per ball.
#[derive(Debug)]
struct Bracketed;

impl Decider for Bracketed {
    fn decide(&mut self, state: &LoadState, i1: usize, i2: usize, rng: &mut Rng) -> usize {
        let (lo, hi) = (state.min_load(), state.max_load());
        let mid = lo + (hi - lo) / 2;
        match (state.load(i1) < mid, state.load(i2) < mid) {
            (true, false) => i1,
            (false, true) => i2,
            _ if rng.coin() => i1,
            _ => i2,
        }
    }

    fn batchable(&self) -> bool {
        false
    }
}

/// A registered process: name plus a factory building it for `n` bins.
type Entry = (&'static str, fn(usize) -> Box<dyn Process>);

fn registry() -> Vec<Entry> {
    vec![
        ("one_choice", |_| Box::new(OneChoice::new())),
        ("two_choice_first", |_| Box::new(TwoChoice::classic())),
        ("two_choice_random_ties", |_| {
            Box::new(TwoChoice::classic_random_ties())
        }),
        ("two_choice_lowest_index", |_| {
            Box::new(TwoChoice::new(PerfectDecider::new(TieBreak::LowestIndex)))
        }),
        ("two_choice_always_heavier", |_| {
            Box::new(TwoChoice::new(AlwaysHeavier))
        }),
        ("d_choice_1", |_| Box::new(DChoice::classic(1))),
        ("d_choice_2", |_| Box::new(DChoice::classic(2))),
        ("d_choice_4", |_| Box::new(DChoice::classic(4))),
        ("d_choice_3_bounded", |_| {
            Box::new(DChoice::with_decider(3, AdvComp::new(2, ReverseAll)))
        }),
        ("d_choice_3_myopic", |_| {
            Box::new(DChoice::with_decider(3, AdvComp::new(2, UniformRandom)))
        }),
        ("one_plus_beta_0", |_| Box::new(OnePlusBeta::new(0.0))),
        ("one_plus_beta_0.6", |_| Box::new(OnePlusBeta::new(0.6))),
        ("one_plus_beta_1", |_| Box::new(OnePlusBeta::new(1.0))),
        ("one_plus_beta_0.5_heavier", |_| {
            Box::new(OnePlusBeta::with_decider(0.5, AlwaysHeavier))
        }),
        ("g_bounded_0", |_| Box::new(GBounded::new(0))),
        ("g_bounded_3", |_| Box::new(GBounded::new(3))),
        ("g_bounded_16", |_| Box::new(GBounded::new(16))),
        ("g_myopic_3", |_| Box::new(GMyopic::new(3))),
        ("adv_comp_overload_seeking", |_| {
            Box::new(TwoChoice::new(AdvComp::new(3, OverloadSeeking)))
        }),
        ("adv_comp_correct_all", |_| {
            Box::new(TwoChoice::new(AdvComp::new(2, CorrectAll)))
        }),
        ("adv_comp_reverse_p0", |_| {
            Box::new(TwoChoice::new(AdvComp::new(
                2,
                ReverseWithProbability::new(0.0),
            )))
        }),
        ("adv_comp_reverse_p0.3", |_| {
            Box::new(TwoChoice::new(AdvComp::new(
                2,
                ReverseWithProbability::new(0.3),
            )))
        }),
        ("adv_comp_reverse_p1", |_| {
            Box::new(TwoChoice::new(AdvComp::new(
                2,
                ReverseWithProbability::new(1.0),
            )))
        }),
        ("adv_load_reverse_2", |_| {
            Box::new(TwoChoice::new(AdvLoad::new(2, PerturbStrategy::Reverse)))
        }),
        ("adv_load_uniform_2", |_| {
            Box::new(TwoChoice::new(AdvLoad::new(2, PerturbStrategy::Uniform)))
        }),
        ("sigma_noisy_load_3", |_| Box::new(SigmaNoisyLoad::new(3.0))),
        ("gaussian_load_2", |_| {
            Box::new(TwoChoice::new(GaussianLoadDecider::new(2.0)))
        }),
        ("bracketed_comp", |_| Box::new(TwoChoice::new(Bracketed))),
        ("batched_1", |_| Box::new(Batched::new(1))),
        ("batched_5", |_| Box::new(Batched::new(5))),
        ("batched_n", |n| Box::new(Batched::new(n as u64))),
        ("batched_4_first_sample_ties", |_| {
            Box::new(Batched::with_tie_break(4, TieBreak::FirstSample))
        }),
        ("delayed_1_stalest", |_| {
            Box::new(Delayed::new(1, DelayStrategy::Stalest))
        }),
        ("delayed_3_stalest", |_| {
            Box::new(Delayed::new(3, DelayStrategy::Stalest))
        }),
        ("delayed_n_freshest", |n| {
            Box::new(Delayed::new(n as u64, DelayStrategy::Freshest))
        }),
        ("delayed_n_flip", |n| {
            Box::new(Delayed::new(n as u64, DelayStrategy::AdversarialFlip))
        }),
        ("delayed_n_random_in_window", |n| {
            Box::new(Delayed::new(n as u64, DelayStrategy::RandomInWindow))
        }),
    ]
}

/// Runs `steps` balls per-ball, then batched (split at the given chunk
/// boundaries), and asserts both end states — loads *and* generator — are
/// identical.
fn assert_equivalent(
    name: &str,
    factory: fn(usize) -> Box<dyn Process>,
    n: usize,
    steps: u64,
    seed: u64,
    splits: &[u64],
) -> Result<(), TestCaseError> {
    let mut reference = factory(n);
    reference.reset();
    let mut ref_state = LoadState::new(n);
    let mut ref_rng = Rng::from_seed(seed);
    for _ in 0..steps {
        reference.allocate(&mut ref_state, &mut ref_rng);
    }

    let mut batched = factory(n);
    batched.reset();
    let mut batch_state = LoadState::new(n);
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
        n,
        steps,
        seed,
        splits
    );
    prop_assert_eq!(
        &ref_rng,
        &batch_rng,
        "{}: rng states diverged (n = {}, steps = {}, seed = {}, splits = {:?})",
        name,
        n,
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
