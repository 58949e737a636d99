//! The lane-engine determinism contract, asserted end to end.
//!
//! `LaneProcess::run_lanes` must be **bit-identical** to the canonical
//! scalar reference [`run_lanes_reference`] — ball `t` allocated per-ball
//! through lane `t mod K` — at every fixed master seed: same final load
//! vector (including all maintained aggregates) and the same final state of
//! **every** lane of the interleaved generator. This suite runs every
//! lane-enabled process — each tie rule of `TwoChoice` (batchable and the
//! `Random`-tie fallback), `TwoChoice` under the fixed-rule `g-Adv-Comp`
//! adversaries, `DChoice` across tournament widths, `OneChoice` —
//! at lane widths K ∈ {1, 4, 8, 16}, splitting runs at arbitrary chunk
//! boundaries (K-aligned and not), and compares both end states.
//!
//! A kernel that reorders draws *within* a lane, draws from the wrong lane,
//! places balls out of lane order within a group, or lets its decide pass
//! read loads that are missing an earlier placement of the same group fails
//! here.
//!
//! The suite also pins the other half of the versioned seeding contract:
//! under `SeedScheme::V1` (K = 1, the frozen stream) the lane engine is
//! byte-identical to the scalar engine seeded with `Rng::from_seed(master)`.

use balloc_core::rng::{LaneRng, SeedScheme};
use balloc_core::{
    run_lanes_reference, LaneProcess, LoadState, PerfectDecider, Process, Rng, TieBreak, TwoChoice,
};
use balloc_noise::{AdvComp, CorrectAll, ReverseAll};
use balloc_processes::{DChoice, OneChoice};
use proptest::prelude::*;

/// Runs `steps` balls through the kernel (split at the given chunk
/// boundaries) and through the scalar reference (split identically — each
/// `run_lanes` call defines its own lane rotation, so the reference must
/// observe the same call boundaries), then asserts both end states — loads
/// *and* all K lane generators — are identical.
fn assert_lane_equivalent<const K: usize, P: LaneProcess<K>>(
    name: &str,
    mut kernel: P,
    mut reference: P,
    n: usize,
    steps: u64,
    seed: u64,
    splits: &[u64],
) -> Result<(), TestCaseError> {
    kernel.reset();
    reference.reset();
    let mut kernel_state = LoadState::new(n);
    let mut reference_state = LoadState::new(n);
    let mut kernel_lanes = LaneRng::<K>::new(SeedScheme::V2, seed);
    let mut reference_lanes = LaneRng::<K>::new(SeedScheme::V2, seed);
    let mut left = steps;
    for &chunk in splits {
        let chunk = chunk.min(left);
        kernel.run_lanes(&mut kernel_state, chunk, &mut kernel_lanes);
        run_lanes_reference(&mut reference, &mut reference_state, chunk, &mut reference_lanes);
        left -= chunk;
    }
    kernel.run_lanes(&mut kernel_state, left, &mut kernel_lanes);
    run_lanes_reference(&mut reference, &mut reference_state, left, &mut reference_lanes);

    prop_assert_eq!(
        &kernel_state,
        &reference_state,
        "{}: load states diverged (K = {}, n = {}, steps = {}, seed = {}, splits = {:?})",
        name,
        K,
        n,
        steps,
        seed,
        splits
    );
    prop_assert_eq!(
        &kernel_lanes,
        &reference_lanes,
        "{}: lane generator states diverged (K = {}, n = {}, steps = {}, seed = {}, splits = {:?})",
        name,
        K,
        n,
        steps,
        seed,
        splits
    );
    Ok(())
}

/// Every lane-enabled process at one lane width.
fn check_all_processes<const K: usize>(
    n: usize,
    steps: u64,
    seed: u64,
    splits: &[u64],
) -> Result<(), TestCaseError> {
    assert_lane_equivalent::<K, _>(
        "two_choice_first",
        TwoChoice::classic(),
        TwoChoice::classic(),
        n,
        steps,
        seed,
        splits,
    )?;
    assert_lane_equivalent::<K, _>(
        "two_choice_lowest_index",
        TwoChoice::new(PerfectDecider::new(TieBreak::LowestIndex)),
        TwoChoice::new(PerfectDecider::new(TieBreak::LowestIndex)),
        n,
        steps,
        seed,
        splits,
    )?;
    // Random ties are not batchable: exercises the round-robin fallback
    // (which must still consume the per-ball draw interleaving per lane).
    assert_lane_equivalent::<K, _>(
        "two_choice_random_ties",
        TwoChoice::classic_random_ties(),
        TwoChoice::classic_random_ties(),
        n,
        steps,
        seed,
        splits,
    )?;
    for d in [1u32, 2, 3, 5] {
        assert_lane_equivalent::<K, _>(
            "d_choice",
            DChoice::classic(d),
            DChoice::classic(d),
            n,
            steps,
            seed,
            splits,
        )?;
    }
    // Fixed-rule adversaries: branchless decide, deferred ball counting.
    for (name, g) in [("g_bounded_0", 0u64), ("g_bounded_16", 16)] {
        assert_lane_equivalent::<K, _>(
            name,
            TwoChoice::new(AdvComp::new(g, ReverseAll)),
            TwoChoice::new(AdvComp::new(g, ReverseAll)),
            n,
            steps,
            seed,
            splits,
        )?;
    }
    assert_lane_equivalent::<K, _>(
        "adv_comp_correct_all",
        TwoChoice::new(AdvComp::new(2, CorrectAll)),
        TwoChoice::new(AdvComp::new(2, CorrectAll)),
        n,
        steps,
        seed,
        splits,
    )?;
    assert_lane_equivalent::<K, _>(
        "one_choice",
        OneChoice::new(),
        OneChoice::new(),
        n,
        steps,
        seed,
        splits,
    )?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every lane-enabled process, every lane width: kernel ≡ scalar V2
    /// reference across random seeds, bin counts, run lengths and
    /// chunkings. Lengths straddle both the kernel's batch threshold
    /// (steps ⩾ n) and K-alignment (tail balls) in both directions.
    #[test]
    fn lane_kernels_equal_scalar_reference_for_every_width(
        seed in any::<u64>(),
        n in 2usize..48,
        steps in 0u64..1_200,
        splits in proptest::collection::vec(1u64..500, 0..3),
    ) {
        check_all_processes::<1>(n, steps, seed, &splits)?;
        check_all_processes::<4>(n, steps, seed, &splits)?;
        check_all_processes::<8>(n, steps, seed, &splits)?;
        check_all_processes::<16>(n, steps, seed, &splits)?;
    }

    /// The V1 half of the versioned seeding contract: a single-lane engine
    /// under the frozen scheme is byte-identical to the scalar per-ball
    /// engine at the same seed — loads and generator state.
    #[test]
    fn v1_single_lane_equals_frozen_scalar_engine(
        seed in any::<u64>(),
        n in 2usize..48,
        steps in 0u64..1_200,
    ) {
        let mut lane_state = LoadState::new(n);
        let mut lanes = LaneRng::<1>::new(SeedScheme::V1, seed);
        TwoChoice::classic().run_lanes(&mut lane_state, steps, &mut lanes);

        let mut scalar_state = LoadState::new(n);
        let mut rng = Rng::from_seed(seed);
        let mut process = TwoChoice::classic();
        for _ in 0..steps {
            process.allocate(&mut scalar_state, &mut rng);
        }

        prop_assert_eq!(&lane_state, &scalar_state);
        prop_assert_eq!(lanes.lane(0), rng);
    }
}

/// Deterministic spot-check that the suite itself can fail: a "kernel"
/// that draws its two candidates from the wrong lane order must be caught
/// by the lane-generator comparison.
#[test]
fn harness_detects_lane_stream_divergence() {
    struct WrongLane;
    impl Process for WrongLane {
        fn allocate(&mut self, state: &mut LoadState, rng: &mut Rng) -> usize {
            let i = rng.below_usize(state.n());
            state.allocate(i);
            i
        }
    }
    impl LaneProcess<2> for WrongLane {
        fn run_lanes(&mut self, state: &mut LoadState, steps: u64, lanes: &mut LaneRng<2>) {
            for t in 0..steps {
                // Rotation reversed: ball t draws from lane (t + 1) mod 2.
                let k = ((t + 1) % 2) as usize;
                lanes.with_lane(k, |rng| {
                    self.allocate(state, rng);
                });
            }
        }
    }

    // Odd step count: the reversed rotation gives lane 1 five draws and
    // lane 0 four, where the reference does the opposite. (At even counts
    // the reversal is a pure relabeling — draw counts match per lane and
    // the same multiset of bins is placed — so nothing can detect it.)
    let (n, steps, seed) = (8usize, 9u64, 5u64);
    let mut cheater_state = LoadState::new(n);
    let mut cheater_lanes = LaneRng::<2>::new(SeedScheme::V2, seed);
    WrongLane.run_lanes(&mut cheater_state, steps, &mut cheater_lanes);

    let mut reference_state = LoadState::new(n);
    let mut reference_lanes = LaneRng::<2>::new(SeedScheme::V2, seed);
    run_lanes_reference(&mut WrongLane, &mut reference_state, steps, &mut reference_lanes);

    assert_ne!(
        cheater_lanes, reference_lanes,
        "the reversed rotation must desynchronize the lane generators"
    );
}
