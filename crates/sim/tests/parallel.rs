//! Property-based tests for thread-count invariance and the
//! seed-derivation contract, plus regressions for the scheduling bugfixes.

use std::collections::HashSet;

use balloc_core::rng::{point_seed, run_seed};
use balloc_core::TwoChoice;
use balloc_noise::Batched;
use balloc_sim::{initial, run_on_state, run_traced, sweep, Checkpoints, RunConfig, SweepPoint};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Derived seeds never collide across a realistic sweep grid: every
    /// (point, run) pair of a sweep gets a distinct run seed, the point
    /// masters are distinct, and the two derivation layers never alias.
    #[test]
    fn seed_derivation_is_collision_free_on_small_grids(base in any::<u64>()) {
        let mut seen = HashSet::new();
        for j in 0..8u64 {
            let master = point_seed(base, j);
            prop_assert!(seen.insert(master), "point master collision at j = {}", j);
            for i in 0..16u64 {
                prop_assert!(
                    seen.insert(run_seed(master, i)),
                    "run seed collision at (j, i) = ({}, {})", j, i
                );
            }
        }
        // Plain `repeat` seeds (no point layer) stay disjoint too.
        for i in 0..16u64 {
            prop_assert!(seen.insert(run_seed(base, i)), "repeat seed collision at i = {}", i);
        }
    }
}

/// Sweeps schedule the whole `params × runs` grid on the pool; every run
/// result must be byte-identical to `threads = 1`. A sweep records no
/// traces; traced runs go through `run_traced`, on the same driver.
#[test]
fn sweep_is_identical_across_thread_counts_including_traces() {
    let params = [1.0, 2.0, 3.0];
    let base = RunConfig::new(48, 480, 41);
    let sweep_at = |threads: usize| -> Vec<SweepPoint> {
        sweep(&params, |g| Batched::new(g as u64), base, 5, threads)
    };
    let reference = sweep_at(1);
    for threads in [2usize, 7] {
        assert_eq!(reference, sweep_at(threads), "threads = {threads}");
    }
    for point in &reference {
        for result in &point.results {
            assert!(result.trace.is_empty());
        }
    }
}

/// Regression (sweep seed overlap): sweeps run at adjacent base seeds used
/// to share all but one per-point master seed; now they share none.
#[test]
fn adjacent_sweeps_are_seed_disjoint() {
    let params = [1.0, 2.0, 3.0, 4.0, 5.0];
    let seeds_of = |base_seed: u64| -> HashSet<u64> {
        sweep(
            &params,
            |_| TwoChoice::classic(),
            RunConfig::new(16, 160, base_seed),
            6,
            2,
        )
        .iter()
        .flat_map(|p| p.results.iter().map(|r| r.config.seed))
        .collect()
    };
    let a = seeds_of(7_000);
    let b = seeds_of(7_001);
    assert_eq!(a.len(), params.len() * 6, "sweep reused a seed internally");
    assert!(a.is_disjoint(&b), "adjacent sweeps share run seeds");
}

/// Regression (spurious step-0 checkpoint): a trace with more checkpoints
/// than steps must not record a meaningless (0, 0.0) point.
#[test]
fn traces_never_record_step_zero() {
    let result = run_traced(
        &mut TwoChoice::classic(),
        RunConfig::new(8, 2, 3),
        Checkpoints::Linear(5),
    );
    let steps: Vec<u64> = result.trace.iter().map(|t| t.step).collect();
    assert_eq!(steps, vec![1, 2]);
}

/// Regression (`Batched` boundary alignment): resyncing on a recovery state
/// whose ball count is not a multiple of `b` must start a full fresh
/// `b`-ball batch, not a truncated one.
#[test]
fn batched_recovery_from_tower_starts_full_batch() {
    let n = 10;
    let b = 16u64;
    // 10 bins × 4 balls + 7 extra = 47 balls; 47 mod 16 = 15 ≠ 0.
    let mut state = initial::tower(n, 4, 7);
    let frozen = state.loads().to_vec();
    let mut process = Batched::new(b);
    let mut rng = balloc_core::Rng::from_seed(5);

    // Drive the recovery through the public runner entry point, one ball
    // per checkpoint, so we can watch the snapshot via reported_load.
    for step in 1..=b {
        let trace = run_on_state(&mut process, &mut state, 1, Checkpoints::None, &mut rng);
        assert_eq!(trace.last().unwrap().step, 47 + step);
        for (i, &expected) in frozen.iter().enumerate() {
            assert_eq!(
                process.reported_load(i),
                expected,
                "snapshot drifted {step} balls after resync (bin {i})"
            );
        }
    }
    // Ball b + 1 opens batch 2: the snapshot adopts the current loads.
    let current = state.loads().to_vec();
    run_on_state(&mut process, &mut state, 1, Checkpoints::None, &mut rng);
    let reported: Vec<u64> = (0..n).map(|i| process.reported_load(i)).collect();
    assert_eq!(reported, current);
}
