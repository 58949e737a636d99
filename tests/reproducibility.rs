//! End-to-end reproducibility guarantees: results are pure functions of
//! `(configuration, seed)`, independent of thread count, and round-trip
//! through serialization.

use noisy_balance::core::{LoadState, Process, Rng, TwoChoice};
use noisy_balance::noise::{Batched, DelayStrategy, Delayed, GBounded, GMyopic, SigmaNoisyLoad};
use noisy_balance::processes::{DChoice, OneChoice};
use noisy_balance::sim::{repeat, run, sweep, Checkpoints, GapDistribution, RunConfig};

#[test]
fn every_process_is_seed_deterministic() {
    let config = RunConfig::new(256, 20_000, 777);
    macro_rules! check {
        ($factory:expr) => {{
            let a = run(&mut $factory, config);
            let b = run(&mut $factory, config);
            assert_eq!(a, b);
        }};
    }
    check!(TwoChoice::classic());
    check!(GBounded::new(5));
    check!(GMyopic::new(5));
    check!(SigmaNoisyLoad::new(3.0));
    check!(Batched::new(100));
    check!(Delayed::new(64, DelayStrategy::AdversarialFlip));
}

#[test]
fn process_reuse_across_runs_is_clean() {
    // Running the same process value twice must give identical results —
    // reset() clears all internal state (delay windows, batch snapshots).
    let config = RunConfig::new(128, 10_000, 3);
    let mut batched = Batched::new(37);
    let first = run(&mut batched, config);
    let second = run(&mut batched, config);
    assert_eq!(first, second);

    let mut delayed = Delayed::new(50, DelayStrategy::RandomInWindow);
    let first = run(&mut delayed, config);
    let second = run(&mut delayed, config);
    assert_eq!(first, second);
}

#[test]
fn thread_count_never_changes_results() {
    let base = RunConfig::new(200, 10_000, 99);
    let reference = repeat(|| GBounded::new(4), base, 9, 1);
    for threads in [2usize, 3, 8, 16] {
        let parallel = repeat(|| GBounded::new(4), base, 9, threads);
        assert_eq!(reference, parallel, "threads = {threads}");
    }
}

#[test]
fn sweeps_are_reproducible() {
    let base = RunConfig::new(100, 5_000, 5);
    let a = sweep(&[1.0, 4.0], |g| GBounded::new(g as u64), base, 4, 2);
    let b = sweep(&[1.0, 4.0], |g| GBounded::new(g as u64), base, 4, 7);
    assert_eq!(a, b);
}

#[test]
fn traced_and_untraced_runs_agree_on_final_state() {
    let config = RunConfig::new(128, 12_800, 21);
    let plain = run(&mut GMyopic::new(3), config);
    let traced =
        noisy_balance::sim::run_traced(&mut GMyopic::new(3), config, Checkpoints::Geometric(4));
    assert_eq!(plain.gap, traced.gap);
    assert_eq!(plain.max_load, traced.max_load);
    assert_eq!(plain.integer_gap, traced.integer_gap);
}

#[test]
fn artifacts_serialize_roundtrip() {
    let base = RunConfig::new(64, 6_400, 1);
    let results = repeat(|| SigmaNoisyLoad::new(2.0), base, 5, 2);
    let dist = GapDistribution::from_results(&results);
    let json = noisy_balance::sim::to_json(&dist).expect("serializable artifact");
    assert!(json.contains(":"));
    let point = noisy_balance::sim::SweepPoint::from_results(2.0, results);
    let json = noisy_balance::sim::to_json(&point).expect("serializable artifact");
    assert!(json.contains("mean_gap"));
}

#[test]
fn rng_streams_are_platform_stable() {
    // Pin the first outputs of the generator so cross-machine drift (or an
    // accidental algorithm change) is caught immediately.
    let mut rng = Rng::from_seed(0);
    let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(
        first,
        vec![
            5987356902031041503,
            7051070477665621255,
            6633766593972829180,
            211316841551650330
        ]
    );
}

/// FNV-1a over the little-endian bytes of a load vector.
fn load_digest(loads: &[u64]) -> u64 {
    loads.iter().fold(0xcbf2_9ce4_8422_2325, |h, &x| {
        x.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Runs `process` for `m` balls on `n` empty bins at `seed` through the
/// batched engine; returns the final max load and load-vector digest.
fn golden<P: Process>(mut process: P, n: usize, m: u64, seed: u64) -> (u64, u64) {
    let mut state = LoadState::new(n);
    let mut rng = Rng::from_seed(seed);
    process.run(&mut state, m, &mut rng);
    let result = run(&mut process, RunConfig::new(n, m, seed));
    assert_eq!(result.max_load, state.max_load());
    let mean = (m / n as u64) as i64;
    assert_eq!(result.max_load as i64 - mean, result.integer_gap.unwrap());
    (state.max_load(), load_digest(state.loads()))
}

#[test]
fn golden_run_pins_end_to_end_behavior() {
    // Golden values: if any part of the pipeline (RNG, process, load
    // bookkeeping, batched kernel) changes behavior, this fails loudly.
    // Update them deliberately, with the reason, if the RNG or process
    // semantics ever change. Every run has m ⩾ n, so each takes its
    // process's batched fast path.
    assert_eq!(
        golden(GBounded::new(2), 100, 10_000, 4242),
        (104, 0xa106_0c4d_7ace_1c67)
    );
    assert_eq!(
        golden(GMyopic::new(2), 100, 10_000, 4242),
        (103, 0xd1e1_cae8_70af_eb9d)
    );
    assert_eq!(
        golden(Batched::new(100), 100, 10_000, 4242),
        (103, 0x3fef_5d09_c019_eb05)
    );
    assert_eq!(
        golden(TwoChoice::classic(), 100, 10_000, 4242),
        (102, 0x5449_7cf8_7996_5d83)
    );
    assert_eq!(
        golden(DChoice::classic(4), 100, 10_000, 4242),
        (101, 0x63f1_1549_7595_ac03)
    );
    assert_eq!(
        golden(OneChoice::new(), 100, 10_000, 4242),
        (126, 0x91a6_6142_68a8_b397)
    );
}
