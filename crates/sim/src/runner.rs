//! Running processes: single runs, repetitions, and parallel execution.
//!
//! Reproducibility contract: the result of every run is a pure function of
//! `(process configuration, RunConfig)`. Repetition `i` of an experiment
//! with master seed `s` uses the derived seed
//! [`run_seed(s, i)`](balloc_core::rng::run_seed), so sequential and
//! parallel execution produce **identical** results.
//!
//! One private driver runs every allocation: it calls
//! [`Process::run_batch`](balloc_core::Process::run_batch) on the concrete
//! process type up to each requested checkpoint and records `(balls, gap)`
//! there. An untraced run is a single `run_batch` call, with no per-ball
//! virtual dispatch and no checkpoint bookkeeping. [`run`], [`run_traced`]
//! and [`run_on_state`] are its three entry points.
//!
//! Execution: [`repeat`] is a thin wrapper over [`repeat_grid`], which
//! schedules a whole `configs × runs` grid as **one** flattened task set
//! on scoped worker threads that claim task indices from a shared counter,
//! so multi-point experiments keep every worker busy even when single
//! points have few repetitions.

use std::sync::atomic::{AtomicUsize, Ordering};

use balloc_core::rng::run_seed;
use balloc_core::{LoadState, Process, Rng};
use serde::Serialize;

use crate::config::{Checkpoints, RunConfig};

/// A `(step, gap)` trace point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TracePoint {
    /// Number of balls allocated when the sample was taken.
    pub step: u64,
    /// `Gap(step)`.
    pub gap: f64,
}

/// The outcome of a single run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunResult {
    /// The configuration that produced this result.
    pub config: RunConfig,
    /// Final gap `Gap(m) = max_i x_i − m/n`.
    pub gap: f64,
    /// Final integer gap, when `m` is divisible by `n` (paper convention).
    pub integer_gap: Option<i64>,
    /// Final maximum load.
    pub max_load: u64,
    /// Final minimum load.
    pub min_load: u64,
    /// Gap trace at the requested checkpoints (empty when not requested).
    pub trace: Vec<TracePoint>,
}

impl RunResult {
    /// The integer gap if defined, otherwise the rounded real gap.
    ///
    /// Used for gap-distribution histograms (Tables 12.3/12.4 report
    /// integer gaps at `m = 1000·n`).
    #[must_use]
    pub fn gap_bucket(&self) -> i64 {
        self.integer_gap.unwrap_or_else(|| self.gap.round() as i64)
    }
}

/// The one step driver: runs `steps` allocations of `process` on `state`
/// through [`Process::run_batch`], pausing at each of the sorted,
/// deduplicated `stops` (counted from the start of this drive, each in
/// `1..=steps`) to record the state's absolute ball count and gap there.
/// With no stops it is a single `run_batch` call.
fn drive<P: Process>(
    process: &mut P,
    state: &mut LoadState,
    steps: u64,
    rng: &mut Rng,
    stops: &[u64],
) -> Vec<TracePoint> {
    let mut trace = Vec::with_capacity(stops.len());
    let mut done = 0u64;
    for &stop in stops {
        process.run_batch(state, stop - done, rng);
        done = stop;
        trace.push(TracePoint {
            step: state.balls(),
            gap: state.gap(),
        });
    }
    if done < steps {
        process.run_batch(state, steps - done, rng);
    }
    trace
}

/// Runs `process` on a fresh [`LoadState`] for `config.m` allocations.
///
/// The process is [`reset`](Process::reset) before running, so the same
/// process value can be reused across runs.
///
/// # Examples
///
/// ```
/// use balloc_core::TwoChoice;
/// use balloc_sim::{run, RunConfig};
///
/// let result = run(&mut TwoChoice::classic(), RunConfig::new(100, 10_000, 1));
/// assert_eq!(result.config.m, 10_000);
/// assert!(result.gap >= 0.0);
/// ```
#[must_use]
pub fn run<P: Process>(process: &mut P, config: RunConfig) -> RunResult {
    run_traced(process, config, Checkpoints::None)
}

/// Runs `process` like [`run`], recording the gap at the given
/// checkpoints. [`Checkpoints::None`] records no trace at all.
#[must_use]
pub fn run_traced<P: Process>(
    process: &mut P,
    config: RunConfig,
    checkpoints: Checkpoints,
) -> RunResult {
    let stops = match checkpoints {
        Checkpoints::None => Vec::new(),
        _ => checkpoints.steps(config.m),
    };
    process.reset();
    let mut state = LoadState::new(config.n);
    let mut rng = Rng::from_seed(config.seed);
    let trace = drive(process, &mut state, config.m, &mut rng, &stops);
    RunResult {
        config,
        gap: state.gap(),
        integer_gap: state.integer_gap(),
        max_load: state.max_load(),
        min_load: state.min_load(),
        trace,
    }
}

/// Runs `runs` independent repetitions of an experiment, optionally in
/// parallel.
///
/// `factory` builds a fresh process for each repetition; repetition `i`
/// runs with seed `run_seed(base.seed, i)`. With any `threads ⩾ 1` the
/// returned vector is identical to the sequential result, in repetition
/// order.
///
/// # Panics
///
/// Panics if `runs == 0` or `threads == 0`.
///
/// # Examples
///
/// ```
/// use balloc_core::TwoChoice;
/// use balloc_sim::{repeat, RunConfig};
///
/// let results = repeat(
///     || TwoChoice::classic(),
///     RunConfig::new(100, 1_000, 9),
///     8,
///     2,
/// );
/// assert_eq!(results.len(), 8);
/// ```
#[must_use]
pub fn repeat<P, F>(factory: F, base: RunConfig, runs: usize, threads: usize) -> Vec<RunResult>
where
    P: Process,
    F: Fn() -> P + Sync,
{
    assert!(runs > 0, "need at least one run");
    let mut points = repeat_grid(&[base], |_| factory(), runs, threads);
    points.pop().expect("one config yields one result block")
}

/// Runs `runs` repetitions of **every** configuration in `configs` as a
/// single flattened task set on `threads` workers, returning one
/// result block per configuration (in configuration order).
///
/// This is the scheduling primitive behind [`crate::sweep`]: a 10-point ×
/// 100-repetition figure becomes 1 000 independent tasks claimed by all
/// workers, instead of 10 sequential 100-task regions. `factory(k)` builds
/// a fresh process for configuration `k`; repetition `i` of configuration
/// `k` runs with seed `run_seed(configs[k].seed, i)`. Results are
/// **identical for every thread count**.
///
/// # Panics
///
/// Panics if `configs` is empty, `runs == 0`, or `threads == 0`.
///
/// # Examples
///
/// ```
/// use balloc_core::TwoChoice;
/// use balloc_sim::{repeat_grid, RunConfig};
///
/// let configs = [RunConfig::new(64, 640, 1), RunConfig::new(64, 1_280, 2)];
/// let blocks = repeat_grid(&configs, |_| TwoChoice::classic(), 3, 2);
/// assert_eq!(blocks.len(), 2);
/// assert_eq!(blocks[0].len(), 3);
/// assert_eq!(blocks[1][0].config.m, 1_280);
/// ```
#[must_use]
pub fn repeat_grid<P, F>(
    configs: &[RunConfig],
    factory: F,
    runs: usize,
    threads: usize,
) -> Vec<Vec<RunResult>>
where
    P: Process,
    F: Fn(usize) -> P + Sync,
{
    assert!(!configs.is_empty(), "need at least one configuration");
    assert!(runs > 0, "need at least one run");
    assert!(threads > 0, "need at least one thread");
    let total = configs.len() * runs;
    let results = par_map_indexed(threads, total, |task| {
        let k = task / runs;
        let i = (task % runs) as u64;
        let config = configs[k];
        run(&mut factory(k), config.with_seed(run_seed(config.seed, i)))
    });
    let mut results = results.into_iter();
    (0..configs.len())
        .map(|_| results.by_ref().take(runs).collect())
        .collect()
}

/// Maps `0..count` through `f` on up to `threads` scoped workers, returning
/// the results in index order — element for element the sequential map, so
/// the thread count only decides *where* a task runs, never what it
/// computes.
///
/// Each worker claims the next unclaimed index from one shared counter and
/// keeps its `(index, value)` pairs locally; the pairs are written into
/// pre-sized slots after the join. A panic in `f` ends only its own
/// worker; the others drain the counter, and the panic is re-raised on the
/// calling thread.
fn par_map_indexed<T, F>(threads: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.min(count);
    if threads <= 1 {
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut local = Vec::new();
        loop {
            // Relaxed suffices: the counter only hands out distinct
            // indices, and the join publishes every result.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return local;
            }
            local.push((i, f(i)));
        }
    };
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        for handle in workers {
            match handle.join() {
                Ok(local) => {
                    for (i, value) in local {
                        slots[i] = Some(value);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed exactly once"))
        .collect()
}

/// Extracts the final gaps from a batch of results.
#[must_use]
pub fn gaps(results: &[RunResult]) -> Vec<f64> {
    results.iter().map(|r| r.gap).collect()
}

/// Runs `process` for `steps` allocations **on an existing state**,
/// recording the gap at the given checkpoints (relative to the state's
/// current ball count). Unlike [`run_traced`], [`Checkpoints::None`]
/// still records the final point.
///
/// This is the entry point for *recovery* experiments (paper Fig. 5.3):
/// start from a corrupted vector built by [`crate::initial`] and watch the
/// gap collapse. The process is *not* reset — callers manage process state
/// explicitly here.
///
/// # Examples
///
/// ```
/// use balloc_core::{Rng, TwoChoice};
/// use balloc_sim::{initial, run_on_state, Checkpoints};
///
/// let mut state = initial::tower(100, 10, 50);
/// let mut rng = Rng::from_seed(1);
/// let trace = run_on_state(
///     &mut TwoChoice::classic(),
///     &mut state,
///     10_000,
///     Checkpoints::Linear(4),
///     &mut rng,
/// );
/// assert_eq!(trace.len(), 4);
/// // Recovery: the gap at the end is far below the initial ~49.5.
/// assert!(trace.last().unwrap().gap < 10.0);
/// ```
pub fn run_on_state<P: Process>(
    process: &mut P,
    state: &mut LoadState,
    steps: u64,
    checkpoints: Checkpoints,
    rng: &mut Rng,
) -> Vec<TracePoint> {
    drive(process, state, steps, rng, &checkpoints.steps(steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use balloc_core::TwoChoice;
    use proptest::prelude::*;
    use serde::Value;

    #[test]
    fn run_allocates_m_balls() {
        let r = run(&mut TwoChoice::classic(), RunConfig::new(50, 5_000, 1));
        assert!(r.integer_gap.is_some()); // 5000 divisible by 50
        assert!(r.max_load >= 100); // avg is 100
        assert!(r.min_load <= 100);
    }

    #[test]
    fn identical_seeds_identical_results() {
        let a = run(&mut TwoChoice::classic(), RunConfig::new(64, 1_000, 7));
        let b = run(&mut TwoChoice::classic(), RunConfig::new(64, 1_000, 7));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(&mut TwoChoice::classic(), RunConfig::new(64, 10_000, 1));
        let b = run(&mut TwoChoice::classic(), RunConfig::new(64, 10_000, 2));
        // Max loads could coincide, but full equality is essentially
        // impossible — compare the final state summary triple.
        assert!(
            a.gap != b.gap || a.max_load != b.max_load || a.min_load != b.min_load,
            "independent runs should differ"
        );
    }

    #[test]
    fn traced_run_records_checkpoints() {
        let r = run_traced(
            &mut TwoChoice::classic(),
            RunConfig::new(32, 1_000, 3),
            Checkpoints::Linear(4),
        );
        assert_eq!(r.trace.len(), 4);
        assert_eq!(r.trace.last().unwrap().step, 1_000);
        assert!((r.trace.last().unwrap().gap - r.gap).abs() < 1e-12);
    }

    #[test]
    fn traced_run_is_bit_identical_to_untraced() {
        // Pausing the batched engine at checkpoints must not change the
        // result: the trace is pure observation.
        let config = RunConfig::new(50, 5_000, 31);
        let untraced = run(&mut TwoChoice::classic(), config);
        for checkpoints in [
            Checkpoints::Linear(7),
            Checkpoints::Linear(100),
            Checkpoints::Geometric(2),
        ] {
            let traced = run_traced(&mut TwoChoice::classic(), config, checkpoints);
            assert_eq!(untraced.gap, traced.gap, "{checkpoints:?}");
            assert_eq!(untraced.max_load, traced.max_load, "{checkpoints:?}");
            assert_eq!(untraced.min_load, traced.min_load, "{checkpoints:?}");
        }
    }

    #[test]
    fn run_traced_and_run_on_state_share_one_driver() {
        // On a fresh state, a reset process driven through `run_on_state`
        // records exactly the trace `run_traced` records.
        let config = RunConfig::new(24, 1_200, 8);
        for checkpoints in [Checkpoints::Linear(6), Checkpoints::Geometric(3)] {
            let traced = run_traced(&mut TwoChoice::classic(), config, checkpoints);
            let mut process = TwoChoice::classic();
            process.reset();
            let mut state = LoadState::new(config.n);
            let mut rng = Rng::from_seed(config.seed);
            let trace = run_on_state(&mut process, &mut state, config.m, checkpoints, &mut rng);
            assert_eq!(traced.trace, trace, "{checkpoints:?}");
            assert_eq!(traced.gap, state.gap(), "{checkpoints:?}");
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let base = RunConfig::new(64, 2_000, 123);
        let seq = repeat(TwoChoice::classic, base, 12, 1);
        let par = repeat(TwoChoice::classic, base, 12, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn repeat_uses_derived_seeds() {
        let base = RunConfig::new(32, 500, 55);
        let results = repeat(TwoChoice::classic, base, 3, 1);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.config.seed, run_seed(55, i as u64));
        }
    }

    #[test]
    fn grid_flattens_and_orders_results() {
        let configs = [RunConfig::new(32, 320, 1), RunConfig::new(32, 640, 2)];
        let blocks = repeat_grid(&configs, |_| TwoChoice::classic(), 3, 4);
        assert_eq!(blocks.len(), 2);
        for (k, block) in blocks.iter().enumerate() {
            assert_eq!(block.len(), 3);
            for (i, result) in block.iter().enumerate() {
                assert_eq!(result.config.m, configs[k].m);
                assert_eq!(result.config.seed, run_seed(configs[k].seed, i as u64));
            }
        }
    }

    #[test]
    fn grid_parallel_equals_sequential() {
        let configs: Vec<RunConfig> = (0..5).map(|k| RunConfig::new(48, 960, 100 + k)).collect();
        let reference = repeat_grid(&configs, |_| TwoChoice::classic(), 4, 1);
        for threads in [2usize, 3, 7] {
            let parallel = repeat_grid(&configs, |_| TwoChoice::classic(), 4, threads);
            assert_eq!(reference, parallel, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one configuration")]
    fn empty_grid_rejected() {
        let _ = repeat_grid(&[], |_: usize| TwoChoice::classic(), 1, 1);
    }

    #[test]
    fn par_map_indexed_matches_sequential_map() {
        // The grid includes zero tasks and more threads than tasks.
        for threads in [1usize, 2, 3, 8] {
            for count in [0usize, 1, 2, 7, 64, 257] {
                let par = par_map_indexed(threads, count, |i| i * 3 + 1);
                let seq: Vec<usize> = (0..count).map(|i| i * 3 + 1).collect();
                assert_eq!(par, seq, "threads = {threads}, count = {count}");
            }
        }
    }

    #[test]
    fn par_map_indexed_runs_every_task_exactly_once() {
        let runs: Vec<AtomicUsize> = (0..1_000).map(|_| AtomicUsize::new(0)).collect();
        let out = par_map_indexed(4, runs.len(), |i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        assert_eq!(out, (0..1_000).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_indexed_handles_uneven_task_costs() {
        // Front-loaded cost: the first 16 tasks are ~100× the rest.
        let task = |i: usize| {
            let spins = if i < 16 { 200_000 } else { 2_000 };
            (0..spins).fold(i as u64, |acc, _| {
                acc.wrapping_mul(6_364_136_223_846_793_005)
            })
        };
        let seq: Vec<u64> = (0..64).map(task).collect();
        assert_eq!(par_map_indexed(4, 64, task), seq);
    }

    #[test]
    #[should_panic(expected = "boom at 37")]
    fn par_map_indexed_task_panic_propagates_instead_of_hanging() {
        let _ = par_map_indexed(4, 100, |i| {
            assert!(i != 37, "boom at {i}");
            i
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The pool's core contract: `par_map_indexed` equals the
        /// sequential map for arbitrary task and thread counts.
        #[test]
        fn par_map_indexed_equals_sequential_map(
            count in 0usize..200,
            threads in 1usize..12,
            salt in any::<u64>(),
        ) {
            let task = |i: usize| salt.wrapping_mul(i as u64 + 1).rotate_left((i % 64) as u32);
            let seq: Vec<u64> = (0..count).map(task).collect();
            prop_assert_eq!(par_map_indexed(threads, count, task), seq);
        }
    }

    #[test]
    fn gap_bucket_prefers_integer_gap() {
        let r = run(&mut TwoChoice::classic(), RunConfig::new(10, 100, 1));
        assert_eq!(r.gap_bucket(), r.integer_gap.unwrap());
        let r2 = run(&mut TwoChoice::classic(), RunConfig::new(10, 101, 1));
        assert!(r2.integer_gap.is_none());
        assert_eq!(r2.gap_bucket(), r2.gap.round() as i64);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let _ = repeat(TwoChoice::classic, RunConfig::new(4, 4, 0), 0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = repeat(TwoChoice::classic, RunConfig::new(4, 4, 0), 1, 0);
    }

    #[test]
    fn results_serialize_roundtrip() {
        let r = run(&mut TwoChoice::classic(), RunConfig::new(8, 64, 2));
        let json = serde_json::to_string(&r).unwrap();
        let back = serde_json::from_str(&json).unwrap();
        let config = back.get("config");
        assert_eq!(config.get("n"), &Value::UInt(8));
        assert_eq!(config.get("m"), &Value::UInt(64));
        assert_eq!(config.get("seed"), &Value::UInt(2));
        // m is a multiple of n, so the gap is integral, and JSON text
        // writes an integral float without a fraction.
        let gap = r.integer_gap.expect("m divisible by n");
        assert_eq!(r.gap, gap as f64);
        assert_eq!(back.get("gap"), &Value::UInt(gap as u64));
        assert_eq!(back.get("integer_gap"), &Value::UInt(gap as u64));
        assert_eq!(back.get("max_load"), &Value::UInt(r.max_load));
        assert_eq!(back.get("min_load"), &Value::UInt(r.min_load));
        assert_eq!(back.get("trace"), &Value::Array(Vec::new()));
    }
}
