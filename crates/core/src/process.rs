//! The allocation-process framework.
//!
//! The paper frames every noisy setting as *"Two-Choice with an adversary"*:
//! at each step two bins `i1, i2` are sampled uniformly with replacement and
//! a decision function `A_t(F_{t−1}, i1, i2)` — which may be correct,
//! adversarial, probabilistic, or based on stale information — picks the bin
//! that receives the ball (Section 2, "Two-Choice Process with Noise").
//!
//! That framework maps onto two traits:
//!
//! * [`Decider`] — the decision function `A_t`. Implementations range from
//!   the noise-free comparison ([`PerfectDecider`]) to the adversarial and
//!   probabilistic deciders in the `balloc-noise` crate.
//! * [`Process`] — anything that can place one ball per step. [`TwoChoice`]
//!   wires a [`Decider`] into the two-sample loop; processes that do not fit
//!   the two-sample mold (`One-Choice`, `b-Batch`, `τ-Delay`, …) implement
//!   [`Process`] directly.
//!
//! # Examples
//!
//! ```
//! use balloc_core::{LoadState, Process, Rng, TwoChoice};
//!
//! let mut process = TwoChoice::classic();
//! let mut state = LoadState::new(100);
//! let mut rng = Rng::from_seed(1);
//! process.run(&mut state, 10_000, &mut rng);
//! assert_eq!(state.balls(), 10_000);
//! // Two-Choice keeps the gap tiny: log2 log n + O(1) ≈ 3.
//! assert!(state.gap() < 8.0);
//! ```

use crate::load::LoadState;
use crate::rng::Rng;

/// How load comparisons resolve ties (the paper allows "breaking ties
/// arbitrarily"; `b-Batch` specifically breaks ties *randomly*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TieBreak {
    /// Keep the first sampled bin. (A fixed, deterministic rule.)
    #[default]
    FirstSample,
    /// Pick uniformly at random between the two samples.
    Random,
    /// Keep the bin with the lower index. (Deterministic and
    /// sample-order-independent.)
    LowestIndex,
}

impl TieBreak {
    /// Resolves a tie between `i1` and `i2`, returning the chosen bin.
    #[inline]
    pub fn resolve(self, i1: usize, i2: usize, rng: &mut Rng) -> usize {
        match self {
            TieBreak::FirstSample => i1,
            TieBreak::Random => {
                if rng.coin() {
                    i1
                } else {
                    i2
                }
            }
            TieBreak::LowestIndex => i1.min(i2),
        }
    }

    /// The probability that [`TieBreak::resolve`] returns `i1`.
    #[inline]
    #[must_use]
    pub fn prob_first(self, i1: usize, i2: usize) -> f64 {
        match self {
            TieBreak::FirstSample => 1.0,
            TieBreak::Random => 0.5,
            TieBreak::LowestIndex => {
                if i1 <= i2 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// A decision function for two-sample allocation processes: the paper's
/// adversary `A_t(F_{t−1}, i1, i2) ∈ {i1, i2}`.
///
/// Implementations observe the **true** current state (adaptive adversaries
/// are allowed full information) and must return one of the two sampled
/// bins. They may use randomness (e.g. `g-Myopic-Comp`) via the supplied
/// generator.
pub trait Decider {
    /// Chooses which of the two sampled bins receives the ball.
    ///
    /// The return value must be `i1` or `i2`.
    fn decide(&mut self, state: &LoadState, i1: usize, i2: usize, rng: &mut Rng) -> usize;

    /// Clears any per-run internal state (most deciders are stateless).
    fn reset(&mut self) {}

    /// Whether this decider is eligible for the batched allocation fast
    /// paths.
    ///
    /// Returning `true` is a **promise** that, for every state and sample
    /// pair, [`decide`](Self::decide)
    ///
    /// 1. never draws from the supplied [`Rng`], and
    /// 2. reads only the always-exact state quantities — per-bin loads
    ///    ([`LoadState::load`]/[`LoadState::loads`]), `n`, `balls` and
    ///    `average` — never the max/min-derived aggregates (`max_load`,
    ///    `min_load`, `gap`, `spread`, …), which may be stale inside a
    ///    deferred-aggregate batch (see [`LoadState::batch`]).
    ///
    /// Monomorphized [`Process::run_batch`] loops consult this to choose
    /// between the pre-drawn-sample, deferred-aggregate fast path (which is
    /// bit-identical to per-ball allocation for exactly this class) and the
    /// fully interleaved safe path. The default is `false`, which is always
    /// safe; a decider that answers `true` but breaks either promise will
    /// be caught by the workspace's batch-equivalence property suite.
    fn batchable(&self) -> bool {
        false
    }

    /// Whether this decider is additionally independent of the running
    /// totals.
    ///
    /// Returning `true` is a **promise** — on top of the
    /// [`batchable`](Self::batchable) promises, which it implies — that
    /// [`decide`](Self::decide) never reads `balls` or `average` either:
    /// only per-bin loads and `n`. Batched kernels then defer the per-ball
    /// `balls += 1` — a loop-carried read-modify-write of one memory cell
    /// that is the measured critical path of the two-sample hot loops (see
    /// docs/PERFORMANCE.md) — and settle the counter in bulk via
    /// [`LoadBatch::credit_balls`](crate::load::LoadBatch::credit_balls).
    /// The final state is bit-identical; only intermediate `balls` values
    /// (which the decider has promised not to observe) differ. The default
    /// is `false`, which is always safe; violations are caught by the
    /// batch-equivalence property suite.
    fn totals_free(&self) -> bool {
        false
    }
}

/// A [`Decider`] whose one-step decision distribution can be computed
/// exactly.
///
/// Used by the potential-function machinery to compute the exact probability
/// allocation vector `q^t` of a noisy process (Section 4, Fig. 4.1) and
/// exact expected potential drops.
pub trait DecisionProbability: Decider {
    /// The probability that [`Decider::decide`] returns `i1` for this
    /// ordered pair of samples, given the current state.
    fn prob_first(&self, state: &LoadState, i1: usize, i2: usize) -> f64;
}

/// An allocation process: places one ball per step.
pub trait Process {
    /// Allocates a single ball, returning the chosen bin.
    fn allocate(&mut self, state: &mut LoadState, rng: &mut Rng) -> usize;

    /// Clears any per-run internal state (delay windows, batch snapshots, …).
    ///
    /// Called by runners between repetitions; the default does nothing.
    fn reset(&mut self) {}

    /// Allocates `steps` balls.
    ///
    /// Delegates to [`run_batch`](Self::run_batch), so every existing call
    /// site — runners, experiments, tests — transparently gets a process's
    /// batched fast path.
    fn run(&mut self, state: &mut LoadState, steps: u64, rng: &mut Rng) {
        self.run_batch(state, steps, rng);
    }

    /// Allocates `steps` balls through the process's batched engine.
    ///
    /// # Determinism contract
    ///
    /// `run_batch` must be **bit-identical** to `steps` successive
    /// [`allocate`](Self::allocate) calls: same final load vector, same
    /// return trajectory, and the same number of raw draws consumed from
    /// `rng` (so the generator ends in the same state). Implementations are
    /// free to pre-draw samples ([`Rng::fill_below`]), defer aggregate
    /// maintenance ([`LoadState::batch`]), or hoist loop-invariant checks —
    /// as long as the observable outcome is unchanged at every fixed seed.
    /// The workspace's batch-equivalence property suite asserts this for
    /// every registered process.
    ///
    /// The default implementation is the per-ball fallback.
    fn run_batch(&mut self, state: &mut LoadState, steps: u64, rng: &mut Rng) {
        for _ in 0..steps {
            self.allocate(state, rng);
        }
    }
}

impl<P: Process + ?Sized> Process for &mut P {
    fn allocate(&mut self, state: &mut LoadState, rng: &mut Rng) -> usize {
        (**self).allocate(state, rng)
    }
    fn reset(&mut self) {
        (**self).reset();
    }
    fn run(&mut self, state: &mut LoadState, steps: u64, rng: &mut Rng) {
        (**self).run(state, steps, rng);
    }
    fn run_batch(&mut self, state: &mut LoadState, steps: u64, rng: &mut Rng) {
        (**self).run_batch(state, steps, rng);
    }
}

impl<P: Process + ?Sized> Process for Box<P> {
    fn allocate(&mut self, state: &mut LoadState, rng: &mut Rng) -> usize {
        (**self).allocate(state, rng)
    }
    fn reset(&mut self) {
        (**self).reset();
    }
    fn run(&mut self, state: &mut LoadState, steps: u64, rng: &mut Rng) {
        (**self).run(state, steps, rng);
    }
    fn run_batch(&mut self, state: &mut LoadState, steps: u64, rng: &mut Rng) {
        (**self).run_batch(state, steps, rng);
    }
}

/// The noise-free comparison: allocate to the less loaded of the two
/// samples, breaking ties per [`TieBreak`].
///
/// # Examples
///
/// ```
/// use balloc_core::{Decider, LoadState, PerfectDecider, Rng, TieBreak};
///
/// let state = LoadState::from_loads(vec![5, 2, 2]);
/// let mut decider = PerfectDecider::new(TieBreak::FirstSample);
/// let mut rng = Rng::from_seed(0);
/// assert_eq!(decider.decide(&state, 0, 1, &mut rng), 1); // 2 < 5
/// assert_eq!(decider.decide(&state, 1, 2, &mut rng), 1); // tie → first
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PerfectDecider {
    tie: TieBreak,
}

impl PerfectDecider {
    /// Creates a perfect decider with the given tie-breaking rule.
    #[must_use]
    pub fn new(tie: TieBreak) -> Self {
        Self { tie }
    }

    /// The tie-breaking rule.
    #[must_use]
    pub fn tie_break(&self) -> TieBreak {
        self.tie
    }
}

impl Decider for PerfectDecider {
    #[inline]
    fn decide(&mut self, state: &LoadState, i1: usize, i2: usize, rng: &mut Rng) -> usize {
        let (x1, x2) = (state.load(i1), state.load(i2));
        // The rng-free tie rules fold the tie into the load comparison so
        // the whole decision is a single predicate, and the select is
        // forced branchless: the comparison is a ~50/50 coin flip on real
        // load distributions, and LLVM's if-conversion is not reliable
        // (it has emitted branch-over-mov hammocks — two mispredicts per
        // ball — for this source in some inlining contexts).
        match self.tie {
            TieBreak::FirstSample => std::hint::select_unpredictable(x2 < x1, i2, i1),
            TieBreak::LowestIndex => {
                std::hint::select_unpredictable(x2 < x1 || (x2 == x1 && i2 < i1), i2, i1)
            }
            TieBreak::Random => {
                if x1 < x2 {
                    i1
                } else if x2 < x1 {
                    i2
                } else {
                    self.tie.resolve(i1, i2, rng)
                }
            }
        }
    }

    #[inline]
    fn batchable(&self) -> bool {
        // Random tie-breaking draws a coin on exact load ties; the other
        // rules never touch the generator and read only per-bin loads.
        !matches!(self.tie, TieBreak::Random)
    }

    #[inline]
    fn totals_free(&self) -> bool {
        // The perfect comparison reads the two candidate loads and nothing
        // else — never `balls` or `average`.
        self.batchable()
    }
}

impl DecisionProbability for PerfectDecider {
    #[inline]
    fn prob_first(&self, state: &LoadState, i1: usize, i2: usize) -> f64 {
        let (x1, x2) = (state.load(i1), state.load(i2));
        if x1 < x2 {
            1.0
        } else if x2 < x1 {
            0.0
        } else {
            self.tie.prob_first(i1, i2)
        }
    }
}

/// The `Two-Choice` process skeleton: sample two bins uniformly with
/// replacement and let a [`Decider`] choose between them.
///
/// With [`PerfectDecider`] this is the classic noise-free `Two-Choice`
/// process of Azar et al.; with the deciders from `balloc-noise` it becomes
/// `g-Bounded`, `g-Myopic-Comp`, `σ-Noisy-Load`, etc.
///
/// # Examples
///
/// ```
/// use balloc_core::{LoadState, Process, Rng, TwoChoice};
///
/// let mut state = LoadState::new(50);
/// let mut rng = Rng::from_seed(3);
/// TwoChoice::classic().run(&mut state, 5_000, &mut rng);
/// assert_eq!(state.balls(), 5_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TwoChoice<D> {
    decider: D,
}

impl TwoChoice<PerfectDecider> {
    /// The classic noise-free `Two-Choice` process (ties kept on the first
    /// sample, which the theory treats as "arbitrary").
    #[must_use]
    pub fn classic() -> Self {
        Self::new(PerfectDecider::default())
    }

    /// Noise-free `Two-Choice` with random tie-breaking.
    #[must_use]
    pub fn classic_random_ties() -> Self {
        Self::new(PerfectDecider::new(TieBreak::Random))
    }
}

impl<D> TwoChoice<D> {
    /// Wraps a decision function into a two-sample process.
    #[must_use]
    pub fn new(decider: D) -> Self {
        Self { decider }
    }

    /// The decision function.
    #[must_use]
    pub fn decider(&self) -> &D {
        &self.decider
    }

    /// Mutable access to the decision function.
    pub fn decider_mut(&mut self) -> &mut D {
        &mut self.decider
    }

    /// Unwraps the decision function.
    #[must_use]
    pub fn into_decider(self) -> D {
        self.decider
    }
}

impl<D: Decider> Process for TwoChoice<D> {
    #[inline]
    fn allocate(&mut self, state: &mut LoadState, rng: &mut Rng) -> usize {
        let n = state.n();
        let i1 = rng.below_usize(n);
        let i2 = rng.below_usize(n);
        let chosen = self.decider.decide(state, i1, i2, rng);
        debug_assert!(chosen == i1 || chosen == i2, "decider must pick a sample");
        state.allocate(chosen);
        chosen
    }

    /// Monomorphized batched engine for the two-sample loop.
    ///
    /// With a [`batchable`](Decider::batchable) decider and a run long
    /// enough to amortize one O(n) repair scan, the loop defers aggregate
    /// maintenance ([`LoadState::batch`]), pre-loads both candidate loads
    /// into registers (the inlined decider's own reads CSE away), and
    /// stores the incremented load through
    /// [`place_with`](crate::LoadBatch::place_with) — removing both the
    /// min/max bookkeeping branches and the dependent re-read from the
    /// store path. Draws stay interleaved: benchmarks showed pre-drawing
    /// samples through [`Rng::fill_below`] serializes the generator's
    /// dependency chain against the consume work and costs ~2× on current
    /// hardware (see `docs/PERFORMANCE.md`).
    fn run_batch(&mut self, state: &mut LoadState, steps: u64, rng: &mut Rng) {
        let bound = state.n() as u64;
        if !self.decider.batchable() || steps < bound {
            // Per-ball fallback: deciders that draw from the generator fix
            // the draw interleaving, and short runs do not amortize the
            // end-of-batch repair scan.
            for _ in 0..steps {
                self.allocate(state, rng);
            }
            return;
        }
        // Totals-free deciders let the engine defer the per-ball
        // `balls += 1` — a same-cell read-modify-write every iteration
        // whose store-forward latency is the measured critical path of
        // this loop (docs/PERFORMANCE.md) — and settle the counter once at
        // the end. The branch is loop-invariant, so LLVM unswitches it.
        let deferred = self.decider.totals_free();
        let mut batch = state.batch();
        for _ in 0..steps {
            let i1 = rng.below(bound) as usize;
            let i2 = rng.below(bound) as usize;
            let view = batch.view();
            let (x1, x2) = (view.load(i1), view.load(i2));
            let chosen = self.decider.decide(view, i1, i2, rng);
            debug_assert!(chosen == i1 || chosen == i2, "decider must pick a sample");
            let x = std::hint::select_unpredictable(chosen == i1, x1, x2);
            if deferred {
                batch.place_with_uncounted(chosen, x);
            } else {
                batch.place_with(chosen, x);
            }
        }
        if deferred {
            batch.credit_balls(steps);
        }
    }

    fn reset(&mut self) {
        self.decider.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tie_break_rules() {
        let mut rng = Rng::from_seed(0);
        assert_eq!(TieBreak::FirstSample.resolve(3, 9, &mut rng), 3);
        assert_eq!(TieBreak::LowestIndex.resolve(9, 3, &mut rng), 3);
        let picks: Vec<usize> = (0..1000)
            .map(|_| TieBreak::Random.resolve(1, 2, &mut rng))
            .collect();
        let ones = picks.iter().filter(|&&p| p == 1).count();
        assert!(ones > 400 && ones < 600, "random tie-break biased: {ones}");
    }

    #[test]
    fn tie_break_probabilities() {
        assert_eq!(TieBreak::FirstSample.prob_first(1, 2), 1.0);
        assert_eq!(TieBreak::Random.prob_first(1, 2), 0.5);
        assert_eq!(TieBreak::LowestIndex.prob_first(1, 2), 1.0);
        assert_eq!(TieBreak::LowestIndex.prob_first(2, 1), 0.0);
    }

    #[test]
    fn perfect_decider_picks_lighter() {
        let state = LoadState::from_loads(vec![10, 0, 5]);
        let mut d = PerfectDecider::default();
        let mut rng = Rng::from_seed(1);
        assert_eq!(d.decide(&state, 0, 1, &mut rng), 1);
        assert_eq!(d.decide(&state, 1, 0, &mut rng), 1);
        assert_eq!(d.decide(&state, 0, 2, &mut rng), 2);
        assert_eq!(d.decide(&state, 2, 2, &mut rng), 2);
    }

    #[test]
    fn perfect_decider_probabilities_match_behavior() {
        let state = LoadState::from_loads(vec![4, 4, 9]);
        let d = PerfectDecider::new(TieBreak::Random);
        assert_eq!(d.prob_first(&state, 0, 2), 1.0);
        assert_eq!(d.prob_first(&state, 2, 0), 0.0);
        assert_eq!(d.prob_first(&state, 0, 1), 0.5);
    }

    #[test]
    fn two_choice_allocates_every_step() {
        let mut p = TwoChoice::classic();
        let mut state = LoadState::new(10);
        let mut rng = Rng::from_seed(11);
        for t in 1..=500u64 {
            p.allocate(&mut state, &mut rng);
            assert_eq!(state.balls(), t);
        }
    }

    #[test]
    fn two_choice_beats_one_choice_on_gap() {
        // Sanity: with n = m = 2^12, Two-Choice's gap should be far below
        // the Θ(log n / log log n) of One-Choice. Uses fixed seeds.
        let n = 4096;
        let mut rng = Rng::from_seed(2023);
        let mut two = LoadState::new(n);
        TwoChoice::classic().run(&mut two, n as u64, &mut rng);

        let mut one = LoadState::new(n);
        let mut rng2 = Rng::from_seed(2023);
        for _ in 0..n {
            let i = rng2.below_usize(n);
            one.allocate(i);
        }
        assert!(
            two.max_load() < one.max_load(),
            "two-choice max {} should beat one-choice max {}",
            two.max_load(),
            one.max_load()
        );
        assert!(two.max_load() <= 4, "log2 log 4096 + O(1) expected");
    }

    #[test]
    fn run_batch_is_bit_identical_to_per_ball() {
        // Covers both paths (deferred-aggregate for steps ≥ n, the
        // per-ball fallback below) and both decider classes.
        for tie in [
            TieBreak::FirstSample,
            TieBreak::LowestIndex,
            TieBreak::Random,
        ] {
            for (n, steps) in [(64usize, 10u64), (64, 64), (64, 5_000), (7, 4_099)] {
                let mut a = LoadState::new(n);
                let mut b = LoadState::new(n);
                let mut rng_a = Rng::from_seed(2024);
                let mut rng_b = Rng::from_seed(2024);
                let mut pa = TwoChoice::new(PerfectDecider::new(tie));
                let mut pb = TwoChoice::new(PerfectDecider::new(tie));
                for _ in 0..steps {
                    pa.allocate(&mut a, &mut rng_a);
                }
                pb.run_batch(&mut b, steps, &mut rng_b);
                assert_eq!(a, b, "states diverged: tie {tie:?}, n {n}, steps {steps}");
                assert_eq!(
                    rng_a, rng_b,
                    "rng diverged: tie {tie:?}, n {n}, steps {steps}"
                );
            }
        }
    }

    #[test]
    fn run_batch_split_arbitrarily_matches_single_call() {
        let n = 50;
        let mut whole = LoadState::new(n);
        let mut split = LoadState::new(n);
        let mut rng_a = Rng::from_seed(5);
        let mut rng_b = Rng::from_seed(5);
        TwoChoice::classic().run_batch(&mut whole, 3_000, &mut rng_a);
        let mut p = TwoChoice::classic();
        for part in [1u64, 49, 2_048, 700, 202] {
            p.run_batch(&mut split, part, &mut rng_b);
        }
        assert_eq!(whole, split);
        assert_eq!(rng_a, rng_b);
    }

    #[test]
    fn perfect_decider_batchability_tracks_tie_rule() {
        assert!(PerfectDecider::new(TieBreak::FirstSample).batchable());
        assert!(PerfectDecider::new(TieBreak::LowestIndex).batchable());
        assert!(!PerfectDecider::new(TieBreak::Random).batchable());
    }

    #[test]
    fn run_through_mut_reference_and_box() {
        let mut state = LoadState::new(4);
        let mut rng = Rng::from_seed(0);
        let mut p = TwoChoice::classic();
        {
            let r = &mut p;
            r.run(&mut state, 10, &mut rng);
        }
        let mut boxed: Box<dyn Process> = Box::new(TwoChoice::classic());
        boxed.run(&mut state, 10, &mut rng);
        boxed.reset();
        assert_eq!(state.balls(), 20);
    }

    #[test]
    fn heavily_loaded_two_choice_gap_stays_small() {
        // m = 100 n: gap should remain O(log log n)-ish, nowhere near
        // One-Choice's Θ(sqrt((m/n) log n)) ≈ 26.
        let n = 1000;
        let mut state = LoadState::new(n);
        let mut rng = Rng::from_seed(7);
        TwoChoice::classic().run(&mut state, 100 * n as u64, &mut rng);
        assert!(state.gap() < 6.0, "gap {} too large", state.gap());
    }
}
