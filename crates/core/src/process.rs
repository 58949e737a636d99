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
use crate::rng::{LaneRng, Rng};

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
    /// docs/PERFORMANCE.md) — and settle the counter once per block via
    /// [`LoadBatch::credit_balls`](crate::load::LoadBatch::credit_balls).
    /// The final state is bit-identical; only intermediate `balls` values
    /// (which the decider has promised not to observe) differ. The default
    /// is `false`, which is always safe; violations are caught by the
    /// batch/lane equivalence property suites.
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

/// The canonical scalar reference for lane-parallel execution: ball `t`
/// allocates through lane `t mod K` of the interleaved generator, per-ball.
///
/// This defines **what a lane kernel must compute**. A
/// [`LaneProcess::run_lanes`] implementation is free to batch its raw draws
/// across lanes (that is the whole point — the per-lane streams are
/// independent, so draw interleaving across lanes cannot change any lane's
/// values), but its final `LoadState` *and* final per-lane generator states
/// must be bit-identical to this loop at every seed and every `K`. The
/// workspace's lane-equivalence property suite asserts exactly that.
///
/// It is also the safe fallback: kernels route non-[`batchable`]
/// (`Decider::batchable`) configurations here, which makes the equivalence
/// trivial on that path.
///
/// [`batchable`]: Decider::batchable
pub fn run_lanes_reference<const K: usize, P: Process + ?Sized>(
    process: &mut P,
    state: &mut LoadState,
    steps: u64,
    lanes: &mut LaneRng<K>,
) {
    for t in 0..steps {
        let k = (t % K as u64) as usize;
        lanes.with_lane(k, |rng| {
            process.allocate(state, rng);
        });
    }
}

/// An allocation process with a lane-parallel batched engine over `K`
/// interleaved RNG streams.
///
/// This is deliberately a *separate* trait from [`Process`] (whose object
/// safety `Box<dyn Process>` relies on — a const-generic method would break
/// it): processes opt in per lane width. The scalar engine's frozen-stream
/// story does not carry over verbatim — `K` independent streams are not one
/// serial stream — so lane execution is governed by the *versioned* seeding
/// contract of [`SeedScheme`](crate::rng::SeedScheme) instead:
///
/// * under `V2`, `run_lanes` must be bit-identical to
///   [`run_lanes_reference`] (same loads, same final lane states);
/// * under `V1` (`K = 1`, the frozen stream), the reference loop degenerates
///   to per-ball allocation from the serial generator, so `run_lanes` is
///   bit-identical to [`Process::run`] with `Rng::from_seed(master)`.
pub trait LaneProcess<const K: usize>: Process {
    /// Allocates `steps` balls through the lane-parallel engine.
    ///
    /// Must be bit-identical to [`run_lanes_reference`] — same final
    /// `LoadState`, same final state of every lane of `lanes`.
    fn run_lanes(&mut self, state: &mut LoadState, steps: u64, lanes: &mut LaneRng<K>);
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
        // across engines (the lane kernels got branch-over-mov hammocks —
        // two mispredicts per ball — where the scalar engine got `cmov`
        // from identical source).
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

/// One block's decide/place pass of the lane-parallel two-sample kernel:
/// `rows` is the interleaved draw buffer (row `2g` = group `g`'s first
/// samples, row `2g+1` its second), consumed strictly in ball order so
/// every decision sees the placements of earlier balls.
#[inline]
fn decide_block<const K: usize, D: Decider>(
    decider: &mut D,
    batch: &mut crate::load::LoadBatch<'_>,
    inert: &mut Rng,
    rows: &[[u64; K]],
    deferred: bool,
) {
    for pair in rows.chunks_exact(2) {
        for (&d1, &d2) in pair[0].iter().zip(&pair[1]) {
            let (i1, i2) = (d1 as usize, d2 as usize);
            let view = batch.view();
            let (x1, x2) = (view.load(i1), view.load(i2));
            let chosen = decider.decide(view, i1, i2, inert);
            debug_assert!(chosen == i1 || chosen == i2, "decider must pick a sample");
            let x = std::hint::select_unpredictable(chosen == i1, x1, x2);
            if deferred {
                batch.place_with_uncounted(chosen, x);
            } else {
                batch.place_with(chosen, x);
            }
        }
    }
    if deferred {
        batch.credit_balls(rows.len() as u64 / 2 * K as u64);
    }
}

impl<const K: usize, D: Decider> LaneProcess<K> for TwoChoice<D> {
    /// Lane-parallel two-sample kernel.
    ///
    /// Per lane group of `K` balls, both candidate draws happen through two
    /// lockstep [`below_lanes`](LaneRng::below_lanes) sweeps — `2K` bounded
    /// draws with no serial dependency chain, where the scalar engine's
    /// draws each wait on the previous xoshiro step. The decide/place pass
    /// stays sequential in lane order within the group: decisions must see
    /// the placements of earlier balls in the same group (the draws
    /// themselves are load-independent, so hoisting them is
    /// observation-equivalent), which keeps the kernel bit-identical to
    /// [`run_lanes_reference`].
    fn run_lanes(&mut self, state: &mut LoadState, steps: u64, lanes: &mut LaneRng<K>) {
        let bound = state.n() as u64;
        if !self.decider.batchable() || steps < bound {
            // Deciders that draw from the generator fix a per-ball draw
            // interleaving no cross-lane hoist can reproduce; short runs do
            // not amortize the end-of-batch repair scan.
            run_lanes_reference(self, state, steps, lanes);
            return;
        }
        let groups = steps / K as u64;
        let tail = (steps % K as u64) as usize;
        // A batchable decider never draws (its promise #1), so any
        // generator satisfies the signature; a detached lane copy avoids
        // inventing a literal seed in library code.
        let mut inert = lanes.lane(0);
        let mut batch = state.batch();
        // Draws are staged BLOCK groups ahead of the decide/place pass.
        // Two reasons, both measured (docs/PERFORMANCE.md): the fill loop
        // keeps the lane state live across 2·BLOCK lockstep steps instead
        // of reloading it per group, and the decide pass reads each index
        // long after its (vector) store has retired — reading a lane
        // scalar-width right after a K-wide store forwards poorly. The
        // i1/i2 fills stay interleaved per group, so each lane's stream is
        // consumed in reference order and bit-identity is untouched.
        // Totals-free deciders additionally let the kernel defer the
        // per-ball `balls += 1` (same-cell store-forward chain, the
        // decide pass's critical path — docs/PERFORMANCE.md) and settle
        // the counter once per block. Loop-invariant, so LLVM unswitches.
        let deferred = self.decider.totals_free();
        const BLOCK: usize = 16;
        // Interleaved draw buffers: row 2g holds group g's first samples,
        // row 2g+1 its second — the same per-lane draw order as the
        // per-group loop, filled by one optimistic block sweep
        // (see `LaneRng::fill_below_lanes`). Two buffers, software-
        // pipelined one block apart: the (vector-heavy) fill of block
        // `b+1` issues before the (load-heavy) decide pass of block `b`,
        // so the two phases overlap in the out-of-order window instead of
        // strictly alternating. Draws are load-independent, so hoisting
        // them a block early is observation-equivalent.
        let mut bufs = [[[0u64; K]; 2 * BLOCK]; 2];
        let (front, back) = bufs.split_at_mut(1);
        let (mut cur, mut nxt) = (&mut front[0], &mut back[0]);
        let full_blocks = groups / BLOCK as u64;
        let spill_groups = (groups % BLOCK as u64) as usize;
        if full_blocks > 0 {
            lanes.fill_below_lanes(bound, cur);
            for _ in 1..full_blocks {
                lanes.fill_below_lanes(bound, nxt);
                decide_block::<K, D>(&mut self.decider, &mut batch, &mut inert, cur, deferred);
                std::mem::swap(&mut cur, &mut nxt);
            }
            decide_block::<K, D>(&mut self.decider, &mut batch, &mut inert, cur, deferred);
        }
        for _ in 0..spill_groups {
            let i1s = lanes.below_lanes(bound);
            let i2s = lanes.below_lanes(bound);
            for k in 0..K {
                let (i1, i2) = (i1s[k] as usize, i2s[k] as usize);
                let view = batch.view();
                let (x1, x2) = (view.load(i1), view.load(i2));
                let chosen = self.decider.decide(view, i1, i2, &mut inert);
                debug_assert!(chosen == i1 || chosen == i2, "decider must pick a sample");
                let x = std::hint::select_unpredictable(chosen == i1, x1, x2);
                if deferred {
                    batch.place_with_uncounted(chosen, x);
                } else {
                    batch.place_with(chosen, x);
                }
            }
            if deferred {
                batch.credit_balls(K as u64);
            }
        }
        // Tail balls (steps not a multiple of K) continue the reference's
        // lane rotation: ball `groups·K + k` draws from lane `k`.
        for k in 0..tail {
            let i1 = lanes.below_lane(k, bound) as usize;
            let i2 = lanes.below_lane(k, bound) as usize;
            let view = batch.view();
            let (x1, x2) = (view.load(i1), view.load(i2));
            let chosen = self.decider.decide(view, i1, i2, &mut inert);
            debug_assert!(chosen == i1 || chosen == i2, "decider must pick a sample");
            let x = std::hint::select_unpredictable(chosen == i1, x1, x2);
            batch.place_with(chosen, x);
        }
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
        for tie in [TieBreak::FirstSample, TieBreak::LowestIndex, TieBreak::Random] {
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
                assert_eq!(rng_a, rng_b, "rng diverged: tie {tie:?}, n {n}, steps {steps}");
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

    fn lane_kernel_matches_reference<const K: usize>(tie: TieBreak, n: usize, steps: u64) {
        use crate::rng::{LaneRng, SeedScheme};
        let mut kernel_state = LoadState::new(n);
        let mut reference_state = LoadState::new(n);
        let mut kernel_lanes = LaneRng::<K>::new(SeedScheme::V2, 77);
        let mut reference_lanes = LaneRng::<K>::new(SeedScheme::V2, 77);
        let mut kernel = TwoChoice::new(PerfectDecider::new(tie));
        let mut reference = TwoChoice::new(PerfectDecider::new(tie));
        kernel.run_lanes(&mut kernel_state, steps, &mut kernel_lanes);
        run_lanes_reference(&mut reference, &mut reference_state, steps, &mut reference_lanes);
        assert_eq!(
            kernel_state, reference_state,
            "states diverged: tie {tie:?}, K {K}, n {n}, steps {steps}"
        );
        assert_eq!(
            kernel_lanes, reference_lanes,
            "lane states diverged: tie {tie:?}, K {K}, n {n}, steps {steps}"
        );
    }

    #[test]
    fn two_choice_lane_kernel_is_bit_identical_to_reference() {
        for tie in [TieBreak::FirstSample, TieBreak::LowestIndex, TieBreak::Random] {
            // Covers the kernel path (steps ≥ n, batchable), the per-ball
            // fallback (short runs, Random ties), and K-misaligned tails.
            for steps in [10u64, 64, 2_000, 2_005] {
                lane_kernel_matches_reference::<1>(tie, 64, steps);
                lane_kernel_matches_reference::<4>(tie, 64, steps);
                lane_kernel_matches_reference::<8>(tie, 64, steps);
            }
        }
    }

    #[test]
    fn v1_lane_engine_matches_frozen_scalar_engine() {
        use crate::rng::{LaneRng, SeedScheme};
        // Under the frozen scheme the lane engine (K = 1) must reproduce
        // the scalar batched engine exactly: same loads, same generator
        // state — the "V1 is byte-identical" half of the versioned
        // seeding contract.
        let (n, steps, seed) = (64usize, 4_099u64, 2022u64);
        let mut lane_state = LoadState::new(n);
        let mut lanes = LaneRng::<1>::new(SeedScheme::V1, seed);
        TwoChoice::classic().run_lanes(&mut lane_state, steps, &mut lanes);

        let mut scalar_state = LoadState::new(n);
        let mut rng = Rng::from_seed(seed);
        TwoChoice::classic().run_batch(&mut scalar_state, steps, &mut rng);

        assert_eq!(lane_state, scalar_state);
        assert_eq!(lanes.lane(0), rng);
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
