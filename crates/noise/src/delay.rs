//! The `τ-Delay` setting: outdated load information.

use std::collections::VecDeque;

use balloc_core::{LoadState, Process, Rng};

/// How the `τ-Delay` adversary picks load estimates inside the sliding
/// window `[x^{t−τ}, x^{t−1}]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DelayStrategy {
    /// Always report the stalest value `x^{t−τ}` (maximal uniform delay;
    /// the asynchronous analogue of `b-Batch`). Estimate ties are broken by
    /// a fair coin, mirroring `b-Batch`'s random tie-breaking.
    #[default]
    Stalest,
    /// Always report the current value `x^{t−1}` — no effective delay;
    /// recovers noise-free `Two-Choice` (ties to the first sample).
    Freshest,
    /// The strongest adaptive adversary: reverse the comparison whenever
    /// some choice of estimates allows it (i.e. when the heavier bin's
    /// stalest value does not exceed the lighter bin's current value),
    /// otherwise answer correctly.
    AdversarialFlip,
    /// Report an independent uniform value from each bin's window
    /// (a non-adversarial staleness model). Estimate ties are broken by a
    /// fair coin.
    RandomInWindow,
}

/// The `τ-Delay` process (Section 2, "Adversarial Delay"): when bins
/// `i1, i2` are sampled at step `t`, the reported loads may be any values in
/// `[x^{t−τ}_i, x^{t−1}_i]`; the ball goes to the bin with the smaller
/// report.
///
/// `τ = 1` forces both reports to be current, recovering `Two-Choice`. The
/// paper proves `Gap(m) = Θ(log n / log log n)` for `τ = n`
/// (Theorem 10.2) and `O(log log n)` for `τ = n^{1−ε}` (Remark 10.6).
///
/// The sliding window is maintained in O(1) amortized time per step: a
/// queue of the last `τ − 1` allocations plus a per-bin pending count gives
/// `x^{t−τ}_i = x^{t−1}_i − pending_i`.
///
/// The process tracks its own allocations; if the [`LoadState`] is
/// modified externally between calls, the sliding window resets (the next
/// comparisons see fresh loads until the window refills).
///
/// # Examples
///
/// ```
/// use balloc_core::{LoadState, Process, Rng};
/// use balloc_noise::{Delayed, DelayStrategy};
///
/// let n = 500;
/// let mut process = Delayed::new(n as u64, DelayStrategy::AdversarialFlip);
/// let mut state = LoadState::new(n);
/// let mut rng = Rng::from_seed(1);
/// process.run(&mut state, 20 * n as u64, &mut rng);
/// assert_eq!(state.balls(), 20 * n as u64);
/// ```
#[derive(Debug, Clone)]
pub struct Delayed {
    tau: u64,
    strategy: DelayStrategy,
    window: VecDeque<usize>,
    pending: Vec<u64>,
    /// Ball count after our last allocation; a mismatch at the next call
    /// means the state was modified externally and the window is stale.
    expected_balls: Option<u64>,
}

impl Delayed {
    /// Creates the `τ-Delay` process.
    ///
    /// # Panics
    ///
    /// Panics if `tau == 0` (the paper requires `τ ⩾ 1`).
    #[must_use]
    pub fn new(tau: u64, strategy: DelayStrategy) -> Self {
        assert!(tau >= 1, "tau must be at least 1");
        Self {
            tau,
            strategy,
            window: VecDeque::new(),
            pending: Vec::new(),
            expected_balls: None,
        }
    }

    /// The delay bound `τ`.
    #[must_use]
    pub fn tau(&self) -> u64 {
        self.tau
    }

    /// The staleness strategy.
    #[must_use]
    pub fn strategy(&self) -> DelayStrategy {
        self.strategy
    }

    /// The stalest admissible estimate `x^{t−τ}_i` for bin `i`.
    ///
    /// Saturating: if the state was modified externally in a way the
    /// ball-count heuristic could not detect, a pending count may exceed
    /// the current load; clamp at zero rather than underflow.
    #[inline]
    fn oldest(&self, state: &LoadState, i: usize) -> u64 {
        state.load(i).saturating_sub(self.pending[i])
    }

    #[inline]
    fn ensure_capacity(&mut self, n: usize) {
        if self.pending.len() != n {
            self.pending = vec![0; n];
            self.window.clear();
        }
    }

    #[inline]
    fn choose(&mut self, state: &LoadState, i1: usize, i2: usize, rng: &mut Rng) -> usize {
        match self.strategy {
            DelayStrategy::Stalest => {
                let (e1, e2) = (self.oldest(state, i1), self.oldest(state, i2));
                if e1 < e2 {
                    i1
                } else if e2 < e1 {
                    i2
                } else if rng.coin() {
                    i1
                } else {
                    i2
                }
            }
            DelayStrategy::Freshest => {
                if state.load(i2) < state.load(i1) {
                    i2
                } else {
                    i1
                }
            }
            DelayStrategy::AdversarialFlip => {
                // Ties in the true loads count the first sample as heavier,
                // which the adversary can always "flip" to (estimates tie).
                let (lighter, heavier) = if state.load(i2) > state.load(i1) {
                    (i1, i2)
                } else {
                    (i2, i1)
                };
                if self.oldest(state, heavier) <= state.load(lighter) {
                    heavier
                } else {
                    lighter
                }
            }
            DelayStrategy::RandomInWindow => {
                let e1 = self.oldest(state, i1) + rng.below(self.pending[i1] + 1);
                let e2 = self.oldest(state, i2) + rng.below(self.pending[i2] + 1);
                if e1 < e2 {
                    i1
                } else if e2 < e1 {
                    i2
                } else if rng.coin() {
                    i1
                } else {
                    i2
                }
            }
        }
    }
}

impl Process for Delayed {
    fn allocate(&mut self, state: &mut LoadState, rng: &mut Rng) -> usize {
        let n = state.n();
        self.ensure_capacity(n);
        if let Some(expected) = self.expected_balls {
            if expected != state.balls() {
                // External modification: the recorded window no longer
                // matches the state; reset it.
                self.window.clear();
                self.pending.fill(0);
            }
        }
        let i1 = rng.below_usize(n);
        let i2 = rng.below_usize(n);
        let chosen = self.choose(state, i1, i2, rng);
        state.allocate(chosen);
        if self.tau > 1 {
            self.window.push_back(chosen);
            self.pending[chosen] += 1;
            if self.window.len() as u64 > self.tau - 1 {
                let old = self.window.pop_front().expect("window non-empty");
                self.pending[old] -= 1;
            }
        }
        self.expected_balls = Some(state.balls());
        chosen
    }

    /// Batched engine: capacity and external-modification checks are
    /// hoisted out of the loop (inside one call this process is the only
    /// allocator), the window bookkeeping stays per-ball. Estimates read
    /// only per-bin loads, so long runs defer aggregate maintenance.
    fn run_batch(&mut self, state: &mut LoadState, steps: u64, rng: &mut Rng) {
        let n = state.n();
        let bound = n as u64;
        if steps < bound {
            for _ in 0..steps {
                self.allocate(state, rng);
            }
            return;
        }
        self.ensure_capacity(n);
        if let Some(expected) = self.expected_balls {
            if expected != state.balls() {
                self.window.clear();
                self.pending.fill(0);
            }
        }
        let track_window = self.tau > 1;
        let window_cap = self.tau - 1;
        {
            let mut batch = state.batch();
            for _ in 0..steps {
                let i1 = rng.below(bound) as usize;
                let i2 = rng.below(bound) as usize;
                let chosen = self.choose(batch.view(), i1, i2, rng);
                batch.place(chosen);
                if track_window {
                    self.window.push_back(chosen);
                    self.pending[chosen] += 1;
                    if self.window.len() as u64 > window_cap {
                        let old = self.window.pop_front().expect("window non-empty");
                        self.pending[old] -= 1;
                    }
                }
            }
        }
        self.expected_balls = Some(state.balls());
    }

    fn reset(&mut self) {
        self.window.clear();
        self.pending.fill(0);
        self.expected_balls = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use balloc_core::TwoChoice;

    #[test]
    #[should_panic(expected = "tau")]
    fn tau_zero_rejected() {
        let _ = Delayed::new(0, DelayStrategy::Stalest);
    }

    #[test]
    fn tau_one_matches_classic_two_choice_stream() {
        // With τ = 1 the window is empty, estimates equal true loads, and
        // neither Freshest nor AdversarialFlip draws randomness — so the
        // allocation streams coincide with classic Two-Choice exactly.
        for strategy in [DelayStrategy::Freshest, DelayStrategy::AdversarialFlip] {
            let n = 64;
            let m = 4_000;
            let mut a = LoadState::new(n);
            let mut b = LoadState::new(n);
            let mut rng_a = Rng::from_seed(55);
            let mut rng_b = Rng::from_seed(55);
            Delayed::new(1, strategy).run(&mut a, m, &mut rng_a);
            TwoChoice::classic().run(&mut b, m, &mut rng_b);
            assert_eq!(a.loads(), b.loads(), "strategy {strategy:?}");
        }
    }

    #[test]
    fn window_bookkeeping_matches_history() {
        // Replay the allocation history and verify pending counts equal the
        // number of allocations to each bin within the last τ−1 steps.
        let n = 16;
        let tau = 10u64;
        let mut process = Delayed::new(tau, DelayStrategy::RandomInWindow);
        let mut state = LoadState::new(n);
        let mut rng = Rng::from_seed(321);
        let mut history: Vec<usize> = Vec::new();
        for _ in 0..2_000 {
            let chosen = process.allocate(&mut state, &mut rng);
            history.push(chosen);
            let w = (tau - 1) as usize;
            let start = history.len().saturating_sub(w);
            let mut counts = vec![0u64; n];
            for &b in &history[start..] {
                counts[b] += 1;
            }
            assert_eq!(process.pending, counts);
        }
    }

    #[test]
    fn stalest_estimates_lag_by_window() {
        let n = 4;
        let tau = 5u64;
        let mut process = Delayed::new(tau, DelayStrategy::Stalest);
        let mut state = LoadState::new(n);
        let mut rng = Rng::from_seed(0);
        for _ in 0..100 {
            process.allocate(&mut state, &mut rng);
        }
        // Oldest estimates equal current loads minus pending, and pending
        // sums to the window size τ−1.
        let total_pending: u64 = process.pending.iter().sum();
        assert_eq!(total_pending, tau - 1);
        for i in 0..n {
            assert_eq!(
                process.oldest(&state, i),
                state.load(i) - process.pending[i]
            );
        }
    }

    #[test]
    fn gap_grows_with_tau() {
        let n = 1_000;
        let m = 30 * n as u64;
        let gap_for = |tau: u64| {
            let mut state = LoadState::new(n);
            let mut rng = Rng::from_seed(2222);
            Delayed::new(tau, DelayStrategy::AdversarialFlip).run(&mut state, m, &mut rng);
            state.gap()
        };
        let g1 = gap_for(1);
        let gn = gap_for(n as u64);
        assert!(
            gn > g1 + 1.0,
            "τ=n gap {gn} should clearly exceed τ=1 gap {g1}"
        );
    }

    #[test]
    fn tau_n_gap_is_log_over_loglog_scale() {
        // Theorem 10.2: Gap = Θ(log n/log log n) for τ = n. For n = 4096:
        // ln n/ln ln n ≈ 3.9. Accept a generous band around it.
        let n = 4096;
        let m = 50 * n as u64;
        let mut state = LoadState::new(n);
        let mut rng = Rng::from_seed(1010);
        Delayed::new(n as u64, DelayStrategy::AdversarialFlip).run(&mut state, m, &mut rng);
        let gap = state.gap();
        assert!(
            (2.0..16.0).contains(&gap),
            "τ=n gap {gap} outside Θ(log n/log log n) band"
        );
    }

    #[test]
    fn adversarial_flip_dominates_stalest() {
        let n = 1_000;
        let m = 50 * n as u64;
        let tau = n as u64;
        let gap_for = |strategy| {
            let mut state = LoadState::new(n);
            let mut rng = Rng::from_seed(31415);
            Delayed::new(tau, strategy).run(&mut state, m, &mut rng);
            state.gap()
        };
        let flip = gap_for(DelayStrategy::AdversarialFlip);
        let stale = gap_for(DelayStrategy::Stalest);
        assert!(
            flip + 2.0 > stale,
            "adversarial flip ({flip}) should not be far below stalest ({stale})"
        );
    }

    #[test]
    fn reset_clears_window() {
        let mut process = Delayed::new(8, DelayStrategy::Stalest);
        let mut state = LoadState::new(8);
        let mut rng = Rng::from_seed(3);
        process.run(&mut state, 100, &mut rng);
        process.reset();
        assert!(process.window.is_empty());
        assert!(process.pending.iter().all(|&c| c == 0));
    }
}
