//! The binary-query setting of \[35\]: comparing bins through `k` threshold
//! questions.
//!
//! The paper's related work (Section 1) describes a model — by the same
//! authors — where a sampled bin's load can only be probed through binary
//! queries *"is your load at least t?"*. With `k` queries per sample, one
//! obtains a `k`-bit estimate, and \[35\] shows the gap is
//! `O(k·(log n)^{1/k})`. The decider here performs binary search over the
//! current load range with `k` queries per sampled bin and compares the
//! resulting estimates — another natural "incomplete information" instance
//! of the `Two-Choice`-with-noise framework.

use balloc_core::{Decider, LoadState, Rng};

/// A comparison made through `k` binary threshold queries per sampled bin.
///
/// Each sampled bin's load is bracketed by binary search over
/// `[min_load, max_load]` using `k` queries, and the ball goes to the bin
/// with the smaller bracket midpoint (ties broken randomly).
///
/// With `k` large enough to resolve the whole load range this is exact
/// `Two-Choice`; with small `k` similarly loaded bins become
/// indistinguishable — a data-dependent analogue of `g-Myopic-Comp` whose
/// effective `g` is the final bracket width.
///
/// # Examples
///
/// ```
/// use balloc_core::{LoadState, Process, Rng, TwoChoice};
/// use balloc_noise::QueryComp;
///
/// let mut process = TwoChoice::new(QueryComp::new(2));
/// let mut state = LoadState::new(500);
/// let mut rng = Rng::from_seed(8);
/// process.run(&mut state, 10_000, &mut rng);
/// assert_eq!(state.balls(), 10_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryComp {
    k: u32,
}

impl QueryComp {
    /// Creates a `k`-query comparison.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: u32) -> Self {
        assert!(k >= 1, "need at least one query");
        Self { k }
    }

    /// The query budget per sampled bin.
    #[must_use]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Brackets `load` within `[lo, hi]` using `k` binary queries;
    /// returns the bracket midpoint (doubled, to stay in integers).
    #[inline]
    fn estimate_doubled(&self, load: u64, mut lo: u64, mut hi: u64) -> u64 {
        for _ in 0..self.k {
            if lo >= hi {
                break;
            }
            let mid = lo + (hi - lo).div_ceil(2);
            // Query: "is your load at least mid?"
            if load >= mid {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo + hi // doubled midpoint avoids fractions
    }
}

impl Decider for QueryComp {
    #[inline]
    fn decide(&mut self, state: &LoadState, i1: usize, i2: usize, rng: &mut Rng) -> usize {
        let (lo, hi) = (state.min_load(), state.max_load());
        let e1 = self.estimate_doubled(state.load(i1), lo, hi);
        let e2 = self.estimate_doubled(state.load(i2), lo, hi);
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

#[cfg(test)]
mod tests {
    use super::*;
    use balloc_core::{Process, TwoChoice};
    use balloc_processes::OneChoice;

    #[test]
    #[should_panic(expected = "at least one query")]
    fn zero_queries_rejected() {
        let _ = QueryComp::new(0);
    }

    #[test]
    fn estimates_are_within_brackets() {
        let q = QueryComp::new(3);
        for load in 0..=32u64 {
            let doubled = q.estimate_doubled(load, 0, 32);
            let mid = doubled as f64 / 2.0;
            // After k queries over a range of width 32, the bracket has
            // width ⩽ 32/2^3 = 4; the midpoint is within 2·width of truth.
            assert!(
                (mid - load as f64).abs() <= 4.0,
                "load {load}: estimate {mid}"
            );
        }
    }

    #[test]
    fn many_queries_resolve_exactly() {
        let q = QueryComp::new(16);
        for load in 0..=100u64 {
            assert_eq!(q.estimate_doubled(load, 0, 100), 2 * load);
        }
    }

    #[test]
    fn exact_queries_recover_two_choice_decisions() {
        let state = LoadState::from_loads(vec![9, 4, 4, 1, 0]);
        let mut q = QueryComp::new(16);
        let mut rng = Rng::from_seed(1);
        for i1 in 0..state.n() {
            for i2 in 0..state.n() {
                if state.load(i1) == state.load(i2) {
                    continue;
                }
                let chosen = q.decide(&state, i1, i2, &mut rng);
                let lighter = if state.load(i1) < state.load(i2) {
                    i1
                } else {
                    i2
                };
                assert_eq!(chosen, lighter, "pair ({i1},{i2})");
            }
        }
    }

    #[test]
    fn gap_improves_with_query_budget() {
        let n = 1_000;
        let m = 50 * n as u64;
        let gap_for = |k: u32| {
            let mut state = LoadState::new(n);
            let mut rng = Rng::from_seed(77);
            TwoChoice::new(QueryComp::new(k)).run(&mut state, m, &mut rng);
            state.gap()
        };
        let g1 = gap_for(1);
        let g2 = gap_for(2);
        let g6 = gap_for(6);
        assert!(
            g2 <= g1 + 0.5,
            "more queries should not hurt: k=1 {g1}, k=2 {g2}"
        );
        assert!(g6 < g1, "k=6 {g6} should clearly beat k=1 {g1}");
    }

    #[test]
    fn even_one_query_beats_one_choice() {
        // [35]: even a single threshold query per sample gives a gap far
        // below One-Choice (O(k·(log n)^{1/k}) with k = 1 is O(log n),
        // beating One-Choice's Θ(√((m/n)·log n)) for large m).
        let n = 1_000;
        let m = 100 * n as u64;
        let mut query = LoadState::new(n);
        let mut rng = Rng::from_seed(5);
        TwoChoice::new(QueryComp::new(1)).run(&mut query, m, &mut rng);

        let mut one = LoadState::new(n);
        let mut rng = Rng::from_seed(5);
        OneChoice::new().run(&mut one, m, &mut rng);

        assert!(
            query.gap() < one.gap(),
            "1-query gap {} should beat one-choice {}",
            query.gap(),
            one.gap()
        );
    }
}
