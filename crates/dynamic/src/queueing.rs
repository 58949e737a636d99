//! A discrete-time supermarket model with stale queue information.
//!
//! Mitzenmacher's *periodic update model* \[39\] — cited by the paper as the
//! queueing-theoretic incarnation of the batched setting — and Dahlin's
//! stale-load-interpretation study \[22\] ask: what happens to
//! join-the-shorter-of-two-queues when the queue lengths it reads are out
//! of date?
//!
//! The model here is slotted. In each slot:
//!
//! 1. each of the `n` arrival sources generates a job with probability λ;
//!    every job joins a queue according to the [`JoinPolicy`], reading
//!    *reported* queue lengths;
//! 2. every non-empty server completes one job with probability μ.
//!
//! For λ < μ the system is stable; the interesting question is how the
//! time-averaged number of jobs (and hence, by Little's law, the waiting
//! time) degrades as the report staleness grows — including the *herding*
//! catastrophe where very stale two-choice performs **worse than random**
//! because every arrival chases the same formerly-short queues.

use balloc_core::{LoadState, Rng};

/// How an arriving job picks its queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinPolicy {
    /// A uniformly random queue (the One-Choice baseline).
    Random,
    /// The shorter of two uniformly sampled queues, read *live*.
    TwoChoice,
    /// The shorter of two uniformly sampled queues, read from a snapshot
    /// refreshed every `update_period` slots (the periodic update model of
    /// \[39\]; the queueing analogue of `b-Batch`).
    TwoChoiceStale {
        /// Snapshot refresh interval in slots.
        update_period: u64,
    },
}

/// Running metrics of a [`Supermarket`] simulation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueueMetrics {
    /// Slots simulated.
    pub slots: u64,
    /// Total arrivals admitted.
    pub arrivals: u64,
    /// Total service completions.
    pub completions: u64,
    /// Sum over slots of the number of jobs in the system (for averages).
    jobs_integral: u128,
    /// Largest queue length ever observed.
    pub max_queue: u64,
}

impl QueueMetrics {
    /// Time-averaged number of jobs in the whole system.
    #[must_use]
    pub fn average_jobs(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.jobs_integral as f64 / self.slots as f64
        }
    }

    /// Time-averaged queue length per server.
    ///
    /// Returns `0.0` for `n == 0` (an empty server set holds no queues):
    /// metric accessors never produce non-finite values, so reports and
    /// their JSON artifacts stay valid whatever the caller passes.
    #[must_use]
    pub fn average_queue(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.average_jobs() / n as f64
        }
    }

    /// Mean sojourn time in slots, via Little's law
    /// (`L = λ_eff · W` with `λ_eff` the observed arrival rate).
    ///
    /// Returns `0.0` before any arrival has been admitted.
    #[must_use]
    pub fn mean_sojourn(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.average_jobs() * self.slots as f64 / self.arrivals as f64
        }
    }
}

/// The discrete-time supermarket model.
///
/// # Examples
///
/// ```
/// use balloc_core::Rng;
/// use balloc_dynamic::{JoinPolicy, Supermarket};
///
/// let mut market = Supermarket::new(100, 0.5, 0.8, JoinPolicy::TwoChoice);
/// let mut rng = Rng::from_seed(1);
/// market.run(2_000, &mut rng);
/// let metrics = market.metrics();
/// assert_eq!(
///     metrics.arrivals - metrics.completions,
///     market.jobs_in_system()
/// );
/// // Stable system: short queues on average.
/// assert!(metrics.average_queue(100) < 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct Supermarket {
    lambda: f64,
    mu: f64,
    policy: JoinPolicy,
    queues: LoadState,
    snapshot: Vec<u64>,
    metrics: QueueMetrics,
}

impl Supermarket {
    /// Creates a supermarket with `n` servers, per-source arrival
    /// probability `λ`, and per-server service probability `μ`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `λ ∉ (0, 1]`, `μ ∉ (0, 1]`, or a
    /// [`JoinPolicy::TwoChoiceStale`] period is zero.
    #[must_use]
    pub fn new(n: usize, lambda: f64, mu: f64, policy: JoinPolicy) -> Self {
        assert!(n > 0, "need at least one server");
        assert!(lambda > 0.0 && lambda <= 1.0, "lambda must lie in (0, 1]");
        assert!(mu > 0.0 && mu <= 1.0, "mu must lie in (0, 1]");
        if let JoinPolicy::TwoChoiceStale { update_period } = policy {
            assert!(update_period > 0, "update period must be positive");
        }
        Self {
            lambda,
            mu,
            policy,
            queues: LoadState::new(n),
            snapshot: vec![0; n],
            metrics: QueueMetrics::default(),
        }
    }

    /// Number of servers.
    #[must_use]
    pub fn n(&self) -> usize {
        self.queues.n()
    }

    /// The join policy.
    #[must_use]
    pub fn policy(&self) -> JoinPolicy {
        self.policy
    }

    /// Jobs currently in the system.
    #[must_use]
    pub fn jobs_in_system(&self) -> u64 {
        self.queues.balls()
    }

    /// Current queue lengths.
    #[must_use]
    pub fn queues(&self) -> &[u64] {
        self.queues.loads()
    }

    /// Accumulated metrics.
    #[must_use]
    pub fn metrics(&self) -> QueueMetrics {
        self.metrics
    }

    /// The queue lengths arrivals currently *see*: the live queues, or —
    /// under [`JoinPolicy::TwoChoiceStale`] — the stale snapshot.
    ///
    /// The snapshot-refresh contract (pinned by regression tests): in a
    /// refresh slot (slot 0 and every exact `update_period` multiple) the
    /// snapshot is refreshed *before* that slot's arrivals, so the first
    /// arrival of a refresh slot sees the state the previous slot left
    /// behind, never information that is `update_period + 1` slots old.
    #[must_use]
    pub fn reported_queues(&self) -> &[u64] {
        match self.policy {
            JoinPolicy::TwoChoiceStale { .. } => &self.snapshot,
            _ => self.queues.loads(),
        }
    }

    /// The queue length an arrival *sees* for server `i`.
    #[inline]
    fn reported(&self, i: usize) -> u64 {
        match self.policy {
            JoinPolicy::TwoChoiceStale { .. } => self.snapshot[i],
            _ => self.queues.load(i),
        }
    }

    /// Simulates one slot.
    pub fn step(&mut self, rng: &mut Rng) {
        let n = self.queues.n();
        if let JoinPolicy::TwoChoiceStale { update_period } = self.policy {
            if self.metrics.slots.is_multiple_of(update_period) {
                self.snapshot.copy_from_slice(self.queues.loads());
            }
        }
        // Arrivals.
        for _ in 0..n {
            if !rng.chance(self.lambda) {
                continue;
            }
            let target = match self.policy {
                JoinPolicy::Random => rng.below_usize(n),
                JoinPolicy::TwoChoice | JoinPolicy::TwoChoiceStale { .. } => {
                    let i1 = rng.below_usize(n);
                    let i2 = rng.below_usize(n);
                    let (r1, r2) = (self.reported(i1), self.reported(i2));
                    match r1.cmp(&r2) {
                        std::cmp::Ordering::Less => i1,
                        std::cmp::Ordering::Greater => i2,
                        std::cmp::Ordering::Equal => {
                            if rng.coin() {
                                i1
                            } else {
                                i2
                            }
                        }
                    }
                }
            };
            self.queues.allocate(target);
            self.metrics.arrivals += 1;
            self.metrics.max_queue = self.metrics.max_queue.max(self.queues.load(target));
        }
        // Services.
        for i in 0..n {
            if self.queues.load(i) > 0 && rng.chance(self.mu) {
                self.queues.deallocate(i);
                self.metrics.completions += 1;
            }
        }
        self.metrics.slots += 1;
        self.metrics.jobs_integral += u128::from(self.queues.balls());
    }

    /// Simulates `slots` slots.
    pub fn run(&mut self, slots: u64, rng: &mut Rng) {
        for _ in 0..slots {
            self.step(rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_market(
        policy: JoinPolicy,
        lambda: f64,
        mu: f64,
        seed: u64,
    ) -> (Supermarket, QueueMetrics) {
        let mut market = Supermarket::new(300, lambda, mu, policy);
        let mut rng = Rng::from_seed(seed);
        market.run(4_000, &mut rng);
        let m = market.metrics();
        (market, m)
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn invalid_lambda_rejected() {
        let _ = Supermarket::new(10, 0.0, 0.5, JoinPolicy::Random);
    }

    #[test]
    #[should_panic(expected = "update period")]
    fn zero_period_rejected() {
        let _ = Supermarket::new(
            10,
            0.5,
            0.9,
            JoinPolicy::TwoChoiceStale { update_period: 0 },
        );
    }

    #[test]
    fn conservation_of_jobs() {
        let (market, m) = run_market(JoinPolicy::TwoChoice, 0.6, 0.8, 1);
        assert_eq!(m.arrivals - m.completions, market.jobs_in_system());
        let total: u64 = market.queues().iter().sum();
        assert_eq!(total, market.jobs_in_system());
    }

    #[test]
    fn stable_system_has_short_queues() {
        let (_, m) = run_market(JoinPolicy::TwoChoice, 0.5, 0.9, 2);
        assert!(
            m.average_queue(300) < 1.5,
            "stable two-choice queue too long: {}",
            m.average_queue(300)
        );
        assert!(m.mean_sojourn() < 5.0);
    }

    #[test]
    fn two_choice_beats_random_at_high_load() {
        let (_, two) = run_market(JoinPolicy::TwoChoice, 0.85, 0.95, 3);
        let (_, one) = run_market(JoinPolicy::Random, 0.85, 0.95, 3);
        assert!(
            two.average_jobs() < one.average_jobs(),
            "two-choice {} should beat random {}",
            two.average_jobs(),
            one.average_jobs()
        );
    }

    #[test]
    fn mild_staleness_is_bounded() {
        // A period-2 snapshot misses up to 2·λ·n arrivals — in b-Batch
        // terms that is already b ≈ 1.4·n, so some degradation is expected
        // (and the paper's Θ(log n/log((4n/b)·log n)) law bounds it). It
        // must stay a small constant factor, far from the herding blow-up.
        let (_, live) = run_market(JoinPolicy::TwoChoice, 0.7, 0.9, 4);
        let (_, stale) = run_market(JoinPolicy::TwoChoiceStale { update_period: 2 }, 0.7, 0.9, 4);
        let ratio = stale.average_jobs() / live.average_jobs();
        assert!(
            ratio < 3.0,
            "period-2 staleness should cost a small constant: ratio {ratio}"
        );
        // …and stay clearly better than the herding regime.
        let (_, herd) = run_market(
            JoinPolicy::TwoChoiceStale {
                update_period: 2_000,
            },
            0.7,
            0.9,
            4,
        );
        assert!(stale.average_jobs() < herd.average_jobs());
    }

    #[test]
    fn extreme_staleness_causes_herding_worse_than_random() {
        // Mitzenmacher's herding phenomenon [39]: with very stale
        // information, every arrival between updates chases the same
        // formerly-short queues — worse than picking at random.
        let lambda = 0.7;
        let mu = 0.9;
        let (_, stale) = run_market(
            JoinPolicy::TwoChoiceStale {
                update_period: 2_000,
            },
            lambda,
            mu,
            5,
        );
        let (_, random) = run_market(JoinPolicy::Random, lambda, mu, 5);
        assert!(
            stale.max_queue > 2 * random.max_queue,
            "herding should create monster queues: stale max {} vs random max {}",
            stale.max_queue,
            random.max_queue
        );
        assert!(
            stale.average_jobs() > random.average_jobs(),
            "herding should beat random on average jobs too: {} vs {}",
            stale.average_jobs(),
            random.average_jobs()
        );
    }

    #[test]
    fn staleness_degrades_monotonically() {
        let mut prev = 0.0;
        for period in [1u64, 50, 500, 2_000] {
            let (_, m) = run_market(
                JoinPolicy::TwoChoiceStale {
                    update_period: period,
                },
                0.75,
                0.9,
                6,
            );
            let avg = m.average_jobs();
            assert!(
                avg >= prev * 0.8,
                "average jobs should not improve with staleness: period {period}, {prev} -> {avg}"
            );
            prev = avg;
        }
    }

    #[test]
    fn metrics_of_empty_run_are_zero() {
        let market = Supermarket::new(5, 0.5, 0.5, JoinPolicy::Random);
        let m = market.metrics();
        assert_eq!(m.average_jobs(), 0.0);
        assert_eq!(m.mean_sojourn(), 0.0);
        assert_eq!(market.jobs_in_system(), 0);
    }

    #[test]
    fn average_queue_of_zero_servers_is_zero_not_nan() {
        // Regression: average_queue(0) divided by zero, so a caller
        // normalizing by an empty server set fed NaN (or +inf on a busy
        // system) straight into reports and their JSON artifacts.
        let (_, m) = run_market(JoinPolicy::TwoChoice, 0.6, 0.8, 11);
        assert!(m.arrivals > 0, "busy system expected");
        assert_eq!(m.average_queue(0), 0.0);
        let empty = QueueMetrics::default();
        assert_eq!(empty.average_queue(0), 0.0);
    }

    #[test]
    fn metrics_never_go_non_finite() {
        // Every accessor must stay finite at every prefix of a run,
        // including the empty one (slots == 0, arrivals == 0).
        let mut market = Supermarket::new(7, 0.9, 0.9, JoinPolicy::TwoChoice);
        let mut rng = Rng::from_seed(13);
        for n in [0usize, 7, 0, 1] {
            let m = market.metrics();
            for value in [m.average_jobs(), m.average_queue(n), m.mean_sojourn()] {
                assert!(
                    value.is_finite(),
                    "non-finite metric {value} at slots = {}",
                    m.slots
                );
            }
            market.step(&mut rng);
        }
    }

    #[test]
    fn stale_snapshot_refreshes_before_arrivals_at_slot_zero() {
        // Slot 0 is a refresh slot: its arrivals must see the pre-arrival
        // (empty) state. If the refresh ran *after* the arrivals, the
        // retained snapshot would already contain slot 0's jobs.
        let mut market = Supermarket::new(
            8,
            1.0,
            0.01,
            JoinPolicy::TwoChoiceStale { update_period: 100 },
        );
        let mut rng = Rng::from_seed(3);
        market.step(&mut rng);
        assert!(market.metrics().arrivals > 0);
        assert!(
            market.reported_queues().iter().all(|&q| q == 0),
            "slot-0 snapshot must capture the pre-arrival state"
        );
    }

    #[test]
    fn stale_snapshot_refreshes_before_arrivals_at_exact_period_multiples() {
        // λ = 1 ⇒ n arrivals every slot, μ tiny ⇒ queues change every
        // slot, so each possible off-by-one produces a distinct snapshot:
        //  * refresh *after* arrivals would capture slot p's own jobs;
        //  * `slots % p == p − 1` (or `slots + 1` style counting) would
        //    overwrite the snapshot one slot early, failing the
        //    stays-stale assertions below.
        let period = 3;
        let mut market = Supermarket::new(
            8,
            1.0,
            0.01,
            JoinPolicy::TwoChoiceStale {
                update_period: period,
            },
        );
        let mut rng = Rng::from_seed(4);
        // Slots 0 .. period − 1: the snapshot keeps the slot-0 (empty)
        // state the whole period through.
        for slot in 0..period {
            market.step(&mut rng);
            assert!(
                market.reported_queues().iter().all(|&q| q == 0),
                "snapshot refreshed early, at slot {slot} of the first period"
            );
        }
        // Slot `period` is the next refresh slot: the snapshot must equal
        // the queues exactly as the previous slot left them (refresh
        // *before* arrivals), not the post-arrival state.
        let pre_step = market.queues().to_vec();
        market.step(&mut rng);
        assert_eq!(
            market.reported_queues(),
            &pre_step[..],
            "refresh-slot snapshot must be the pre-arrival state"
        );
        assert_ne!(
            market.reported_queues(),
            market.queues(),
            "λ = 1 guarantees the refresh slot's arrivals changed the queues"
        );
    }
}
