//! The deterministic churn engine: arrivals *and* departures against an
//! elastic membership.
//!
//! "The Power of Filling in Balanced Allocations" analyses the regime
//! the fixed-membership engines cannot express: balls leave as well as
//! arrive, and the bin set itself changes underneath the allocator.
//! [`run_churn`] drives exactly that — a seeded departure schedule
//! interleaved with Two-Choice arrivals, operator-scripted and/or
//! autoscaler-emitted membership [`Change`]s through one
//! [`ShardDirectory`], and ball migration whenever a change moves bin
//! ownership — on the [`VClock`] virtual clock, single-threaded, every
//! decision a pure function of `(config, seed)`.
//!
//! # The extended conservation ledger
//!
//! Every arrival ends in exactly one bucket, and membership changes move
//! balls between buckets without creating or destroying them:
//!
//! ```text
//! allocated + shed + timed_out + broken + in_migration + departures
//!     == arrivals
//! ```
//!
//! `allocated` counts balls currently resident, `in_migration` balls
//! mid-handoff after an ownership change (debited from their shard the
//! tick the change lands, re-credited as the new owner absorbs them at
//! [`ChurnConfig::migration_rate`] balls per tick), and `departures`
//! balls the churn schedule deleted (`timed_out` and `broken` stay 0:
//! no deadline, no breaker). It is the crate's one ledger under its one
//! round-robin driver; this engine's slot hook adds the token refill,
//! the scripted plan, the autoscaler, the migration drain and the seeded
//! departures. The ledger is checked after **every** event slot in debug
//! builds and always at the end, after the final migration drain —
//! including schedules that remove a shard while a previous change's
//! migration is still in flight.
//!
//! # Admission capacity
//!
//! Offered load is admission-gated by a global token bucket refilled
//! with one token per member every [`ChurnConfig::token_every`] ticks,
//! so *capacity scales with membership*. An empty bucket rejects with
//! [`ServeError::RateLimited`], which the [`LoadShed`](crate::LoadShed)
//! layer converts into a counted shed — the per-cause counter the
//! [`Autoscaler`] watches. That closes the loop the tentpole asks for:
//! shed pressure grows the membership through the same directory that
//! operator churn uses, and growth raises capacity until shedding
//! stops.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use balloc_core::rng::{point_seed, Fnv1a};
use balloc_core::Rng;

use crate::autoscale::{AutoscaleConfig, Autoscaler, ScaleAction};
use crate::cluster::DirectCluster;
use crate::directory::{RebalanceKind, ShardDirectory};
use crate::drive::{drive, validate_shape, Ledger};
use crate::service::{Request, Response, ServeError, Service};
use crate::shed::{LoadShed, LoadShedLayer, ShedCounter};
use crate::sink::LoadSink;
use crate::snapshot::{SnapshotAllocator, Staleness};
use crate::vclock::VClock;
use crate::Layer;

/// Domain tag separating the departure-schedule RNG stream from every
/// decision stream (same discipline as the fault stream).
const DEPART_STREAM: u64 = 0xDE_9A27;

/// One scripted membership change, scheduled by virtual tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedChange {
    /// Insert a fresh member (skipped if the membership already spans
    /// every bin).
    Insert,
    /// Remove the most recently inserted member (skipped if only one
    /// member remains).
    RemoveNewest,
    /// Remove the longest-standing member (skipped if only one member
    /// remains).
    RemoveOldest,
    /// Remove the member at slot `k mod members` (skipped if only one
    /// member remains).
    RemoveSlot(usize),
}

/// Configuration of one churn run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Number of bins.
    pub n: usize,
    /// Initial member count.
    pub shards: usize,
    /// Virtual round-robin workers, each with its own decision state.
    pub workers: usize,
    /// Event slots (arrival attempts plus departure draws).
    pub requests: u64,
    /// The allocation request template.
    pub request: Request,
    /// Snapshot refresh policy of each worker.
    pub staleness: Staleness,
    /// How bins are assigned to members.
    pub rebalance: RebalanceKind,
    /// Per-mille probability an event slot is a ball departure instead
    /// of an arrival (applied only while balls are resident).
    pub depart_pm: u32,
    /// Balls re-homed per tick while a migration is in flight.
    pub migration_rate: u64,
    /// Each member adds one admission token every this many ticks.
    pub token_every: u64,
    /// Admission token bucket capacity.
    pub burst: u64,
    /// Operator-scripted changes: `(tick, change)`, applied in order.
    pub plan: Vec<(u64, PlannedChange)>,
    /// Shed-driven autoscaling, sharing the directory with the plan.
    pub autoscale: Option<AutoscaleConfig>,
    /// Master seed.
    pub seed: u64,
}

impl ChurnConfig {
    /// A small, churn-heavy demo configuration.
    #[must_use]
    pub fn demo(n: usize, shards: usize, seed: u64) -> Self {
        Self {
            n,
            shards,
            workers: 2,
            requests: (n as u64) * 8,
            request: Request::two_choice(),
            staleness: Staleness::Batch { b: n as u64 },
            rebalance: RebalanceKind::Proportional,
            depart_pm: 150,
            migration_rate: 4,
            token_every: 1,
            burst: 8,
            plan: Vec::new(),
            autoscale: None,
            seed,
        }
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on zero bins/shards/workers/requests, `shards > n`, a zero
    /// staleness parameter, `depart_pm > 1000`, a zero migration rate,
    /// token cadence, or burst, an unsorted plan, or an invalid autoscale
    /// config.
    pub fn validate(&self) {
        validate_shape(self.n, self.shards, self.workers, self.staleness);
        assert!(self.requests > 0, "need at least one event slot");
        assert!(self.depart_pm <= 1000, "depart_pm is per-mille");
        assert!(self.migration_rate > 0, "migration_rate must be positive");
        assert!(self.token_every > 0, "token_every must be positive");
        assert!(self.burst > 0, "burst must be positive");
        assert!(
            self.plan.windows(2).all(|w| w[0].0 <= w[1].0),
            "the change plan must be sorted by tick"
        );
        if let Some(auto) = &self.autoscale {
            auto.validate();
        }
    }
}

/// What a churn run measured. Every field is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnOutcome {
    /// Event slots offered (`config.requests`).
    pub requests: u64,
    /// Slots that became allocation attempts.
    pub arrivals: u64,
    /// Balls deleted by the departure schedule.
    pub departures: u64,
    /// Balls resident at the end of the run.
    pub allocated: u64,
    /// Arrival attempts shed (admission bucket empty).
    pub shed: u64,
    /// Balls still mid-migration at the end (always 0 after the final
    /// drain).
    pub in_migration: u64,
    /// Balls that completed a migration.
    pub migrated: u64,
    /// Bins whose ownership changed, summed over all changes.
    pub moved_bins: u64,
    /// Membership changes applied.
    pub changes: u64,
    /// Scripted changes skipped (e.g. removing the last member).
    pub changes_skipped: u64,
    /// Inserts among the applied changes.
    pub inserts: u64,
    /// Removes among the applied changes.
    pub removes: u64,
    /// Changes emitted by the autoscaler (scale-outs).
    pub autoscale_outs: u64,
    /// Changes emitted by the autoscaler (scale-ins).
    pub autoscale_ins: u64,
    /// Member count at the end.
    pub final_members: usize,
    /// Largest membership reached.
    pub max_members: usize,
    /// Final membership epoch.
    pub epoch: u64,
    /// Snapshot refreshes across all workers.
    pub refreshes: u64,
    /// Final gap (max load minus mean over resident balls).
    pub gap: f64,
    /// Final maximum bin load.
    pub max_load: u64,
    /// Virtual ticks consumed, including the final migration drain.
    pub ticks: u64,
}

/// A churn run plus its determinism witnesses.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnReport {
    /// The measured outcome.
    pub outcome: ChurnOutcome,
    /// FNV-1a digest over every event in order: arrivals (with chosen
    /// bin), sheds, departures (with vacated bin), and migration-drain
    /// re-credits. A pure function of `(config, seed)`.
    pub digest: u64,
    /// [`ShardDirectory::membership_digest`] after the run: epoch, log,
    /// and final ownership, equally pure in `(config, seed)`.
    pub membership_digest: u64,
}

/// The leaf service: admission-gated snapshot allocation into the
/// shared store.
struct ChurnAlloc {
    alloc: SnapshotAllocator,
    store: Rc<RefCell<DirectCluster>>,
    tokens: Rc<Cell<u64>>,
    clock: VClock,
}

impl Service<Request> for ChurnAlloc {
    type Response = Response;

    fn call(&mut self, req: Request) -> Result<Response, ServeError> {
        if self.tokens.get() == 0 {
            return Err(ServeError::RateLimited);
        }
        let bin = self.alloc.serve(&req, self.clock.now(), &mut self.store)?;
        self.tokens.set(self.tokens.get() - 1);
        Ok(Response { bin })
    }
}

/// The churn engine's run state around the driver's slots. `out`
/// accumulates the membership counters of the outcome.
struct Churn<'c> {
    cfg: &'c ChurnConfig,
    dir: ShardDirectory,
    store: Rc<RefCell<DirectCluster>>,
    tokens: Rc<Cell<u64>>,
    shed: ShedCounter,
    auto: Option<Autoscaler>,
    depart_rng: Rng,
    /// Index of the next scripted change in `cfg.plan`.
    next_change: usize,
    /// Bin of each resident ball (swap-removed on departure).
    balls: Vec<u32>,
    /// Bins of balls mid-migration, drained FIFO.
    migrating: VecDeque<u32>,
    digest: Fnv1a,
    clock: VClock,
    out: ChurnOutcome,
}

impl Churn<'_> {
    /// Applies one planned change through the directory, moving every
    /// ball on a transferred bin into the migration queue.
    fn apply_change(&mut self, planned: PlannedChange) {
        let now = self.clock.now();
        // The membership is never empty: a remove needs a second member.
        let members = self.dir.members();
        let removed = match planned {
            PlannedChange::Insert => None,
            PlannedChange::RemoveNewest => Some(members[members.len() - 1]),
            PlannedChange::RemoveOldest => Some(members[0]),
            PlannedChange::RemoveSlot(k) => Some(members[k % members.len()]),
        };
        let moves = match removed {
            None if self.dir.len() < self.dir.n() => {
                self.out.inserts += 1;
                self.dir.insert(now).1
            }
            Some(id) if self.dir.len() > 1 => {
                self.out.removes += 1;
                self.dir.remove(id, now)
            }
            _ => {
                self.out.changes_skipped += 1;
                return;
            }
        };
        self.out.changes += 1;
        self.out.max_members = self.out.max_members.max(self.dir.len());
        if moves.is_empty() {
            return;
        }
        self.out.moved_bins += moves.len() as u64;
        // Hand over every ball resting on a transferred bin: debit the
        // resident set, credit the migration queue. The balls re-enter
        // the same global bin once the new owner absorbs them, so loads
        // dip during the handoff exactly like a real shard handing its
        // range to a peer.
        let mut moved = vec![false; self.dir.n()];
        let mut store = self.store.borrow_mut();
        for mv in &moves {
            moved[mv.bin] = true;
            let resting = store.load(mv.bin);
            #[allow(clippy::cast_possible_truncation)]
            for _ in 0..resting {
                store.deallocate(mv.bin);
                self.migrating.push_back(mv.bin as u32);
            }
        }
        self.balls.retain(|&bin| !moved[bin as usize]);
    }

    /// Re-homes up to `rate` migrating balls.
    fn drain_migrations(&mut self, rate: u64) {
        for _ in 0..rate {
            let Some(bin) = self.migrating.pop_front() else {
                break;
            };
            self.store
                .apply(bin as usize)
                .expect("direct stores cannot reject");
            self.balls.push(bin);
            self.out.migrated += 1;
            self.digest.write_u64(4);
            self.digest.write_u64(u64::from(bin));
        }
    }

    /// `ledger` with its resident and migrating balls read off `balls`
    /// and `migrating`, so its check compares those with the store.
    fn settled(&self, ledger: Ledger) -> Ledger {
        Ledger {
            allocated: self.balls.len() as u64,
            in_migration: self.migrating.len() as u64,
            ..ledger
        }
    }

    /// Runs event slot `t`, arriving (if it does) through `stack`.
    fn slot(&mut self, t: u64, ledger: &mut Ledger, stack: &mut LoadShed<ChurnAlloc>) {
        let cfg = self.cfg;
        let now = self.clock.now();
        // 1. Capacity refill: one token per member per cadence tick.
        if now.is_multiple_of(cfg.token_every) {
            self.tokens
                .set((self.tokens.get() + self.dir.len() as u64).min(cfg.burst));
        }
        // 2. Scripted membership changes due at this tick.
        while let Some(&(at, planned)) = cfg.plan.get(self.next_change) {
            if at > now {
                break;
            }
            self.next_change += 1;
            self.apply_change(planned);
        }
        // 3. Shed-driven autoscaling, through the same directory.
        let action = self
            .auto
            .as_mut()
            .and_then(|auto| auto.poll(now, &self.shed, self.dir.len()));
        match action {
            Some(ScaleAction::Out) => {
                self.out.autoscale_outs += 1;
                self.apply_change(PlannedChange::Insert);
            }
            Some(ScaleAction::In) => {
                self.out.autoscale_ins += 1;
                self.apply_change(PlannedChange::RemoveNewest);
            }
            None => {}
        }
        // 4. Migration drain.
        self.drain_migrations(cfg.migration_rate);
        // 5. The event slot: seeded departure, or an arrival through
        //    this slot's round-robin worker.
        let depart = cfg.depart_pm > 0
            && !self.balls.is_empty()
            && self.depart_rng.below(1000) < u64::from(cfg.depart_pm);
        if depart {
            let idx = self.depart_rng.below(self.balls.len() as u64);
            #[allow(clippy::cast_possible_truncation)]
            let bin = self.balls.swap_remove(idx as usize);
            self.store.borrow_mut().deallocate(bin as usize);
            ledger.departed += 1;
            self.digest.write_u64(3);
            self.digest.write_u64(u64::from(bin));
        } else if let Ok(Response { bin }) = ledger.record(stack.call(cfg.request)) {
            #[allow(clippy::cast_possible_truncation)]
            self.balls.push(bin as u32);
            self.digest.write_u64(1);
            self.digest.write_u64(bin as u64);
        } else {
            self.digest.write_u64(2);
        }
        if cfg!(debug_assertions) {
            self.settled(*ledger)
                .check(t + 1, self.store.borrow().balls(), &self.shed);
        }
        self.clock
            .advance(1)
            .expect("the churn engine sets no deadlines");
    }
}

/// Runs the churn engine to completion. Deterministic: two calls with
/// the same config produce identical [`ChurnReport`]s.
///
/// # Panics
///
/// Panics if the config fails [`ChurnConfig::validate`] or if the
/// conservation ledger is ever violated.
#[must_use]
pub fn run_churn(cfg: &ChurnConfig) -> ChurnReport {
    cfg.validate();
    let clock = VClock::new();
    // Membership (which member owns which bin) lives in the churn
    // directory; the store's own one-shard directory is never read.
    let store = Rc::new(RefCell::new(DirectCluster::new(cfg.n, 1)));
    let tokens = Rc::new(Cell::new(cfg.burst.min(cfg.shards as u64)));
    let shed = ShedCounter::new();
    let mut stacks: Vec<LoadShed<ChurnAlloc>> = (0..cfg.workers)
        .map(|w| {
            LoadShedLayer::new(shed.clone()).layer(ChurnAlloc {
                alloc: SnapshotAllocator::for_worker(cfg.n, cfg.staleness, cfg.seed, w),
                store: Rc::clone(&store),
                tokens: Rc::clone(&tokens),
                clock: clock.clone(),
            })
        })
        .collect();
    let mut churn = Churn {
        cfg,
        dir: ShardDirectory::new(cfg.n, cfg.rebalance),
        store,
        tokens,
        shed,
        auto: cfg.autoscale.map(|a| Autoscaler::new(a, clock.now())),
        depart_rng: Rng::from_seed(point_seed(cfg.seed, DEPART_STREAM)),
        next_change: 0,
        balls: Vec::new(),
        migrating: VecDeque::new(),
        digest: Fnv1a::new(),
        clock,
        out: ChurnOutcome {
            max_members: cfg.shards,
            ..ChurnOutcome::default()
        },
    };
    for _ in 0..cfg.shards {
        let _ = churn.dir.insert(0);
    }
    let ledger = drive(&mut stacks, cfg.requests, |t, l, s| churn.slot(t, l, s));

    // Final drain: absorb every in-flight migration so the run ends
    // with a fully-settled membership.
    while !churn.migrating.is_empty() {
        churn.drain_migrations(cfg.migration_rate);
        churn
            .clock
            .advance(1)
            .expect("the churn engine sets no deadlines");
    }
    let state = churn.store.borrow().state();
    let ledger = churn.settled(ledger);
    ledger.check(cfg.requests, state.balls(), &churn.shed);
    let refreshes = stacks
        .into_iter()
        .map(|s| s.into_inner().alloc.refreshes())
        .sum();
    let outcome = ChurnOutcome {
        requests: cfg.requests,
        arrivals: ledger.requests,
        departures: ledger.departed,
        allocated: ledger.allocated,
        shed: ledger.shed,
        in_migration: ledger.in_migration,
        final_members: churn.dir.len(),
        epoch: churn.dir.epoch().0,
        refreshes,
        gap: state.gap(),
        max_load: state.max_load(),
        ticks: churn.clock.now(),
        ..churn.out
    };
    ChurnReport {
        outcome,
        digest: churn.digest.finish(),
        membership_digest: churn.dir.membership_digest(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_run_conserves_and_replays() {
        let cfg = ChurnConfig {
            depart_pm: 0,
            ..ChurnConfig::demo(64, 4, 7)
        };
        let a = run_churn(&cfg);
        let b = run_churn(&cfg);
        assert_eq!(a, b, "replay must be bit-identical");
        let o = &a.outcome;
        assert_eq!(o.departures, 0);
        assert_eq!(o.allocated + o.shed, o.arrivals);
        assert_eq!(o.arrivals, o.requests);
        assert_eq!(o.changes, 0);
        assert_eq!(o.epoch, 4, "four founding inserts");
    }

    #[test]
    fn departures_debit_exactly() {
        let cfg = ChurnConfig::demo(64, 4, 11);
        let report = run_churn(&cfg);
        let o = &report.outcome;
        assert!(o.departures > 0, "depart_pm = 150 must fire");
        assert_eq!(
            o.allocated + o.shed + o.in_migration + o.departures,
            o.arrivals,
            "extended conservation ledger"
        );
        assert_eq!(o.arrivals + o.departures, o.requests);
    }

    #[test]
    fn scripted_churn_migrates_and_replays() {
        let cfg = ChurnConfig {
            plan: vec![
                (100, PlannedChange::Insert),
                (200, PlannedChange::RemoveOldest),
                (300, PlannedChange::Insert),
            ],
            ..ChurnConfig::demo(64, 4, 13)
        };
        let a = run_churn(&cfg);
        assert_eq!(a, run_churn(&cfg));
        let o = &a.outcome;
        assert_eq!(o.changes, 3);
        assert_eq!(o.inserts, 2);
        assert_eq!(o.removes, 1);
        assert!(o.moved_bins > 0);
        assert!(o.migrated > 0, "transferred bins had resident balls");
        assert_eq!(o.in_migration, 0, "final drain must settle everything");
        assert_eq!(o.epoch, 4 + 3);
    }

    #[test]
    fn removal_mid_migration_stays_conserved() {
        // A slow drain guarantees the second change lands while the
        // first change's balls are still in flight.
        let cfg = ChurnConfig {
            migration_rate: 1,
            plan: vec![
                (200, PlannedChange::Insert),
                (202, PlannedChange::RemoveOldest),
            ],
            ..ChurnConfig::demo(64, 4, 17)
        };
        let report = run_churn(&cfg);
        assert_eq!(report, run_churn(&cfg));
        assert_eq!(report.outcome.changes, 2);
        assert_eq!(report.outcome.in_migration, 0);
    }

    #[test]
    fn autoscaler_grows_under_pressure_through_the_directory() {
        // One member refilling every 4 ticks cannot carry ~0.9
        // arrivals/tick: sheds mount, the autoscaler inserts members,
        // capacity rises.
        let cfg = ChurnConfig {
            shards: 1,
            token_every: 4,
            burst: 4,
            depart_pm: 100,
            autoscale: Some(AutoscaleConfig {
                shed_threshold: 4,
                window: 32,
                idle_windows: 4,
                min_shards: 1,
                max_shards: 6,
            }),
            ..ChurnConfig::demo(64, 1, 23)
        };
        let report = run_churn(&cfg);
        assert_eq!(report, run_churn(&cfg));
        let o = &report.outcome;
        assert!(o.autoscale_outs > 0, "pressure must trigger scale-out");
        assert!(o.final_members > 1, "membership must have grown");
        assert!(o.max_members <= 6);
    }

    #[test]
    fn hash_slot_rebalance_moves_more_bins() {
        let base = ChurnConfig {
            plan: vec![(200, PlannedChange::Insert)],
            depart_pm: 0,
            ..ChurnConfig::demo(128, 4, 29)
        };
        let prop = run_churn(&base);
        let hash = run_churn(&ChurnConfig {
            rebalance: RebalanceKind::HashSlot,
            ..base
        });
        assert!(
            hash.outcome.moved_bins > prop.outcome.moved_bins,
            "hash-slot reshuffles more: {} vs {}",
            hash.outcome.moved_bins,
            prop.outcome.moved_bins
        );
    }

    #[test]
    fn seeds_move_the_digest() {
        let a = run_churn(&ChurnConfig::demo(64, 4, 1));
        let b = run_churn(&ChurnConfig::demo(64, 4, 2));
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn membership_digest_tracks_the_plan() {
        let quiet = run_churn(&ChurnConfig {
            depart_pm: 0,
            ..ChurnConfig::demo(64, 4, 3)
        });
        let churned = run_churn(&ChurnConfig {
            depart_pm: 0,
            plan: vec![(50, PlannedChange::Insert)],
            ..ChurnConfig::demo(64, 4, 3)
        });
        assert_ne!(quiet.membership_digest, churned.membership_digest);
        assert_eq!(quiet.outcome.epoch + 1, churned.outcome.epoch);
    }
}
