//! The one deterministic driver and the one conservation ledger.
//!
//! [`run_replay`](crate::run_replay), [`run_resilient`](crate::run_resilient)
//! and [`run_churn`](crate::run_churn) differ only in their per-worker
//! stacks and in what each does around a slot: [`drive`] is their one
//! round-robin slot loop, and [`Ledger::check`] is the crate's one
//! conservation assert (the threaded [`run_concurrent`](crate::run_concurrent)
//! folds its per-worker ledgers and ends in the same check).
//! [`SnapshotAllocator::for_worker`] holds the per-worker seeding rule and
//! [`SnapshotAllocator::serve`] the refresh → decide → apply step of
//! replay's slots and of every fault-free leaf, the TCP reactor's replay
//! turnstile included.

use balloc_core::rng::point_seed;

use crate::service::{Request, Response, ServeError};
use crate::shed::ShedCounter;
use crate::sink::LoadSink;
use crate::snapshot::{SnapshotAllocator, Staleness};

/// Where the requests of a run ended, and where their balls are now. The
/// per-cause split of [`shed`](Self::shed) is the run's [`ShedCounter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Ledger {
    /// Requests offered to the stacks (the churn engine's arrivals).
    pub requests: u64,
    /// Balls resident in the store.
    pub allocated: u64,
    /// Requests shed by the load-shed layer.
    pub shed: u64,
    /// Requests whose deadline expired.
    pub timed_out: u64,
    /// Requests rejected by an open circuit breaker.
    pub broken: u64,
    /// Balls debited by a membership change and not yet re-homed.
    pub in_migration: u64,
    /// Balls removed by the departure schedule.
    pub departed: u64,
}

impl Ledger {
    /// Books one request's terminal outcome and passes the result on.
    ///
    /// # Panics
    ///
    /// Panics on a non-terminal error (the outermost
    /// [`LoadShed`](crate::LoadShed) converts every pressure error).
    pub fn record(
        &mut self,
        result: Result<Response, ServeError>,
    ) -> Result<Response, ServeError> {
        self.requests += 1;
        match result {
            Ok(_) => self.allocated += 1,
            Err(ServeError::Shed) => self.shed += 1,
            Err(ServeError::TimedOut) => self.timed_out += 1,
            Err(ServeError::Broken) => self.broken += 1,
            Err(e) => panic!("non-terminal error escaped the stack: {e}"),
        }
        result
    }

    /// Asserts the conservation contract after `slots` slots: every slot
    /// was one request or one departure, every request ended exactly
    /// once, the shed layer agrees, and the store holds `balls` =
    /// exactly the allocated balls.
    pub fn check(&self, slots: u64, balls: u64, shed: &ShedCounter) {
        assert_eq!(
            self.requests + self.departed,
            slots,
            "every slot is one request or departure"
        );
        assert_eq!(
            self.allocated
                + self.shed
                + self.timed_out
                + self.broken
                + self.in_migration
                + self.departed,
            self.requests,
            "every request must end in exactly one terminal outcome"
        );
        assert_eq!(
            shed.total(),
            self.shed,
            "the shed layer's counter must agree with the ledger"
        );
        assert_eq!(
            balls, self.allocated,
            "the store must hold exactly one ball per allocated request"
        );
    }
}

impl std::ops::AddAssign for Ledger {
    fn add_assign(&mut self, other: Self) {
        self.requests += other.requests;
        self.allocated += other.allocated;
        self.shed += other.shed;
        self.timed_out += other.timed_out;
        self.broken += other.broken;
        self.in_migration += other.in_migration;
        self.departed += other.departed;
    }
}

/// Runs `slots` slots round-robin over the per-worker `stacks` and returns
/// the run's ledger: `slot(t, ledger, stack)` runs slot `t` on worker
/// `t mod stacks.len()`'s stack, booking what it issues through
/// [`Ledger::record`].
pub(crate) fn drive<S>(
    stacks: &mut [S],
    slots: u64,
    mut slot: impl FnMut(u64, &mut Ledger, &mut S),
) -> Ledger {
    let mut ledger = Ledger::default();
    for (t, w) in (0..slots).zip((0..stacks.len()).cycle()) {
        slot(t, &mut ledger, &mut stacks[w]);
    }
    ledger
}

/// The shape checks every engine configuration shares. `shards` is
/// `None` where the store ignores it (the multicounter backend).
pub(crate) fn validate_shape(
    n: usize,
    shards: Option<usize>,
    workers: usize,
    staleness: Staleness,
) {
    assert!(n > 0, "need at least one bin");
    assert!(workers > 0, "need at least one worker");
    if let Some(shards) = shards {
        assert!(
            (1..=n).contains(&shards),
            "shards must lie in 1..=n (got {shards} shards over {n} bins)"
        );
    }
    staleness.validate();
}

impl SnapshotAllocator {
    /// Worker `w`'s decision state under master seed `seed`, streamed
    /// from [`point_seed`]`(seed, w)` — the seeding rule of every engine
    /// worker and every TCP client id.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the staleness parameter is zero.
    #[must_use]
    pub fn for_worker(n: usize, staleness: Staleness, seed: u64, w: usize) -> Self {
        Self::new(n, staleness, point_seed(seed, w as u64))
    }

    /// Refreshes the snapshot from `sink` if it is stale at clock `now`.
    #[inline]
    pub(crate) fn refresh_if_stale(
        &mut self,
        now: u64,
        sink: &mut impl LoadSink,
    ) -> Result<(), ServeError> {
        if self.needs_refresh(now) {
            sink.refresh(self.snapshot_mut())?;
            self.note_refresh(now);
        }
        Ok(())
    }

    /// Serves one request at clock `now` — refresh from `sink` if stale,
    /// decide, apply — returning the chosen bin or the sink's rejection.
    #[inline]
    pub(crate) fn serve(
        &mut self,
        req: &Request,
        now: u64,
        sink: &mut impl LoadSink,
    ) -> Result<usize, ServeError> {
        self.refresh_if_stale(now, sink)?;
        let bin = self.decide(req);
        sink.apply(bin)?;
        Ok(bin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Service;
    use crate::shed::LoadShed;

    /// Replays a fixed script: `Some(bin)` places a ball, `None` meets a
    /// full buffer.
    struct Scripted(std::vec::IntoIter<Option<usize>>);

    impl Service<Request> for Scripted {
        type Response = Response;

        fn call(&mut self, _req: Request) -> Result<Response, ServeError> {
            match self.0.next().expect("script exhausted") {
                Some(bin) => Ok(Response { bin }),
                None => Err(ServeError::BufferFull),
            }
        }
    }

    #[test]
    fn drive_is_round_robin_and_the_ledger_closes() {
        let shed = ShedCounter::new();
        let mut stacks = [vec![Some(0), None, Some(2)], vec![Some(1), Some(3)]]
            .map(|script| LoadShed::new(Scripted(script.into_iter()), shed.clone()));
        let mut placed = Vec::new();
        let ledger = drive(&mut stacks, 5, |t, ledger, stack| {
            if let Ok(resp) = ledger.record(stack.call(Request::two_choice())) {
                placed.push((t, resp.bin));
            }
        });
        assert_eq!(placed, [(0, 0), (1, 1), (3, 3), (4, 2)]);
        assert_eq!((ledger.requests, ledger.allocated, ledger.shed), (5, 4, 1));
        ledger.check(5, 4, &shed);
    }

    #[test]
    #[should_panic(expected = "exactly one ball per allocated request")]
    fn check_catches_a_lost_ball() {
        let mut ledger = Ledger::default();
        let _ = ledger.record(Ok(Response { bin: 0 }));
        ledger.check(1, 0, &ShedCounter::new());
    }
}
