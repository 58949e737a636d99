//! The decision-state/backend seam: [`LoadSink`], [`ServeClock`], and the
//! leaf service [`SnapshotService`] every serving engine shares.
//!
//! The TCP front-end (`balloc-net`) terminates connections in its own
//! reactor while dispatching into the *same* leaf — decide against a
//! per-worker snapshot, apply through a sink, tick the shared clock — so
//! the seam is public. The in-process engines
//! ([`run_concurrent`](crate::run_concurrent) /
//! [`run_replay`](crate::run_replay)) and the socket server are drivers
//! of one service.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::service::{Request, Response, ServeError, Service};
use crate::snapshot::SnapshotAllocator;

/// Where decided allocations land and where snapshot refreshes read from:
/// the authoritative-store side of the serving path. Implementations are
/// the sharded buffer fan-out ([`ShardHandle`](crate::ShardHandle)), the
/// direct single-threaded shards ([`DirectCluster`](crate::DirectCluster),
/// shared as `Rc<RefCell<DirectCluster>>`), and the multicounter sink.
pub trait LoadSink {
    /// Places one ball into (global) bin `bin`.
    ///
    /// # Errors
    ///
    /// Returns the back-pressure error of the store (e.g.
    /// [`ServeError::BufferFull`] from a bounded shard buffer). Direct
    /// sinks never fail.
    fn apply(&mut self, bin: usize) -> Result<(), ServeError>;

    /// Overwrites `snapshot` with a current reading of all `n` loads.
    ///
    /// # Errors
    ///
    /// Returns the back-pressure error of the store, like
    /// [`apply`](Self::apply).
    fn refresh(&mut self, snapshot: &mut [u64]) -> Result<(), ServeError>;
}

/// The engine clock: completed requests across all workers — the "slots"
/// unit of [`Staleness::Delay`](crate::Staleness::Delay). Cloning shares
/// the underlying counter.
#[derive(Debug, Clone, Default)]
pub struct ServeClock(Arc<AtomicU64>);

impl ServeClock {
    /// A fresh clock at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Completed requests so far.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Records one completed request.
    pub fn tick(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// The leaf service of every serving stack: refresh-if-stale, decide
/// against the private snapshot, apply through the sink, tick the clock.
///
/// Wrap it in [`InFlightLimit`](crate::InFlightLimit) /
/// [`LoadShed`](crate::LoadShed) (and optionally the PR 6 resilience
/// layers) for per-request dispatch, or drive
/// [`call_block`](Self::call_block) for pipelined block dispatch where a
/// whole window of identical-template requests is decided in one pass —
/// the socket server's hot path.
#[derive(Debug)]
pub struct SnapshotService<K> {
    alloc: SnapshotAllocator,
    sink: K,
    clock: ServeClock,
    /// Reusable bin buffer for block dispatch.
    block: Vec<usize>,
}

impl<K: LoadSink> SnapshotService<K> {
    /// Builds the leaf over a worker decision state, a sink, and the
    /// shared clock.
    #[must_use]
    pub fn new(alloc: SnapshotAllocator, sink: K, clock: ServeClock) -> Self {
        Self {
            alloc,
            sink,
            clock,
            block: Vec::new(),
        }
    }

    /// Snapshot refreshes performed so far by this worker.
    #[must_use]
    pub fn refreshes(&self) -> u64 {
        self.alloc.refreshes()
    }

    /// Serves a whole pipelined block of `count` identical-template
    /// requests, calling `emit` once per request in decision order.
    ///
    /// Decisions are **bit-identical** to `count` successive
    /// [`call`](Service::call)s when no other worker interleaves (the
    /// single-threaded reactor regime): refresh checks happen at exactly
    /// the same clock points, and
    /// [`SnapshotAllocator::decide_run`] pins the RNG stream. The win is
    /// structural — one refresh check per run instead of per request, all
    /// candidate draws filled in one batched pass, no per-request layer
    /// traversal — which is what lets request pipelining feed the PR 4/8
    /// hot path full blocks instead of single balls.
    ///
    /// A sink rejection (bounded buffer full) is reported for the request
    /// it struck and serving continues with the next request, mirroring
    /// the per-request stack's shed-and-continue behavior.
    pub fn call_block(
        &mut self,
        req: &Request,
        count: u64,
        emit: &mut impl FnMut(Result<Response, ServeError>),
    ) {
        let mut remaining = count;
        while remaining > 0 {
            let now = self.clock.now();
            if let Err(e) = self.alloc.refresh_if_stale(now, &mut self.sink) {
                // A refresh that cannot read the store rejects the request
                // that demanded it; the next request retries the refresh.
                emit(Err(e));
                remaining -= 1;
                continue;
            }
            #[allow(clippy::cast_possible_truncation)]
            let run = self
                .alloc
                .until_refresh(now)
                .min(remaining)
                .max(1)
                .min(usize::MAX as u64) as usize;
            self.block.clear();
            let mut bins = std::mem::take(&mut self.block);
            self.alloc.decide_run(req, run, &mut bins);
            for &bin in &bins {
                let applied = self.sink.apply(bin);
                self.clock.tick();
                emit(applied.map(|()| Response { bin }));
            }
            self.block = bins;
            remaining -= run as u64;
        }
    }
}

impl<K: LoadSink> Service<Request> for SnapshotService<K> {
    type Response = Response;

    fn call(&mut self, req: Request) -> Result<Response, ServeError> {
        let bin = self.alloc.serve(&req, self.clock.now(), &mut self.sink)?;
        self.clock.tick();
        Ok(Response { bin })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Staleness;

    /// A sink over one plain load vector.
    struct VecSink(Vec<u64>);

    impl LoadSink for VecSink {
        fn apply(&mut self, bin: usize) -> Result<(), ServeError> {
            self.0[bin] += 1;
            Ok(())
        }

        fn refresh(&mut self, snapshot: &mut [u64]) -> Result<(), ServeError> {
            snapshot.copy_from_slice(&self.0);
            Ok(())
        }
    }

    fn leaf(n: usize, b: u64, seed: u64) -> SnapshotService<VecSink> {
        SnapshotService::new(
            SnapshotAllocator::new(n, Staleness::Batch { b }, seed),
            VecSink(vec![0; n]),
            ServeClock::new(),
        )
    }

    #[test]
    fn block_dispatch_matches_per_request_dispatch_bit_for_bit() {
        let req = Request::two_choice();
        for b in [1u64, 3, 64, 1_000] {
            let mut per_request = leaf(64, b, 42);
            let mut blocked = leaf(64, b, 42);
            let mut expect = Vec::new();
            for _ in 0..500 {
                expect.push(per_request.call(req).unwrap().bin);
            }
            let mut got = Vec::new();
            // Uneven block sizes to cross refresh boundaries mid-block.
            for count in [1u64, 7, 64, 128, 300] {
                blocked.call_block(&req, count, &mut |r| got.push(r.unwrap().bin));
            }
            assert_eq!(got, expect, "b = {b}");
            assert_eq!(blocked.refreshes(), per_request.refreshes(), "b = {b}");
        }
    }

    #[test]
    fn block_dispatch_matches_for_d_choice_and_one_choice() {
        for d in [1usize, 2, 4, 8] {
            let req = Request {
                d,
                ..Request::two_choice()
            };
            let mut per_request = leaf(128, 32, 7);
            let mut blocked = leaf(128, 32, 7);
            let expect: Vec<usize> =
                (0..400).map(|_| per_request.call(req).unwrap().bin).collect();
            let mut got = Vec::new();
            blocked.call_block(&req, 400, &mut |r| got.push(r.unwrap().bin));
            assert_eq!(got, expect, "d = {d}");
        }
    }

    #[test]
    fn noisy_requests_fall_back_but_stay_stream_identical() {
        let req = Request {
            d: 2,
            noise: crate::NoiseMode::Noisy { sigma: 1.5 },
        };
        let mut per_request = leaf(64, 16, 9);
        let mut blocked = leaf(64, 16, 9);
        let expect: Vec<usize> = (0..200).map(|_| per_request.call(req).unwrap().bin).collect();
        let mut got = Vec::new();
        blocked.call_block(&req, 200, &mut |r| got.push(r.unwrap().bin));
        assert_eq!(got, expect);
    }

    #[test]
    fn delay_staleness_blocks_respect_snapshot_age() {
        let req = Request::two_choice();
        let make = || {
            SnapshotService::new(
                SnapshotAllocator::new(32, Staleness::Delay { tau: 10 }, 3),
                VecSink(vec![0; 32]),
                ServeClock::new(),
            )
        };
        let mut per_request = make();
        let mut blocked = make();
        let expect: Vec<usize> = (0..300).map(|_| per_request.call(req).unwrap().bin).collect();
        let mut got = Vec::new();
        blocked.call_block(&req, 300, &mut |r| got.push(r.unwrap().bin));
        assert_eq!(got, expect);
        assert_eq!(blocked.refreshes(), per_request.refreshes());
    }

    #[test]
    fn block_conserves_every_request_into_the_sink() {
        let mut leaf = leaf(16, 4, 11);
        let mut served = 0u64;
        leaf.call_block(&Request::two_choice(), 1_000, &mut |r| {
            r.unwrap();
            served += 1;
        });
        assert_eq!(served, 1_000);
        assert_eq!(leaf.sink.0.iter().sum::<u64>(), 1_000);
        assert_eq!(leaf.clock.now(), 1_000);
    }
}
