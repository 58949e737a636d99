//! Bin sharding: partitioning `n` bins across `S` owned [`LoadState`]s.
//!
//! Each shard owns the authoritative loads of a contiguous bin range and
//! is driven as a [`Service`] — in the concurrent engine it lives behind
//! a [`Buffer`](crate::Buffer) worker, in replay mode it is called
//! directly. Decisions never read shard state live; they read per-worker
//! snapshots assembled from [`ShardRequest::ReadLoads`] replies, which is
//! what puts the service in the paper's `b-Batch`/`τ-Delay` regimes.

use std::ops::Range;
use std::sync::Arc;

use balloc_core::LoadState;

use crate::directory::ShardDirectory;
use crate::service::{ServeError, Service};
use crate::striped::StripedLoads;

/// The contiguous bin ranges of `shards` shards over `n` bins
/// (workpool-style `s·n/S .. (s+1)·n/S` blocks: sizes differ by at most
/// one and every bin is covered exactly once).
///
/// Since the elastic-membership refactor this is a thin view over
/// [`ShardDirectory::uniform`] — the directory owns all bin↔shard
/// arithmetic (lint L008 enforces that), and this helper remains for
/// call sites that want the static block partition without carrying a
/// directory around.
///
/// # Panics
///
/// Panics if `shards == 0` or `shards > n` (a shard must own at least one
/// bin — [`LoadState`] has no empty configuration).
///
/// # Examples
///
/// ```
/// let ranges = balloc_serve::shard_ranges(10, 3);
/// assert_eq!(ranges, vec![0..3, 3..6, 6..10]);
/// ```
#[must_use]
pub fn shard_ranges(n: usize, shards: usize) -> Vec<Range<usize>> {
    ShardDirectory::uniform(n, shards).ranges()
}

/// A request to one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardRequest {
    /// Place one ball into the (global) bin index, which must lie in this
    /// shard's range.
    Apply {
        /// Global bin index.
        bin: usize,
    },
    /// Read a copy of the shard's current loads (in shard-local bin
    /// order) — the snapshot-refresh path.
    ReadLoads,
}

/// A shard's reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardResponse {
    /// The ball was placed.
    Applied,
    /// The shard's loads, shard-local order.
    Loads(Vec<u64>),
}

/// One shard: the owned, authoritative [`LoadState`] of a contiguous bin
/// range, served through the [`Service`] interface.
#[derive(Debug, Clone)]
pub struct ShardService {
    /// Global index of the first owned bin.
    lo: usize,
    state: LoadState,
    /// Optional lock-free mirror this shard publishes its stripe to on
    /// every apply (the scalable snapshot path).
    striped: Option<Arc<StripedLoads>>,
}

impl ShardService {
    /// Creates the shard owning the global bin range `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[must_use]
    pub fn new(range: Range<usize>) -> Self {
        Self {
            lo: range.start,
            state: LoadState::new(range.len()),
            striped: None,
        }
    }

    /// Creates the shard owning `range`, publishing every load change to
    /// its stripe of the shared [`StripedLoads`] mirror — one relaxed
    /// store per apply, so snapshot refreshes can scan the mirror instead
    /// of round-tripping [`ShardRequest::ReadLoads`] through the buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or overruns the mirror.
    #[must_use]
    pub fn with_striped(range: Range<usize>, striped: Arc<StripedLoads>) -> Self {
        assert!(
            range.end <= striped.n(),
            "shard range {range:?} overruns the {}-bin striped mirror",
            striped.n()
        );
        Self {
            lo: range.start,
            state: LoadState::new(range.len()),
            striped: Some(striped),
        }
    }

    /// The shard's load state.
    #[must_use]
    pub fn state(&self) -> &LoadState {
        &self.state
    }

    /// Current load of the owned (global) bin `bin`.
    pub(crate) fn load(&self, bin: usize) -> u64 {
        self.state.load(bin - self.lo)
    }

    /// Places one ball into the owned (global) bin `bin`.
    #[inline]
    pub(crate) fn allocate(&mut self, bin: usize) {
        let local = bin - self.lo;
        self.state.allocate(local);
        if let Some(striped) = &self.striped {
            striped.publish(bin, self.state.load(local));
        }
    }

    /// Removes one ball from the owned (global) bin `bin`.
    pub(crate) fn deallocate(&mut self, bin: usize) {
        let local = bin - self.lo;
        self.state.deallocate(local);
        if let Some(striped) = &self.striped {
            striped.publish(bin, self.state.load(local));
        }
    }

    /// Copies the shard's loads into the matching slice of a global
    /// snapshot buffer (replay mode's allocation-free refresh path).
    pub fn publish_into(&self, global: &mut [u64]) {
        let n = self.state.n();
        self.state
            .copy_loads_into(&mut global[self.lo..self.lo + n]);
    }
}

impl Service<ShardRequest> for ShardService {
    type Response = ShardResponse;

    fn call(&mut self, req: ShardRequest) -> Result<ShardResponse, ServeError> {
        match req {
            ShardRequest::Apply { bin } => {
                self.allocate(bin);
                Ok(ShardResponse::Applied)
            }
            ShardRequest::ReadLoads => Ok(ShardResponse::Loads(self.state.loads().to_vec())),
        }
    }
}

/// Reassembles the global load vector from per-shard states (in shard
/// order) into one [`LoadState`] — the end-of-run view the gap is
/// measured on.
///
/// # Panics
///
/// Panics if `shards` is empty.
#[must_use]
pub fn merge_states(shards: &[ShardService]) -> LoadState {
    let mut loads = Vec::new();
    for shard in shards {
        loads.extend_from_slice(shard.state.loads());
    }
    LoadState::from_loads(loads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_every_bin_exactly_once() {
        for (n, shards) in [(10, 1), (10, 3), (128, 8), (7, 7), (1000, 13)] {
            let ranges = shard_ranges(n, shards);
            assert_eq!(ranges.len(), shards);
            let mut covered = 0;
            for (i, r) in ranges.iter().enumerate() {
                assert_eq!(r.start, covered, "gap before shard {i}");
                assert!(!r.is_empty(), "empty shard {i} for n = {n}, S = {shards}");
                covered = r.end;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    #[should_panic(expected = "shards must lie in 1..=n")]
    fn more_shards_than_bins_rejected() {
        let _ = shard_ranges(3, 4);
    }

    #[test]
    fn apply_and_read_round_trip() {
        let mut shard = ShardService::new(4..7);
        assert_eq!(
            shard.call(ShardRequest::Apply { bin: 5 }),
            Ok(ShardResponse::Applied)
        );
        shard.call(ShardRequest::Apply { bin: 5 }).unwrap();
        shard.call(ShardRequest::Apply { bin: 6 }).unwrap();
        assert_eq!(
            shard.call(ShardRequest::ReadLoads),
            Ok(ShardResponse::Loads(vec![0, 2, 1]))
        );
        let mut global = vec![0u64; 8];
        shard.publish_into(&mut global);
        assert_eq!(global, [0, 0, 0, 0, 0, 2, 1, 0]);
    }

    #[test]
    fn striped_shard_publishes_every_apply() {
        let striped = Arc::new(StripedLoads::new(8));
        let mut shard = ShardService::with_striped(4..7, Arc::clone(&striped));
        shard.call(ShardRequest::Apply { bin: 5 }).unwrap();
        shard.call(ShardRequest::Apply { bin: 5 }).unwrap();
        shard.call(ShardRequest::Apply { bin: 6 }).unwrap();
        let mut mirror = vec![0u64; 8];
        striped.read_into(&mut mirror);
        assert_eq!(mirror, [0, 0, 0, 0, 0, 2, 1, 0]);
        // The mirror agrees with the authoritative state at quiescence.
        let mut published = vec![0u64; 8];
        shard.publish_into(&mut published);
        assert_eq!(mirror, published);
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn striped_shard_range_must_fit_the_mirror() {
        let striped = Arc::new(StripedLoads::new(4));
        let _ = ShardService::with_striped(2..6, striped);
    }

    #[test]
    fn merge_states_reassembles_the_global_view() {
        let ranges = shard_ranges(10, 3);
        let mut shards: Vec<ShardService> =
            ranges.into_iter().map(ShardService::new).collect();
        for bin in [0usize, 3, 3, 9, 5, 0, 7] {
            let s = shards
                .iter()
                .position(|sh| bin >= sh.lo && bin < sh.lo + sh.state.n())
                .unwrap();
            shards[s].call(ShardRequest::Apply { bin }).unwrap();
        }
        let merged = merge_states(&shards);
        assert_eq!(merged.n(), 10);
        assert_eq!(merged.balls(), 7);
        assert_eq!(merged.load(0), 2);
        assert_eq!(merged.load(3), 2);
        assert_eq!(merged.max_load(), 2);
    }
}
