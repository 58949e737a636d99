//! Bin sharding: the owned [`LoadState`] of one contiguous bin range.
//!
//! The [`DirectCluster`](crate::DirectCluster) store holds one
//! [`ShardService`] per [`ShardDirectory`](crate::ShardDirectory) range
//! and calls it directly. Decisions never read shard state live; they
//! read per-worker snapshots assembled by
//! [`publish_into`](ShardService::publish_into), which is what puts the
//! service in the paper's `b-Batch`/`τ-Delay` regimes.

use std::ops::Range;

use balloc_core::LoadState;

/// One shard: the owned, authoritative [`LoadState`] of a contiguous bin
/// range.
#[derive(Debug, Clone)]
pub struct ShardService {
    /// Global index of the first owned bin.
    lo: usize,
    state: LoadState,
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
        self.state.allocate(bin - self.lo);
    }

    /// Removes one ball from the owned (global) bin `bin`.
    pub(crate) fn deallocate(&mut self, bin: usize) {
        self.state.deallocate(bin - self.lo);
    }

    /// Copies the shard's loads into the matching slice of a global
    /// snapshot buffer (the allocation-free refresh path).
    pub fn publish_into(&self, global: &mut [u64]) {
        let n = self.state.n();
        self.state
            .copy_loads_into(&mut global[self.lo..self.lo + n]);
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
    use crate::directory::ShardDirectory;

    #[test]
    fn ranges_cover_every_bin_exactly_once() {
        for (n, shards) in [(10, 1), (10, 3), (128, 8), (7, 7), (1000, 13)] {
            let ranges = ShardDirectory::uniform(n, shards).ranges();
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
        let _ = ShardDirectory::uniform(3, 4);
    }

    #[test]
    fn apply_and_read_round_trip() {
        let mut shard = ShardService::new(4..7);
        shard.allocate(5);
        shard.allocate(5);
        shard.allocate(6);
        assert_eq!(shard.state().loads(), [0, 2, 1]);
        assert_eq!(shard.load(5), 2);
        let mut global = vec![0u64; 8];
        shard.publish_into(&mut global);
        assert_eq!(global, [0, 0, 0, 0, 0, 2, 1, 0]);
    }

    #[test]
    fn merge_states_reassembles_the_global_view() {
        let directory = ShardDirectory::uniform(10, 3);
        let mut shards: Vec<ShardService> =
            directory.ranges().into_iter().map(ShardService::new).collect();
        for bin in [0usize, 3, 3, 9, 5, 0, 7] {
            shards[directory.slot_of(bin)].allocate(bin);
        }
        let merged = merge_states(&shards);
        assert_eq!(merged.n(), 10);
        assert_eq!(merged.balls(), 7);
        assert_eq!(merged.load(0), 2);
        assert_eq!(merged.load(3), 2);
        assert_eq!(merged.max_load(), 2);
    }
}
