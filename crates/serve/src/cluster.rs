//! The authoritative store behind the [`LoadSink`] seam: the
//! single-threaded [`DirectCluster`].
//!
//! Every in-process engine and the TCP front-end need the same thing from
//! it: apply and refresh through shared handles, and the [`LoadState`]
//! back for conservation accounting. Decisions never read the store live,
//! only per-worker snapshots copied out of it, so the loads are one flat
//! [`LoadState`] over all `n` bins; the [`ShardDirectory`] beside it only
//! routes (fault roles, hedge retargeting, corruptor ranges).

use std::cell::RefCell;
use std::rc::Rc;

use balloc_core::LoadState;

use crate::directory::ShardDirectory;
use crate::service::ServeError;
use crate::sink::LoadSink;

/// Single-threaded direct store: the store of every deterministic engine
/// and of the inline and replay reactor modes. Applies and refreshes touch
/// one [`LoadState`] with no buffering, so they can never reject. Shared
/// between per-worker services as an `Rc<RefCell<DirectCluster>>`.
#[derive(Debug)]
pub struct DirectCluster {
    state: LoadState,
    directory: ShardDirectory,
}

impl DirectCluster {
    /// Builds the direct store for `n` bins, routed over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards ∉ 1..=n`.
    #[must_use]
    pub fn new(n: usize, shards: usize) -> Self {
        Self {
            directory: ShardDirectory::uniform(n, shards),
            state: LoadState::new(n),
        }
    }

    /// A copy of the authoritative state (conservation accounting).
    #[must_use]
    pub fn state(&self) -> LoadState {
        self.state.clone()
    }

    /// Balls held in the store.
    #[must_use]
    pub fn balls(&self) -> u64 {
        self.state.balls()
    }

    /// The bin↔shard map the store routes by; its epoch is the
    /// membership version the TCP front-end serves.
    #[must_use]
    pub fn directory(&self) -> &ShardDirectory {
        &self.directory
    }

    /// Current load of bin `bin`.
    pub(crate) fn load(&self, bin: usize) -> u64 {
        self.state.load(bin)
    }

    /// Removes one ball from bin `bin`: a departure, or a migration
    /// debit.
    ///
    /// # Panics
    ///
    /// Panics if the bin is empty.
    pub fn deallocate(&mut self, bin: usize) {
        self.state.deallocate(bin);
    }
}

impl LoadSink for DirectCluster {
    fn apply(&mut self, bin: usize) -> Result<(), ServeError> {
        self.state.allocate(bin);
        Ok(())
    }

    fn refresh(&mut self, snapshot: &mut [u64]) -> Result<(), ServeError> {
        self.state.copy_loads_into(snapshot);
        Ok(())
    }
}

/// Single-threaded shared sinks are sinks: every worker's service of a
/// deterministic engine (and every reactor connection) holds one handle
/// on the same [`DirectCluster`], borrowed for one call at a time.
impl<K: LoadSink + ?Sized> LoadSink for Rc<RefCell<K>> {
    fn apply(&mut self, bin: usize) -> Result<(), ServeError> {
        self.borrow_mut().apply(bin)
    }

    fn refresh(&mut self, snapshot: &mut [u64]) -> Result<(), ServeError> {
        self.borrow_mut().refresh(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn directory_slots_agree_with_shard_ranges() {
        // `run_resilient` assigns fault roles and corruptors by `ranges()`
        // and routes each decided bin by `slot_of`: the two must agree on
        // every bin.
        for (n, shards) in [(10usize, 3usize), (128, 8), (7, 7), (1000, 13), (64, 1)] {
            let directory = ShardDirectory::uniform(n, shards);
            let ranges = directory.ranges();
            for bin in 0..n {
                let s = directory.slot_of(bin);
                assert!(
                    ranges[s].contains(&bin),
                    "bin {bin} mapped to shard {s} ({:?}) for n = {n}, S = {shards}",
                    ranges[s]
                );
            }
        }
    }

    #[test]
    fn direct_cluster_counts_exactly() {
        let mut cluster = DirectCluster::new(10, 3);
        for bin in [0usize, 3, 3, 9, 5] {
            cluster.apply(bin).unwrap();
        }
        let state = cluster.state();
        assert_eq!(state.balls(), 5);
        assert_eq!(state.loads()[3], 2);
        let mut snap = vec![0; 10];
        cluster.refresh(&mut snap).unwrap();
        assert_eq!(snap[3], 2);
        assert_eq!(snap.iter().sum::<u64>(), 5);
    }

    proptest! {
        /// The shard count routes; it never changes what the store holds.
        /// Under any sequence of arrivals and departures, a store of
        /// `S ∈ {1, 2, 7, n}` shards reads exactly like one plain
        /// `LoadState` fed the same operations.
        #[test]
        fn store_reads_like_one_load_state_for_any_shard_count(
            n in 7usize..=40,
            ops in proptest::collection::vec(any::<u64>(), 1..120),
        ) {
            for shards in [1, 2, 7, n] {
                let mut cluster = DirectCluster::new(n, shards);
                let mut plain = LoadState::new(n);
                let mut snap = vec![0; n];
                for &op in &ops {
                    // Arrivals outnumber departures two to one; a
                    // departure from an empty bin becomes an arrival.
                    let bin = (op >> 8) as usize % n;
                    if op % 3 != 0 || plain.load(bin) == 0 {
                        cluster.apply(bin).unwrap();
                        plain.allocate(bin);
                    } else {
                        cluster.deallocate(bin);
                        plain.deallocate(bin);
                    }
                    prop_assert_eq!(&cluster.state(), &plain);
                    prop_assert_eq!(cluster.balls(), plain.balls());
                    prop_assert_eq!(cluster.load(bin), plain.load(bin));
                    cluster.refresh(&mut snap).unwrap();
                    prop_assert_eq!(&snap[..], plain.loads());
                }
            }
        }
    }
}
