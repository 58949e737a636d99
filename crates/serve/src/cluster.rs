//! The authoritative store behind the [`LoadSink`] seam: the
//! single-threaded [`DirectCluster`].
//!
//! Every in-process engine and the TCP front-end need the same thing from
//! it: apply and refresh through shared handles, and the merged
//! [`LoadState`] back for conservation accounting.

use std::cell::RefCell;
use std::rc::Rc;

use balloc_core::LoadState;

use crate::directory::ShardDirectory;
use crate::service::ServeError;
use crate::shard::{merge_states, ShardService};
use crate::sink::LoadSink;

/// Single-threaded direct shard access: the store of every deterministic
/// engine and of the inline and replay reactor modes — applies and
/// refreshes touch the owned [`ShardService`]s with no buffering, so they
/// can never reject. Shared between per-worker services as an
/// `Rc<RefCell<DirectCluster>>`.
#[derive(Debug)]
pub struct DirectCluster {
    shards: Vec<ShardService>,
    directory: ShardDirectory,
}

impl DirectCluster {
    /// Builds the direct store for `n` bins over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards ∉ 1..=n`.
    #[must_use]
    pub fn new(n: usize, shards: usize) -> Self {
        let directory = ShardDirectory::uniform(n, shards);
        Self {
            shards: directory.ranges().into_iter().map(ShardService::new).collect(),
            directory,
        }
    }

    /// The merged authoritative state (conservation accounting).
    #[must_use]
    pub fn state(&self) -> LoadState {
        merge_states(&self.shards)
    }

    /// Balls held across all shards (no merge).
    #[must_use]
    pub fn balls(&self) -> u64 {
        self.shards.iter().map(|shard| shard.state().balls()).sum()
    }

    /// The bin↔shard map the store routes by.
    pub(crate) fn directory(&self) -> &ShardDirectory {
        &self.directory
    }

    /// Current load of (global) bin `bin`.
    pub(crate) fn load(&self, bin: usize) -> u64 {
        self.shards[self.directory.slot_of(bin)].load(bin)
    }

    /// Removes one ball from (global) bin `bin`: a departure, or a
    /// migration debit.
    ///
    /// # Panics
    ///
    /// Panics if the bin is empty.
    pub fn deallocate(&mut self, bin: usize) {
        let s = self.directory.slot_of(bin);
        self.shards[s].deallocate(bin);
    }
}

impl LoadSink for DirectCluster {
    fn apply(&mut self, bin: usize) -> Result<(), ServeError> {
        let s = self.directory.slot_of(bin);
        self.shards[s].allocate(bin);
        Ok(())
    }

    fn refresh(&mut self, snapshot: &mut [u64]) -> Result<(), ServeError> {
        for shard in &self.shards {
            shard.publish_into(snapshot);
        }
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

    #[test]
    fn directory_slots_agree_with_shard_ranges() {
        // `DirectCluster` builds its shards from `ranges()` and routes by
        // `slot_of`: the two must agree on every bin.
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
}
