//! The authoritative store behind the [`LoadSink`] seam: the
//! single-threaded [`DirectCluster`].
//!
//! Every in-process engine and the TCP front-end need the same thing from
//! it: apply and refresh through shared handles, and the [`LoadState`]
//! back for conservation accounting. Decisions never read the store live,
//! only per-worker snapshots copied out of it, so the loads are one flat
//! [`LoadState`] over all `n` bins; the [`ShardDirectory`] beside it only
//! routes (fault roles, hedge retargeting, corruptor ranges).
//!
//! Beside the loads the store keeps a bounded change log: a fixed ring
//! holding the bins of its last ⌊n/4⌋ (at least one) load changes. A
//! reader that caught up at change number `mark` and is at most a ring's
//! length behind copies only those bins
//! ([`LoadSink::catch_up`]); a reader further behind copies all `n`.

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
    /// The bins of the last `log.len()` load changes, written in a ring:
    /// the next change goes to `log[head]`, overwriting the oldest.
    log: Box<[usize]>,
    head: usize,
    /// Load changes so far: the change number a caught-up reader holds.
    changes: u64,
    /// Loads copied into snapshots by refreshes and catch-ups. A work
    /// count: no decision reads it.
    loads_copied: u64,
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
            log: vec![0; (n / 4).max(1)].into_boxed_slice(),
            head: 0,
            changes: 0,
            loads_copied: 0,
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
        self.log_change(bin);
    }

    /// Loads copied into snapshots so far: `n` per full refresh, one per
    /// logged change per catch-up.
    #[must_use]
    pub fn loads_copied(&self) -> u64 {
        self.loads_copied
    }

    /// Writes `bin` into the change log's ring.
    #[inline]
    fn log_change(&mut self, bin: usize) {
        self.log[self.head] = bin;
        self.head += 1;
        if self.head == self.log.len() {
            self.head = 0;
        }
        self.changes += 1;
    }
}

impl LoadSink for DirectCluster {
    fn apply(&mut self, bin: usize) -> Result<(), ServeError> {
        self.state.allocate(bin);
        self.log_change(bin);
        Ok(())
    }

    fn refresh(&mut self, snapshot: &mut [u64]) -> Result<(), ServeError> {
        self.state.copy_loads_into(snapshot);
        self.loads_copied += self.state.n() as u64;
        Ok(())
    }

    /// Copies `load[bin]` for each bin changed since `mark` while the
    /// ring still holds all of them, else all `n` loads.
    fn catch_up(
        &mut self,
        snapshot: &mut [u64],
        mark: Option<u64>,
    ) -> Result<Option<u64>, ServeError> {
        let behind = mark
            .and_then(|mark| self.changes.checked_sub(mark))
            .and_then(|behind| usize::try_from(behind).ok())
            .filter(|&behind| behind <= self.log.len());
        match behind {
            Some(behind) => {
                // The last `behind` changes end just before `head`: the
                // newest at the front of the ring, the rest at its back.
                let (front, back) = self.log.split_at(self.head);
                let from_back = behind.saturating_sub(front.len());
                let changed = back[back.len() - from_back..]
                    .iter()
                    .chain(&front[front.len() - (behind - from_back)..]);
                for &bin in changed {
                    snapshot[bin] = self.state.load(bin);
                }
                self.loads_copied += behind as u64;
            }
            None => self.refresh(snapshot)?,
        }
        debug_assert_eq!(
            &*snapshot,
            self.state.loads(),
            "a catch-up must read like a full copy"
        );
        Ok(Some(self.changes))
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

    fn catch_up(
        &mut self,
        snapshot: &mut [u64],
        mark: Option<u64>,
    ) -> Result<Option<u64>, ServeError> {
        self.borrow_mut().catch_up(snapshot, mark)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{SnapshotAllocator, Staleness};
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
        /// `LoadState` fed the same operations. Between them, 1–3
        /// readers catch up, each from its own mark; at `n ≤ 40` the
        /// ring holds at most 10 changes, so it wraps between most
        /// catch-ups. Each catch-up reads like the plain state and copies
        /// one load per change behind it, or all `n` when the ring no
        /// longer covers its mark or its snapshot was written outside.
        #[test]
        fn store_reads_like_one_load_state_for_any_shard_count(
            n in 7usize..=40,
            readers in 1usize..=3,
            ops in proptest::collection::vec(any::<u64>(), 1..120),
        ) {
            let ring = (n / 4).max(1) as u64;
            for shards in [1, 2, 7, n] {
                let mut cluster = DirectCluster::new(n, shards);
                let mut plain = LoadState::new(n);
                let mut snap = vec![0; n];
                let batch = Staleness::Batch { b: 1 };
                let mut views: Vec<_> = (0..readers)
                    .map(|r| (SnapshotAllocator::new(n, batch, r as u64), None::<u64>))
                    .collect();
                for (change, &op) in (1u64..).zip(&ops) {
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

                    // One reader in two steps catches up; one in eight
                    // first has its snapshot written outside.
                    if (op >> 40) % 2 == 0 {
                        let (reader, caught_at) = &mut views[(op >> 48) as usize % readers];
                        if (op >> 56) % 8 == 0 {
                            reader.snapshot_mut().fill(u64::MAX);
                            *caught_at = None;
                        }
                        let before = cluster.loads_copied();
                        reader.catch_up(&mut cluster).unwrap();
                        let copied = cluster.loads_copied() - before;
                        let expected = match *caught_at {
                            Some(at) if change - at <= ring => change - at,
                            _ => n as u64,
                        };
                        prop_assert_eq!(copied, expected);
                        prop_assert_eq!(reader.snapshot(), plain.loads());
                        *caught_at = Some(change);
                    }
                }
            }
        }
    }
}
