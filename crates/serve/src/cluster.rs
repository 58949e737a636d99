//! Shard-store lifecycles behind the [`LoadSink`] seam: the concurrent
//! buffer-backed [`ShardCluster`] and the single-threaded
//! [`DirectCluster`].
//!
//! Both in-process engines and the TCP front-end need the same thing from
//! the authoritative store: spawn it, hand out apply/refresh handles,
//! drain it, and get the merged [`LoadState`] back for conservation
//! accounting. PR 5 buried that lifecycle inside `run_concurrent`; this
//! module is the extraction, so a reactor thread can own a cluster the
//! same way the closed-loop engine does.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use balloc_core::LoadState;

use crate::buffer::{Buffer, BufferController};
use crate::directory::ShardDirectory;
use crate::service::ServeError;
use crate::shard::{merge_states, ShardRequest, ShardResponse, ShardService};
use crate::sink::LoadSink;
use crate::striped::StripedLoads;
use crate::SnapshotPath;

/// `S` shard workers, each an owned [`ShardService`] behind a bounded
/// [`Buffer`], optionally publishing into a shared [`StripedLoads`]
/// mirror. Handles fan applies out by bin range; [`join`](Self::join)
/// drains the workers and reassembles the authoritative state.
#[derive(Debug)]
pub struct ShardCluster {
    template: ShardHandle,
    controllers: Vec<BufferController<ShardService>>,
}

impl ShardCluster {
    /// Spawns the shard workers for `n` bins over `shards` shards, each
    /// with a request buffer of `capacity`. Under
    /// [`SnapshotPath::Striped`] the workers also publish every applied
    /// load into the shared mirror, and refreshes scan it wait-free.
    ///
    /// # Panics
    ///
    /// Panics if `shards ∉ 1..=n` or `capacity == 0`.
    #[must_use]
    pub fn spawn(n: usize, shards: usize, capacity: usize, snapshot: SnapshotPath) -> Self {
        let striped = match snapshot {
            SnapshotPath::Striped => Some(Arc::new(StripedLoads::new(n))),
            SnapshotPath::Buffered => None,
        };
        let directory = ShardDirectory::uniform(n, shards);
        let mut handles = Vec::new();
        let mut controllers = Vec::new();
        for range in directory.ranges() {
            let shard = match &striped {
                Some(mirror) => ShardService::with_striped(range.clone(), Arc::clone(mirror)),
                None => ShardService::new(range.clone()),
            };
            let (handle, controller) = Buffer::spawn(shard, capacity);
            handles.push((range, handle));
            controllers.push(controller);
        }
        Self {
            template: ShardHandle {
                shards: handles,
                striped,
                directory,
            },
            controllers,
        }
    }

    /// A cloneable apply/refresh handle into the cluster.
    #[must_use]
    pub fn handle(&self) -> ShardHandle {
        self.template.clone()
    }

    /// Drains and joins every shard worker and merges their states into
    /// the global authoritative [`LoadState`].
    ///
    /// All [`ShardHandle`]s must have been dropped first (the workers
    /// exit when their last buffer handle closes); joining with live
    /// handles blocks until they drop.
    #[must_use]
    pub fn join(self) -> LoadState {
        drop(self.template);
        let shards: Vec<ShardService> = self.controllers.into_iter().map(|c| c.join()).collect();
        merge_states(&shards)
    }
}

/// Cloneable [`LoadSink`] into a [`ShardCluster`]: applies are
/// fire-and-forget casts into the owning shard's buffer (a full buffer is
/// back-pressure), refreshes either round-trip every shard or scan the
/// striped mirror.
#[derive(Debug, Clone)]
pub struct ShardHandle {
    shards: Vec<(std::ops::Range<usize>, Buffer<ShardRequest, ShardResponse>)>,
    striped: Option<Arc<StripedLoads>>,
    directory: ShardDirectory,
}

impl LoadSink for ShardHandle {
    fn apply(&mut self, bin: usize) -> Result<(), ServeError> {
        let s = self.directory.slot_of(bin);
        debug_assert!(self.shards[s].0.contains(&bin), "directory out of sync");
        // Fire-and-forget: the decision is already made, the shard just
        // has to absorb the increment. A full buffer is back-pressure.
        self.shards[s].1.cast(ShardRequest::Apply { bin })
    }

    fn refresh(&mut self, snapshot: &mut [u64]) -> Result<(), ServeError> {
        if let Some(striped) = &self.striped {
            // Wait-free scan of the published stripes — never blocks
            // behind queued applies, allocates nothing.
            striped.read_into(snapshot);
            return Ok(());
        }
        for (range, shard) in &mut self.shards {
            match shard.call(ShardRequest::ReadLoads)? {
                ShardResponse::Loads(loads) => {
                    snapshot[range.clone()].copy_from_slice(&loads);
                }
                ShardResponse::Applied => unreachable!("ReadLoads replies with Loads"),
            }
        }
        Ok(())
    }
}

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
    use crate::shard::shard_ranges;

    #[test]
    fn directory_slots_agree_with_shard_ranges() {
        for (n, shards) in [(10usize, 3usize), (128, 8), (7, 7), (1000, 13), (64, 1)] {
            let directory = ShardDirectory::uniform(n, shards);
            let ranges = shard_ranges(n, shards);
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

    #[test]
    fn shard_cluster_round_trips_and_drains() {
        let cluster = ShardCluster::spawn(16, 4, 64, SnapshotPath::Buffered);
        let mut handle = cluster.handle();
        for bin in 0..16usize {
            handle.apply(bin).unwrap();
        }
        let mut snap = vec![0; 16];
        handle.refresh(&mut snap).unwrap();
        // The refresh round-trips behind the queued applies, so every
        // apply is visible.
        assert_eq!(snap, vec![1u64; 16]);
        drop(handle);
        let state = cluster.join();
        assert_eq!(state.balls(), 16);
    }

    #[test]
    fn striped_cluster_mirror_tracks_applies() {
        let cluster = ShardCluster::spawn(8, 2, 64, SnapshotPath::Striped);
        let mut handle = cluster.handle();
        for _ in 0..5 {
            handle.apply(6).unwrap();
        }
        // The mirror is published by the shard worker as it absorbs the
        // casts; poll briefly rather than racing it.
        let mut snap = vec![0; 8];
        for _ in 0..1_000 {
            handle.refresh(&mut snap).unwrap();
            if snap[6] == 5 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(snap[6], 5);
        drop(handle);
        assert_eq!(cluster.join().balls(), 5);
    }
}
