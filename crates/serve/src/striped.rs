//! A lock-free, shard-striped mirror of the global load vector — the
//! scalable snapshot path.
//!
//! The buffered snapshot path round-trips a [`ShardRequest::ReadLoads`]
//! through every shard's request buffer on each refresh: the reply
//! allocates a `Vec`, the round-trip serializes the reader behind whatever
//! applies are queued, and with `W` workers refreshing against `S` shards
//! the refresh traffic grows as `W × S` blocking calls — the measured
//! scaling bottleneck of the PR 5 serve path.
//!
//! [`StripedLoads`] replaces that with a shared array of atomic per-bin
//! cells, striped by shard exactly like the authoritative states: each
//! shard worker *publishes* its owned stripe as it applies (one relaxed
//! store per placement), and snapshot refreshes become a single wait-free
//! [`read_into`](StripedLoads::read_into) scan — no locks, no channel
//! round-trip, no allocation, and no reader/writer serialization.
//!
//! Consistency: individually each cell is a recent value of its bin;
//! cross-bin the scan is *not* an atomic cut of the global vector. That is
//! exactly the information model the serving layer already assumes —
//! decisions run against stale snapshots (`b-Batch`/`τ-Delay`, paper
//! Section 6) — so a torn-across-bins read is indistinguishable from
//! slightly staler per-bin information. Conservation is untouched: the
//! authoritative per-shard [`LoadState`]s remain the ground truth the
//! outcome is measured on.
//!
//! [`ShardRequest::ReadLoads`]: crate::ShardRequest

use std::sync::atomic::{AtomicU64, Ordering};

/// A shard-striped, lock-free mirror of all `n` bin loads.
///
/// Writers ([`ShardService`](crate::ShardService) workers configured with
/// [`with_striped`](crate::ShardService::with_striped)) each own a disjoint
/// stripe of cells and publish with relaxed stores; readers scan any subset
/// wait-free. All operations are total-order-free by design — see the
/// module docs for why relaxed is sufficient here.
#[derive(Debug)]
pub struct StripedLoads {
    cells: Vec<AtomicU64>,
}

impl StripedLoads {
    /// A mirror for `n` bins, all zero.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one bin");
        Self {
            cells: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of mirrored bins.
    #[must_use]
    pub fn n(&self) -> usize {
        self.cells.len()
    }

    /// Publishes a new load value for (global) bin `bin`.
    ///
    /// Called by the bin's owning shard worker after each apply; stripes
    /// are disjoint, so no two writers ever race on one cell.
    #[inline]
    pub fn publish(&self, bin: usize, load: u64) {
        self.cells[bin].store(load, Ordering::Relaxed);
    }

    /// Overwrites `snapshot` with a current reading of every cell — the
    /// wait-free refresh path.
    ///
    /// # Panics
    ///
    /// Panics if `snapshot.len() != n`.
    pub fn read_into(&self, snapshot: &mut [u64]) {
        assert_eq!(snapshot.len(), self.cells.len(), "snapshot size mismatch");
        for (slot, cell) in snapshot.iter_mut().zip(&self.cells) {
            *slot = cell.load(Ordering::Relaxed);
        }
    }

    /// A single cell's current value (tests and diagnostics).
    #[must_use]
    pub fn load(&self, bin: usize) -> u64 {
        self.cells[bin].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn publish_and_read_round_trip() {
        let striped = StripedLoads::new(8);
        striped.publish(3, 7);
        striped.publish(0, 1);
        for (bin, load) in [(5, 10), (6, 11), (7, 12)] {
            striped.publish(bin, load);
        }
        let mut snapshot = vec![0u64; 8];
        striped.read_into(&mut snapshot);
        assert_eq!(snapshot, [1, 0, 0, 7, 0, 10, 11, 12]);
        assert_eq!(striped.load(6), 11);
        assert_eq!(striped.n(), 8);
    }

    #[test]
    #[should_panic(expected = "snapshot size mismatch")]
    fn mismatched_snapshot_rejected() {
        let striped = StripedLoads::new(4);
        striped.read_into(&mut [0u64; 3]);
    }

    #[test]
    fn concurrent_stripe_writers_never_tear_a_cell() {
        // Two writers on disjoint stripes, one reader scanning: every read
        // value must be one the owning writer actually published (cells
        // are atomic — no torn u64s), and the final scan must see the last
        // publish of each stripe.
        let striped = Arc::new(StripedLoads::new(2));
        let rounds = 10_000u64;
        let writers: Vec<_> = (0..2usize)
            .map(|stripe| {
                let striped = Arc::clone(&striped);
                std::thread::spawn(move || {
                    for v in 1..=rounds {
                        striped.publish(stripe, v * 2 + stripe as u64);
                    }
                })
            })
            .collect();
        let reader = {
            let striped = Arc::clone(&striped);
            std::thread::spawn(move || {
                let mut snapshot = [0u64; 2];
                for _ in 0..1_000 {
                    striped.read_into(&mut snapshot);
                    for (stripe, &v) in snapshot.iter().enumerate() {
                        assert!(
                            v == 0 || v % 2 == stripe as u64 % 2,
                            "torn or foreign value {v} in stripe {stripe}"
                        );
                    }
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(striped.load(0), rounds * 2);
        assert_eq!(striped.load(1), rounds * 2 + 1);
    }
}
