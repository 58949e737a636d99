//! The serve engine: deterministic single-threaded replay.
//!
//! [`run_replay`] hands `workers` virtual workers — each a
//! [`SnapshotAllocator::for_worker`] decision state — to the crate's one
//! deterministic driver, round-robin on one thread over a direct store.
//! Every request is served with the same refresh → decide → apply step
//! as the TCP reactor, and the run closes the same [`Ledger`] as every
//! other engine, so the decision stream is a pure function of the seed:
//! bit-identical across runs, digestible, and diffable.

use std::time::{Duration, Instant};

use balloc_core::rng::Fnv1a;

use crate::cluster::DirectCluster;
use crate::drive::{drive, validate_shape};
use crate::service::{Request, Response};
use crate::shed::ShedCounter;
use crate::snapshot::{SnapshotAllocator, Staleness};

/// Which authoritative load store backs the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// One [`LoadState`](balloc_core::LoadState) over all `n` bins,
    /// routed over `S` shards and called directly.
    Sharded,
}

/// How snapshot refreshes read the global load vector. Replay always
/// copies the store's one load vector, so the one path is inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotPath {
    /// Copy the store's loads into the snapshot.
    #[default]
    Buffered,
}

/// Configuration of one serve run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Number of bins.
    pub n: usize,
    /// Number of shards.
    pub shards: usize,
    /// Virtual round-robin serving workers.
    pub workers: usize,
    /// Total requests across all workers.
    pub requests: u64,
    /// The request template every client issues.
    pub request: Request,
    /// Snapshot refresh policy.
    pub staleness: Staleness,
    /// Read by nothing (kept so existing `ServeConfig` literals build).
    pub buffer_capacity: usize,
    /// Read by nothing (kept so existing `ServeConfig` literals build).
    pub inflight: Option<usize>,
    /// Read by nothing (kept so existing `ServeConfig` literals build).
    pub backend: BackendKind,
    /// Read by nothing (kept so existing `ServeConfig` literals build).
    pub snapshot: SnapshotPath,
    /// Master seed; worker `w`'s decision state is
    /// [`SnapshotAllocator::for_worker`]`(.., seed, w)`.
    pub seed: u64,
}

impl ServeConfig {
    /// A small, fast configuration used by tests and doctests.
    #[must_use]
    pub fn demo(n: usize, shards: usize, seed: u64) -> Self {
        Self {
            n,
            shards,
            workers: 2,
            requests: (n as u64) * 8,
            request: Request::two_choice(),
            staleness: Staleness::Batch { b: n as u64 },
            buffer_capacity: 1024,
            inflight: None,
            backend: BackendKind::Sharded,
            snapshot: SnapshotPath::Buffered,
            seed,
        }
    }

    fn validate(&self) {
        validate_shape(self.n, self.shards, self.workers, self.staleness);
    }
}

/// Requests worker `w` serves under the engines' round-robin split of
/// `requests` over `workers` — the first `requests mod workers` workers
/// carry one extra. Public because the TCP load generator must issue
/// exactly this split per connection for its replay digest to line up
/// with [`run_replay`]'s.
#[must_use]
pub fn worker_share(requests: u64, workers: usize, w: usize) -> u64 {
    let per = requests / workers as u64;
    let extra = requests % workers as u64;
    per + u64::from((w as u64) < extra)
}

/// What a serve run did, measured on the authoritative end state.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Requests issued (= [`ServeConfig::requests`]).
    pub requests: u64,
    /// Requests that placed a ball.
    pub allocated: u64,
    /// Requests shed (the direct store never rejects, so always zero).
    pub shed: u64,
    /// Snapshot refreshes summed over workers.
    pub refreshes: u64,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Requests per second over the run (allocated + shed).
    pub throughput_rps: f64,
    /// Gap of the final authoritative load vector,
    /// `max_i x_i − allocated/n`.
    pub gap: f64,
    /// Maximum final bin load.
    pub max_load: u64,
}

/// A replayed run: the [`ServeOutcome`] plus the decision-stream digest.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// The run's measurements (every field except
    /// [`elapsed`](ServeOutcome::elapsed) /
    /// [`throughput_rps`](ServeOutcome::throughput_rps) is deterministic).
    pub outcome: ServeOutcome,
    /// FNV-1a digest of the decision stream (chosen bin per request, in
    /// issue order) — two replays at the same config and seed produce the
    /// same digest, byte for byte.
    pub digest: u64,
}

/// Runs the **deterministic replay** engine: `workers` decision states
/// interleaved round-robin on the calling thread by the crate's one
/// driver, over a direct store, so the decision stream — and therefore
/// the digest, the final loads, the gap, and every count — is a pure
/// function of the configuration and seed. Every request completes (the
/// direct store never rejects), so slot `t` serves at clock `t`.
///
/// This is the serving layer's extension of the workspace determinism
/// contract: run it twice at the same seed and compare
/// [`ReplayOutcome::digest`] bit for bit.
///
/// # Panics
///
/// Panics on an invalid configuration (zero bins or workers,
/// `shards ∉ 1..=n`, a zero staleness parameter).
///
/// # Examples
///
/// ```
/// use balloc_serve::{run_replay, ServeConfig};
///
/// let cfg = ServeConfig::demo(64, 4, 7);
/// let a = run_replay(&cfg);
/// let b = run_replay(&cfg);
/// assert_eq!(a.digest, b.digest);
/// assert_eq!(a.outcome.gap, b.outcome.gap);
/// ```
#[must_use]
pub fn run_replay(cfg: &ServeConfig) -> ReplayOutcome {
    cfg.validate();
    let mut store = DirectCluster::new(cfg.n, cfg.shards);
    let mut workers: Vec<SnapshotAllocator> = (0..cfg.workers)
        .map(|w| SnapshotAllocator::for_worker(cfg.n, cfg.staleness, cfg.seed, w))
        .collect();
    let mut digest = Fnv1a::new();
    // balloc-lint: allow(L002): wall-clock timing of the replay itself;
    // the decision digest never reads it.
    let start = Instant::now();
    let ledger = drive(&mut workers, cfg.requests, |t, ledger, alloc| {
        let served = alloc.serve(&cfg.request, t, &mut store);
        if let Ok(resp) = ledger.record(served.map(|bin| Response { bin })) {
            digest.write_u64(resp.bin as u64);
        }
    });
    let elapsed = start.elapsed();
    let state = store.state();
    ledger.check(cfg.requests, state.balls(), &ShedCounter::new());
    let secs = elapsed.as_secs_f64();
    ReplayOutcome {
        outcome: ServeOutcome {
            requests: cfg.requests,
            allocated: ledger.allocated,
            shed: ledger.shed,
            refreshes: workers.iter().map(SnapshotAllocator::refreshes).sum(),
            elapsed,
            throughput_rps: if secs > 0.0 {
                cfg.requests as f64 / secs
            } else {
                0.0
            },
            gap: state.gap(),
            max_load: state.max_load(),
        },
        digest: digest.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::NoiseMode;

    #[test]
    fn replay_ignores_the_snapshot_path() {
        // The four inert fields (buffer capacity, in-flight limit,
        // backend, snapshot path) must not reach the decision stream,
        // however they are set.
        let base = ServeConfig::demo(64, 4, 9);
        let a = run_replay(&base);
        for inert in [
            ServeConfig {
                buffer_capacity: 0,
                ..base
            },
            ServeConfig {
                buffer_capacity: 1,
                inflight: Some(0),
                ..base
            },
            ServeConfig {
                buffer_capacity: usize::MAX,
                inflight: Some(1),
                backend: BackendKind::Sharded,
                snapshot: SnapshotPath::Buffered,
                ..base
            },
        ] {
            let b = run_replay(&inert);
            assert_eq!(a.digest, b.digest, "{inert:?}");
            assert_eq!(a.outcome.gap, b.outcome.gap, "{inert:?}");
        }
    }

    #[test]
    fn replay_is_bit_identical_across_runs() {
        let mut cfg = ServeConfig::demo(64, 4, 11);
        cfg.workers = 3;
        let a = run_replay(&cfg);
        let b = run_replay(&cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.outcome.gap, b.outcome.gap);
        assert_eq!(a.outcome.max_load, b.outcome.max_load);
        assert_eq!(a.outcome.allocated, b.outcome.allocated);
    }

    #[test]
    fn replay_differs_across_seeds() {
        let a = run_replay(&ServeConfig::demo(64, 2, 1));
        let b = run_replay(&ServeConfig::demo(64, 2, 2));
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn replay_shards_do_not_change_decisions() {
        // Sharding is a storage layout, not a policy: at a fixed seed the
        // decision stream is identical whatever S is, because decisions
        // only ever read snapshots of the same global vector.
        let digests: Vec<u64> = [1usize, 2, 8]
            .into_iter()
            .map(|shards| run_replay(&ServeConfig::demo(64, shards, 9)).digest)
            .collect();
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[0], digests[2]);
    }

    #[test]
    fn fresher_snapshots_give_smaller_gaps() {
        let n = 256;
        let gap_of = |b: u64| {
            let mut cfg = ServeConfig::demo(n, 4, 17);
            cfg.workers = 1;
            cfg.requests = (n as u64) * 64;
            cfg.staleness = Staleness::Batch { b };
            run_replay(&cfg).outcome.gap
        };
        let fresh = gap_of(1);
        let stale = gap_of((n as u64) * 16);
        assert!(
            fresh < stale,
            "b = 1 gap {fresh} should beat b = 16n gap {stale}"
        );
    }

    #[test]
    fn one_choice_requests_ignore_staleness() {
        // d = 1 never reads the snapshot, so extreme staleness changes
        // nothing about the gap's order of magnitude vs fresh One-Choice.
        let mut cfg = ServeConfig::demo(128, 2, 23);
        cfg.request = Request {
            d: 1,
            noise: NoiseMode::Snapshot,
        };
        cfg.staleness = Staleness::Batch { b: 1_000_000 };
        let outcome = run_replay(&cfg).outcome;
        assert_eq!(outcome.allocated, cfg.requests);
    }

    #[test]
    fn delay_staleness_serves_end_to_end() {
        let mut cfg = ServeConfig::demo(64, 2, 31);
        cfg.staleness = Staleness::Delay { tau: 64 };
        let replay = run_replay(&cfg);
        assert_eq!(replay.outcome.allocated, cfg.requests);
        assert!(replay.outcome.refreshes > cfg.workers as u64);
    }

    #[test]
    #[should_panic(expected = "shards must lie in 1..=n")]
    fn invalid_shard_count_rejected() {
        let cfg = ServeConfig::demo(4, 8, 0);
        let _ = run_replay(&cfg);
    }
}
