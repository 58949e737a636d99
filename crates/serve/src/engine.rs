//! The serve engine: closed-loop concurrent serving and deterministic
//! single-threaded replay over the same decision code.
//!
//! Both modes serve each request with the same refresh → decide → apply
//! step over a [`LoadSink`] (the one inside [`SnapshotService`]), with
//! the same per-worker [`SnapshotAllocator::for_worker`] decision states,
//! and close the same [`Ledger`]. They differ only in scheduling:
//!
//! * [`run_concurrent`] drives `workers` OS threads through
//!   `workpool::par_map_indexed`, each with a
//!   `LoadShed(InFlightLimit(SnapshotService))` stack; shard state lives
//!   behind [`Buffer`](crate::Buffer) workers and snapshot refreshes race
//!   with applies, so decisions (and the achieved gap) vary run to run
//!   while totals are exact;
//! * [`run_replay`] hands the same virtual workers to the crate's one
//!   deterministic driver, round-robin on one thread over a direct
//!   store, making the decision stream a pure function of the seed —
//!   bit-identical across runs, digestible, and diffable.

use std::sync::Arc;
use std::time::{Duration, Instant};

use balloc_core::rng::Fnv1a;
use balloc_core::LoadState;
use balloc_multicounter::MultiCounter;

use crate::cluster::{DirectCluster, ShardCluster};
use crate::drive::{drive, validate_shape, Ledger};
use crate::limit::{InFlightLimitLayer, Permits};
use crate::service::{Layer, Request, Response, ServeError, Service};
use crate::shed::{LoadShedLayer, ShedCounter};
use crate::sink::{LoadSink, ServeClock, SnapshotService};
use crate::snapshot::{SnapshotAllocator, Staleness};

/// Which authoritative load store backs the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// `S` shards, each an owned [`LoadState`] behind a buffer worker
    /// (replay: called directly).
    Sharded,
    /// One shared [`MultiCounter`] with `n` cells — the service then
    /// doubles as a stress harness for the counter (applies are
    /// `fetch_add`s, refreshes are cell scans).
    Multicounter,
}

/// How snapshot refreshes read the global load vector (sharded backend,
/// concurrent mode — replay always reads shards directly, and the
/// multicounter backend scans its own cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotPath {
    /// Round-trip a [`ShardRequest::ReadLoads`](crate::ShardRequest::ReadLoads) through every shard's
    /// request buffer: the PR 5 path. Reads serialize behind queued
    /// applies and each reply allocates — refresh cost grows as
    /// `workers × shards` blocking calls.
    #[default]
    Buffered,
    /// Scan the shared [`StripedLoads`](crate::StripedLoads) mirror: shard workers publish
    /// their stripe as they apply (one relaxed store per placement) and
    /// refreshes are a wait-free read of all `n` cells — no full-state
    /// lock, no round-trip, no allocation.
    Striped,
}

/// Configuration of one serve run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Number of bins (cells under [`BackendKind::Multicounter`]).
    pub n: usize,
    /// Number of shards (ignored by the multicounter backend).
    pub shards: usize,
    /// Serving workers (threads in concurrent mode, virtual round-robin
    /// workers in replay mode).
    pub workers: usize,
    /// Total requests across all workers.
    pub requests: u64,
    /// The request template every client issues.
    pub request: Request,
    /// Snapshot refresh policy.
    pub staleness: Staleness,
    /// Capacity of each shard's request buffer.
    pub buffer_capacity: usize,
    /// Optional in-flight limit across all workers (`None` = unlimited).
    pub inflight: Option<usize>,
    /// The authoritative load store.
    pub backend: BackendKind,
    /// How concurrent-mode snapshot refreshes read the sharded loads.
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
        let shards = (self.backend == BackendKind::Sharded).then_some(self.shards);
        validate_shape(self.n, shards, self.workers, self.staleness);
        assert!(self.buffer_capacity > 0, "buffer capacity must be positive");
        assert!(
            self.inflight != Some(0),
            "in-flight limit must be positive (use None for unlimited)"
        );
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
    /// Requests shed by the load-shed layer (buffer full / at capacity).
    pub shed: u64,
    /// Sheds attributed to a full shard buffer — the per-cause split of
    /// [`shed`](Self::shed) (the causes always sum to it).
    pub shed_buffer_full: u64,
    /// Sheds attributed to the in-flight limit.
    pub shed_at_capacity: u64,
    /// Snapshot refreshes summed over workers.
    pub refreshes: u64,
    /// Wall-clock time of the closed loop.
    pub elapsed: Duration,
    /// Requests per second over the closed loop (allocated + shed).
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

/// The multicounter backend's sink (both modes): applies are `fetch_add`s
/// on the shared counter, refreshes scan the cells.
impl LoadSink for Arc<MultiCounter> {
    fn apply(&mut self, bin: usize) -> Result<(), ServeError> {
        self.bump(bin);
        Ok(())
    }

    fn refresh(&mut self, snapshot: &mut [u64]) -> Result<(), ServeError> {
        self.cells_into(snapshot);
        Ok(())
    }
}

/// Runs the closed-loop **concurrent** engine: `workers` threads hammer
/// the layered service as fast as they can until the request budget is
/// spent, then the shard workers are drained and joined and the outcome
/// is measured on the reassembled authoritative state.
///
/// Totals are exact (`allocated + shed == requests`, and the final state
/// holds exactly `allocated` balls); the decision stream is *not*
/// deterministic — that is [`run_replay`]'s contract.
///
/// # Panics
///
/// Panics on an invalid configuration (zero bins/workers/capacity,
/// `shards ∉ 1..=n`) or if a worker hits a non-shed failure.
///
/// # Examples
///
/// ```
/// use balloc_serve::{run_concurrent, ServeConfig};
///
/// let outcome = run_concurrent(&ServeConfig::demo(64, 4, 7));
/// assert_eq!(outcome.allocated + outcome.shed, outcome.requests);
/// ```
#[must_use]
pub fn run_concurrent(cfg: &ServeConfig) -> ServeOutcome {
    cfg.validate();
    match cfg.backend {
        BackendKind::Sharded => {
            let cluster = ShardCluster::spawn(cfg.n, cfg.shards, cfg.buffer_capacity, cfg.snapshot);
            closed_loop(cfg, cluster.handle(), || cluster.join())
        }
        BackendKind::Multicounter => {
            let counter = Arc::new(MultiCounter::new(cfg.n));
            closed_loop(cfg, Arc::clone(&counter), || {
                LoadState::from_loads(counter.cells())
            })
        }
    }
}

/// [`run_concurrent`] over one sink: fans the worker loops out over the
/// work-stealing pool, times them, folds their ledgers, drops the sink
/// and reads the final loads with `state`.
fn closed_loop<K>(cfg: &ServeConfig, sink: K, state: impl FnOnce() -> LoadState) -> ServeOutcome
where
    K: LoadSink + Clone + Sync,
{
    let clock = ServeClock::new();
    // No explicit limit ⇒ one permit per worker, which can never bind
    // (each closed-loop worker has at most one request in flight).
    let permits = Permits::new(cfg.inflight.unwrap_or(cfg.workers));
    let shed = ShedCounter::new();
    // balloc-lint: allow(L002): real-throughput measurement only — the
    // elapsed Duration is reported, never fed into allocation decisions.
    let start = Instant::now();
    let workers = workpool::par_map_indexed(cfg.workers, cfg.workers, |w| {
        let alloc = SnapshotAllocator::for_worker(cfg.n, cfg.staleness, cfg.seed, w);
        let leaf = SnapshotService::new(alloc, sink.clone(), clock.clone());
        let limited = InFlightLimitLayer::new(permits.clone()).layer(leaf);
        let mut stack = LoadShedLayer::new(shed.clone()).layer(limited);
        let mut ledger = Ledger::default();
        for _ in 0..worker_share(cfg.requests, cfg.workers, w) {
            let _ = ledger.record(stack.call(cfg.request));
        }
        (ledger, stack.into_inner().into_inner().refreshes())
    });
    let elapsed = start.elapsed();
    drop(sink);
    let mut ledger = Ledger::default();
    let mut refreshes = 0;
    for (worker, worker_refreshes) in workers {
        ledger += worker;
        refreshes += worker_refreshes;
    }
    finish(cfg, &ledger, refreshes, elapsed, &shed, &state())
}

/// Checks the run's ledger against the final state and measures the
/// [`ServeOutcome`].
fn finish(
    cfg: &ServeConfig,
    ledger: &Ledger,
    refreshes: u64,
    elapsed: Duration,
    shed: &ShedCounter,
    state: &LoadState,
) -> ServeOutcome {
    ledger.check(cfg.requests, state.balls(), shed);
    let secs = elapsed.as_secs_f64();
    ServeOutcome {
        requests: cfg.requests,
        allocated: ledger.allocated,
        shed: ledger.shed,
        shed_buffer_full: shed.buffer_full(),
        shed_at_capacity: shed.at_capacity(),
        refreshes,
        elapsed,
        throughput_rps: if secs > 0.0 { cfg.requests as f64 / secs } else { 0.0 },
        gap: state.gap(),
        max_load: state.max_load(),
    }
}

/// Runs the **deterministic replay** engine: the same per-worker decision
/// states as [`run_concurrent`] (same seeds, same serving step), but
/// interleaved round-robin on the calling thread by the crate's one
/// driver, over a direct store, so the decision stream — and therefore
/// the digest, the final loads, the gap, and every count — is a pure
/// function of the configuration and seed.
///
/// This is the serving layer's extension of the workspace determinism
/// contract: run it twice at the same seed and compare
/// [`ReplayOutcome::digest`] bit for bit.
///
/// # Panics
///
/// Panics on an invalid configuration, like [`run_concurrent`].
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
    match cfg.backend {
        BackendKind::Sharded => replay(cfg, DirectCluster::new(cfg.n, cfg.shards), |store| {
            store.state()
        }),
        BackendKind::Multicounter => replay(cfg, Arc::new(MultiCounter::new(cfg.n)), |counter| {
            LoadState::from_loads(counter.cells())
        }),
    }
}

/// [`run_replay`] over one direct sink; `state` reads its final loads.
/// Every request completes (direct sinks never reject), so slot `t`
/// serves at clock `t`.
fn replay<K: LoadSink>(
    cfg: &ServeConfig,
    mut sink: K,
    state: impl FnOnce(K) -> LoadState,
) -> ReplayOutcome {
    let mut workers: Vec<SnapshotAllocator> = (0..cfg.workers)
        .map(|w| SnapshotAllocator::for_worker(cfg.n, cfg.staleness, cfg.seed, w))
        .collect();
    let mut digest = Fnv1a::new();
    // balloc-lint: allow(L002): wall-clock timing of the replay itself;
    // the decision digest never reads it.
    let start = Instant::now();
    let ledger = drive(&mut workers, cfg.requests, |t, ledger, alloc| {
        let served = alloc.serve(&cfg.request, t, &mut sink);
        if let Ok(resp) = ledger.record(served.map(|bin| Response { bin })) {
            digest.write_u64(resp.bin as u64);
        }
    });
    let elapsed = start.elapsed();
    let refreshes = workers.iter().map(SnapshotAllocator::refreshes).sum();
    let outcome = finish(
        cfg,
        &ledger,
        refreshes,
        elapsed,
        &ShedCounter::new(),
        &state(sink),
    );
    ReplayOutcome {
        outcome,
        digest: digest.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::NoiseMode;

    #[test]
    fn concurrent_conserves_every_request() {
        let mut cfg = ServeConfig::demo(64, 4, 3);
        cfg.workers = 4;
        let outcome = run_concurrent(&cfg);
        assert_eq!(outcome.allocated + outcome.shed, outcome.requests);
        assert_eq!(outcome.requests, cfg.requests);
        assert!(outcome.refreshes >= cfg.workers as u64, "each worker primes once");
    }

    #[test]
    fn concurrent_multicounter_backend_counts_exactly() {
        let mut cfg = ServeConfig::demo(32, 1, 5);
        cfg.backend = BackendKind::Multicounter;
        cfg.workers = 4;
        let outcome = run_concurrent(&cfg);
        // The counter sink never sheds: every request lands.
        assert_eq!(outcome.allocated, cfg.requests);
        assert_eq!(outcome.shed, 0);
    }

    #[test]
    fn striped_snapshot_path_conserves_every_request() {
        let mut cfg = ServeConfig::demo(64, 4, 3);
        cfg.workers = 4;
        cfg.snapshot = SnapshotPath::Striped;
        let outcome = run_concurrent(&cfg);
        // Same conservation contract as the buffered path: the mirror is
        // read-only advice, the authoritative shard states still absorb
        // every allocated ball (re-asserted inside `finish`).
        assert_eq!(outcome.allocated + outcome.shed, outcome.requests);
        assert!(outcome.refreshes >= cfg.workers as u64, "each worker primes once");
    }

    #[test]
    fn replay_ignores_the_snapshot_path() {
        // Replay reads shards directly (DirectCluster) in both cases: the
        // concurrent-only mirror must not leak into the deterministic
        // decision stream.
        let mut buffered = ServeConfig::demo(64, 4, 9);
        buffered.snapshot = SnapshotPath::Buffered;
        let mut striped = buffered;
        striped.snapshot = SnapshotPath::Striped;
        let a = run_replay(&buffered);
        let b = run_replay(&striped);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.outcome.gap, b.outcome.gap);
    }

    #[test]
    fn replay_is_bit_identical_across_runs() {
        for backend in [BackendKind::Sharded, BackendKind::Multicounter] {
            let mut cfg = ServeConfig::demo(64, 4, 11);
            cfg.backend = backend;
            cfg.workers = 3;
            let a = run_replay(&cfg);
            let b = run_replay(&cfg);
            assert_eq!(a.digest, b.digest, "{backend:?}");
            assert_eq!(a.outcome.gap, b.outcome.gap);
            assert_eq!(a.outcome.max_load, b.outcome.max_load);
            assert_eq!(a.outcome.allocated, b.outcome.allocated);
        }
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
    fn tiny_inflight_limit_sheds_under_contention() {
        // With 4 threads and a single permit, some calls must collide and
        // shed; totals still conserve.
        let mut cfg = ServeConfig::demo(64, 2, 29);
        cfg.workers = 4;
        cfg.inflight = Some(1);
        let outcome = run_concurrent(&cfg);
        assert_eq!(outcome.allocated + outcome.shed, outcome.requests);
    }

    #[test]
    fn per_cause_shed_split_preserves_pr5_conservation() {
        // Regression for the ShedCounter per-cause split: the original
        // conservation assertions (allocated + shed == requests, the
        // layer counter agrees with the per-worker tallies, the drained
        // state holds every allocated ball — all re-asserted inside
        // `finish`) must hold unchanged, and the new cause counters must
        // sum to the old total.
        let mut cfg = ServeConfig::demo(64, 2, 29);
        cfg.workers = 4;
        cfg.inflight = Some(1);
        let outcome = run_concurrent(&cfg);
        assert_eq!(outcome.allocated + outcome.shed, outcome.requests);
        assert_eq!(
            outcome.shed_buffer_full + outcome.shed_at_capacity,
            outcome.shed,
            "per-cause counters must sum to the total shed count"
        );
    }

    #[test]
    fn delay_staleness_serves_end_to_end() {
        let mut cfg = ServeConfig::demo(64, 2, 31);
        cfg.staleness = Staleness::Delay { tau: 64 };
        let replay = run_replay(&cfg);
        assert_eq!(replay.outcome.allocated, cfg.requests);
        assert!(replay.outcome.refreshes > cfg.workers as u64);
        let live = run_concurrent(&cfg);
        assert_eq!(live.allocated + live.shed, cfg.requests);
    }

    #[test]
    #[should_panic(expected = "shards must lie in 1..=n")]
    fn invalid_shard_count_rejected() {
        let cfg = ServeConfig::demo(4, 8, 0);
        let _ = run_concurrent(&cfg);
    }

    #[test]
    #[should_panic(expected = "in-flight limit must be positive")]
    fn zero_inflight_limit_rejected() {
        // Regression: Some(0) used to be silently clamped to a limit of
        // 1, serving everything instead of surfacing the misconfiguration.
        let mut cfg = ServeConfig::demo(8, 2, 0);
        cfg.inflight = Some(0);
        let _ = run_concurrent(&cfg);
    }
}
