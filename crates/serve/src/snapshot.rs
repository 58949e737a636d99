//! Per-worker load snapshots and their refresh policies.
//!
//! A serving worker never reads the authoritative store on the decision
//! path: it decides against a private snapshot of all `n` bin loads and
//! refreshes that snapshot on a [`Staleness`] schedule. The two schedules
//! are the paper's two information models, and its theorems are exactly
//! the price list for the refresh knob:
//!
//! * [`Staleness::Batch`] — refresh every `b` *own* requests (`b-Batch`).
//!   For `b ⩾ n log n` the gap is `Θ(b/n)` ([Tower of Two Choices],
//!   Theorem 1.1 tight bounds); for `n ⩽ b ⩽ n log n` it is
//!   `Θ(log n / log((4n/b)·log n))` (the source paper, Theorem 2.5 /
//!   Corollary 10.4).
//! * [`Staleness::Delay`] — refresh once the snapshot is `τ` global
//!   requests old (`τ-Delay`). For `τ ⩽ n` the gap stays
//!   `O(log n / log(n/τ) + log n / log log n)` (Theorem 2.4), collapsing
//!   to the noiseless `Θ(log log n)` for `τ = O(n/polylog n)`.

use balloc_core::Rng;

use crate::service::{decide, NoiseMode, Request, ServeError};
use crate::sink::LoadSink;

/// Candidate draws [`SnapshotAllocator::decide_run`] fills and scans per
/// pass. It bounds the allocator's scratch to one pass (8 KiB of draws),
/// whatever `d` and run length a peer asks for.
const DRAWS_PER_PASS: usize = 1024;

/// When a worker's snapshot is refreshed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Staleness {
    /// Refresh after every `b` requests served by this worker — the
    /// `b-Batch` regime (with global batch size ≈ `b · workers`).
    Batch {
        /// Requests between refreshes.
        b: u64,
    },
    /// Refresh once the snapshot is at least `tau` global requests old —
    /// the `τ-Delay` regime.
    Delay {
        /// Maximum snapshot age in requests (the engine's clock unit).
        tau: u64,
    },
}

impl Staleness {
    /// Asserts the parameter is usable (`b`/`τ` must be positive).
    ///
    /// # Panics
    ///
    /// Panics if `b` or `τ` is zero.
    pub fn validate(self) {
        match self {
            Self::Batch { b } => assert!(b > 0, "batch size b must be positive"),
            Self::Delay { tau } => assert!(tau > 0, "delay tau must be positive"),
        }
    }
}

impl std::fmt::Display for Staleness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Batch { b } => write!(f, "b-Batch(b={b})"),
            Self::Delay { tau } => write!(f, "tau-Delay(tau={tau})"),
        }
    }
}

/// A worker's decision state: the private snapshot, its RNG stream, and
/// the refresh bookkeeping.
///
/// The decision sequence of a `SnapshotAllocator` is a pure function of
/// `(n, staleness, seed, request sequence, refresh timings)` — the
/// replay engine pins the last input by running single-threaded, which is
/// what makes replayed decision streams bit-identical across runs.
#[derive(Debug, Clone)]
pub struct SnapshotAllocator {
    snapshot: Vec<u64>,
    rng: Rng,
    staleness: Staleness,
    /// Requests decided since the last refresh (`Batch` bookkeeping).
    since_refresh: u64,
    /// Global clock value at the last refresh (`Delay` bookkeeping).
    snapped_at: u64,
    /// Whether a refresh has happened at all (the first request must
    /// always refresh: a zeroed snapshot is not a reading of anything).
    primed: bool,
    refreshes: u64,
    /// The store's mark for the snapshot's last catch-up (see
    /// [`LoadSink::catch_up`]); `None` once anything else wrote it.
    mark: Option<u64>,
    /// Candidate scratch for [`decide_run`](Self::decide_run) — kept on
    /// the allocator so block dispatch allocates nothing per block, and
    /// never longer than [`DRAWS_PER_PASS`].
    scratch: Vec<u64>,
}

impl SnapshotAllocator {
    /// Creates a worker decision state over `n` bins.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the staleness parameter is zero.
    #[must_use]
    pub fn new(n: usize, staleness: Staleness, seed: u64) -> Self {
        assert!(n > 0, "need at least one bin");
        staleness.validate();
        Self {
            snapshot: vec![0; n],
            rng: Rng::from_seed(seed),
            staleness,
            since_refresh: 0,
            snapped_at: 0,
            primed: false,
            refreshes: 0,
            mark: None,
            scratch: Vec::new(),
        }
    }

    /// Whether the snapshot must be refreshed before serving the next
    /// request, given the engine clock (total requests completed).
    #[must_use]
    pub fn needs_refresh(&self, now: u64) -> bool {
        if !self.primed {
            return true;
        }
        match self.staleness {
            Staleness::Batch { b } => self.since_refresh >= b,
            Staleness::Delay { tau } => now.saturating_sub(self.snapped_at) >= tau,
        }
    }

    /// The snapshot buffer, for a refresh to overwrite. The next
    /// catch-up copies all `n` loads, whatever was written here.
    pub fn snapshot_mut(&mut self) -> &mut [u64] {
        self.mark = None;
        &mut self.snapshot
    }

    /// The snapshot decisions read.
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> &[u64] {
        &self.snapshot
    }

    /// Brings the snapshot up to date from `sink`, copying only what
    /// changed since the last catch-up when the sink can tell.
    pub(crate) fn catch_up(&mut self, sink: &mut impl LoadSink) -> Result<(), ServeError> {
        self.mark = sink.catch_up(&mut self.snapshot, self.mark.take())?;
        Ok(())
    }

    /// Records that the snapshot was just refreshed at clock `now`.
    pub fn note_refresh(&mut self, now: u64) {
        self.primed = true;
        self.since_refresh = 0;
        self.snapped_at = now;
        self.refreshes += 1;
    }

    /// Number of refreshes performed.
    #[must_use]
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Decides the bin for one request against the current snapshot.
    #[must_use]
    pub fn decide(&mut self, req: &Request) -> usize {
        self.since_refresh += 1;
        decide(&self.snapshot, req, &mut self.rng)
    }

    /// How many more decisions this worker can make before
    /// [`needs_refresh`](Self::needs_refresh) turns true, assuming the
    /// clock advances by one per own decision — the single-threaded
    /// block-dispatch regime of the TCP front-end. `0` means a refresh is
    /// due right now.
    #[must_use]
    pub fn until_refresh(&self, now: u64) -> u64 {
        if !self.primed {
            return 0;
        }
        match self.staleness {
            Staleness::Batch { b } => b.saturating_sub(self.since_refresh),
            Staleness::Delay { tau } => tau.saturating_sub(now.saturating_sub(self.snapped_at)),
        }
    }

    /// Decides `run` consecutive requests against the current snapshot in
    /// one block, appending the chosen bins to `out` — **bit-identical**
    /// to `run` successive [`decide`](Self::decide) calls (same RNG
    /// consumption, same tie-breaks), but fed in batched-engine style: the
    /// `d·run` candidate draws fill in [`Rng::fill_below`] passes of at
    /// most 1 024 draws, and a tight branch-friendly tournament scans the
    /// snapshot after each pass; a request's `d` draws may span passes.
    /// The caller guarantees no refresh is due inside the run (see
    /// [`until_refresh`](Self::until_refresh)).
    ///
    /// [`NoiseMode::Noisy`] requests interleave Gaussian draws with
    /// candidate draws, so they fall back to the per-request path —
    /// stream-compatible by construction.
    ///
    /// # Panics
    ///
    /// Panics if `req.d == 0`.
    pub fn decide_run(&mut self, req: &Request, run: usize, out: &mut Vec<usize>) {
        if matches!(req.noise, NoiseMode::Noisy { .. }) {
            for _ in 0..run {
                out.push(self.decide(req));
            }
            return;
        }
        assert!(req.d > 0, "need at least one candidate bin");
        let d = req.d;
        let n = self.snapshot.len() as u64;
        let mut left = run * d;
        // The running tournament of the current request: its best
        // candidate so far, that candidate's load (infinite before its
        // first draw), and how many of its `d` draws were scanned.
        let mut best = 0usize;
        let mut best_load = f64::INFINITY;
        let mut seen = 0usize;
        while left > 0 {
            let len = left.min(DRAWS_PER_PASS);
            left -= len;
            self.scratch.resize(len, 0);
            self.rng.fill_below(n, &mut self.scratch);
            let mut rest = &self.scratch[..];
            while !rest.is_empty() {
                let (group, tail) = rest.split_at((d - seen).min(rest.len()));
                for &candidate in group {
                    let candidate = candidate as usize;
                    // The f64 view is deliberate: it is exactly the
                    // comparison `decide` makes, so block and per-request
                    // paths tie-break identically.
                    let load = self.snapshot[candidate] as f64;
                    if load < best_load {
                        best = candidate;
                        best_load = load;
                    }
                }
                seen += group.len();
                if seen == d {
                    out.push(best);
                    best_load = f64::INFINITY;
                    seen = 0;
                }
                rest = tail;
            }
        }
        self.since_refresh += run as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_request_always_refreshes() {
        let alloc = SnapshotAllocator::new(8, Staleness::Batch { b: 1_000 }, 1);
        assert!(alloc.needs_refresh(0));
        assert!(alloc.needs_refresh(999_999));
    }

    #[test]
    fn batch_refreshes_every_b_own_requests() {
        let mut alloc = SnapshotAllocator::new(8, Staleness::Batch { b: 3 }, 1);
        alloc.note_refresh(0);
        let req = Request::two_choice();
        for i in 0..3 {
            assert!(!alloc.needs_refresh(i), "request {i} inside the batch");
            let _ = alloc.decide(&req);
        }
        assert!(alloc.needs_refresh(3), "batch exhausted");
        alloc.note_refresh(3);
        assert!(!alloc.needs_refresh(4));
        assert_eq!(alloc.refreshes(), 2);
    }

    #[test]
    fn delay_refreshes_on_snapshot_age() {
        let mut alloc = SnapshotAllocator::new(8, Staleness::Delay { tau: 10 }, 1);
        alloc.note_refresh(5);
        assert!(!alloc.needs_refresh(5));
        assert!(!alloc.needs_refresh(14));
        assert!(alloc.needs_refresh(15));
        // A clock that appears to run backwards (another worker's refresh
        // raced ours) saturates instead of wrapping.
        assert!(!alloc.needs_refresh(0));
    }

    #[test]
    fn decide_reads_the_snapshot_not_the_world() {
        let mut alloc = SnapshotAllocator::new(2, Staleness::Batch { b: 100 }, 7);
        alloc.snapshot_mut().copy_from_slice(&[50, 0]);
        alloc.note_refresh(0);
        let req = Request {
            d: 4,
            ..Request::two_choice()
        };
        for _ in 0..20 {
            assert_eq!(alloc.decide(&req), 1, "must chase the snapshot's empty bin");
        }
    }

    #[test]
    fn decide_run_scratch_stays_bounded_at_the_widest_d() {
        // A peer may ask for d = 65 535 in a 64-deep window: the scratch
        // must stay at one pass, and the bins must still equal 64
        // successive `decide` calls.
        let n = 1_000;
        let loads: Vec<u64> = (0..n as u64).map(|i| (i * 7_919) % 97).collect();
        let req = Request {
            d: usize::from(u16::MAX),
            ..Request::two_choice()
        };
        let primed = || {
            let mut alloc = SnapshotAllocator::new(n, Staleness::Batch { b: 64 }, 11);
            alloc.snapshot_mut().copy_from_slice(&loads);
            alloc.note_refresh(0);
            alloc
        };
        let mut block = primed();
        let mut bins = Vec::new();
        block.decide_run(&req, 64, &mut bins);
        assert!(
            block.scratch.capacity() <= DRAWS_PER_PASS,
            "scratch grew to {} draws",
            block.scratch.capacity()
        );
        let mut single = primed();
        let expected: Vec<usize> = (0..64).map(|_| single.decide(&req)).collect();
        assert_eq!(bins, expected);
        assert_eq!(block.rng, single.rng);
        assert_eq!(block.until_refresh(64), single.until_refresh(64));
    }

    #[test]
    #[should_panic(expected = "b must be positive")]
    fn zero_batch_rejected() {
        let _ = SnapshotAllocator::new(4, Staleness::Batch { b: 0 }, 0);
    }

    #[test]
    #[should_panic(expected = "tau must be positive")]
    fn zero_tau_rejected() {
        let _ = SnapshotAllocator::new(4, Staleness::Delay { tau: 0 }, 0);
    }

    #[test]
    fn staleness_displays() {
        assert_eq!(Staleness::Batch { b: 64 }.to_string(), "b-Batch(b=64)");
        assert_eq!(Staleness::Delay { tau: 9 }.to_string(), "tau-Delay(tau=9)");
    }
}
