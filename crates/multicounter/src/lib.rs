//! A relaxed concurrent **multi-counter** built on two-choice balanced
//! allocation.
//!
//! This is the application that motivated the `g-Bounded` process: the
//! distributed multi-counter data structure of Alistarh et al. (\[3\]) and
//! Nadiradze (\[44\]), cited by the paper as the direct beneficiary of its
//! tighter `g-Adv-Comp` bounds. A counter is striped across `w` atomic
//! cells; an increment samples two cells and bumps the one that *looks*
//! smaller. Under concurrency (or with deliberately cached reads) the
//! comparison uses stale values — exactly the paper's noisy/delayed
//! comparison settings — and the theory bounds the *quality* of the
//! structure: the gap between the fullest cell and the average.
//!
//! Two usage models are provided:
//!
//! * [`MultiCounter::increment`] — reads both cells at increment time;
//!   staleness comes only from racing threads (the `τ-Delay` regime with
//!   τ ≈ #threads);
//! * [`CachedHandle`] — each thread refreshes a private snapshot every `R`
//!   operations (the `b-Batch` regime with `b ≈ R·#threads`).
//!
//! # Examples
//!
//! ```
//! use balloc_multicounter::MultiCounter;
//! use balloc_core::Rng;
//!
//! let counter = MultiCounter::new(8);
//! let mut rng = Rng::from_seed(1);
//! for _ in 0..8_000 {
//!     counter.increment(&mut rng);
//! }
//! assert_eq!(counter.value(), 8_000);
//! // Two-choice keeps the stripes balanced: max − avg stays tiny.
//! assert!(counter.quality() < 8.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicU64, Ordering};

use balloc_core::Rng;

/// One counter cell, aligned to 128 bytes so adjacent cells never share a
/// cache line: x86-64 prefetches lines in pairs, and Apple/ARM big cores
/// use 128-byte lines. Without it, threads bumping neighbouring cells
/// would contend on one line.
#[derive(Debug)]
#[repr(align(128))]
struct PaddedCell(AtomicU64);

impl std::ops::Deref for PaddedCell {
    type Target = AtomicU64;
    fn deref(&self) -> &AtomicU64 {
        &self.0
    }
}

/// A counter striped over `w` cache-padded atomic cells, incremented with
/// the power of two choices.
#[derive(Debug)]
pub struct MultiCounter {
    cells: Box<[PaddedCell]>,
}

impl MultiCounter {
    /// Creates a multi-counter with `width` cells.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    #[must_use]
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "width must be positive");
        let cells = (0..width)
            .map(|_| PaddedCell(AtomicU64::new(0)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self { cells }
    }

    /// The number of cells.
    #[must_use]
    pub fn width(&self) -> usize {
        self.cells.len()
    }

    /// Increments the counter: sample two cells, read both, bump the one
    /// that appears smaller (ties keep the first sample).
    ///
    /// Under concurrent use the two reads may be stale by the time the
    /// increment lands — this is precisely the noisy-comparison regime the
    /// paper analyses, and its theorems bound the resulting
    /// [`quality`](Self::quality).
    pub fn increment(&self, rng: &mut Rng) {
        let w = self.cells.len();
        let i1 = rng.below_usize(w);
        let i2 = rng.below_usize(w);
        let x1 = self.cells[i1].load(Ordering::Relaxed);
        let x2 = self.cells[i2].load(Ordering::Relaxed);
        let target = if x2 < x1 { i2 } else { i1 };
        self.cells[target].fetch_add(1, Ordering::Relaxed);
    }

    /// Increments a *single* random cell (the `One-Choice` baseline, for
    /// quality comparisons).
    pub fn increment_single(&self, rng: &mut Rng) {
        let i = rng.below_usize(self.cells.len());
        self.cells[i].fetch_add(1, Ordering::Relaxed);
    }

    /// The counter value: the sum of all cells.
    ///
    /// Under concurrent increments the result is a snapshot sum (each cell
    /// read once, in order).
    #[must_use]
    pub fn value(&self) -> u64 {
        self.cells.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// A snapshot of the per-cell values.
    #[must_use]
    pub fn cells(&self) -> Vec<u64> {
        self.cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Copies a snapshot of the per-cell values into `dst` (each cell read
    /// once, in order) without allocating — the refresh path of serving
    /// front-ends that treat the counter as a load backend.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != width`.
    pub fn cells_into(&self, dst: &mut [u64]) {
        assert_eq!(
            dst.len(),
            self.cells.len(),
            "snapshot buffer width mismatch"
        );
        for (slot, cell) in dst.iter_mut().zip(self.cells.iter()) {
            *slot = cell.load(Ordering::Relaxed);
        }
    }

    /// Increments cell `cell` directly, with the target chosen by the
    /// caller — the backend hook for external two-choice policies (e.g. a
    /// serving front-end deciding against its own stale snapshot) as
    /// opposed to [`increment`](Self::increment)'s built-in rule.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= width`.
    pub fn bump(&self, cell: usize) {
        self.cells[cell].fetch_add(1, Ordering::Relaxed);
    }

    /// The quality of the structure: `max cell − average cell` — the
    /// balanced-allocations *gap* of the stripe loads. Smaller is better;
    /// the paper's `g-Adv-Comp`/`τ-Delay` theorems bound it.
    #[must_use]
    pub fn quality(&self) -> f64 {
        let snapshot = self.cells();
        let max = *snapshot.iter().max().expect("width > 0") as f64;
        let avg = snapshot.iter().sum::<u64>() as f64 / snapshot.len() as f64;
        max - avg
    }

    /// Creates a per-thread handle whose reads come from a private
    /// snapshot refreshed every `refresh_every` increments — the `b-Batch`
    /// regime.
    ///
    /// # Panics
    ///
    /// Panics if `refresh_every == 0`.
    #[must_use]
    pub fn cached_handle(&self, refresh_every: usize, seed: u64) -> CachedHandle<'_> {
        assert!(refresh_every > 0, "refresh interval must be positive");
        CachedHandle {
            counter: self,
            snapshot: self.cells(),
            ops: 0,
            refresh_every,
            rng: Rng::from_seed(seed),
        }
    }
}

/// A per-thread increment handle with batched (stale) reads.
///
/// See [`MultiCounter::cached_handle`].
#[derive(Debug)]
pub struct CachedHandle<'a> {
    counter: &'a MultiCounter,
    snapshot: Vec<u64>,
    ops: usize,
    refresh_every: usize,
    rng: Rng,
}

impl CachedHandle<'_> {
    /// Increments the shared counter, comparing against the private
    /// snapshot (refreshing it first every `refresh_every` operations).
    pub fn increment(&mut self) {
        if self.ops.is_multiple_of(self.refresh_every) {
            self.snapshot = self.counter.cells();
        }
        self.ops += 1;
        let w = self.snapshot.len();
        let i1 = self.rng.below_usize(w);
        let i2 = self.rng.below_usize(w);
        let target = if self.snapshot[i2] < self.snapshot[i1] {
            i2
        } else {
            i1
        };
        // Track our own increments in the snapshot so a thread running
        // alone behaves like b-Batch rather than drifting arbitrarily.
        self.snapshot[target] += 1;
        self.counter.cells[target].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of increments performed through this handle.
    #[must_use]
    pub fn operations(&self) -> usize {
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_rejected() {
        let _ = MultiCounter::new(0);
    }

    #[test]
    fn sequential_increments_are_exact() {
        let c = MultiCounter::new(4);
        let mut rng = Rng::from_seed(0);
        for _ in 0..1000 {
            c.increment(&mut rng);
        }
        assert_eq!(c.value(), 1000);
        assert_eq!(c.cells().iter().sum::<u64>(), 1000);
    }

    #[test]
    fn two_choice_quality_beats_single() {
        let w = 64;
        let ops = 64_000;
        let two = MultiCounter::new(w);
        let one = MultiCounter::new(w);
        let mut rng = Rng::from_seed(42);
        for _ in 0..ops {
            two.increment(&mut rng);
        }
        let mut rng = Rng::from_seed(42);
        for _ in 0..ops {
            one.increment_single(&mut rng);
        }
        assert!(
            two.quality() < one.quality(),
            "two-choice quality {} should beat one-choice {}",
            two.quality(),
            one.quality()
        );
        assert!(two.quality() < 6.0);
    }

    #[test]
    fn concurrent_increments_preserve_total() {
        let c = MultiCounter::new(32);
        let threads = 8;
        let per_thread = 20_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let c = &c;
                scope.spawn(move || {
                    let mut rng = Rng::from_seed(1000 + t);
                    for _ in 0..per_thread {
                        c.increment(&mut rng);
                    }
                });
            }
        });
        assert_eq!(c.value(), threads * per_thread);
        // Quality stays modest despite concurrent stale reads (τ-Delay
        // with τ ≈ #threads ⇒ small gap; generous bound).
        assert!(
            c.quality() < 30.0,
            "concurrent quality blew up: {}",
            c.quality()
        );
    }

    #[test]
    fn cached_handles_model_batching() {
        let c = MultiCounter::new(16);
        let mut h = c.cached_handle(64, 7);
        for _ in 0..16_000 {
            h.increment();
        }
        assert_eq!(h.operations(), 16_000);
        assert_eq!(c.value(), 16_000);
        // b-Batch with b = 64 ⩾ w: quality stays bounded by the
        // Θ(log w / log((4w/b)·log w)) law; generous band.
        assert!(c.quality() < 25.0, "cached quality: {}", c.quality());
    }

    #[test]
    fn concurrent_cached_handles_preserve_total() {
        let c = MultiCounter::new(16);
        let threads = 4;
        let per_thread = 10_000usize;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let c = &c;
                scope.spawn(move || {
                    let mut h = c.cached_handle(128, 55 + t as u64);
                    for _ in 0..per_thread {
                        h.increment();
                    }
                });
            }
        });
        assert_eq!(c.value(), (threads * per_thread) as u64);
        assert!(c.quality() < 60.0);
    }

    #[test]
    #[should_panic(expected = "refresh interval")]
    fn zero_refresh_rejected() {
        let c = MultiCounter::new(2);
        let _ = c.cached_handle(0, 0);
    }

    #[test]
    fn bump_and_cells_into_agree_with_cells() {
        let c = MultiCounter::new(6);
        for cell in [0usize, 3, 3, 5] {
            c.bump(cell);
        }
        assert_eq!(c.value(), 4);
        let mut snapshot = vec![0; 6];
        c.cells_into(&mut snapshot);
        assert_eq!(snapshot, c.cells());
        assert_eq!(snapshot, [1, 0, 0, 2, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn cells_into_rejects_wrong_width() {
        let c = MultiCounter::new(4);
        let mut dst = vec![0; 3];
        c.cells_into(&mut dst);
    }

    #[test]
    fn quality_of_fresh_counter_is_zero() {
        let c = MultiCounter::new(5);
        assert_eq!(c.quality(), 0.0);
        assert_eq!(c.value(), 0);
        assert_eq!(c.width(), 5);
    }
}
