//! Multi-threaded stress suite for [`MultiCounter`].
//!
//! The harness hammers a counter from several threads with mixed traffic
//! — direct [`MultiCounter::increment`]s (the `τ-Delay` regime),
//! [`CachedHandle`]s (the `b-Batch` regime), and externally decided
//! [`MultiCounter::bump`]s (the serving-backend hook) — then asserts the
//! two properties the structure promises:
//!
//! * **exactness**: `value()` equals the number of increments issued
//!   (relaxed atomics lose nothing);
//! * **quality**: `max cell − average` stays bounded, tracking the
//!   paper's `b-Batch`/`τ-Delay` gap laws rather than drifting.
//!
//! The serve crate's stress suite (`crates/serve/tests/stress.rs`) drives
//! the same traffic shape through the sharded service stack, so the two
//! suites exercise the same contract at both API levels.

use balloc_core::rng::run_seed;
use balloc_core::Rng;
use balloc_multicounter::MultiCounter;

/// One thread's worth of mixed traffic: direct two-choice increments,
/// cached-handle increments, and snapshot-decided bumps, interleaved.
fn hammer(counter: &MultiCounter, ops: usize, seed: u64) -> u64 {
    let mut rng = Rng::from_seed(seed);
    let mut handle = counter.cached_handle(64, run_seed(seed, 1));
    let w = counter.width();
    let mut issued = 0u64;
    for i in 0..ops {
        match i % 3 {
            0 => counter.increment(&mut rng),
            1 => handle.increment(),
            _ => {
                // An externally decided two-choice against a one-off
                // snapshot read — the serve backend's apply path.
                let (i1, i2) = (rng.below_usize(w), rng.below_usize(w));
                let cells = counter.cells();
                counter.bump(if cells[i2] < cells[i1] { i2 } else { i1 });
            }
        }
        issued += 1;
    }
    issued
}

#[test]
fn concurrent_mixed_traffic_is_exact_and_balanced() {
    let width = 32;
    let threads = 4;
    let ops = 30_000usize;
    let counter = MultiCounter::new(width);
    let issued: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let counter = &counter;
                scope.spawn(move || hammer(counter, ops, 7_000 + t as u64))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("no panics"))
            .sum()
    });
    assert_eq!(issued, (threads * ops) as u64);
    assert_eq!(
        counter.value(),
        issued,
        "relaxed increments must not lose counts"
    );
    assert_eq!(counter.cells().iter().sum::<u64>(), issued);
    // Quality: every traffic class is some noisy two-choice, so the gap
    // stays far below the One-Choice √(ops·ln w / w) drift. Generous
    // band: the b-Batch law at b = 64·threads over 32 cells is O(10).
    let quality = counter.quality();
    assert!(
        quality < 75.0,
        "stressed quality blew up: {quality} over {issued} increments"
    );
}

#[test]
fn readers_racing_writers_see_consistent_snapshots() {
    // cells_into / value / quality run concurrently with writers: every
    // intermediate read must be internally sane (no torn totals, no
    // snapshot larger than the issue count so far can explain).
    let width = 16;
    let counter = MultiCounter::new(width);
    let writers = 3;
    let ops = 20_000usize;
    let cap = (writers * ops) as u64;
    std::thread::scope(|scope| {
        for t in 0..writers {
            let counter = &counter;
            scope.spawn(move || {
                let mut rng = Rng::from_seed(31 + t as u64);
                for _ in 0..ops {
                    counter.increment(&mut rng);
                }
            });
        }
        let counter = &counter;
        scope.spawn(move || {
            let mut snapshot = vec![0u64; width];
            let mut last_total = 0u64;
            for _ in 0..2_000 {
                counter.cells_into(&mut snapshot);
                let total: u64 = snapshot.iter().sum();
                assert!(total <= cap, "snapshot counted {total} > {cap} issued");
                assert!(
                    total + width as u64 >= last_total,
                    "totals moved backwards beyond read skew: {last_total} -> {total}"
                );
                last_total = total;
                assert!(counter.quality().is_finite());
            }
        });
    });
    assert_eq!(counter.value(), cap);
}
