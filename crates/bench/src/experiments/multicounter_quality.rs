//! Ablation **A5**: quality of the relaxed concurrent multi-counter under
//! contention.
//!
//! The paper cites the multi-counter of \[3, 44\] as the application of its
//! `g-Adv-Comp` bounds. This experiment measures the structure's quality
//! (max cell − average cell) across thread counts and snapshot-refresh
//! intervals, alongside the `b-Batch` theory term with `b = threads ·
//! refresh`.

use balloc_analysis::bounds::batch_gap;
use balloc_core::Rng;
use balloc_multicounter::MultiCounter;
use balloc_sim::{OutputSink, Report, TextTable};
use serde::Serialize;

use crate::{emit_header, experiment_seed, fmt3, BenchError, CommonArgs, FlagKind, FlagSpec};

use super::Experiment;

#[derive(Serialize)]
struct QualityPoint {
    threads: u64,
    refresh: usize,
    quality: f64,
    theory_term: f64,
}

#[derive(Serialize)]
struct MulticounterQualityArtifact {
    scale: String,
    width: usize,
    increments: u64,
    live_reads: Vec<QualityPoint>,
    cached_reads: Vec<QualityPoint>,
}

/// Per-handle RNG seed for one cell of the quality grid.
///
/// The arm (`live`/`refresh`) and the cell parameter (thread count or
/// refresh interval) fold into the tagged [`experiment_seed`], and the
/// handle index then passes through the [`point_seed`] mixer's full
/// avalanche. The naive `experiment_seed(tag) + t` this replaces is the
/// same bug class as PR 2's sweep `base + j` fix: sequentially derived
/// seeds made handle `t + 1` of one cell reuse handle `t`'s neighbouring
/// seed, and every cell of an arm reused the *identical* handle streams
/// (all four thread counts shared thread 0's stream, all four refresh
/// intervals shared the same four streams) — silently correlating grid
/// cells that the quality comparison treats as independent.
fn handle_seed(arm: &str, cell: u64, master: u64, t: u64) -> u64 {
    use balloc_core::rng::point_seed;
    let base = experiment_seed(&format!("multicounter_quality/{arm}/{cell}"), master);
    point_seed(base, t)
}

/// `balloc multicounter_quality` — see the module docs.
pub struct MulticounterQuality;

impl Experiment for MulticounterQuality {
    fn id(&self) -> &'static str {
        "multicounter_quality"
    }

    fn paper_ref(&self) -> &'static str {
        "Ablation A5 (multi-counter application of [3], [44])"
    }

    fn description(&self) -> &'static str {
        "quality (max - avg cell) of the two-choice multi-counter under contention"
    }

    fn extra_flags(&self) -> &'static [FlagSpec] {
        &[
            FlagSpec {
                name: "--width",
                kind: FlagKind::U64,
                positive: true,
                default: "256",
                help: "number of counter cells",
            },
            FlagSpec {
                name: "--increments",
                kind: FlagKind::U64,
                positive: true,
                default: "200000",
                help: "increments per thread",
            },
        ]
    }

    fn run(&self, args: &CommonArgs, sink: &mut OutputSink) -> Result<Report, BenchError> {
        emit_header(sink, "A5", "multi-counter quality", args);

        let width = args.extras.u64("--width") as usize;
        if width < 2 {
            return Err(BenchError::Usage("--width must be at least 2".into()));
        }
        let per_thread = args.extras.u64("--increments");
        let mut live = Vec::new();
        let mut cached = Vec::new();

        // Live reads: staleness comes from racing threads (τ ≈ #threads).
        for threads in [1u64, 2, 4, 8] {
            let counter = MultiCounter::new(width);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let counter = &counter;
                    let seed = handle_seed("live", threads, args.seed, t);
                    scope.spawn(move || {
                        let mut rng = Rng::from_seed(seed);
                        for _ in 0..per_thread {
                            counter.increment(&mut rng);
                        }
                    });
                }
            });
            if counter.value() != threads * per_thread {
                return Err(BenchError::Run(format!(
                    "multi-counter lost increments: expected {}, counted {}",
                    threads * per_thread,
                    counter.value()
                )));
            }
            live.push(QualityPoint {
                threads,
                refresh: 0,
                quality: counter.quality(),
                theory_term: batch_gap(width as u64, threads.max(1)),
            });
        }

        // Cached reads: per-thread snapshots refreshed every R increments
        // (the b-Batch regime with b ≈ threads·R).
        for refresh in [16usize, 64, 256, 1024] {
            let threads = 4u64;
            let counter = MultiCounter::new(width);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let counter = &counter;
                    let seed = handle_seed("refresh", refresh as u64, args.seed, t);
                    scope.spawn(move || {
                        let mut handle = counter.cached_handle(refresh, seed);
                        for _ in 0..per_thread {
                            handle.increment();
                        }
                    });
                }
            });
            if counter.value() != threads * per_thread {
                return Err(BenchError::Run(format!(
                    "multi-counter lost increments: expected {}, counted {}",
                    threads * per_thread,
                    counter.value()
                )));
            }
            cached.push(QualityPoint {
                threads,
                refresh,
                quality: counter.quality(),
                theory_term: batch_gap(width as u64, (threads * refresh as u64).max(1)),
            });
        }

        let mut t1 = TextTable::new(vec![
            "threads (live reads)".into(),
            "quality".into(),
            "b-Batch term (b=threads)".into(),
        ]);
        for p in &live {
            t1.push_row(vec![
                p.threads.to_string(),
                fmt3(p.quality),
                fmt3(p.theory_term),
            ]);
        }
        sink.table("live_reads", t1);

        let mut t2 = TextTable::new(vec![
            "refresh (4 threads)".into(),
            "quality".into(),
            "b-Batch term (b=4*refresh)".into(),
        ]);
        for p in &cached {
            t2.push_row(vec![
                p.refresh.to_string(),
                fmt3(p.quality),
                fmt3(p.theory_term),
            ]);
        }
        sink.table("cached_reads", t2);

        sink.line(
            "expected: quality grows slowly with contention/staleness, tracking the b-Batch law.",
        );

        let artifact = MulticounterQualityArtifact {
            scale: args.scale_line(),
            width,
            increments: per_thread,
            live_reads: live,
            cached_reads: cached,
        };
        sink.blank();
        sink.save_artifact(&artifact);
        Ok(sink.take_report())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn handle_seeds_are_not_sequentially_derived() {
        // Regression signature of the pre-fix `experiment_seed(tag) + t`
        // derivation: adjacent handles of a cell got consecutive seeds.
        for t in 0..8 {
            let a = handle_seed("live", 8, 2022, t);
            let b = handle_seed("live", 8, 2022, t + 1);
            assert_ne!(b, a.wrapping_add(1), "handle {t}: seeds are sequential");
        }
    }

    #[test]
    fn handle_seeds_are_unique_across_the_whole_grid() {
        // Pre-fix, every thread-count cell of the live arm reused the
        // identical handle seeds (the tag did not include the cell), so
        // the grid's "independent" cells shared RNG streams; likewise all
        // refresh cells. Every (arm, cell, handle) triple must now get its
        // own seed.
        let mut seen = HashSet::new();
        for threads in [1u64, 2, 4, 8] {
            for t in 0..threads {
                assert!(
                    seen.insert(handle_seed("live", threads, 2022, t)),
                    "duplicate seed in live cell threads = {threads}, handle {t}"
                );
            }
        }
        for refresh in [16u64, 64, 256, 1024] {
            for t in 0..4 {
                assert!(
                    seen.insert(handle_seed("refresh", refresh, 2022, t)),
                    "duplicate seed in refresh cell {refresh}, handle {t}"
                );
            }
        }
    }

    #[test]
    fn handle_streams_are_pairwise_independent() {
        // Stream-level check: the first outputs of every handle RNG in a
        // cell (and across neighbouring master seeds) never collide — the
        // b-Batch quality comparison relies on genuinely distinct streams.
        let mut firsts = HashSet::new();
        for master in [2022u64, 2023] {
            for t in 0..8 {
                let mut rng = Rng::from_seed(handle_seed("live", 8, master, t));
                assert!(
                    firsts.insert(rng.next_u64()),
                    "stream collision at master {master}, handle {t}"
                );
            }
        }
    }
}
