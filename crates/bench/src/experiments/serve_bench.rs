//! Ablation **A9**: the sharded serving front-end under snapshot
//! staleness.
//!
//! `balloc-serve` serves `allocate(d)` decisions from per-worker
//! snapshots refreshed every `b` requests (`b-Batch`) or at age `τ`
//! (`τ-Delay`), while the authoritative loads live in `S` shards of one
//! direct store. This experiment runs the single-threaded replay engine
//! once per cell of a `shards × staleness` grid and reports the decision
//! digest, the achieved gap and the maximum load of each cell, next to
//! the `b-Batch` theory term `batch_gap(n, b_global)` — the paper's price
//! list for the staleness knob. Outside `--replay` it also reports each
//! cell's wall-clock throughput.
//!
//! Digests are bit-identical across runs at a fixed seed (checked
//! in-process by running the first cell twice), so
//! `balloc serve_bench --replay --json` is byte-stable — the serving
//! layer's extension of the workspace determinism contract.

use balloc_analysis::bounds::batch_gap;
use balloc_serve::{
    run_replay, BackendKind, NoiseMode, Request, ServeConfig, SnapshotPath, Staleness,
};
use balloc_sim::{OutputSink, Report, TextTable};
use serde::Serialize;

use crate::{emit_header, experiment_seed, fmt3, BenchError, CommonArgs, FlagKind, FlagSpec};

use super::Experiment;

#[derive(Serialize)]
struct ReplayCell {
    shards: usize,
    staleness: String,
    digest: String,
    gap: f64,
    max_load: u64,
    allocated: u64,
    refreshes: u64,
}

#[derive(Serialize)]
struct ServeBenchArtifact {
    scale: String,
    workers: usize,
    d: usize,
    sigma: f64,
    requests_per_cell: u64,
    replay: Vec<ReplayCell>,
}

/// Outside `--replay`: the replay artifact plus each cell's wall-clock
/// throughput, in `replay` order.
#[derive(Serialize)]
struct TimedArtifact {
    grid: ServeBenchArtifact,
    throughput_rps: Vec<f64>,
}

/// `balloc serve_bench` — see the module docs.
pub struct ServeBench;

/// The staleness axis of the grid for `n` bins: three `b-Batch` points
/// spanning fresh-ish to herding, plus the `τ-Delay` point at `τ = n`.
fn staleness_grid(n: usize) -> Vec<Staleness> {
    let n = n as u64;
    vec![
        Staleness::Batch { b: (n / 16).max(1) },
        Staleness::Batch { b: n },
        Staleness::Batch { b: 16 * n },
        Staleness::Delay { tau: n },
    ]
}

/// The `b`-equivalent a staleness knob exposes to the theory term: a
/// per-worker batch of `b` is a global batch of `≈ b · workers`; a delay
/// of `τ` corresponds to `b ≈ τ` (Theorem 10.2's reduction).
fn b_global(staleness: Staleness, workers: usize) -> u64 {
    match staleness {
        Staleness::Batch { b } => b.saturating_mul(workers as u64).max(1),
        Staleness::Delay { tau } => tau.max(1),
    }
}

impl Experiment for ServeBench {
    fn id(&self) -> &'static str {
        "serve_bench"
    }

    fn paper_ref(&self) -> &'static str {
        "Ablation A9 (serving from stale snapshots: Theorems 2.4, 2.5, Corollary 10.4)"
    }

    fn description(&self) -> &'static str {
        "throughput + achieved gap of the sharded serving front-end vs shards x staleness"
    }

    fn extra_flags(&self) -> &'static [FlagSpec] {
        &[
            FlagSpec {
                name: "--workers",
                kind: FlagKind::U64,
                positive: true,
                default: "4",
                help: "virtual round-robin serving workers",
            },
            FlagSpec {
                name: "--d",
                kind: FlagKind::U64,
                positive: true,
                default: "2",
                help: "candidate bins per request (1 = One-Choice)",
            },
            FlagSpec {
                name: "--sigma",
                kind: FlagKind::F64,
                positive: false,
                default: "0",
                help: "extra sigma-Noisy-Load Gaussian on every comparison (0 = off)",
            },
            FlagSpec {
                name: "--replay",
                kind: FlagKind::Switch,
                positive: false,
                default: "off",
                help: "deterministic output only (byte-stable; no throughput)",
            },
        ]
    }

    fn run(&self, args: &CommonArgs, sink: &mut OutputSink) -> Result<Report, BenchError> {
        emit_header(sink, "A9", "sharded serving front-end", args);

        let workers = args.extras.u64("--workers") as usize;
        let d = args.extras.u64("--d") as usize;
        let sigma = args.extras.f64("--sigma");
        if sigma < 0.0 {
            return Err(BenchError::Usage("--sigma must be non-negative".into()));
        }
        let replay_only = args.extras.switch("--replay");

        let request = Request {
            d,
            noise: if sigma > 0.0 {
                NoiseMode::Noisy { sigma }
            } else {
                NoiseMode::Snapshot
            },
        };
        let shard_counts: Vec<usize> = [1usize, 2, 4]
            .into_iter()
            .filter(|&s| s <= args.n)
            .collect();
        let staleness_axis = staleness_grid(args.n);
        let cell_config = |shards: usize, staleness: Staleness| ServeConfig {
            n: args.n,
            shards,
            workers,
            requests: args.m(),
            request,
            staleness,
            buffer_capacity: 4096,
            inflight: None,
            backend: BackendKind::Sharded,
            snapshot: SnapshotPath::Buffered,
            // Deliberately *not* folding the shard count into the tag:
            // decisions only ever read snapshots of the global vector, so
            // at a fixed seed the replay digest must be identical for
            // every shard count — the invariance is visible in the replay
            // table instead of buried in a unit test.
            seed: experiment_seed(&format!("serve_bench/{staleness}"), args.seed),
        };

        let mut columns = vec![
            "shards",
            "staleness",
            "digest",
            "gap",
            "max load",
            "theory (b-Batch)",
        ];
        if !replay_only {
            columns.push("throughput (req/s)");
        }
        let mut table = TextTable::new(columns.into_iter().map(String::from).collect());
        let mut replay = Vec::new();
        let mut throughput_rps = Vec::new();
        for &shards in &shard_counts {
            for &staleness in &staleness_axis {
                let out = run_replay(&cell_config(shards, staleness));
                let digest = format!("{:016x}", out.digest);
                let mut row = vec![
                    shards.to_string(),
                    staleness.to_string(),
                    digest.clone(),
                    fmt3(out.outcome.gap),
                    out.outcome.max_load.to_string(),
                    fmt3(batch_gap(args.n as u64, b_global(staleness, workers))),
                ];
                if !replay_only {
                    row.push(format!("{:.0}", out.outcome.throughput_rps));
                }
                table.push_row(row);
                throughput_rps.push(out.outcome.throughput_rps);
                replay.push(ReplayCell {
                    shards,
                    staleness: staleness.to_string(),
                    digest,
                    gap: out.outcome.gap,
                    max_load: out.outcome.max_load,
                    allocated: out.outcome.allocated,
                    refreshes: out.outcome.refreshes,
                });
            }
        }

        // Determinism self-check: replay the first cell once more; its
        // digest must match the grid's bit for bit.
        let again = run_replay(&cell_config(shard_counts[0], staleness_axis[0]));
        let grid_digest = &replay[0].digest;
        if format!("{:016x}", again.digest) != *grid_digest {
            return Err(BenchError::Run(format!(
                "replay determinism violated: {:016x} != {grid_digest}",
                again.digest
            )));
        }

        sink.table("replay", table);
        sink.line(
            "expected: gap grows with staleness along the b-Batch law; replay digests \
             repeat across shard counts (sharding is storage layout, not policy) and \
             are bit-identical across runs at a fixed seed.",
        );

        let artifact = ServeBenchArtifact {
            scale: args.scale_line(),
            workers,
            d,
            sigma,
            requests_per_cell: args.m(),
            replay,
        };
        sink.blank();
        if replay_only {
            sink.save_artifact(&artifact);
        } else {
            sink.save_artifact(&TimedArtifact {
                grid: artifact,
                throughput_rps,
            });
        }
        Ok(sink.take_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staleness_grid_is_well_formed() {
        for n in [2usize, 128, 10_000] {
            let grid = staleness_grid(n);
            assert_eq!(grid.len(), 4);
            for s in grid {
                match s {
                    Staleness::Batch { b } => assert!(b > 0, "n = {n}: zero batch"),
                    Staleness::Delay { tau } => assert!(tau > 0, "n = {n}: zero tau"),
                }
            }
        }
    }

    #[test]
    fn b_global_folds_workers_into_batches_only() {
        assert_eq!(b_global(Staleness::Batch { b: 8 }, 4), 32);
        assert_eq!(b_global(Staleness::Delay { tau: 8 }, 4), 8);
    }
}
