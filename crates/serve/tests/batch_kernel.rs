//! The serving path is the paper's b-Batch process.
//!
//! With one worker, `run_replay` refreshes its snapshot every `b`
//! requests and decides each request against it, breaking ties toward the
//! first sample. That is `balloc_noise::Batched` with
//! `TieBreak::FirstSample`, run on the worker's decision stream
//! `point_seed(seed, 0)`. At one worker, `Staleness::Delay { tau: b }`
//! refreshes on the same schedule, and the shard count only routes loads,
//! so every combination below must give the kernel's decision digest and
//! final gap exactly.

use balloc_core::rng::{point_seed, Fnv1a};
use balloc_core::{LoadState, Process, Rng, TieBreak};
use balloc_noise::Batched;
use balloc_serve::{run_replay, NoiseMode, Request, ServeConfig, Staleness};

const SEED: u64 = 2022;

/// The kernel's digest (each chosen bin fed to FNV-1a, as the engine
/// does) and final gap after `m` balls.
fn kernel(n: usize, b: u64, m: u64) -> (u64, f64) {
    let mut process = Batched::with_tie_break(b, TieBreak::FirstSample);
    let mut state = LoadState::new(n);
    let mut rng = Rng::from_seed(point_seed(SEED, 0));
    let mut digest = Fnv1a::new();
    for _ in 0..m {
        digest.write_u64(process.allocate(&mut state, &mut rng) as u64);
    }
    (digest.finish(), state.gap())
}

#[test]
fn one_worker_replay_equals_the_b_batch_kernel() {
    for (n, b) in [(64, 1), (64, 16), (1000, 37), (1000, 1000), (5000, 40_000)] {
        let m = 8 * n as u64;
        let expected = kernel(n, b, m);
        for staleness in [Staleness::Batch { b }, Staleness::Delay { tau: b }] {
            for shards in [1, 4] {
                let cfg = ServeConfig {
                    workers: 1,
                    requests: m,
                    request: Request {
                        d: 2,
                        noise: NoiseMode::Snapshot,
                    },
                    staleness,
                    ..ServeConfig::demo(n, shards, SEED)
                };
                let r = run_replay(&cfg);
                assert_eq!(
                    (r.digest, r.outcome.gap),
                    expected,
                    "n = {n}, b = {b}, {staleness:?}, shards = {shards}"
                );
            }
        }
    }
}
