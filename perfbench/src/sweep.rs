//! `sim_sweep`: the research path. One sweep is `balloc_sim::sweep` over
//! g-Bounded at g ∈ {0, 1, 2, 4, 8, 16} followed by one over b-Batch at
//! b ∈ {n/8, n, 8n}, at n = 10⁴ on `THREADS` workpool threads.
//!
//! A run cycles through `SEEDS` sweep seeds derived from the benchmark
//! seed; every repeat of a seed must reproduce its results exactly.

use balloc_core::rng::point_seed;
use balloc_noise::{Batched, GBounded};
use balloc_sim::{run, sweep, RunConfig, SweepPoint};

use crate::trace::{span, Tracer};

pub const N: usize = 10_000;
/// Balls per run: 16 per bin, two full batches at the largest b.
pub const M: u64 = 16 * N as u64;
/// Repetitions per sweep cell.
pub const RUNS: usize = 2;
pub const THREADS: usize = 2;
pub const SEEDS: u64 = 4;
pub const GS: [u64; 6] = [0, 1, 2, 4, 8, 16];
pub const BS: [u64; 3] = [N as u64 / 8, N as u64, 8 * N as u64];

/// Balls placed by one sweep.
pub const BALLS_PER_SWEEP: u64 = (GS.len() + BS.len()) as u64 * RUNS as u64 * M;

pub fn sweep_seed(seed: u64, k: u64) -> u64 {
    point_seed(seed, k)
}

/// The g-Bounded and b-Batch sweep points of one seed.
pub struct Sweep {
    pub g: Vec<SweepPoint>,
    pub b: Vec<SweepPoint>,
}

fn params(values: &[u64]) -> Vec<f64> {
    values.iter().map(|&v| v as f64).collect()
}

pub fn run_sweep(seed: u64, id: u64, tracer: Option<&Tracer>) -> Sweep {
    let g = span(tracer, "sim.sweep_g", id, || {
        sweep(
            &params(&GS),
            |g| GBounded::new(g as u64),
            RunConfig::new(N, M, seed),
            RUNS,
            THREADS,
        )
    });
    let b = span(tracer, "sim.sweep_b", id, || {
        sweep(
            &params(&BS),
            |b| Batched::new(b as u64),
            RunConfig::new(N, M, point_seed(seed, 1)),
            RUNS,
            THREADS,
        )
    });
    Sweep { g, b }
}

impl Sweep {
    pub fn points(&self) -> impl Iterator<Item = &SweepPoint> {
        self.g.iter().chain(&self.b)
    }

    /// Mean gap over every run of every cell.
    pub fn mean_gap(&self) -> f64 {
        let cells = self.g.len() + self.b.len();
        self.points().map(|p| p.mean_gap).sum::<f64>() / cells as f64
    }

    /// Every run's gaps, in order: equal between repeats of one seed.
    pub fn signature(&self) -> Vec<u64> {
        self.points()
            .flat_map(|p| {
                p.results
                    .iter()
                    .map(|r| r.gap.to_bits() ^ r.max_load.rotate_left(32))
            })
            .collect()
    }

    /// Every run placed all `M` balls (`gap = max − M/n` pins the count),
    /// and the g = 16 mean gap exceeds the g = 0 one.
    pub fn check(&self) -> Result<(), String> {
        for p in self.points() {
            for r in &p.results {
                let expect = r.max_load as f64 - M as f64 / N as f64;
                if r.config.m != M || (r.gap - expect).abs() > 1e-9 {
                    return Err(format!(
                        "cell {}: gap {} != max − m/n = {expect}",
                        p.param, r.gap
                    ));
                }
            }
        }
        let (g0, g16) = (self.g[0].mean_gap, self.g[GS.len() - 1].mean_gap);
        if g16 <= g0 {
            return Err(format!(
                "g = 16 mean gap {g16} does not exceed g = 0 mean gap {g0}"
            ));
        }
        Ok(())
    }
}

/// Single-thread ns/ball of every sweep cell through `balloc_sim::run`,
/// which drives `Process::run_batch`: `(label, ns_per_ball, seconds)`.
pub fn cell_costs(seed: u64, tracer: Option<&Tracer>) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    let cfg = RunConfig::new(N, M, seed);
    for (i, &g) in GS.iter().enumerate() {
        let (s, _) = crate::util::timed(|| {
            span(tracer, "noise.gbounded", i as u64, || {
                run(&mut GBounded::new(g), cfg)
            })
        });
        out.push((format!("noise.gbounded_g{g}_ns"), s * 1e9 / M as f64, s));
    }
    for (i, &b) in BS.iter().enumerate() {
        let (s, _) = crate::util::timed(|| {
            span(tracer, "noise.batched", i as u64, || {
                run(&mut Batched::new(b), cfg)
            })
        });
        out.push((format!("noise.batched_b{b}_ns"), s * 1e9 / M as f64, s));
    }
    out
}
