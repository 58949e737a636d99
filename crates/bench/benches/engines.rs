//! Criterion benchmarks of the three deterministic serving engines, at the
//! shape of perfbench's `engines_replay` workload: n = 10⁴ bins, 4 virtual
//! workers, 4 shards, b = n staleness and 8·n requests per call.
//!
//! * `engine_replay`: `run_replay`, two-choice;
//! * `engine_resilient`: `run_resilient`, `resilience_duel`'s `d2_full`
//!   policy against its four faults (slow, stalling, erroring and
//!   load-corrupting shards);
//! * `engine_churn`: `run_churn`, `churn_bench`'s `churned` arm.
//!
//! One iteration is one engine call, so divide its time by
//! [`REQUESTS`] (80 000) for ns per request. The `fnv_write_u64_*` rows
//! time [`Fnv1a::write_u64`] on [`FOLDS`] dependent words of 1, 2, 3 and 8
//! significant bytes (the engines digest words of 1–3); divide by
//! [`FOLDS`] for ns per word.
//!
//! ```sh
//! cargo bench -p balloc-bench --bench engines
//! ```

use balloc_core::rng::Fnv1a;
use balloc_noise::CorruptKind;
use balloc_serve::{
    run_churn, run_replay, run_resilient, BackendKind, BreakerConfig, ChurnConfig, FaultKind,
    FaultPlan, HedgeConfig, PlannedChange, Policy, RebalanceKind, Request, ResilienceConfig,
    RetryConfig, ServeConfig, SnapshotPath, Staleness,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const N: usize = 10_000;
const SHARDS: usize = 4;
const WORKERS: usize = 4;
/// Requests (event slots) per engine call.
const REQUESTS: u64 = 8 * N as u64;
/// Words per `fnv_write_u64_*` iteration.
const FOLDS: u64 = 1 << 16;

fn replay_config() -> ServeConfig {
    ServeConfig {
        n: N,
        shards: SHARDS,
        workers: WORKERS,
        requests: REQUESTS,
        request: Request::two_choice(),
        staleness: Staleness::Batch { b: N as u64 },
        buffer_capacity: 1024,
        inflight: None,
        backend: BackendKind::Sharded,
        snapshot: SnapshotPath::Buffered,
        seed: 1,
    }
}

fn resilient_config() -> ResilienceConfig {
    let faults = FaultPlan::clean(1)
        .with(0, FaultKind::Slow { extra: 12 })
        .with(1, FaultKind::Stalled { per_mille: 100 })
        .with(2, FaultKind::Erroring { per_mille: 200 })
        .with(
            3,
            FaultKind::CorruptedLoad {
                g: 4,
                kind: CorruptKind::Understate,
            },
        );
    ResilienceConfig {
        n: N,
        shards: SHARDS,
        workers: WORKERS,
        requests: REQUESTS,
        request: Request::two_choice(),
        staleness: Staleness::Batch { b: N as u64 },
        faults,
        policy: Policy {
            retry: Some(RetryConfig::default()),
            rate: None,
            hedge: Some(HedgeConfig::default()),
            timeout: Some(24),
            breaker: Some(BreakerConfig::default()),
        },
        seed: 2,
    }
}

fn churn_config() -> ChurnConfig {
    let q = REQUESTS / 8;
    ChurnConfig {
        n: N,
        shards: SHARDS,
        workers: WORKERS,
        requests: REQUESTS,
        request: Request::two_choice(),
        staleness: Staleness::Batch { b: N as u64 },
        rebalance: RebalanceKind::Proportional,
        depart_pm: 150,
        migration_rate: 4,
        token_every: 2,
        burst: 8,
        plan: vec![
            (2 * q, PlannedChange::Insert),
            (3 * q, PlannedChange::RemoveOldest),
            (5 * q, PlannedChange::Insert),
            (6 * q, PlannedChange::RemoveNewest),
        ],
        autoscale: None,
        seed: 3,
    }
}

fn engines(c: &mut Criterion) {
    let replay = replay_config();
    c.bench_function("engine_replay", |b| b.iter(|| run_replay(&replay)));
    let resilient = resilient_config();
    c.bench_function("engine_resilient", |b| b.iter(|| run_resilient(&resilient)));
    let churn = churn_config();
    c.bench_function("engine_churn", |b| b.iter(|| run_churn(&churn)));
}

fn digest(c: &mut Criterion) {
    for bytes in [1u32, 2, 3, 8] {
        // The top significant bit set, the low bits varying per word.
        let top = 1u64 << (8 * bytes - 1);
        c.bench_function(&format!("fnv_write_u64_{bytes}_bytes"), |b| {
            b.iter(|| {
                let mut digest = Fnv1a::new();
                for i in 0..FOLDS {
                    digest.write_u64(black_box(top | (i & 0x7f)));
                }
                digest.finish()
            });
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = engines, digest
}
criterion_main!(benches);
