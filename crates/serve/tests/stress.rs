//! Multi-threaded stress suite for the sharded serving stack — the same
//! contract as `crates/multicounter/tests/stress.rs`, one API level up:
//! concurrent mixed traffic, then exactness (every request is allocated
//! or shed, and the authoritative state holds exactly the allocated
//! balls) and boundedness.
//!
//! Boundedness is split by what a thread race can promise. Every worker
//! decides at most `b` times on one snapshot. The multicounter and
//! buffered-shard runs read each snapshot from the store itself, so it
//! is current when taken and their gap keeps a bound that One-Choice
//! fails. The striped run reads a mirror that the shard workers publish
//! as they apply; when those workers lag, the mirror freezes and every
//! refresh reads the same old loads. Its staleness has no bound (on a
//! loaded host one striped run reached a gap of 75.4, as large as
//! One-Choice's), so it keeps conservation only. The staleness law's
//! quality bound is asserted on `run_replay` at the same configuration,
//! where the schedule is fixed.

use balloc_serve::{
    run_concurrent, run_replay, BackendKind, NoiseMode, Request, ServeConfig, ServeOutcome,
    SnapshotPath, Staleness,
};

/// The stale two-choice quality bound at b-Batch(64 · 4 workers). In 60
/// concurrent runs alongside the full test suite on a 2-CPU host, the
/// buffered-shard gaps were 2–5 and the multicounter gaps 2–6; the
/// striped gaps were 2.6–35.7.
const QUALITY_GAP: f64 = 40.0;

/// Half of One-Choice's heavily-loaded gap √(2·m·ln n/n) (Raab and
/// Steger) over the `m` balls a run placed: ≈ 51 when all 80 000 stress
/// requests land on 64 bins. One-Choice itself stays above it — 400
/// simulated One-Choice runs at that size had gaps of 55–114, median
/// 81 — so a concurrent run that lost the second choice fails it.
fn half_one_choice_gap(outcome: &ServeOutcome, n: usize) -> f64 {
    let n = n as f64;
    (outcome.allocated as f64 * n.ln() / (2.0 * n)).sqrt()
}

fn stress_config(seed: u64) -> ServeConfig {
    ServeConfig {
        n: 64,
        shards: 4,
        workers: 4,
        requests: 80_000,
        request: Request::two_choice(),
        staleness: Staleness::Batch { b: 64 },
        buffer_capacity: 256,
        inflight: None,
        backend: BackendKind::Sharded,
        snapshot: SnapshotPath::Buffered,
        seed,
    }
}

#[test]
fn striped_snapshots_conserve_under_concurrency() {
    // Same traffic as the buffered stress run, but refreshes scan the
    // lock-free mirror instead of round-tripping the shard buffers.
    let mut cfg = stress_config(41);
    cfg.snapshot = SnapshotPath::Striped;
    let outcome = run_concurrent(&cfg);
    assert_eq!(outcome.allocated + outcome.shed, cfg.requests);
    assert!(outcome.allocated > 0);
}

#[test]
fn sharded_stack_conserves_under_concurrency() {
    let cfg = stress_config(41);
    let outcome = run_concurrent(&cfg);
    // The engine's ledger check already asserts conservation
    // internally; re-state the contract at the public level.
    assert_eq!(outcome.allocated + outcome.shed, cfg.requests);
    assert!(outcome.allocated > 0);
    assert!(
        outcome.gap < half_one_choice_gap(&outcome, cfg.n),
        "stressed serving gap blew up: {}",
        outcome.gap
    );
}

#[test]
fn replayed_stress_config_meets_the_quality_bound() {
    // The same traffic on a fixed round-robin schedule: staleness is
    // exactly b-Batch, so the quality bound is deterministic here. (Replay
    // ignores the snapshot path, so this covers the striped run too.)
    for (backend, seed) in [(BackendKind::Sharded, 41), (BackendKind::Multicounter, 53)] {
        let cfg = ServeConfig {
            backend,
            ..stress_config(seed)
        };
        let replay = run_replay(&cfg).outcome;
        assert_eq!(replay.allocated, cfg.requests);
        assert!(
            replay.gap < QUALITY_GAP,
            "{backend:?}: replayed serving gap {} breaks the b-Batch quality bound",
            replay.gap
        );
    }
}

#[test]
fn tiny_buffers_shed_instead_of_losing() {
    // Starve the shard queues (capacity 1) while four workers hammer
    // them: sheds must appear as counted drops, never as lost balls.
    let mut cfg = stress_config(43);
    cfg.buffer_capacity = 1;
    let outcome = run_concurrent(&cfg);
    assert_eq!(outcome.allocated + outcome.shed, cfg.requests);
}

#[test]
fn inflight_limit_stresses_the_permit_pool() {
    let mut cfg = stress_config(47);
    cfg.inflight = Some(2);
    let outcome = run_concurrent(&cfg);
    assert_eq!(outcome.allocated + outcome.shed, cfg.requests);
}

#[test]
fn multicounter_backend_is_exact_under_the_same_traffic() {
    // The serve engine as a MultiCounter stress harness: the counter sink
    // never sheds, so the counter must absorb every request exactly.
    let mut cfg = stress_config(53);
    cfg.backend = BackendKind::Multicounter;
    let outcome = run_concurrent(&cfg);
    assert_eq!(outcome.allocated, cfg.requests);
    assert_eq!(outcome.shed, 0);
    assert!(
        outcome.gap < QUALITY_GAP,
        "counter quality blew up: {}",
        outcome.gap
    );
}

#[test]
fn noisy_comparisons_survive_concurrency() {
    let mut cfg = stress_config(59);
    cfg.request = Request {
        d: 2,
        noise: NoiseMode::Noisy { sigma: 1.0 },
    };
    cfg.requests = 20_000;
    let outcome = run_concurrent(&cfg);
    assert_eq!(outcome.allocated + outcome.shed, cfg.requests);
    assert!(outcome.gap.is_finite());
}
