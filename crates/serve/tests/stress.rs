//! The serving stack's quality bound under stress-sized traffic: 80 000
//! two-choice requests from four workers onto 64 bins over four shards,
//! each worker deciding up to `b = 64` times on one snapshot.
//!
//! The engine runs on one thread on a fixed round-robin schedule, so the
//! staleness is exactly `b-Batch(64)` and the gap below is a pure function
//! of the seed: the bound is deterministic, not a race.

use balloc_serve::{run_replay, BackendKind, Request, ServeConfig, SnapshotPath, Staleness};

/// The stale two-choice quality bound at b-Batch(64 · 4 workers).
/// One-Choice at this size has a gap of ≈ 55–114, so a run that lost the
/// second choice fails it.
const QUALITY_GAP: f64 = 40.0;

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
fn replayed_stress_config_meets_the_quality_bound() {
    for seed in [41, 53] {
        let cfg = stress_config(seed);
        let replay = run_replay(&cfg).outcome;
        assert_eq!(replay.allocated, cfg.requests);
        assert!(
            replay.gap < QUALITY_GAP,
            "seed {seed}: replayed serving gap {} breaks the b-Batch quality bound",
            replay.gap
        );
    }
}
