//! The cross-commit replay oracle: the `--smoke --replay --json` output of
//! every deterministic serving engine's experiment, byte for byte against
//! the files under `tests/golden/replay/`. The digests in them fold every
//! decision, outcome and tick, so any drift in what the engines do (or in
//! the digest itself) shows here.
//!
//! `--threads` is explicit because the `scale` string names the thread
//! count. A deliberate behaviour change re-pins a file with
//! `balloc <id> --smoke --replay --json --threads 2 > tests/golden/replay/<id>.json`
//! and says why.

use std::process::Command;

/// Each experiment with its pinned output.
const GOLDENS: [(&str, &str); 4] = [
    (
        "serve_bench",
        include_str!("golden/replay/serve_bench.json"),
    ),
    (
        "resilience_duel",
        include_str!("golden/replay/resilience_duel.json"),
    ),
    (
        "churn_bench",
        include_str!("golden/replay/churn_bench.json"),
    ),
    ("net_bench", include_str!("golden/replay/net_bench.json")),
];

#[test]
fn replay_outputs_match_the_pinned_files() {
    for (id, golden) in GOLDENS {
        let out = Command::new(env!("CARGO_BIN_EXE_balloc"))
            .args([id, "--smoke", "--replay", "--json", "--threads", "2"])
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("run balloc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "balloc {id}: {stderr}");
        let stdout = String::from_utf8(out.stdout).expect("UTF-8 JSON");
        assert!(
            stdout == golden,
            "balloc {id} --smoke --replay --json drifted from \
             tests/golden/replay/{id}.json:\n{stdout}"
        );
    }
}
