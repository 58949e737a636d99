//! Registry invariants: experiment ids are unique and well-formed, every
//! registered experiment maps to a real paper reference, the docs stay in
//! sync with the registry, and the `balloc` binary agrees with the
//! library registry end-to-end.

use std::collections::HashSet;
use std::path::PathBuf;
use std::process::Command;

use balloc_bench::experiments::{find, registry};
use balloc_bench::{ExtraArgs, FlagKind};

#[test]
fn registry_has_all_sixteen_experiments() {
    assert!(
        registry().len() >= 16,
        "expected at least the 16 ported experiments, found {}",
        registry().len()
    );
}

#[test]
fn ids_are_unique() {
    let mut seen = HashSet::new();
    for exp in registry() {
        assert!(
            seen.insert(exp.id()),
            "duplicate experiment id {}",
            exp.id()
        );
    }
}

#[test]
fn ids_are_valid_subcommand_tokens() {
    for exp in registry() {
        let id = exp.id();
        assert!(!id.is_empty());
        assert!(
            id.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
            "id {id} contains characters unusable as a subcommand"
        );
        assert!(
            !id.starts_with('-') && !["list", "all", "help"].contains(&id),
            "id {id} collides with a built-in subcommand"
        );
    }
}

#[test]
fn every_id_maps_to_a_real_paper_reference() {
    for exp in registry() {
        let r = exp.paper_ref();
        assert!(
            r.starts_with("Figure ") || r.starts_with("Table ") || r.starts_with("Ablation "),
            "{}: paper_ref {r:?} is not a Figure/Table/Ablation reference",
            exp.id()
        );
        // Figure/Table references carry a section.number pointer into the
        // paper; ablations carry their A-index.
        let tail = r.split(' ').nth(1).unwrap_or_default();
        assert!(
            tail.chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit() || c == 'A'),
            "{}: paper_ref {r:?} has no artifact number",
            exp.id()
        );
        assert!(!exp.description().is_empty());
    }
}

#[test]
fn find_resolves_every_registered_id() {
    for exp in registry() {
        let found = find(exp.id()).expect("registered id must resolve");
        assert_eq!(found.id(), exp.id());
    }
    assert!(find("no_such_experiment").is_none());
}

#[test]
fn extra_flags_are_well_formed_and_do_not_shadow_common_flags() {
    for exp in registry() {
        let mut seen = HashSet::new();
        for spec in exp.extra_flags() {
            assert!(
                spec.name.starts_with("--") && spec.name.len() > 2,
                "{}: flag {:?} must start with --",
                exp.id(),
                spec.name
            );
            assert!(
                !balloc_bench::COMMON_FLAGS.contains(&spec.name),
                "{}: flag {} shadows a common flag",
                exp.id(),
                spec.name
            );
            assert!(
                seen.insert(spec.name),
                "{}: duplicate flag {}",
                exp.id(),
                spec.name
            );
            assert!(!spec.help.is_empty() && !spec.default.is_empty());
        }
    }
}

fn paper_map() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/PAPER_MAP.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn every_registered_experiment_is_documented_in_paper_map() {
    let docs = paper_map();
    for exp in registry() {
        assert!(
            docs.contains(&format!("`balloc {}`", exp.id())),
            "docs/PAPER_MAP.md is missing `balloc {}` — regenerate its table with `balloc list --markdown`",
            exp.id()
        );
    }
}

#[test]
fn paper_map_table_matches_balloc_list_markdown() {
    let docs = paper_map();
    for line in balloc_bench::cli::markdown_table().lines() {
        assert!(
            docs.contains(line),
            "docs/PAPER_MAP.md is out of sync with `balloc list --markdown`; missing line:\n{line}"
        );
    }
}

#[test]
fn balloc_binary_list_ids_matches_library_registry() {
    let output = Command::new(env!("CARGO_BIN_EXE_balloc"))
        .args(["list", "--ids"])
        .output()
        .expect("balloc binary runs");
    assert!(output.status.success());
    let ids: Vec<&str> = std::str::from_utf8(&output.stdout)
        .unwrap()
        .lines()
        .collect();
    let expected: Vec<&str> = registry().iter().map(|e| e.id()).collect();
    assert_eq!(ids, expected);
}

#[test]
fn balloc_binary_rejects_unknown_subcommand_with_exit_2() {
    let output = Command::new(env!("CARGO_BIN_EXE_balloc"))
        .arg("definitely_not_an_experiment")
        .output()
        .expect("balloc binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown subcommand"));
}

#[test]
fn balloc_binary_rejects_bad_flag_with_exit_2_and_suggestion() {
    let output = Command::new(env!("CARGO_BIN_EXE_balloc"))
        .args(["fig12_1", "--sed", "7"])
        .output()
        .expect("balloc binary runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("did you mean `--seed`?"), "{stderr}");
}

#[test]
fn every_experiment_at_two_bins_finishes_or_refuses_cleanly() {
    // n = 2 is the smallest valid scale: each experiment must either run
    // or reject its flags with a usage error (exit 2), never panic.
    for exp in registry() {
        let output = Command::new(env!("CARGO_BIN_EXE_balloc"))
            .args([exp.id(), "--smoke", "--n", "2"])
            .output()
            .expect("balloc binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            matches!(output.status.code(), Some(0 | 2)) && !stderr.contains("panicked"),
            "balloc {} --smoke --n 2 exited {:?}:\n{stderr}",
            exp.id(),
            output.status.code()
        );
    }
}

#[test]
fn net_bench_rejects_more_candidates_than_bins_with_exit_2() {
    let output = Command::new(env!("CARGO_BIN_EXE_balloc"))
        .args(["net_bench", "--smoke", "--n", "64", "--d", "65"])
        .output()
        .expect("balloc binary runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--d") && stderr.contains("--n"), "{stderr}");
}

#[test]
fn serve_bench_replay_json_is_byte_identical_across_runs() {
    // The serving layer's determinism contract, checked at the binary
    // level: `serve_bench --replay` output (decision digests, gaps,
    // counts — everything but wall-clock, which --replay omits) is a pure
    // function of the seed, so two runs must agree byte for byte.
    let run = || {
        let output = Command::new(env!("CARGO_BIN_EXE_balloc"))
            .args([
                "serve_bench",
                "--smoke",
                "--replay",
                "--json",
                "--seed",
                "99",
            ])
            .output()
            .expect("balloc binary runs");
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        output.stdout
    };
    let first = run();
    assert_eq!(first, run(), "replay output must be bit-identical");
    // …and a different seed genuinely changes the decisions.
    let other = Command::new(env!("CARGO_BIN_EXE_balloc"))
        .args([
            "serve_bench",
            "--smoke",
            "--replay",
            "--json",
            "--seed",
            "100",
        ])
        .output()
        .expect("balloc binary runs");
    assert!(other.status.success());
    assert_ne!(first, other.stdout, "a new seed must produce new decisions");
}

#[test]
fn every_declared_default_parses_under_its_kind_and_positive_rule() {
    for exp in registry() {
        let extras = ExtraArgs::defaults(exp.extra_flags())
            .unwrap_or_else(|e| panic!("balloc {}: {e}", exp.id()));
        for spec in exp.extra_flags() {
            let positive = match spec.kind {
                FlagKind::U64 => extras.u64(spec.name) > 0,
                FlagKind::F64 => extras.f64(spec.name) > 0.0,
                FlagKind::Switch => continue,
            };
            assert!(
                positive || !spec.positive,
                "balloc {} {}: default {} is not positive",
                exp.id(),
                spec.name,
                spec.default
            );
        }
    }
}
