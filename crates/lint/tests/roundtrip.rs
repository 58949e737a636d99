//! Lexer round-trip over the real workspace.
//!
//! The lexer is lossless by construction (trivia tokens carry comments and
//! whitespace); this test proves it against every `.rs` file the linter
//! actually sees, plus the fixture corpus. Re-concatenating the token
//! texts must reproduce each file byte for byte — otherwise line/column
//! anchors (and therefore the goldens) cannot be trusted.

use std::path::Path;

use balloc_lint::lexer::tokenize;
use balloc_lint::walk;

fn assert_roundtrip(label: &str, text: &str) {
    let tokens = tokenize(text);
    let mut rebuilt = String::with_capacity(text.len());
    for t in &tokens {
        rebuilt.push_str(&text[t.start..t.end]);
    }
    assert_eq!(rebuilt, text, "lexer round-trip failed on {label}");
    // Coverage must also be gapless and in order.
    let mut pos = 0;
    for t in &tokens {
        assert_eq!(
            t.start, pos,
            "gap or overlap before token at {} in {label}",
            t.start
        );
        pos = t.end;
    }
    assert_eq!(pos, text.len(), "trailing bytes uncovered in {label}");
}

#[test]
fn every_workspace_file_roundtrips() {
    let here = std::env::current_dir().unwrap();
    let root = walk::find_workspace_root(&here).expect("enclosing workspace");
    let files = walk::workspace_files(&root).unwrap();
    assert!(
        files.len() > 50,
        "workspace walk looks truncated: {}",
        files.len()
    );
    for rel in &files {
        let text = std::fs::read_to_string(root.join(rel)).unwrap();
        assert_roundtrip(rel, &text);
    }
}

#[test]
fn fixture_corpus_roundtrips() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            assert_roundtrip(&path.display().to_string(), &text);
        }
    }
}
