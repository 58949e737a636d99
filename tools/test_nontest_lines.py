#!/usr/bin/env python3
"""Unit tests for tools/nontest_lines.py on a synthetic source tree.

    python3 tools/test_nontest_lines.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, TOOLS)

import nontest_lines  # noqa: E402


def write(tree, rel, text):
    """Writes `text` to the tree-relative path `rel`."""
    path = os.path.join(tree, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


class CountTree(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.tree = self.tmp.name
        # No `#[cfg(test)]`: every line counts, blank and comment too.
        write(self.tree, "crates/a/src/lib.rs", "//! Docs.\n\npub fn a() {}\n")
        # The attribute on the first line: nothing counts.
        write(self.tree, "crates/a/src/only_tests.rs", "#[cfg(test)]\nmod tests {}\n")
        # Counting stops at the first attribute line, indented or not; a
        # mention in a comment does not stop it.
        write(
            self.tree,
            "crates/b/src/lib.rs",
            "// skips `#[cfg(test)]` items\nfn b() {}\n    #[cfg(test)]\nmod t {}\n",
        )
        # Integration tests and lint fixtures are not counted.
        write(self.tree, "crates/b/tests/it.rs", "fn it() {}\nfn more() {}\n")
        write(self.tree, "crates/lint/tests/fixtures/bad.rs", "fn bad() {}\n")
        # Bench harnesses are.
        write(self.tree, "crates/b/benches/bench.rs", "fn bench() {}\n")
        write(self.tree, "vendor/stub/src/lib.rs", "fn v() {}\n#[cfg(test)]\n")
        write(self.tree, "src/lib.rs", "pub use a;\n")
        write(self.tree, "crates/a/README.md", "not rust\n")

    def tearDown(self):
        self.tmp.cleanup()

    def test_counts_per_crate(self):
        self.assertEqual(
            nontest_lines.count_tree(self.tree),
            {"crates/a": 3, "crates/b": 3, "src": 1, "vendor/stub": 1},
        )

    def test_json_mode_prints_counts_and_total(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            nontest_lines.main([self.tree, "--json"])
        record = json.loads(out.getvalue())
        self.assertEqual(record["total"], 8)
        self.assertEqual(record["crates"]["crates/b"], 3)

    def test_text_mode_ends_with_the_total(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            nontest_lines.main([self.tree])
        lines = out.getvalue().splitlines()
        self.assertEqual(lines[-1].split(), ["total", "8"])
        self.assertEqual(len(lines), 5)

    def test_tree_without_sources_is_refused(self):
        empty = os.path.join(self.tree, "empty")
        os.makedirs(empty)
        with self.assertRaises(SystemExit):
            nontest_lines.main([empty])


if __name__ == "__main__":
    unittest.main()
