#!/usr/bin/env python3
"""Counts the non-test lines of Rust source in a checkout of this repository.

    python3 tools/nontest_lines.py [TREE] [--json]

TREE is the root of a checkout (default: this repository), so a parent
commit can be counted from an unpacked copy, for example
`git archive HEAD^ | tar -x -C /tmp/parent`.

The rule: every `.rs` file under `crates/`, `vendor/` and `src/` counts
its lines, blank and comment lines included, up to but not including its
first `#[cfg(test)]` attribute line (a line that is exactly that
attribute once surrounding whitespace is stripped; a mention of it inside
a comment or string does not end the count). A file without one counts in
full.

Files under a `tests/` directory (integration tests) and under a
`fixtures/` directory (the lint crate's known-bad sample corpus) are not
counted. Files under `benches/` are counted: bench harnesses are build
targets, not tests.

Prints one line per crate (`crates/<name>`, `vendor/<name>`, and `src`
for the root package) and a total; `--json` prints the same as one JSON
object `{"crates": {name: lines}, "total": lines}`.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOPS = ("crates", "vendor", "src")
SKIPPED_DIRS = ("tests", "fixtures")
TEST_ATTR = "#[cfg(test)]"


def nontest_lines(path):
    """Lines of the file at `path` above its first `#[cfg(test)]` line."""
    count = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip() == TEST_ATTR:
                break
            count += 1
    return count


def crate_of(rel):
    """The crate a tree-relative path belongs to (`src` for the root)."""
    parts = rel.split(os.sep)
    return "src" if parts[0] == "src" else os.path.join(parts[0], parts[1])


def count_tree(tree):
    """{crate: non-test lines} over the counted files of `tree`."""
    counts = {}
    for top in TOPS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(tree, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIPPED_DIRS)
            for name in sorted(filenames):
                if not name.endswith(".rs"):
                    continue
                path = os.path.join(dirpath, name)
                crate = crate_of(os.path.relpath(path, tree))
                counts[crate] = counts.get(crate, 0) + nontest_lines(path)
    return dict(sorted(counts.items()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", default=ROOT, help="checkout root")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    if not any(os.path.isdir(os.path.join(args.tree, top)) for top in TOPS):
        sys.exit(f"nontest_lines: no crates/, vendor/ or src/ under {args.tree}")
    counts = count_tree(args.tree)
    total = sum(counts.values())
    if args.json:
        print(json.dumps({"crates": counts, "total": total}, indent=2))
        return
    width = max(len(name) for name in [*counts, "total"])
    for name, lines in counts.items():
        print(f"{name:<{width}}  {lines:>7}")
    print(f"{'total':<{width}}  {total:>7}")


if __name__ == "__main__":
    main()
