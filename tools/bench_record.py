#!/usr/bin/env python3
"""Pairs perfbench results of two builds by seed and records the comparison.

    python3 tools/bench_record.py PARENT_TARGET CHANGE_TARGET [--trace 0|1] [--label TEXT]
    python3 tools/bench_record.py PARENT_TARGET CHANGE_TARGET [--trace 0|1] --compare [--bounds]
    python3 tools/bench_record.py PARENT_TARGET CHANGE_TARGET [--trace 0|1] --claim WORKLOAD/METRIC

PARENT_TARGET and CHANGE_TARGET are the `$CARGO_TARGET_DIR`s that
`perfbench/run.py` ran with for the parent and the change build. Every
passing run left `<target>/perfbench/result-<workload>-<seed>-trace<t>.json`
there. Runs of one workload at one trace level are paired by seed; seeds
present on one side only, and metrics missing from a run on either side,
are skipped with a warning.

Without `--compare`, one entry is appended to the `entries` list of the
repository's `BENCH_baseline.json`:
the host record, the protocol of each workload (seconds, seeds, run order)
and one row per metric:

    {workload, metric, unit, parent {median, q1, q3},
     change {median, q1, q3}, pairs_won}

`pairs_won` counts the pairs in which the change is strictly better, in the
direction `BENCHMARK.json` gives for the metric (null when it gives none).
The run order of a pair is read from the result files' modification times.
Quartiles are inclusive-method (linear interpolation between order
statistics).

With `--compare`, nothing is written. Every row whose change median falls
outside the parent's [q1, q3] is printed as flagged, and the exit code is 1
if any row is flagged. Comparing a target dir with itself flags nothing.

`--compare --bounds` applies the benchmark's own regression rule to the
end-to-end metrics: such a row is flagged only when the change median is
worse than the parent median by more than the metric's relative `bound` in
`BENCHMARK.json`, in the metric's `better` direction. Rows of metrics
without a bound keep the quartile rule.

`--claim WORKLOAD/METRIC` (repeatable) writes nothing and applies the
benchmark's rule for claiming a gain to that row: at least ten pairs, the
change strictly better in at least nine of every ten (a tie counts for
neither side), and the change median better than the parent median by
more than the parent's q3 - q1. It prints the verdict of each claim and
exits 1 if any claim is not met. With `--compare` both checks run.
"""

import argparse
import datetime
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT = re.compile(r"^result-(?P<workload>.+)-(?P<seed>\d+)-trace(?P<trace>[01])\.json$")


def load_results(target, trace):
    """{(workload, seed): (record, mtime)} for one trace level of a target dir."""
    directory = os.path.join(target, "perfbench")
    if not os.path.isdir(directory):
        sys.exit(f"bench_record: no perfbench results under {target}")
    out = {}
    for name in sorted(os.listdir(directory)):
        match = RESULT.match(name)
        if not match or int(match["trace"]) != trace:
            continue
        path = os.path.join(directory, name)
        with open(path) as f:
            record = json.load(f)
        out[(match["workload"], int(match["seed"]))] = (record, os.path.getmtime(path))
    return out


def benchmark_metrics():
    """({metric: "higher" | "lower"}, {metric: bound}) from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = [m for key in ("end_to_end", "per_layer") for m in bench.get(key, [])]
    better = {m["name"]: m["better"] for m in metrics}
    bounds = {m["name"]: m["bound"] for m in metrics if "bound" in m}
    return better, bounds


def quantile(sorted_values, p):
    """Inclusive-method quantile of an ascending list."""
    pos = (len(sorted_values) - 1) * p
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def summary(values):
    values = sorted(values)
    return {
        "median": quantile(values, 0.5),
        "q1": quantile(values, 0.25),
        "q3": quantile(values, 0.75),
    }


def build_entry(parent, change, better, trace, label):
    keys = sorted(k for k in parent if k in change)
    for side, results, other in (("parent", parent, change), ("change", change, parent)):
        for key in sorted(set(results) - set(other)):
            print(f"bench_record: {key[0]} seed {key[1]} has no {side} pair; skipped",
                  file=sys.stderr)
    if not keys:
        sys.exit("bench_record: no runs pair up by workload and seed")

    hosts = []
    protocol = []
    rows = []
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        pairs = [(parent[(workload, s)], change[(workload, s)]) for s in seeds]
        for (p, _), (c, _) in pairs:
            for host in (p["host"], c["host"]):
                if host not in hosts:
                    hosts.append(host)
        protocol.append({
            "workload": workload,
            "trace": trace,
            "seconds": sorted({r["args"]["seconds"] for pair in pairs for r, _ in pair}),
            "seeds": seeds,
            "run_order": ["parent first" if pt <= ct else "change first"
                          for (_, pt), (_, ct) in pairs],
        })
        units = {}
        for pair in pairs:
            for record, _ in pair:
                for metric, info in record["result"]["metrics"].items():
                    units.setdefault(metric, info["unit"])
        for metric, unit in units.items():
            p_vals = [p["result"]["metrics"].get(metric, {}).get("value") for (p, _), _ in pairs]
            c_vals = [c["result"]["metrics"].get(metric, {}).get("value") for _, (c, _) in pairs]
            gaps = [side for side, vals in (("parent", p_vals), ("change", c_vals))
                    if None in vals]
            if gaps:
                print(f"bench_record: {workload} {metric} missing from a {gaps[0]} run; skipped",
                      file=sys.stderr)
                continue
            direction = better.get(metric)
            won = None
            if direction is not None:
                sign = 1 if direction == "higher" else -1
                won = sum(1 for p, c in zip(p_vals, c_vals) if sign * (c - p) > 0)
            rows.append({
                "workload": workload,
                "metric": metric,
                "unit": unit,
                "parent": summary(p_vals),
                "change": summary(c_vals),
                "pairs_won": won,
            })
    entry = {
        "recorded": datetime.date.today().isoformat(),
        "host": hosts[0] if len(hosts) == 1 else hosts,
        "protocol": protocol,
        "rows": rows,
    }
    if label:
        entry = {"label": label, **entry}
    return entry


def outside_quartiles(row):
    return not row["parent"]["q1"] <= row["change"]["median"] <= row["parent"]["q3"]


def beyond_bound(row, better, bound):
    """Whether the change median is worse than the parent's by more than `bound`."""
    p, c = row["parent"]["median"], row["change"]["median"]
    worse_by = p - c if better[row["metric"]] == "higher" else c - p
    return worse_by > bound * abs(p)


def flagged(rows, better, bounds):
    """The rows to flag: by bound where `bounds` has the metric, else by quartiles."""
    return [r for r in rows
            if (beyond_bound(r, better, bounds[r["metric"]]) if r["metric"] in bounds
                else outside_quartiles(r))]


def compare(entry, better, rule):
    """Prints every row, flagged or ok by `rule`; returns 1 if any is flagged."""
    bad = flagged(entry["rows"], better, rule)
    for r in entry["rows"]:
        mark = "FLAG" if r in bad else "ok"
        p, c = r["parent"], r["change"]
        how = f"bound {rule[r['metric']]:g}" if r["metric"] in rule else "quartiles"
        print(f"{mark:4} {r['workload']:15} {r['metric']:28} parent {p['median']:.6g} "
              f"[{p['q1']:.6g}, {p['q3']:.6g}]  change {c['median']:.6g}  "
              f"won {r['pairs_won']}  ({how})")
    print(f"bench_record: {len(bad)} of {len(entry['rows'])} rows flagged")
    return 1 if bad else 0


CLAIM_PAIRS = 10


def claim_failures(row, pairs, better):
    """Why `row` fails the claim rule over `pairs` pairs; empty if it holds."""
    sign = 1 if better[row["metric"]] == "higher" else -1
    gain = sign * (row["change"]["median"] - row["parent"]["median"])
    spread = row["parent"]["q3"] - row["parent"]["q1"]
    failures = []
    if pairs < CLAIM_PAIRS:
        failures.append(f"{pairs} pairs, fewer than {CLAIM_PAIRS}")
    if 10 * row["pairs_won"] < 9 * pairs:
        failures.append(f"won {row['pairs_won']} of {pairs} pairs, fewer than 9 in 10")
    if not gain > spread:
        failures.append(f"median gain {gain:.6g} does not exceed the parent's "
                        f"q3 - q1 = {spread:.6g}")
    return failures


def check_claims(entry, claims, better):
    """Prints each claim's verdict; returns the number of claims not met."""
    pairs = {p["workload"]: len(p["seeds"]) for p in entry["protocol"]}
    unmet = 0
    for claim in claims:
        workload, _, metric = claim.partition("/")
        row = next((r for r in entry["rows"]
                    if r["workload"] == workload and r["metric"] == metric), None)
        if row is None:
            failures = ["no such row in the paired runs"]
        elif metric not in better:
            failures = ["BENCHMARK.json gives the metric no direction"]
        else:
            failures = claim_failures(row, pairs[workload], better)
        unmet += bool(failures)
        verdict = "met" if not failures else "NOT MET: " + "; ".join(failures)
        detail = ""
        if row is not None:
            p, c = row["parent"], row["change"]
            detail = (f" (parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}], "
                      f"change {c['median']:.6g}, won {row['pairs_won']} of {pairs[workload]})")
        print(f"claim {claim}: {verdict}{detail}")
    return unmet


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_target")
    parser.add_argument("change_target")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="", help="free text stored with the entry")
    parser.add_argument("--compare", action="store_true",
                        help="write nothing; flag rows whose change median is "
                             "outside the parent's quartiles, exit 1 if any")
    parser.add_argument("--bounds", action="store_true",
                        help="with --compare: flag end-to-end rows only when worse "
                             "than the parent median by more than their BENCHMARK.json bound")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD/METRIC",
                        help="write nothing; exit 1 unless the change's gain on this row "
                             "meets the benchmark's claim rule (repeatable)")
    args = parser.parse_args()
    if args.bounds and not args.compare:
        parser.error("--bounds needs --compare")

    parent = load_results(args.parent_target, args.trace)
    change = load_results(args.change_target, args.trace)
    better, bounds = benchmark_metrics()
    entry = build_entry(parent, change, better, args.trace, args.label)

    if args.compare or args.claim:
        flagged_rows = compare(entry, better, bounds if args.bounds else {}) if args.compare else 0
        unmet = check_claims(entry, args.claim, better)
        return 1 if flagged_rows or unmet else 0

    path = os.path.join(ROOT, "BENCH_baseline.json")
    with open(path) as f:
        baseline = json.load(f)
    baseline["entries"].append(entry)
    with open(path, "w") as f:
        json.dump(baseline, f, indent=1)
    print(f"bench_record: appended {len(entry['rows'])} rows to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
