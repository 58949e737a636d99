#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `perfbench` package (and
through it the repository crates) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), prints the host record, then
runs one workload in a process of its own. The benchmark's last line of
standard output is its JSON result; the exit code is non-zero if the build
fails or any correctness check fails. Each passing result is also stored,
with the host record, under `<target dir>/perfbench/`.
"""

import argparse
import json
import os
import re
import subprocess
import sys

WORKLOADS = ("tcp_pipelined", "engines_replay", "sim_sweep")
# A run ends well within three minutes; past this it is stopped.
RUN_TIMEOUT_S = 170


def host_record():
    cpus = os.cpu_count() or 1
    try:
        rustc = subprocess.run(
            ["rustc", "-V"], capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rustc = "unknown"
    flags = os.environ.get("RUSTFLAGS", "") + " " + os.environ.get("CARGO_ENCODED_RUSTFLAGS", "")
    match = re.search(r"target-cpu=(\S+)", flags)
    return {
        "cpus": cpus,
        "cores": "multi_core" if cpus >= 2 else "single_core",
        "rustc": rustc,
        "target_cpu": match.group(1) if match else "default",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--manifest-path", os.path.join(here, "Cargo.toml")],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    host = host_record()
    print("host " + json.dumps(host, sort_keys=True), flush=True)
    out_dir = os.path.join(target, "perfbench")
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--out", out_dir,
    ]
    try:
        run = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(run.stderr)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()

    lines = run.stdout.strip().splitlines()
    if run.returncode == 0 and lines:
        record = {
            "host": host,
            "args": vars(args),
            "report": lines[:-1],
            "result": json.loads(lines[-1]),
        }
        os.makedirs(out_dir, exist_ok=True)
        name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
        with open(os.path.join(out_dir, name), "w") as f:
            json.dump(record, f, indent=1)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
