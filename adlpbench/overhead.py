#!/usr/bin/env python3
"""Tracing overhead of the ADLP benchmark.

Runs each workload once untraced and once traced with the same seed and
prints, for every end-to-end metric, the traced run's value relative to the
untraced one. A traced run prints its own end-to-end figures on the
`# workload=...` line just before its JSON result.

    python3 adlpbench/overhead.py [--seed N] [--seconds S] [workload ...]

Run it from the repository root.
"""

import argparse
import json
import subprocess
import sys

COMMAND = json.load(open("BENCHMARK.json"))["command"]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        COMMAND
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip().splitlines()
    summary = next(line for line in reversed(out) if line.startswith("# workload="))
    values = {}
    for field in summary.split():
        name, _, value = field.partition("=")
        try:
            values[name] = float(value)
        except ValueError:
            pass
    return values


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("workloads", nargs="*", default=["link", "ingest", "light-audit"])
    args = parser.parse_args()
    metrics = [m["name"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]]
    for workload in args.workloads:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        for name in metrics:
            base = plain[name]
            delta = (traced[name] - base) / base if base else float("nan")
            print(f"{workload:12s} {name:20s} untraced={base:<14.6g} traced={traced[name]:<14.6g} {delta:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
