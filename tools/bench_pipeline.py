#!/usr/bin/env python3
"""Runs the pipeline benchmark over every workload and writes BENCH_pipeline.json.

    python3 tools/bench_pipeline.py [--parent DIR] [--out FILE]

For each workload BENCHMARK.json declares and each seed 1..10 it runs
`perfbench/run.py --trace 0` (end-to-end metrics) of this checkout for
the run length BENCHMARK.json fixes (`run_seconds`).
With --parent DIR (another checkout, e.g. `git archive` of the parent
commit) it runs the same measurement there too. Each seed is one
pair; the side that runs first alternates from pair to pair, so host
drift hits both alike. The JSON then reports the change/parent ratio
of the medians and how many pairs the change won per metric. Each
checkout builds its own binary into its .bench_build/ on first use.

Each metric of each workload also gets a verdict against its bound:
"better" when every change run beats every parent run; otherwise
"unresolved" when the parent's own interquartile range, relative to
its median, is wider than the bound; otherwise "worse" when the change
median is worse than the parent's by more than the bound, and "within
bound" when it is not.

The JSON keeps every run, so the medians can be recomputed. Exit code
0 on success, 1 when a run fails or reports correct = false.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # seeds 1..PAIRS, one parent/change pair each


def measure(checkout, workload, seed, seconds):
    """One perfbench run; returns its end-to-end metrics as name -> value."""
    cmd = [sys.executable, str(Path(checkout) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pipeline: {' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result.get("correct", False):
        sys.exit(f"bench_pipeline: {workload} seed {seed} in {checkout} "
                 "reported correct = false")
    return {name: m["value"] for name, m in result["metrics"].items()}


def medians(runs):
    names = runs[0].keys() if runs else []
    return {n: statistics.median(r[n] for r in runs) for n in names}


def verdict(parent, change, better, bound):
    """Classifies one metric's parent and change runs (see the module doc)."""
    sign = 1 if better == "lower" else -1
    if max(sign * c for c in change) < min(sign * p for p in parent):
        return "better"
    q1, median, q3 = statistics.quantiles(parent, n=4)
    if median == 0 or (q3 - q1) / abs(median) > bound:
        return "unresolved"
    worse = sign * (statistics.median(change) - median) / abs(median)
    return "worse" if worse > bound else "within bound"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="checkout to compare against")
    parser.add_argument("--out", default=str(ROOT / "BENCH_pipeline.json"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"change": ROOT}
    if args.parent:
        sides = {"parent": Path(args.parent).resolve(), "change": ROOT}

    workloads = {}
    for w in spec["workloads"]:
        runs = {side: [] for side in sides}
        for seed in range(1, PAIRS + 1):
            order = list(sides.items())
            if seed % 2 == 0:
                order.reverse()
            for side, checkout in order:
                runs[side].append(measure(checkout, w["name"], seed, seconds))
                print(f"{w['name']} seed {seed} {side}: {runs[side][-1]}",
                      file=sys.stderr)
        entry = {side: {"runs": r, "median": medians(r)}
                 for side, r in runs.items()}
        if args.parent:
            parent = entry["parent"]["median"]
            entry["ratio"] = {n: round(v / parent[n], 4) if parent[n] else None
                              for n, v in entry["change"]["median"].items()}
            better = {m["name"]: m["better"] for m in spec["end_to_end"]}
            entry["change_wins"] = {
                n: sum((c[n] < p[n]) if better[n] == "lower" else (c[n] > p[n])
                       for p, c in zip(runs["parent"], runs["change"]))
                for n in better}
            entry["verdict"] = {
                m["name"]: verdict([r[m["name"]] for r in runs["parent"]],
                                   [r[m["name"]] for r in runs["change"]],
                                   m["better"], m["bound"])
                for m in spec["end_to_end"]}
        workloads[w["name"]] = entry

    out = {
        "bench": "perfbench/run.py --trace 0",
        "seeds": PAIRS,
        "seconds": seconds,
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "system": platform.system()},
        "ratio": "change median / parent median" if args.parent else None,
        "metrics": {m["name"]: {"unit": m["unit"], "better": m["better"],
                                "bound": m["bound"]}
                    for m in spec["end_to_end"]},
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
