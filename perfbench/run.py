#!/usr/bin/env python3
"""Pipeline benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds libmotsim and the benchmark binary
(perfbench/pipeline_bench.cpp) from source into .bench_build/perfbench on
first use, runs one measurement, keeps the metrics BENCHMARK.json
declares for the mode (end_to_end for --trace 0, per_layer for
--trace 1), and prints the result as the last line of standard output.
Build and binary chatter goes to standard error.

Exit codes: 0 success, 1 build or run failure, 2 bad arguments or a
checkout without the motsim sources.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "pipeline_bench"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the binary; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "pipeline_bench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def select_metrics(measured, trace):
    """The declared metrics of the mode, in declaration order.

    A per-layer metric the binary did not report belongs to a layer the
    workload never runs (say, BDD counters of the three-valued-only
    workload) and reads 0; a missing end-to-end metric is an error.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    selected = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = measured.get(m["name"])
        if got is None and not trace:
            fail(f"result lacks end-to-end metric {m['name']}")
        if got is not None and got["unit"] != m["unit"]:
            fail(f"metric {m['name']} reported in {got['unit']}, "
                 f"declared in {m['unit']}")
        selected[m["name"]] = {"value": got["value"] if got else 0,
                               "unit": m["unit"]}
    return selected


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no motsim sources under {ROOT / 'src'}", 2)
    build()

    # The engines read MOTSIM_* variables (default backend, logging);
    # the measurement must not depend on the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MOTSIM_")}
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"pipeline_bench exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"pipeline_bench exited with code {proc.returncode}", proc.returncode)

    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("pipeline_bench printed no result")
    result = json.loads(lines[-1])
    result["metrics"] = select_metrics(result["metrics"], args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
