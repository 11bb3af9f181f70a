#!/usr/bin/env python3
"""Run the benchmark several times per workload and record the baseline.

Usage (from the repository root):

    python3 bench/record_baseline.py

Each workload of BENCHMARK.json runs ten times untraced, with seeds 1 to
10, and once traced, one process at a time.  For every end-to-end metric
the script prints the median and the quartile spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json; a spread at or above a
third of the bound is flagged.  The medians,
quartiles, raw values and traced per-layer numbers are written to
``bench/baseline.json`` with the Python version, the CPU count and the
commit.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BASELINE_PATH = BENCH_DIR / "baseline.json"
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return result


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    doc = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": commit(),
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {},
    }
    steady = True
    for workload in (w["name"] for w in config["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        end_to_end = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flagged = spread >= bound / 3
            steady = steady and not flagged
            print(f"{workload:7s} {name:12s} median {median:12.5g} "
                  f"spread {spread:7.4f} bound/3 {bound / 3:7.4f}"
                  f"{'  WIDE' if flagged else ''}", flush=True)
            end_to_end[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "values": values,
            }
        traced = run_once(workload, SEEDS[0], seconds, 1)
        doc["workloads"][workload] = {
            "attempted_per_run": statistics.median(r["attempted"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    BASELINE_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {BASELINE_PATH.name}; {'steady' if steady else 'NOT steady'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
