#!/usr/bin/env python3
"""Benchmark of the implicit-derivatives package: seeded closed-loop workloads.

Usage (from the repository root):

    python3 bench/run.py --workload build|eval|verify --seed N --seconds S --trace 0|1

One client, one process, one thread; each op starts when the previous one
has returned.  The package is imported from ``src/`` next to this
directory, never from an installed copy.  A run:

1. sets up: a fresh import of the package plus the workload's prebuild;
2. runs whole passes of the workload's op sequence while the next pass
   is predicted to end within ``--seconds`` (at least one pass), and
   repeats the set-up between ops every ``SETUP_INTERVAL_S``; the median
   of all set-ups is ``setup_s``;
3. checks every op's output: golden stdout digests (``build``), golden
   verify check counts (``verify``), or an independent exact power-series
   reference (``eval``), computed after the timed loop;
4. prints a readable report on stderr and, as the last line of stdout,
   one JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``.

Every time is reported in reference seconds.  The speed of a shared host
drifts: on the 2-CPU host the baseline was recorded on, single calls
swung by 40% within minutes, and ten raw runs of ``eval`` gave a median
20% higher than ten runs twenty minutes earlier.  A fixed exact
computation slows with the host nearly alike, so the run times one --
the benchmark's own power-series solve of a fixed jet (``series_ref``,
which shares no code with the package) -- before the first op and after
every op and set-up, and scales each time by ``REFERENCE_S`` over the
mean of the reference times just before and just after it.  A reference
second is a second on a host where the reference takes ``REFERENCE_S``
(there it took 1.8 to 2.9 ms).  On that host this cut the run-to-run
spread of the times two- to tenfold.  A package change to state the
whole interpreter shares, such as the garbage collector's settings, acts
on the reference too.  The raw op seconds and the host's speed factor
are printed on stderr.

With ``--trace 1`` the run makes one untraced and one traced pass over
the same inputs and reports the per-layer metrics of ``tracing.PER_LAYER``
instead (the tracer's own times are raw seconds); spans go to
``bench/out/``.  The exit code is 0 only when every op was correct.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import series_ref
import tracing
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
PACKAGE = "implicit_derivatives"
SETUP_INTERVAL_S = 3.0
REFERENCE_S = 0.0025
REFERENCE_ORDER = 7
REFERENCE_RUNS = 3

#: Every end-to-end metric with its unit.  wall_s is the mean summed op
#: time of a pass (checks excluded, garbage collection during an op
#: included); op_p50_ms and op_p90_ms are Harrell-Davis quantiles of every
#: op latency of the run; peak_rss_mb is the process's ru_maxrss.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)


def hd_quantile(values: list, p: float, steps: int = 8) -> float:
    """Harrell-Davis estimate of the p-quantile of ``values``.

    A weighted mean of all order statistics with Beta((n+1)p, (n+1)(1-p))
    weights (Harrell & Davis 1982).  The op costs near a workload's median
    differ by only a few percent from one op to the next, so a single
    order statistic jumps with host noise; the weighted mean moves
    smoothly.  Each rank's weight is the Beta mass of its bin, integrated
    by the midpoint rule and normalised.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    weights = [
        sum(density((i + (k + 0.5) / steps) / n) for k in range(steps))
        for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def import_package() -> SimpleNamespace:
    """Import the package afresh from ``src/``; fail if another copy loads."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != SRC_DIR / PACKAGE:
        raise ImportError(f"{PACKAGE} loaded from {package.__file__}, not {SRC_DIR}")
    mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in tracing.LAYERS}
    return SimpleNamespace(package=package, **mods)


def reference_partials() -> dict:
    """The fixed exact jet the reference computation solves."""
    rng = random.Random("reference")
    partials = {
        (p, t): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        for p in range(REFERENCE_ORDER + 1)
        for t in range(REFERENCE_ORDER + 1 - p)
    }
    partials[(0, 0)] = Fraction(0)
    partials[(0, 1)] = Fraction(3, 2)
    return partials


def reference_time(partials: dict) -> float:
    """Median time of REFERENCE_RUNS reference solves, in seconds."""
    times = []
    for _ in range(REFERENCE_RUNS):
        start = time.perf_counter()
        series_ref.derivatives(partials, REFERENCE_ORDER)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Run:
    """One benchmark run: set-up, timed passes, checks, metrics."""

    def __init__(self, workload_cls, seed: int, smoke: bool) -> None:
        self.workload_cls = workload_cls
        self.seed = seed
        self.smoke = smoke
        self.latencies: dict[str, list] = {}  # op kind -> ms
        self.pass_walls: list = []
        self.setup_times: list = []
        self.next_setup = 0.0
        self.attempted = 0
        self.failures: list = []
        self.raw_total = 0.0  # raw seconds of every timed op
        self.partials = reference_partials()
        reference_time(self.partials)  # warm-up, not a sample
        self.references = [reference_time(self.partials)]

    def scaled(self, raw: float) -> float:
        """``raw`` seconds, just measured, in reference seconds.

        Takes the reference sample after the measurement; the one before
        it is the latest sample taken.
        """
        self.references.append(reference_time(self.partials))
        return raw * REFERENCE_S * 2 / (self.references[-2] + self.references[-1])

    def sample_setup(self) -> tuple:
        """Import the package afresh and prepare the workload; record the time.

        Returns the modules and the workload.  The first sample sets the
        run up; during the timed passes one more is taken before the next
        op whenever SETUP_INTERVAL_S has passed, because the host's speed
        changes over seconds and samples taken back to back would all see
        one speed.
        """
        start = time.perf_counter()
        mods = import_package()
        workload = self.workload_cls(self.seed, self.smoke)
        workload.prepare(mods)
        self.setup_times.append(self.scaled(time.perf_counter() - start))
        self.next_setup = time.perf_counter() + SETUP_INTERVAL_S
        return mods, workload

    def run_op(self, op) -> float:
        """Call one op and check its output; return its time in reference seconds."""
        self.attempted += 1
        error = None
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an op that raises counts as failed
            error = exc
        raw = time.perf_counter() - start
        self.raw_total += raw
        elapsed = self.scaled(raw)
        if error is None:
            try:
                if self.workload.check(op, result) is False:
                    error = "wrong output"
            except Exception as exc:  # so does an output the check cannot read
                error = exc
        if error is not None:
            self.failures.append(f"{op.label}: {error!r}")
        return elapsed

    def run_pass(self, pass_index: int, tracer=None, sample_setup: bool = False) -> float:
        """Run one pass; return its summed op time in reference seconds."""
        total = 0.0
        for op_index, op in enumerate(self.workload.ops(pass_index)):
            if sample_setup and time.perf_counter() >= self.next_setup:
                self.sample_setup()
                # collect the copy the sample replaced now, so that no op
                # pays for the benchmark's own garbage
                gc.collect()
            if tracer is not None:
                tracer.op = f"{pass_index}:{op_index}"
            elapsed = self.run_op(op)
            total += elapsed
            self.latencies.setdefault(op.kind, []).append(elapsed * 1e3)
        return total

    def timed_passes(self, seconds: float) -> None:
        start = time.perf_counter()
        durations = []  # whole passes, checks included
        while True:
            pass_start = time.perf_counter()
            self.pass_walls.append(self.run_pass(len(self.pass_walls), sample_setup=True))
            now = time.perf_counter()
            durations.append(now - pass_start)
            if self.smoke or now - start + statistics.median(durations) > seconds:
                return

    def finish(self) -> None:
        self.failures.extend(self.workload.finish())

    def end_to_end(self) -> dict:
        every = [v for values in self.latencies.values() for v in values]
        values = {
            "setup_s": statistics.median(self.setup_times),
            # host speed drifts over seconds, so the mean over the whole
            # measured window is steadier than the median of a few passes
            "wall_s": statistics.fmean(self.pass_walls),
            "op_p50_ms": hd_quantile(every, 0.5),
            "op_p90_ms": hd_quantile(every, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return {name: (values[name], unit) for name, unit in END_TO_END}


def report(workload: str, run: Run, metrics: dict) -> None:
    """Readable summary on stderr, with the figures the JSON line leaves out.

    ``failed_frac`` is 0 on a correct run and the per-jet-kind medians
    exist only for ``eval``, so neither can be an end-to-end metric of
    every workload; they are printed here.
    """
    err = sys.stderr
    print(f"workload {workload}: {run.attempted} ops in {len(run.pass_walls)} "
          f"timed passes, {len(run.setup_times)} set-ups", file=err)
    shown = dict(metrics)
    shown["failed_frac"] = (len(run.failures) / run.attempted, "ratio")
    shown["raw_op_s"] = (run.raw_total, "s")
    shown["host_speed"] = (REFERENCE_S / statistics.median(run.references), "ratio")
    if workload == "eval":
        for kind in ("rational", "float"):
            values = run.latencies.get(kind, [0.0])
            shown[f"eval_{kind}_p50_ms"] = (hd_quantile(values, 0.5), "ms")
    for name, (value, unit) in shown.items():
        print(f"  {name:45s} {value:14.6g} {unit}", file=err)
    for label in run.failures[:20]:
        print(f"  FAILED {label}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build", "eval", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny op set, one pass (self-tests)"
    )
    parser.add_argument(
        "--inject-fault",
        action="store_true",
        help="corrupt one expected output (self-tests: the run must fail)",
    )
    args = parser.parse_args(argv)

    if not (SRC_DIR / PACKAGE / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    run = Run(WORKLOADS[args.workload], args.seed, args.smoke)
    run.mods, run.workload = run.sample_setup()
    if args.inject_fault:
        run.workload.inject_fault()

    if args.trace:
        untraced = run.run_pass(0)
        tracer = tracing.Tracer(run.mods)
        tracer.install()
        try:
            traced = run.run_pass(0, tracer)
        finally:
            tracer.uninstall()
        run.pass_walls = [untraced]
        run.finish()
        metrics = tracer.metrics(traced / untraced)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        run.timed_passes(args.seconds)
        run.finish()
        metrics = run.end_to_end()

    report(args.workload, run, metrics)
    failed = len(run.failures)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
