#!/usr/bin/env python3
"""Self-tests of the benchmark.

Usage (from the repository root): python3 bench/selftest.py

* the golden digests of the expanded and block forms for n <= 8 match the
  rendering of the brute-force oracle and of the block expansion;
* the series reference matches the analytic problem values and the
  package's exact evaluation;
* a smoke run of every workload, traced and untraced, emits exactly the
  metrics of BENCHMARK.json with their units, and the traced numbers show
  the predicted layer splits, with time in each of the four verify suites;
* a corrupted expectation makes every workload fail with a non-zero exit,
  and an output the check cannot read counts as a failed op;
* the same seed gives the same inputs;
* without the package sources the benchmark exits non-zero and prints no
  result.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, END_TO_END, OUT_DIR, SRC_DIR, Run, import_package
from tracing import PER_LAYER
from workloads import WORKLOADS, Op, argv_key, digest, load_golden, run_cli, verify_argvs
import series_ref

ROOT = BENCH_DIR.parent
RUN_TIMEOUT = 180


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def formula_key(n: int, form: str, fmt: str) -> str:
    return argv_key(["--cap", "16", "formula", str(n), "--form", form, "--format", fmt])


def test_golden_digests_match_oracle(mods) -> None:
    golden = load_golden()["build"]
    render = mods.expressions.render
    f = mods.formula
    for n in (6, 7, 8):
        oracle = mods.oracle.oracle_formula(n)
        expanded = f.expand_delta(f.delta_formula(n))
        for fmt in ("plain", "latex", "json"):
            want = golden[formula_key(n, "elementary", fmt)]
            expect(digest(render(oracle, fmt) + "\n") == want, f"oracle digest n={n} {fmt}")
            expect(digest(render(expanded, fmt) + "\n") == want, f"expansion digest n={n} {fmt}")
            fx0 = f.specialize_fx_zero(oracle)
            expect(
                digest(render(fx0, fmt) + "\n") == golden[formula_key(n, "fx0", fmt)],
                f"fx0 digest n={n} {fmt}",
            )
    code, stdout = run_cli(mods.cli, ["--cap", "16", "formula", "8", "--form", "delta", "--format", "json"])
    expect(code == 0 and digest(stdout) == golden[formula_key(8, "delta", "json")], "delta n=8 json")
    block = mods.expressions.formula_from_json(stdout)
    diff = mods.oracle.formulas_equal(f.expand_delta(block), mods.oracle.oracle_formula(8))
    expect(diff.equal, "golden block form n=8 does not expand to the oracle")
    for fmt in ("plain", "latex"):
        expect(
            digest(render(block, fmt) + "\n") == golden[formula_key(8, "delta", fmt)],
            f"delta n=8 {fmt}",
        )


def test_series_reference(mods) -> None:
    numeric, f = mods.numeric, mods.formula
    for name in ("circle", "exp", "cubic"):
        problem = numeric.builtin_problem(name)
        values = series_ref.derivatives(problem.jet(14).partials, 14)
        for n in range(1, 15):
            expect(values[n] == problem.analytic(n), f"reference vs analytic {name} n={n}")
    for n in range(2, 10):
        jet = numeric.random_rational_jet(n, seed=7000 + n)
        want = numeric.eval_formula(f.delta_formula(n), jet).value
        expect(series_ref.derivatives(jet.partials, n)[n] == want, f"reference vs eval n={n}")


def test_seeded_inputs(mods) -> None:
    def jets(seed):
        workload = WORKLOADS["eval"](seed, smoke=True)
        workload.prepare(mods)
        workload.ops(0)
        return [sorted(jet.partials.items()) for jet, _ in workload.jets.values()]

    def build_order(seed):
        return [op.label for op in WORKLOADS["build"](seed, smoke=False).ops(0)]

    expect(jets(5) == jets(5), "same seed gave different jets")
    expect(jets(5) != jets(6), "different seeds gave the same jets")
    expect(build_order(5) == build_order(5), "same seed gave a different build order")
    expect(build_order(5) != build_order(6), "different seeds gave the same build order")


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "11", "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT,
    )
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_metrics(_mods) -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, emitted in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in declared[key]]
        expect(listed == list(emitted), f"BENCHMARK.json {key} differs from the code")
    traced = {}
    for workload in WORKLOADS:
        for trace, metrics in (("0", END_TO_END), ("1", PER_LAYER)):
            code, stdout = bench("--workload", workload, "--trace", trace, "--smoke")
            result = last_json(stdout)
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   f"smoke {workload} trace {trace} failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == dict(metrics), f"smoke {workload} trace {trace} metric set")
            if trace == "0":
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"smoke {workload}: an end-to-end metric is not positive")
            else:
                traced[workload] = {k: m["value"] for k, m in result["metrics"].items()}
    expect(traced["eval"]["partitions.self_s"] == 0, "partitions ran inside the eval loop")
    expect(traced["eval"]["numeric.self_s"] > 0, "eval did no numeric work")
    expect(traced["build"]["numeric.self_s"] == 0, "numeric ran in build")
    expect(traced["build"]["partitions.self_s"] > 0, "build did no partition work")
    for workload, values in traced.items():
        calls = values["coeffs.zgamma_sum.calls"]
        expect((calls > 0) == (workload == "verify"), f"zgamma_sum calls in {workload}")
    for suite in ("recursion", "oracle", "johnson", "shift"):
        expect(traced["verify"][f"verification.{suite}_suite.self_s"] > 0,
               f"verify traced no time in the {suite} suite")


def test_unreadable_output_fails(mods) -> None:
    run = Run(WORKLOADS["verify"], 11, smoke=True)
    run.workload = WORKLOADS["verify"](11, smoke=True)
    run.workload.prepare(mods)
    label = argv_key(verify_argvs()[0])
    run.run_op(Op(label, "verify", lambda: (0, "not a JSON line\n")))
    expect(run.attempted == 1 and len(run.failures) == 1,
           "an op whose output the check cannot read was not counted as failed")


def test_fault_injection(_mods) -> None:
    for workload in WORKLOADS:
        code, stdout = bench("--workload", workload, "--trace", "0", "--smoke", "--inject-fault")
        result = last_json(stdout)
        expect(code != 0, f"{workload}: injected fault exited 0")
        expect(not result["correct"] and result["failed"] > 0,
               f"{workload}: injected fault not counted as failed")


def test_bare_directory(_mods) -> None:
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "bench")
    try:
        code, stdout = bench("--workload", "build", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    expect(code != 0 and not stdout.strip(), "benchmark ran without the package sources")


TESTS = (
    test_golden_digests_match_oracle,
    test_series_reference,
    test_seeded_inputs,
    test_smoke_metrics,
    test_fault_injection,
    test_unreadable_output_fails,
    test_bare_directory,
)


def main() -> int:
    sys.path.insert(0, str(SRC_DIR))
    mods = import_package()
    failed = 0
    for test in TESTS:
        try:
            test(mods)
        except CheckFailed as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
