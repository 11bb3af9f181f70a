"""The formulas checked above tier-1's orders: one function per check.

Run one check with ``python -X dev -W error tests/high_orders.py <check>``,
``<check>`` being a key of ``CHECKS``.  The defaults are the orders the CI
workflow runs; ``tests/test_high_orders.py`` runs every check at small
orders.  Each CLI call is a fresh ``python -X dev -W error -m
implicit_derivatives.cli`` process with ``PYTHONPATH`` set to ``src/``, and
a non-zero exit fails the check.  Exact values are compared with the
benchmark's power-series solve (``bench/series_ref.py``, which shares no
code with the package), binary64 values by ``repr``, and sheared jets with
the plain ``Fraction`` loop of ``tests/test_numeric.py``.  A check prints one
line per comparison and raises ``AssertionError`` at the first that fails.
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from implicit_derivatives import (  # noqa: E402
    delta_formula,
    elementary_formula,
    eval_formula,
    formula_from_json,
    jet_to_json,
    random_rational_jet,
    shift_jet,
)
from test_numeric import float_copy, shift_reference, wide_rational_jet  # noqa: E402

_spec = importlib.util.spec_from_file_location("series_ref", ROOT / "bench" / "series_ref.py")
series_ref = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(series_ref)


def require(ok, line):
    """Print ``line`` with the outcome; a false ``ok`` fails the check."""
    print(f"{line}: {bool(ok)}")
    if not ok:
        raise AssertionError(line)


def cli(*argv):
    """The stdout of one ``implicit_derivatives.cli`` process, which must exit 0."""
    argv = [str(arg) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "implicit_derivatives.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        check=False,
    )
    sys.stderr.write(proc.stderr)
    require(proc.returncode == 0, f"implicit-deriv {' '.join(argv)} exits 0")
    return proc.stdout


def jets(n):
    """The seeded order-``n`` jets with small and with 32-bit entries, by name."""
    return {"small": random_rational_jet(n, seed=16), "wide": wide_rational_jet(n, seed=1632)}


def problems(n=16):
    """``eval --problem`` at order ``n``: circle, cubic and exp exact, lambert in binary64."""
    for problem in ("circle", "cubic", "exp"):
        cli("--cap", n, "eval", "--problem", problem, n)
    cli("--cap", n, "eval", "--problem", "lambert", n, "--kind", "float")


def jet_files(n=16, low=6):
    """``eval --jet`` on the jets of order ``n`` and their binary64 copies, written to files.

    Exact values at orders ``n`` and ``low`` equal the series reference;
    the copies' values at ``n`` equal in-process evaluation by ``repr``.
    """

    def value(path, order):
        return json.loads(cli("--cap", n, "eval", "--jet", path, order))["value"]

    with tempfile.TemporaryDirectory() as tmp:
        for name, jet in jets(n).items():
            binary = float_copy(jet)
            path, binary_path = Path(tmp, f"{name}{n}.json"), Path(tmp, f"{name}{n}-float.json")
            path.write_text(jet_to_json(jet), encoding="utf-8")
            binary_path.write_text(jet_to_json(binary), encoding="utf-8")
            for order in (n, low):
                want = series_ref.derivatives(jet.partials, order)[order]
                line = f"{name} jet, order {order}: equals the series reference"
                require(Fraction(value(path, order)) == want, line)
            got, want = value(binary_path, n), eval_formula(delta_formula(n), binary).value
            line = f"{name} jet as binary64, order {n}: {got!r} equals in-process by repr"
            require(repr(got) == repr(want), line)


def plan(n=16, low=11):
    """``delta_formula(n)`` and ``elementary_formula(low)`` over three rounds of the jets.

    The jets are those of :func:`jets` at order ``n`` and their binary64
    copies.  One object per formula is evaluated on every jet in each
    round: its first evaluation is the single pass, the others read the
    plan recorded on it.  Exact values equal the series reference, and
    every round's report equals the single pass of a fresh object on the
    same jet, the unreduced exact term pairs included and the float
    terms by ``repr``.
    """
    cases, want = [], {}
    for name, jet in jets(n).items():
        want[name] = series_ref.derivatives(jet.partials, n)
        cases += [(name, jet), (f"{name} as binary64", float_copy(jet))]
    for build, order in ((delta_formula, n), (elementary_formula, low)):
        single = {label: eval_formula(build(order), jet) for label, jet in cases}
        formula = build(order)
        for turn in range(3):
            for label, jet in cases if turn % 2 == 0 else cases[::-1]:
                report = eval_formula(formula, jet)
                line = f"{build.__name__}({order}), round {turn}, {label}"
                if label in want:
                    value = report.value == want[label][order]
                    require(value, f"{line}: equals the series reference")
                same = report == single[label]
                if label not in want:
                    same = same and repr(report.term_values) == repr(single[label].term_values)
                require(same, f"{line}: the report equals the single pass's")


def shear(n=20):
    """``shift_jet`` to order ``n`` on a small-entry and a 32-bit-entry jet of order ``n``.

    The sheared base point and every sheared partial equal the plain
    ``Fraction`` loop over lambda = -f_x/f_y (``shift_reference``).
    """
    for name, jet in (
        ("small", random_rational_jet(n, seed=20)),
        ("wide", wide_rational_jet(n, seed=2020)),
    ):
        shifted = shift_jet(jet, n)
        y0, partials = shift_reference(jet, n)
        require(shifted.y0 == y0, f"{name} jet, order {n}: sheared y0 equals the Fraction loop")
        line = f"{name} jet, order {n}: {len(partials)} sheared partials equal the Fraction loop"
        require(dict(shifted.partials) == partials, line)


def family_walk(cases=(("A", 20, "delta"), ("B", 15, "elementary"))):
    """``formula --format json`` for each (family, order, form) in ``cases``.

    The document has one term per element ``count`` counts, and
    ``formula_from_json``, which runs the full entries check on every
    monomial, reads it back equal to the built formula.
    """
    for family, n, form in cases:
        text = cli("--cap", n, "formula", n, "--form", form, "--format", "json")
        terms = len(json.loads(text)["terms"])
        counted = cli("--cap", n, "count", "--family", family, "--max-n", n)
        total = int(counted.splitlines()[-1].split("\t")[3])
        require(terms == total, f"family {family}, order {n}: {terms} terms, {total} counted")
        built = delta_formula(n) if form == "delta" else elementary_formula(n)
        line = f"{form} form, order {n}: re-read equals the built formula"
        require(formula_from_json(text) == built, line)


CHECKS = {
    "problems": problems,
    "jet-files": jet_files,
    "plan": plan,
    "shear": shear,
    "family-walk": family_walk,
}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in CHECKS:
        sys.exit(f"usage: python -X dev -W error {sys.argv[0]} {{{','.join(CHECKS)}}}")
    CHECKS[sys.argv[1]]()
