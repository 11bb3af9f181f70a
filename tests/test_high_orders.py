"""The checks of ``high_orders`` at small orders, and the CI steps that run them by name."""

import re
from pathlib import Path

import high_orders

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_every_check_passes_at_small_orders():
    high_orders.problems(8)
    high_orders.jet_files(8, 4)
    high_orders.plan(8, 6)
    high_orders.shear(8)
    high_orders.family_walk((("A", 10, "delta"), ("B", 8, "elementary")))


def test_the_workflow_names_every_check_and_no_other():
    text = WORKFLOW.read_text(encoding="utf-8")
    named = set(re.findall(r"tests/high_orders\.py ([\w-]+)", text))
    assert named == set(high_orders.CHECKS)
    # a failed step skips every later one, so the benchmark self-test runs last
    steps = re.split(r"^      - ", text, flags=re.M)
    assert [i for i, step in enumerate(steps) if "bench/selftest.py" in step] == [len(steps) - 1]
