"""The benchmark's tracer finds every function it wraps in the package.

``bench/tracing.py`` looks its targets up by name with ``getattr``, so
deleting or renaming one of them breaks ``bench/run.py --trace 1``.  The
tables are read from the tracer itself, never copied here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)
TRACED = [
    f"{layer}.{func}"
    for table in (tracing.SPAN, tracing.COUNT)
    for layer, funcs in table.items()
    for func in funcs
]


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_resolves(name):
    layer, func = name.split(".")
    module = importlib.import_module(f"implicit_derivatives.{layer}")
    assert callable(getattr(module, func, None)), f"{name} is gone"


@pytest.mark.parametrize("cls_name", tracing.FORMULA_CLASSES)
def test_formula_class_keeps_its_from_terms(cls_name):
    expressions = importlib.import_module("implicit_derivatives.expressions")
    assert isinstance(vars(getattr(expressions, cls_name))["from_terms"], classmethod)
