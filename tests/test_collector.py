"""The cyclic garbage collector: builds leave no cycles, and commands run with it paused."""

import gc

import pytest

from implicit_derivatives import (
    cli,
    delta_formula,
    elementary_formula,
    enumerate_A,
    enumerate_B,
    fx_zero_formula,
    inverse_function_formula,
)
from implicit_derivatives.cli import main
from implicit_derivatives.errors import DomainError, JetError
from implicit_derivatives.partitions import predecessor_records


def cyclic_garbage_after(call) -> int:
    """Objects the collector finds after ``call()`` runs with the collector paused."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "call",
    [
        lambda: delta_formula(10),
        lambda: elementary_formula(8),
        lambda: fx_zero_formula(10),
        lambda: inverse_function_formula(8),
        lambda: enumerate_A(12),
        lambda: enumerate_B(10),
        lambda: predecessor_records(9),
    ],
    ids=["delta", "elementary", "fx0", "inverse", "A", "B", "predecessors"],
)
def test_builders_leave_no_cycles(call):
    assert cyclic_garbage_after(call) == 0


@pytest.mark.parametrize(
    "argv, code",
    [
        (["formula", "8", "--form", "elementary", "--format", "json"], 0),
        (["verify", "--suite", "all", "--max-n", "5"], 0),
        (["eval", "--problem", "lambert", "4", "--check-fd"], 0),
        (["count", "--family", "B", "--max-n", "8"], 0),
        (["eval", "--problem", "circle", "6", "--check-fd"], 2),
        (["formula", "13"], 3),
        (["eval", "--jet", "missing.json", "3"], 5),
    ],
    ids=["formula", "verify", "eval", "count", "usage", "over-cap", "bad-jet"],
)
def test_commands_leave_no_cycles(capsys, tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    main(["count", "--family", "A", "--max-n", "2"])  # the parser is built once
    codes = []
    assert cyclic_garbage_after(lambda: codes.append(main(argv))) == 0
    assert codes == [code]
    capsys.readouterr()


def _raise(error):
    raise error


OUTCOMES = {
    "ok": (delta_formula, 0),
    "domain": (lambda n: _raise(DomainError("refused")), 2),
    "jet": (lambda n: _raise(JetError("unusable")), 5),
    "unexpected": (lambda n: _raise(RuntimeError("bug")), None),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("outcome", OUTCOMES)
def test_commands_run_paused_and_restore_the_collector(
    capsys, monkeypatch, enabled, outcome
):
    build, code = OUTCOMES[outcome]
    seen = []

    def recording(n):
        seen.append(gc.isenabled())
        return build(n)

    monkeypatch.setitem(cli.FORMS, "delta", (recording, (True,)))
    was_enabled = gc.isenabled()
    if not enabled:
        gc.disable()
    try:
        if code is None:
            with pytest.raises(RuntimeError, match="bug"):
                main(["formula", "4"])
        else:
            assert main(["formula", "4"]) == code
        assert gc.isenabled() == enabled
    finally:
        if was_enabled:
            gc.enable()
    assert seen == [False]
    capsys.readouterr()
