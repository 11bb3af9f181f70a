"""CLI behavior: output shapes, determinism, exit codes."""

import json
import time

import pytest

from implicit_derivatives import jet_to_json, random_rational_jet
from implicit_derivatives.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_formula_plain(capsys):
    code, out, _ = run(capsys, "formula", "2", "--form", "delta", "--format", "plain")
    assert code == 0
    assert out == "- D[2,0] / fy^3\n"


def test_formula_json_fourth_order(capsys):
    code, out, _ = run(capsys, "formula", "4", "--form", "delta", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [t["coeff"] for t in doc["terms"]] == ["-1", "4", "6", "-3", "-12"]


def test_formula_inverse_plain(capsys):
    code, out, _ = run(capsys, "formula", "3", "--form", "inverse", "--format", "plain")
    assert code == 0
    assert out == "- G[3] / G[1]^4 + 3 G[2]^2 / G[1]^5\n"


def test_formula_fx0(capsys):
    code, out, _ = run(capsys, "formula", "3", "--form", "fx0")
    assert code == 0
    assert out == "- D[3,0] / fy + 3 D[1,1] D[2,0] / fy^2\n"


def test_stdout_is_deterministic(capsys):
    first = run(capsys, "formula", "6", "--form", "elementary", "--format", "json")
    second = run(capsys, "formula", "6", "--form", "elementary", "--format", "json")
    assert first == second


def test_formula_over_cap(capsys):
    code, _, err = run(capsys, "formula", "13")
    assert code == 3
    assert "cap" in err


def test_cap_flag_and_env(capsys, monkeypatch):
    code, _, _ = run(capsys, "--cap", "14", "formula", "13")
    assert code == 0
    # --cap is the only setting; the environment is not consulted
    monkeypatch.setenv("IMPLICIT_JET_MAX_N", "4")
    code, _, _ = run(capsys, "formula", "5")
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["--cap", "40", "formula", "31"],
        ["--cap", "40", "eval", "--problem", "circle", "31"],
        ["--cap", "40", "count", "--family", "A", "--max-n", "31"],
        ["--cap", "40", "verify", "--max-n", "31"],
    ],
    ids=lambda argv: argv[2],
)
def test_order_above_hard_cap_exits_three(capsys, argv):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_cap_below_one_exits_two(capsys, cap):
    with pytest.raises(SystemExit) as info:
        main(["--cap", cap, "formula", "2"])
    assert info.value.code == 2
    capsys.readouterr()


def test_bad_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["formula", "3", "--form", "nonsense"])
    assert info.value.code == 2
    capsys.readouterr()


def test_formula_rejects_order_one_delta(capsys):
    code, _, err = run(capsys, "formula", "1", "--form", "delta")
    assert code == 2
    assert "error" in err


def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "4", "--suite", "oracle")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all(line["passed"] for line in lines)
    assert "all suites passed" in err


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--suite", "all")
    assert code == 0
    assert all(json.loads(line)["passed"] for line in out.strip().splitlines())


def test_eval_problem_circle(capsys):
    code, out, _ = run(capsys, "eval", "--problem", "circle", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "-1"
    assert doc["analytic"] == "-1"
    assert doc["rel_error_analytic"] == 0.0


def test_eval_problem_exp_float_kind(capsys):
    code, out, _ = run(capsys, "eval", "--problem", "exp", "5", "--kind", "float")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"] - 1.0) < 1e-12


def test_eval_problem_lambert_with_fd(capsys):
    code, out, _ = run(capsys, "eval", "--problem", "lambert", "2", "--check-fd")
    assert code == 0
    doc = json.loads(out)
    assert doc["rel_error_fd"] < 1e-4


def test_eval_jet_file(capsys, tmp_path):
    jet = random_rational_jet(3, seed=42)
    path = tmp_path / "jet.json"
    path.write_text(jet_to_json(jet))
    code, out, _ = run(capsys, "eval", "--jet", str(path), "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["jet"] == str(path)
    assert doc["n"] == 3


def test_eval_singular_jet_exits_four(capsys, tmp_path):
    path = tmp_path / "singular.json"
    path.write_text(
        '{"x0": "0/1", "y0": "0/1", "order": 2, "kind": "rational",'
        ' "partials": {"0,1": "0/1", "1,0": "1/1"}}'
    )
    code, _, err = run(capsys, "eval", "--jet", str(path), "2")
    assert code == 4
    assert "singular" in err


def test_eval_parse_error_exits_five(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, _, _ = run(capsys, "eval", "--jet", str(path), "2")
    assert code == 5
    code, _, _ = run(capsys, "eval", "--jet", str(tmp_path / "missing.json"), "2")
    assert code == 5


def test_eval_rational_kind_needs_exact_problem(capsys):
    code, _, err = run(capsys, "eval", "--problem", "lambert", "2", "--kind", "rational")
    assert code == 2
    assert "exact" in err


def test_eval_fd_requires_problem(capsys, tmp_path):
    jet = random_rational_jet(2, seed=1)
    path = tmp_path / "jet.json"
    path.write_text(jet_to_json(jet))
    code, _, _ = run(capsys, "eval", "--jet", str(path), "2", "--check-fd")
    assert code == 2


def test_count_family_A(capsys):
    code, out, _ = run(capsys, "count", "--family", "A", "--max-n", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family\tn\tstratum\tcount"
    totals = {
        int(parts[1]): int(parts[3])
        for parts in (line.split("\t") for line in lines[1:])
        if parts[2] == "total"
    }
    assert totals == {2: 1, 3: 2, 4: 5, 5: 10}


def test_count_family_B(capsys):
    code, out, _ = run(capsys, "count", "--family", "B", "--max-n", "2")
    assert code == 0
    totals = [
        line for line in out.strip().splitlines() if line.endswith("total\t3")
    ]
    assert any(line.startswith("B\t2") for line in totals)
