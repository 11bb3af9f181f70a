"""CLI behavior: output shapes, determinism, exit codes."""

import hashlib
import json
import time

import pytest

from implicit_derivatives import (
    cli,
    delta_formula,
    expressions,
    jet_to_json,
    partitions,
    random_rational_jet,
    render,
    verification,
)
from implicit_derivatives.cli import main
from test_numeric import wide_rational_jet


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


@pytest.mark.parametrize(
    "argv, terms",
    [
        ("--cap 30 formula 30", 5_192_640),
        ("--cap 30 formula 24 --form elementary", 15_516_710),
        ("--cap 30 formula 18 --form elementary", 557_335),
        ("--cap 30 eval --problem circle 25", 611_234),
        # family A at max_n + 1 (the recursion suite's last step), B at max_n
        ("--cap 30 verify --max-n 18", 37_672 + 557_335),
        # order 31 is above the hard cap and counts 0, like any order out of range
        ("--cap 30 verify --max-n 30", 323_685_343),
    ],
    ids=[
        "delta-30",
        "elementary-24",
        "elementary-18",
        "eval-25",
        "verify-18",
        "verify-30",
    ],
)
def test_request_over_the_term_budget_exits_three(capsys, argv, terms):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert f"needs {terms} terms" in err
    assert "hard cap" not in err
    assert terms > cli.TERM_BUDGET


LARGEST_ADMITTED = [
    ("formula 24", 391_409),
    ("formula 24 --form fx0", 391_409),
    ("formula 17 --form elementary", 308_736),
    ("eval --problem exp 24", 391_409),
    # family A at max_n + 1 (the recursion suite's last step), B at max_n
    ("verify --max-n 17", 23_032 + 308_736),
]


@pytest.mark.parametrize(
    "argv, terms", LARGEST_ADMITTED, ids=[argv for argv, _ in LARGEST_ADMITTED]
)
def test_largest_requests_under_the_term_budget(argv, terms):
    # predicted only, not built: the highest order of each kind admitted
    args = cli.build_parser().parse_args(["--cap", "30", *argv.split()])
    assert cli._predicted_terms(args) == terms
    assert terms <= cli.TERM_BUDGET


# --- repeated calls in one process ---------------------------------------------


def test_repeated_calls_share_no_cap(capsys):
    code, out, _ = run(capsys, "--cap", "16", "formula", "14")
    assert code == 0 and out
    code, out, err = run(capsys, "formula", "14")
    assert code == 3
    assert out == ""
    assert "exceeds cap 12" in err


def test_call_after_a_usage_exit_prints_its_pinned_output(capsys):
    with pytest.raises(SystemExit) as info:
        main(["formula", "--form", "nope", "3"])
    assert info.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "--cap", "16", "count", "--family", "A", "--max-n", "14")
    assert code == 0
    assert (
        hashlib.sha256(out.encode("utf-8")).hexdigest()
        == "f3aef3bbfac6a2729caee38882567ff8a7e9cf79b0c8fd4d5142f82fbdf14a16"
    )


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []

    real_build_parser = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return real_build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        for argv in (["formula", "3"], ["count", "--family", "B", "--max-n", "3"]):
            assert run(capsys, *argv)[0] == 0
        assert run(capsys, "formula", "13")[0] == 3
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_count_builds_its_table_on_every_call(capsys, monkeypatch):
    # nothing a command prints is served from a cache
    calls = []
    core_counts = partitions._core_counts

    def counting_core_counts(max_n):
        calls.append(max_n)
        return core_counts(max_n)

    monkeypatch.setattr(partitions, "_core_counts", counting_core_counts)
    first = run(capsys, "count", "--family", "A", "--max-n", "8")
    second = run(capsys, "count", "--family", "A", "--max-n", "8")
    assert first == second
    assert first[0] == 0
    assert calls == [8, 8]


@pytest.mark.parametrize(
    "argv, order",
    [
        # the compact form at max_n + 1 and the expanded form at max_n
        (["verify", "--max-n", "9"], 10),
        (["formula", "12", "--form", "elementary"], 12),
    ],
)
def test_term_budget_reads_one_counting_table(capsys, monkeypatch, argv, order):
    calls = []
    core_counts = partitions._core_counts

    def counting_core_counts(max_n):
        calls.append(max_n)
        return core_counts(max_n)

    monkeypatch.setattr(partitions, "_core_counts", counting_core_counts)
    assert run(capsys, *argv)[0] == 0
    assert calls == [order]


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_cap_below_one_exits_two(capsys, cap):
    with pytest.raises(SystemExit) as info:
        main(["--cap", cap, "formula", "2"])
    assert info.value.code == 2
    capsys.readouterr()


def test_bad_flags_exit_two(capsys):
    # integers are ASCII digits after an optional "-": no "+", space,
    # digit separator or non-ASCII digit
    for argv in (
        ["formula", "3", "--form", "nonsense"],
        ["--cap", "1_6", "formula", "3"],
        ["formula", " +3"],
        ["formula", "\u0663"],  # ARABIC-INDIC DIGIT THREE
        ["verify", "--max-n", "9 "],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("form", ["delta", "elementary", "inverse", "fx0"])
def test_formula_builders_are_looked_up_when_called(capsys, monkeypatch, form):
    # the benchmark's tracer rebinds these module globals after import
    built = []
    for name in (
        "delta_formula",
        "elementary_formula",
        "inverse_function_formula",
        "fx_zero_formula",
    ):
        honest = getattr(cli, name)

        def counted(n, name=name, honest=honest):
            built.append((name, n))
            return honest(n)

        monkeypatch.setattr(cli, name, counted)
    code, out, _ = run(capsys, "formula", "4", "--form", form)
    assert code == 0 and out
    assert len(built) == 1 and built[0][1] == 4


def test_json_writer_is_looked_up_when_called(capsys, monkeypatch):
    # the benchmark's tracer rebinds expressions.formula_to_json after import
    written = []
    honest = expressions.formula_to_json

    def counted(formula):
        written.append(formula.n)
        return honest(formula)

    monkeypatch.setattr(expressions, "formula_to_json", counted)
    assert render(delta_formula(4), "json") == honest(delta_formula(4))
    assert written == [4]
    code, out, _ = run(capsys, "formula", "4", "--format", "json")
    assert code == 0 and out
    assert written == [4, 4]


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


def test_johnson_suite_can_fail(capsys, monkeypatch):
    honest = verification.zgamma_sum

    def off_by_one(core, *rest):
        row = list(honest(core, *rest))
        row[-1] += 1
        return tuple(row)

    monkeypatch.setattr(verification, "zgamma_sum", off_by_one)
    assert not all(report.passed for report in verification.johnson_suite(5))
    code, out, _ = run(capsys, "verify", "--suite", "johnson", "--max-n", "5")
    assert code == 1
    assert not any(json.loads(line)["passed"] for line in out.strip().splitlines())


def test_verify_summary_counts_failed_checks(capsys, monkeypatch):
    honest = verification.zgamma_sum

    def off_by_one(core, *rest):
        row = list(honest(core, *rest))
        row[-1] += 1
        return tuple(row)

    monkeypatch.setattr(verification, "zgamma_sum", off_by_one)
    code, out, err = run(capsys, "verify", "--suite", "johnson", "--max-n", "5")
    assert code == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    checks = sum(len(line["failures"]) for line in lines)
    reports = sum(not line["passed"] for line in lines)
    assert checks > reports
    assert err.splitlines()[-1] == f"{checks} checks failed in {reports} reports"


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


def test_eval_fd_above_order_four_exits_two(capsys):
    code, out, err = run(capsys, "eval", "--problem", "circle", "5", "--check-fd")
    assert code == 2
    assert out == ""
    assert "finite differences" in err


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


def test_eval_jet_above_the_hard_cap_exits_five_at_once(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(
        '{"x0":"0/1","y0":"1/1","order":3000,"kind":"rational","partials":{"0,1":"1/1"}}'
    )
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--jet", str(path), "3")
    assert time.perf_counter() - start < 1.0
    assert code == 5
    assert out == ""
    assert "hard cap" in err


def test_eval_undecodable_jet_file_exits_five(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = run(capsys, "eval", "--jet", str(path), "2")
    assert code == 5
    assert out == ""
    assert "jet" in err


def test_eval_parse_error_exits_five(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, _, _ = run(capsys, "eval", "--jet", str(path), "2")
    assert code == 5
    code, _, _ = run(capsys, "eval", "--jet", str(tmp_path / "missing.json"), "2")
    assert code == 5
    path.write_text(
        '{"x0": "0/1", "y0": "0/1", "order": 2.9, "kind": "rational",'
        ' "partials": {"0,1": "1/1", "2,0": "1/1"}}'
    )
    code, out, _ = run(capsys, "eval", "--jet", str(path), "2")
    assert code == 5
    assert out == ""
    for text in (
        "[" * 100_000 + "]" * 100_000,
        '{"x0": "0/1", "y0": "0/1", "order": 2, "kind": "rational",'
        ' "partials": {"0,1": "1/1", "2,0": "1e3"}}',
    ):
        path.write_text(text)
        code, out, _ = run(capsys, "eval", "--jet", str(path), "2")
        assert code == 5
        assert out == ""


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "eval --problem circle 12",
            "22fe199494cc5387ef1dec0877151bef9fac1c4b3e80117f7a8047b48298b47e",
        ),
        (
            "eval --problem cubic 10",
            "45650b3f49c358b0e48e8b8761b56e95cc05bb64d13609767d3f4bca451981c9",
        ),
        (
            "eval --problem lambert 10 --kind float",
            "2340c5b5e1554a95b5ca96a3ad3180b796b2fa199e49eb0f8b364d1f7dcc1440",
        ),
        # the float total is the left-to-right sum on every Python version
        (
            "--cap 20 eval --problem lambert 16 --kind float",
            "acf8b3791bf3c7d67870454a0b6872334c1df2f974caca27a017b7dbbcb47f1c",
        ),
        (
            "--cap 20 eval --problem lambert 20 --kind float",
            "5e45cdcb108da4b36fef56179a2d770ea237229483bb04fed41475f5b28cb133",
        ),
    ],
    ids=[
        "circle-12",
        "cubic-10",
        "lambert-10-float",
        "lambert-16-float",
        "lambert-20-float",
    ],
)
def test_eval_stdout_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_eval_wide_jet_output_is_pinned(capsys, tmp_path):
    # the exact total at order 14 on 32-bit entries, where the sum is
    # widest; the document's "jet" field holds the temporary path
    path = tmp_path / "wide.json"
    path.write_text(jet_to_json(wide_rational_jet(14, seed=1400)))
    code, out, _ = run(capsys, "--cap", "14", "eval", "--jet", str(path), "14")
    assert code == 0
    doc = json.loads(out)
    pinned = json.dumps({"value": doc["value"], "term_values": doc["term_values"]})
    assert (
        hashlib.sha256(pinned.encode("utf-8")).hexdigest()
        == "6b5d47a177e7ff6118c5adad752705e37d15e0478939801f715e2dd8a686d0a8"
    )


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "--cap 16 formula 16 --form delta --format json",
            "b2336d93c9160b171a6fc4cde97428c69a97c1b31f8ecfda952480cd29e89759",
        ),
        (
            "--cap 16 formula 16 --form delta --format plain",
            "1e1e8e664fa778048bde1d3ee4c81169335499d9ad39baa6f0bb392d0ec0704b",
        ),
        (
            "--cap 16 formula 16 --form delta --format latex",
            "100e04ed4e1836570ab243eb3150e5a1ecd43de53b683fc2db2e852a0dfb4a70",
        ),
        (
            "--cap 16 formula 12 --form elementary --format plain",
            "ef85bcf24cb5823e8c562172911b105bd64ffcb64659aa6c1cfae7e9e4d2154c",
        ),
        (
            "--cap 16 formula 12 --form elementary --format latex",
            "b1af09a94e7fa91b51bcc67dd56c295ce8b305ff3dfea4a9cad0f8075b09a5b4",
        ),
        (
            "--cap 16 formula 12 --form elementary --format json",
            "ec7c1c2bfa99bfa9ae5bc3409caf9532aba1118d5dc98e211e3cbc67546010b2",
        ),
        (
            "--cap 16 formula 12 --form fx0 --format json",
            "4d7a4cdb6b4da46ba53bd44fc42b6391db48ec21aae4ebc1b448b1872476396e",
        ),
        (
            "--cap 16 formula 12 --form inverse --format latex",
            "ca5935367ddb34d6b6dcf199a09b84730cf90d4f3be7292c0b869da61d55f77c",
        ),
        (
            # "0\n": order 1 has no term free of f_x
            "formula 1 --form fx0",
            "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
        ),
    ],
    ids=[
        "delta-16-json",
        "delta-16-plain",
        "delta-16-latex",
        "elementary-12-plain",
        "elementary-12-latex",
        "elementary-12-json",
        "fx0-12-json",
        "inverse-12-latex",
        "fx0-1-plain",
    ],
)
def test_formula_stdout_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "--cap 16 count --family A --max-n 14",
            "f3aef3bbfac6a2729caee38882567ff8a7e9cf79b0c8fd4d5142f82fbdf14a16",
        ),
        (
            "--cap 16 count --family B --max-n 12",
            "67ba09b5814a4108d334ee9c96a94f11627b2f36916336351557645e202ced02",
        ),
    ],
    ids=["A-14", "B-12"],
)
def test_count_stdout_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "family, total", [("A", 5_192_640), ("B", 323_685_343)]
)
def test_count_to_the_hard_cap_reads_the_table(capsys, monkeypatch, family, total):
    def refuse(*args):
        raise AssertionError("count enumerated a family")

    monkeypatch.setattr(partitions, "_family", refuse)
    start = time.perf_counter()
    argv = ["--cap", "30", "count", "--family", family, "--max-n", "30"]
    code, out, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out.splitlines()[-1] == f"{family}\t30\ttotal\t{total}"


@pytest.mark.parametrize(
    "partials",
    [
        '{"0,1": 1e120, "2,0": 1, "3,0": 1}',  # f_y^k overflows
        '{"0,1": NaN, "2,0": 1}',
        '{"0,1": 1, "2,0": Infinity}',
    ],
    ids=["overflow", "nan", "inf"],
)
def test_eval_unusable_float_jet_exits_five(capsys, tmp_path, partials):
    path = tmp_path / "jet.json"
    path.write_text(
        '{"x0": 0.0, "y0": 0.0, "order": 3, "kind": "float", "partials": %s}'
        % partials
    )
    code, out, err = run(capsys, "eval", "--jet", str(path), "3")
    assert code == 5
    assert out == ""
    assert "jet" in err


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


@pytest.mark.parametrize("kind", ["rational", "float"])
def test_eval_jet_rejects_kind(capsys, tmp_path, kind):
    # the jet file names its kind; --kind would be ignored without a word
    path = tmp_path / "jet.json"
    path.write_text(jet_to_json(random_rational_jet(3, seed=1)))
    code, out, err = run(capsys, "eval", "--jet", str(path), "--kind", kind, "3")
    assert code == 2
    assert out == ""
    assert "--kind" in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-n", "0"],
        ["verify", "--suite", "recursion", "--max-n", "1"],
        ["count", "--family", "A", "--max-n", "-3"],
        ["count", "--family", "A", "--max-n", "1"],
        ["count", "--family", "B", "--max-n", "0"],
    ],
    ids=["verify-0", "verify-recursion-1", "count-A-neg", "count-A-1", "count-B-0"],
)
def test_command_that_checks_nothing_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "max_n, digest",
    [
        ("7", "f4340aaa59cd6d8eaaa26c4609538e9ee1e29bb2872642a2f1bb586ccd46c332"),
        ("8", "501ef346e44da7c72fd216b8d489d3ba64b91343f40f1c49a5e3a2935cfbbc11"),
        ("9", "23c3fae359fb856d485bb70167f49553dcb056dd4a807100f218999ad045f137"),
    ],
    ids=["max-n-7", "max-n-8", "max-n-9"],
)
def test_verify_stdout_is_pinned(capsys, max_n, digest):
    # one JSON line per check: names, pass flags and check counts
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", max_n)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
