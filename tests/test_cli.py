"""End-to-end tests of the command-line front end: exit codes, human output,
and the JSON run reports."""

import argparse
import dataclasses
import json
import os
import pathlib
import random
import subprocess
import time
from sys import executable

import pytest

import radolab
from radolab import systems
from radolab.cli import MAX_RANGE, _apply_distinct, main
from radolab.colorings import poly_vdw_witness, random_coloring
from radolab.polyring import poly_parse
from radolab.radomat import MAX_COLS
from radolab.systems import schur_system


@pytest.fixture
def matrix_file(tmp_path):
    def write(text, name="A.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


# ---------------------------------------------------------------------------
# check-cc / expand / kernel / constant-solution


def test_check_cc_satisfied(capsys, matrix_file):
    code, out, _ = run(capsys, ["check-cc", matrix_file("1 1 -1")])
    assert code == 0
    assert "SATISFIED" in out and "[[1, 3], [2]]" in out


def test_the_module_runs_as_a_program(matrix_file):
    # the `python -m radolab.cli` entry point, in a process of its own
    src = str(pathlib.Path(radolab.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [executable, "-m", "radolab.cli", "check-cc", matrix_file("1 1 -1")]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "SATISFIED blocks=[[1, 3], [2]]\n", "")


def test_check_cc_not_satisfied(capsys, matrix_file):
    code, out, _ = run(capsys, ["check-cc", matrix_file("1 1 -3")])
    assert code == 1
    assert "NOT SATISFIED" in out


def test_check_cc_on_a_row_of_24_ones_is_fast(capsys, matrix_file):
    # no subset of 24 ones sums to zero: 2^24 subsets, but two halves of
    # 2^12 sums each
    path = matrix_file(" ".join(["1"] * 24))
    start = time.perf_counter()
    code, out, _ = run(capsys, ["check-cc", path])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert "NOT SATISFIED" in out


def test_check_cc_malformed_file(capsys, matrix_file):
    code, _, err = run(capsys, ["check-cc", matrix_file("1 foo")])
    assert code == 2
    assert "error" in err


def test_check_cc_missing_file(capsys):
    code, _, err = run(capsys, ["check-cc", "/no/such/file"])
    assert code == 2


def test_check_cc_json(capsys, matrix_file):
    code, payload = run_json(capsys, ["check-cc", matrix_file("1 1 -1")])
    assert code == 0
    assert payload["command"] == "check-cc"
    assert payload["outcome"]["satisfied"] is True
    assert payload["outcome"]["witness"] == {"blocks": [[1, 3], [2]]}


def test_expand(capsys, matrix_file):
    path = matrix_file("1 2 -3\n2 -1 -1")
    code, out, _ = run(capsys, ["expand", path])
    assert code == 0
    assert out.splitlines()[0].split() == ["1", "2", "-3", "0"]
    assert out.splitlines()[1].split() == ["2", "-1", "0", "-1"]


def test_kernel(capsys, matrix_file):
    code, out, _ = run(capsys, ["kernel", matrix_file("1 1 -1")])
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_kernel_trivial(capsys, matrix_file):
    code, out, _ = run(capsys, ["kernel", matrix_file("1 0\n0 1")])
    assert code == 1
    assert "trivial" in out


def test_constant_solution(capsys, matrix_file):
    path = matrix_file("1 1 -1")
    code, out, _ = run(capsys, ["constant-solution", path, "--rhs", "3"])
    assert code == 0
    assert "d = 3" in out
    code, out, _ = run(capsys, ["constant-solution", path, "--rhs", "0"])
    assert code == 0
    # zero row sums: every d works, reported as 0
    assert "d = 0" in out


def test_constant_solution_none(capsys, matrix_file):
    # row sums zero but b nonzero: impossible
    code, out, _ = run(
        capsys, ["constant-solution", matrix_file("1 -1"), "--rhs", "5"]
    )
    assert code == 1
    assert "NO CONSTANT" in out


# ---------------------------------------------------------------------------
# solve


def test_solve_template_power_product(capsys):
    code, payload = run_json(
        capsys,
        ["solve", "power-product(z^2, z^3)", "--coloring", "all-one", "--range", "50"],
    )
    assert code == 0
    assert payload["outcome"]["solution"] is not None


def test_solve_schur_avoider_refused(capsys):
    # x+y=z is partition regular; the avoider generator must refuse (1,1,-1)
    code, _, err = run(
        capsys,
        ["solve", "equation(1,1,-1)", "--coloring", "rado-avoider(1,1,-1;5)"],
    )
    assert code == 2
    assert "refused" in err


def test_solve_avoider_none_in_range(capsys):
    code, out, _ = run(
        capsys,
        [
            "solve",
            "equation(1,1,-3)",
            "--coloring",
            "rado-avoider(1,1,-3;5)",
            "--range",
            "500",
        ],
    )
    assert code == 1
    assert "NONE-IN-RANGE" in out


@pytest.mark.parametrize(
    "coeffs, p", [([1] * 24, 101), (list(range(1, 25)), 2**127 - 1)], ids=["24-ones-p101", "24-coeffs-prime-p"]
)
def test_a_wide_avoider_is_checked_within_a_second(capsys, coeffs, p):
    spec = "rado-avoider(" + ",".join(map(str, coeffs)) + f";{p})"
    start = time.perf_counter()
    code, out, err = run(capsys, ["solve", "schur", "--coloring", spec, "--range", "10"])
    assert time.perf_counter() - start < 1
    # p > 10, so each of 1..10 has a colour of its own
    assert (code, out, err) == (1, "NONE-IN-RANGE [1..10] [status=regular-by-paper]\n", "")


def test_solve_reports_the_range_a_short_coloring_file_allows(capsys, tmp_path):
    path = tmp_path / "five.col"
    path.write_text("5 3\n0 1 1 0 2\n")
    argv = ["solve", "schur", "--coloring", str(path), "--range", "100"]
    code, out, _ = run(capsys, argv)
    assert code == 1
    assert "NONE-IN-RANGE [1..5]" in out
    code, payload = run_json(capsys, argv)
    assert code == 1
    assert payload["budget"]["range"] == 5


def test_solve_checks_a_variable_free_equation(capsys, tmp_path):
    # x + y = z together with 5 = 0 has no solution at all
    terms = [{"coeff": c, "monomial": {v: 1}} for c, v in ((1, "x"), (1, "y"), (-1, "z"))]
    system = {
        "name": "schur-and-5=0",
        "variables": ["x", "y", "z"],
        "equations": [{"terms": terms}, {"terms": [{"coeff": 5}]}],
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    code, out, _ = run(capsys, ["solve", str(path), "--coloring", "all-one", "--range", "10"])
    assert code == 1
    assert out.startswith("NONE-IN-RANGE")


@pytest.mark.parametrize(
    "system, message",
    [
        ([1, 2], "the system must be a JSON object"),
        ({"name": "s", "variables": ["x"], "equations": {"terms": []}}, "equations must be a JSON array"),
        ({"name": "s", "variables": ["x", ["y"]], "equations": []}, "variables must be a JSON array of strings"),
        (
            {"name": "s", "variables": ["x"], "equations": [{"terms": [{"coeff": 1, "monomial": ["x"]}]}]},
            "equations[0].terms[0].monomial must be a JSON object",
        ),
        (
            # x^1.5 = 2y; the exponent used to be truncated to 1
            {
                "name": "s",
                "variables": ["x", "y"],
                "equations": [{"terms": [{"coeff": 1, "monomial": {"x": 1.5}}, {"coeff": -2, "monomial": {"y": 1}}]}],
            },
            "the exponent of x must be a positive integer, not 1.5",
        ),
        ({"variables": ["x"], "equations": []}, "the system: missing key 'name'"),
        ({"name": "s", "equations": []}, "the system: missing key 'variables'"),
        ({"name": "s", "variables": ["x"]}, "the system: missing key 'equations'"),
        ({"name": "s", "variables": ["x"], "equations": [{}]}, "equations[0]: missing key 'terms'"),
        (
            {
                "name": "s",
                "variables": ["x", "y"],
                "equations": [{"terms": [{"coeff": 1, "monomial": {"x": 1}}, {"monomial": {"y": 1}}]}],
            },
            "equations[0].terms[1]: missing key 'coeff'",
        ),
        (
            {
                "name": "s",
                "variables": ["x", "y", "z"],
                "equations": [{"terms": [{"coeff": c, "monomial": {v: 1}} for c, v in ((1, "x"), (1, "y"), (-3, "z"))]}],
                "status": "regular-by-paper",
            },
            "the system: key 'status' is refused, since a label in a file cannot be checked",
        ),
    ],
    ids=[
        "top-level-array",
        "equations-object",
        "variable-list",
        "monomial-list",
        "fractional-exponent",
        "no-name",
        "no-variables",
        "no-equations",
        "no-terms",
        "no-coeff",
        "status",
    ],
)
def test_malformed_system_json_is_named(capsys, tmp_path, system, message):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    code, out, err = run(capsys, ["solve", str(path), "--range", "10"])
    assert (code, out) == (2, "")
    assert err == f"error: cannot read system from {path}: {message}\n"


def test_distinct_keeps_a_status_only_where_it_transfers(capsys):
    # schur is regular with repeats allowed, which says nothing of the
    # narrower policies: x = y is regular with repeats and has no solution
    # in distinct values
    argv = ["solve", "schur", "--coloring", "parity", "--range", "20", "--distinct"]
    for policy, status in (("distinct", "unknown"), ("nontrivial", "unknown"), ("repeats", "regular-by-paper")):
        code, out, _ = run(capsys, argv + [policy])
        assert (code, out.split()[-1]) == (0, f"[status={status}]"), policy
    # "not regular" carries over to the narrower policies only
    sys = dataclasses.replace(schur_system(), distinctness="nontrivial", status="not-regular")
    for policy, status in (("distinct", "not-regular"), ("nontrivial", "not-regular"), ("repeats", "unknown")):
        assert _apply_distinct(sys, argparse.Namespace(distinct=policy)).status == status, policy


@pytest.mark.parametrize(
    "spec, arity",
    [
        ("schur(z)", "schur takes 0 polynomials, got 1"),
        ("mult-schur(z^2)", "mult-schur takes 0 polynomials, got 1"),
        ("ap-times-power(2,2,3,z^2)", "ap-times-power takes 0 polynomials, got 1"),
        ("ap-times-product(1,1,3,z)", "ap-times-product takes 0 polynomials, got 1"),
        # a number is a parameter, wherever the family expects one
        ("schur(1)", "schur takes 0 integer parameters, got 1"),
        ("poly-sum-product(2,z^2)", "poly-sum-product takes 2 integer parameters, got 1"),
        ("ap-times-power(2,2,3/2)", "ap-times-power takes integer parameters, not 3/2"),
    ],
)
def test_template_refuses_arguments_its_family_does_not_take(capsys, spec, arity):
    code, out, err = run(capsys, ["solve", spec, "--coloring", "all-one", "--range", "10"])
    assert (code, out, err) == (2, "", f"error: bad system spec {spec!r}: {arity}\n")


def test_solve_reads_a_fractional_equation_spec(capsys):
    # 1/2 x + 1/2 y = z: x = y = z solves it
    code, out, err = run(capsys, ["solve", "equation(1/2,1/2,-1)", "--coloring", "parity", "--range", "20"])
    assert (code, out, err) == (0, "SOLUTION color=0 {'v1': 2, 'v2': 2, 'v3': 2} [status=regular-by-paper]\n", "")


@pytest.mark.parametrize(
    "spec, distinct, status",
    [
        # no nonempty subset of 1, 1, -3 sums to 0: Rado's column condition
        # fails, under every policy
        ("equation(1,1,-3)", None, "not-regular"),
        ("equation(1,1,-3)", "distinct", "not-regular"),
        ("equation(1,1,-3)", "nontrivial", "not-regular"),
        ("equation(2,3,5)", None, "not-regular"),
        # 1 - 1 = 0: the column condition holds, so by Rado's theorem the
        # equation is regular; --distinct asks for more, which stays unknown
        ("equation(1,2,-1)", None, "regular-by-paper"),
        ("equation(1/2,1/2,-1)", None, "regular-by-paper"),
        ("equation(1,2,-1)", "distinct", "unknown"),
    ],
)
def test_solve_labels_an_equation_that_fails_the_column_condition(capsys, spec, distinct, status):
    argv = ["solve", spec, "--coloring", "parity", "--range", "6"]
    code, payload = run_json(capsys, argv + (["--distinct", distinct] if distinct else []))
    assert payload["inputs"]["status"] == status


def test_solve_concluding_1_keeps_status_label(capsys):
    code, out, _ = run(
        capsys,
        ["solve", "concluding-1(z, z, z)", "--coloring", "all-one", "--range", "30"],
    )
    assert "status=unknown" in out


def test_solve_budget_exit_code(capsys):
    code, out, _ = run(
        capsys,
        [
            "solve",
            "equation(1,1,-3)",
            "--coloring",
            "rado-avoider(1,1,-3;5)",
            "--range",
            "500",
            "--budget-nodes",
            "10",
        ],
    )
    assert code == 3
    assert "BUDGET" in out


def test_solve_json_reports_nodes_on_every_outcome(capsys, tmp_path):
    # a solution: only x1, x2, x3 and y1 are tried, since z and y2 are fixed
    argv = ["solve", "ap-times-power(2,2,3)", "--coloring", "parity", "--range", "24"]
    code, payload = run_json(capsys, argv)
    assert (code, payload["outcome"]["nodes"]) == (0, 502)
    # none in range: each x, then each y >= x with x + y in the class, none
    # in {1, 4} or {2, 3}
    path = tmp_path / "four.col"
    path.write_text("4 2\n0 1 1 0\n")
    code, payload = run_json(capsys, ["solve", "schur", "--coloring", str(path), "--range", "4"])
    assert (code, payload["outcome"]) == (1, {"solution": None, "nodes": 2 + 0 + 2 + 0})
    # the budget runs out at the node past the limit
    code, payload = run_json(capsys, argv + ["--budget-nodes", "100"])
    assert (code, payload["outcome"]) == (3, {"budget_exhausted": True, "nodes": 101})


def test_solve_coloring_file(capsys, tmp_path):
    p = tmp_path / "col.txt"
    p.write_text("4 2\n0 1 1 0\n")
    code, out, _ = run(capsys, ["solve", "equation(1,1,-1)", "--coloring", str(p)])
    assert code == 1  # the Schur avoider on [1..4]


def test_solve_distinct_flag(capsys):
    code, payload = run_json(
        capsys,
        ["solve", "equation(1,1,-2)", "--distinct", "nontrivial", "--range", "9"],
    )
    assert code == 0
    vals = set(payload["outcome"]["solution"].values())
    assert len(vals) > 1


# ---------------------------------------------------------------------------
# rado-number / export-cnf


def test_rado_number_schur(capsys):
    code, payload = run_json(
        capsys, ["rado-number", "schur", "--colors", "2", "--range", "6"]
    )
    assert code == 0
    assert payload["outcome"]["value"] == 5


def test_rado_number_budget(capsys):
    argv = ["rado-number", "schur", "--colors", "2", "--range", "6", "--budget-nodes", "5"]
    code, out, _ = run(capsys, argv)
    assert code == 3
    assert out.startswith("BUDGET (largest avoider N=0, nodes=") and ", pruned=0)" in out
    code, payload = run_json(capsys, argv)
    assert code == 3
    assert payload["outcome"]["exhausted"] is True and payload["outcome"]["pruned"] == 0


def test_rado_number_reports_pruned(capsys):
    argv = ["rado-number", "schur", "--colors", "3", "--range", "20"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == "RADO-NUMBER 14 (avoider for N=13 attached, nodes=2068, pruned=85)\n"
    code, payload = run_json(capsys, argv)
    assert payload["outcome"]["pruned"] == 85


@pytest.mark.parametrize("huge", [str(10**20), str(10**15)])
def test_rado_number_huge_range(capsys, huge):
    # the search's lists grow with the enumerated range, not with --range
    code, out, err = run(capsys, ["rado-number", "schur", "--range", huge])
    assert (code, err) == (0, "")
    assert out.startswith("RADO-NUMBER 5 ")


def test_export_cnf(capsys, tmp_path):
    out_path = str(tmp_path / "schur.cnf")
    code, out, _ = run(
        capsys,
        ["export-cnf", "schur", "--colors", "2", "--range", "5", "--out", out_path],
    )
    assert code == 0
    text = open(out_path).read()
    assert "p cnf 10 " in text


def test_export_cnf_truncated_exits_3(capsys, tmp_path):
    # x1+x2+x3+x4 = x5 over [1..100] needs more than the 200,000-node limit
    argv = ["export-cnf", "equation(1,1,1,1,-1)", "--range", "100", "--out", str(tmp_path / "g.cnf")]
    code, out, _ = run(capsys, argv)
    assert code == 3
    assert "TRUNCATED" in out and "200,000-node tuple limit" in out
    assert "under-approximates" in (tmp_path / "g.cnf").read_text()
    code, report = run_json(capsys, argv)
    assert code == 3
    assert report["outcome"]["truncated"] is True
    # the report names the fixed limit applied, and no other can be set
    assert report["budget"] == {"range": 100, "node_limit": 200000}
    code, out, err = run(capsys, argv + ["--budget-nodes", "7"])
    assert (code, out) == (2, "")
    assert err == "error: unrecognized arguments: --budget-nodes 7\n"


def test_export_cnf_bad_out_fails_before_enumerating(capsys, monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("export_cnf ran")

    monkeypatch.setattr("radolab.search.export_cnf", enumerate_nothing)
    code, out, err = run(capsys, ["export-cnf", "schur", "--range", "5", "--out", "/nonexistent/dir/x.cnf"])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write /nonexistent/dir/x.cnf: ") and err.count("\n") == 1


def test_export_cnf_complete_reports_not_truncated(capsys, tmp_path):
    # one solution per orbit of x1..x4 keeps [1..40] within the limit
    out_path = tmp_path / "g.cnf"
    argv = ["export-cnf", "equation(1,1,1,1,-1)", "--range", "40", "--out", str(out_path)]
    code, report = run_json(capsys, argv)
    assert code == 0
    assert report["outcome"] == {"file": str(out_path), "header": "p cnf 80 10288", "truncated": False}
    assert "WARNING" not in out_path.read_text()


# ---------------------------------------------------------------------------
# fsfp / polyvdw


def test_fsfp_all_one(capsys):
    code, out, _ = run(capsys, ["fsfp", "--coloring", "all-one", "--depth", "2"])
    assert code == 0
    assert "WITNESS" in out


def test_fsfp_no_witness(capsys):
    code, out, _ = run(
        capsys, ["fsfp", "--coloring", "parity", "--range", "2", "--depth", "2"]
    )
    assert code == 1
    assert "NO WITNESS" in out


def test_polyvdw(capsys):
    code, payload = run_json(
        capsys, ["polyvdw", "--coloring", "all-one", "--polys", "z,2z", "--range", "10"]
    )
    assert code == 0
    assert (payload["outcome"]["a"], payload["outcome"]["d"]) == (1, 1)


def test_random_coloring_honours_colors(capsys):
    argv = ["polyvdw", "--coloring", "random(3)", "--colors", "3", "--polys", "z", "--range", "50"]
    code, payload = run_json(capsys, argv)
    assert code == 0
    outcome = payload["outcome"]
    expected = poly_vdw_witness(random_coloring(50, 3, 3), [poly_parse("z")])
    assert (outcome["a"], outcome["d"], outcome["color"]) == expected
    assert expected[2] == 2  # a colour that two colours cannot give


@pytest.mark.parametrize(
    "argv, colors",
    [
        (["solve", "schur", "--coloring", "parity", "--range", "10"], 2),
        (["solve", "equation(1,1,-3)", "--coloring", "rado-avoider(1,1,-3;5)", "--range", "30"], 4),
        (["fsfp", "--coloring", "all-one", "--range", "10"], 1),
        (["polyvdw", "--coloring", "parity", "--polys", "z", "--range", "30"], 2),
    ],
)
def test_colors_come_from_the_coloring(capsys, argv, colors):
    code, payload = run_json(capsys, argv)
    assert payload["inputs"]["colors"] == colors
    # an explicit --colors that agrees changes nothing; one that disagrees is refused
    again = run_json(capsys, argv + ["--colors", str(colors)])
    assert (again[0], again[1]["outcome"]) == (code, payload["outcome"])
    code, out, err = run(capsys, argv + ["--colors", str(colors + 1)])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and f"--colors {colors + 1} disagrees" in err


def test_random_coloring_reports_its_colors(capsys):
    argv = ["fsfp", "--coloring", "random(4)", "--range", "10"]
    assert run_json(capsys, argv)[1]["inputs"]["colors"] == 2
    assert run_json(capsys, argv + ["--colors", "5"])[1]["inputs"]["colors"] == 5


def test_colors_must_match_a_coloring_file(capsys, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("4 3\n0 1 2 0\n")
    argv = ["solve", "schur", "--coloring", str(path), "--range", "4", "--json"]
    code, payload = run_json(capsys, argv[:-1])
    assert payload["inputs"]["colors"] == 3
    code, out, err = run(capsys, argv + ["--colors", "2"])
    assert (code, out) == (2, "") and err.count("\n") == 1


def test_polyvdw_refuses_an_empty_list(capsys):
    code, out, err = run(capsys, ["polyvdw", "--polys", ",", "--range", "10"])
    assert (code, out, err) == (2, "", "error: need at least one polynomial\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "schur", "--coloring", "random"],
        ["fsfp", "--coloring", "random"],
        ["polyvdw", "--coloring", "random", "--polys", "z"],
        ["rado-number", "schur"],
        ["export-cnf", "schur", "--out", "OUT"],
    ],
    ids=["solve", "fsfp", "polyvdw", "rado-number", "export-cnf"],
)
def test_colors_below_1_is_named(capsys, tmp_path, argv):
    out = tmp_path / "refused.cnf"
    argv = [str(out) if a == "OUT" else a for a in argv]
    code, stdout, err = run(capsys, argv + ["--colors", "0", "--range", "10"])
    assert (code, stdout) == (2, "")
    assert err == "error: --colors must be at least 1, not 0\n"
    assert not out.exists()


def test_polyvdw_bad_poly(capsys):
    code, _, err = run(
        capsys, ["polyvdw", "--coloring", "all-one", "--polys", "z^2 + 1"]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# constructions


def test_construct_thm34(capsys):
    code, payload = run_json(
        capsys,
        [
            "construct-thm34",
            "--a-list", "1",
            "--a", "5",
            "--d", "1",
            "--polys", "z^2",
        ],
    )
    assert code == 0
    assert payload["outcome"]["assignments"] == [
        {"x1": 5, "y1": 1, "y2": 1, "z1": 4}
    ]
    assert payload["outcome"]["all_satisfied"] is True
    assert payload["outcome"]["integral"] is True


def test_construct_thm34_rejects_bad_input(capsys):
    code, _, err = run(
        capsys,
        ["construct-thm34", "--a-list", "0", "--a", "1", "--d", "1", "--polys", "z"],
    )
    assert code == 2


def test_construct_thm37(capsys, matrix_file, tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1 1 -1")
    code, payload = run_json(
        capsys,
        [
            "construct-thm37",
            str(p),
            "--kernel-vec", "1,1,2",
            "--a", "10",
            "--d", "2",
            "--polys", "z^2",
        ],
    )
    assert code == 0
    assert payload["outcome"]["assignment"] == {"x1": 10, "x2": 10, "y1": 24, "z": 2}
    assert payload["outcome"]["all_satisfied"] is True


def test_construct_thm37_reports_elapsed(capsys, tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1 1 -1")
    argv = ["construct-thm37", str(p), "--kernel-vec", "1,1,2", "--a", "10", "--d", "2", "--polys", "z^2"]
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert payload["elapsed_s"] > 0


def test_construction_elapsed_includes_the_construction(capsys, monkeypatch, matrix_file):
    # the clock advances only inside the construction, so elapsed_s is
    # exactly the construction's time
    clock = [100.0]
    monkeypatch.setattr("radolab.cli.time.perf_counter", lambda: clock[0])
    for name in ("construct_thm34", "construct_thm37"):
        def slow(*args, _construct=getattr(systems, name)):
            clock[0] += 5
            return _construct(*args)

        monkeypatch.setattr(systems, name, slow)
    runs = [
        ["construct-thm34", "--a-list", "1", "--a", "5", "--d", "1", "--polys", "z^2"],
        ["construct-thm37", matrix_file("1 1 -1"), "--kernel-vec", "1,1,2", "--a", "10", "--d", "2", "--polys", "z^2"],
    ]
    for argv in runs:
        code, payload = run_json(capsys, argv)
        assert (code, payload["elapsed_s"]) == (0, 5.0), argv[0]


def test_construct_thm37_picks_a_kernel_vector_with_x_n_nonzero(capsys, matrix_file):
    # the basis of 1 1 -1 is (-1, 1, 0), (1, 0, 1); the first has x_n = 0
    argv = ["construct-thm37", matrix_file("1 1 -1"), "--a", "1", "--d", "2", "--polys", "z"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == "assignment: {'x1': 1, 'x2': 0, 'y1': 3, 'z': 2}\nresiduals: [0]\nintegral: False\n"
    # every kernel vector of this one has x_3 = 0
    argv = ["construct-thm37", matrix_file("1 1 -1\n0 0 1", "B.txt"), "--a", "1", "--d", "2", "--polys", "z,z"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: no kernel vector of the matrix has x_n != 0, which Theorem 3.7 needs\n"


def test_construct_thm37_non_kernel_vec(capsys, tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1 1 -1")
    code, _, err = run(
        capsys,
        [
            "construct-thm37",
            str(p),
            "--kernel-vec", "1,1,1",
            "--a", "1",
            "--d", "1",
            "--polys", "z",
        ],
    )
    assert code == 2


# ---------------------------------------------------------------------------
# usage / report invariants


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_0(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: radolab")


# each subcommand with a run that exits 0, and the options its cmd_* reads
IN_RANGE = {"--json", "--range", "--colors"}
SUBCOMMANDS = {
    "check-cc": (["check-cc", "MATRIX"], {"--json"}),
    "expand": (["expand", "MATRIX"], {"--json"}),
    "kernel": (["kernel", "MATRIX"], {"--json"}),
    "constant-solution": (["constant-solution", "MATRIX", "--rhs", "3"], {"--json"}),
    "solve": (["solve", "schur", "--coloring", "parity"], IN_RANGE | {"--distinct", "--budget-nodes"}),
    "rado-number": (["rado-number", "schur", "--range", "6"], IN_RANGE | {"--distinct", "--budget-nodes"}),
    "export-cnf": (["export-cnf", "schur", "--range", "5", "--out", "OUT"], IN_RANGE | {"--distinct"}),
    "fsfp": (["fsfp", "--coloring", "parity", "--range", "30"], IN_RANGE),
    "polyvdw": (["polyvdw", "--coloring", "parity", "--polys", "z"], IN_RANGE),
    "construct-thm34": (["construct-thm34", "--a-list", "1", "--a", "5", "--d", "1", "--polys", "z^2"], {"--json"}),
    "construct-thm37": (
        ["construct-thm37", "MATRIX", "--kernel-vec", "1,1,2", "--a", "10", "--d", "2", "--polys", "z^2"],
        {"--json"},
    ),
}
# the options every subcommand used to accept, with a value each
OLD_SHARED_OPTIONS = {
    "--json": [],
    "--seed": ["1"],
    "--budget-nodes": ["100000"],
    "--range": ["10"],
    "--colors": ["2"],
    "--distinct": ["repeats"],
}


def subcommand_argv(command, matrix_file, tmp_path):
    paths = {"MATRIX": matrix_file("1 1 -1"), "OUT": str(tmp_path / "out.cnf")}
    return [paths.get(a, a) for a in SUBCOMMANDS[command][0]]


@pytest.mark.parametrize("option", OLD_SHARED_OPTIONS)
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_each_subcommand_takes_only_the_options_it_reads(capsys, matrix_file, tmp_path, command, option):
    given = [option] + OLD_SHARED_OPTIONS[option]
    code, _, err = run(capsys, subcommand_argv(command, matrix_file, tmp_path) + given)
    if option in SUBCOMMANDS[command][1]:
        assert (code, err) == (0, "")
    else:
        assert code == 2
        assert err == f"error: unrecognized arguments: {' '.join(given)}\n"
        assert not (tmp_path / "out.cnf").exists()


@pytest.mark.parametrize(
    "command, budget",
    [
        ("check-cc", (None, None)),
        ("expand", (None, None)),
        ("kernel", (None, None)),
        ("constant-solution", (None, None)),
        ("solve", (100, None)),
        ("rado-number", (6, None)),
        ("export-cnf", (5, 200000)),
        ("fsfp", (30, None)),
        ("polyvdw", (100, None)),
        ("construct-thm34", (None, None)),
        ("construct-thm37", (None, None)),
    ],
)
def test_report_names_the_budget_applied(capsys, matrix_file, tmp_path, command, budget):
    argv = subcommand_argv(command, matrix_file, tmp_path)
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert payload["budget"] == {"range": budget[0], "node_limit": budget[1]}
    if "--budget-nodes" in SUBCOMMANDS[command][1]:
        code, payload = run_json(capsys, argv + ["--budget-nodes", "100000"])
        assert payload["budget"] == {"range": budget[0], "node_limit": 100000}


# every subcommand's human line and JSON report (less elapsed_s), on the runs
# of SUBCOMMANDS, a not-found or budget run of each subcommand that has one,
# runs whose values are fractions, and the four runs of the benchmark's
# matrix-and-coloring workload (seed 1); each entry is argv, exit code, human
# stdout, then the report's inputs, outcome and (range, node_limit) budget
GOLDEN_MATRICES = {"MATRIX": "1 1 -1", "NO-CC": "1 1 -3", "IDENTITY": "1 0\n0 1", "DIFF": "1 -1"}
GOLDEN = [
    (
        ["check-cc", "MATRIX"],
        0,
        "SATISFIED blocks=[[1, 3], [2]]\n",
        {"matrix": "1 1 -1"},
        {"satisfied": True, "witness": {"blocks": [[1, 3], [2]]}},
        (None, None),
    ),
    (
        ["check-cc", "NO-CC"],
        1,
        "NOT SATISFIED\n",
        {"matrix": "1 1 -3"},
        {"satisfied": False},
        (None, None),
    ),
    (
        ["expand", "MATRIX"],
        0,
        "1 1 -1\n",
        {"matrix": "1 1 -1"},
        {"expanded": "1 1 -1"},
        (None, None),
    ),
    (
        ["kernel", "MATRIX"],
        0,
        "-1 1 0\n1 0 1\n",
        {"matrix": "1 1 -1"},
        {"basis": [[-1, 1, 0], [1, 0, 1]]},
        (None, None),
    ),
    (
        ["kernel", "IDENTITY"],
        1,
        "(trivial kernel)\n",
        {"matrix": "1 0\n0 1"},
        {"basis": []},
        (None, None),
    ),
    (
        ["constant-solution", "MATRIX", "--rhs", "3"],
        0,
        "CONSTANT d = 3\n",
        {"matrix": "1 1 -1", "rhs": "3"},
        {"constant": 3},
        (None, None),
    ),
    (
        ["constant-solution", "DIFF", "--rhs", "5"],
        1,
        "NO CONSTANT SOLUTION\n",
        {"matrix": "1 -1", "rhs": "5"},
        {"constant": None},
        (None, None),
    ),
    (
        ["solve", "schur", "--coloring", "parity"],
        0,
        "SOLUTION color=0 {'x': 2, 'y': 2, 'z': 4} [status=regular-by-paper]\n",
        {"coloring": "parity", "colors": 2, "status": "regular-by-paper", "system": "schur"},
        {"color": 0, "nodes": 2, "solution": {"x": 2, "y": 2, "z": 4}},
        (100, None),
    ),
    (
        ["solve", "schur", "--coloring", "parity", "--budget-nodes", "1"],
        3,
        "BUDGET (node budget 1 exhausted)\n",
        {"coloring": "parity", "colors": 2, "status": "regular-by-paper", "system": "schur"},
        {"budget_exhausted": True, "nodes": 2},
        (100, 1),
    ),
    (
        ["rado-number", "schur", "--range", "6"],
        0,
        "RADO-NUMBER 5 (avoider for N=4 attached, nodes=33, pruned=2)\n",
        {"colors": 2, "system": "schur"},
        {"avoider": "4 2\n0 1 1 0\n", "exhausted": False, "nodes": 33, "pruned": 2, "value": 5},
        (6, None),
    ),
    (
        ["rado-number", "schur", "--range", "4"],
        1,
        "UNRESOLVED up to N=4 (avoider exists at N=4)\n",
        {"colors": 2, "system": "schur"},
        {"avoider": "4 2\n0 1 1 0\n", "exhausted": False, "nodes": 19, "pruned": 1, "value": None},
        (4, None),
    ),
    (
        ["rado-number", "schur", "--range", "6", "--budget-nodes", "5"],
        3,
        "BUDGET (largest avoider N=0, nodes=6, pruned=0)\n",
        {"colors": 2, "system": "schur"},
        {"avoider": None, "exhausted": True, "nodes": 6, "pruned": 0, "value": None},
        (6, 5),
    ),
    (
        ["export-cnf", "schur", "--range", "5", "--out", "OUT"],
        0,
        "WROTE OUT (p cnf 10 22)\n",
        {"colors": 2, "range": 5, "system": "schur"},
        {"file": "OUT", "header": "p cnf 10 22", "truncated": False},
        (5, 200000),
    ),
    (
        ["export-cnf", "equation(1,1,1,1,-1)", "--range", "100", "--out", "OUT"],
        3,
        "WROTE OUT (p cnf 200 313506); TRUNCATED: solution enumeration hit the 200,000-node tuple limit,"
        " so the instance under-approximates\n",
        {"colors": 2, "range": 100, "system": "equation(1,1,1,1,-1)"},
        {"file": "OUT", "header": "p cnf 200 313506", "truncated": True},
        (100, 200000),
    ),
    (
        ["fsfp", "--coloring", "parity", "--range", "30"],
        0,
        "WITNESS a=[2, 2] b=[2, 2] color=0\n",
        {"coloring": "parity", "colors": 2, "depth": 2},
        {"a_seq": [2, 2], "b_seq": [2, 2], "color": 0},
        (30, None),
    ),
    (
        ["fsfp", "--coloring", "parity", "--range", "2"],
        1,
        "NO WITNESS AT THIS SCALE\n",
        {"coloring": "parity", "colors": 2, "depth": 2},
        {"witness": None},
        (2, None),
    ),
    (
        ["polyvdw", "--coloring", "parity", "--polys", "z"],
        0,
        "WITNESS a=1 d=2 color=1\n",
        {"coloring": "parity", "colors": 2, "polys": "z"},
        {"a": 1, "color": 1, "d": 2},
        (100, None),
    ),
    (
        ["polyvdw", "--coloring", "parity", "--polys", "z", "--range", "2"],
        1,
        "NO WITNESS AT THIS SCALE\n",
        {"coloring": "parity", "colors": 2, "polys": "z"},
        {"witness": None},
        (2, None),
    ),
    (
        ["construct-thm34", "--a-list", "1", "--a", "5", "--d", "1", "--polys", "z^2"],
        0,
        "equation 1: {'x1': 5, 'y1': 1, 'y2': 1, 'z1': 4}\nresiduals: [0]\nintegral: True\n",
        {"a": "5", "a_list": "1", "b_list": "", "d": "1", "polys": "z^2"},
        {
            "all_satisfied": True,
            "assignments": [{"x1": 5, "y1": 1, "y2": 1, "z1": 4}],
            "integral": True,
            "residuals": [0],
        },
        (None, None),
    ),
    (
        ["construct-thm34", "--a-list", "1,2", "--b-list", "3", "--a", "5", "--d", "1", "--polys", "z^2"],
        0,
        "equation 1: {'x1': 15, 'x2': 30, 'y1': 3, 'y2': 3, 'y3': 1, 'z1': 44/9}\n"
        "residuals: [0]\nintegral: False\n",
        {"a": "5", "a_list": "1,2", "b_list": "3", "d": "1", "polys": "z^2"},
        {
            "all_satisfied": True,
            "assignments": [{"x1": 15, "x2": 30, "y1": 3, "y2": 3, "y3": 1, "z1": "44/9"}],
            "integral": False,
            "residuals": [0],
        },
        (None, None),
    ),
    (
        ["construct-thm37", "MATRIX", "--kernel-vec", "1,1,2", "--a", "10", "--d", "2", "--polys", "z^2"],
        0,
        "assignment: {'x1': 10, 'x2': 10, 'y1': 24, 'z': 2}\nresiduals: [0]\nintegral: True\n",
        {"a": "10", "d": "2", "matrix": "1 1 -1", "polys": "z^2"},
        {
            "all_satisfied": True,
            "assignment": {"x1": 10, "x2": 10, "y1": 24, "z": 2},
            "integral": True,
            "residuals": [0],
        },
        (None, None),
    ),
    (
        ["construct-thm37", "MATRIX", "--kernel-vec", "1,1,2", "--a", "1/2", "--d", "1/3", "--polys", "z^2"],
        0,
        "assignment: {'x1': 1/2, 'x2': 1/2, 'y1': 10/9, 'z': 1/3}\n"
        "residuals: [0]\nintegral: False\n",
        {"a": "1/2", "d": "1/3", "matrix": "1 1 -1", "polys": "z^2"},
        {
            "all_satisfied": True,
            "assignment": {"x1": "1/2", "x2": "1/2", "y1": "10/9", "z": "1/3"},
            "integral": False,
            "residuals": [0],
        },
        (None, None),
    ),
    (
        ["solve", "equation(1,1,-3)", "--coloring", "rado-avoider(1,1,-3;5)", "--range", "600"],
        1,
        "NONE-IN-RANGE [1..600] [status=not-regular]\n",
        {"coloring": "rado-avoider(1,1,-3;5)", "colors": 4, "status": "not-regular", "system": "equation(1,1,-3)"},
        # a node per x; the colouring avoids x + y = 3z, so no y has its z
        # in x's class and none is tried
        {"nodes": 600, "solution": None},
        (600, None),
    ),
    (
        ["solve", "ap-times-power(2,2,3)", "--coloring", "parity", "--range", "24"],
        0,
        "SOLUTION color=0 {'x1': 2, 'x2': 8, 'x3': 6, 'y1': 4, 'y2': 6, 'z': 2} [status=regular-by-paper]\n",
        {"coloring": "parity", "colors": 2, "status": "regular-by-paper", "system": "ap-times-power(l=2,m=2,n=3)"},
        {"color": 0, "nodes": 502, "solution": {"x1": 2, "x2": 8, "x3": 6, "y1": 4, "y2": 6, "z": 2}},
        (24, None),
    ),
    (
        ["fsfp", "--coloring", "random(358)", "--range", "300", "--depth", "2"],
        0,
        "WITNESS a=[1, 1] b=[1, 1] color=0\n",
        {"coloring": "random(358)", "colors": 2, "depth": 2},
        {"a_seq": [1, 1], "b_seq": [1, 1], "color": 0},
        (300, None),
    ),
    (
        ["polyvdw", "--coloring", "parity", "--polys", "z^2, 2z^2", "--range", "200"],
        0,
        "WITNESS a=1 d=2 color=1\n",
        {"coloring": "parity", "colors": 2, "polys": "z^2, 2z^2"},
        {"a": 1, "color": 1, "d": 2},
        (200, None),
    ),
]


@pytest.mark.parametrize("argv, code, human, inputs, outcome, budget", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_each_subcommand_prints_its_pinned_output(
    capsys, matrix_file, tmp_path, argv, code, human, inputs, outcome, budget
):
    paths = {name: matrix_file(text, name) for name, text in GOLDEN_MATRICES.items()}
    paths["OUT"] = str(tmp_path / "out.cnf")
    real = [paths.get(a, a) for a in argv]
    got = run(capsys, real)
    assert (got[0], got[1].replace(paths["OUT"], "OUT"), got[2]) == (code, human, "")
    got_code, payload = run_json(capsys, real)
    assert payload.pop("elapsed_s") >= 0
    assert (got_code, json.loads(json.dumps(payload).replace(paths["OUT"], "OUT"))) == (
        code,
        {
            "command": argv[0],
            "inputs": inputs,
            "outcome": outcome,
            "budget": {"range": budget[0], "node_limit": budget[1]},
        },
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "schur", "--range", "0"],
        ["rado-number", "schur", "--colors", "0"],
        ["fsfp", "--depth", "7"],
        ["solve", "schur", "--coloring", "rado-avoider(1,a;5)"],
        ["solve", "schur", "--coloring", "rado-avoider(" + ",".join(["1"] * (MAX_COLS + 1)) + ";101)"],
        ["solve", "schur", "--coloring", f"rado-avoider({10**12 + 1},1,-3;{10**29 + 1})"],
        ["check-cc", "TOO-WIDE"],
        ["solve", "schur", "--coloring", "parity", "--range", str(10**20)],
        ["solve", "schur", "--coloring", "all-one", "--range", str(MAX_RANGE + 1)],
        ["fsfp", "--range", str(10**20)],
        ["polyvdw", "--polys", "z", "--range", str(10**20)],
        ["polyvdw", "--coloring", "random(3)", "--range", "50", "--polys", "0z"],
        ["export-cnf", "schur", "--colors", "2", "--range", str(10**8), "--out", "OUT"],
        ["export-cnf", "schur", "--colors", "40", "--range", str(MAX_RANGE), "--out", "OUT"],
        *([cmd, system, "--range", "5"] for system in ("REPEATED", "NO-VARIABLES") for cmd in ("solve", "rado-number")),
        *(["export-cnf", system, "--range", "5", "--out", "OUT"] for system in ("REPEATED", "NO-VARIABLES")),
    ],
    ids=[
        "range-0",
        "colors-0",
        "depth-7",
        "avoider-coeff",
        "avoider-too-many-coeffs",
        "avoider-too-many-trial-divisions",
        "too-many-columns",
        "solve-huge-range",
        "solve-range-above-max",
        "fsfp-huge-range",
        "polyvdw-huge-range",
        "polyvdw-zero-polys",
        "export-cnf-huge-range",
        "export-cnf-too-many-clauses",
        "solve-repeated-variables",
        "rado-number-repeated-variables",
        "solve-no-variables",
        "rado-number-no-variables",
        "export-cnf-repeated-variables",
        "export-cnf-no-variables",
    ],
)
def test_bad_input_exits_2_with_one_line(capsys, matrix_file, tmp_path, argv):
    files = {
        "TOO-WIDE": matrix_file(" ".join(["1"] * (MAX_COLS + 1))),
        "REPEATED": matrix_file(json.dumps({"name": "s", "variables": ["x", "x", "y"], "equations": []}), "repeated.json"),
        "NO-VARIABLES": matrix_file(json.dumps({"name": "s", "variables": [], "equations": []}), "none.json"),
    }
    out = tmp_path / "refused.cnf"
    code, _, err = run(capsys, [{**files, "OUT": str(out)}.get(a, a) for a in argv])
    assert code == 2
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "spec, form",
    [
        ("rado-avoider", "rado-avoider(c1,c2,...;p)"),
        ("rado-avoider(1,1,-3)", "rado-avoider(c1,c2,...;p)"),
        ("random(", "random or random(seed)"),
        ("random(x)", "random or random(seed)"),
    ],
)
def test_malformed_coloring_spec_is_named(capsys, spec, form):
    code, _, err = run(capsys, ["solve", "schur", "--coloring", spec])
    assert code == 2
    assert err == f"error: bad coloring spec {spec!r}: expected {form}\n"


def test_json_report_shape(capsys, matrix_file):
    code, payload = run_json(capsys, ["check-cc", matrix_file("1 1 -1")])
    assert set(payload) == {"command", "inputs", "outcome", "elapsed_s", "budget"}


def test_json_report_reproducible(capsys, matrix_file):
    path = matrix_file("1 2 -3\n2 -1 -1")
    _, p1 = run_json(capsys, ["check-cc", path])
    _, p2 = run_json(capsys, ["check-cc", path])
    p1.pop("elapsed_s")
    p2.pop("elapsed_s")
    assert p1 == p2


def _corpus_systems(rng, files):
    """Template specs with parameter counts off by one and zero, negative and
    huge parameters, and the JSON system files of `files`."""
    numbers = ("0", "-1", "1", "2", "2", "3", "3", "1/2", str(10**9), str(10**30))
    polys = ("z", "z^2", "2z^2 - z", "z^64", "z^65", "z^1000000000", "0")
    specs = list(files.values())
    specs += ["equation(1,1,-2)", "poly-sum-product(1,1,z^2)", "sums-with-poly(2,z^2)", "power-product(z^2,z^3)"]
    specs += ["ap-times-product(1,1,3)", "ap-times-power(2,2,3)", "rational-function(2,z,z^2)", "concluding-1(z,z,z)"]
    specs += ["concluding-2(z,z^2)", "concluding-3(z,z,z)"]
    for family, (n_ints, n_polys, _) in systems._TEMPLATES.items():
        specs.append(family)
        for ints in range(4) if n_ints is None else (n_ints - 1, n_ints, n_ints + 1):
            for k in range(3) if n_polys is None else (n_polys - 1, n_polys, n_polys + 1):
                if ints >= 0 and k >= 0:
                    args = [rng.choice(numbers) for _ in range(ints)] + [rng.choice(polys) for _ in range(k)]
                    specs.append(f"{family}({','.join(args)})")
    return specs


def test_seeded_cli_corpus_exits_0_to_3_without_a_traceback(capsys, matrix_file, tmp_path):
    # each input runs in-process, so an exception that escapes main fails
    # the test with its traceback
    rng = random.Random(26)

    def x_power_is_y(e):
        return [{"terms": [{"coeff": 1, "monomial": {"x": e}}, {"coeff": -1, "monomial": {"y": 1}}]}]

    systems_json = {
        "no-variables": {"variables": [], "equations": []},
        "no-equations": {"variables": ["x"], "equations": []},
        "repeated": {"variables": ["x", "x", "y"], "equations": x_power_is_y(1)},
        "constant-only": {"variables": ["x"], "equations": [{"terms": [{"coeff": 5}]}]},
        "zero-constant": {"variables": ["x", "y"], "equations": [{"terms": [{"coeff": 0}]}]},
        **{f"exponent-{e}": {"variables": ["x", "y"], "equations": x_power_is_y(e)} for e in (64, 65, 10**9)},
        "65-variables": {"variables": [f"v{i}" for i in range(65)], "equations": []},
    }
    files = {name: matrix_file(json.dumps({"name": name, **data}), f"{name}.json") for name, data in systems_json.items()}
    colorings = ["all-one", "parity", "random", "random(7)", "random(-3)", "random(", "rado-avoider(1,1,-3;5)"]
    colorings += ["rado-avoider(1,2;0)", "rado-avoider(0;7)", matrix_file("5 2\n0 1 0 1 0\n", "c.txt"), "bogus"]
    ranges = ["-1", "0", "1", "2", "30", str(MAX_RANGE + 1)]
    colors = ["-1", "0", "1", "2", "3", str(10**9)]
    out = str(tmp_path / "corpus.cnf")
    corpus, budget = [], ["--budget-nodes", "500"]
    for spec in _corpus_systems(rng, files):
        corpus += [
            ["solve", spec, "--coloring", rng.choice(colorings[:3]), "--range", "30", *budget],
            ["rado-number", spec, "--range", "30", *budget],
            ["export-cnf", spec, "--range", "12", "--out", out],
            # the same at the edges of --range, --colors and --budget-nodes
            ["solve", spec, "--coloring", rng.choice(colorings), "--range", rng.choice(ranges), "--budget-nodes", "1"],
            ["rado-number", spec, "--range", rng.choice(ranges + [str(10**20)]), "--colors", rng.choice(colors), *budget],
            ["export-cnf", spec, "--range", rng.choice(ranges[:5]), "--colors", rng.choice(colors[:5]), "--out", out],
        ]
    for coloring in colorings:
        base = ["--coloring", coloring, "--range", rng.choice(ranges[:5])]
        corpus += [
            ["solve", "schur", *base, "--colors", rng.choice(colors)],
            ["fsfp", *base, "--depth", rng.choice(["-1", "0", "1", "2", "7"])],
            ["polyvdw", *base, "--polys", rng.choice(["z", "z^2, 2z^2", "z^65", "0z", ""])],
        ]
    start = time.perf_counter()
    for argv in corpus:
        code, stdout, err = run(capsys, argv)
        assert code in (0, 1, 2, 3), argv
        if code == 2:
            assert err.startswith("error: ") and len(err.splitlines()) == 1, (argv, err)
        assert "Traceback" not in stdout + err, argv
    assert time.perf_counter() - start < 20
