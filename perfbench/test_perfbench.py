"""Tests of the benchmark itself: seeded inputs, the answer checks, and a
short in-process pass over every workload."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import radolab  # noqa: E402
import radolab.cli  # noqa: E402

RL = run.namespace(radolab, radolab.cli)


def _plain(x):
    """A comparable rendering of a query argument."""
    if isinstance(x, RL.exactq.Matrix):
        return ("matrix", x.rows)
    if isinstance(x, RL.colorings.Coloring):
        return ("coloring", x.N, x.r, x.colors)
    if isinstance(x, RL.polyring.Poly):
        return ("poly", tuple(x.coeffs.items()))
    if isinstance(x, RL.systems.EquationSystem):
        return ("system", x.name, x.variables, repr(x.equations), x.distinctness)
    if isinstance(x, RL.search.SearchBudget):
        return ("budget", x.N, x.node_limit)
    if isinstance(x, (list, tuple)):
        return tuple(_plain(e) for e in x)
    if isinstance(x, dict):
        return tuple(sorted((k, _plain(v)) for k, v in x.items()))
    return x


def _inputs(name, seed):
    qs = workloads.build(RL, name, seed, spans.NullTracer())
    return [(q.qid, q.kind, q.variant, _plain(q.args)) for q in qs]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    first = _inputs(name, 7)
    assert first == _inputs(name, 7)
    other = _inputs(name, 8)
    assert sorted(q[0] for q in first) == sorted(q[0] for q in other)
    assert first != other


def _query(name, qid):
    return next(q for q in workloads.build(RL, name, 1, spans.NullTracer()) if q.qid == qid)


def _answer(q):
    ans = workloads.run_query(RL, q, spans.NullTracer())
    assert checks.check(RL, q, ans) is None
    return ans


def test_check_rejects_moved_witness_column():
    A = RL.exactq.Matrix([[1, 1, -1]])
    polys = (RL.polyring.poly_parse("z^2"),)
    q = workloads.Query("schur", "cc", {"A": A, "mix": (1, 1), "a": 1, "d": 1, "polys": polys, "expect_witness": True})
    w, basis, thm = _answer(q)
    assert w.blocks == ((1, 3), (2,))
    moved = RL.radomat.ColumnPartitionWitness(((1,), (2, 3)))
    assert checks.check(RL, q, (moved, basis, thm)) is not None


def test_check_rejects_bad_kernel_and_construction():
    q = _query("matrix-and-coloring", "tail-3-n12")
    w, basis, thm = _answer(q)
    assert checks.check(RL, q, (None, basis, thm)) is not None  # planted witness dropped
    assert checks.check(RL, q, (w, basis[1:], thm)) is not None
    bulk = [q for q in workloads.build(RL, "matrix-and-coloring", 1, spans.NullTracer()) if q.qid.startswith("bulk-")]
    q = next(q for q in bulk if _answer(q)[2] is not None)
    w, basis, (X, sys_, asg) = _answer(q)
    bad = dict(asg, z=asg["z"] + 1)
    assert checks.check(RL, q, (w, basis, (X, sys_, bad))) is not None


def test_check_rejects_rado_value_off_by_one():
    q = _query("avoider-search", "schur-r2")
    res = _answer(q)
    assert res.value == 5
    for value in (4, 6):
        assert checks.check(RL, q, dataclasses.replace(res, value=value)) is not None


def test_check_rejects_avoider_with_one_colour_flipped():
    q = _query("avoider-search", "schur-r2")
    res = _answer(q)
    colors = res.avoider.colors
    for k in range(len(colors)):
        flipped = colors[:k] + (1 - colors[k],) + colors[k + 1 :]
        bad = dataclasses.replace(res, avoider=RL.colorings.Coloring(len(colors), 2, flipped))
        assert checks.check(RL, q, bad) is not None


def test_check_rejects_truncated_cnf():
    q = _query("avoider-search", "cnf-schur-r3-N13")
    text = _answer(q)
    lines = text.splitlines()
    assert checks.check(RL, q, "\n".join(lines[:-1]) + "\n") is not None


def test_check_rejects_wrong_solutions_and_witnesses():
    q = _query("matrix-and-coloring", "positive-0")
    rec = _answer(q)
    last = q.args["sys"].variables[-1]
    bad = dataclasses.replace(rec, assignment={**rec.assignment, last: rec.assignment[last] + 1})
    assert checks.check(RL, q, bad) is not None
    q = _query("matrix-and-coloring", "avoider-equation(1,1,-3)-p5")
    assert checks.check(RL, q, rec) is not None  # any solution under an avoider is wrong
    q = _query("matrix-and-coloring", "fsfp-d3-parity")
    w = _answer(q)
    assert checks.check(RL, q, dataclasses.replace(w, a_seq=(1,) + w.a_seq[1:])) is not None
    q = next(q for q in workloads.build(RL, "matrix-and-coloring", 1, spans.NullTracer()) if q.kind == "polyvdw")
    a, d, color = _answer(q)
    assert checks.check(RL, q, (a, d, 1 - color)) is not None


def _cheap_matrix_or_coloring(q):
    if q.qid.startswith("bulk-"):
        return int(q.qid[5:]) < 60
    if q.qid.startswith("tail-"):
        return q.qid == "tail-0-n10"
    return not q.qid.startswith(("aptp", "crit8-random1", "crit8-random2", "avoider-equation(1,1,-3)"))


# queries cheap enough for the smoke pass: every kind, on every workload
SMOKE = {
    "matrix-and-coloring": _cheap_matrix_or_coloring,
    "avoider-search": lambda q: q.qid
    in {"schur-r2", "vdw-3-r2", "weak-schur-r2", "x+y=3z", "schur-r4", "cnf-schur-r3-N13", "cnf-3ap-r2-N300"},
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_pass(name):
    queries = [q for q in workloads.build(RL, name, 3, spans.NullTracer()) if SMOKE[name](q)]
    for q in queries:
        if q.qid == "schur-r4":  # a smaller cap keeps the unresolved path in the smoke pass
            q.args["budget"] = RL.search.SearchBudget(N=workloads.RADO_BOUND, node_limit=20_000)
    kinds = {q.kind for q in queries}
    tr = spans.Tracer()
    answers, wall = run.run_pass(RL, queries, tr)
    assert wall > 0
    for q, ans in zip(queries, answers):
        assert not isinstance(ans, Exception), (q.qid, ans)
        assert checks.check(RL, q, ans) is None, q.qid
    counts = run.answer_counts(queries, answers, tr.spans)
    sample = run.layer_sample(queries, answers, tr.spans)
    metrics = run.per_layer_metrics(tr.spans, [sample], counts, [wall], [wall])
    assert [m for m, _ in run.PER_LAYER] == list(metrics)
    if "rado" in kinds:
        assert counts["search.rado_number.unresolved"] == 1
        assert counts["search.rado_number.nodes"] > 0
    if "cc" in kinds:
        assert counts["radomat.column_condition.calls"] == sum(q.kind == "cc" for q in queries)
    if "cli" in kinds:
        assert counts["cli.main.calls"] == 4


def test_benchmark_json_names_the_metrics_run_prints():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix-and-coloring", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
