"""The two benchmark workloads: their inputs, built from a seed, and the
calls each query makes into radolab.

Every query is a fixed list of public calls.  The benchmark times a pass over
all queries of a workload; the answer checks in ``checks.py`` run outside
that pass.

Why these workloads (see README.md for the full prediction table):

- ``matrix-and-coloring``: questions about given inputs.  The matrix
  queries are the only calls into ``radomat`` and ``exactq``: many small
  matrices (the criterion-1 shapes) expose per-call overhead, and a few
  10-13 column matrices expose the decider's 3^n cost class.  The colouring
  queries run the linear and the generic (polynomial) DFS of
  ``find_mono_solution`` inside one given colouring, the ``colorings``
  witness searches, and a few of the same questions through ``cli.main``.
- ``avoider-search``: ``rado_number`` runs the same per-class DFS millions of
  times on tiny classes and builds a ``Coloring`` at every node, so per-call
  set-up that the colouring queries would not notice shows here; plus
  ``export_cnf``.  It makes no matrix query and no witness search.

The matrix and the colouring questions share one workload, rather than
having one each, so that each run can be 50 s long within the time all runs
may take (README.md, "Run-to-run spread").

Where a query's cost would swing with the seed (a random colouring decides
how soon a search stops), its input is fixed and the seed only sets the
query order.  The seed varies the inputs whose cost does not depend on it:
the small matrices, the column order and scaling of the large ones, the
colour labels of the avoider colourings, and the many random colourings of
the cheap witness searches.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stdout
from dataclasses import dataclass

WORKLOADS = ("matrix-and-coloring", "avoider-search")

# --- matrix-and-coloring: matrix queries ------------------------------------

BULK = 2400
BULK_SHAPES = ((1, 3), (1, 4), (2, 3), (2, 4))  # the criterion-1 shapes
EXTRA_SHAPES = ((1, 5), (2, 5), (3, 5), (2, 6), (3, 6))
EXTRA_SHARE = 0.06
SMALL_MAX_COLS = 8
# (columns, has a witness): k pairs (c,0),(-c,0), filler columns (c,0), and a
# planted last column -- (0,c) leaves no witness, (c,0) leaves one
TAIL = ((10, False), (11, False), (12, False), (12, True), (13, True))
POLY_POOL = ("z^2", "z^2 + z", "z^3", "2z^2 - z", "1/2 z^2 + 1/2 z", "z^3 - z")

# --- matrix-and-coloring: colouring queries ---------------------------------

# x+y=3z, x+y=4z, x+2y=4z, x+2y=5z, x+y+w=5z under the base-p colouring;
# every class is scanned in full because none holds a solution
AVOIDER_NEGATIVES = (
    ((1, 1, -3), 5, 1500),
    ((1, 1, -4), 5, 1000),
    ((1, 2, -4), 5, 1000),
    ((1, 2, -5), 7, 1000),
    ((1, 1, 1, -5), 7, 200),
)
CRIT8_MATRIX = ((1, 2, -3), (2, -1, -1))
CRIT8_POLYS = ("z^2 + z", "z^3")
CRIT8_N = 40
CRIT8_COLORING_SEEDS = (0, 1, 2)
APTP_SPEC = "ap-times-power(2,2,3)"
APTP_N = 32
LINEAR_POSITIVES = 12  # seeded random colourings; each search stops early
FSFP_COLORINGS = 100
FSFP_N = 500
FSFP_PARITY_N = 300
POLYVDW_COLORINGS = 20
POLYVDW_N = 200
POLYVDW_SETS = (("z^2",), ("z", "2z"), ("z^2", "2z^2"), ("z^2 + z", "z^3"))

# --- avoider-search --------------------------------------------------------

NODE_CAP = 500_000
RADO_BOUND = 60
# (id, coefficients, distinctness, colours, node limit, expected value, source)
RADO_QUERIES = (
    ("schur-r2", (1, 1, -1), "allow-repeats", 2, None, 5, "S(2)=4"),
    ("schur-r3", (1, 1, -1), "allow-repeats", 3, None, 14, "S(3)=13, Baumert 1965"),
    ("gen-schur-m4", (1, 1, 1, -1), "allow-repeats", 2, None, 11, "m^2-m-1, Beutelspacher-Brestovansky 1982"),
    ("gen-schur-m5", (1, 1, 1, 1, -1), "allow-repeats", 2, None, 19, "m^2-m-1, Beutelspacher-Brestovansky 1982"),
    ("vdw-3-r2", (1, 1, -2), "nontrivial", 2, None, 9, "W(3;2)=9, Chvatal 1970"),
    ("weak-schur-r2", (1, 1, -1), "all-distinct", 2, None, 9, "WS(2)=8"),
    ("x+2y=z", (1, 2, -1), "allow-repeats", 2, None, 11, "seed commit"),
    ("x+3y=z", (1, 3, -1), "allow-repeats", 2, None, 19, "seed commit"),
    ("x+y=3z", (1, 1, -3), "allow-repeats", 2, None, 9, "seed commit"),
    ("x+y=4z", (1, 1, -4), "allow-repeats", 2, None, 10, "seed commit"),
    # budget-capped: unresolved at the seed commit
    ("vdw-3-r3", (1, 1, -2), "nontrivial", 3, NODE_CAP, 27, "W(3;3)=27, Chvatal 1970"),
    ("weak-schur-r3", (1, 1, -1), "all-distinct", 3, NODE_CAP, 24, "WS(3)=23"),
    ("schur-r4", (1, 1, -1), "allow-repeats", 4, NODE_CAP, 45, "S(4)=44, Baumert 1965"),
)
# (id, coefficients, distinctness, colours, N)
CNF_QUERIES = (
    ("cnf-schur-r3-N13", (1, 1, -1), "allow-repeats", 3, 13),
    ("cnf-3ap-r2-N300", (1, 1, -2), "nontrivial", 2, 300),
)


@dataclass
class Query:
    qid: str
    kind: str
    args: dict
    variant: str = None  # "small"/"large" for matrices, "linear"/"poly" for searches


def build(rl, name: str, seed: int, tr) -> list:
    """The query list of one workload.  The same seed gives the same
    inputs."""
    rng = random.Random(f"{name}:{seed}")
    by_name = {
        "matrix-and-coloring": _matrix_and_coloring,
        "avoider-search": _avoider_search,
    }
    queries = by_name[name](rl, rng, tr)
    rng.shuffle(queries)
    return queries


def equation_spec(coeffs) -> str:
    return "equation(" + ",".join(str(c) for c in coeffs) + ")"


def _system(rl, coeffs, distinctness):
    base = rl.systems.parse_template_spec(equation_spec(coeffs))
    return rl.systems.EquationSystem(
        name=base.name,
        variables=base.variables,
        equations=base.equations,
        distinctness=distinctness,
        status=base.status,
    )


def tail_rows(rng, n: int, witness: bool) -> list:
    cols = []
    while len(cols) + 2 <= n - 1:
        c = rng.randint(1, 3)
        cols += [(c, 0), (-c, 0)]
    while len(cols) < n - 1:
        cols.append((rng.randint(1, 3), 0))
    c = rng.randint(1, 3)
    cols.append((c, 0) if witness else (0, c))
    rng.shuffle(cols)
    return [[col[0] for col in cols], [col[1] for col in cols]]


def _cc_query(rl, rng, tr, qid, rows, polys, expect=None):
    m, n = len(rows), len(rows[0])
    A = tr.call("exactq.build", rl.exactq.Matrix, rows)
    return Query(
        qid,
        "cc",
        {
            "A": A,
            "mix": tuple(rng.choice((-2, -1, 1, 2, 3)) for _ in range(n)),
            "a": rng.randint(1, 30),
            "d": rng.randint(1, 6),
            "polys": tuple(rng.choice(polys) for _ in range(m)),
            "expect_witness": expect,
        },
        "small" if n <= SMALL_MAX_COLS else "large",
    )


def _matrix_decide(rl, rng, tr):
    polys = [tr.call("polyring.parse", rl.polyring.poly_parse, s) for s in POLY_POOL]
    queries = []
    for i in range(BULK):
        shapes = EXTRA_SHAPES if rng.random() < EXTRA_SHARE else BULK_SHAPES
        m, n = rng.choice(shapes)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        queries.append(_cc_query(rl, rng, tr, f"bulk-{i}", rows, polys))
    for i, (n, witness) in enumerate(TAIL):
        rows = tail_rows(rng, n, witness)
        queries.append(_cc_query(rl, rng, tr, f"tail-{i}-n{n}", rows, polys, expect=witness))
    return queries


def _relabelled_avoider(rl, coeffs, p, N, perm):
    base = rl.colorings.rado_avoider_coloring(coeffs, p).coloring(N)
    return rl.colorings.Coloring(N=N, r=base.r, colors=tuple(perm[c] for c in base.colors))


def _mono(rl, qid, sys_, coloring, variant, expect_none=False):
    budget = rl.search.SearchBudget(N=coloring.N)
    return Query(qid, "mono", {"sys": sys_, "c": coloring, "budget": budget, "expect_none": expect_none}, variant)


def _fixed_coloring(rl, rng, tr):
    col = rl.colorings
    queries = []
    for coeffs, p, N in AVOIDER_NEGATIVES:
        sys_ = tr.call("systems.parse", _system, rl, coeffs, "allow-repeats")
        perm = list(range(p - 1))
        rng.shuffle(perm)
        c = tr.call("colorings.build", _relabelled_avoider, rl, coeffs, p, N, perm)
        queries.append(_mono(rl, f"avoider-{equation_spec(coeffs)}-p{p}", sys_, c, "linear", True))

    aptp = tr.call("systems.parse", rl.systems.parse_template_spec, APTP_SPEC)
    parity = tr.call("colorings.build", col.parity_coloring, APTP_N)
    queries.append(_mono(rl, "aptp-parity", aptp, parity, "poly"))
    A8 = tr.call("exactq.build", rl.exactq.Matrix, CRIT8_MATRIX)
    p8 = [tr.call("polyring.parse", rl.polyring.poly_parse, s) for s in CRIT8_POLYS]
    crit8 = tr.call("systems.parse", rl.systems.build_nonlinear_rado, A8, p8)
    for s in CRIT8_COLORING_SEEDS:
        c = tr.call("colorings.build", col.random_coloring, CRIT8_N, 2, s)
        queries.append(_mono(rl, f"crit8-random{s}", crit8, c, "poly"))

    schur = tr.call("systems.parse", _system, rl, (1, 1, -1), "allow-repeats")
    ap3 = tr.call("systems.parse", _system, rl, (1, 1, -2), "nontrivial")
    for i in range(LINEAR_POSITIVES):
        sys_, r = (schur, 3) if i % 2 == 0 else (ap3, 2)
        c = tr.call("colorings.build", col.random_coloring, 120, r, rng.randrange(2**31))
        queries.append(_mono(rl, f"positive-{i}", sys_, c, "linear"))

    for i in range(FSFP_COLORINGS):
        c = tr.call("colorings.build", col.random_coloring, FSFP_N, 2, rng.randrange(2**31))
        queries.append(Query(f"fsfp-d2-{i}", "fsfp", {"c": c, "depth": 2}))
    c = tr.call("colorings.build", col.parity_coloring, FSFP_PARITY_N)
    queries.append(Query("fsfp-d3-parity", "fsfp", {"c": c, "depth": 3}))

    for i in range(POLYVDW_COLORINGS):
        c = tr.call("colorings.build", col.random_coloring, POLYVDW_N, 2, rng.randrange(2**31))
        texts = rng.choice(POLYVDW_SETS)
        polys = tuple(tr.call("polyring.parse", rl.polyring.poly_parse, t) for t in texts)
        queries.append(Query(f"polyvdw-{i}", "polyvdw", {"c": c, "polys": polys}))

    fsfp_seed = rng.randrange(1000)
    for i, argv in enumerate(
        (
            ["solve", "equation(1,1,-3)", "--coloring", "rado-avoider(1,1,-3;5)", "--range", "600"],
            ["solve", APTP_SPEC, "--coloring", "parity", "--range", "24"],
            ["fsfp", "--coloring", f"random({fsfp_seed})", "--range", "300", "--depth", "2"],
            ["polyvdw", "--coloring", "parity", "--polys", "z^2, 2z^2", "--range", "200"],
        )
    ):
        queries.append(Query(f"cli-{i}-{argv[0]}", "cli", {"argv": argv + ["--json"]}))
    return queries


def _matrix_and_coloring(rl, rng, tr):
    return _matrix_decide(rl, rng, tr) + _fixed_coloring(rl, rng, tr)


def _avoider_search(rl, rng, tr):
    queries = []
    for qid, coeffs, dist, r, limit, value, source in RADO_QUERIES:
        sys_ = tr.call("systems.parse", _system, rl, coeffs, dist)
        budget = rl.search.SearchBudget(N=RADO_BOUND, node_limit=limit)
        args = {"sys": sys_, "r": r, "budget": budget, "coeffs": coeffs, "value": value, "source": source}
        queries.append(Query(qid, "rado", args))
    for qid, coeffs, dist, r, N in CNF_QUERIES:
        sys_ = tr.call("systems.parse", _system, rl, coeffs, dist)
        queries.append(Query(qid, "cnf", {"sys": sys_, "r": r, "N": N, "coeffs": coeffs}))
    return queries


# --- the calls each query makes ---------------------------------------------


def _run_cc(rl, q, tr):
    A = q.args["A"]
    w = tr.call("radomat.column_condition", rl.radomat.column_condition, A)
    basis = tr.call("exactq.kernel_basis", rl.exactq.kernel_basis, A)
    thm = None
    if basis:
        X = [0] * A.n
        for k, v in zip(q.args["mix"], basis):
            X = [x + k * e for x, e in zip(X, v)]
        if X[-1] != 0 and all(row[-1] != 0 for row in A.rows):
            polys = q.args["polys"]
            sys_ = tr.call("systems.build_nonlinear_rado", rl.systems.build_nonlinear_rado, A, polys)
            asg = tr.call(
                "systems.construct_thm37", rl.systems.construct_thm37, A, tuple(X), q.args["a"], q.args["d"], polys
            )
            thm = (tuple(X), sys_, asg)
    return (w, basis, thm)


def _run_mono(rl, q, tr):
    a = q.args
    return tr.call("search.find_mono_solution", rl.search.find_mono_solution, a["sys"], a["c"], a["budget"])


def _run_fsfp(rl, q, tr):
    return tr.call("colorings.search_fsfp", rl.colorings.search_fsfp, q.args["c"], q.args["depth"])


def _run_polyvdw(rl, q, tr):
    return tr.call("colorings.poly_vdw_witness", rl.colorings.poly_vdw_witness, q.args["c"], q.args["polys"])


def _run_cli(rl, q, tr):
    out = io.StringIO()
    with redirect_stdout(out):
        code = tr.call("cli.main", rl.cli.main, q.args["argv"])
    return (code, out.getvalue())


def _run_rado(rl, q, tr):
    a = q.args
    return tr.call("search.rado_number", rl.search.rado_number, a["sys"], a["r"], a["budget"])


def _run_cnf(rl, q, tr):
    a = q.args
    return tr.call("search.export_cnf", rl.search.export_cnf, a["sys"], a["r"], a["N"])


RUNNERS = {
    "cc": _run_cc,
    "mono": _run_mono,
    "fsfp": _run_fsfp,
    "polyvdw": _run_polyvdw,
    "cli": _run_cli,
    "rado": _run_rado,
    "cnf": _run_cnf,
}


def run_query(rl, q, tr):
    return RUNNERS[q.kind](rl, q, tr)
