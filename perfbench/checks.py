"""Answer checks, independent of the code that produced the answers.

Each ``check_*`` function returns ``None`` for a correct answer and a short
reason otherwise.  Where radolab ships a validator written apart from its
deciders (``validate_witness``, ``column_condition_naive``,
``validate_solution``, ``verify_fsfp``), the check calls it; everything else
(kernel membership, residuals, monochromatic-solution brute force, CNF
evaluation and clause counts) is recomputed here from the definitions.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

NAIVE_MAX_COLS = 6


# --- exact arithmetic written for the checks -------------------------------


def rank(rows) -> int:
    rows = [[Fraction(e) for e in r] for r in rows]
    rk = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rk, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        for i in range(len(rows)):
            if i != rk and rows[i][c] != 0:
                f = rows[i][c] / rows[rk][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
        rk += 1
    return rk


def poly_value(p, x):
    return sum(Fraction(c) * Fraction(x) ** d for d, c in p.coeffs.items())


def residual(eq, asg):
    total = Fraction(0)
    for c, mono in eq.terms:
        term = Fraction(c)
        for v, e in mono.exps:
            term *= Fraction(asg[v]) ** e
        total += term
    return total


def mono_solution_sets(coeffs, distinctness, values):
    """Value-sets of the solutions of sum_i c_i v_i = 0 inside `values`, by
    brute force over all but the last variable."""
    allowed = set(values)
    *head, last = coeffs
    out = set()
    for tup in itertools.product(sorted(allowed), repeat=len(head)):
        s = sum(c * v for c, v in zip(head, tup))
        if s % last:
            continue
        v = -s // last
        if v not in allowed:
            continue
        full = tup + (v,)
        if distinctness == "all-distinct" and len(set(full)) != len(full):
            continue
        if distinctness == "nontrivial" and len(set(full)) == 1:
            continue
        out.add(tuple(sorted(set(full))))
    return out


def has_mono_solution(coeffs, distinctness, coloring) -> bool:
    classes = [[] for _ in range(coloring.r)]
    for k, c in enumerate(coloring.colors, start=1):
        classes[c].append(k)
    return any(mono_solution_sets(coeffs, distinctness, cls) for cls in classes if cls)


def parse_cnf(text):
    header = None
    clauses = []
    for line in text.splitlines():
        if line.startswith("c"):
            continue
        if line.startswith("p cnf"):
            header = tuple(int(t) for t in line.split()[2:])
            continue
        lits = [int(t) for t in line.split()]
        if not lits or lits[-1] != 0:
            raise ValueError(f"clause line without terminating 0: {line!r}")
        clauses.append(lits[:-1])
    return header, clauses


def cnf_satisfied_by(text, coloring) -> bool:
    """Does the colouring, read as v(n,c) = (n-1)*r + c + 1, satisfy every
    clause?"""
    r = coloring.r
    true = {(n - 1) * r + c + 1 for n, c in enumerate(coloring.colors, start=1)}
    _, clauses = parse_cnf(text)
    return all(any((lit > 0) == (abs(lit) in true) for lit in cl) for cl in clauses)


def fs_set(seq):
    out = set()
    for k in range(1, len(seq) + 1):
        for sub in itertools.combinations(seq, k):
            out.add(sum(sub))
    return out


def fp_set(seq):
    out = set()
    for k in range(1, len(seq) + 1):
        for sub in itertools.combinations(seq, k):
            prod = 1
            for x in sub:
                prod *= x
            out.add(prod)
    return out


# --- one check per query kind ----------------------------------------------


def check_cc(rl, q, ans):
    A = q.args["A"]
    w, basis, thm = ans
    expect = q.args["expect_witness"]
    if w is not None and not rl.radomat.validate_witness(A, w):
        return f"invalid witness {w.blocks}"
    if expect is not None and (w is not None) != expect:
        return f"witness {'missing' if expect else 'claimed'} for a planted instance"
    if A.n <= NAIVE_MAX_COLS and (rl.radomat.column_condition_naive(A) is None) != (w is None):
        return "disagrees with column_condition_naive"
    n = A.n
    for v in basis:
        if len(v) != n or any(sum(Fraction(a) * x for a, x in zip(row, v)) != 0 for row in A.rows):
            return f"kernel vector {v} not in the kernel"
    if len(basis) != n - rank(A.rows) or (basis and rank(basis) != len(basis)):
        return "kernel basis has the wrong dimension"
    if thm is not None:
        X, sys_, asg = thm
        polys = q.args["polys"]
        for i, row in enumerate(A.rows):
            res = sum(Fraction(row[j]) * asg[f"x{j + 1}"] for j in range(n - 1))
            res += row[n - 1] * Fraction(asg[f"y{i + 1}"]) + poly_value(polys[i], asg["z"])
            if res != 0:
                return f"construct_thm37 residual {res} in row {i + 1}"
        if any(residual(eq, asg) != 0 for eq in sys_.equations):
            return "construct_thm37 assignment misses build_nonlinear_rado"
    return None


def _solution_reason(rl, sys_, c, rec):
    if not rl.search.validate_solution(sys_, c, rec):
        return "validate_solution rejects the solution"
    if any(residual(eq, rec.assignment) != 0 for eq in sys_.equations):
        return "nonzero residual"
    return None


def check_mono(rl, q, rec):
    a = q.args
    if a["expect_none"]:
        return None if rec is None else f"solution {rec.assignment} under an avoider colouring"
    if rec is None:
        return None
    return _solution_reason(rl, a["sys"], a["c"], rec)


def _fsfp_reason(rl, c, w, depth):
    if len(w.a_seq) != depth or len(w.b_seq) != depth:
        return "witness has the wrong depth"
    if not rl.colorings.verify_fsfp(w, c):
        return "verify_fsfp rejects the witness"
    a, b = w.a_seq, w.b_seq
    elems = fs_set(a) | fp_set(b)
    for m in range(1, depth + 1):
        elems |= {f * g for f in fs_set(a[:m]) for g in fp_set(b[m - 1 :])}
    if any(e < 1 or e > c.N or c.colors[e - 1] != w.color for e in elems):
        return "structure is not monochromatic"
    return None


def check_fsfp(rl, q, w):
    return None if w is None else _fsfp_reason(rl, q.args["c"], w, q.args["depth"])


def _polyvdw_reason(c, polys, res):
    a, d, color = res
    if a < 1 or d < 1:
        return "a and d must be positive"
    for v in [Fraction(a)] + [a + poly_value(p, d) for p in polys]:
        if v.denominator != 1 or not 1 <= v <= c.N or c.colors[int(v) - 1] != color:
            return f"{v} breaks the witness"
    return None


def check_polyvdw(rl, q, res):
    return None if res is None else _polyvdw_reason(q.args["c"], q.args["polys"], res)


def cli_outcome(ans):
    code, text = ans
    return code, json.loads(text)["outcome"]


def check_cli(rl, q, ans):
    code, outcome = cli_outcome(ans)
    argv = q.args["argv"]
    cmd = argv[0]
    opt = dict(zip(argv[1:], argv[2:]))
    N = int(opt["--range"])
    if cmd == "solve":
        sys_ = rl.systems.parse_template_spec(argv[1])
        if opt["--coloring"].startswith("rado-avoider"):
            return None if (code, outcome["solution"]) == (1, None) else "solution under an avoider colouring"
        c = rl.colorings.parity_coloring(N)
        if code != 0 or outcome["solution"] is None:
            return f"exit {code}: no solution on a parity colouring"
        rec = rl.search.SolutionRecord(outcome["solution"], outcome["color"], sys_.name)
        return _solution_reason(rl, sys_, c, rec)
    if cmd == "fsfp":
        seed = int(opt["--coloring"][len("random(") : -1])
        c = rl.colorings.random_coloring(N, 2, seed)
        if "witness" in outcome:
            return None if code == 1 else f"exit {code} without a witness"
        w = rl.colorings.FSFPWitness(tuple(outcome["a_seq"]), tuple(outcome["b_seq"]), outcome["color"])
        return _fsfp_reason(rl, c, w, int(opt["--depth"])) if code == 0 else f"exit {code} with a witness"
    if cmd == "polyvdw":
        c = rl.colorings.parity_coloring(N)
        polys = [rl.polyring.poly_parse(t) for t in opt["--polys"].split(",")]
        if "witness" in outcome:
            return None if code == 1 else f"exit {code} without a witness"
        return _polyvdw_reason(c, polys, (outcome["a"], outcome["d"], outcome["color"]))
    return f"unknown command {cmd}"


def check_avoider(rl, sys_, coeffs, r, coloring):
    """A colouring that is claimed to avoid: brute force finds no
    monochromatic solution, and it satisfies export_cnf for the same N."""
    if coloring.r != r:
        return "avoider has the wrong number of colours"
    if has_mono_solution(coeffs, sys_.distinctness, coloring):
        return f"avoider for N={coloring.N} has a monochromatic solution"
    if not cnf_satisfied_by(rl.search.export_cnf(sys_, r, coloring.N), coloring):
        return f"avoider for N={coloring.N} violates export_cnf"
    return None


def check_rado(rl, q, res):
    a = q.args
    if res.value is not None:
        if res.value != a["value"]:
            return f"value {res.value}, expected {a['value']} ({a['source']})"
        if res.avoider is None or res.avoider.N != res.value - 1:
            return "no avoider for N = value - 1"
    elif not res.exhausted:
        return f"no value up to N={a['budget'].N} and budget not exhausted"
    elif a["budget"].node_limit is None:
        return "exhausted without a node limit"
    if res.avoider is not None:
        return check_avoider(rl, a["sys"], a["coeffs"], a["r"], res.avoider)
    return None


def expected_clauses(coeffs, distinctness, r, N) -> int:
    sets = mono_solution_sets(coeffs, distinctness, range(1, N + 1))
    return N * (1 + r * (r - 1) // 2) + r * len(sets)


def check_cnf(rl, q, text):
    a = q.args
    if "WARNING" in text:
        return "tuple enumeration truncated"
    header, clauses = parse_cnf(text)
    want = (a["N"] * a["r"], expected_clauses(a["coeffs"], a["sys"].distinctness, a["r"], a["N"]))
    if header != want or len(clauses) != want[1]:
        return f"header {header} with {len(clauses)} clauses, expected {want}"
    if any(not cl or any(l == 0 or abs(l) > want[0] for l in cl) for cl in clauses):
        return "clause with a literal out of range"
    return None


CHECKS = {
    "cc": check_cc,
    "mono": check_mono,
    "fsfp": check_fsfp,
    "polyvdw": check_polyvdw,
    "cli": check_cli,
    "rado": check_rado,
    "cnf": check_cnf,
}


def check(rl, q, ans):
    return CHECKS[q.kind](rl, q, ans)


def same_answer(q, a, b) -> bool:
    """Answers of two passes agree (the CLI report's timing aside)."""
    if q.kind == "cli":
        return cli_outcome(a) == cli_outcome(b)
    return a == b
