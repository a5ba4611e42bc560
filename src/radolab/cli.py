"""Batch command-line front end.

Exit codes: 0 affirmative/found, 1 negative/not-found, 2 usage or parse
error, 3 budget exhausted (export-cnf: enumeration truncated).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import time

from . import colorings, radomat, search, systems
from .exactq import Matrix, kernel_basis, parse_scalar
from .polyring import poly_parse

EXIT_FOUND = 0
EXIT_NOT_FOUND = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# the largest --range of a command that builds [1..N] (a colouring or the CNF
# variables); rado-number is exempt, since its lists grow with the range it
# has enumerated, not with --range
MAX_RANGE = 10**6


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a CliError, so it prints as one line and exits
    2 like every other bad input; the subcommand parsers inherit the class."""

    def error(self, message):
        raise CliError(message)


def _scalar_json(v):
    return v if isinstance(v, int) else str(v)


def _assignment_json(assignment: dict) -> dict:
    return {k: _scalar_json(v) for k, v in assignment.items()}


def _show(values: dict) -> str:
    """A dict of scalars as a human line prints it, fractions as p/q."""
    return "{" + ", ".join(f"{k!r}: {v}" for k, v in values.items()) + "}"


def _read(path: str, what: str, parse):
    """`parse` applied to the text of the file `path`, which holds a `what`."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read {what} from {path}: {exc}") from exc


def _load_matrix(path: str) -> Matrix:
    return _read(path, "matrix", Matrix.from_text)


def _load_system(spec: str) -> systems.EquationSystem:
    if os.path.exists(spec):
        return _read(spec, "system", lambda text: systems.system_from_json(json.loads(text)))
    try:
        return systems.parse_template_spec(spec)
    except ValueError as exc:
        raise CliError(f"bad system spec {spec!r}: {exc}") from exc


def _check_range(args) -> None:
    if not 1 <= args.range <= MAX_RANGE:
        raise CliError(f"--range {args.range} is outside [1..{MAX_RANGE:,}], the ranges [1..N] this command builds")


def _bad_spec(spec: str, form: str) -> CliError:
    return CliError(f"bad coloring spec {spec!r}: expected {form}")


def _load_coloring(spec: str, N: int, r) -> colorings.Coloring:
    """The coloring `spec` names.  `r` is --colors: the number of colors of
    `random` (default 2); any other coloring fixes its own, and an explicit
    --colors must agree with it."""
    _check_colors(r)
    col = _build_coloring(spec.strip(), N, 2 if r is None else r)
    if r is not None and r != col.r:
        raise CliError(f"--colors {r} disagrees with coloring {spec!r}, which has {col.r} colors")
    return col


def _build_coloring(spec: str, N: int, r: int) -> colorings.Coloring:
    if spec == "all-one":
        return colorings.all_one_coloring(N)
    if spec == "parity":
        return colorings.parity_coloring(N)
    if spec.startswith("random"):
        m = re.fullmatch(r"random(?:\(\s*(-?\d+)?\s*\))?", spec)
        if m is None:
            raise _bad_spec(spec, "random or random(seed)")
        return colorings.random_coloring(N, r, 0 if m[1] is None else int(m[1]))
    if spec.startswith("rado-avoider"):
        m = re.fullmatch(r"rado-avoider\(\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*;\s*(\d+)\s*\)", spec)
        if m is None:
            raise _bad_spec(spec, "rado-avoider(c1,c2,...;p)")
        coeffs = [int(t) for t in m[1].split(",")]
        try:
            gen = colorings.rado_avoider_coloring(coeffs, int(m[2]))
        except ValueError as exc:
            raise CliError(f"avoider generator refused: {exc}") from exc
        return gen.coloring(N)
    if os.path.exists(spec):
        return _read(spec, "coloring", colorings.Coloring.from_text)
    raise CliError(f"unknown coloring spec {spec!r}")


def _parse_scalar_list(text: str):
    return [parse_scalar(t) for t in text.split(",") if t.strip()]


def _parse_poly_list(text: str):
    return [poly_parse(t) for t in text.split(",") if t.strip()]


def _report(args, t0: float, code: int, inputs: dict, outcome: dict, human: str, budget=None) -> int:
    """Print the run report of the work begun at `t0` and return `code`.
    `budget` is the search.SearchBudget the command applied; a command that
    searches no range passes None and reports both of its fields as null."""
    if args.json:
        payload = {
            "command": args.cmd,
            "inputs": inputs,
            "outcome": outcome,
            "elapsed_s": round(time.perf_counter() - t0, 6),
            "budget": {"range": budget.N if budget else None, "node_limit": budget.node_limit if budget else None},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)
    return code


def _check_colors(r) -> None:
    if r is not None and r < 1:
        raise CliError(f"--colors must be at least 1, not {r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_check_cc(args) -> int:
    A = _load_matrix(args.matrix)
    t0 = time.perf_counter()
    w = radomat.column_condition(A)
    if w is not None:
        outcome = {"satisfied": True, "witness": w.to_json()}
        human = f"SATISFIED blocks={[list(b) for b in w.blocks]}"
    else:
        outcome = {"satisfied": False}
        human = "NOT SATISFIED"
    return _report(args, t0, EXIT_FOUND if w is not None else EXIT_NOT_FOUND, {"matrix": A.to_text()}, outcome, human)


def cmd_expand(args) -> int:
    A = _load_matrix(args.matrix)
    t0 = time.perf_counter()
    text = radomat.expand_matrix(A).to_text()
    return _report(args, t0, EXIT_FOUND, {"matrix": A.to_text()}, {"expanded": text}, text)


def cmd_kernel(args) -> int:
    A = _load_matrix(args.matrix)
    t0 = time.perf_counter()
    basis = kernel_basis(A)
    human = "\n".join(" ".join(str(e) for e in v) for v in basis) or "(trivial kernel)"
    outcome = {"basis": [[_scalar_json(e) for e in v] for v in basis]}
    return _report(args, t0, EXIT_FOUND if basis else EXIT_NOT_FOUND, {"matrix": A.to_text()}, outcome, human)


def cmd_constant_solution(args) -> int:
    A = _load_matrix(args.matrix)
    try:
        b = tuple(_parse_scalar_list(args.rhs))
    except ValueError as exc:
        raise CliError(f"bad rhs: {exc}") from exc
    t0 = time.perf_counter()
    d = radomat.constant_solution(A, b)
    if d is not None:
        outcome = {"constant": _scalar_json(d)}
        human = f"CONSTANT d = {d}"
    else:
        outcome = {"constant": None}
        human = "NO CONSTANT SOLUTION"
    inputs = {"matrix": A.to_text(), "rhs": args.rhs}
    return _report(args, t0, EXIT_FOUND if d is not None else EXIT_NOT_FOUND, inputs, outcome, human)


def _apply_distinct(sys: systems.EquationSystem, args) -> systems.EquationSystem:
    """The system under the --distinct policy.  The policies nest: each
    admits every solution of those before it in `nested`.  So a regular
    system stays regular under a wider policy, a non-regular one under a
    narrower one, and any other change leaves the status unknown."""
    if args.distinct is None:
        return sys
    nested = ("all-distinct", "nontrivial", "allow-repeats")
    policy = {"repeats": "allow-repeats", "distinct": "all-distinct", "nontrivial": "nontrivial"}[args.distinct]
    wider = nested.index(policy) - nested.index(sys.distinctness)
    keeps = wider >= 0 if sys.status == "regular-by-paper" else wider <= 0
    return dataclasses.replace(sys, distinctness=policy, status=sys.status if keeps else "unknown")


def cmd_solve(args) -> int:
    _check_range(args)
    sys_ = _apply_distinct(_load_system(args.system), args)
    col = _load_coloring(args.coloring, args.range, args.colors)
    inputs = {"system": sys_.name, "coloring": args.coloring, "colors": col.r, "status": sys_.status}
    # a coloring file may be shorter than --range
    budget = search.SearchBudget(N=min(args.range, col.N), node_limit=args.budget_nodes)
    nodes = search._Nodes(budget.node_limit)
    t0 = time.perf_counter()
    try:
        rec = search.find_mono_solution(sys_, col, budget, nodes)
    except search.BudgetExhausted as exc:
        outcome = {"budget_exhausted": True, "nodes": nodes.count}
        return _report(args, t0, EXIT_BUDGET, inputs, outcome, f"BUDGET ({exc})", budget)
    label = f"[status={sys_.status}]"
    if rec is not None:
        outcome = {"solution": _assignment_json(rec.assignment), "color": rec.color, "nodes": nodes.count}
        human = f"SOLUTION color={rec.color} {rec.assignment} {label}"
    else:
        outcome = {"solution": None, "nodes": nodes.count}
        human = f"NONE-IN-RANGE [1..{budget.N}] {label}"
    return _report(args, t0, EXIT_FOUND if rec is not None else EXIT_NOT_FOUND, inputs, outcome, human, budget)


def cmd_rado_number(args) -> int:
    sys_ = _apply_distinct(_load_system(args.system), args)
    _check_colors(args.colors)
    budget = search.SearchBudget(N=args.range, node_limit=args.budget_nodes)
    t0 = time.perf_counter()
    res = search.rado_number(sys_, args.colors, budget)
    avoider = res.avoider.to_text() if res.avoider is not None else None
    outcome = {
        "value": res.value,
        "avoider": avoider,
        "nodes": res.nodes,
        "exhausted": res.exhausted,
        "pruned": res.pruned,
    }
    counts = f"nodes={res.nodes}, pruned={res.pruned}"
    if res.value is not None:
        human = f"RADO-NUMBER {res.value} (avoider for N={res.value - 1} attached, {counts})"
        code = EXIT_FOUND
    elif res.exhausted:
        human = f"BUDGET (largest avoider N={res.avoider.N if res.avoider else 0}, {counts})"
        code = EXIT_BUDGET
    else:
        human = f"UNRESOLVED up to N={budget.N} (avoider exists at N={budget.N})"
        code = EXIT_NOT_FOUND
    return _report(args, t0, code, {"system": sys_.name, "colors": args.colors}, outcome, human, budget)


def cmd_export_cnf(args) -> int:
    _check_range(args)
    sys_ = _apply_distinct(_load_system(args.system), args)
    _check_colors(args.colors)
    search.check_cnf_size(args.colors, args.range)
    try:
        # opened first, so a bad --out fails before the enumeration
        with open(args.out, "w") as fh:
            t0 = time.perf_counter()
            text = search.export_cnf(sys_, args.colors, args.range)
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}") from exc
    # the header follows a few comment lines; the system name in the first
    # one is quoted, so no line break precedes "p cnf" before the header
    start = text.index("\np cnf ") + 1
    header = text[start : text.index("\n", start)]
    truncated = search.CNF_TRUNCATED in text[:start].split("\n")
    human = f"WROTE {args.out} ({header})"
    if truncated:
        human += (
            f"; TRUNCATED: solution enumeration hit the {search.CNF_TUPLE_LIMIT:,}-node tuple"
            " limit, so the instance under-approximates"
        )
    inputs = {"system": sys_.name, "colors": args.colors, "range": args.range}
    outcome = {"file": args.out, "header": header, "truncated": truncated}
    budget = search.SearchBudget(N=args.range, node_limit=search.CNF_TUPLE_LIMIT)
    return _report(args, t0, EXIT_BUDGET if truncated else EXIT_FOUND, inputs, outcome, human, budget)


def cmd_fsfp(args) -> int:
    _check_range(args)
    col = _load_coloring(args.coloring, args.range, args.colors)
    t0 = time.perf_counter()
    w = colorings.search_fsfp(col, args.depth)
    if w is not None:
        outcome = {"a_seq": list(w.a_seq), "b_seq": list(w.b_seq), "color": w.color}
        human = f"WITNESS a={list(w.a_seq)} b={list(w.b_seq)} color={w.color}"
    else:
        outcome = {"witness": None}
        human = "NO WITNESS AT THIS SCALE"
    inputs = {"coloring": args.coloring, "colors": col.r, "depth": args.depth}
    code = EXIT_FOUND if w is not None else EXIT_NOT_FOUND
    return _report(args, t0, code, inputs, outcome, human, search.SearchBudget(N=args.range))


def cmd_polyvdw(args) -> int:
    _check_range(args)
    col = _load_coloring(args.coloring, args.range, args.colors)
    try:
        polys = _parse_poly_list(args.polys)
    except ValueError as exc:
        raise CliError(f"bad polynomial list: {exc}") from exc
    t0 = time.perf_counter()
    res = colorings.poly_vdw_witness(col, polys)
    if res is not None:
        a, d, color = res
        outcome = {"a": a, "d": d, "color": color}
        human = f"WITNESS a={a} d={d} color={color}"
    else:
        outcome = {"witness": None}
        human = "NO WITNESS AT THIS SCALE"
    inputs = {"coloring": args.coloring, "colors": col.r, "polys": args.polys}
    code = EXIT_FOUND if res is not None else EXIT_NOT_FOUND
    return _report(args, t0, code, inputs, outcome, human, search.SearchBudget(N=args.range))


def _report_construction(args, t0: float, inputs: dict, sys_, labelled: dict, outcome: dict) -> int:
    """Report the assignments of a construction: `labelled` maps the label of
    each on the human line to it, and `outcome` holds them as the JSON report
    gives them.  The residuals and integrality are those of their union."""
    merged = {k: v for asg in labelled.values() for k, v in asg.items()}
    residuals = sys_.residuals(merged)
    integral = systems.integrality_check(merged)
    outcome.update(
        residuals=[_scalar_json(r) for r in residuals],
        all_satisfied=all(r == 0 for r in residuals),
        integral=integral,
    )
    human = [f"{label}: {_show(asg)}" for label, asg in labelled.items()]
    human += [f"residuals: [{', '.join(map(str, residuals))}]", f"integral: {integral}"]
    return _report(args, t0, EXIT_FOUND, inputs, outcome, "\n".join(human))


def cmd_construct_thm34(args) -> int:
    t0 = time.perf_counter()
    try:
        a_list = _parse_scalar_list(args.a_list)
        b_list = _parse_scalar_list(args.b_list) if args.b_list else []
        a = parse_scalar(args.a)
        d = parse_scalar(args.d)
        polys = _parse_poly_list(args.polys)
        assignments = systems.construct_thm34(a_list, b_list, a, d, polys)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    sys_ = systems.poly_sum_product(len(a_list), len(b_list) + 1, polys)
    inputs = {"a_list": args.a_list, "b_list": args.b_list, "a": args.a, "d": args.d, "polys": args.polys}
    labelled = {f"equation {i}": asg for i, asg in enumerate(assignments, 1)}
    outcome = {"assignments": [_assignment_json(asg) for asg in assignments]}
    return _report_construction(args, t0, inputs, sys_, labelled, outcome)


def cmd_construct_thm37(args) -> int:
    A = _load_matrix(args.matrix)
    t0 = time.perf_counter()
    try:
        polys = _parse_poly_list(args.polys)
        if args.kernel_vec:
            X = tuple(_parse_scalar_list(args.kernel_vec))
        else:
            # some kernel vector has x_n != 0 exactly when a basis vector has
            X = next((v for v in kernel_basis(A) if v[-1] != 0), None)
            if X is None:
                raise CliError("no kernel vector of the matrix has x_n != 0, which Theorem 3.7 needs")
        a = parse_scalar(args.a)
        d = parse_scalar(args.d)
        assignment = systems.construct_thm37(A, X, a, d, polys)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(str(exc)) from exc
    sys_ = systems.build_nonlinear_rado(A, polys)
    inputs = {"matrix": A.to_text(), "a": args.a, "d": args.d, "polys": args.polys}
    outcome = {"assignment": _assignment_json(assignment)}
    return _report_construction(args, t0, inputs, sys_, {"assignment": assignment}, outcome)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # the options more than one subcommand reads; each subcommand takes --json
    # and those of them that its cmd_* reads
    shared = {
        "--range": dict(type=int, default=100, metavar="N", help="integer range bound [1..N]"),
        "--colors": dict(type=int, default=2, metavar="R", help="number of colors (default 2)"),
        "--coloring": dict(
            default="all-one",
            help="coloring spec; one other than random(S) has its own number of colors,"
            " and a --colors that disagrees with it is refused",
        ),
        "--distinct": dict(choices=["repeats", "distinct", "nontrivial"], help="override the system's distinctness policy"),
        "--budget-nodes": dict(
            type=int,
            metavar="K",
            help="search node limit: a node is one value tried for a variable that no equation"
            " fixes (a value solved from an equation is free, and interchangeable variables take"
            " nondecreasing values, so each solution is reached once up to their order);"
            " rado-number also counts one node per color tried for one integer and one per"
            " value set examined while forbidding colors ahead",
        ),
    }
    p = _Parser(prog="radolab", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def command(name, func, summary, *options, **defaults):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--json", action="store_true", help="emit a JSON run report")
        for flag in options:
            sp.add_argument(flag, **shared[flag])
        sp.set_defaults(func=func, **defaults)
        return sp

    for name, func, summary in (
        ("check-cc", cmd_check_cc, "decide the column condition"),
        ("expand", cmd_expand, "print the expanded matrix E(A)"),
        ("kernel", cmd_kernel, "rational kernel basis of A"),
    ):
        command(name, func, summary).add_argument("matrix")

    sp = command("constant-solution", cmd_constant_solution, "solve A(d..d)=b")
    sp.add_argument("matrix")
    sp.add_argument("--rhs", required=True, help="comma-separated right-hand side")

    # beside --coloring, --colors is unset unless given: a coloring other than
    # random(S) has its own number of colors, which --colors then only checks
    sp = command(
        "solve",
        cmd_solve,
        "monochromatic solution search",
        *("--coloring", "--range", "--colors", "--distinct", "--budget-nodes"),
        colors=None,
    )
    sp.add_argument("system", help="system JSON file or template spec")

    sp = command("rado-number", cmd_rado_number, "generalized Rado number", "--range", "--colors", "--distinct", "--budget-nodes")
    sp.add_argument("system")

    sp = command("export-cnf", cmd_export_cnf, "DIMACS CNF export", "--range", "--colors", "--distinct")
    sp.add_argument("system")
    sp.add_argument("--out", required=True)

    sp = command("fsfp", cmd_fsfp, "FS/FP witness search", "--coloring", "--range", "--colors", colors=None)
    sp.add_argument("--depth", type=int, default=2)

    sp = command("polyvdw", cmd_polyvdw, "polynomial vdW witness search", "--coloring", "--range", "--colors", colors=None)
    sp.add_argument("--polys", required=True, help="comma-separated polynomials")

    sp = command("construct-thm34", cmd_construct_thm34, "sum-equals-product construction")
    sp.add_argument("--a-list", required=True)
    sp.add_argument("--b-list", default="")
    sp.add_argument("--a", required=True)
    sp.add_argument("--d", required=True)
    sp.add_argument("--polys", required=True)

    sp = command("construct-thm37", cmd_construct_thm37, "nonlinear Rado construction")
    sp.add_argument("matrix")
    sp.add_argument("--kernel-vec", default="")
    sp.add_argument("--a", required=True)
    sp.add_argument("--d", required=True)
    sp.add_argument("--polys", required=True)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:  # --help; a usage error raises CliError instead
        return EXIT_FOUND
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
