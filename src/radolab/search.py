"""Monochromatic-solution search inside a coloring, avoiding-coloring search
(generalized Schur/Rado numbers), and DIMACS CNF export."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .colorings import Coloring
from .systems import EquationSystem, eval_equation


class BudgetExhausted(Exception):
    """Raised when the node budget runs out.  A third outcome: it never means
    'no solution in range'."""


@dataclass
class SearchBudget:
    N: int
    node_limit: int = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be positive")
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node_limit must be positive")


@dataclass(frozen=True)
class SolutionRecord:
    assignment: dict
    color: int
    system: str


@dataclass(frozen=True)
class RadoNumberResult:
    system: str
    r: int
    value: int = None
    avoider: Coloring = None
    nodes: int = 0
    exhausted: bool = False


class _Nodes:
    __slots__ = ("count", "limit")

    def __init__(self, limit):
        self.count = 0
        self.limit = limit

    def spend(self, k: int = 1):
        self.count += k
        if self.limit is not None and self.count > self.limit:
            raise BudgetExhausted(f"node budget {self.limit} exhausted")


def _is_linear_system(sys: EquationSystem) -> bool:
    for eq in sys.equations:
        for _, mono in eq.terms:
            if len(mono.exps) > 1:
                return False
            if mono.exps and mono.exps[0][1] != 1:
                return False
    return True


def _as_positive_int(v):
    """Positive-integer value of an exact scalar, or None."""
    if isinstance(v, Fraction):
        if v.denominator != 1:
            return None
        v = int(v)
    return v if v >= 1 else None


# ---------------------------------------------------------------------------
# linear fast path


def _linear_tables(sys: EquationSystem):
    """Per equation: constant term, {var_index: coeff}, index of the closing
    (highest) variable."""
    var_index = {v: i for i, v in enumerate(sys.variables)}
    eqs = []
    for eq in sys.equations:
        const = 0
        coeffs = {}
        for c, mono in eq.terms:
            if not mono.exps:
                const += c
            else:
                v = mono.exps[0][0]
                coeffs[var_index[v]] = coeffs.get(var_index[v], 0) + c
        coeffs = {i: c for i, c in coeffs.items() if c != 0}
        close = max(coeffs) if coeffs else None
        eqs.append((const, coeffs, close))
    return eqs


def _forced_value(residual, coeff):
    """Solve residual + coeff*v = 0 for v; None when v is not a positive
    integer."""
    if isinstance(residual, int) and isinstance(coeff, int):
        q, rem = divmod(-residual, coeff)
        if rem:
            return None
        v = q
    else:
        f = Fraction(-residual) / coeff
        if f.denominator != 1:
            return None
        v = int(f)
    return v if v >= 1 else None


def _search_linear(sys, values, value_set, nodes):
    """DFS over the class values with running residuals; the closing variable
    of each equation is solved directly instead of enumerated.  Yields
    assignments (ascending, hence lexicographically least first)."""
    nv = len(sys.variables)
    tables = _linear_tables(sys)
    eqs_closing = [[] for _ in range(nv)]
    touching = [[] for _ in range(nv)]  # non-closing touches per variable
    residuals = [const for const, _, _ in tables]
    for e, (_, coeffs, close) in enumerate(tables):
        for i, c in coeffs.items():
            if i == close:
                eqs_closing[i].append((e, c))
            else:
                touching[i].append((e, c))
    distinct = sys.distinctness == "all-distinct"
    nontrivial = sys.distinctness == "nontrivial"
    assignment = [None] * nv

    def leaf_ok():
        if nontrivial and len(set(assignment)) == 1:
            return False
        return True

    def emit():
        return {v: assignment[i] for i, v in enumerate(sys.variables)}

    def dfs(i):
        if i == nv:
            if leaf_ok():
                yield emit()
            return
        closing = eqs_closing[i]
        if closing:
            nodes.spend()
            e0, c0 = closing[0]
            v = _forced_value(residuals[e0], c0)
            if v is None or v not in value_set:
                return
            for e, ce in closing[1:]:
                if residuals[e] + ce * v != 0:
                    return
            if distinct and v in assignment:
                return
            assignment[i] = v
            for e, ce in touching[i]:
                residuals[e] += ce * v
            yield from dfs(i + 1)
            for e, ce in touching[i]:
                residuals[e] -= ce * v
            assignment[i] = None
        else:
            touch = touching[i]
            for v in values:
                nodes.spend()
                if distinct and v in assignment:
                    continue
                assignment[i] = v
                for e, ce in touch:
                    residuals[e] += ce * v
                yield from dfs(i + 1)
                for e, ce in touch:
                    residuals[e] -= ce * v
            assignment[i] = None

    # fast inner loop: when only the final variable remains and it closes
    # every remaining equation, resolve it inline per candidate
    if nv >= 2 and eqs_closing[nv - 1] and not touching[nv - 1]:
        last = nv - 1
        closing_last = eqs_closing[last]
        e0, c0 = closing_last[0]
        rest = closing_last[1:]

        def dfs_fast(i):
            if i == last:
                nodes.spend()
                v = _forced_value(residuals[e0], c0)
                if v is None or v not in value_set:
                    return
                for e, ce in rest:
                    if residuals[e] + ce * v != 0:
                        return
                if distinct and v in assignment:
                    return
                assignment[i] = v
                if leaf_ok():
                    yield emit()
                assignment[i] = None
                return
            if i == last - 1 and not eqs_closing[i]:
                touch = touching[i]
                res = residuals
                spend = nodes.spend
                for v in values:
                    spend()
                    if distinct and v in assignment:
                        continue
                    for e, ce in touch:
                        res[e] += ce * v
                    w = _forced_value(res[e0], c0)
                    good = (
                        w is not None
                        and w in value_set
                        and all(res[e] + ce * w == 0 for e, ce in rest)
                        and not (distinct and (w == v or w in assignment))
                    )
                    if good:
                        assignment[i] = v
                        assignment[last] = w
                        if leaf_ok():
                            yield emit()
                        assignment[last] = None
                        assignment[i] = None
                    for e, ce in touch:
                        res[e] -= ce * v
                return
            closing = eqs_closing[i]
            if closing:
                nodes.spend()
                ee, cc = closing[0]
                v = _forced_value(residuals[ee], cc)
                if v is None or v not in value_set:
                    return
                for e, ce in closing[1:]:
                    if residuals[e] + ce * v != 0:
                        return
                if distinct and v in assignment:
                    return
                assignment[i] = v
                for e, ce in touching[i]:
                    residuals[e] += ce * v
                yield from dfs_fast(i + 1)
                for e, ce in touching[i]:
                    residuals[e] -= ce * v
                assignment[i] = None
            else:
                touch = touching[i]
                for v in values:
                    nodes.spend()
                    if distinct and v in assignment:
                        continue
                    assignment[i] = v
                    for e, ce in touch:
                        residuals[e] += ce * v
                    yield from dfs_fast(i + 1)
                    for e, ce in touch:
                        residuals[e] -= ce * v
                assignment[i] = None

        yield from dfs_fast(0)
    else:
        yield from dfs(0)


# ---------------------------------------------------------------------------
# generic path (polynomial equations)


def _search_generic(sys, values, value_set, nodes):
    """Plain DFS in declaration order.  When exactly one variable of an
    equation is unassigned and the equation is linear in it, the value is
    solved directly; fully assigned equations prune on nonzero residual."""
    nv = len(sys.variables)
    var_index = {v: i for i, v in enumerate(sys.variables)}
    eq_vars = []
    for eq in sys.equations:
        eq_vars.append(sorted({var_index[v] for v in eq.variables()}))
    unassigned = [len(s) for s in eq_vars]
    eqs_of = [[] for _ in range(nv)]
    for e, s in enumerate(eq_vars):
        for i in s:
            eqs_of[i].append(e)
    distinct = sys.distinctness == "all-distinct"
    nontrivial = sys.distinctness == "nontrivial"
    assignment = {}

    def linear_parts(eq, var):
        """(coeff, const) of eq as a function of `var`, all others assigned;
        None when eq is not linear in var."""
        coeff = 0
        const = 0
        for c, mono in eq.terms:
            exps = dict(mono.exps)
            if var in exps:
                if exps.pop(var) != 1:
                    return None
                f = c
                for v, e in exps.items():
                    f *= assignment[v] ** e
                coeff += f
            else:
                f = c
                for v, e in exps.items():
                    f *= assignment[v] ** e
                const += f
        if coeff == 0:
            return None
        return coeff, const

    def dfs(i):
        if i == nv:
            if nontrivial and len(set(assignment.values())) == 1:
                return
            yield dict(assignment)
            return
        var = sys.variables[i]
        forced = None
        have_forced = False
        for e in eqs_of[i]:
            if unassigned[e] == 1:
                parts = linear_parts(sys.equations[e], var)
                if parts is not None:
                    coeff, const = parts
                    v = _forced_value(const, coeff)
                    have_forced = True
                    forced = v
                    break
        if have_forced:
            candidates = () if forced is None or forced not in value_set else (forced,)
        else:
            candidates = values
        for v in candidates:
            nodes.spend()
            if distinct and v in assignment.values():
                continue
            assignment[var] = v
            ok = True
            for e in eqs_of[i]:
                unassigned[e] -= 1
                if unassigned[e] == 0 and ok:
                    if sys.equations[e].eval(assignment) != 0:
                        ok = False
            if ok:
                yield from dfs(i + 1)
            for e in eqs_of[i]:
                unassigned[e] += 1
            del assignment[var]

    yield from dfs(0)


def _solutions_in_class(sys, values, nodes):
    value_set = set(values)
    if _is_linear_system(sys):
        yield from _search_linear(sys, values, value_set, nodes)
    else:
        yield from _search_generic(sys, values, value_set, nodes)


# ---------------------------------------------------------------------------
# public operations


def find_mono_solution(sys: EquationSystem, c: Coloring, budget: SearchBudget):
    """First monochromatic solution of the system inside [1..min(N, c.N)],
    scanning color classes in index order and values in ascending order
    (lexicographically least within the first solvable class).  None when no
    solution exists in range; raises BudgetExhausted when the node limit is
    hit first."""
    nodes = _Nodes(budget.node_limit)
    bound = min(budget.N, c.N)
    classes = [[] for _ in range(c.r)]
    for k, col in enumerate(c.colors[:bound], start=1):
        classes[col].append(k)
    for color, values in enumerate(classes):
        if not values:
            continue
        for assignment in _solutions_in_class(sys, values, nodes):
            return SolutionRecord(assignment=assignment, color=color, system=sys.name)
    return None


def validate_solution(sys: EquationSystem, c: Coloring, rec: SolutionRecord) -> bool:
    """Independent revalidation: residuals via eval_equation, color uniformity
    via the coloring, distinctness policy re-checked."""
    vals = [rec.assignment[v] for v in sys.variables]
    if any(not isinstance(v, int) or v < 1 for v in vals):
        return False
    if any(eval_equation(eq, rec.assignment) != 0 for eq in sys.equations):
        return False
    if any(c.color_of(v) != rec.color for v in vals):
        return False
    if sys.distinctness == "all-distinct" and len(set(vals)) != len(vals):
        return False
    if sys.distinctness == "nontrivial" and len(set(vals)) == 1:
        return False
    return True


def enumerate_solutions(sys: EquationSystem, N: int, limit: int = None):
    """All solution tuples within [1..N], colors ignored.  Yields assignment
    dicts; raises BudgetExhausted when `limit` nodes are spent."""
    nodes = _Nodes(limit)
    values = list(range(1, N + 1))
    yield from _solutions_in_class(sys, values, nodes)


def _has_mono_solution(sys, coloring, nodes):
    bound = coloring.N
    classes = [[] for _ in range(coloring.r)]
    for k, col in enumerate(coloring.colors, start=1):
        classes[col].append(k)
    for values in classes:
        if not values:
            continue
        for _ in _solutions_in_class(sys, values, nodes):
            return True
    return False


def _value_sets(sys, N, nodes):
    """The value set of every solution in [1..N], colors ignored, as a sorted
    tuple, in enumeration order; a set repeats once per solution that has
    it.  Whether a solution is monochromatic depends only on its value set."""
    for assignment in _solutions_in_class(sys, list(range(1, N + 1)), nodes):
        yield tuple(sorted(set(assignment.values())))


def _solution_index(sys, M, nodes):
    """The solution hypergraph on [1..M], indexed by largest member:
    entry k holds, for each value set whose maximum is k, the bitmask of its
    other members (bit v stands for the integer v)."""
    by_max = [set() for _ in range(M + 1)]
    for s in _value_sets(sys, M, nodes):
        others = 0
        for v in s[:-1]:
            others |= 1 << v
        by_max[s[-1]].add(others)
    return [tuple(b) for b in by_max]


def rado_number(sys: EquationSystem, r: int, budget: SearchBudget) -> RadoNumberResult:
    """Least N <= budget.N such that every r-coloring of [1..N] has a
    monochromatic solution.  The avoiding coloring for N-1 is attached.  On
    budget exhaustion (or no value up to budget.N) the value is absent and
    the largest avoider found is attached; `exhausted` distinguishes the
    two.

    One depth-first search colors 1, 2, 3, ... in turn: the color of 1 is
    fixed to 0 and new colors are introduced in ascending order.  Avoiding
    colorings are closed under prefixes, and a new monochromatic solution
    must contain the integer k just colored, as the largest member of its
    value set; so coloring k with c is legal iff no value set with maximum k
    has all its other members colored c.  The value is 1 + the depth of the
    deepest avoiding prefix, and the first prefix to reach a depth is the
    least avoider of that length in search order.

    The value sets are enumerated once per range [1..M]: M starts at
    min(N, 8) and doubles, up to N, when the search first goes deeper than
    M.  `nodes` counts enumeration steps plus color assignments tried, both
    charged to `budget.node_limit`.  A search whose budget runs out during
    an enumeration never reports a value.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    N = budget.N
    nodes = _Nodes(budget.node_limit)
    colors = [0] * (N + 1)  # colors[k]: color of k in the current prefix
    next_color = [0] * (N + 2)  # next color to try at depth k
    used = [0] * (N + 2)  # number of colors used by 1..k-1
    masks = [0] * r  # bit k of masks[c]: k is colored c
    M = 0
    by_max = []
    best = ()  # deepest avoiding prefix found, first in search order
    exhausted = False
    try:
        k = 1
        while k:
            c = next_color[k]
            if c > used[k] or c == r:  # depth k is done: back to k - 1
                k -= 1
                if k:
                    masks[colors[k]] ^= 1 << k
                continue
            next_color[k] = c + 1
            nodes.spend()
            if k > M:
                M = min(N, max(8, 2 * M))
                by_max = _solution_index(sys, M, nodes)
            mask = masks[c]
            for others in by_max[k]:
                if others & mask == others:
                    break
            else:
                colors[k] = c
                masks[c] = mask | 1 << k
                if k > len(best):
                    best = tuple(colors[1 : k + 1])
                    if k == N:
                        break
                used[k + 1] = max(used[k], c + 1)
                next_color[k + 1] = 0
                k += 1
    except BudgetExhausted:
        exhausted = True
    avoider = Coloring(N=len(best), r=r, colors=best) if best else None
    value = None if exhausted or len(best) == N else len(best) + 1
    return RadoNumberResult(
        system=sys.name, r=r, value=value, avoider=avoider, nodes=nodes.count, exhausted=exhausted
    )


# ---------------------------------------------------------------------------
# CNF export


def export_cnf(sys: EquationSystem, r: int, N: int, tuple_limit: int = 200000) -> str:
    """DIMACS CNF that is satisfiable iff an avoiding r-coloring of [1..N]
    exists.  Variables v(n,c) = (n-1)*r + c + 1; clauses give each integer
    exactly one color and block every solution tuple from being monochromatic.

    When tuple enumeration hits `tuple_limit` nodes the instance is an
    under-approximation and carries a truncation comment.
    """
    if r < 1 or N < 1:
        raise ValueError("r and N must be positive")
    truncated = False
    tuples = set()
    try:
        for value_set in _value_sets(sys, N, _Nodes(tuple_limit)):
            tuples.add(value_set)
    except BudgetExhausted:
        truncated = True
    nvars = N * r
    clauses = []
    for n in range(1, N + 1):
        clauses.append([(n - 1) * r + c + 1 for c in range(r)])
        for c1 in range(r):
            for c2 in range(c1 + 1, r):
                clauses.append([-((n - 1) * r + c1 + 1), -((n - 1) * r + c2 + 1)])
    for tup in sorted(tuples):
        for c in range(r):
            clauses.append([-((n - 1) * r + c + 1) for n in tup])
    lines = [
        f"c avoiding-coloring instance for system {sys.name!r}, r={r}, N={N}",
        "c variable numbering: v(n,c) = (n-1)*r + c + 1",
    ]
    if truncated:
        lines.append("c WARNING: solution-tuple enumeration truncated; instance under-approximates")
    lines.append(f"p cnf {nvars} {len(clauses)}")
    for cl in clauses:
        lines.append(" ".join(str(x) for x in cl) + " 0")
    return "\n".join(lines) + "\n"
