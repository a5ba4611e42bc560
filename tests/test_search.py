"""Tests for the solution search, the Rado-number search and the CNF export."""

import dataclasses
import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from radolab.colorings import Coloring, all_one_coloring, parity_coloring, rado_avoider_coloring, random_coloring
from radolab import search
from radolab.polyring import poly_parse
from radolab.search import (
    BudgetExhausted,
    SearchBudget,
    SolutionRecord,
    _Nodes,
    _Plan,
    _bitmask,
    _iroot,
    _value_sets,
    export_cnf,
    find_mono_solution,
    rado_number,
    validate_solution,
)
from radolab.systems import (
    DISTINCTNESS,
    Equation,
    EquationSystem,
    Monomial,
    _eq,
    ap_times_power,
    ap_times_product,
    build_nonlinear_rado,
    eval_equation,
    mult_schur_system,
    schur_system,
    single_equation,
    system_from_json,
)
from radolab.exactq import Matrix


def _coloring_from_classes(N, classes):
    colors = [None] * N
    for color, members in enumerate(classes):
        for k in members:
            colors[k - 1] = color
    return Coloring(N=N, r=len(classes), colors=tuple(colors))


def _budget(N, nodes=None):
    return SearchBudget(N=N, node_limit=nodes)


# ---------------------------------------------------------------------------
# find_mono_solution


def test_schur_every_2_coloring_of_5():
    sys = schur_system()
    for colors in itertools.product(range(2), repeat=5):
        c = Coloring(N=5, r=2, colors=colors)
        rec = find_mono_solution(sys, c, _budget(5))
        assert rec is not None
        assert validate_solution(sys, c, rec)


def test_schur_avoider_coloring_of_4():
    sys = schur_system()
    c = _coloring_from_classes(4, [[1, 4], [2, 3]])
    assert find_mono_solution(sys, c, _budget(4)) is None


def test_example_system_all_one_10():
    A = Matrix([[1, 2, -3], [2, -1, -1]])
    sys = build_nonlinear_rado(A, [poly_parse("z^2 + z"), poly_parse("z^3")])
    rec = find_mono_solution(sys, all_one_coloring(10), _budget(10))
    assert rec is not None
    # lexicographic minimum in declaration order
    assert rec.assignment == {"x1": 1, "x2": 1, "y1": 3, "y2": 9, "z": 2}
    assert validate_solution(sys, all_one_coloring(10), rec)
    # the hand-built solution (2, 1, 2, 4, 1) is valid too, just later
    assert sys.residuals({"x1": 2, "x2": 1, "y1": 2, "y2": 4, "z": 1}) == [0, 0]


def test_solution_is_lexicographically_least():
    sys = schur_system()
    rec = find_mono_solution(sys, all_one_coloring(10), _budget(10))
    assert rec.assignment == {"x": 1, "y": 1, "z": 2}


def test_first_solvable_class_wins():
    # class 0 = evens has 2+2=4; class 1 = odds has 1+1=2? no, 2 is even.
    # odds alone: 1+1=2 not odd, 1+3=4 not odd; no odd solution of x+y=z.
    sys = schur_system()
    c = _coloring_from_classes(6, [[2, 4, 6], [1, 3, 5]])
    rec = find_mono_solution(sys, c, _budget(6))
    assert rec.color == 0
    assert rec.assignment == {"x": 2, "y": 2, "z": 4}


def test_many_colors_cost_no_memory_per_color():
    # multiples of 3 take color 10, the rest color 900,000; both classes hold
    # a Schur triple, and the lower color index is scanned first
    c = Coloring(N=10, r=10**6, colors=tuple(10 if k % 3 == 0 else 900_000 for k in range(1, 11)))
    tracemalloc.start()
    try:
        rec = find_mono_solution(schur_system(), c, _budget(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rec.color, rec.assignment) == (10, {"x": 3, "y": 3, "z": 6})
    assert peak < 100_000


def test_budget_exhaustion_is_distinct():
    sys = schur_system()
    c = _coloring_from_classes(4, [[1, 4], [2, 3]])
    with pytest.raises(BudgetExhausted):
        find_mono_solution(sys, c, _budget(4, nodes=2))


def test_node_budget_boundary():
    # one node per value tried at an enumerated variable; the last variable
    # of x + y = 3z is solved from the equation, for free
    sys = single_equation([1, 1, -3])
    c = rado_avoider_coloring((1, 1, -3), 5).coloring(200)
    classes = [[k for k in range(1, 201) if c.color_of(k) == color] for color in range(c.r)]
    # the values of x, then the values of y from x's on (x and y are
    # interchangeable, so y >= x) whose z = (x + y) / 3 is in the class; the
    # others are cut before they are tried.  The coloring avoids the
    # equation, so no y is tried.
    spent = sum(
        len(cls) + sum(1 for x in cls for y in cls if y >= x and (x + y) % 3 == 0 and (x + y) // 3 in cls)
        for cls in classes
    )
    assert spent == 200
    assert find_mono_solution(sys, c, _budget(200, nodes=spent)) is None
    with pytest.raises(BudgetExhausted):
        find_mono_solution(sys, c, _budget(200, nodes=spent - 1))
    # with 200 recolored 3, (100, 200, 100) is a solution in the last class:
    # the budget runs out at its y, a candidate the mask found
    c = Coloring(N=200, r=c.r, colors=c.colors[:-1] + (3,))
    cls = [k for k in range(1, 201) if c.color_of(k) == 3]
    tried = [(x, y) for x in cls for y in cls if y >= x and (x + y) % 3 == 0 and (x + y) // 3 in cls]
    assert tried == [(100, 200)]
    spent = 200 - len(cls) + cls.index(100) + 1 + len(tried)
    assert spent == 176
    rec = find_mono_solution(sys, c, _budget(200, nodes=spent))
    assert (rec.color, rec.assignment) == (3, {"v1": 100, "v2": 200, "v3": 100})
    with pytest.raises(BudgetExhausted):
        find_mono_solution(sys, c, _budget(200, nodes=spent - 1))
    # in a polynomial system too: z of x*y = z is solved, so (1, 1, 1) costs 2
    sys = mult_schur_system()
    rec = find_mono_solution(sys, all_one_coloring(6), _budget(6, nodes=2))
    assert rec.assignment == {"x": 1, "y": 1, "z": 1}
    with pytest.raises(BudgetExhausted):
        find_mono_solution(sys, all_one_coloring(6), _budget(6, nodes=1))


def test_distinctness_flags():
    sys_rep = single_equation([1, 1, -2])  # x + y = 2z
    sys_non = dataclasses.replace(single_equation([1, 1, -2]), distinctness="nontrivial")
    c = all_one_coloring(3)
    rec = find_mono_solution(sys_rep, c, _budget(3))
    assert rec.assignment == {"v1": 1, "v2": 1, "v3": 1}
    rec = find_mono_solution(sys_non, c, _budget(3))
    assert rec is not None
    assert len(set(rec.assignment.values())) > 1


def test_nonlinear_engine_mult_schur():
    sys = mult_schur_system()
    c = all_one_coloring(6)
    rec = find_mono_solution(sys, c, _budget(6))
    assert rec.assignment == {"x": 1, "y": 1, "z": 1}


def test_determinism():
    sys = schur_system()
    c = _coloring_from_classes(8, [[1, 2, 6], [3, 4, 5, 7, 8]])
    recs = [find_mono_solution(sys, c, _budget(8)) for _ in range(3)]
    assert recs[0] == recs[1] == recs[2]


def _brute_force_solutions(sys, N):
    """Every solution in [1..N], in lexicographic order, by trying every
    tuple of values."""
    out = []
    for values in itertools.product(range(1, N + 1), repeat=len(sys.variables)):
        if sys.distinctness == "all-distinct" and len(set(values)) < len(values):
            continue
        if sys.distinctness == "nontrivial" and len(set(values)) == 1:
            continue
        assignment = dict(zip(sys.variables, values))
        if all(eval_equation(eq, assignment) == 0 for eq in sys.equations):
            out.append(assignment)
    return out


def _system(variables, *equations):
    return EquationSystem(name="test", variables=tuple(variables), equations=equations)


def _brute_force_suite():
    """Systems of every kind for the brute-force checks below, each with
    the range N it is checked on, and with interchangeable variables among
    both the enumerated and the solved ones."""
    rng = random.Random(55)

    def coeff():
        return rng.choice([-3, -2, -1, 1, 2, 3])

    def linear(names):
        return Equation([(coeff(), Monomial({v: 1})) for v in names])

    polys = [poly_parse(t) for t in ("z", "z^2", "z^2 + z", "2z^2 - z", "z^3", "z^3 - z")]
    crit8 = Matrix([[1, 2, -3], [2, -1, -1]])
    x, y, z, w = ({v: 1} for v in "xyzw")
    suite = [
        single_equation([Fraction(1, 2), Fraction(1, 2), -1]),
        single_equation([1, 1, 1, -1]),
        build_nonlinear_rado(crit8, [poly_parse("z^2 + z"), poly_parse("z^3")]),
        # the last variable is solved, and interchangeable with the others
        _system("xyz", _eq((1, x), (1, y), (1, z), (-12, {}))),
        _system("xy", _eq((1, {"x": 1, "y": 1}), (-12, {}))),
        # x ~ y only when both equations swap together
        _system("xyz", _eq((1, x), (2, y), (-1, z)), _eq((2, x), (1, y), (-1, z))),
        _system("xyzw", _eq((1, x), (1, y), (-1, z), (-1, w))),
        # the last variable comes from a lookup table, and candidates whose
        # solved value falls outside the class are cut: at the upper end,
        _system("xywz", _eq((1, x), (1, y), (1, w), (-1, z))),
        # with a constant,
        _system("xyz", _eq((1, x), (1, y), (3, {}), (-1, z))),
        # with a negative coefficient in the looked-up equation (both ends),
        _system("xyz", _eq((2, x), (-1, y), (-1, z))),
        _system("xyz", _eq((3, x), (-1, {"y": 3}), (-1, z))),
        # and with an exponent above 1 (x^2 + y = z, x set just before z)
        _system("yxz", _eq((1, {"x": 2}), (1, y), (-1, z))),
        _system("xyz", _eq((1, x), (-2, {"y": 2}), (2, z))),
        # a pivot 4z with y entering as 2y: gcd 2 does not divide x + 1 for
        # an even x, so that level is skipped outright; for an odd x, y runs
        # over one residue class mod 2
        _system("xyz", _eq((1, x), (2, y), (1, {}), (-4, z))),
        _system("xyz", _eq((2, x), (4, y), (1, {}), (-6, z))),
        # a pivot with |c| >= 3 and a negative coefficient of y
        _system("xyz", _eq((1, x), (-2, y), (3, z))),
        _system("xyz", _eq((5, x), (-3, y), (-2, {}), (6, z))),
        # closings monotone in z, found by bisection: y * z^2, z^2 + z, and
        # -z^3 - z with the other terms positive
        _system("xyz", _eq((1, x), (-1, {"y": 1, "z": 2}))),
        _system("xyz", _eq((1, x), (1, y), (-1, {"z": 2}), (-1, z))),
        _system("xyz", _eq((1, x), (2, y), (1, {}), (-1, {"z": 3}), (-1, z))),
        # a mixed-sign closing, 2z^2 - z, whose z is still enumerated
        _system("xyz", _eq((1, x), (1, y), (-2, {"z": 2}), (1, z))),
    ]
    suite += [sys for sys, _ in _plan_order_cases()]
    # x1 + x2 + x3 = y1 * z1: z1 is fixed by a closing linear in z1 with the
    # coefficient y1
    suite.append(ap_times_product(1, 1, 3))
    for _ in range(8):
        suite.append(single_equation([coeff() for _ in range(rng.randint(2, 4))]))
        names = ("a", "b", "c", "d")
        eqs = (linear(rng.sample(names, 3)), linear(rng.sample(names, 2)))
        suite.append(EquationSystem(name="two-linear", variables=names, equations=eqs))
        rows = [[coeff() for _ in range(3)] for _ in range(rng.randint(1, 2))]
        suite.append(build_nonlinear_rado(Matrix(rows), [rng.choice(polys) for _ in rows]))
    for sys in suite:
        N = 7 if len(sys.variables) <= 4 else 5
        for policy in DISTINCTNESS:
            yield dataclasses.replace(sys, distinctness=policy), N


def _plan_order_cases():
    """Systems whose plan order hoists a variable, or must not, each with its
    plan order; a variable that an equation fixes is marked with the rule,
    :pivot (a lookup table) or :bisect, and the others are enumerated."""
    x, y, z, w, u, p, q = ({v: 1} for v in "xyzwupq")
    crit8 = build_nonlinear_rado(Matrix([[1, 2, -3], [2, -1, -1]]), [poly_parse("z^2 + z"), poly_parse("z^3")])
    return [
        # z^2 + z fixes z once y1 is set, and then the pivot -y2 fixes y2
        (crit8, "x1 x2 y1 z:bisect y2:pivot"),
        # y1 * z^2 fixes z, and z^2 * y2 fixes y2: linear in y2, but its
        # coefficient is not a constant
        (ap_times_power(2, 2, 3), "x1 x2 x3 y1 z:bisect y2:bisect"),
        # the hoisted pivot 4z feeds the key-span cut and the residue step
        # of y, which enters as 2y; u, mixed in u^2 - u, keeps its turn
        (_system("xyuz", _eq((1, x), (2, y), (1, {}), (-4, z)), _eq((1, {"u": 2}), (-1, u), (-1, z))), "x y z:pivot u"),
        # not hoisted: 2z^2 - z = x has mixed signs, so z waits for y and
        # its pivot in y + z = x + 3
        (_system("xyz", _eq((1, x), (-2, {"z": 2}), (1, z)), _eq((1, y), (1, z), (-1, x), (-3, {}))), "x y z:pivot"),
        # not hoisted: x * (z - 1) * (z - 4) = 0 has mixed signs and two
        # roots, so trying z before y would break the lexicographic order
        (
            _system("xyz", _eq((1, {"x": 1, "z": 2}), (-5, {"x": 1, "z": 1}), (4, x)), _eq((1, y), (1, z), (-1, x), (-5, {}))),
            "x y z:pivot",
        ),
        # not hoisted: the coefficient x - y of z can vanish
        (
            _system("xywz", _eq((1, {"x": 1, "z": 1}), (-1, {"y": 1, "z": 1}), (-2, {})), _eq((1, w), (1, z), (-1, x), (-1, y))),
            "x y w z:pivot",
        ),
        # (x - y) z^2 + z = 6 is monotone in z where x >= y, but its terms
        # in z have both signs, so z fixes nothing and is enumerated
        (_system("xyz", _eq((1, {"x": 1, "z": 2}), (-1, {"y": 1, "z": 2}), (1, z), (-6, {}))), "x y z"),
        # interchangeable p and q (2x = p + 1, 2x = q + 1) are hoisted
        # together, in declaration order
        (
            _system("xypq", _eq((2, x), (-1, p), (-1, {})), _eq((2, x), (-1, q), (-1, {})), _eq((1, y), (-1, p), (-1, q))),
            "x p:pivot q:pivot y:pivot",
        ),
        # a hoisted q placed after its partner p: p <= q is checked there
        (_system("pxyq", _eq((1, p), (1, q), (-2, x)), _eq((1, {"y": 2}), (-1, y), (-1, x))), "p x q:pivot y"),
        # the first variable fixed by its own equation, by bisection
        # (z^2 + z = 6) and by a pivot (2w = 6)
        (_system("zxy", _eq((1, {"z": 2}), (1, z), (-6, {})), _eq((1, x), (1, y), (-1, z))), "z:bisect x y:pivot"),
        (_system("wxy", _eq((2, w), (-6, {})), _eq((1, x), (-1, y), (1, w))), "w:pivot x y:pivot"),
    ]


def test_plan_order_hoists_only_certain_fixes():
    for sys, expect in _plan_order_cases():
        plan = _Plan(sys)
        pos = plan.pos or range(len(sys.variables))
        order = sorted(sys.variables, key=lambda v: pos[sys.variables.index(v)])
        rules = [f and (":pivot" if f[3] else ":bisect") or "" for f in plan.fixing]
        assert " ".join(v + rule for v, rule in zip(order, rules)) == expect, sys
        # every closing equation but the fixing one is checked
        for f, closes, solved in zip(plan.fixing, plan.closes, plan.solved):
            assert [e for e, _ in solved] == [e for e, _ in closes if not f or e != f[0]], sys
        # the fixed variables after each position are placed inline, up to
        # the next enumerated one
        enumerated = [k for k, rule in enumerate(rules) if not rule] + [len(rules)]
        assert plan.until == [min(k for k in enumerated if k > i) for i in range(len(rules))], sys
    # one equation hoists nothing
    for sys in (schur_system(), single_equation([1, 1, 1, -5]), mult_schur_system()):
        assert _Plan(sys).pos is None


def test_plan_order_node_counts():
    # y2 is fixed, never tried: only x1, x2 (and x3) and y1 cost nodes
    crit8 = build_nonlinear_rado(Matrix([[1, 2, -3], [2, -1, -1]]), [poly_parse("z^2 + z"), poly_parse("z^3")])
    aptp = ap_times_power(2, 2, 3)
    cases = [
        (crit8, random_coloring(40, 2, 1), 467, {"x1": 2, "x2": 1, "y1": 2, "y2": 4, "z": 1}),
        (crit8, random_coloring(40, 2, 0), 332, {"x1": 10, "x2": 10, "y1": 14, "y2": 37, "z": 3}),
        (aptp, parity_coloring(32), 858, {"x1": 2, "x2": 8, "x3": 6, "y1": 4, "y2": 6, "z": 2}),
        (aptp, parity_coloring(24), 502, {"x1": 2, "x2": 8, "x3": 6, "y1": 4, "y2": 6, "z": 2}),
    ]
    for sys, c, spent, assignment in cases:
        nodes = _Nodes(None)
        rec = find_mono_solution(sys, c, _budget(c.N), nodes)
        assert (nodes.count, rec.assignment, rec.color) == (spent, assignment, 0)
        with pytest.raises(BudgetExhausted):
            find_mono_solution(sys, c, _budget(c.N, nodes=spent - 1))


def test_mixed_signs_for_some_values_only_enumerate():
    # z of (x - y) z^2 + z = 6 is tried value by value even where x > y
    # makes the equation monotone in z: every (x, y, z) costs a node
    sys = _system("xyz", _eq((1, {"x": 1, "z": 2}), (-1, {"y": 1, "z": 2}), (1, {"z": 1}), (-6, {})))
    nodes = _Nodes(None)
    got = list(_Plan(sys).solutions(list(range(1, 8)), nodes))
    assert nodes.count == 7 + 7**2 + 7**3
    assert got == [list(s.values()) for s in _brute_force_solutions(sys, 7)]
    assert len(got) == 15


def test_interchangeable_variables_are_detected():
    x, y, z, w = ({v: 1} for v in "xyzw")
    cases = [
        (schur_system(), [("x", "y"), ("z",)]),
        (single_equation([1, 1, 1, 1, -1]), [("v1", "v2", "v3", "v4"), ("v5",)]),
        (mult_schur_system(), [("x", "y"), ("z",)]),
        (single_equation([Fraction(1, 2), Fraction(1, 2), -1]), [("v1", "v2"), ("v3",)]),
        (single_equation([-2, -2, 4]), [("v1", "v2"), ("v3",)]),
        # x + y = z with x * y = w
        (
            _system("xyzw", _eq((1, x), (1, y), (-1, z)), _eq((1, {"x": 1, "y": 1}), (-1, w))),
            [("x", "y"), ("z",), ("w",)],
        ),
        # x + 2y = z with 2x + y = z: neither equation alone is symmetric
        (
            _system("xyz", _eq((1, x), (2, y), (-1, z)), _eq((2, x), (1, y), (-1, z))),
            [("x", "y"), ("z",)],
        ),
        # near misses
        (single_equation([1, 2, -1]), [("v1",), ("v2",), ("v3",)]),
        (
            _system("xyzw", _eq((1, x), (1, y), (-1, z)), _eq((1, x), (-2, w))),
            [("x",), ("y",), ("z",), ("w",)],
        ),
        (_system("xyzw", _eq((1, x), (1, y), (-1, z), (-1, w))), [("x", "y"), ("z", "w")]),
        (_system("xy", _eq((1, {"x": 2}), (-1, y))), [("x",), ("y",)]),
    ]
    for sys, classes in cases:
        assert _Plan(sys).classes == classes, sys


def _classes(N, seed):
    """Three seeded random subsets of [1..N], with gaps like the color
    classes of a random coloring."""
    rng = random.Random(seed)
    return [sorted(rng.sample(range(1, N + 1), rng.randint(2, N - 1))) for _ in range(3)]


def test_value_sets_match_brute_force():
    found = 0
    for k, (sys, N) in enumerate(_brute_force_suite()):
        expect = {tuple(sorted(set(s.values()))) for s in _brute_force_solutions(sys, N)}
        assert set(_value_sets(sys, N, _Nodes(None))) == expect, (sys, N)
        found += len(expect)
        for values in _classes(N, k):
            got = {tuple(sorted(set(a))) for a in _Plan(sys).solutions(values, _Nodes(None))}
            assert got == {s for s in expect if set(s) <= set(values)}, (sys, values)
    assert found > 100


def test_plan_yields_one_solution_per_orbit():
    # exactly the solutions whose interchangeable variables take
    # nondecreasing values, in lexicographic order, as value lists in
    # declaration order, on [1..N] and on classes with gaps
    for k, (sys, N) in enumerate(_brute_force_suite()):
        plan = _Plan(sys)
        expect = [
            list(s.values()) for s in _brute_force_solutions(sys, N)
            if all(s[u] <= s[v] for cls in plan.classes for u, v in zip(cls, cls[1:]))
        ]
        for values in [list(range(1, N + 1))] + _classes(N, k):
            inside = [a for a in expect if set(a) <= set(values)]
            assert list(plan.solutions(values, _Nodes(None))) == inside, (sys, values)


def test_find_mono_solution_is_brute_force_lexicographically_least():
    rng = random.Random(56)
    for sys, N in _brute_force_suite():
        solutions = _brute_force_solutions(sys, N)
        for r in (2, 3):
            c = Coloring(N=N, r=r, colors=tuple(rng.randrange(r) for _ in range(N)))
            expect = None
            for color in range(r):
                mono = [s for s in solutions if all(c.color_of(v) == color for v in s.values())]
                if mono:
                    expect = (mono[0], color)
                    break
            rec = find_mono_solution(sys, c, _budget(N))
            got = None if rec is None else (rec.assignment, rec.color)
            assert got == expect, (sys, c)


def test_value_sets_nodes_of_x1_to_x4_summing_to_x5():
    # x1 <= x2 <= x3 <= x4 are tried, x5 is solved; an x4 whose x5 would be
    # past 32 is cut before it is tried
    R = range(1, 33)
    expect = sum(1 for k in (1, 2, 3) for _ in itertools.combinations_with_replacement(R, k))
    expect += sum(1 for t in itertools.combinations_with_replacement(R, 4) if sum(t) <= 32)
    nodes = _Nodes(None)
    sets = list(_value_sets(single_equation([1, 1, 1, 1, -1]), 32, nodes))
    assert nodes.count == expect == 8701
    assert len(sets) == 2157


def test_cut_charges_only_values_whose_solved_value_is_in_the_class():
    # a class with gaps; z is solved from the equation, so a node is one
    # value of x plus one value of y (y >= x where they are interchangeable)
    # whose solved z is in the class when y enters linearly with a constant
    # coefficient, and lies between the least and the greatest member when
    # it enters as a power
    values = [2, 3, 5, 7, 11, 13, 17]
    x, y, z = ({v: 1} for v in "xyz")
    # (equation, interchangeable pair or None, z solved from x and y)
    cases = [
        (_eq((1, x), (1, y), (3, {}), (-1, z)), (0, 1), lambda x, y: x + y + 3),
        (_eq((2, x), (-1, y), (-1, z)), (1, 2), lambda x, y: 2 * x - y),
        (_eq((3, x), (-1, {"y": 3}), (-1, z)), None, lambda x, y: 3 * x - y**3),
        (_eq((1, x), (1, {"y": 2}), (-1, z)), None, lambda x, y: x + y**2),
        (_eq((1, x), (-2, {"y": 2}), (2, z)), None, lambda x, y: Fraction(2 * y**2 - x, 2)),
        (_eq((1, x), (2, y), (-3, z)), None, lambda x, y: Fraction(x + 2 * y, 3)),
        (_eq((1, x), (2, y), (1, {}), (-4, z)), None, lambda x, y: Fraction(x + 2 * y + 1, 4)),
        (_eq((2, x), (2, y), (1, {}), (-4, z)), (0, 1), lambda x, y: Fraction(2 * x + 2 * y + 1, 4)),
        (_eq((3, x), (-6, y), (9, z)), None, lambda x, y: Fraction(6 * y - 3 * x, 9)),
    ]
    for eq, pair, solve in cases:
        tried = [(a, b) for a in values for b in values if pair != (0, 1) or b >= a]
        linear = ("y", 1) in [p for _, m in eq.terms for p in m.exps]
        expect = len(values) + sum(
            1 for a, b in tried if (solve(a, b) in values if linear else values[0] <= solve(a, b) <= values[-1])
        )
        nodes = _Nodes(None)
        got = list(_Plan(_system("xyz", eq)).solutions(values, nodes))
        assert nodes.count == expect, eq
        sols = [[a, b, solve(a, b)] for a, b in tried if solve(a, b) in values]
        assert got == [s for s in sols if not pair or s[pair[0]] <= s[pair[1]]], eq


def test_constant_coefficient_tries_only_values_whose_solved_value_is_in_the_class():
    # a x + k y + b + c z = 0 with k a constant: y's candidates come from
    # the bitmask of the class, so a node is one value of x plus one value
    # of y (y >= x where they are interchangeable) whose solved z is a
    # member of the class; the solutions are those (x, y, z), one per orbit,
    # under every distinctness policy
    rng = random.Random(16)
    nonzero = [-4, -3, -2, -1, 1, 2, 3, 4]
    masked = 0
    for _ in range(400):
        a, k, c = rng.choice(nonzero), rng.choice(nonzero), rng.choice(nonzero)
        b = rng.randint(-8, 8)
        terms = [(a, {"x": 1}), (k, {"y": 1}), (c, {"z": 1})] + ([(b, {})] if b else [])
        sys = dataclasses.replace(_system("xyz", _eq(*terms)), distinctness=rng.choice(DISTINCTNESS))
        N = rng.randint(1, 30)
        values = sorted(rng.sample(range(1, N + 1), rng.randint(1, N)))
        plan = _Plan(sys)
        assert plan.aheads[1][2] == k, sys
        ordered = any("x" in cls and "y" in cls for cls in plan.classes)
        tried = [(x, y) for x in values for y in values if not ordered or y >= x]
        # z solves the equation directly, independently of the search
        hits = [(x, y, -(a * x + k * y + b) // c) for x, y in tried if -(a * x + k * y + b) % c == 0]
        hits = [h for h in hits if h[2] in values]
        nodes = _Nodes(None)
        got = list(plan.solutions(values, nodes))
        assert nodes.count == len(values) + len(hits), (sys, values)
        least = {"allow-repeats": 1, "nontrivial": 2, "all-distinct": 3}[sys.distinctness]  # distinct values
        expect = [
            list(h) for h in hits
            if len(set(h)) >= least
            and all(h["xyz".index(u)] <= h["xyz".index(v)] for cls in plan.classes for u, v in zip(cls, cls[1:]))
        ]
        assert got == expect, (sys, values)
        masked += len(hits) < len(tried)
    # the cut removed candidates in most cases
    assert masked > 300


def test_product_coefficient_keeps_the_probe():
    # y of x * y = z has the coefficient x, a placed value, so the mask
    # does not apply: y runs over the values whose x * y lies between the
    # least and the greatest member, and each costs a node whether or not
    # x * y is a member
    values = [3, 4, 5, 6, 7, 8, 10, 14, 16, 21, 24, 26, 27, 28, 33, 35, 36, 38, 42, 44, 45, 49, 53, 55, 56]
    plan = _Plan(mult_schur_system())
    assert plan.aheads[1][2] is None
    nodes = _Nodes(None)
    got = list(plan.solutions(values, nodes))
    spent = len(values) + sum(1 for x in values for y in values if y >= x and 3 <= x * y <= 56)
    assert nodes.count == spent == 51
    assert got == [[x, y, x * y] for x in values for y in values if y >= x and x * y in values]
    # x * y = 3z keeps the residue cut too: where 3 does not divide x, y
    # runs over the multiples of 3
    plan = _Plan(_system("xyz", _eq((1, {"x": 1, "y": 1}), (-3, {"z": 1}))))
    assert plan.aheads[1][2] is None
    nodes = _Nodes(None)
    got = list(plan.solutions(values, nodes))
    spent = len(values) + sum(1 for x in values for y in values if y >= x and 9 <= x * y <= 168 and x * y % 3 == 0)
    assert nodes.count == spent == 76
    assert got == [[x, y, x * y // 3] for x in values for y in values if y >= x and x * y / 3 in values]


def test_masks_only_where_they_fit_in_a_word_per_value(monkeypatch):
    # x + y = c z on the odd values in [1..2m - 1]: y's key masks span about
    # c (2m - 2) bits and the values' mask 2m, so they fit in 64 bits per
    # value up to c = 31.  Up to there a node is one x plus one y whose z is
    # in the class; from c = 32 on, y runs over the x + y divisible by c
    # inside [c, c (2m - 1)] and each costs a node, whether z is odd or not
    m = 500
    values = list(range(1, 2 * m, 2))
    odd = set(values)
    built = []
    monkeypatch.setattr(search, "_bitmask", lambda bits: built.append(max(bits)) or _bitmask(bits))
    for c in (3, 31, 32, 1000):
        built.clear()
        plan = _Plan(single_equation([1, 1, -c]))
        nodes = _Nodes(None)
        got = list(plan.solutions(values, nodes))
        pairs = [(x, y) for x in values for y in values if y >= x and (x + y) % c == 0]
        masked = c <= 31
        tried = [(x, y) for x, y in pairs if (x + y) // c in odd] if masked else pairs
        assert nodes.count == m + len(tried), c
        assert got == [[x, y, (x + y) // c] for x, y in pairs if (x + y) // c in odd], c
        # the masks built: the keys' part and the values, or none
        assert len(built) == (2 if masked else 0), c
        assert all(b <= 64 * m for b in built), c
    # without masks the budget runs out at the last y tried: for c = 1000,
    # each x and then, below 500, the y = 1000 - x
    plan = _Plan(single_equation([1, 1, -1000]))
    spent = m + sum(1 for x in values for y in values if y >= x and (x + y) % 1000 == 0)
    assert spent == 500 + 250
    assert list(plan.solutions(values, _Nodes(spent))) == [[x, 1000 - x, 1] for x in range(1, 501, 2)]
    with pytest.raises(BudgetExhausted):
        list(plan.solutions(values, _Nodes(spent - 1)))


def test_probe_skips_a_residual_that_the_gcd_does_not_divide(monkeypatch):
    # x + 2y = 1000z on [1..1000]: y's masks would take about 1000 bits per
    # value, so y keeps the probe, and 1000 divides x + 2y only when
    # gcd(2, 1000) = 2 divides x.  Every odd x skips y at no node cost; for
    # even x, y runs over one residue class mod 500, and each y tried is a
    # solution.  So a node is one x or one solution
    N = 1000
    built = []
    monkeypatch.setattr(search, "_bitmask", lambda bits: built.append(max(bits)) or _bitmask(bits))
    sys = single_equation([1, 2, -1000])
    nodes = _Nodes(None)
    got = list(_value_sets(sys, N, nodes))
    sols = [(x, y, (x + 2 * y) // 1000) for x in range(1, N + 1) for y in range(1, N + 1) if (x + 2 * y) % 1000 == 0]
    assert got == [tuple(sorted(set(s))) for s in sols if s[2] <= N]
    assert nodes.count == N + len(got) == 2000
    assert built == []


def test_iroot_is_the_floor_of_the_root():
    for x in (1, 2, 3, 5):
        for t in list(range(1, 300)) + [10**40 + 7, 2**200]:
            r = _iroot(t, x)
            assert r**x <= t < (r + 1) ** x, (t, x)


def test_variable_free_equation_is_checked():
    x_plus_y = [{"coeff": 1, "monomial": {"x": 1}}, {"coeff": 1, "monomial": {"y": 1}}]
    data = {
        "name": "schur-and-5=0",
        "variables": ["x", "y", "z"],
        "equations": [
            {"terms": x_plus_y + [{"coeff": -1, "monomial": {"z": 1}}]},
            {"terms": [{"coeff": 5}]},
        ],
    }
    sys = system_from_json(data)
    assert find_mono_solution(sys, all_one_coloring(10), _budget(10)) is None
    assert list(_value_sets(sys, 6, _Nodes(None))) == []
    # 0 = 0 constrains nothing
    data["equations"][1] = {"terms": [{"coeff": 0}]}
    sys = system_from_json(data)
    rec = find_mono_solution(sys, all_one_coloring(10), _budget(10))
    assert rec.assignment == {"x": 1, "y": 1, "z": 2}


def test_validate_solution_rejects_bad_records():
    sys = schur_system()
    c = all_one_coloring(10)
    good = SolutionRecord(assignment={"x": 1, "y": 1, "z": 2}, color=0, system=sys.name)
    assert validate_solution(sys, c, good)
    bad_residual = SolutionRecord(
        assignment={"x": 1, "y": 1, "z": 3}, color=0, system=sys.name
    )
    assert not validate_solution(sys, c, bad_residual)
    bad_color = SolutionRecord(
        assignment={"x": 1, "y": 1, "z": 2}, color=1, system=sys.name
    )
    c2 = Coloring(N=10, r=2, colors=tuple([0] * 10))
    assert not validate_solution(sys, c2, bad_color)


@pytest.mark.parametrize("bad", [0, -1, Fraction(3, 2)])
def test_validate_solution_rejects_a_value_that_is_not_a_positive_int(bad):
    # x + y = z holds with x = bad, and every other value has colour 0
    sys = schur_system()
    rec = SolutionRecord(assignment={"x": bad, "y": 3, "z": bad + 3}, color=0, system=sys.name)
    assert not validate_solution(sys, all_one_coloring(10), rec)


def test_validate_solution_rejects_a_record_its_distinctness_policy_forbids():
    c = all_one_coloring(10)
    sys = schur_system()
    rec = SolutionRecord(assignment={"x": 1, "y": 1, "z": 2}, color=0, system=sys.name)
    assert validate_solution(sys, c, rec)
    assert not validate_solution(dataclasses.replace(sys, distinctness="all-distinct"), c, rec)
    # x + y = 2z has the constant solution 3, 3, 3
    sys = single_equation([1, 1, -2])
    rec = SolutionRecord(assignment={"v1": 3, "v2": 3, "v3": 3}, color=0, system=sys.name)
    assert validate_solution(sys, c, rec)
    assert not validate_solution(dataclasses.replace(sys, distinctness="nontrivial"), c, rec)


def test_schur_solutions_one_per_orbit():
    # x and y are interchangeable: (2, 1, 3) and (3, 1, 4) are not repeated
    sols = list(_Plan(schur_system()).solutions([1, 2, 3, 4], _Nodes(None)))
    # the values of (x, y, z)
    expected = [[1, 1, 2], [1, 2, 3], [1, 3, 4], [2, 2, 4]]
    assert sols == expected
    assert set(_value_sets(schur_system(), 4, _Nodes(None))) == {(1, 2), (1, 2, 3), (1, 3, 4), (2, 4)}


# ---------------------------------------------------------------------------
# rado_number


def _brute_force_rado(sys, r, N_max):
    """Try every r-coloring of [1..N] for each N; the first N with no
    avoiding coloring is the number."""
    for N in range(1, N_max + 1):
        avoider = None
        for colors in itertools.product(range(r), repeat=N):
            c = Coloring(N=N, r=r, colors=colors)
            if find_mono_solution(sys, c, _budget(N)) is None:
                avoider = c
                break
        if avoider is None:
            return N
    return None


def test_rado_number_schur():
    res = rado_number(schur_system(), 2, _budget(6))
    assert res.value == 5
    assert res.avoider is not None and res.avoider.N == 4
    assert not res.exhausted


def test_rado_number_attached_avoider_avoids():
    res = rado_number(schur_system(), 2, _budget(6))
    assert find_mono_solution(schur_system(), res.avoider, _budget(res.avoider.N)) is None


def test_rado_number_vdw_3ap():
    sys = dataclasses.replace(single_equation([1, 1, -2]), distinctness="nontrivial")
    res = rado_number(sys, 2, _budget(10))
    assert res.value == 9


def test_rado_number_trivial_r1():
    res = rado_number(single_equation([1, 1, -2]), 1, _budget(3))
    assert res.value == 1


def test_rado_number_node_counts():
    # the counts perfbench/counts.py reports; a change of node unit moves them.
    # Schur with r=3 has value 14, so M grows 8, 12, 18 and [1..8], [1..12]
    # and [1..18] are enumerated: M values of x, then the y >= x with
    # x + y <= M; the other 1,897 nodes are colors tried and value sets
    # examined
    res = rado_number(schur_system(), 3, _budget(60))
    enumerated = sum(M + sum(1 for x in range(1, M + 1) for y in range(x, M + 1 - x)) for M in (8, 12, 18))
    assert (enumerated, res.nodes - enumerated, res.pruned) == (171, 1897, 85)
    assert res.nodes == 2068
    # x + y = 3z has value 9, so [1..8] and [1..12] are enumerated: M values
    # of x, then the y >= x with x + y a multiple of 3 (3z <= 2M < 3M, so
    # no other cut applies); the other 55 nodes are colors tried and value
    # sets examined
    res = rado_number(single_equation([1, 1, -3]), 2, _budget(60))
    enumerated = sum(
        M + sum(1 for x in range(1, M + 1) for y in range(x, M + 1) if (x + y) % 3 == 0) for M in (8, 12)
    )
    assert (enumerated, res.nodes - enumerated, res.pruned) == (58, 55, 1)


def test_rado_number_one_member_sets_forbid_every_color():
    # x = y = z = k solves x + y = 2z with repeats, so no integer can be colored
    res = rado_number(single_equation([1, 1, -2]), 3, _budget(10))
    assert res.value == 1 and not res.exhausted
    assert res.avoider is None
    # [1..8] is enumerated: 8 values of x, then the y >= x with x + y even
    # (2z = x + y), 20 of them; 1 node is the color tried for 1
    pairs = sum(1 for x in range(1, 9) for y in range(x, 9) if (x + y) % 2 == 0)
    assert pairs == 20
    assert res.nodes == 8 + pairs + 1 and res.pruned == 0


def test_rado_number_across_index_growth():
    # the value sets are enumerated over [1..8], then [1..12] and [1..18]
    # (Schur) and [1..27] (x + 3y = z); each growth recomputes the forbid
    # masks of the prefix, and the first avoider of the longest length is
    # attached
    for sys, r, value in ((schur_system(), 3, 14), (single_equation([1, 3, -1]), 2, 19)):
        res = rado_number(sys, r, _budget(40))
        assert res.value == value and not res.exhausted, sys.name
        assert res.avoider == _first_canonical_avoider(sys, r, value - 1), sys.name
        assert _first_canonical_avoider(sys, r, value) is None, sys.name


def test_rado_number_budget_exhaustion():
    res = rado_number(schur_system(), 2, SearchBudget(N=6, node_limit=20))
    assert res.value is None
    assert res.exhausted


def test_rado_number_out_of_reach_reports_none():
    # x + y = 3z is not partition regular; no value exists at any N
    sys = single_equation([1, 1, -3])
    res = rado_number(sys, 2, _budget(8))
    assert res.value is None
    assert not res.exhausted
    assert res.avoider is not None and res.avoider.N == 8


def test_rado_number_matches_brute_force_suite():
    suite = [
        schur_system(),
        single_equation([1, 1, -3]),
        single_equation([1, 1, -2]),
        mult_schur_system(),
    ]
    for sys in suite:
        for N_max in (4, 6):
            expect = _brute_force_rado(sys, 2, N_max)
            got = rado_number(sys, 2, _budget(N_max))
            assert got.value == expect, sys.name


def _first_canonical_avoider(sys, r, N):
    """The first coloring of [1..N], in lexicographic order, that colors 1
    with 0, introduces new colors in ascending order and has no
    monochromatic solution; None when there is none.  Avoiding colorings
    are closed under prefixes, so a depth-first search in lexicographic
    order that drops every prefix with a monochromatic solution meets them
    in that order."""

    def extend(colors):
        c = Coloring(N=len(colors), r=r, colors=colors)
        if find_mono_solution(sys, c, _budget(len(colors))) is not None:
            return None
        if len(colors) == N:
            return c
        for col in range(min(r, max(colors) + 2)):
            found = extend(colors + (col,))
            if found is not None:
                return found
        return None

    return extend((0,))


def _cnf_satisfied_by(text, coloring):
    _, clauses = _parse_dimacs(text)
    r = coloring.r
    true = {(n - 1) * r + c + 1 for n, c in enumerate(coloring.colors, start=1)}
    return all(any((l > 0) == (abs(l) in true) for l in cl) for cl in clauses)


def test_rado_number_value_and_avoider_match_brute_force():
    ap3 = dataclasses.replace(single_equation([1, 1, -2]), distinctness="nontrivial")
    suite = [
        (schur_system(), 3, 5),
        (single_equation([1, 1, -2]), 3, 5),
        (ap3, 3, 5),
        (single_equation([1, 2, -1]), 3, 5),
        # several avoiders of the longest length: the first must be attached
        (ap3, 2, 10),
        (dataclasses.replace(single_equation([1, 1, -1]), distinctness="all-distinct"), 2, 10),
    ]
    for sys, r, N_max in suite:
        expect = _brute_force_rado(sys, r, N_max)
        got = rado_number(sys, r, _budget(N_max))
        assert got.value == expect, sys.name
        N = N_max if got.value is None else got.value - 1
        avoider = _first_canonical_avoider(sys, r, N) if N else None
        assert got.avoider == avoider, sys.name


def test_rado_number_vdw_3_colors_is_27():
    # W(3;3) = 27 (Chvatal 1970)
    sys = dataclasses.replace(single_equation([1, 1, -2]), distinctness="nontrivial")
    res = rado_number(sys, 3, SearchBudget(N=30, node_limit=500_000))
    assert res.value == 27 and not res.exhausted
    assert res.avoider.N == 26
    assert find_mono_solution(sys, res.avoider, _budget(26)) is None
    assert _cnf_satisfied_by(export_cnf(sys, 3, 26), res.avoider)


def test_rado_number_weak_schur_3_colors_is_24():
    # WS(3) = 23
    sys = dataclasses.replace(single_equation([1, 1, -1]), distinctness="all-distinct")
    res = rado_number(sys, 3, SearchBudget(N=30, node_limit=500_000))
    assert res.value == 24 and res.avoider.N == 23


def test_rado_number_budget_runs_out_during_enumeration():
    # the first enumeration, of [1..8], alone needs more than 10 nodes
    res = rado_number(schur_system(), 2, SearchBudget(N=60, node_limit=10))
    assert res.value is None and res.exhausted
    assert res.avoider is None


def test_rado_number_deep_search_has_no_recursion_limit():
    # x + 2y = 4z fails the column condition, so an avoider exists at every N
    res = rado_number(single_equation([1, 2, -4]), 3, _budget(1100))
    assert res.value is None and not res.exhausted
    assert res.avoider.N == 1100


def test_rado_number_cost_does_not_grow_with_colors():
    # by depth k at most k colors are in use, so on [1..30] a million colors
    # search exactly as 31 do, in lists of 31 masks
    ap3 = dataclasses.replace(single_equation([1, 1, -2]), distinctness="nontrivial")
    for sys in (schur_system(), ap3):
        want = _rado_answer(rado_number(sys, 31, _budget(30)))
        tracemalloc.start()
        try:
            got = _rado_answer(rado_number(sys, 10**6, _budget(30)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[:4] == want[:4] and got[4].colors == want[4].colors
        assert peak < 1_000_000


def _plain_forbid(f, entries, mask):
    """The forbid step as a plain loop, without a cache: each set with all
    its members below j in the class forbids the color at its maximum."""
    for rest, u in entries:
        if rest & mask == rest:
            f |= 1 << u
    return f


def _pairs(sys, M):
    """Per integer j <= M, the (rest, u) pairs of the value sets of `sys` on
    [1..M] whose second-largest member is j, as `_solution_index` reads them."""
    pairs = [set() for _ in range(M + 1)]
    for s in search._value_sets(sys, M, _Nodes(None)):
        if len(s) > 1:
            pairs[s[-2]].add((sum(1 << v for v in s[:-2]), s[-1]))
    return pairs


def test_memoised_forbid_step_equals_the_plain_loop(monkeypatch):
    # the real indexes of x + y = z and x1 + x2 + x3 + x4 = x5, whose rests
    # have two or more members, at M = 30; each class is asked twice, so
    # the second answer can come from the cache, and a bound of one result
    # per integer makes the caches evict
    rng = random.Random(25)
    for bound in (search._MEMO_SIZE, 1):
        monkeypatch.setattr(search, "_MEMO_SIZE", bound)
        for sys in (schur_system(), single_equation([1, 1, 1, 1, -1])):
            pairs = _pairs(sys, 30)
            sizes, keys, forbidden, _ = search._solution_index(sys, 30, _Nodes(None))
            assert sizes == [len(p) for p in pairs]
            assert keys == [sum(1 << v for v in range(31) if any(rest >> v & 1 for rest, _ in p)) for p in pairs]
            for j in range(2, 31):
                for _ in range(20):
                    # the class: random integers below j, j itself and some above
                    below = rng.getrandbits(j)
                    if rng.random() < 0.5:
                        below &= rng.getrandbits(j)
                    mask = below | 1 << j | rng.getrandbits(64) << j + 1
                    for _ in range(2):
                        assert forbidden(j, mask & keys[j]) == _plain_forbid(0, pairs[j], mask), (j, mask)
            info = forbidden.cache_info()
            assert info.maxsize == bound * 30 and info.currsize <= info.maxsize
            assert info.hits
        assert any(rest & (rest - 1) for p in pairs for rest, _ in p)


def _rado_answer(res):
    return res.value, res.nodes, res.pruned, res.exhausted, res.avoider


def test_rado_number_does_not_depend_on_the_memo(monkeypatch):
    # a memo of one result misses nearly every time; the value, the node
    # and prune counts, the outcome and the avoider stay the same, also
    # when the budget runs out, at limits spread over the whole search
    ap3 = dataclasses.replace(single_equation([1, 1, -2]), distinctness="nontrivial")
    weak = dataclasses.replace(single_equation([1, 1, -1]), distinctness="all-distinct")
    corpus = [
        (schur_system(), 3),
        (schur_system(), 4),
        (ap3, 3),
        (weak, 3),
        (single_equation([1, 1, 1, 1, -1]), 2),
        (single_equation([1, 3, -1]), 2),
    ]
    rng = random.Random(25)
    for sys, r in corpus:
        full = rado_number(sys, r, SearchBudget(N=30, node_limit=20_000))
        for limit in (*sorted(rng.sample(range(1, full.nodes), 6)), 20_000):
            budget = SearchBudget(N=30, node_limit=limit)
            want = _rado_answer(rado_number(sys, r, budget))
            monkeypatch.setattr(search, "_MEMO_SIZE", 1)
            assert _rado_answer(rado_number(sys, r, budget)) == want, (sys.name, r, limit)
            monkeypatch.undo()


def test_rado_number_memos_stay_within_their_bound(monkeypatch):
    # W(3;3): every forbid cache stays within its _MEMO_SIZE * M results;
    # at one result per integer the caches fill and evict, and the value
    # stays the same
    ap3 = dataclasses.replace(single_equation([1, 1, -2]), distinctness="nontrivial")
    caches = []

    def keep(sys, M, nodes):
        index = solution_index(sys, M, nodes)
        caches.append((M, index[2]))
        return index

    solution_index = search._solution_index
    monkeypatch.setattr(search, "_solution_index", keep)
    budget = SearchBudget(N=30, node_limit=500_000)
    for bound in (search._MEMO_SIZE, 1):
        monkeypatch.setattr(search, "_MEMO_SIZE", bound)
        caches.clear()
        assert rado_number(ap3, 3, budget).value == 27
        infos = [(M, forbidden.cache_info()) for M, forbidden in caches]
        assert infos and all(info.maxsize == bound * M >= info.currsize for M, info in infos)
    assert any(info.currsize == info.maxsize and info.misses > info.maxsize for _, info in infos)


# (coefficients, distinctness, colors, node limit) -> (value, nodes, pruned,
# exhausted, avoider length) at N = 60: the avoider-search queries of the
# benchmark.  A change of node unit moves these counts.
_BENCH_RADO = {
    ((1, 1, -1), "allow-repeats", 2, None): (5, 44, 2, False, 4),
    ((1, 1, -1), "allow-repeats", 3, None): (14, 2068, 85, False, 13),
    ((1, 1, 1, -1), "allow-repeats", 2, None): (11, 385, 6, False, 10),
    ((1, 1, 1, 1, -1), "allow-repeats", 2, None): (19, 10562, 15, False, 18),
    ((1, 1, -2), "nontrivial", 2, None): (9, 238, 9, False, 8),
    ((1, 1, -1), "all-distinct", 2, None): (9, 201, 8, False, 8),
    ((1, 2, -1), "allow-repeats", 2, None): (11, 181, 6, False, 10),
    ((1, 3, -1), "allow-repeats", 2, None): (19, 703, 16, False, 18),
    ((1, 1, -3), "allow-repeats", 2, None): (9, 113, 1, False, 8),
    ((1, 1, -4), "allow-repeats", 2, None): (10, 105, 1, False, 9),
    ((1, 1, -2), "nontrivial", 3, 500_000): (27, 389_016, 10_789, False, 26),
    ((1, 1, -1), "all-distinct", 3, 500_000): (24, 142_848, 4_574, False, 23),
    ((1, 1, -1), "allow-repeats", 4, 500_000): (None, 500_003, 8_782, True, 43),
}


@pytest.mark.parametrize("query", _BENCH_RADO, ids=lambda q: f"{q[0]}-{q[1]}-r{q[2]}")
def test_rado_number_bench_queries_are_pinned(query):
    coeffs, distinctness, r, limit = query
    sys = dataclasses.replace(single_equation(list(coeffs)), distinctness=distinctness)
    res = rado_number(sys, r, SearchBudget(N=60, node_limit=limit))
    got = (res.value, res.nodes, res.pruned, res.exhausted, res.avoider.N if res.avoider else None)
    assert got == _BENCH_RADO[query]


# ---------------------------------------------------------------------------
# avoider consistency


def test_avoider_blocks_x_plus_y_eq_3z_to_2000():
    av = rado_avoider_coloring((1, 1, -3), 5)
    c = av.coloring(2000)
    sys = single_equation([1, 1, -3])
    assert find_mono_solution(sys, c, _budget(2000)) is None


# ---------------------------------------------------------------------------
# CNF export


def _parse_dimacs(text):
    clauses = []
    nvars = ncl = None
    for line in text.splitlines():
        if not line or line.startswith("c"):
            continue
        if line.startswith("p cnf"):
            _, _, v, c = line.split()
            nvars, ncl = int(v), int(c)
            continue
        lits = [int(t) for t in line.split()]
        assert lits[-1] == 0
        clauses.append(lits[:-1])
    assert len(clauses) == ncl
    return nvars, clauses


def _sat(nvars, clauses):
    """Tiny DPLL, adequate for these instances."""

    def solve(assign):
        unit = True
        clauses_left = []
        while unit:
            unit = False
            clauses_left = []
            for cl in clauses:
                vals = [assign.get(abs(l)) for l in cl]
                if any(
                    v is not None and (l > 0) == v for l, v in zip(cl, vals)
                ):
                    continue
                free = [l for l, v in zip(cl, vals) if v is None]
                if not free:
                    return False
                if len(free) == 1:
                    assign[abs(free[0])] = free[0] > 0
                    unit = True
                    break
                clauses_left.append(cl)
            else:
                break
        if not clauses_left:
            return True
        lit = clauses_left[0][0]
        for guess in (True, False):
            trial = dict(assign)
            trial[abs(lit)] = guess
            if solve(trial):
                return True
        return False

    return solve({})


def test_cnf_schur_n4_satisfiable():
    text = export_cnf(schur_system(), 2, 4)
    nvars, clauses = _parse_dimacs(text)
    assert nvars == 8
    assert _sat(nvars, clauses)


def test_cnf_schur_n5_unsatisfiable():
    text = export_cnf(schur_system(), 2, 5)
    nvars, clauses = _parse_dimacs(text)
    assert nvars == 10
    assert not _sat(nvars, clauses)


def test_cnf_r1_with_solution_unsatisfiable():
    text = export_cnf(schur_system(), 1, 3)
    nvars, clauses = _parse_dimacs(text)
    assert not _sat(nvars, clauses)


def test_cnf_variable_numbering_comment():
    text = export_cnf(schur_system(), 2, 4)
    assert "v(n,c) = (n-1)*r + c + 1" in text


def _reference_cnf(sys, r, N):
    """The DIMACS text export_cnf should give, written from the brute-force
    solutions: one at-least-one clause per integer, one at-most-one clause
    per integer and pair of colors, then for each value set in sorted order
    one clause per color."""
    v = lambda n, c: (n - 1) * r + c + 1
    sets = sorted({tuple(sorted(set(s.values()))) for s in _brute_force_solutions(sys, N)})
    clauses = []
    for n in range(1, N + 1):
        clauses.append([v(n, c) for c in range(r)])
        clauses += [[-v(n, c1), -v(n, c2)] for c1, c2 in itertools.combinations(range(r), 2)]
    clauses += [[-v(n, c) for n in s] for s in sets for c in range(r)]
    lines = [
        f"c avoiding-coloring instance for system {sys.name!r}, r={r}, N={N}",
        "c variable numbering: v(n,c) = (n-1)*r + c + 1",
        f"p cnf {N * r} {len(clauses)}",
    ]
    return "\n".join(lines + [" ".join(map(str, cl + [0])) for cl in clauses]) + "\n"


def test_cnf_matches_reference_writer():
    suite = [
        schur_system(),
        single_equation([1, 1, -2]),
        single_equation([1, 1, 1, -1]),
        single_equation([1, 2, -1]),
        mult_schur_system(),
    ]
    for sys in suite:
        for policy in DISTINCTNESS:
            sys = dataclasses.replace(sys, distinctness=policy)
            for r in (1, 2, 3, 4):
                for N in (1, 4, 7):
                    assert export_cnf(sys, r, N) == _reference_cnf(sys, r, N), (sys, r, N)


def test_cnf_bench_instances_are_pinned():
    schur = single_equation([1, 1, -1])
    ap3 = dataclasses.replace(single_equation([1, 1, -2]), distinctness="nontrivial")
    for sys, r, N, digest in (
        (schur, 3, 13, "54188538b1b2e877a6723e44b80184e4dc4097a4373fa5c1f83e1d91b630812b"),
        (ap3, 2, 300, "1f92535fd5ca91f63edb084cf04a4830c8cf082e4fe670495b863e3c17ec49c2"),
    ):
        assert hashlib.sha256(export_cnf(sys, r, N).encode()).hexdigest() == digest, sys


def test_cnf_refuses_more_one_color_clauses_than_the_limit(monkeypatch):
    # with 3 colors each integer takes 1 + 3 clauses: 5 integers fit in 20
    monkeypatch.setattr(search, "CNF_CLAUSE_LIMIT", 20)
    assert export_cnf(schur_system(), 3, 5) == _reference_cnf(schur_system(), 3, 5)
    with pytest.raises(ValueError, match="6 integers with 3 colors take 24 clauses .* limit of 20"):
        export_cnf(schur_system(), 3, 6)


def test_cnf_truncation_flag(monkeypatch):
    monkeypatch.setattr(search, "CNF_TUPLE_LIMIT", 3)
    text = export_cnf(schur_system(), 2, 30)
    assert "truncated" in text
