"""Tests for the equation-system layer: monomials, templates, the explicit
constructions, and the JSON round trip."""

import random
import time
from fractions import Fraction

import pytest

from radolab.exactq import Matrix, kernel_basis
from radolab.polyring import Poly, poly_parse, ZERO
from radolab.radomat import column_condition, expand_matrix
from radolab.systems import (
    Equation,
    EquationSystem,
    Monomial,
    _TEMPLATES,
    _pair,
    _rado_variables,
    ap_times_power,
    ap_times_product,
    build_nonlinear_rado,
    build_template,
    concluding_system,
    construct_thm34,
    construct_thm37,
    eval_equation,
    integrality_check,
    mult_schur_system,
    parse_template_spec,
    poly_sum_product,
    power_product,
    rational_function,
    schur_system,
    single_equation,
    sums_with_poly,
    system_from_json,
)


def test_monomial_constant():
    m = Monomial()
    assert m.eval({}) == 1
    assert m.variables() == []


def test_monomial_rejects_zero_exponent():
    with pytest.raises(ValueError):
        Monomial({"x": 0})


def test_monomial_order_insensitive():
    assert Monomial({"x": 1, "y": 2}) == Monomial({"y": 2, "x": 1})


def test_equation_drops_zero_coeffs_and_rejects_duplicates():
    eq = Equation([(1, Monomial({"x": 1})), (0, Monomial({"y": 1}))])
    assert eq.variables() == ["x"]
    with pytest.raises(ValueError):
        Equation([(1, Monomial({"x": 1})), (2, Monomial({"x": 1}))])


def test_equation_normalises_each_term_and_keeps_its_order():
    x, y, z = (Monomial({v: 1}) for v in "xyz")
    eq = Equation([(Fraction(4, 2), x), (0, y), (Fraction(-1, 3), z)])
    assert eq.terms == ((2, x), (Fraction(-1, 3), z))
    assert type(eq.terms[0][0]) is int
    pair = (Fraction(-1, 3), z)
    assert Equation([pair]).terms[0] is pair  # a normalised pair is kept
    with pytest.raises(ValueError) as exc:
        Equation([(1, x), (0, y), (Fraction(4, 2), Monomial({"x": 1}))])
    assert str(exc.value) == "duplicate monomial x"


def test_system_rejects_undeclared_variable():
    eq = Equation([(1, Monomial({"w": 1}))])
    with pytest.raises(ValueError):
        EquationSystem(name="bad", variables=("x",), equations=(eq,))


def test_eval_equation_schur():
    sys = schur_system()
    eq = sys.equations[0]
    assert eval_equation(eq, {"x": 2, "y": 3, "z": 5}) == 0
    assert eval_equation(eq, {"x": 1, "y": 1, "z": 3}) == -1


def test_eval_equation_missing_variable():
    eq = schur_system().equations[0]
    with pytest.raises(KeyError):
        eval_equation(eq, {"x": 1, "y": 1})


def test_eval_example_system_first_row():
    A = Matrix([[1, 2, -3], [2, -1, -1]])
    sys = build_nonlinear_rado(A, [poly_parse("z^2 + z"), poly_parse("z^3")])
    # 2 + 2*1 - 3*2 + (1 + 1) = 0
    assert eval_equation(sys.equations[0], {"x1": 2, "x2": 1, "y1": 2, "z": 1}) == 0


def test_integrality_check():
    assert integrality_check({"x": 5, "y": 1})
    assert not integrality_check({"x": Fraction(5, 2)})
    assert not integrality_check({"x": 0})
    assert integrality_check({"x": Fraction(4, 2)})


# ---------------------------------------------------------------------------
# build_nonlinear_rado


def test_nonlinear_rado_variables_and_shape():
    A = Matrix([[1, 2, -3], [2, -1, -1]])
    sys = build_nonlinear_rado(A, [poly_parse("z^2 + z"), poly_parse("z^3")])
    assert sys.variables == ("x1", "x2", "y1", "y2", "z")
    assert len(sys.equations) == 2


def test_nonlinear_rado_zero_poly_is_schur():
    sys = build_nonlinear_rado(Matrix([[1, 1, -1]]), [ZERO])
    eq = sys.equations[0]
    assert eval_equation(eq, {"x1": 2, "x2": 3, "y1": 5, "z": 7}) == 0
    assert eval_equation(eq, {"x1": 1, "x2": 1, "y1": 1, "z": 1}) == 1


def test_nonlinear_rado_square_perturbation():
    sys = build_nonlinear_rado(Matrix([[1, 1, -1]]), [poly_parse("z^2")])
    assert eval_equation(sys.equations[0], {"x1": 1, "x2": 2, "y1": 7, "z": 2}) == 0


def test_nonlinear_rado_poly_count_mismatch():
    with pytest.raises(ValueError):
        build_nonlinear_rado(Matrix([[1, 1, -1]]), [ZERO, ZERO])


def _linear_row(eq, variables):
    """Extract the degree-one part of eq as a coefficient row."""
    coeffs = {v: 0 for v in variables}
    for c, mono in eq.terms:
        if len(mono.exps) == 1 and mono.exps[0][1] == 1:
            v = mono.exps[0][0]
            if v != "z":
                coeffs[v] = c
    return [coeffs[v] for v in variables]


def test_nonlinear_rado_linear_part_is_expanded_matrix():
    rng = random.Random(20)
    for _ in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(2, 5)
        A = Matrix(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        )
        if any(A.rows[i][n - 1] == 0 for i in range(m)):
            continue
        polys = [Poly({rng.randint(1, 3): rng.randint(1, 3)}) for _ in range(m)]
        sys = build_nonlinear_rado(A, polys)
        E = expand_matrix(A)
        linear_vars = sys.variables[:-1]  # x's then y's
        for i, eq in enumerate(sys.equations):
            assert _linear_row(eq, linear_vars) == list(E.rows[i])


# ---------------------------------------------------------------------------
# template families


def test_power_product_example():
    sys = power_product([poly_parse("z^2"), poly_parse("z^3")])
    assert sys.variables == ("x", "y", "z1", "z2", "z")
    # x*y = z1 + z^2 at x=2, y=3, z1=2, z=2
    assert eval_equation(sys.equations[0], {"x": 2, "y": 3, "z1": 2, "z": 2}) == 0
    # x*y^2 = z2 + z^3 at x=2, y=3, z2=10, z=2
    assert eval_equation(sys.equations[1], {"x": 2, "y": 3, "z2": 10, "z": 2}) == 0
    assert sys.status == "regular-by-paper"


def test_poly_sum_product_degenerate():
    sys = poly_sum_product(1, 1, [ZERO])
    assert sys.variables == ("x1", "y1", "y2", "z1")
    # x1 = y1*z1
    assert eval_equation(sys.equations[0], {"x1": 6, "y1": 2, "y2": 1, "z1": 3}) == 0


def test_ap_times_product_example():
    sys = ap_times_product(2, 1, 3)
    # x1 + 2*x2 + x3 = z2*y1
    vals = {"x1": 1, "x2": 2, "x3": 1, "y1": 2, "z1": None, "z2": 3}
    assert eval_equation(sys.equations[1], vals) == 0
    vals = {"x1": 1, "x2": 1, "x3": 2, "y1": 2, "z1": 2}
    assert eval_equation(sys.equations[0], vals) == 0


def test_ap_times_product_rejects_small_n():
    with pytest.raises(ValueError):
        ap_times_product(2, 1, 2)


def test_ap_times_power_constraints():
    with pytest.raises(ValueError):
        ap_times_power(2, 1, 3)
    sys = ap_times_power(1, 2, 3)
    # x1 + x2 + x3 = y1*z^2
    assert eval_equation(
        sys.equations[0], {"x1": 2, "x2": 3, "x3": 3, "y1": 2, "z": 2}
    ) == 0


def test_sums_with_poly():
    sys = sums_with_poly(2, [poly_parse("z^2")])
    # x1 + x2 = z1 + z^2
    assert eval_equation(sys.equations[0], {"x1": 3, "x2": 3, "z1": 2, "z": 2}) == 0


def test_rational_function_cross_multiplied():
    sys = rational_function(2, poly_parse("z"), poly_parse("z^2"))
    # cross-multiplied: x + P(d) - z^2*y - z^2*Q(d) = 0
    # at z=1, d=1: x + 1 - y - 1 = 0
    assert eval_equation(sys.equations[0], {"x": 4, "y": 4, "z": 1, "d": 1}) == 0


def test_concluding_systems_status_unknown():
    for which, count in ((1, 3), (2, 2), (3, 3)):
        sys = concluding_system(which, [poly_parse("z")] * count)
        assert sys.status == "unknown"
    with pytest.raises(ValueError):
        concluding_system(4, [])


def test_exponent_checks_do_not_depend_on_earlier_builds():
    # builders share equal monomials; an exponent equal to an earlier one
    # but not an int is still refused
    ap_times_power(1, 2, 3)
    rational_function(1, poly_parse("z"), poly_parse("z"))
    with pytest.raises(ValueError):
        ap_times_power(1, 2.0, 3)
    with pytest.raises(ValueError):
        rational_function(True, poly_parse("z"), poly_parse("z"))


def test_mult_schur():
    sys = mult_schur_system()
    assert eval_equation(sys.equations[0], {"x": 2, "y": 3, "z": 6}) == 0


def test_single_equation():
    sys = single_equation([1, 1, -2])
    assert sys.variables == ("v1", "v2", "v3")
    assert eval_equation(sys.equations[0], {"v1": 1, "v2": 3, "v3": 2}) == 0


def test_build_template_dispatch():
    sys = build_template("power-product", polys=[poly_parse("z^2")])
    assert sys.name.startswith("power-product")
    with pytest.raises(ValueError):
        build_template("no-such-family")


def test_parse_template_spec():
    sys = parse_template_spec("power-product(z^2, z^3)")
    assert len(sys.equations) == 2
    sys = parse_template_spec("ap-times-product(2, 1, 3)")
    assert len(sys.equations) == 2
    sys = parse_template_spec("equation(1, 1, -3)")
    assert eval_equation(sys.equations[0], {"v1": 1, "v2": 2, "v3": 1}) == 0
    with pytest.raises(ValueError):
        parse_template_spec("power-product")


# ---------------------------------------------------------------------------
# explicit constructions


def test_thm34_worked_example():
    out = construct_thm34([1], [], 5, 1, [poly_parse("z^2")])
    assert out == [{"x1": 5, "y1": 1, "y2": 1, "z1": 4}]


def test_thm34_two_by_two_example():
    out = construct_thm34([1, 2], [3], 1, 1, [ZERO])
    a = out[0]
    assert a["z1"] == 1
    assert (a["x1"], a["x2"], a["y1"], a["y2"]) == (3, 6, 3, 3)
    sys = poly_sum_product(2, 2, [ZERO])
    assert eval_equation(sys.equations[0], a) == 0


def test_thm34_zero_poly_gives_z_equals_a():
    out = construct_thm34([2, 5], [1, 4], 7, 3, [ZERO, ZERO])
    assert all(asg[f"z{i + 1}"] == 7 for i, asg in enumerate(out))


def test_thm34_rejects_nonpositive():
    with pytest.raises(ValueError):
        construct_thm34([1, -1], [], 1, 1, [ZERO])
    with pytest.raises(ValueError):
        construct_thm34([1], [], 0, 1, [ZERO])


def _random_polys(rng, count):
    out = []
    for _ in range(count):
        terms = {
            rng.randint(1, 4): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        }
        terms = {d: c for d, c in terms.items() if c != 0}
        out.append(Poly(terms) if terms else ZERO)
    return out


def test_thm34_random_identity():
    """Each construction assignment satisfies its equation exactly."""
    rng = random.Random(341)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        r = rng.randint(1, 3)
        a_list = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n)]
        b_list = [rng.randint(1, 5) for _ in range(m - 1)]
        a = rng.randint(1, 9)
        d = rng.randint(1, 5)
        polys = _random_polys(rng, r)
        sys = poly_sum_product(n, m, polys)
        out = construct_thm34(a_list, b_list, a, d, polys)
        assert len(out) == r
        for i, asg in enumerate(out):
            assert eval_equation(sys.equations[i], asg) == 0


def test_thm34_subset_sum_factorization():
    """For every subset F of the x indices, sum of x_t over F factors as
    (sum of a_t over F) * b_1...b_{m-1} * a."""
    rng = random.Random(342)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = rng.randint(1, 3)
        a_list = [rng.randint(1, 6) for _ in range(n)]
        b_list = [rng.randint(1, 4) for _ in range(m - 1)]
        a = rng.randint(1, 7)
        out = construct_thm34(a_list, b_list, a, 1, [ZERO])
        asg = out[0]
        bprod = 1
        for b in b_list:
            bprod *= b
        for mask in range(1, 1 << n):
            subset = [j for j in range(n) if mask & (1 << j)]
            lhs = sum(asg[f"x{j + 1}"] for j in subset)
            rhs = sum(a_list[j] for j in subset) * bprod * a
            assert lhs == rhs


def test_thm37_worked_example():
    asg = construct_thm37(Matrix([[1, 1, -1]]), (1, 1, 2), 10, 2, [poly_parse("z^2")])
    assert asg == {"x1": 10, "x2": 10, "y1": 24, "z": 2}
    sys = build_nonlinear_rado(Matrix([[1, 1, -1]]), [poly_parse("z^2")])
    assert sys.residuals(asg) == [0]


def test_thm37_two_row_example():
    A = Matrix([[1, 2, -3], [2, -1, -1]])
    polys = [poly_parse("z^2 + z"), poly_parse("z^3")]
    asg = construct_thm37(A, (1, 1, 1), 100, 1, polys)
    sys = build_nonlinear_rado(A, polys)
    assert sys.residuals(asg) == [0, 0]


def test_thm37_zero_polys_scaled_kernel():
    A = Matrix([[1, 1, -1]])
    asg = construct_thm37(A, (1, 2, 3), 4, 1, [ZERO])
    assert asg == {"x1": 4, "x2": 8, "y1": 12, "z": 1}


def test_thm37_rejects_non_kernel_vector():
    with pytest.raises(ValueError):
        construct_thm37(Matrix([[1, 1, -1]]), (1, 1, 1), 1, 1, [ZERO])


def test_thm37_rejects_zero_last_entry():
    with pytest.raises(ZeroDivisionError):
        construct_thm37(Matrix([[1, -1, 0]]), (1, 1, 0), 1, 1, [ZERO])


def test_thm37_random_identity():
    rng = random.Random(370)
    built = 0
    while built < 200:
        m = rng.randint(1, 3)
        n = rng.randint(2, 5)
        A = Matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        basis = kernel_basis(A)
        if not basis:
            continue
        X = [0] * n
        for vec in basis:
            c = rng.randint(-3, 3)
            X = [x + c * v for x, v in zip(X, vec)]
        if X[n - 1] == 0 or any(A.rows[i][n - 1] == 0 for i in range(m)):
            continue
        polys = _random_polys(rng, m)
        a = rng.randint(1, 20)
        d = rng.randint(1, 6)
        asg = construct_thm37(A, tuple(X), a, d, polys)
        sys = build_nonlinear_rado(A, polys)
        assert all(r == 0 for r in sys.residuals(asg))
        built += 1


# ---------------------------------------------------------------------------
# JSON round trip


def _json_terms(*terms):
    return {"terms": [{"coeff": c, "monomial": m} for c, m in terms]}


def test_json_round_trip():
    A = Matrix([[1, 2, -3], [2, -1, -1]])
    sys = build_nonlinear_rado(A, [poly_parse("z^2 + z"), poly_parse("z^3")])
    data = {
        "name": sys.name,
        "variables": ["x1", "x2", "y1", "y2", "z"],
        "equations": [
            _json_terms(("1", {"x1": 1}), ("2", {"x2": 1}), ("-3", {"y1": 1}), ("1", {"z": 2}), ("1", {"z": 1})),
            _json_terms(("2", {"x1": 1}), ("-1", {"x2": 1}), ("-1", {"y2": 1}), ("1", {"z": 3})),
        ],
        "distinctness": "allow-repeats",
    }
    back = system_from_json(data)
    assert back.variables == sys.variables
    assert back.equations == sys.equations
    assert back.distinctness == sys.distinctness


def test_json_fraction_coeffs():
    eq = Equation([(Fraction(1, 2), Monomial({"x": 2})), (-1, Monomial({"y": 1}))])
    data = {"name": "t", "variables": ["x", "y"], "equations": [_json_terms(("1/2", {"x": 2}), ("-1", {"y": 1}))]}
    back = system_from_json(data)
    assert back.equations[0] == eq


# ---------------------------------------------------------------------------
# pinned constructions: every family builds exactly these systems


_PINS = {
    "schur": ("schur", ("schur", ("x", "y", "z"), [[("1", "x"), ("1", "y"), ("-1", "z")]], "allow-repeats", "regular-by-paper")),
    "mult-schur": ("mult-schur", ("mult-schur", ("x", "y", "z"), [[("1", "x*y"), ("-1", "z")]], "allow-repeats", "regular-by-paper")),
    "equation": (
        "equation(2,-3,1,-1)",
        ("equation(2,-3,1,-1)", ("v1", "v2", "v3", "v4"), [[("2", "v1"), ("-3", "v2"), ("1", "v3"), ("-1", "v4")]], "allow-repeats", "regular-by-paper"),
    ),
    "poly-sum-product": (
        "poly-sum-product(2,2,z^2+z,3z^3-1/2z)",
        (
            "poly-sum-product(n=2,m=2,r=2)",
            ("x1", "x2", "y1", "y2", "y3", "z1", "z2"),
            [
                [("1", "x1"), ("1", "x2"), ("-1", "y1*y2*z1"), ("-1", "y3"), ("-1", "y3^2")],
                [("1", "x1"), ("1", "x2"), ("-1", "y1*y2*z2"), ("1/2", "y3"), ("-3", "y3^3")],
            ],
            "allow-repeats",
            "regular-by-paper",
        ),
    ),
    "sums-with-poly": (
        "sums-with-poly(2,z^2,z^3-z)",
        (
            "sums-with-poly(n=2,r=2)",
            ("x1", "x2", "z1", "z2", "z"),
            [
                [("1", "x1"), ("1", "x2"), ("-1", "z1"), ("-1", "z^2")],
                [("1", "x1"), ("1", "x2"), ("-1", "z2"), ("1", "z"), ("-1", "z^3")],
            ],
            "allow-repeats",
            "regular-by-paper",
        ),
    ),
    "power-product": (
        "power-product(z^2,2z^3+z)",
        (
            "power-product(n=2)",
            ("x", "y", "z1", "z2", "z"),
            [[("1", "x*y"), ("-1", "z1"), ("-1", "z^2")], [("1", "x*y^2"), ("-1", "z2"), ("-1", "z"), ("-2", "z^3")]],
            "allow-repeats",
            "regular-by-paper",
        ),
    ),
    "ap-times-product": (
        "ap-times-product(2,2,4)",
        (
            "ap-times-product(l=2,m=2,n=4)",
            ("x1", "x2", "x3", "x4", "y1", "y2", "z1", "z2"),
            [
                [("1", "x1"), ("1", "x2"), ("1", "x3"), ("1", "x4"), ("-1", "y1*y2*z1")],
                [("1", "x1"), ("2", "x2"), ("1", "x3"), ("1", "x4"), ("-1", "y1*y2*z2")],
            ],
            "allow-repeats",
            "regular-by-paper",
        ),
    ),
    "ap-times-power": (
        "ap-times-power(2,3,3)",
        (
            "ap-times-power(l=2,m=3,n=3)",
            ("x1", "x2", "x3", "y1", "y2", "z"),
            [[("1", "x1"), ("1", "x2"), ("1", "x3"), ("-1", "y1*z^3")], [("1", "x1"), ("2", "x2"), ("1", "x3"), ("-1", "y2*z^3")]],
            "allow-repeats",
            "regular-by-paper",
        ),
    ),
    "rational-function": (
        "rational-function(2,z+1/2z^3,z^2-z)",
        (
            "rational-function(n=2)",
            ("x", "y", "z", "d"),
            [[("1", "x"), ("1", "d"), ("1/2", "d^3"), ("-1", "y*z^2"), ("1", "d*z^2"), ("-1", "d^2*z^2")]],
            "allow-repeats",
            "regular-by-paper",
        ),
    ),
    "concluding-1": (
        "concluding-1(z,z^2,z^3+z)",
        (
            "concluding-1",
            ("x", "y", "z", "w", "u", "t"),
            [
                [("1", "x"), ("1", "y"), ("-1", "z"), ("-1", "t")],
                [("1", "x"), ("1", "y^2"), ("-1", "w"), ("-1", "t^2")],
                [("1", "x"), ("1", "y^3"), ("-1", "u"), ("-1", "t"), ("-1", "t^3")],
            ],
            "allow-repeats",
            "unknown",
        ),
    ),
    "concluding-2": (
        "concluding-2(z^2,-z)",
        (
            "concluding-2",
            ("x", "y", "z", "t"),
            [[("1", "x"), ("1", "y"), ("-1", "z^2"), ("-1", "t^2")], [("1", "x"), ("1", "y"), ("-1", "z^3"), ("1", "t")]],
            "allow-repeats",
            "unknown",
        ),
    ),
    "concluding-3": (
        "concluding-3(z,2z,z^2)",
        (
            "concluding-3",
            ("x1", "x2", "x3", "x4", "x5", "y1", "y2", "y3", "y4", "t"),
            [
                [("1", "x1"), ("1", "x2"), ("1", "x3"), ("-1", "y1*y2"), ("-1", "t")],
                [("1", "x2"), ("1", "x3"), ("1", "x4"), ("-1", "y2*y3"), ("-2", "t")],
                [("1", "x3"), ("1", "x4"), ("1", "x5"), ("-1", "y3*y4"), ("-1", "t^2")],
            ],
            "allow-repeats",
            "unknown",
        ),
    ),
}


def _pin(sys):
    """Name, variables, each equation's terms in order (coefficient text and
    monomial), distinctness and status."""
    terms = [[(str(c), repr(m)) for c, m in eq.terms] for eq in sys.equations]
    return (sys.name, sys.variables, terms, sys.distinctness, sys.status)


@pytest.mark.parametrize("family", sorted(_TEMPLATES))
def test_every_family_builds_its_pinned_system(family):
    spec, expected = _PINS[family]
    assert _pin(parse_template_spec(spec)) == expected


def test_a_fractional_equation_spec_rebuilds_its_system():
    sys = single_equation([Fraction(1, 2), Fraction(1, 2), -1])
    assert sys.name == "equation(1/2,1/2,-1)"
    assert _pin(parse_template_spec(sys.name)) == _pin(sys)


@pytest.mark.parametrize(
    "spec, message",
    [
        ("schur(1)", "schur takes 0 integer parameters, got 1"),
        ("poly-sum-product(2,z^2)", "poly-sum-product takes 2 integer parameters, got 1"),
        ("ap-times-product(1/2,1,3)", "ap-times-product takes integer parameters, not 1/2"),
        ("sums-with-poly(4/2,z)", None),
        ("equation(+1,1,-2)", None),
        ("rational-function(1,z,0)", "the parameter 0 follows a polynomial"),
        ("rational-function(1,z,0z)", None),
    ],
)
def test_a_number_in_a_spec_is_a_parameter(spec, message):
    if message is None:
        parse_template_spec(spec)
    else:
        with pytest.raises(ValueError) as exc:
            parse_template_spec(spec)
        assert str(exc.value) == message


def test_nonlinear_rado_builds_its_pinned_system():
    A = Matrix([[1, 0, Fraction(-3, 2)], [2, -1, -1]])
    sys = build_nonlinear_rado(A, [poly_parse("z^2 + z"), poly_parse("-z^3")])
    assert _pin(sys) == (
        "nonlinear-rado",
        ("x1", "x2", "y1", "y2", "z"),
        [[("1", "x1"), ("-3/2", "y1"), ("1", "z"), ("1", "z^2")], [("2", "x1"), ("-1", "x2"), ("-1", "y2"), ("-1", "z^3")]],
        "allow-repeats",
        "unknown",
    )


def test_nonlinear_rado_is_labelled_unknown_whether_or_not_a_satisfies_the_column_condition():
    # the paper's hypothesis is the column condition on A, which the builder
    # leaves to column_condition: [[1, 1, -3]] fails it, [[1, 1, -1]] holds it
    for rows, holds in (([[1, 1, -3]], False), ([[1, 1, -1]], True)):
        A = Matrix(rows)
        assert (column_condition(A) is not None) == holds
        assert build_nonlinear_rado(A, [poly_parse("z^2")]).status == "unknown"


# ---------------------------------------------------------------------------
# sharing: built systems hold one copy of each name and term


def test_systems_of_one_shape_share_names_and_terms():
    polys = [poly_parse("z^2 + z"), poly_parse("-z^3")]
    one = build_nonlinear_rado(Matrix([[1, 2, -3, 1], [2, -1, -1, 3]]), polys)
    two = build_nonlinear_rado(Matrix([[1, -2, -3, 2], [3, 1, 2, 3]]), polys)
    assert all(a is b for a, b in zip(one.variables, two.variables, strict=True))
    shared = 0
    for eq1, eq2 in zip(one.equations, two.equations):
        for t1 in eq1.terms:
            for t2 in eq2.terms:
                if t1 == t2:
                    assert t1 is t2
                    shared += 1
    # x1, -3 x3, z and z^2 in row 1; 3 y2 and -z^3 in row 2
    assert shared == 6
    asg = construct_thm37(Matrix([[1, 1, -1]]), (1, 1, 2), 10, 2, [poly_parse("z^2")])
    assert all(a is b for a, b in zip(asg, build_nonlinear_rado(Matrix([[1, 1, -1]]), [ZERO]).variables))


def test_an_equation_system_has_no_instance_dict():
    sys = schur_system()
    assert not hasattr(sys, "__dict__")
    # CPython 3.10 to 3.13 raise TypeError here: the frozen __setattr__
    # calls super() on the class that slots=True replaced
    with pytest.raises((AttributeError, TypeError)):
        sys.note = "ad hoc"


def test_built_terms_are_the_cached_pairs():
    # each term of a built system is the object _pair hands out for it, so a
    # system adds no term pairs of its own
    rng = random.Random(19)
    polys = [poly_parse("z^2 + z"), poly_parse("-z^3")]
    for _ in range(50):
        A = Matrix([[rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(4)] for _ in range(2)])
        for eq in build_nonlinear_rado(A, polys).equations:
            for t in eq.terms:
                ((v, e),) = t[1].exps
                assert t is _pair(t[0], v, e)


def test_built_variables_are_the_cached_tuple():
    # every system built from a matrix of one shape holds the one variables
    # tuple _rado_variables hands out for that shape
    rng = random.Random(25)
    for m, n in ((1, 3), (2, 4), (3, 5)):
        polys = [poly_parse("z^2")] * m
        for _ in range(10):
            A = Matrix([[rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)] for _ in range(m)])
            variables = build_nonlinear_rado(A, polys).variables
            assert variables is _rado_variables(n, m)
        assert variables == (*(f"x{j}" for j in range(1, n)), *(f"y{i}" for i in range(1, m + 1)), "z")


# ---------------------------------------------------------------------------
# single_equation's label: Rado's column condition for one row


def test_single_equation_is_not_regular_exactly_when_no_subset_sums_to_zero():
    rng = random.Random(5)
    pool = [-4, -3, -2, -1, 1, 2, 3, 4, Fraction(1, 2), Fraction(-3, 2)]
    for _ in range(300):
        coeffs = [rng.choice(pool) for _ in range(rng.randint(2, 8))]
        want = "regular-by-paper" if column_condition(Matrix([coeffs])) else "not-regular"
        assert single_equation(coeffs).status == want, coeffs


def test_a_wide_equation_is_labelled_at_once():
    # 2^24 subsets, but two halves of 2^12 sums each; the column_condition
    # scan of all subsets took 9.6 s on 24 ones
    start = time.perf_counter()
    assert single_equation([1] * 24).status == "not-regular"
    # signed powers of 3: balanced ternary writes 0 only with no digit
    assert single_equation([(-3) ** i for i in range(24)]).status == "not-regular"
    assert single_equation([1] * 23 + [-23]).status == "regular-by-paper"
    assert single_equation([1] * 25).status == "unknown"  # more than MAX_COLS terms
    assert time.perf_counter() - start < 2
