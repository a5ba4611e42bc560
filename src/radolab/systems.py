"""Sparse multivariate equation systems, the named template families, and
exact checkers for the explicit proof constructions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactq import Matrix, Scalar, Vector, mat_vec, norm_scalar, parse_scalar
from .polyring import Poly, poly_parse

DISTINCTNESS = ("allow-repeats", "all-distinct", "nontrivial")
STATUS = ("regular-by-paper", "not-regular", "unknown")


class Monomial:
    """Product of variable powers; the empty monomial is the constant 1."""

    __slots__ = ("exps",)

    def __init__(self, exps=None):
        items = []
        for v, e in (exps or {}).items():
            if isinstance(e, bool) or not isinstance(e, int) or e < 1:
                raise ValueError(f"the exponent of {v} must be a positive integer, not {e!r}")
            items.append((str(v), e))
        object.__setattr__(self, "exps", tuple(sorted(items)))

    def __setattr__(self, *a):
        raise AttributeError("Monomial is immutable")

    def variables(self):
        return [v for v, _ in self.exps]

    def eval(self, assignment: dict) -> Scalar:
        val = 1
        for v, e in self.exps:
            val *= assignment[v] ** e
        return val

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        if not self.exps:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self.exps)


ONE = Monomial()


class Equation:
    """Sum of (coefficient, monomial) terms, read as `sum = 0`."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        seen = {}
        for c, mono in terms:
            c = norm_scalar(c)
            if c == 0:
                continue
            if mono in seen:
                raise ValueError(f"duplicate monomial {mono!r}")
            seen[mono] = c
        object.__setattr__(
            self, "terms", tuple((c, m) for m, c in seen.items())
        )

    def __setattr__(self, *a):
        raise AttributeError("Equation is immutable")

    def variables(self):
        out = []
        for _, mono in self.terms:
            for v in mono.variables():
                if v not in out:
                    out.append(v)
        return out

    def eval(self, assignment: dict) -> Scalar:
        """Exact residual; 0 means the equation is satisfied."""
        total = 0
        for c, mono in self.terms:
            total += c * mono.eval(assignment)
        return norm_scalar(total)

    def __eq__(self, other):
        return isinstance(other, Equation) and set(self.terms) == set(other.terms)

    def __repr__(self):
        if not self.terms:
            return "0 = 0"
        parts = []
        for c, mono in self.terms:
            if mono is ONE or not mono.exps:
                parts.append(str(c))
            elif c == 1:
                parts.append(repr(mono))
            elif c == -1:
                parts.append(f"-{mono!r}")
            else:
                parts.append(f"{c}*{mono!r}")
        return " + ".join(parts) + " = 0"


def eval_equation(eq: Equation, assignment: dict) -> Scalar:
    missing = [v for v in eq.variables() if v not in assignment]
    if missing:
        raise KeyError(f"assignment missing variables {missing}")
    return eq.eval(assignment)


@dataclass(frozen=True)
class EquationSystem:
    name: str
    variables: tuple
    equations: tuple
    distinctness: str = "allow-repeats"
    status: str = "unknown"

    def __post_init__(self):
        if self.distinctness not in DISTINCTNESS:
            raise ValueError(f"bad distinctness {self.distinctness!r}")
        if self.status not in STATUS:
            raise ValueError(f"bad status {self.status!r}")
        declared = set(self.variables)
        for eq in self.equations:
            undeclared = [v for v in eq.variables() if v not in declared]
            if undeclared:
                raise ValueError(f"undeclared variables {undeclared} in {eq!r}")

    def residuals(self, assignment: dict) -> list:
        return [eval_equation(eq, assignment) for eq in self.equations]


def integrality_check(assignment: dict) -> bool:
    """True iff every assigned value is a positive integer (the solution
    domain starts at 1; zero does not count)."""
    for val in assignment.values():
        if isinstance(val, Fraction):
            if val.denominator != 1:
                return False
            val = int(val)
        if not isinstance(val, int) or val < 1:
            return False
    return True


# ---------------------------------------------------------------------------
# constructors


def _linear_term(c, var):
    return (c, Monomial({var: 1}))


def _poly_terms(p: Poly, var: str):
    return [(c, Monomial({var: d})) for d, c in p.coeffs.items()]


def build_nonlinear_rado(A: Matrix, polys) -> EquationSystem:
    """System over x_1..x_{n-1}, y_1..y_m, z with row i reading
    sum_j a_{i,j} x_j + a_{i,n} y_i + P_i(z) = 0."""
    m, n = A.m, A.n
    if n < 2:
        raise ValueError("need n >= 2 columns")
    polys = tuple(polys)
    if len(polys) != m:
        raise ValueError(f"need {m} polynomials, got {len(polys)}")
    xs = [f"x{j}" for j in range(1, n)]
    ys = [f"y{i}" for i in range(1, m + 1)]
    eqs = []
    for i in range(m):
        terms = [_linear_term(A.rows[i][j], xs[j]) for j in range(n - 1)]
        terms.append(_linear_term(A.rows[i][n - 1], ys[i]))
        terms.extend(_poly_terms(polys[i], "z"))
        eqs.append(Equation(terms))
    return EquationSystem(
        name="nonlinear-rado",
        variables=tuple(xs + ys + ["z"]),
        equations=tuple(eqs),
        status="regular-by-paper",
    )


def single_equation(coeffs, distinctness: str = "allow-repeats") -> EquationSystem:
    """One homogeneous linear equation sum_i c_i v_i = 0 over v1..vk."""
    coeffs = [norm_scalar(c) for c in coeffs]
    if len(coeffs) < 2 or any(c == 0 for c in coeffs):
        raise ValueError("need >= 2 nonzero coefficients")
    xs = [f"v{i}" for i in range(1, len(coeffs) + 1)]
    eq = Equation([_linear_term(c, v) for c, v in zip(coeffs, xs)])
    label = "equation(" + ",".join(str(c) for c in coeffs) + ")"
    return EquationSystem(name=label, variables=tuple(xs), equations=(eq,), distinctness=distinctness)


def schur_system(distinctness: str = "allow-repeats") -> EquationSystem:
    eq = Equation([_linear_term(1, "x"), _linear_term(1, "y"), _linear_term(-1, "z")])
    return EquationSystem(
        name="schur",
        variables=("x", "y", "z"),
        equations=(eq,),
        distinctness=distinctness,
        status="regular-by-paper",
    )


def mult_schur_system(distinctness: str = "allow-repeats") -> EquationSystem:
    eq = Equation([(1, Monomial({"x": 1, "y": 1})), (-1, Monomial({"z": 1}))])
    return EquationSystem(
        name="mult-schur",
        variables=("x", "y", "z"),
        equations=(eq,),
        distinctness=distinctness,
        status="regular-by-paper",
    )


def poly_sum_product(n: int, m: int, polys) -> EquationSystem:
    """x_1+...+x_n = y_1...y_m * z_i + P_i(y_{m+1}), one equation per P_i."""
    polys = tuple(polys)
    if n < 1 or m < 1 or not polys:
        raise ValueError("need n >= 1, m >= 1 and at least one polynomial")
    r = len(polys)
    xs = [f"x{j}" for j in range(1, n + 1)]
    ys = [f"y{k}" for k in range(1, m + 2)]
    zs = [f"z{i}" for i in range(1, r + 1)]
    yprod = {f"y{k}": 1 for k in range(1, m + 1)}
    eqs = []
    for i in range(r):
        terms = [_linear_term(1, x) for x in xs]
        terms.append((-1, Monomial({**yprod, zs[i]: 1})))
        terms.extend([(-c, mono) for c, mono in _poly_terms(polys[i], ys[m])])
        eqs.append(Equation(terms))
    return EquationSystem(
        name=f"poly-sum-product(n={n},m={m},r={r})",
        variables=tuple(xs + ys + zs),
        equations=tuple(eqs),
        status="regular-by-paper",
    )


def sums_with_poly(n: int, polys) -> EquationSystem:
    """x_1+...+x_n = z_i + P_i(z): the renamed form of the sum-equals-product
    construction."""
    polys = tuple(polys)
    if n < 1 or not polys:
        raise ValueError("need n >= 1 and at least one polynomial")
    r = len(polys)
    xs = [f"x{j}" for j in range(1, n + 1)]
    zs = [f"z{i}" for i in range(1, r + 1)]
    eqs = []
    for i in range(r):
        terms = [_linear_term(1, x) for x in xs]
        terms.append(_linear_term(-1, zs[i]))
        terms.extend([(-c, mono) for c, mono in _poly_terms(polys[i], "z")])
        eqs.append(Equation(terms))
    return EquationSystem(
        name=f"sums-with-poly(n={n},r={r})",
        variables=tuple(xs + zs + ["z"]),
        equations=tuple(eqs),
        status="regular-by-paper",
    )


def power_product(polys) -> EquationSystem:
    """x*y^i = z_i + P_i(z) for i = 1..n."""
    polys = tuple(polys)
    if not polys:
        raise ValueError("need at least one polynomial")
    n = len(polys)
    zs = [f"z{i}" for i in range(1, n + 1)]
    eqs = []
    for i in range(1, n + 1):
        terms = [(1, Monomial({"x": 1, "y": i}))]
        terms.append(_linear_term(-1, zs[i - 1]))
        terms.extend([(-c, mono) for c, mono in _poly_terms(polys[i - 1], "z")])
        eqs.append(Equation(terms))
    return EquationSystem(
        name=f"power-product(n={n})",
        variables=tuple(["x", "y"] + zs + ["z"]),
        equations=tuple(eqs),
        status="regular-by-paper",
    )


def ap_times_product(l: int, m: int, n: int) -> EquationSystem:
    """x_1 + i*x_2 + x_3 + ... + x_n = z_i * y_1...y_m for i = 1..l."""
    if n <= 2:
        raise ValueError("family requires n > 2")
    if l < 1 or m < 1:
        raise ValueError("need l >= 1, m >= 1")
    xs = [f"x{j}" for j in range(1, n + 1)]
    ys = [f"y{k}" for k in range(1, m + 1)]
    zs = [f"z{i}" for i in range(1, l + 1)]
    yprod = {y: 1 for y in ys}
    eqs = []
    for i in range(1, l + 1):
        terms = [_linear_term(1, xs[0]), _linear_term(i, xs[1])]
        terms += [_linear_term(1, x) for x in xs[2:]]
        terms.append((-1, Monomial({**yprod, zs[i - 1]: 1})))
        eqs.append(Equation(terms))
    return EquationSystem(
        name=f"ap-times-product(l={l},m={m},n={n})",
        variables=tuple(xs + ys + zs),
        equations=tuple(eqs),
        status="regular-by-paper",
    )


def ap_times_power(l: int, m: int, n: int) -> EquationSystem:
    """x_1 + i*x_2 + x_3 + ... + x_n = y_i * z^m for i = 1..l."""
    if n <= 2:
        raise ValueError("family requires n > 2")
    if m <= 1:
        raise ValueError("family requires m > 1")
    if l < 1:
        raise ValueError("need l >= 1")
    xs = [f"x{j}" for j in range(1, n + 1)]
    ys = [f"y{i}" for i in range(1, l + 1)]
    eqs = []
    for i in range(1, l + 1):
        terms = [_linear_term(1, xs[0]), _linear_term(i, xs[1])]
        terms += [_linear_term(1, x) for x in xs[2:]]
        terms.append((-1, Monomial({ys[i - 1]: 1, "z": m})))
        eqs.append(Equation(terms))
    return EquationSystem(
        name=f"ap-times-power(l={l},m={m},n={n})",
        variables=tuple(xs + ys + ["z"]),
        equations=tuple(eqs),
        status="regular-by-paper",
    )


def rational_function(n: int, p: Poly, q: Poly) -> EquationSystem:
    """(x + P(d)) / (y + Q(d)) = z^n, encoded cross-multiplied:
    x + P(d) - z^n*y - z^n*Q(d) = 0.  The y + Q(d) != 0 side condition is a
    search-time precondition, not part of the equation."""
    if n < 1:
        raise ValueError("need n >= 1")
    terms = [_linear_term(1, "x")]
    terms += _poly_terms(p, "d")
    terms.append((-1, Monomial({"z": n, "y": 1})))
    terms += [(-c, Monomial({**dict(mono.exps), "z": n})) for c, mono in _poly_terms(q, "d")]
    return EquationSystem(
        name=f"rational-function(n={n})",
        variables=("x", "y", "z", "d"),
        equations=(Equation(terms),),
        status="regular-by-paper",
    )


def concluding_system(which: int, polys) -> EquationSystem:
    """The three bundled unknown-status systems from the concluding remarks."""
    polys = tuple(polys)
    if which == 1:
        if len(polys) != 3:
            raise ValueError("concluding-1 takes 3 polynomials")
        eqs = []
        for i, (lhs_pow, res) in enumerate([(1, "z"), (2, "w"), (3, "u")]):
            terms = [_linear_term(1, "x"), (1, Monomial({"y": lhs_pow}))]
            terms.append(_linear_term(-1, res))
            terms.extend([(-c, m) for c, m in _poly_terms(polys[i], "t")])
            eqs.append(Equation(terms))
        return EquationSystem(
            name="concluding-1",
            variables=("x", "y", "z", "w", "u", "t"),
            equations=tuple(eqs),
            status="unknown",
        )
    if which == 2:
        if len(polys) != 2:
            raise ValueError("concluding-2 takes 2 polynomials")
        eqs = []
        for i, zpow in enumerate([2, 3]):
            terms = [_linear_term(1, "x"), _linear_term(1, "y")]
            terms.append((-1, Monomial({"z": zpow})))
            terms.extend([(-c, m) for c, m in _poly_terms(polys[i], "t")])
            eqs.append(Equation(terms))
        return EquationSystem(
            name="concluding-2",
            variables=("x", "y", "z", "t"),
            equations=tuple(eqs),
            status="unknown",
        )
    if which == 3:
        if len(polys) != 3:
            raise ValueError("concluding-3 takes 3 polynomials")
        eqs = []
        for i in range(3):
            xs = [f"x{j}" for j in range(i + 1, i + 4)]
            terms = [_linear_term(1, x) for x in xs]
            terms.append((-1, Monomial({f"y{i + 1}": 1, f"y{i + 2}": 1})))
            terms.extend([(-c, m) for c, m in _poly_terms(polys[i], "t")])
            eqs.append(Equation(terms))
        return EquationSystem(
            name="concluding-3",
            variables=tuple([f"x{j}" for j in range(1, 6)] + [f"y{k}" for k in range(1, 5)] + ["t"]),
            equations=tuple(eqs),
            status="unknown",
        )
    raise ValueError(f"no concluding system {which}")


# template registry: family name -> (number of leading int params, builder)
_TEMPLATES = {
    "schur": (0, lambda ints, polys: schur_system()),
    "mult-schur": (0, lambda ints, polys: mult_schur_system()),
    "equation": (-1, lambda ints, polys: single_equation(ints)),
    "poly-sum-product": (2, lambda ints, polys: poly_sum_product(ints[0], ints[1], polys)),
    "sums-with-poly": (1, lambda ints, polys: sums_with_poly(ints[0], polys)),
    "power-product": (0, lambda ints, polys: power_product(polys)),
    "ap-times-product": (3, lambda ints, polys: ap_times_product(*ints)),
    "ap-times-power": (3, lambda ints, polys: ap_times_power(*ints)),
    "rational-function": (1, lambda ints, polys: rational_function(ints[0], *_expect(polys, 2))),
    "concluding-1": (0, lambda ints, polys: concluding_system(1, polys)),
    "concluding-2": (0, lambda ints, polys: concluding_system(2, polys)),
    "concluding-3": (0, lambda ints, polys: concluding_system(3, polys)),
}


def _expect(polys, k):
    if len(polys) != k:
        raise ValueError(f"expected {k} polynomials, got {len(polys)}")
    return polys


def build_template(family: str, ints=(), polys=()) -> EquationSystem:
    """Build a named family; `ints` are the leading numeric parameters and
    `polys` the polynomial parameters."""
    try:
        n_ints, builder = _TEMPLATES[family]
    except KeyError:
        raise ValueError(f"unknown template family {family!r}") from None
    if n_ints >= 0 and len(ints) != n_ints:
        raise ValueError(f"{family} takes {n_ints} integer parameters, got {len(ints)}")
    return builder(list(ints), list(polys))


def parse_template_spec(text: str) -> EquationSystem:
    """Parse e.g. 'power-product(z^2, z^3)', 'ap-times-product(2,1,3)',
    'equation(1,1,-3)', 'schur'.  Arguments are classified positionally:
    integer parameters first, polynomials after."""
    text = text.strip()
    if "(" not in text:
        return build_template(text)
    if not text.endswith(")"):
        raise ValueError(f"bad template spec {text!r}")
    family, _, rest = text.partition("(")
    family = family.strip()
    args = [a.strip() for a in rest[:-1].split(",") if a.strip()]
    n_ints, _ = _TEMPLATES.get(family, (None, None))
    if n_ints is None:
        raise ValueError(f"unknown template family {family!r}")
    if n_ints < 0:  # all-int family
        return build_template(family, ints=[int(a) for a in args])
    ints = [int(a) for a in args[:n_ints]]
    polys = [poly_parse(a) for a in args[n_ints:]]
    return build_template(family, ints=ints, polys=polys)


# ---------------------------------------------------------------------------
# proof-construction checkers


def construct_thm34(a_list, b_list, a, d, polys):
    """Build the explicit sum-equals-product assignments.

    Inputs: a_1..a_n, b_1..b_{m-1} (empty for m = 1), positive a, d, and the
    perturbation polynomials P_1..P_r.  Returns one assignment per equation
    index i; assignment i carries x_1..x_n, y_1..y_{m+1} and z_i, and makes
    the i-th equation of poly_sum_product(n, m, polys) hold exactly over Q.
    """
    a_list = [norm_scalar(v) for v in a_list]
    b_list = [norm_scalar(v) for v in b_list]
    a = norm_scalar(a)
    d = norm_scalar(d)
    polys = tuple(polys)
    if not a_list or not polys:
        raise ValueError("need at least one a_i and one polynomial")
    if any(v <= 0 for v in a_list + b_list) or a <= 0 or d <= 0:
        raise ValueError("all inputs must be positive")
    n = len(a_list)
    m = len(b_list) + 1
    s = sum(a_list)
    bprod = 1
    for b in b_list:
        bprod *= b
    denom = s * bprod
    if denom == 0:
        raise ZeroDivisionError("(a_1+...+a_n) * b_1...b_{m-1} must be nonzero")
    shared = {}
    for j, aj in enumerate(a_list, start=1):
        shared[f"x{j}"] = norm_scalar(aj * bprod * a)
    for k, bk in enumerate(b_list, start=1):
        shared[f"y{k}"] = bk
    shared[f"y{m}"] = norm_scalar(s)
    shared[f"y{m + 1}"] = d
    out = []
    for i, p in enumerate(polys, start=1):
        assignment = dict(shared)
        assignment[f"z{i}"] = norm_scalar(a - Fraction(p.eval(d)) / denom)
        out.append(assignment)
    return out


def construct_thm37(A: Matrix, X: Vector, a, d, polys) -> dict:
    """Assignment satisfying build_nonlinear_rado(A, polys), built from an
    exact kernel vector X of A: x_j = a*X_j, y_i = a*x_n - P_i(d)/a_{i,n},
    z = d."""
    a = norm_scalar(a)
    d = norm_scalar(d)
    polys = tuple(polys)
    m, n = A.m, A.n
    if len(X) != n:
        raise ValueError("kernel vector length must match column count")
    if len(polys) != m:
        raise ValueError(f"need {m} polynomials")
    if any(v != 0 for v in mat_vec(A, X)):
        raise ValueError("X is not in the kernel of A")
    xn = X[n - 1]
    for i in range(m):
        if A.rows[i][n - 1] * xn == 0:
            raise ZeroDivisionError(f"a_{{{i + 1},n}} * x_n is zero")
    assignment = {}
    for j in range(1, n):
        assignment[f"x{j}"] = norm_scalar(a * X[j - 1])
    for i in range(1, m + 1):
        ain = A.rows[i - 1][n - 1]
        assignment[f"y{i}"] = norm_scalar(a * xn - Fraction(polys[i - 1].eval(d)) / ain)
    assignment["z"] = d
    return assignment


# ---------------------------------------------------------------------------
# JSON wire format


def _json_field(value, kind: type, field: str):
    """`value`, which the JSON field `field` must give as a `kind`."""
    if not isinstance(value, kind):
        raise ValueError(f"{field} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def _json_key(obj: dict, key: str, where: str):
    """`obj[key]`, where `obj` is the JSON object at `where`."""
    if key not in obj:
        raise ValueError(f"{where}: missing key {key!r}")
    return obj[key]


def system_from_json(data) -> EquationSystem:
    """The system that parsed JSON `data` describes; a ValueError names the
    first field of the wrong type or missing key, and where it is.  A
    `status` key is refused: a system's regularity is not taken on trust."""
    _json_field(data, dict, "the system")
    if "status" in data:
        raise ValueError("the system: key 'status' is refused, since a label in a file cannot be checked")
    variables = _json_field(_json_key(data, "variables", "the system"), list, "variables")
    if not all(isinstance(v, str) for v in variables):
        raise ValueError("variables must be a JSON array of strings")
    eqs = []
    for i, eq in enumerate(_json_field(_json_key(data, "equations", "the system"), list, "equations")):
        field = f"equations[{i}]"
        terms = []
        for j, t in enumerate(_json_field(_json_key(_json_field(eq, dict, field), "terms", field), list, f"{field}.terms")):
            where = f"{field}.terms[{j}]"
            _json_field(t, dict, where)
            mono = _json_field(t.get("monomial", {}), dict, f"{where}.monomial")
            terms.append((parse_scalar(str(_json_key(t, "coeff", where))), Monomial(mono)))
        eqs.append(Equation(terms))
    return EquationSystem(
        name=_json_key(data, "name", "the system"),
        variables=tuple(variables),
        equations=tuple(eqs),
        distinctness=data.get("distinctness", "allow-repeats"),
    )
