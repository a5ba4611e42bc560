"""Sparse multivariate equation systems, the named template families, and
exact checkers for the explicit proof constructions."""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

from .exactq import Matrix, Scalar, Vector, mat_vec, norm_scalar, parse_scalar
from .polyring import MAX_EXPONENT, Poly, poly_parse
from .radomat import MAX_COLS, column_condition

DISTINCTNESS = ("allow-repeats", "all-distinct", "nontrivial")
STATUS = ("regular-by-paper", "not-regular", "unknown")
# the most variables a system may have: `search._Plan` tries a swap of each
# variable with the later ones of its shape, so variables that are all alike
# (equation(1,1,...,1)) compile in time quadratic in their number
MAX_VARIABLES = 64


@dataclass(frozen=True, slots=True)
class Monomial:
    """Product of variable powers; the empty monomial is the constant 1."""

    exps: tuple = None

    def __post_init__(self):
        items = []
        for v, e in (self.exps or {}).items():
            if isinstance(e, bool) or not isinstance(e, int) or e < 1:
                raise ValueError(f"the exponent of {v} must be a positive integer, not {e!r}")
            if e > MAX_EXPONENT:
                raise ValueError(f"the exponent {e} of {v} is above {MAX_EXPONENT}")
            items.append((str(v), e))
        object.__setattr__(self, "exps", tuple(sorted(items)))

    def variables(self):
        return [v for v, _ in self.exps]

    def eval(self, assignment: dict) -> Scalar:
        val = 1
        for v, e in self.exps:
            val *= assignment[v] ** e
        return val

    def __repr__(self):
        if not self.exps:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self.exps)


ONE = Monomial()


@dataclass(frozen=True, slots=True, eq=False)
class Equation:
    """Sum of (coefficient, monomial) terms, read as `sum = 0`.  `terms` are
    (c, monomial) tuples; a pair whose c is already normalised is kept as it
    is, so equations share the pairs `_pair` hands out.  Equality ignores the
    order of the terms, so an equation is not hashable."""

    terms: tuple

    def __post_init__(self):
        seen = {}
        for pair in self.terms:
            c, mono = pair
            n = norm_scalar(c)
            if n == 0:
                continue
            if mono in seen:
                raise ValueError(f"duplicate monomial {mono!r}")
            seen[mono] = pair if n is c else (n, mono)
        object.__setattr__(self, "terms", tuple(seen.values()))

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


@dataclass(frozen=True, slots=True)
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
        if not 1 <= len(self.variables) <= MAX_VARIABLES:
            raise ValueError(f"a system needs 1 to {MAX_VARIABLES} variables, not {len(self.variables)}")
        declared = set(self.variables)
        if len(declared) < len(self.variables):
            raise ValueError(f"repeated variable names in {list(self.variables)}")
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


@functools.lru_cache(maxsize=1024, typed=True)
def _monomial(*flat) -> Monomial:
    """The monomial v_1^e_1 * ... * v_k^e_k of the arguments v_1, ..., v_k,
    e_1, ..., e_k.  Monomials are immutable, so the cache shares them: the
    linear ones recur in every row of every system built.  It is typed, so
    that an exponent 2.0 or True is refused as before, not taken for 2 or 1."""
    k = len(flat) // 2
    return Monomial(dict(zip(flat[:k], flat[k:])))


@functools.lru_cache(maxsize=1024, typed=True)
def _pair(c, *flat) -> tuple:
    """The term (c, _monomial(*flat)), with c normalised.  Terms recur across
    the systems built from matrices of one shape, so the cache shares them;
    it is typed for the same reason as `_monomial`'s."""
    return norm_scalar(c), _monomial(*flat)


def _eq(*terms) -> Equation:
    """The equation sum c * prod v^e = 0 over (c, {v: e}) pairs."""
    return Equation([_pair(c, *m, *m.values()) for c, m in terms])


def _poly(p: Poly, var: str, sign=-1):
    """The terms of sign * P(var)."""
    return [(sign * c, {var: d}) for d, c in p.coeffs.items()]


def _linear(vs, coeffs=None):
    """The terms of c_1 v_1 + ... + c_k v_k, with every c_j = 1 by default."""
    return [(c, {v: 1}) for c, v in zip(coeffs or [1] * len(vs), vs)]


@functools.lru_cache(maxsize=64)
def _names(prefix: str, k: int) -> tuple:
    """("prefix1", ..., "prefixk"), shared by every system and assignment
    that names these variables."""
    if k > MAX_VARIABLES:
        raise ValueError(f"{k} variables {prefix}1, {prefix}2, ... are more than {MAX_VARIABLES}")
    return tuple(f"{prefix}{i}" for i in range(1, k + 1))


@functools.lru_cache(maxsize=64)
def _rado_variables(n: int, m: int) -> tuple:
    """The variables x_1..x_{n-1}, y_1..y_m, z of `build_nonlinear_rado`,
    shared by every system built from an m x n matrix."""
    return (*_names("x", n - 1), *_names("y", m), "z")


def _ap_row(xs, i):
    """The terms of x_1 + i*x_2 + x_3 + ... + x_n."""
    return _linear(xs, [1, i] + [1] * (len(xs) - 2))


def _family(name, variables, equations, status) -> EquationSystem:
    return EquationSystem(name=name, variables=tuple(variables), equations=tuple(equations), status=status)


def build_nonlinear_rado(A: Matrix, polys) -> EquationSystem:
    """System over x_1..x_{n-1}, y_1..y_m, z with row i reading
    sum_j a_{i,j} x_j + a_{i,n} y_i + P_i(z) = 0.  The paper claims it regular
    when A satisfies the column condition, which column_condition(A) decides
    and this builder does not check, so the label is unknown."""
    m, n = A.m, A.n
    if n < 2:
        raise ValueError("need n >= 2 columns")
    polys = tuple(polys)
    if len(polys) != m:
        raise ValueError(f"need {m} polynomials, got {len(polys)}")
    xs, ys = _names("x", n - 1), _names("y", m)
    eqs = [_eq(*_linear((*xs, y), row), *_poly(p, "z", 1)) for row, y, p in zip(A.rows, ys, polys)]
    return _family("nonlinear-rado", _rado_variables(n, m), eqs, "unknown")


def single_equation(coeffs) -> EquationSystem:
    """One homogeneous linear equation sum_i c_i v_i = 0 over v1..vk.  By
    Rado's theorem it is regular exactly when some nonempty subset of the
    c_i sums to 0, the column condition for one row; an equation of more
    than MAX_COLS terms is unknown."""
    coeffs = [norm_scalar(c) for c in coeffs]
    if len(coeffs) < 2 or any(c == 0 for c in coeffs):
        raise ValueError("need >= 2 nonzero coefficients")
    vs = _names("v", len(coeffs))
    label = "equation(" + ",".join(str(c) for c in coeffs) + ")"
    wide = len(coeffs) > MAX_COLS
    status = "unknown" if wide else "regular-by-paper" if column_condition(Matrix([coeffs])) else "not-regular"
    return _family(label, vs, [_eq(*_linear(vs, coeffs))], status)


def schur_system() -> EquationSystem:
    return _family("schur", "xyz", [_eq(*_linear("xy"), (-1, {"z": 1}))], "regular-by-paper")


def mult_schur_system() -> EquationSystem:
    return _family("mult-schur", "xyz", [_eq((1, {"x": 1, "y": 1}), (-1, {"z": 1}))], "regular-by-paper")


def poly_sum_product(n: int, m: int, polys) -> EquationSystem:
    """x_1+...+x_n = y_1...y_m * z_i + P_i(y_{m+1}), one equation per P_i."""
    polys = tuple(polys)
    if n < 1 or m < 1 or not polys:
        raise ValueError("need n >= 1, m >= 1 and at least one polynomial")
    xs, ys, zs = _names("x", n), _names("y", m + 1), _names("z", len(polys))
    eqs = [
        _eq(*_linear(xs), (-1, dict.fromkeys((*ys[:m], z), 1)), *_poly(p, ys[m]))
        for z, p in zip(zs, polys)
    ]
    return _family(f"poly-sum-product(n={n},m={m},r={len(polys)})", (*xs, *ys, *zs), eqs, "regular-by-paper")


def sums_with_poly(n: int, polys) -> EquationSystem:
    """x_1+...+x_n = z_i + P_i(z): the renamed form of the sum-equals-product
    construction."""
    polys = tuple(polys)
    if n < 1 or not polys:
        raise ValueError("need n >= 1 and at least one polynomial")
    xs, zs = _names("x", n), _names("z", len(polys))
    eqs = [_eq(*_linear(xs), (-1, {z: 1}), *_poly(p, "z")) for z, p in zip(zs, polys)]
    return _family(f"sums-with-poly(n={n},r={len(polys)})", (*xs, *zs, "z"), eqs, "regular-by-paper")


def power_product(polys) -> EquationSystem:
    """x*y^i = z_i + P_i(z) for i = 1..n."""
    polys = tuple(polys)
    if not polys:
        raise ValueError("need at least one polynomial")
    zs = _names("z", len(polys))
    eqs = [
        _eq((1, {"x": 1, "y": i}), (-1, {z: 1}), *_poly(p, "z"))
        for i, (z, p) in enumerate(zip(zs, polys), 1)
    ]
    return _family(f"power-product(n={len(polys)})", ("x", "y", *zs, "z"), eqs, "regular-by-paper")


def ap_times_product(l: int, m: int, n: int) -> EquationSystem:
    """x_1 + i*x_2 + x_3 + ... + x_n = z_i * y_1...y_m for i = 1..l."""
    if n <= 2:
        raise ValueError("family requires n > 2")
    if l < 1 or m < 1:
        raise ValueError("need l >= 1, m >= 1")
    xs, ys, zs = _names("x", n), _names("y", m), _names("z", l)
    eqs = [_eq(*_ap_row(xs, i), (-1, dict.fromkeys((*ys, z), 1))) for i, z in enumerate(zs, 1)]
    return _family(f"ap-times-product(l={l},m={m},n={n})", (*xs, *ys, *zs), eqs, "regular-by-paper")


def ap_times_power(l: int, m: int, n: int) -> EquationSystem:
    """x_1 + i*x_2 + x_3 + ... + x_n = y_i * z^m for i = 1..l."""
    if n <= 2:
        raise ValueError("family requires n > 2")
    if m <= 1:
        raise ValueError("family requires m > 1")
    if l < 1:
        raise ValueError("need l >= 1")
    xs, ys = _names("x", n), _names("y", l)
    eqs = [_eq(*_ap_row(xs, i), (-1, {y: 1, "z": m})) for i, y in enumerate(ys, 1)]
    return _family(f"ap-times-power(l={l},m={m},n={n})", (*xs, *ys, "z"), eqs, "regular-by-paper")


def rational_function(n: int, p: Poly, q: Poly) -> EquationSystem:
    """(x + P(d)) / (y + Q(d)) = z^n, encoded cross-multiplied:
    x + P(d) - z^n*y - z^n*Q(d) = 0.  The y + Q(d) != 0 side condition is a
    search-time precondition, not part of the equation."""
    if n < 1:
        raise ValueError("need n >= 1")
    z_times_q = [(c, {**mono, "z": n}) for c, mono in _poly(q, "d")]
    eq = _eq((1, {"x": 1}), *_poly(p, "d", 1), (-1, {"z": n, "y": 1}), *z_times_q)
    return _family(f"rational-function(n={n})", "xyzd", [eq], "regular-by-paper")


# concluding system -> (variables, the terms of each equation but its tail
# -P_i(t))
_CONCLUDING = {
    1: ("xyzwut", [[(1, {"x": 1}), (1, {"y": k}), (-1, {v: 1})] for k, v in ((1, "z"), (2, "w"), (3, "u"))]),
    2: ("xyzt", [[*_linear("xy"), (-1, {"z": k})] for k in (2, 3)]),
    3: (
        (*_names("x", 5), *_names("y", 4), "t"),
        [[*_linear(_names("x", 5)[i : i + 3]), (-1, {f"y{i + 1}": 1, f"y{i + 2}": 1})] for i in range(3)],
    ),
}


def concluding_system(which: int, polys) -> EquationSystem:
    """The three bundled unknown-status systems from the concluding remarks."""
    polys = tuple(polys)
    if which not in _CONCLUDING:
        raise ValueError(f"no concluding system {which}")
    variables, heads = _CONCLUDING[which]
    if len(polys) != len(heads):
        raise ValueError(f"concluding-{which} takes {len(heads)} polynomials")
    eqs = [_eq(*head, *_poly(p, "t")) for head, p in zip(heads, polys)]
    return _family(f"concluding-{which}", variables, eqs, "unknown")


# template registry: family name -> (number of leading integer parameters,
# number of polynomials, builder); None admits any number
_TEMPLATES = {
    "schur": (0, 0, lambda ints, polys: schur_system()),
    "mult-schur": (0, 0, lambda ints, polys: mult_schur_system()),
    "equation": (None, 0, lambda ints, polys: single_equation(ints)),
    "poly-sum-product": (2, None, lambda ints, polys: poly_sum_product(*ints, polys)),
    "sums-with-poly": (1, None, lambda ints, polys: sums_with_poly(*ints, polys)),
    "power-product": (0, None, lambda ints, polys: power_product(polys)),
    "ap-times-product": (3, 0, lambda ints, polys: ap_times_product(*ints)),
    "ap-times-power": (3, 0, lambda ints, polys: ap_times_power(*ints)),
    "rational-function": (1, 2, lambda ints, polys: rational_function(*ints, *polys)),
    "concluding-1": (0, 3, lambda ints, polys: concluding_system(1, polys)),
    "concluding-2": (0, 2, lambda ints, polys: concluding_system(2, polys)),
    "concluding-3": (0, 3, lambda ints, polys: concluding_system(3, polys)),
}


def build_template(family: str, ints=(), polys=()) -> EquationSystem:
    """Build a named family; `ints` are the leading numeric parameters and
    `polys` the polynomial parameters, each as many as the family takes.
    Only `equation` takes parameters that are not integers."""
    try:
        n_ints, n_polys, builder = _TEMPLATES[family]
    except KeyError:
        raise ValueError(f"unknown template family {family!r}") from None
    for want, got, kind in ((n_ints, ints, "integer parameters"), (n_polys, polys, "polynomials")):
        if want is not None and len(got) != want:
            raise ValueError(f"{family} takes {want} {kind}, got {len(got)}")
    if family != "equation":
        for v in ints:
            if not isinstance(v, int):
                raise ValueError(f"{family} takes integer parameters, not {v}")
    return builder(list(ints), list(polys))


# a template argument without a variable letter is a number (a parameter),
# since a polynomial has no constant term
_NUMBER = re.compile(r"[^A-Za-z]+")


def parse_template_spec(text: str) -> EquationSystem:
    """Parse e.g. 'power-product(z^2, z^3)', 'ap-times-product(2,1,3)',
    'equation(1/2,1/2,-1)', 'schur'.  An argument without a variable letter
    is a number (an integer or p/q) and a parameter, any other a polynomial,
    since a polynomial has no constant term; the parameters come first."""
    text = text.strip()
    if "(" not in text:
        return build_template(text)
    if not text.endswith(")"):
        raise ValueError(f"bad template spec {text!r}")
    family, _, rest = text.partition("(")
    family = family.strip()
    args = [a.strip() for a in rest[:-1].split(",") if a.strip()]
    if family not in _TEMPLATES:
        raise ValueError(f"unknown template family {family!r}")
    n_params = len(list(itertools.takewhile(_NUMBER.fullmatch, args)))
    for a in args[n_params:]:
        if _NUMBER.fullmatch(a):
            raise ValueError(f"the parameter {a} follows a polynomial")
    return build_template(family, [parse_scalar(a) for a in args[:n_params]], [poly_parse(a) for a in args[n_params:]])


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
    shared = {x: norm_scalar(aj * bprod * a) for x, aj in zip(_names("x", n), a_list)}
    shared.update(zip(_names("y", m + 1), [*b_list, norm_scalar(s), d]))
    out = []
    for z, p in zip(_names("z", len(polys)), polys):
        assignment = dict(shared)
        assignment[z] = norm_scalar(a - Fraction(p.eval(d)) / denom)
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
    assignment = {x: norm_scalar(a * xj) for x, xj in zip(_names("x", n - 1), X)}
    for y, row, p in zip(_names("y", m), A.rows, polys):
        assignment[y] = norm_scalar(a * xn - Fraction(p.eval(d)) / row[n - 1])
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
