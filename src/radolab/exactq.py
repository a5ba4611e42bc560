"""Exact rational scalars, vectors and dense matrices.

Scalars are plain ``int`` or ``fractions.Fraction``; the two mix freely and
exactly.  Fractions that reduce to integers are normalised back to ``int`` so
equality is structural and integer-only workloads stay in fast int arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

Scalar = Union[int, Fraction]
Vector = tuple  # tuple of Scalar

# the most that a matrix command may spend or print: the elimination steps
# m*n*min(m, n) of kernel_basis, and the entries of the kernel basis or of
# radomat.expand_matrix's E(A)
MATRIX_LIMIT = 10**6


def check_size(count: int, what: str, m: int, n: int) -> None:
    """Refuse, with a ValueError, `count` > `MATRIX_LIMIT` of `what` for an
    m x n matrix."""
    if count > MATRIX_LIMIT:
        raise ValueError(f"too many {what} for a {m}x{n} matrix: {count:,}, above the limit of {MATRIX_LIMIT:,}")


def norm_scalar(x: Scalar) -> Scalar:
    """Canonicalise: Fraction with denominator 1 becomes int."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return x
    if isinstance(x, int):
        return x
    raise TypeError(f"not an exact scalar: {x!r}")


def parse_scalar(token: str) -> Scalar:
    """Parse an integer or a 'p/q' fraction token."""
    token = token.strip()
    if "/" in token:
        num, _, den = token.partition("/")
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator in {token!r}")
        return norm_scalar(Fraction(int(num), d))
    return int(token)


def is_zero_vector(v: Vector) -> bool:
    return all(a == 0 for a in v)


@dataclass(frozen=True, slots=True)
class Matrix:
    """Dense m x n matrix of exact scalars, row-major and immutable."""

    rows: tuple
    m: int = field(init=False, compare=False)
    n: int = field(init=False, compare=False)

    def __post_init__(self):
        rws = tuple(tuple(norm_scalar(e) for e in row) for row in self.rows)
        if not rws or not rws[0]:
            raise ValueError("matrix needs at least one row and one column")
        n = len(rws[0])
        if any(len(r) != n for r in rws):
            raise ValueError("ragged rows")
        object.__setattr__(self, "m", len(rws))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rws)

    def col(self, j: int) -> Vector:
        return tuple(row[j] for row in self.rows)

    def cols(self) -> list:
        return [self.col(j) for j in range(self.n)]

    def row_sums(self) -> Vector:
        return tuple(sum(row) for row in self.rows)

    def to_text(self) -> str:
        return "\n".join(" ".join(str(e) for e in row) for row in self.rows)

    @classmethod
    def from_text(cls, text: str) -> "Matrix":
        """Parse the matrix text format: one row per line, whitespace-separated
        integer or p/q tokens.  Blank lines are ignored."""
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            rows.append([parse_scalar(tok) for tok in line.split()])
        if not rows:
            raise ValueError("empty matrix text")
        return cls(rows)


def mat_vec(A: Matrix, v: Vector) -> Vector:
    if len(v) != A.n:
        raise ValueError("dimension mismatch")
    return tuple(
        norm_scalar(sum(a * x for a, x in zip(row, v))) for row in A.rows
    )


# rank and span_member stay apart from reduce/insert: validate_witness and
# column_condition_naive build on them to check the decider independently.
def rank(vectors: Sequence[Vector]) -> int:
    """Rank of a list of vectors, by fraction-free Gaussian elimination.

    Division-free so integer inputs stay in int arithmetic throughout.
    """
    rows = [list(v) for v in vectors]
    if not rows:
        return 0
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("dimension mismatch")
    rk = 0
    for c in range(ncols):
        piv = None
        for i in range(rk, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        prow = rows[rk]
        p = prow[c]
        for i in range(rk + 1, len(rows)):
            f = rows[i][c]
            if f == 0:
                continue
            ri = rows[i]
            for k in range(c, ncols):
                ri[k] = ri[k] * p - prow[k] * f
        rk += 1
        if rk == len(rows):
            break
    return rk


def span_member(basis: Sequence[Vector], v: Vector) -> bool:
    """True iff v lies in the rational span of the given vectors.

    The empty basis spans only the zero vector.
    """
    dim = len(v)
    if any(len(b) != dim for b in basis):
        raise ValueError("dimension mismatch")
    if not basis:
        return is_zero_vector(v)
    base = list(basis)
    return rank(base) == rank(base + [v])


def integral(row: Sequence[Scalar]) -> list:
    """The row times the lcm of its entries' denominators: a list of ints.
    Scaling the rows of a matrix this way keeps its row space and kernel,
    and which sums of its columns lie in the span of other columns."""
    d = math.lcm(*(a.denominator for a in row))
    return [a.numerator * (d // a.denominator) for a in row]


def _denominator(basis: list) -> int:
    """The common denominator D of a basis built by ``insert``: the entry of
    any row in its pivot column; 1 for the empty basis."""
    return basis[0][1][basis[0][0]] if basis else 1


def reduce(v: Sequence[int], basis: list) -> list:
    """D times v minus its component along the basis, D the basis's common
    denominator: a multiple of the unique vector in v + span(basis) that is
    zero in every pivot column.  Linear in v, so it is zero iff v lies in
    the span.

    ``basis`` is a reduced row echelon basis as built by ``insert``, kept in
    integers: a list of (pivot_col, row) with row[pivot_col] = D for every
    row and every other row zero in that column; the echelon row is row / D.
    So the rows can be applied in any order, each by the entry of v in its
    pivot column."""
    d = _denominator(basis)
    out = [d * a for a in v] if d != 1 else list(v)
    for p, row in basis:
        f = v[p]
        if f:
            out = [a - f * b for a, b in zip(out, row)]
    return out


def insert(v: Sequence[int], basis: list) -> None:
    """Add the integer vector v to the reduced row echelon basis in place; no
    change if v already lies in its span."""
    v = reduce(v, basis)
    for p, e in enumerate(v):
        if e:
            # every row over the common denominator D * e: the old rows with
            # column p cleared, and the new one, v / e
            d = _denominator(basis)
            rows = [(q, [e * a - row[p] * b for a, b in zip(row, v)]) for q, row in basis]
            rows.append((p, [d * b for b in v]))
            g = math.gcd(*(a for _, row in rows for a in row))
            if e < 0:
                g = -g
            basis[:] = [(q, [a // g for a in row]) for q, row in rows]
            return


def kernel_basis(A: Matrix) -> list:
    """Basis of the rational null space of A, from the reduced echelon
    parametrisation (one basis vector per free column).  Empty list iff the
    kernel is trivial.  A matrix whose elimination or basis is too large is
    refused first (`check_size`)."""
    m, n = A.m, A.n
    check_size(m * n * min(m, n), "elimination steps", m, n)
    basis = []
    for r in A.rows:
        insert(integral(r), basis)
    check_size(n * (n - len(basis)), "kernel basis entries", m, n)
    d = _denominator(basis)
    pivots = {p for p, _ in basis}
    out = []
    for f in range(n):
        if f in pivots:
            continue
        v = [0] * n
        v[f] = 1
        for p, row in basis:
            q, r = divmod(-row[f], d)
            v[p] = Fraction(-row[f], d) if r else q
        out.append(tuple(v))
    return out
