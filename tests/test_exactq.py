import math
import random
from fractions import Fraction

import pytest
import sympy

from radolab import exactq
from radolab.exactq import (
    MATRIX_LIMIT,
    Matrix,
    insert,
    integral,
    kernel_basis,
    mat_vec,
    norm_scalar,
    parse_scalar,
    rank,
    reduce,
    span_member,
)


def test_rational_arith_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert norm_scalar(Fraction(3, 6) * Fraction(0, 1)) == 0
    assert norm_scalar(Fraction(2, 4) - Fraction(1, 2)) == 0
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


def test_canonical_form():
    assert norm_scalar(Fraction(4, 2)) == 2
    assert isinstance(norm_scalar(Fraction(4, 2)), int)
    assert norm_scalar(Fraction(-6, 4)) == Fraction(-3, 2)


def test_rational_roundtrip_properties():
    rng = random.Random(7)
    for _ in range(500):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a


def test_parse_scalar():
    assert parse_scalar("7") == 7
    assert parse_scalar("-3/6") == Fraction(-1, 2)
    with pytest.raises(ValueError):
        parse_scalar("1/0")


def test_matrix_text_roundtrip():
    A = Matrix.from_text("1 1 -1\n1/2 0 3")
    assert A.m == 2 and A.n == 3
    assert A.rows[1][0] == Fraction(1, 2)
    assert Matrix.from_text(A.to_text()) == A


def test_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        Matrix([])
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix.from_text("1 2/0")
    for blank in ("", "\n  \n"):
        with pytest.raises(ValueError, match="empty matrix text"):
            Matrix.from_text(blank)


def test_products_and_ranks_refuse_mismatched_dimensions():
    with pytest.raises(ValueError, match="dimension mismatch"):
        mat_vec(Matrix([[1, 2]]), (1, 2, 3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        rank([(1, 2), (1, 2, 3)])


def test_span_member_examples():
    assert span_member([(1, 2)], (2, 4))
    assert span_member([], (0, 0))
    assert not span_member([], (1, 0))
    assert span_member([(1, 0), (0, 1)], (-3, -1))
    with pytest.raises(ValueError):
        span_member([(1, 2)], (1, 2, 3))


def test_span_member_vs_sympy():
    rng = random.Random(11)
    for _ in range(200):
        dim = rng.randint(1, 5)
        k = rng.randint(0, 4)
        basis = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(k)]
        v = tuple(rng.randint(-4, 4) for _ in range(dim))
        if basis:
            m1 = sympy.Matrix([list(b) for b in basis])
            m2 = sympy.Matrix([list(b) for b in basis] + [list(v)])
            expected = m1.rank() == m2.rank()
        else:
            expected = all(e == 0 for e in v)
        assert span_member(basis, v) == expected


def test_kernel_basis_examples():
    b = kernel_basis(Matrix([[1, 1, -1]]))
    assert len(b) == 2
    A = Matrix([[1, 1, -1]])
    for v in b:
        assert mat_vec(A, v) == (0,)
    assert kernel_basis(Matrix([[1, 0], [0, 1]])) == []
    B = Matrix([[1, 2, -3], [2, -1, -1]])
    kb = kernel_basis(B)
    assert len(kb) == 1
    # the all-ones vector spans it
    assert span_member(kb, (1, 1, 1))


def _check_kernel_basis(rng, entry):
    for _ in range(300):
        m = rng.randint(1, 4)
        n = rng.randint(1, 6)
        A = Matrix([[entry() for _ in range(n)] for _ in range(m)])
        basis = kernel_basis(A)
        for v in basis:
            assert all(e == 0 for e in mat_vec(A, v))
        assert len(basis) == n - rank(A.rows)
        # sympy parametrises the kernel from the reduced echelon form too,
        # one vector per free column, so the bases agree vector for vector
        S = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in r] for r in A.rows])
        assert rank(A.rows) == S.rank()
        expected = [tuple(Fraction(int(e.p), int(e.q)) for e in v) for v in S.nullspace()]
        assert basis == expected, (A, basis, expected)


def test_kernel_basis_properties():
    rng = random.Random(13)

    def entry():
        if rng.random() < 0.3:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        return rng.randint(-3, 3)

    _check_kernel_basis(rng, entry)


def test_kernel_basis_of_fractional_matrices():
    # every entry a fraction, so every row is scaled to integers first
    rng = random.Random(14)
    _check_kernel_basis(rng, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 8)))


def test_rank_fraction_entries():
    A = Matrix.from_text("1/2 1\n1 2")
    assert rank(A.rows) == 1
    assert rank([(Fraction(1, 3), 1), (1, 3)]) == 1


def test_integer_basis_over_one_denominator():
    # the rows are ints over one common denominator D, in lowest terms; the
    # echelon rows are row / D, and reduce gives D times the residual
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        basis = []
        for r in rows:
            insert(integral(r), basis)
        assert len(basis) == rank(rows)
        if not basis:
            continue
        d = basis[0][1][basis[0][0]]
        assert d > 0 and math.gcd(*(a for _, row in basis for a in row)) == 1
        for p, row in basis:
            assert all(isinstance(a, int) for a in row)
            assert [other[p] for _, other in basis] == [d if q == p else 0 for q, _ in basis]
        for r in rows:
            assert not any(reduce(integral(r), basis))
        v = [rng.randint(-5, 5) for _ in range(n)]
        residual = [Fraction(a, d) for a in reduce(v, basis)]
        assert span_member([tuple(r) for r in rows], tuple(a - b for a, b in zip(v, residual)))
        assert all(residual[p] == 0 for p, _ in basis)


def test_kernel_basis_refuses_too_much_elimination_before_eliminating(monkeypatch):
    def eliminate_nothing(*args):
        raise AssertionError("eliminated")

    monkeypatch.setattr(exactq, "insert", eliminate_nothing)
    # 101 * 101 * 101 steps; 250 x 251 took 10.4 s to eliminate
    for m, n in ((101, 101), (250, 251)):
        with pytest.raises(ValueError, match=f"too many elimination steps for a {m}x{n} matrix"):
            kernel_basis(Matrix([[1] * n] * m))


def test_kernel_basis_refuses_a_basis_with_too_many_entries():
    # one row of n ones has n - 1 kernel vectors of n entries each
    assert len(kernel_basis(Matrix([[1] * 1000]))) == 999
    assert 1000 * 999 <= MATRIX_LIMIT < 1001 * 1000
    with pytest.raises(ValueError, match="too many kernel basis entries for a 1x1001 matrix: 1,001,000, above"):
        kernel_basis(Matrix([[1] * 1001]))
    with pytest.raises(ValueError, match="1x10000 matrix: 99,990,000"):
        kernel_basis(Matrix([[1] * 10000]))


def test_matrix_size_bound_sits_at_its_limit(monkeypatch):
    monkeypatch.setattr(exactq, "MATRIX_LIMIT", 12)
    # 2 x 3: 12 elimination steps and 3 basis entries; 1 x 4: 12 entries
    assert kernel_basis(Matrix([[1, 1, -1], [0, 1, 1]])) == [(2, -1, 1)]
    assert len(kernel_basis(Matrix([[1, 1, 1, 1]]))) == 3
    with pytest.raises(ValueError, match="too many elimination steps for a 3x3 matrix: 27, above the limit of 12"):
        kernel_basis(Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(ValueError, match="too many kernel basis entries for a 1x5 matrix: 20, above the limit of 12"):
        kernel_basis(Matrix([[1, 1, 1, 1, 1]]))
