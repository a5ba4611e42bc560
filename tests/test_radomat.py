import random
import time
from itertools import product
from operator import add

import pytest

from radolab import exactq
from radolab.exactq import Matrix
from radolab.radomat import (
    MAX_COLS,
    _first_zero_sum,
    ColumnPartitionWitness,
    column_condition,
    column_condition_naive,
    constant_solution,
    expand_matrix,
    validate_witness,
)


SCHUR = Matrix([[1, 1, -1]])


def van_der_waerden_matrix(m):
    """The m x (m+2) matrix whose kernel encodes (m+1)-term arithmetic
    progressions: row i is (1, i, -e_i)."""
    return Matrix([[1, i] + [-1 if j == i else 0 for j in range(1, m + 1)] for i in range(1, m + 1)])


def test_schur_matrix_witness():
    w = column_condition(SCHUR)
    assert w == ColumnPartitionWitness(blocks=((1, 3), (2,)))
    assert validate_witness(SCHUR, w)


def test_not_satisfied():
    assert column_condition(Matrix([[1, 1, -3]])) is None
    assert column_condition_naive(Matrix([[1, 1, -3]])) is None


def test_vdw_matrix_witness():
    for m in (3, 4):
        V = van_der_waerden_matrix(m)
        w = column_condition(V)
        assert w is not None
        assert validate_witness(V, w)
    w3 = column_condition(van_der_waerden_matrix(3))
    assert w3.blocks == ((1, 3, 4, 5), (2,))


def test_example_matrix_single_block():
    B = Matrix([[1, 2, -3], [2, -1, -1]])
    w = column_condition(B)
    assert w.blocks == ((1, 2, 3),)
    assert validate_witness(B, w)


def test_zero_row_sums_always_satisfied():
    rng = random.Random(3)
    for _ in range(50):
        m, n = rng.randint(1, 3), rng.randint(2, 5)
        rows = []
        for _ in range(m):
            r = [rng.randint(-3, 3) for _ in range(n - 1)]
            r.append(-sum(r))
            rows.append(r)
        A = Matrix(rows)
        w = column_condition(A)
        assert w is not None
        assert validate_witness(A, w)
        # the single-block partition is itself a valid witness
        assert validate_witness(A, ColumnPartitionWitness((tuple(range(1, n + 1)),)))


def test_naive_examples():
    assert column_condition_naive(Matrix([[1, 1, -1]])) is not None
    w = column_condition_naive(Matrix([[2, -2]]))
    assert w.blocks == ((1, 2),)
    assert column_condition_naive(Matrix([[1, 2]])) is None


def test_naive_size_guard():
    with pytest.raises(ValueError):
        column_condition_naive(Matrix([[1] * 9]))


def test_deciders_agree_1x3_exhaustive():
    for entries in product(range(-3, 4), repeat=3):
        A = Matrix([entries])
        w1 = column_condition(A)
        w2 = column_condition_naive(A)
        assert (w1 is None) == (w2 is None), entries
        if w1 is not None:
            assert validate_witness(A, w1)
            assert validate_witness(A, w2)


def test_deciders_agree_random_2xn():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(2, 5)
        A = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)])
        assert (column_condition(A) is None) == (column_condition_naive(A) is None)


def _ascending_scan(vecs):
    """The first nonempty zero-sum subset by a scan of all masks in
    ascending order, with one running sum: the oracle for _first_zero_sum."""
    prefix = [0] * len(vecs[0])
    steps = []
    for v in vecs:
        steps.append([a - b for a, b in zip(v, prefix)])
        prefix = [a + b for a, b in zip(prefix, v)]
    s = [0] * len(prefix)
    for mask in range(1, 1 << len(vecs)):
        s = list(map(add, s, steps[(mask & -mask).bit_length() - 1]))
        if not any(s):
            return mask
    return 0


def test_first_zero_sum_returns_the_mask_of_the_ascending_scan():
    rng = random.Random(29)
    found = 0
    for _ in range(3000):
        dim = rng.randint(1, 3)
        vecs = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(1, 9))]
        want = _ascending_scan(vecs)
        assert _first_zero_sum(vecs) == want, vecs
        found += want != 0
    assert 0 < found < 3000  # both outcomes occur


def test_first_zero_sum_modulo_q_returns_the_first_mask_of_a_brute_force_scan():
    rng = random.Random(31)
    found = 0
    for _ in range(3000):
        q = rng.randint(1, 12)
        dim = rng.randint(1, 2)
        vecs = [tuple(rng.randint(-30, 30) for _ in range(dim)) for _ in range(rng.randint(1, 9))]
        sums = (
            [sum(v[i] for j, v in enumerate(vecs) if mask >> j & 1) for i in range(dim)]
            for mask in range(1, 1 << len(vecs))
        )
        want = next((mask for mask, s in enumerate(sums, 1) if all(x % q == 0 for x in s)), 0)
        assert _first_zero_sum(vecs, q) == want, (vecs, q)
        found += want != 0
    assert 0 < found < 3000  # both outcomes occur


def test_stacked_combinations_of_its_rows_keep_the_witness():
    # more rows than columns are decided on a basis of the row space, which
    # has the kernel of the matrix, so the answer and witness stay those of A
    rng = random.Random(37)
    found = 0
    for _ in range(300):
        n = rng.randint(2, 6)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        combos = [[rng.randint(-3, 3) for _ in rows] for _ in range(n + 1)]
        extra = [[sum(k * row[j] for k, row in zip(ks, rows)) for j in range(n)] for ks in combos]
        A = Matrix(rows)
        w = column_condition(A)
        assert column_condition(Matrix(rows + extra)) == w, rows
        assert column_condition(Matrix(extra + rows)) == w, rows
        found += w is not None
    assert 0 < found < 300  # both outcomes occur
    assert column_condition(Matrix([[0, 0, 0]] * 4)) == ColumnPartitionWitness(((1, 2, 3),))


def test_column_guard():
    with pytest.raises(ValueError):
        column_condition(Matrix([[1] * (MAX_COLS + 1)]))


def test_planted_2x16_without_witness_is_fast():
    # pairs (c,0),(-c,0), a filler column (c,0) and a last column (0,c) that
    # no other column can cancel, in shuffled order
    rng = random.Random(11)
    cols = []
    for _ in range(7):
        c = rng.randint(1, 3)
        cols += [(c, 0), (-c, 0)]
    cols += [(rng.randint(1, 3), 0), (0, rng.randint(1, 3))]
    rng.shuffle(cols)
    A = Matrix([[c[0] for c in cols], [c[1] for c in cols]])
    assert A.n == 16
    t0 = time.perf_counter()
    assert column_condition(A) is None
    assert time.perf_counter() - t0 < 1.0


def test_rational_entries_accepted():
    A = Matrix.from_text("1/2 1/2 -1")
    w = column_condition(A)
    assert w is not None
    assert validate_witness(A, w)


def test_column_permutation_invariance():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(2, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)]
        A = Matrix(rows)
        perm = list(range(n))
        rng.shuffle(perm)
        B = Matrix([[row[j] for j in perm] for row in rows])
        assert (column_condition(A) is None) == (column_condition(B) is None)
        assert (column_condition_naive(A) is None) == (column_condition_naive(B) is None)


def test_witness_validator_rejects_garbage():
    A = SCHUR
    assert not validate_witness(A, ColumnPartitionWitness(((1, 2), (3,))))  # I1 not zero-sum
    assert not validate_witness(A, ColumnPartitionWitness(((1, 3),)))  # not covering
    assert not validate_witness(A, ColumnPartitionWitness(((1, 3), (2, 3))))  # overlap


def test_witness_validator_rejects_a_bad_block_and_a_block_outside_the_span():
    # each partition is valid in every other respect
    assert validate_witness(SCHUR, ColumnPartitionWitness(((1, 3), (2,))))
    assert not validate_witness(SCHUR, ColumnPartitionWitness(((1, 3), (), (2,))))  # empty block
    assert not validate_witness(SCHUR, ColumnPartitionWitness(((1, 3), (2, 4))))  # column 4 of 3
    assert not validate_witness(SCHUR, ColumnPartitionWitness(((1, 3), (0, 2))))  # column 0
    # columns (1, 0), (-1, 0), (0, 1): the first block sums to 0, but the
    # third column is outside the span of the first two
    A = Matrix([[1, -1, 0], [0, 0, 1]])
    assert not validate_witness(A, ColumnPartitionWitness(((1, 2), (3,))))


def test_expand_matrix_examples():
    B = Matrix([[1, 2, -3], [2, -1, -1]])
    assert expand_matrix(B) == Matrix([[1, 2, -3, 0], [2, -1, 0, -1]])
    assert expand_matrix(Matrix([[1, 1, -1]])) == Matrix([[1, 1, -1]])
    assert expand_matrix(Matrix([[1, 0], [0, 1]])) == Matrix([[1, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        expand_matrix(Matrix([[1], [2]]))


def test_expand_matrix_refuses_an_expansion_with_too_many_entries(monkeypatch):
    # E(A) of an m x n matrix has m * (n - 1 + m) entries: 10,000 rows of
    # "1 1" would print 100,010,000
    with pytest.raises(ValueError, match="too many entries of E.A. for a 10000x2 matrix: 100,010,000, above"):
        expand_matrix(Matrix([[1, 1]] * 10000))
    monkeypatch.setattr(exactq, "MATRIX_LIMIT", 6)
    assert expand_matrix(Matrix([[1, 2], [3, 4]])) == Matrix([[1, 2, 0], [3, 0, 4]])
    with pytest.raises(ValueError, match="2x3 matrix: 8, above the limit of 6"):
        expand_matrix(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_expand_matrix_prescribed_positions():
    rng = random.Random(5)
    for _ in range(50):
        m, n = rng.randint(1, 4), rng.randint(2, 5)
        A = Matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
        E = expand_matrix(A)
        assert (E.m, E.n) == (m, n - 1 + m)
        for i in range(m):
            assert E.rows[i][: n - 1] == A.rows[i][: n - 1]
            for k in range(m):
                expected = A.rows[i][n - 1] if k == i else 0
                assert E.rows[i][n - 1 + k] == expected


def test_constant_solution():
    assert constant_solution(Matrix([[1, 1, -1]]), (5,)) == 5
    assert constant_solution(Matrix([[1, -1]]), (3,)) is None
    assert constant_solution(Matrix([[1, 1], [2, 2]]), (2, 4)) == 1
    assert constant_solution(Matrix([[1, -1]]), (0,)) == 0
    assert constant_solution(Matrix([[1, 1], [2, 2]]), (2, 5)) is None
    with pytest.raises(ValueError):
        constant_solution(Matrix([[1, 1]]), (1, 2))
