"""Rado-specific matrix procedures: the column condition decider, the
expanded matrix, and the constant-solution criterion."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, neg

from .exactq import Matrix, Vector, check_size, insert, integral, is_zero_vector, norm_scalar, reduce, span_member

# The bound on every subset search (_first_zero_sum, by meet in the middle):
# the column condition, the label of equation(...) and the avoider's check.
# Their worst case, 24 columns or coefficients, takes a few ms per search.
MAX_COLS = 24


@dataclass(frozen=True)
class ColumnPartitionWitness:
    """Ordered partition (I_1, ..., I_v) of the column indices, 1-based."""

    blocks: tuple

    def to_json(self) -> dict:
        return {"blocks": [list(b) for b in self.blocks]}


def _sums(vecs: list, dim: int, q: int = 0) -> list:
    """The sums of every subset of the `dim`-long vectors `vecs`, indexed by
    mask, as tuples reduced modulo q when q > 0: each vector doubles the list
    by adding itself to every earlier entry, so entry mask sums mask."""
    sums = [(0,) * dim]
    for v in vecs:
        sums += [tuple(map(add, s, v)) for s in sums]
    return [tuple(x % q for x in s) for s in sums] if q else sums


def _first_zero_sum(vecs: list, q: int = 0) -> int:
    """Mask of the first nonempty subset of `vecs`, in ascending-mask order,
    whose sum is zero, or zero modulo q when q > 0; 0 when there is none.
    The one search over subsets: the column condition, the equation(...)
    label and the avoider's check all ask it.

    Meet in the middle: masks order by their high half h first, so a zero
    low subset comes first of all, and after it the least nonempty h whose
    sum some low subset cancels, with the least such low subset."""
    k, dim = (len(vecs) + 1) // 2, len(vecs[0])
    least = {}  # each sum of a low subset -> its least mask
    for mask, s in enumerate(_sums(vecs[:k], dim, q)):
        if mask and not any(s):
            return mask
        least.setdefault(s, mask)
    for mask, s in enumerate(_sums([tuple(map(neg, v)) for v in vecs[k:]], dim, q)):
        if mask and s in least:
            return mask << k | least[s]
    return 0


def column_condition(A: Matrix):
    """Decide the column condition; return a witness partition or None.

    Greedy closure.  Let U be the union of the blocks taken so far, at first
    empty.  The next block is every remaining column that lies in span(U),
    if there is one; otherwise it is the first nonempty subset of the
    remaining columns, in ascending-mask order, whose sum lies in span(U).
    If there is no such subset, the condition fails.

    Greedy never has to backtrack.  Let I_1, ..., I_v be any witness and let
    I_k be the first of its blocks that is not inside U.  Then J = I_k \\ U
    is a nonempty set of remaining columns, and
    sum(J) = sum(I_k) - sum(I_k & U).  The first term lies in
    span(I_1 u ... u I_{k-1}), which is inside span(U), and the second term
    lies in span(U).  So whenever a witness exists, every stage finds a next
    block; each stage uses at least one column, so at most n stages run.

    Cost: at each stage, one reduction of every remaining column modulo
    span(U), plus, when no column lies in span(U), about 2 * 2^(k/2) subset
    sums of the k remaining reduced columns.  The worst case stays
    exponential: for m = 1 the question is zero subset sum.  A with more
    rows than columns is first reduced to a basis of its row space, which
    has the same kernel and so the same answer and witness.
    """
    n = A.n
    if n > MAX_COLS:
        raise ValueError(f"too many columns ({n} > {MAX_COLS})")
    # rows scaled to integers, for the integer basis of span(U)
    rows = list(map(integral, A.rows))
    if len(rows) > n:
        row_basis = []
        for row in rows:
            insert(row, row_basis)
        # a zero A keeps one zero row
        rows = [row for _, row in row_basis] or rows[:1]
    cols = list(zip(*rows))
    basis = []  # reduced row echelon basis of span(U)
    rest = list(range(n))
    blocks = []
    while rest:
        # reduce is linear, so a subset sum lies in span(U) iff the sum of
        # the reduced columns is zero
        reduced = [reduce(cols[j], basis) for j in rest]
        block = [j for j, v in zip(rest, reduced) if is_zero_vector(v)]
        if not block:
            mask = _first_zero_sum(reduced)
            if not mask:
                return None
            block = [j for k, j in enumerate(rest) if mask >> k & 1]
        for j in block:
            insert(cols[j], basis)
        rest = [j for j in rest if j not in block]
        blocks.append(tuple(j + 1 for j in block))
    return ColumnPartitionWitness(tuple(blocks))


@lru_cache(maxsize=None)
def _ordered_partitions(n: int) -> tuple:
    """All ordered set partitions of the columns 0..n-1 into nonempty blocks,
    as tuples of bit masks; each first block is tried from the largest mask
    down.  Cached per n, since the oracle visits the same partitions for
    every n-column matrix; n = 8 has 545,835 of them, about 50 MB."""

    def partitions(remaining):
        if remaining == 0:
            yield ()
            return
        masks = []
        u = remaining
        while u:
            masks.append(u)
            u = (u - 1) & remaining
        for first in reversed(masks):
            for rest in partitions(remaining ^ first):
                yield (first,) + rest

    return tuple(partitions((1 << n) - 1))


def column_condition_naive(A: Matrix):
    """Exhaustive oracle: enumerate ordered set partitions of the column
    indices and check the definition literally.  Guarded to n <= 8.  The
    sum of each block and each span test are computed once per matrix."""
    n = A.n
    if n > 8:
        raise ValueError(f"naive decider limited to n <= 8, got {n}")
    cols = A.cols()
    sums = [None] * (1 << n)  # sums[mask]: sum of the columns in mask
    for mask in range(1, 1 << n):
        low = mask & -mask
        col = cols[low.bit_length() - 1]
        rest = sums[mask ^ low]
        sums[mask] = col if rest is None else tuple(a + b for a, b in zip(rest, col))
    is_zero = [s is not None and is_zero_vector(s) for s in sums]
    spans = {}

    def in_span(earlier, blk):
        key = (earlier, blk)
        if key not in spans:
            basis = [cols[i] for i in range(n) if earlier >> i & 1]
            spans[key] = span_member(basis, sums[blk])
        return spans[key]

    for partition in _ordered_partitions(n):
        earlier = partition[0]
        if not is_zero[earlier]:
            continue
        for blk in partition[1:]:
            if not in_span(earlier, blk):
                break
            earlier |= blk
        else:
            blocks = tuple(
                tuple(i + 1 for i in range(n) if blk >> i & 1) for blk in partition
            )
            return ColumnPartitionWitness(blocks)
    return None


def validate_witness(A: Matrix, w: ColumnPartitionWitness) -> bool:
    """Re-verify both conditions of the definition, independently of either
    decider's internals."""
    n = A.n
    seen = set()
    for blk in w.blocks:
        if not blk or any(j < 1 or j > n for j in blk):
            return False
        if seen & set(blk):
            return False
        seen |= set(blk)
    if seen != set(range(1, n + 1)):
        return False
    cols = A.cols()

    def bsum(blk):
        s = cols[blk[0] - 1]
        for j in blk[1:]:
            s = tuple(a + b for a, b in zip(s, cols[j - 1]))
        return s

    if not is_zero_vector(bsum(w.blocks[0])):
        return False
    earlier = list(w.blocks[0])
    for blk in w.blocks[1:]:
        basis = [cols[j - 1] for j in earlier]
        if not span_member(basis, bsum(blk)):
            return False
        earlier.extend(blk)
    return True


def expand_matrix(A: Matrix) -> Matrix:
    """E(A): keep columns 1..n-1, split the last column into a diagonal block
    of per-row entries a_{i,n}.  An E(A) too large to print is refused
    (`check_size`)."""
    if A.n < 2:
        raise ValueError("expansion needs n >= 2")
    m, n = A.m, A.n
    check_size(m * (n - 1 + m), "entries of E(A)", m, n)
    rows = []
    for i in range(m):
        row = list(A.rows[i][: n - 1]) + [0] * m
        row[n - 1 + i] = A.rows[i][n - 1]
        rows.append(row)
    return Matrix(rows)


def constant_solution(A: Matrix, b: Vector):
    """d in Q with A (d,...,d)^T = b, or None.  With all row sums zero the
    answer exists iff b = 0 (d = 0 is returned then)."""
    if len(b) != A.m:
        raise ValueError("rhs length must match row count")
    sums = A.row_sums()
    d = None
    for s, t in zip(sums, b):
        if s == 0:
            if t != 0:
                return None
        else:
            cand = norm_scalar(Fraction(t) / Fraction(s))
            if d is None:
                d = cand
            elif d != cand:
                return None
    return 0 if d is None else d

