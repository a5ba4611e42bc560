"""Finite colorings of [1..N], finite-sums/products structures, and the
finite witness searches built on them."""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from itertools import product as _iproduct
from math import gcd, prod
from operator import add, mul

from .radomat import MAX_COLS, subset_sums

MAX_SEQ = 20
MAX_SELECTORS = 10**6


class ColoringTooShort(ValueError):
    """A structure element fell outside [1..N]; the verdict is 'range too
    small', which is distinct from a color mismatch."""


@dataclass(frozen=True)
class Coloring:
    """Colors 0..r-1 assigned to the integers 1..N."""

    N: int
    r: int
    colors: tuple

    def __post_init__(self):
        if self.N < 1 or self.r < 1:
            raise ValueError("N and r must be positive")
        if len(self.colors) != self.N:
            raise ValueError("color array length must be N")
        if any(c < 0 or c >= self.r for c in self.colors):
            raise ValueError("color out of range")

    def color_of(self, k: int) -> int:
        if k < 1 or k > self.N:
            raise ColoringTooShort(f"{k} outside [1..{self.N}]")
        return self.colors[k - 1]

    def to_text(self) -> str:
        return f"{self.N} {self.r}\n" + " ".join(str(c) for c in self.colors) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Coloring":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) < 2:
            raise ValueError("coloring file needs a header line and a color line")
        n_str, r_str = lines[0].split()
        colors = tuple(int(t) for t in " ".join(lines[1:]).split())
        return cls(N=int(n_str), r=int(r_str), colors=colors)


def all_one_coloring(N: int) -> Coloring:
    return Coloring(N=N, r=1, colors=(0,) * N)


def parity_coloring(N: int) -> Coloring:
    return Coloring(N=N, r=2, colors=tuple(k % 2 for k in range(1, N + 1)))


def random_coloring(N: int, r: int, seed: int) -> Coloring:
    rng = _random.Random(seed)
    return Coloring(N=N, r=r, colors=tuple(rng.randrange(r) for _ in range(N)))


# ---------------------------------------------------------------------------
# FS / FP structures


def _closure(seq, op) -> set:
    """op folded over the entries of every nonempty index subset."""
    seq = list(seq)
    _check_seq(seq)
    out = set()
    for x in seq:
        out |= {op(s, x) for s in out}
        out.add(x)
    return out


def fs(seq) -> set:
    """All finite sums over nonempty index subsets of the sequence."""
    return _closure(seq, add)


def fp(seq) -> set:
    """All finite products over nonempty index subsets of the sequence."""
    return _closure(seq, mul)


def _check_seq(seq):
    if not seq:
        raise ValueError("empty sequence")
    if len(seq) > MAX_SEQ:
        raise ValueError(f"sequence longer than {MAX_SEQ}")
    if any(x < 1 for x in seq):
        raise ValueError("entries must be positive")


def _union(sets, op) -> set:
    """Union of the op-closure over every selector tuple (one element per
    set)."""
    sets = [sorted(s) for s in sets]
    if not sets or any(not s for s in sets):
        raise ValueError("need nonempty sets")
    total = 1
    for s in sets:
        total *= len(s)
        if total > MAX_SELECTORS:
            raise ValueError("too many selector tuples")
    out = set()
    for tup in _iproduct(*sets):
        out |= _closure(tup, op)
    return out


def fs_sets(sets) -> set:
    """Union of FS over every selector tuple (one element per set)."""
    return _union(sets, add)


def fp_sets(sets) -> set:
    """Union of FP over every selector tuple (one element per set)."""
    return _union(sets, mul)


def mixed_structure(a_seq, b_seq) -> set:
    """Union over m = 1..N of the elementwise products
    FS(a_1..a_m) * FP(b_m..b_N)."""
    a_seq, b_seq = list(a_seq), list(b_seq)
    if len(a_seq) != len(b_seq):
        raise ValueError("sequences must have equal length")
    _check_seq(a_seq)
    _check_seq(b_seq)
    return _mixed(a_seq, b_seq)


def _mixed(a_seq, b_seq) -> set:
    """Union over m = 1..k of FS(a_1..a_m) * FP(b_m..b_k), k = len(b_seq) <=
    len(a_seq): the mixed products that the first k terms of b fix."""
    out = set()
    for m in range(1, len(b_seq) + 1):
        right = fp(b_seq[m - 1 :])
        out |= {f * g for f in fs(a_seq[:m]) for g in right}
    return out


@dataclass(frozen=True)
class FSFPWitness:
    a_seq: tuple
    b_seq: tuple
    color: int


def witness_structure(w: FSFPWitness) -> set:
    return fs(w.a_seq) | fp(w.b_seq) | mixed_structure(w.a_seq, w.b_seq)


def verify_fsfp(w: FSFPWitness, c: Coloring) -> bool:
    """True iff FS(a), FP(b), and the mixed products all carry w.color.
    Raises ColoringTooShort when any element exceeds the coloring range."""
    elems = witness_structure(w)
    too_big = [e for e in elems if e > c.N]
    if too_big:
        raise ColoringTooShort(f"elements {sorted(too_big)[:5]} outside [1..{c.N}]")
    return all(c.color_of(e) == w.color for e in elems)


def search_fsfp(c: Coloring, depth: int):
    """Depth-first search for a-/b-sequences of the target length whose full
    structure is monochromatic inside [1..N].  Returns the first witness in
    lexicographic order (a_1, ..., a_depth, b_1, ..., b_depth), or None.

    The search extends the prefix a_1..a_j with a_j <= N - sum(a_1..a_j-1),
    then b_1..b_k with b_k <= N // (a_1 * b_1 * ... * b_k-1), in ascending
    order.  A prefix is dropped as soon as the part of the structure it fixes
    leaves [1..N] or the color of a_1: FS(a_1..a_j) while b is empty, then
    FP(b_1..b_k) and FS(a_1..a_m) * FP(b_m..b_k) for m <= k.  That part lies
    inside the structure of every witness extending the prefix, so no
    dropped prefix extends to a witness, and the first witness is the one a
    check of every candidate in order would find.

    Absence means only that no witness fits inside [1..N]; the result says
    nothing about larger ranges.
    """
    if depth < 1 or depth > 4:
        raise ValueError("depth must be in 1..4")
    N, colors = c.N, c.colors
    a_seq, b_seq = [], []

    def dfs():
        if len(b_seq) == depth:
            return FSFPWitness(a_seq=tuple(a_seq), b_seq=tuple(b_seq), color=colors[a_seq[0] - 1])
        if len(a_seq) < depth:
            seq, hi = a_seq, N - sum(a_seq)
        else:
            seq, hi = b_seq, N // (a_seq[0] * prod(b_seq))
        for x in range(1, hi + 1):
            seq.append(x)
            color = colors[a_seq[0] - 1]
            part = fp(b_seq) | _mixed(a_seq, b_seq) if b_seq else fs(a_seq)
            if all(e <= N and colors[e - 1] == color for e in part):
                w = dfs()
                if w is not None:
                    return w
            seq.pop()
        return None

    return dfs()


# ---------------------------------------------------------------------------
# polynomial van der Waerden witness search


def poly_vdw_witness(c: Coloring, polys):
    """Find a, d >= 1 with {a} union {a + P(d)} monochromatic inside [1..N].
    Search order: increasing a + d, then increasing a.  Returns
    (a, d, color) or None.  An empty list is refused: it would make every
    {a} a witness."""
    polys = list(polys)
    if not polys:
        raise ValueError("need at least one polynomial")
    N = c.N
    for s in range(2, 2 * N + 1):
        for a in range(max(1, s - N), min(N, s - 1) + 1):
            d = s - a
            color = c.colors[a - 1]
            ok = True
            for p in polys:
                v = a + p.eval(d)  # an int exactly when a + P(d) is integral
                if not isinstance(v, int) or v < 1 or v > N or c.colors[v - 1] != color:
                    ok = False
                    break
            if ok:
                return (a, d, color)
    return None


# ---------------------------------------------------------------------------
# the base-p avoider coloring


class RadoAvoider:
    """The classical falsification device for a single non-regular equation:
    color n by its least significant nonzero digit in base p (r = p - 1
    colors).  Admissible only when every nonempty subset sum s of the
    coefficients has gcd(s, p) = 1: in a monochromatic solution with digit d,
    the terms of least p-adic valuation give d * s = 0 mod p for their
    coefficient sum s, which a unit s rules out.  For prime p this is
    s != 0 mod p."""

    def __init__(self, coeffs, p: int):
        coeffs = list(coeffs)
        for c in coeffs:
            if type(c) is not int:  # refuses bool too
                raise ValueError(f"coefficient {c!r} is not an integer")
        if not coeffs or 0 in coeffs:
            raise ValueError("coefficients must be nonzero")
        if len(coeffs) > MAX_COLS:
            raise ValueError(f"too many coefficients ({len(coeffs)} > {MAX_COLS})")
        if p < 2:
            raise ValueError("p must be at least 2")
        for mask, (s,) in subset_sums([(c,) for c in coeffs]):
            if mask and gcd(s, p) != 1:
                bad = [c for i, c in enumerate(coeffs) if mask >> i & 1]
                raise ValueError(
                    f"subset {bad} of coefficients has a sum sharing a factor with {p}; "
                    "the avoider construction does not apply"
                )
        self.p = p
        self.r = p - 1

    def color_of(self, n: int) -> int:
        if n < 1:
            raise ValueError("n must be positive")
        p = self.p
        while n % p == 0:
            n //= p
        return n % p - 1

    def coloring(self, N: int) -> Coloring:
        return Coloring(N=N, r=self.r, colors=tuple(self.color_of(k) for k in range(1, N + 1)))


def rado_avoider_coloring(coeffs, p: int) -> RadoAvoider:
    """Validate the precondition and hand back a lazily evaluable coloring
    generator."""
    return RadoAvoider(coeffs, p)
