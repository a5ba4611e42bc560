"""Finite colorings of [1..N], finite-sums/products structures, and the
finite witness searches built on them."""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from math import isqrt, prod
from operator import add, mul

from .radomat import MAX_COLS, _first_zero_sum

MAX_SEQ = 20
MAX_TRIAL = 10**6  # the avoider's check refuses p when min(sqrt(p), sum |c_i|) is larger


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


def _step(out, x, op) -> set:
    """What appending x adds to an op-closure out: {x} and op(s, x) for s
    in out."""
    new = {op(s, x) for s in out}
    new.add(x)
    return new


def _closure(seq, op) -> set:
    """op folded over the entries of every nonempty index subset."""
    seq = list(seq)
    _check_seq(seq)
    out = set()
    for x in seq:
        out |= _step(out, x, op)
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


def mixed_structure(a_seq, b_seq) -> set:
    """Union over m = 1..n of the elementwise products
    FS(a_1..a_m) * FP(b_m..b_n), n the common length of the sequences."""
    a_seq, b_seq = list(a_seq), list(b_seq)
    if len(a_seq) != len(b_seq):
        raise ValueError("sequences must have equal length")
    _check_seq(a_seq)
    _check_seq(b_seq)
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
    FP(b_1..b_k) and FS(a_1..a_m) * FP(b_m..b_k) for m <= k.  A candidate is
    checked only on the elements it adds to that part: its _step of
    FS(a_1..a_j); in the b phase, its _step of each kept suffix FP(b_m..b_k)
    and of the empty one, and FS(a_1..a_m) times each of those.  The rest was
    checked at an ancestor, in the same color.  The part lies inside the
    structure of every witness extending the prefix, so the first witness is
    the one a check of every candidate in order would find.

    Absence means only that no witness fits inside [1..N]; the result says
    nothing about larger ranges.
    """
    if depth < 1 or depth > 4:
        raise ValueError("depth must be in 1..4")
    N, colors = c.N, c.colors

    def fits(elems, color):
        return all(e <= N and colors[e - 1] == color for e in elems)

    def dfs(a, sums, b, sufs):
        # sums[m - 1] = FS(a_1..a_m), sufs[m - 1] = FP(b_m..b_k)
        if len(b) == depth:
            return FSFPWitness(a_seq=a, b_seq=b, color=colors[a[0] - 1])
        if len(a) < depth:
            last = sums[-1] if sums else set()
            for x in range(1, N - sum(a) + 1):
                new = _step(last, x, add)
                if not a or fits(new, colors[a[0] - 1]):
                    w = dfs(a + (x,), sums + [last | new], b, sufs)
                    if w is not None:
                        return w
            return None
        color, grown = colors[a[0] - 1], sufs + [set()]
        for y in range(1, N // (a[0] * prod(b)) + 1):
            new = [_step(q, y, mul) for q in grown]
            if fits(new[0], color) and all(fits({f * g for f in f_m for g in n}, color) for f_m, n in zip(sums, new)):
                w = dfs(a, sums, b + (y,), [q | n for q, n in zip(grown, new)])
                if w is not None:
                    return w
        return None

    return dfs((), [], (), [])


# ---------------------------------------------------------------------------
# polynomial van der Waerden witness search


def poly_vdw_witness(c: Coloring, polys):
    """Find a, d >= 1 with {a} union {a + P(d)} monochromatic inside [1..N].
    Search order: increasing a + d, then increasing a.  Returns
    (a, d, color) or None.  A list that is empty or holds only zero
    polynomials is refused: it would make every {a} a witness."""
    polys = list(polys)
    if not polys:
        raise ValueError("need at least one polynomial")
    if all(p.is_zero() for p in polys):
        raise ValueError("every polynomial is zero, so every {a} would be a witness")
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


def _prime_factors_upto(p: int, bound: int) -> list:
    """The primes q <= bound that divide p, by trial division up to
    min(sqrt(p), bound)."""
    out, q = [], 2
    while q <= bound and q * q <= p:
        if p % q == 0:
            out.append(q)
            while p % q == 0:
                p //= q
        q += 1
    return out + [p] if 1 < p <= bound else out  # a leftover p <= bound is prime


class RadoAvoider:
    """The classical falsification device for a single non-regular equation:
    color n by its least significant nonzero digit in base p (r = p - 1
    colors).  Admissible only when every nonempty subset sum s of the
    coefficients has gcd(s, p) = 1: in a monochromatic solution with digit d,
    the terms of least p-adic valuation give d * s = 0 mod p for their
    coefficient sum s, which a unit s rules out.  For prime p this is
    s != 0 mod p.

    gcd(s, p) != 1 exactly when s = 0 or a prime q of p divides s, and a prime
    q > sum |c_i| divides s only when s = 0: the check asks _first_zero_sum
    with no modulus and modulo each prime q <= sum |c_i| of p."""

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
        total = sum(map(abs, coeffs))
        if min(total, isqrt(p)) > MAX_TRIAL:
            raise ValueError(f"sqrt({p}) and the sum of |coefficients| both exceed the trial bound {MAX_TRIAL}")
        masks = (_first_zero_sum([(c,) for c in coeffs], q) for q in [0, *_prime_factors_upto(p, total)])
        mask = min(filter(None, masks), default=0)
        if mask:
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
