"""Tests for colorings, FS/FP structures, witness search, and the base-p
avoider coloring."""

import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest

from radolab.colorings import (
    MAX_TRIAL,
    Coloring,
    ColoringTooShort,
    FSFPWitness,
    RadoAvoider,
    all_one_coloring,
    fp,
    fs,
    mixed_structure,
    parity_coloring,
    poly_vdw_witness,
    rado_avoider_coloring,
    random_coloring,
    search_fsfp,
    verify_fsfp,
    witness_structure,
)
from radolab.polyring import poly_parse
from radolab.radomat import MAX_COLS


# ---------------------------------------------------------------------------
# Coloring basics


def test_coloring_basics():
    c = Coloring(N=4, r=2, colors=(0, 1, 0, 1))
    assert c.color_of(1) == 0
    assert c.color_of(4) == 1


def test_coloring_invariants():
    with pytest.raises(ValueError):
        Coloring(N=3, r=2, colors=(0, 1))
    with pytest.raises(ValueError):
        Coloring(N=2, r=2, colors=(0, 2))


def test_coloring_out_of_range():
    c = all_one_coloring(5)
    with pytest.raises(ColoringTooShort):
        c.color_of(6)
    with pytest.raises(ColoringTooShort):
        c.color_of(0)


def test_coloring_file_round_trip():
    c = random_coloring(10, 3, seed=5)
    back = Coloring.from_text(c.to_text())
    assert back == c
    assert c.to_text().splitlines()[0] == "10 3"


def test_random_coloring_deterministic():
    assert random_coloring(50, 4, seed=9) == random_coloring(50, 4, seed=9)


def test_parity_coloring():
    c = parity_coloring(6)
    assert [c.color_of(k) for k in range(1, 7)] == [1, 0, 1, 0, 1, 0]


# ---------------------------------------------------------------------------
# FS / FP


def _fs_recursive(seq):
    """Independent recursive finite-sums enumeration."""
    if len(seq) == 1:
        return {seq[0]}
    rest = _fs_recursive(seq[1:])
    return {seq[0]} | rest | {seq[0] + x for x in rest}


def _fp_recursive(seq):
    if len(seq) == 1:
        return {seq[0]}
    rest = _fp_recursive(seq[1:])
    return {seq[0]} | rest | {seq[0] * x for x in rest}


def test_fs_examples():
    assert fs((1, 2)) == {1, 2, 3}
    assert fs((1, 1)) == {1, 2}
    assert fs((1, 2, 4)) == set(range(1, 8))


def test_fp_examples():
    assert fp((2, 3)) == {2, 3, 6}
    assert fp((1, 1, 1)) == {1}
    assert fp((2, 3, 5)) == {2, 3, 5, 6, 10, 15, 30}


def test_fs_fp_against_recursive_oracle():
    rng = random.Random(77)
    for _ in range(200):
        seq = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 5)))
        assert fs(seq) == _fs_recursive(seq)
        assert fp(seq) == _fp_recursive(seq)


def test_fs_guards():
    with pytest.raises(ValueError):
        fs(())
    with pytest.raises(ValueError):
        fs(tuple(range(1, 22)))


def test_mixed_structure_examples():
    assert mixed_structure((1, 2), (2, 3)) == {2, 3, 6, 9}
    assert mixed_structure((1,), (5,)) == {5}
    assert mixed_structure((1, 1), (1, 1)) == {1, 2}


def test_mixed_structure_contains_last_term_products():
    rng = random.Random(79)
    for _ in range(50):
        k = rng.randint(1, 4)
        a = tuple(rng.randint(1, 5) for _ in range(k))
        b = tuple(rng.randint(1, 5) for _ in range(k))
        got = mixed_structure(a, b)
        assert {s * b[-1] for s in fs(a)} <= got


def test_witness_distributivity_identity():
    # (a1 + a2) * b2 appears in the mixed structure and splits as
    # a1*b2 + a2*b2: the sum-equals-product pattern on witness elements.
    a = (1, 2)
    b = (2, 3)
    got = mixed_structure(a, b)
    assert (a[0] + a[1]) * b[1] in got
    assert (a[0] + a[1]) * b[1] == a[0] * b[1] + a[1] * b[1]


# ---------------------------------------------------------------------------
# witness verification and search


def test_verify_fsfp_monochromatic_universe():
    c = all_one_coloring(20)
    w = FSFPWitness(a_seq=(1, 2), b_seq=(2, 3), color=0)
    assert verify_fsfp(w, c)


def test_verify_fsfp_detects_mixed_element():
    # 9 = (1+2)*3 is in the mixed structure; recolor it.
    colors = [0] * 20
    colors[8] = 1
    c = Coloring(N=20, r=2, colors=tuple(colors))
    w = FSFPWitness(a_seq=(1, 2), b_seq=(2, 3), color=0)
    assert not verify_fsfp(w, c)


def test_verify_fsfp_short_coloring():
    c = all_one_coloring(5)
    w = FSFPWitness(a_seq=(1, 2), b_seq=(2, 3), color=0)
    with pytest.raises(ColoringTooShort):
        verify_fsfp(w, c)


def test_verify_fsfp_length_one_is_mult_schur():
    # {x, y, x*y} monochromatic
    colors = tuple(0 if k + 1 in (2, 3, 6) else 1 for k in range(10))
    c = Coloring(N=10, r=2, colors=colors)
    assert verify_fsfp(FSFPWitness(a_seq=(2,), b_seq=(3,), color=0), c)
    assert not verify_fsfp(FSFPWitness(a_seq=(2,), b_seq=(5,), color=0), c)


def test_verify_fsfp_monotone_under_agreement():
    c = random_coloring(30, 2, seed=11)
    w = search_fsfp(c, 1)
    if w is None:
        pytest.skip("no witness at this scale for this seed")
    extended = Coloring(N=40, r=2, colors=c.colors + tuple([0] * 10))
    assert verify_fsfp(w, extended)


def test_search_fsfp_all_one():
    c = all_one_coloring(100)
    w = search_fsfp(c, 2)
    assert w is not None
    assert verify_fsfp(w, c)


def test_search_fsfp_parity_small():
    # the degenerate witness a=(1), b=(1) has structure {1}, which is
    # monochromatic under any coloring
    c = parity_coloring(4)
    w = search_fsfp(c, 1)
    assert w == FSFPWitness(a_seq=(1,), b_seq=(1,), color=1)
    assert verify_fsfp(w, c)
    # the mult-Schur witness from a hand check is also valid
    assert verify_fsfp(FSFPWitness(a_seq=(2,), b_seq=(2,), color=0), c)


def test_search_fsfp_absent_when_too_small():
    # at depth 2 every candidate structure inside [1..2] contains both
    # 1 and 2, and parity separates them
    c = parity_coloring(2)
    assert search_fsfp(c, 2) is None


def test_search_fsfp_depth_guard():
    with pytest.raises(ValueError):
        search_fsfp(all_one_coloring(10), 5)


def test_search_fsfp_returns_lexicographically_least():
    c = all_one_coloring(50)
    w = search_fsfp(c, 1)
    assert (w.a_seq, w.b_seq) == ((1,), (1,))


def _first_witness_brute_force(c, depth):
    """The first (a, b) in lexicographic order that verify_fsfp accepts.  A
    witness has sum(a) and a_1 * prod(b) in its structure, so sequences with
    either above N are skipped: verify_fsfp would refuse them as too short."""
    N = c.N
    seqs = list(itertools.product(range(1, N + 1), repeat=depth))
    b_seqs = [b for b in seqs if math.prod(b) <= N]
    for a in seqs:
        if sum(a) > N:
            continue
        for b in b_seqs:
            if a[0] * math.prod(b) > N:
                continue
            w = FSFPWitness(a_seq=a, b_seq=b, color=c.color_of(a[0]))
            try:
                if verify_fsfp(w, c):
                    return w
            except ColoringTooShort:
                pass
    return None


def _one_apart(c):
    """c with 1 given a color of its own, so a witness needs a_1, b_i >= 2."""
    return Coloring(N=c.N, r=c.r + 1, colors=(c.r,) + c.colors[1:])


@pytest.mark.parametrize(
    "c, depth",
    [
        *((random_coloring(N, r, seed), 2) for N, r, seed in [(12, 2, 1), (25, 2, 2), (40, 3, 4), (30, 3, 5)]),
        *((_one_apart(random_coloring(40, r, seed)), 2) for r, seed in [(2, 1), (3, 3), (2, 7)]),
        *((random_coloring(N, r, seed), 3) for N, r, seed in [(10, 2, 6), (12, 3, 8)]),
        (parity_coloring(40), 2),
        (parity_coloring(16), 3),
        (rado_avoider_coloring([1, 1, -3], 5).coloring(40), 2),
    ],
)
def test_search_fsfp_is_brute_force_lexicographically_first(c, depth):
    assert search_fsfp(c, depth) == _first_witness_brute_force(c, depth)


def test_search_fsfp_is_brute_force_first_on_every_small_coloring():
    for N, depth in [(6, 1), (6, 2), (6, 3), (6, 4)]:
        for colors in itertools.product(range(2), repeat=N):
            c = Coloring(N=N, r=2, colors=colors)
            assert search_fsfp(c, depth) == _first_witness_brute_force(c, depth)


def _search_fsfp_rebuilding(c, depth):
    """search_fsfp as it was when every candidate rebuilt the whole part of
    the structure its prefix fixes: FS(a_1..a_j) while b is empty, then
    FP(b_1..b_k) and FS(a_1..a_m) * FP(b_m..b_k) for m <= k."""
    N, colors = c.N, c.colors
    a_seq, b_seq = [], []

    def mixed(a_seq, b_seq):
        out = set()
        for m in range(1, len(b_seq) + 1):
            right = fp(b_seq[m - 1 :])
            out |= {f * g for f in fs(a_seq[:m]) for g in right}
        return out

    def dfs():
        if len(b_seq) == depth:
            return FSFPWitness(a_seq=tuple(a_seq), b_seq=tuple(b_seq), color=colors[a_seq[0] - 1])
        if len(a_seq) < depth:
            seq, hi = a_seq, N - sum(a_seq)
        else:
            seq, hi = b_seq, N // (a_seq[0] * math.prod(b_seq))
        for x in range(1, hi + 1):
            seq.append(x)
            color = colors[a_seq[0] - 1]
            part = fp(b_seq) | mixed(a_seq, b_seq) if b_seq else fs(a_seq)
            if all(e <= N and colors[e - 1] == color for e in part):
                w = dfs()
                if w is not None:
                    return w
            seq.pop()
        return None

    return dfs()


def test_search_fsfp_matches_the_rebuilding_search():
    rng = random.Random(22)
    found = 0
    for i in range(300):
        c = random_coloring(rng.randint(1, 120), rng.randint(1, 4), seed=rng.randrange(10**6))
        if i % 2:
            c = _one_apart(c)
        depth = rng.randint(1, 4)
        w = search_fsfp(c, depth)
        assert w == _search_fsfp_rebuilding(c, depth), (c, depth)
        if w is not None:
            found += 1
            assert verify_fsfp(w, c)
    assert 0 < found < 300


def test_search_fsfp_parity_depth_3():
    # the a-prefixes starting with the odd 1 all fail at a_2 or a_1 + a_2
    w = search_fsfp(parity_coloring(300), 3)
    assert w == FSFPWitness(a_seq=(2, 2, 2), b_seq=(2, 2, 2), color=0)


def test_witness_structure_matches_pieces():
    w = FSFPWitness(a_seq=(1, 2), b_seq=(2, 3), color=0)
    assert witness_structure(w) == fs((1, 2)) | fp((2, 3)) | mixed_structure(
        (1, 2), (2, 3)
    )


# ---------------------------------------------------------------------------
# polynomial van der Waerden witnesses


def test_poly_vdw_all_two_colorings_of_5():
    # F = {z}: every 2-coloring of [1..5] admits a, d with a and a+d
    # the same color.
    for colors in itertools.product(range(2), repeat=5):
        c = Coloring(N=5, r=2, colors=colors)
        got = poly_vdw_witness(c, [poly_parse("z")])
        assert got is not None
        a, d, color = got
        assert c.color_of(a) == color and c.color_of(a + d) == color


def test_poly_vdw_all_one():
    got = poly_vdw_witness(all_one_coloring(10), [poly_parse("z"), poly_parse("2z")])
    assert got == (1, 1, 0)


def test_poly_vdw_absent_on_tiny_parity():
    assert poly_vdw_witness(parity_coloring(2), [poly_parse("z^2")]) is None


def test_poly_vdw_refuses_an_empty_list():
    with pytest.raises(ValueError, match="at least one polynomial"):
        poly_vdw_witness(all_one_coloring(10), [])


def test_poly_vdw_refuses_a_list_of_zero_polynomials():
    with pytest.raises(ValueError, match="every polynomial is zero"):
        poly_vdw_witness(all_one_coloring(10), [poly_parse("0z"), poly_parse("0z^2")])
    # a zero polynomial next to a nonzero one adds only a itself
    assert poly_vdw_witness(all_one_coloring(10), [poly_parse("0z"), poly_parse("z")]) == (1, 1, 0)


def _poly_vdw_oracle(c, coeff_lists):
    """The first (a, d, color) by increasing a + d, then a, with every
    a + P(d) an integer in [1..N] of a's color; each P given as
    {degree: coefficient} and evaluated here in Fractions."""
    N = c.N
    for s in range(2, 2 * N + 1):
        for a in range(1, s):
            d = s - a
            if a > N or d > N:
                continue
            values = [a + sum(Fraction(k) * d**e for e, k in p.items()) for p in coeff_lists]
            if all(v.denominator == 1 and 1 <= v <= N and c.color_of(int(v)) == c.color_of(a) for v in values):
                return (a, d, c.color_of(a))
    return None


def test_poly_vdw_fractional_coefficients_match_the_oracle():
    # (z^2 + z)/2 is an integer for every d; z/2 only for even d
    cases = [
        ("1/2z^2 + 1/2z", {2: "1/2", 1: "1/2"}),
        ("1/2z", {1: "1/2"}),
    ]
    rng = random.Random(52)
    colorings = [Coloring(N=N, r=2, colors=cs) for N in range(1, 7) for cs in itertools.product(range(2), repeat=N)]
    colorings += [Coloring(N=20, r=3, colors=tuple(rng.randrange(3) for _ in range(20))) for _ in range(20)]
    for texts in ([cases[0]], [cases[1]], cases):
        polys = [poly_parse(t) for t, _ in texts]
        coeffs = [p for _, p in texts]
        found = 0
        for c in colorings:
            got = poly_vdw_witness(c, polys)
            assert got == _poly_vdw_oracle(c, coeffs), (texts, c.colors)
            found += got is not None
        assert 0 < found < len(colorings)


def test_poly_vdw_search_order():
    # increasing a+d, then a: with F={z} on an all-one coloring the first
    # candidate is a=1, d=1.
    assert poly_vdw_witness(all_one_coloring(4), [poly_parse("z")]) == (1, 1, 0)


# ---------------------------------------------------------------------------
# base-p avoider


def test_avoider_accepts_valid_coeffs():
    av = RadoAvoider((1, 1, -3), 5)
    assert av.color_of(7) == 1


def test_avoider_rejects_zero_subset():
    for p in (2, 3, 5, 7):
        with pytest.raises(ValueError):
            RadoAvoider((1, 1, -2), p)


def test_avoider_rejects_subset_sum_sharing_a_factor_with_p():
    # -7 - 7 = -14 is nonzero mod 4 but shares the factor 2 with it, and the
    # base-4 colouring gives 2, 6, 56 one colour although -7*2 - 7*6 + 56 = 0
    with pytest.raises(ValueError):
        rado_avoider_coloring([-7, -7, 1], 4)


def test_avoider_names_the_first_offending_subset():
    # in ascending order of subsets, {1}, {1} and then {1, 1} with sum 2
    with pytest.raises(ValueError, match=r"subset \[1, 1\] of coefficients"):
        RadoAvoider((1, 1, -2), 2)


@pytest.mark.parametrize("bad", [Fraction(3, 2), 1.9, True, "1"])
def test_avoider_refuses_a_coefficient_that_is_not_an_integer(bad):
    with pytest.raises(ValueError, match=f"coefficient {re.escape(repr(bad))} is not an integer"):
        rado_avoider_coloring([bad, 1, -3], 5)


def test_avoider_refuses_more_than_max_cols_coefficients():
    with pytest.raises(ValueError, match="too many coefficients"):
        RadoAvoider([1] * (MAX_COLS + 1), 101)


def test_avoider_refuses_a_zero_coefficient_and_p_below_2():
    with pytest.raises(ValueError, match="coefficients must be nonzero"):
        RadoAvoider((1, 0, -3), 5)
    with pytest.raises(ValueError, match="p must be at least 2"):
        RadoAvoider((1, 1, -3), 1)


def _walk_all_subsets(coeffs, p):
    """The avoider's refusal message by a walk of every subset in ascending
    mask order, with one running sum and a gcd per subset, or None: the
    oracle for the check by residues."""
    prefix, steps = 0, []
    for c in coeffs:
        steps.append(c - prefix)
        prefix += c
    s = 0
    for mask in range(1, 1 << len(coeffs)):
        s += steps[(mask & -mask).bit_length() - 1]
        if math.gcd(s, p) != 1:
            bad = [c for i, c in enumerate(coeffs) if mask >> i & 1]
            return (
                f"subset {bad} of coefficients has a sum sharing a factor with {p}; "
                "the avoider construction does not apply"
            )
    return None


def test_avoider_refuses_with_the_message_of_a_walk_of_all_subsets():
    rng = random.Random(24)
    refused = composite = beyond = 0
    for case in range(5000):
        coeffs = [rng.choice([-1, 1]) * rng.randint(1, 40) for _ in range(rng.randint(1, 10))]
        p = rng.randint(2, 300) if case % 4 else rng.randint(2, 10**12)
        composite += p <= 300 and any(p % q == 0 for q in range(2, math.isqrt(p) + 1))
        beyond += p > sum(map(abs, coeffs))
        want = _walk_all_subsets(coeffs, p)
        try:
            RadoAvoider(coeffs, p)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want, (coeffs, p)
        refused += want is not None
    assert 500 < refused < 4500 and composite > 1000 and beyond > 1000


def test_avoider_check_is_fast_on_24_coefficients_and_a_30_digit_prime():
    start = time.perf_counter()
    RadoAvoider([1] * 24, 101)
    RadoAvoider(list(range(1, 25)), 2**127 - 1)  # a Mersenne prime
    with pytest.raises(ValueError, match=r"subset \[1, 2\] of coefficients"):
        RadoAvoider([1, 2, 4, 8] * 6, 3 * (2**127 - 1))
    assert time.perf_counter() - start < 1


def test_avoider_refuses_a_check_of_more_than_max_trial_divisions():
    # a 13-digit coefficient against a 30-digit p: both bounds on the trial
    # divisors are far above MAX_TRIAL
    with pytest.raises(ValueError, match=f"both exceed the trial bound {MAX_TRIAL}"):
        RadoAvoider([10**12 + 1, 1, -3], 10**29 + 1)
    # either bound alone at MAX_TRIAL is enough to be admitted
    RadoAvoider([MAX_TRIAL - 1, 1], 2**127 - 1)
    RadoAvoider([10**12 + 1, 1, -3], 10**12 + 39)  # a prime below (MAX_TRIAL + 1)^2


def test_avoider_digit_colors():
    av = RadoAvoider((1, 1, -3), 5)
    # color is the least significant nonzero base-5 digit, minus one
    assert av.color_of(1) == 0
    assert av.color_of(5) == 0  # 10 base 5
    assert av.color_of(15) == 2  # 30 base 5
    assert av.color_of(50) == 1  # 200 base 5
    assert av.r == 4


def test_avoider_coloring_matches_color_of():
    av = RadoAvoider((1, 1, -3), 5)
    c = rado_avoider_coloring((1, 1, -3), 5).coloring(200)
    assert c.N == 200 and c.r == 4
    assert all(c.color_of(k) == av.color_of(k) for k in range(1, 201))


def test_avoider_blocks_small_solutions_directly():
    # brute force x + y = 3z over [1..60]: no solution is monochromatic
    av = RadoAvoider((1, 1, -3), 5)
    for z in range(1, 61):
        for x in range(1, 3 * z):
            y = 3 * z - x
            if 1 <= y <= 60:
                assert len({av.color_of(x), av.color_of(y), av.color_of(z)}) > 1


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Coloring(N=0, r=1, colors=()), "N and r must be positive"),
        (lambda: Coloring.from_text("3 2\n"), "coloring file needs a header line and a color line"),
        (lambda: fs([0]), "entries must be positive"),
        (lambda: mixed_structure([1], [1, 2]), "sequences must have equal length"),
        (lambda: rado_avoider_coloring([1, 1, -3], 5).color_of(0), "n must be positive"),
    ],
)
def test_coloring_inputs_are_refused_with_their_reason(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
