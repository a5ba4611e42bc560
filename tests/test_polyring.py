import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from radolab.exactq import parse_scalar
from radolab.polyring import MAX_EXPONENT, ConstantTermError, Poly, PolyParseError, poly_parse


def test_parse_examples():
    assert poly_parse("z^2 + z").coeffs == {1: 1, 2: 1}
    assert poly_parse("0").coeffs == {}
    with pytest.raises(ConstantTermError):
        poly_parse("z^2 + 1")


def test_parse_coefficients_and_signs():
    assert poly_parse("-z^2 + 3*z").coeffs == {1: 3, 2: -1}
    assert poly_parse("1/2*z^3").coeffs == {3: Fraction(1, 2)}
    assert poly_parse("2*t - t").coeffs == {1: 1}
    assert poly_parse("x^2 - x^2").coeffs == {}


def test_parse_rejects_garbage():
    with pytest.raises(PolyParseError):
        poly_parse("z +")
    with pytest.raises(PolyParseError):
        poly_parse("z*y")
    with pytest.raises(PolyParseError):
        poly_parse("z + w")  # mixed letters
    with pytest.raises(PolyParseError):
        poly_parse("")


def test_eval_examples():
    assert poly_parse("z^2 + z").eval(3) == 12
    assert Poly({}).eval(7) == 0
    assert poly_parse("1/2*z^3").eval(2) == 4
    assert poly_parse("z^2").eval(Fraction(1, 2)) == Fraction(1, 4)


def test_parse_is_order_insensitive():
    assert poly_parse("z^2 + z") == poly_parse("z + z^2")


def test_render_roundtrip():
    for text in ["z^2 + z", "0", "-z^3 + 1/2*z", "5*z^4 - z^2"]:
        p = poly_parse(text)
        assert poly_parse(p.render()) == p


@st.composite
def polys(draw):
    degs = draw(st.lists(st.integers(min_value=1, max_value=6), max_size=4))
    coeffs = {}
    for d in degs:
        coeffs[d] = Fraction(
            draw(st.integers(min_value=-9, max_value=9)),
            draw(st.integers(min_value=1, max_value=5)),
        )
    return Poly(coeffs)


@given(polys(), st.integers(min_value=-20, max_value=20))
def test_zero_constant_term_property(p, x):
    assert p.eval(0) == 0
    # evaluation is exact over Q
    assert p.eval(Fraction(x, 7)) == sum(
        c * Fraction(x, 7) ** d for d, c in p.coeffs.items()
    )


@given(polys())
def test_render_parse_identity(p):
    assert poly_parse(p.render()) == p


def test_no_degree_zero_storage():
    with pytest.raises(ConstantTermError):
        Poly({0: 1})
    assert Poly({2: 0}).is_zero()


@pytest.mark.parametrize(
    "text, expect",
    [
        ("z^2 + z", {1: 1, 2: 1}),
        ("0", {}),
        ("z - 0", {1: 1}),  # the negated zero constant is dropped
        ("-1/2 z^3 + 2*z", {1: 2, 3: Fraction(-1, 2)}),
        ("z +", PolyParseError),
        ("+", PolyParseError),
        ("z ++ z", PolyParseError),
        ("-", PolyParseError),
        ("2 +", PolyParseError),
        ("z^0", ConstantTermError),
        ("1/0 z", ValueError),
        ("z + w", PolyParseError),
        ("z^2 + 1", ConstantTermError),
    ],
)
def test_parse_corpus(text, expect):
    # each accepted text with its coefficients, each refused text with the
    # class of its exception
    if isinstance(expect, dict):
        assert poly_parse(text).coeffs == expect
    else:
        with pytest.raises(expect) as info:
            poly_parse(text)
        assert type(info.value) is expect


def test_poly_takes_only_exact_coefficients_and_integer_degrees():
    # coefficients go through norm_scalar, as in Matrix; degrees follow the
    # rule for Monomial exponents: a positive int, not a bool
    assert Poly({1: Fraction(4, 2)}).coeffs == {1: 2}
    assert type(Poly({1: Fraction(4, 2)}).coeffs[1]) is int
    with pytest.raises(TypeError, match="not an exact scalar"):
        Poly({1: 0.1})
    with pytest.raises(TypeError, match="not an exact scalar"):
        Poly({1: "1/2"})
    for degree in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="positive integer"):
            Poly({degree: 1})
    with pytest.raises(ConstantTermError):
        Poly({0: 1})


def test_a_negative_degree_is_refused_as_a_degree_not_as_a_constant_term():
    with pytest.raises(ValueError) as exc:
        Poly({-1: 1})
    assert not isinstance(exc.value, ConstantTermError)
    assert str(exc.value) == "a degree must be a positive integer, not -1"


def test_poly_refuses_a_degree_above_the_bound_whatever_its_coefficient():
    assert Poly({MAX_EXPONENT: 1}).coeffs == {MAX_EXPONENT: 1}
    for coeffs in ({65: 1}, {65: 0}, {10**9: 1}, {1: 1, 65: 1}):
        with pytest.raises(PolyParseError) as info:
            Poly(coeffs)
        assert type(info.value) is PolyParseError
    with pytest.raises(PolyParseError) as info:
        poly_parse("z^65")
    assert type(info.value) is PolyParseError


def test_poly_adds_up_the_coefficients_of_one_degree_in_pairs():
    half = Fraction(1, 2)
    assert Poly([(1, half), (2, 3), (1, half)]).coeffs == {1: 1, 2: 3}
    assert type(Poly([(1, half), (1, half)]).coeffs[1]) is int
    assert Poly([(2, 1), (2, -1)]).is_zero()
    assert Poly(iter(())).is_zero()
    # a degree above the bound is refused before the pairs after it are
    # asked for; a degree-0 term only once all have come
    def pairs():
        yield 65, 1
        raise AssertionError("asked past the degree above the bound")

    with pytest.raises(PolyParseError):
        Poly(pairs())
    with pytest.raises(ConstantTermError):
        Poly([(0, 0), (1, 1)])


# The parser as it was before it took one term pattern, kept to check that
# the pattern accepts and refuses the same texts, with the same coefficients
# and exception classes.
_REFERENCE_TERM = re.compile(
    r"""^(?:
          (?P<coef>-?\d+(?:/\d+)?)\s*\*?\s*(?P<var1>[A-Za-z])(?:\^(?P<exp1>\d+))?
        | (?P<var2>[A-Za-z])(?:\^(?P<exp2>\d+))?
        | (?P<const>-?\d+(?:/\d+)?)
        )$""",
    re.VERBOSE,
)


def _reference_parse(text):
    s = text.strip()
    if not s:
        raise PolyParseError("empty polynomial text")
    s = s.replace("-", "+-")
    raw = s.split("+")
    if any(not c.strip() for c in raw[1:]):
        raise PolyParseError(f"dangling operator in {text!r}")
    chunks = [c.strip() for c in raw if c.strip()]
    coeffs = {}
    var = None
    for chunk in chunks:
        neg = False
        if chunk.startswith("-"):
            neg = True
            chunk = chunk[1:].strip()
        m = _REFERENCE_TERM.match(chunk)
        if m is None:
            raise PolyParseError(f"bad term {chunk!r} in {text!r}")
        if m.group("const") is not None:
            c = parse_scalar(m.group("const"))
            if neg:
                c = -c
            if c != 0:
                raise ConstantTermError(f"constant term {c} forbidden (zero constant term required)")
            continue
        if m.group("var1") is not None:
            v = m.group("var1")
            c = parse_scalar(m.group("coef"))
            d = int(m.group("exp1") or 1)
        else:
            v = m.group("var2")
            c = 1
            d = int(m.group("exp2") or 1)
        if var is None:
            var = v
        elif v != var:
            raise PolyParseError(f"mixed variable letters {var!r} and {v!r}")
        if d > MAX_EXPONENT:
            raise PolyParseError(f"exponent {d} in {text!r} is above {MAX_EXPONENT}")
        if neg:
            c = -c
        coeffs[d] = coeffs.get(d, 0) + c
    return Poly(coeffs)


def _outcome(parse, text):
    try:
        return parse(text).coeffs
    except ValueError as exc:
        return type(exc)


def test_parser_decides_every_text_as_the_reference_parser():
    # texts drawn from single characters and the tokens where the two could
    # part: exponents at and past the bound, degree 0, a zero coefficient,
    # fractions, and signs between terms
    pieces = list("zwx0123/^*+-.( \t") + ["z^2", "1/2", "^0", "^64", "^65", "0z", "999", " + ", " - "]
    rng = random.Random(27)
    seen = set()
    for _ in range(100_000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
        expect = _outcome(_reference_parse, text)
        assert _outcome(poly_parse, text) == expect, text
        seen.add(expect if isinstance(expect, type) else dict)
    assert seen == {dict, PolyParseError, ConstantTermError, ValueError}


@pytest.mark.parametrize(
    "text",
    ["z^65 + 1", "z^65 + 1/0 z", "z^0 + w", "z^0 + 1/0 z", "z^0 + z^65", "0z^0", "2*", "0*", "*z", "2z*", "- 3", "-"],
)
def test_parser_keeps_the_reference_order_of_refusals(text):
    # where a text breaks two rules, the first term that breaks one decides
    # the class, except a degree-0 term, which is refused last
    expect = _outcome(_reference_parse, text)
    assert isinstance(expect, type)
    assert _outcome(poly_parse, text) is expect
