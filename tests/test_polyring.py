from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from radolab.polyring import ConstantTermError, Poly, PolyParseError, poly_parse


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
