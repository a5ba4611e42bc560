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
