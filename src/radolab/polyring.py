"""Univariate polynomials over Q with zero constant term.

These are the admissible perturbation polynomials: sparse, canonical
(nonzero coefficients only, no degree-0 term), immutable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .exactq import Scalar, norm_scalar, parse_scalar


# the largest exponent: the searches raise values up to --range to each one
MAX_EXPONENT = 64


class PolyParseError(ValueError):
    pass


class ConstantTermError(PolyParseError):
    """A nonzero constant term was supplied; those polynomials are excluded."""


# one signed term: an integer or p/q coefficient and a letter with an optional
# exponent, either of them left out but not both; '*' may join the two
_TERM = re.compile(r"(-)?\s*(?=\d|[A-Za-z])(\d+(?:/\d+)?)?(?:\s*(?(2)\*?)\s*([A-Za-z])(?:\^(\d+))?)?")


@dataclass(frozen=True, slots=True)
class Poly:
    """Sparse univariate polynomial with zero constant term, built from a map
    of degrees to coefficients or from (degree, coefficient) pairs, whose like
    terms add up.  Each degree is checked as it comes, so poly_parse's terms
    are refused in text order; a degree-0 term, of any coefficient, only once
    all have come."""

    coeffs: dict = None

    def __post_init__(self):
        total = {}
        for d, c in self.coeffs.items() if isinstance(self.coeffs, dict) else self.coeffs or ():
            if isinstance(d, bool) or not isinstance(d, int) or d < 0:
                raise ValueError(f"a degree must be a positive integer, not {d!r}")
            if d > MAX_EXPONENT:
                raise PolyParseError(f"degree {d} is above {MAX_EXPONENT}")
            total[d] = total.get(d, 0) + norm_scalar(c)
        if 0 in total:
            raise ConstantTermError("degree-0 term forbidden")
        cleaned = {d: norm_scalar(c) for d, c in sorted(total.items()) if c != 0}
        object.__setattr__(self, "coeffs", cleaned)

    def is_zero(self) -> bool:
        return not self.coeffs

    def eval(self, x: Scalar) -> Scalar:
        total = 0
        for d, c in self.coeffs.items():
            total += c * x**d
        return norm_scalar(total)

    def __hash__(self):  # the generated one would hash the dict
        return hash(tuple(self.coeffs.items()))

    def __str__(self):
        return self.render()

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d in sorted(self.coeffs, reverse=True):
            c = self.coeffs[d]
            mag = abs(c)
            body = "z" if d == 1 else f"z^{d}"
            if mag != 1:
                body = f"{mag}*{body}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


ZERO = Poly({})


def poly_parse(text: str) -> Poly:
    """Parse signed terms c*z^d, c z^d, z^d or c (c an integer or p/q) in one
    letter, any letter.  A nonzero constant term is refused, so "0" is the
    zero polynomial; a degree above `MAX_EXPONENT` is refused by `Poly`."""
    if not text.strip():
        raise PolyParseError("empty polynomial text")
    # split into signed terms
    raw = text.replace("-", "+-").split("+")
    if any(not c.strip() for c in raw[1:]):
        raise PolyParseError(f"dangling operator in {text!r}")

    def terms():
        var = None
        for chunk in filter(None, map(str.strip, raw)):
            m = _TERM.fullmatch(chunk)
            if m is None:
                raise PolyParseError(f"bad term {chunk!r} in {text!r}")
            neg, coef, v, exp = m.groups()
            c = parse_scalar(coef) if coef else 1
            if neg:
                c = -c
            if v is None:
                if c != 0:
                    raise ConstantTermError(f"constant term {c} forbidden (zero constant term required)")
                continue
            var = var or v
            if v != var:
                raise PolyParseError(f"mixed variable letters {var!r} and {v!r}")
            yield int(exp or 1), c

    return Poly(terms())
