"""Univariate polynomials over Q with zero constant term.

These are the admissible perturbation polynomials: sparse, canonical
(nonzero coefficients only, no degree-0 term), immutable.
"""

from __future__ import annotations

import re

from .exactq import Scalar, norm_scalar, parse_scalar


# the largest exponent: the searches raise values up to --range to each one
MAX_EXPONENT = 64


class PolyParseError(ValueError):
    pass


class ConstantTermError(PolyParseError):
    """A nonzero constant term was supplied; those polynomials are excluded."""


_TERM_RE = re.compile(
    r"""^(?:
          (?P<coef>-?\d+(?:/\d+)?)\s*\*?\s*(?P<var1>[A-Za-z])(?:\^(?P<exp1>\d+))?
        | (?P<var2>[A-Za-z])(?:\^(?P<exp2>\d+))?
        | (?P<const>-?\d+(?:/\d+)?)
        )$""",
    re.VERBOSE,
)


class Poly:
    """Sparse univariate polynomial with zero constant term."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cleaned = {}
        for d, c in (coeffs or {}).items():
            if isinstance(d, bool) or not isinstance(d, int) or d < 0:
                raise ValueError(f"a degree must be a positive integer, not {d!r}")
            if d == 0:
                raise ConstantTermError("degree-0 term forbidden")
            c = norm_scalar(c)
            if c != 0:
                cleaned[d] = c
        object.__setattr__(self, "coeffs", dict(sorted(cleaned.items())))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def eval(self, x: Scalar) -> Scalar:
        total = 0
        for d, c in self.coeffs.items():
            total += c * x**d
        return norm_scalar(total)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs.items()))

    def __repr__(self):
        return f"Poly({self.coeffs!r})"

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
    """Parse signed terms of the form c*z^d, z^d, c*z, z (c integer or p/q).

    The variable letter is free but must be consistent.  Any nonzero constant
    term is rejected; the bare token "0" denotes the zero polynomial.
    """
    s = text.strip()
    if not s:
        raise PolyParseError("empty polynomial text")
    # split into signed terms
    s = s.replace("-", "+-")
    raw = s.split("+")
    if any(not c.strip() for c in raw[1:]):
        raise PolyParseError(f"dangling operator in {text!r}")
    chunks = [c.strip() for c in raw if c.strip()]
    coeffs: dict = {}
    var = None
    for chunk in chunks:
        neg = False
        if chunk.startswith("-"):
            neg = True
            chunk = chunk[1:].strip()
        m = _TERM_RE.match(chunk)
        if m is None:
            raise PolyParseError(f"bad term {chunk!r} in {text!r}")
        if m.group("const") is not None:
            c = parse_scalar(m.group("const"))
            if neg:
                c = -c
            if c != 0:
                raise ConstantTermError(
                    f"constant term {c} forbidden (zero constant term required)"
                )
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
