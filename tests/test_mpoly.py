"""``MPoly`` arithmetic and ``compile_poly`` against ``sympy.Poly`` over QQ."""

from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nilentropy.mpoly import MPoly, compile_poly

SYMBOLS = sympy.symbols("v0:4")

COEFF = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


@st.composite
def polys(draw, nvars):
    """A random sparse polynomial as ``[(exponents, coefficient), ...]``."""
    return draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * nvars), COEFF),
                         max_size=5))


def _mpoly(nvars, terms):
    out = MPoly(nvars)
    for exps, c in terms:
        mono = MPoly.const(nvars, c)
        for i, e in enumerate(exps):
            for _ in range(e):
                mono = mono * MPoly.var(nvars, i)
        out = out + mono
    return out


def _sympy(nvars, terms):
    gens = SYMBOLS[:nvars]
    expr = sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(g ** e for g, e in zip(gens, exps)))
                for exps, c in terms), sympy.Integer(0))
    return sympy.Poly(expr, *gens, domain="QQ")


def _compiled(poly):
    """What ``compile_poly`` must return for the ``sympy.Poly`` ``poly``."""
    coeffs = {m: c for m, c in poly.as_dict().items() if c}
    if not coeffs:
        return (1, ())
    den = lcm(*(int(c.q) for c in coeffs.values()))
    return (den, tuple(
        (int(c.p) * (den // int(c.q)), tuple((i, e) for i, e in enumerate(m) if e))
        for m, c in sorted(coeffs.items())
    ))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_sympy(data):
    nvars = data.draw(st.integers(1, 4))
    a, b = data.draw(polys(nvars)), data.draw(polys(nvars))
    s = data.draw(COEFF)
    k = data.draw(st.integers(-6, 6).filter(bool))
    p, q = _mpoly(nvars, a), _mpoly(nvars, b)
    sp, sq = _sympy(nvars, a), _sympy(nvars, b)
    ss = sympy.Rational(s.numerator, s.denominator)
    assert compile_poly(p) == _compiled(sp)
    cases = [
        (p + q, sp + sq),
        (p - q, sp - sq),
        (-p, -sp),
        (p * q, sp * sq),
        (p * s, sp * ss),
        (s * p, sp * ss),
        (p * 3, sp * 3),
        (p + s, sp + ss),
        (s + p, sp + ss),
        (p - s, sp - ss),
        (p ** 1, sp),
        (p ** 2, sp ** 2),
        (p ** 3, sp ** 3),
        (divmod(p, k)[0], sp * sympy.Rational(1, k)),
        (p // k, sp * sympy.Rational(1, k)),
    ]
    for got, want in cases:
        assert compile_poly(got) == _compiled(want)
    # dividing by a constant is exact in Q[x]: no remainder
    assert divmod(p, k)[1] == 0
    # equal polynomials have equal fields, whatever way they were built
    assert (p + q) * q == p * q + q * q
    assert hash((p + q) * q) == hash(p * q + q * q)
    assert (p - p) == 0 and not (p - p)


def test_exponent_beyond_the_byte_field_is_refused():
    x, y = MPoly.var(2, 0), MPoly.var(2, 1)
    p = x
    for _ in range(7):
        p = p * p
    q, r = y, x
    for _ in range(126):
        q, r = q * x, r * x
    # x^255 fills variable 0's byte; x^254 y leaves variable 1 untouched
    assert compile_poly(p * r) == (1, ((1, ((0, 255),)),))
    assert compile_poly(p * q) == (1, ((1, ((0, 254), (1, 1))),))
    # degree 256 could carry into the next byte, so it is refused
    with pytest.raises(ValueError, match="exceeds 255"):
        p * q * x
    with pytest.raises(ValueError, match="exceeds 255"):
        p * p


def test_rings_do_not_mix():
    with pytest.raises(ValueError, match="polynomials in 2 and 3 variables"):
        MPoly.var(2, 0) + MPoly.var(3, 0)
    with pytest.raises(ValueError, match="polynomials in 2 and 3 variables"):
        MPoly.var(2, 0) * MPoly.var(3, 0)
    with pytest.raises(IndexError):
        MPoly.var(2, 2)
