"""The exact linear algebra of ``nilentropy.linalg`` against sympy."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nilentropy.linalg import echelon, inverse, nullspace


@st.composite
def matrices(draw, square=False):
    """Small integer matrices, often of low rank (rows repeat as combinations)."""
    width = draw(st.integers(1, 5))
    height = width if square else draw(st.integers(0, 6))
    entry = st.integers(-4, 4)
    rows = []
    for _ in range(height):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entry), draw(entry)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=width, max_size=width)))
    return rows, width


def _sympy(rows, width):
    return sympy.Matrix(len(rows), width, [x for row in rows for x in row])


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_echelon_is_the_reduced_row_echelon_form(case):
    rows, width = case
    rref, pivots = _sympy(rows, width).rref()
    got = echelon(rows)
    assert tuple(sorted(got)) == pivots
    assert [got[p] for p in pivots] == [list(rref.row(i)) for i in range(len(pivots))]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_nullspace_matches_sympy(case):
    rows, width = case
    got = nullspace(rows, width)
    want = _sympy(rows, width).nullspace()
    assert [list(v) for v in got] == [list(v) for v in want]
    assert all(isinstance(x, Fraction) for v in got for x in v)


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_inverse_matches_sympy(case):
    rows, width = case
    m = _sympy(rows, width)
    if m.det() == 0:
        with pytest.raises(ZeroDivisionError):
            inverse(rows)
    else:
        assert sympy.Matrix(inverse(rows)) == m.inv()
