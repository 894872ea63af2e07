"""The exact linear algebra of ``nilentropy.linalg`` against sympy."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sympy.matrices.normalforms import invariant_factors

from nilentropy.linalg import echelon, inverse, nullspace, smith_factors


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


@st.composite
def lattices(draw):
    """Integer rows with zero rows, dependent rows and entries up to 2**64."""
    width = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-6, 6), st.integers(-2 ** 64, 2 ** 64))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("fresh", "zero", "combination")))
        if kind == "zero":
            rows.append([0] * width)
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=width, max_size=width)))
    return rows


@settings(max_examples=300, deadline=None)
@given(lattices())
@example([[6, 10, 15]])
@example([[6], [10], [-15], [0]])
@example([[2 ** 64, 3 * 2 ** 63], [2 ** 64 + 1, 0]])
def test_smith_factors_match_sympy(rows):
    want = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ) if rows else ()
    assert smith_factors(rows) == [abs(int(f)) for f in want if f]


def test_smith_factors_anchors():
    assert smith_factors([(2, 1, 0)]) == [1]
    assert smith_factors([(2, 0, 0)]) == [2]
    assert smith_factors([]) == []
