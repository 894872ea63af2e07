"""Exact linear algebra: one ``Fraction`` row reduction, a Bareiss
determinant and the Smith invariant factors.

:func:`echelon` is the only elimination over the rationals; the rational
nullspace, the inverse and the Magnus oracle's layer solve
(:mod:`nilentropy.assoc`) are read off its reduced rows.  Over the integers,
determinants use fraction-free elimination (E. Bareiss, Math. Comp. 22,
1968), and :func:`smith_factors` gives the invariant factors of a row
lattice, which decide the torsion of a graded quotient piece.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _eliminate(row, pivots):
    """``row`` cleared at every pivot column by the reduced pivot rows."""
    for p, prow in pivots.items():
        f = row[p]
        if f:
            row = [x - f * y if y else x for x, y in zip(row, prow)]
    return row


def echelon(rows):
    """Reduced row echelon form over ``Fraction`` as ``{pivot column: row}``;
    each row is 1 at its pivot and 0 at every other pivot column.  Zero
    entries may stay ``int``."""
    pivots = {}
    for row in rows:
        row = _eliminate(row, pivots)
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            continue
        lead = Fraction(row[p])
        row = [x / lead if x else x for x in row]
        for q in pivots:
            pivots[q] = _eliminate(pivots[q], {p: row})
        pivots[p] = row
    return pivots


def nullspace(rows, width):
    """A basis of the rational solutions of ``rows x = 0``, ``x`` of length ``width``."""
    pivots = echelon(rows)
    return [
        tuple(Fraction(int(j == f)) if j not in pivots else -Fraction(pivots[j][f])
              for j in range(width))
        for f in range(width) if f not in pivots
    ]


def inverse(rows):
    """Inverse of an invertible square matrix as ``Fraction`` row tuples
    (:class:`ZeroDivisionError` when it is singular)."""
    n = len(rows)
    pivots = echelon([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)])
    if any(p not in pivots for p in range(n)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(map(Fraction, pivots[i][n:])) for i in range(n))


def bareiss_det(rows):
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact: Sylvester's identity makes every entry a minor
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return sign * a[-1][-1] if n else 1


def smith_factors(rows):
    """The nonzero invariant factors of the integer row lattice spanned by
    ``rows``, each dividing the next; ``[]`` when every row is zero.

    Smith elimination: the entry of least absolute value is the pivot, and
    its column and then its row are reduced modulo it.  A pivot left alone
    in its row and column is split off; otherwise a remainder, smaller than
    the pivot, becomes the next pivot.  The split pivots are then put in
    divisibility order by gcd and lcm pairs.
    """
    a = [list(row) for row in rows if any(row)]
    factors = []
    while a:
        _, i, j = min((abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x)
        prow = a.pop(i)
        p = prow[j]
        for row in a:
            q = row[j] // p
            if q:
                row[:] = [x - q * y for x, y in zip(row, prow)]
        steps = [(k, x // p) for k, x in enumerate(prow) if x and k != j]
        for row in (prow, *a):
            if row[j]:
                for k, q in steps:
                    row[k] -= q * row[j]
        if any(prow[k] for k, _ in steps) or any(row[j] for row in a):
            a.append(prow)
        else:
            factors.append(abs(p))
        a = [row for row in a if any(row)]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = math.gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return factors
