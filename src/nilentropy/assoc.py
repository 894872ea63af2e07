"""Truncated free associative algebra over exact rationals.

Serves two independent jobs:

* deriving the universal Campbell-Hausdorff coefficients used by the
  collection engine (once per nilpotency class);
* a Magnus-style embedding ``x_i -> 1 + X_i`` giving a normal form for free
  nilpotent groups that does not go through collection at all.  Tests use it
  as an oracle for the group arithmetic.

Elements are dicts mapping words (tuples of generator indices) to rational
or integer coefficients; words longer than the truncation degree are dropped.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .linalg import echelon


def one():
    return {(): 1}


def add(a, b):
    out = dict(a)
    for w, c in b.items():
        s = out.get(w, 0) + c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def scale(a, c):
    if not c:
        return {}
    return {w: v * c for w, v in a.items()}


def mul(a, b, maxdeg):
    out = {}
    for w1, c1 in a.items():
        room = maxdeg - len(w1)
        for w2, c2 in b.items():
            if len(w2) > room:
                continue
            w = w1 + w2
            s = out.get(w, 0) + c1 * c2
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def exp_series(x, maxdeg):
    """exp of an element with no constant term."""
    assert () not in x
    out = one()
    p = one()
    for k in range(1, maxdeg + 1):
        p = mul(p, x, maxdeg)
        if not p:
            break
        out = add(out, scale(p, Fraction(1, factorial(k))))
    return out


def log_series(y, maxdeg):
    """log of an element with constant term 1."""
    u = dict(y)
    assert u.pop(()) == 1
    out = {}
    p = one()
    for k in range(1, maxdeg + 1):
        p = mul(p, u, maxdeg)
        if not p:
            break
        out = add(out, scale(p, Fraction((-1) ** (k + 1), k)))
    return out


def _binomial(e, k):
    # Works for negative e as well; always integer.
    num = 1
    for j in range(k):
        num *= e - j
    return num // factorial(k)


def generator_power(i, e, maxdeg):
    """Magnus image ``(1 + X_i) ** e`` for any integer exponent."""
    out = {}
    for k in range(maxdeg + 1):
        c = _binomial(e, k)
        if c:
            out[(i,) * k] = c
    return out


def magnus_word(letters, maxdeg):
    """Magnus image of a group word given as ``[(gen, exponent), ...]``."""
    out = one()
    for gen, e in letters:
        out = mul(out, generator_power(gen, e, maxdeg), maxdeg)
    return out


def elt_inverse(a, maxdeg):
    """Inverse of an element with constant term 1 (geometric series)."""
    u = dict(a)
    assert u.pop(()) == 1
    out = one()
    p = one()
    for _ in range(maxdeg):
        p = scale(mul(p, u, maxdeg), -1)
        if not p:
            break
        out = add(out, p)
    return out


def elt_power(a, e, maxdeg):
    """Integer power of an element with constant term 1."""
    if e < 0:
        return elt_power(elt_inverse(a, maxdeg), -e, maxdeg)
    out = one()
    base = a
    while e:
        if e & 1:
            out = mul(out, base, maxdeg)
        e >>= 1
        if e:
            base = mul(base, base, maxdeg)
    return out


def lie_monomial(entry, maxdeg):
    """Commutator tree expanded as ``ab - ba`` recursively (integer coeffs)."""
    if entry.is_generator():
        return {(entry.gen,): 1}
    a = lie_monomial(entry.left, maxdeg)
    b = lie_monomial(entry.right, maxdeg)
    return add(mul(a, b, maxdeg), scale(mul(b, a, maxdeg), -1))


def _tree_word(entry):
    """Group word (letter list) spelling a commutator tree, [u,v] = u^-1 v^-1 u v."""
    if entry.is_generator():
        return [(entry.gen, 1)]
    wu = _tree_word(entry.left)
    wv = _tree_word(entry.right)
    inv = lambda w: [(g, -e) for g, e in reversed(w)]
    return inv(wu) + inv(wv) + wu + wv


def _solve_exact(columns, target, keys):
    """Solve ``sum_j x_j * columns[j] == target`` exactly; raise if impossible.

    ``columns`` and ``target`` are dicts keyed by ``keys``.  The solution is
    required to be unique and integral; it is read off the reduced echelon
    form of the augmented rows.
    """
    ncols = len(columns)
    pivots = echelon([[col.get(k, 0) for col in columns] + [target.get(k, 0)] for k in keys])
    if any(c not in pivots for c in range(ncols)):
        raise ValueError("coordinate system is degenerate")
    if ncols in pivots:
        raise ValueError("element is not in the span of the basis layer")
    out = []
    for c in range(ncols):
        v = Fraction(pivots[c][ncols])
        if v.denominator != 1:
            raise ValueError(f"non-integral coordinate {v}")
        out.append(int(v))
    return out


def magnus_normal_form(letters, basis):
    """Exponent vector of a free-group word along the Hall basis.

    Peels one weight layer at a time: the lowest-degree part of the running
    Magnus image is an integer combination of the layer's Lie monomials; the
    corresponding group factors are divided off and the next layer read.
    """
    c = basis.nil_class
    m = basis.rank
    current = magnus_word(letters, c)
    exponents = [0] * len(basis)
    for d in range(1, c + 1):
        layer = basis.by_weight[d]
        columns = []
        keys = set()
        for idx in layer:
            col = {
                w: v
                for w, v in lie_monomial(basis.entries[idx], c).items()
                if len(w) == d
            }
            columns.append(col)
            keys.update(col)
        target = {w: v for w, v in current.items() if len(w) == d}
        keys.update(target)
        sol = _solve_exact(columns, target, sorted(keys))
        peel = one()
        for idx, e in zip(reversed(layer), reversed(sol)):
            exponents[idx] = e
            if e:
                mu = magnus_word(_tree_word(basis.entries[idx]), c)
                peel = mul(peel, elt_power(mu, -e, c), c)
        current = mul(peel, current, c)
        assert all(len(w) > d or not v for w, v in current.items() if w)
    assert current == one(), f"residue after peeling: {current}"
    return tuple(exponents)


@lru_cache(maxsize=None)
def bch_terms(nil_class):
    """Universal coefficients of log(exp X exp Y) as left-normed brackets.

    Returns ``{degree: ((Fraction, word), ...)}`` for degrees ``2..nil_class``
    where ``word`` is a tuple over ``{0, 1}`` (0 for X, 1 for Y) and stands for
    the left-normed bracket ``[[...[w0, w1], ...], wd]``.  Degree 1 is the
    plain sum and is handled by callers directly.

    Uses the Dynkin projection: bracketing a degree-d Lie polynomial
    left-to-right multiplies it by d.
    """
    x = {(0,): Fraction(1)}
    y = {(1,): Fraction(1)}
    h = log_series(mul(exp_series(x, nil_class), exp_series(y, nil_class), nil_class), nil_class)
    out = {}
    for d in range(2, nil_class + 1):
        terms = []
        for w, coeff in sorted(h.items()):
            if len(w) != d or not coeff:
                continue
            if w[0] == w[1]:
                continue  # left-normed bracket starts [a, a] = 0
            terms.append((coeff / d, w))
        out[d] = tuple(terms)
    return out
