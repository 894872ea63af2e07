"""Endomorphisms of nilpotent group specs and their linear invariants.

An endomorphism is stored by its generator images.  By the Mal'cev
correspondence it acts linearly on the rational Lie algebra of the group:
``log phi(g) = L log g``.  The columns of ``L`` on the Lie basis are the
logarithms of the generator images and, for every other basis entry, the
same commutator tree of brackets over those columns: they are read off
:meth:`~nilentropy.hall.HallBasis.evaluate` of the free cover's basis at the
positions the spec keeps (all of them on a free spec).  ``L`` is cleared of
denominators into one integer matrix per endomorphism, held as its sparse
columns (:attr:`Endomorphism.linear_map`), and every linear invariant is
read off those columns.  The map acts on scaled logarithms ``p = D log g``
(``D`` being the law's ``log_scale``), which are integer vectors, with
``L = M / denominator``: one step is the product ``M p`` and one call of
the law's generated ``unpack_scaled``, which divides it by
``denominator`` and takes the exponential ``exp(p / D)`` of the quotient
``p``, every division checked; a remainder raises ``IntegralityError``
where it occurs.  :func:`apply` is one generated ``pack`` and one step; an
orbit ``phi^n(g)`` keeps ``p`` from step to step and packs once, and
:func:`iterate` reads ``phi^n`` off the orbits of the generators; the
graded actions are the diagonal weight blocks of ``L``; and :func:`invert`
takes the same step with ``L^-1``, from the ``Fraction`` inverse of
:mod:`.linalg`.  The Karidi series of ``growth_series`` maps the generated
box-length kernel of the spec's weights over the same orbit; the exact
callers never convert a coordinate to a float.

The spectral report of an integer matrix is exact integer code: a Berkowitz
characteristic polynomial, its squarefree part, and one exact predicate on
it, the Schur-Cohn test that every root lies in an open disk.  Bisection on
that test at float rounding midpoints gives the correctly rounded spectral
radius, and quasi-unipotence is a radius of exactly 1.
"""

from __future__ import annotations

import math
import operator
import struct
from collections import namedtuple
from fractions import Fraction
from itertools import islice

from . import assoc
from .collect import bracket_over
from .linalg import bareiss_det, inverse
from .mpoly import exact_quotient
from .nilgroup import SpecError, _integer

def _exact(x):
    """A matrix entry as an ``int``, or as a ``Fraction`` when not integral."""
    try:
        return operator.index(x)
    except TypeError:
        pass
    for value in (x, str(x)):
        try:
            r = Fraction(value)
        except (TypeError, ValueError, OverflowError):
            continue
        return r.numerator if r.denominator == 1 else r
    raise SpecError(f"matrix entry {x!r} is not a rational number")


def _as_matrix_rows(m):
    """Rows of a square matrix as exact rationals (ints where possible)."""
    if hasattr(m, "tolist"):
        m = m.tolist()
    rows = tuple(tuple(_exact(x) for x in row) for row in m)
    if not rows or any(len(r) != len(rows) for r in rows):
        raise SpecError("expected a square matrix")
    return rows


def mat_identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _cleared(entries, n):
    """Sparse integer columns ``M`` and the least ``denominator`` such that
    ``M / denominator`` is the ``n x n`` rational matrix with nonzero entries
    ``(i, j, num, den)`` of value ``num / den``; column ``j`` lists its
    entries ``(i, m_ij)`` in the order given.

    The entries are scaled to ``lcm(den)`` and divided by the gcd of that
    scale and every scaled numerator, which leaves the least denominator.
    """
    scale = math.lcm(*(den for _, _, _, den in entries))
    scaled = [(i, j, num * (scale // den)) for i, j, num, den in entries]
    g = math.gcd(scale, *(m for _, _, m in scaled))
    columns = [[] for _ in range(n)]
    for i, j, m in scaled:
        columns[j].append((i, m // g))
    return tuple(map(tuple, columns)), scale // g


class Endomorphism:
    """Endomorphism given by generator images in Mal'cev coordinates."""

    __slots__ = ("spec", "images", "_linear", "_automorphic")

    def __init__(self, spec, images):
        if len(images) != spec.rank:
            raise SpecError(
                f"{len(images)} images for {spec.rank} generators"
            )
        self.spec = spec
        self.images = tuple(spec.check_vector(g) for g in images)
        self._linear = None
        self._automorphic = None

    @property
    def linear_map(self):
        """``(columns, denominator)`` of the map on the Mal'cev Lie algebra.

        ``columns`` is an integer matrix ``M`` as sparse columns
        ``((i, m_ij), ...)``, column ``j`` the image of the Lie basis vector
        ``j``, with ``L = M / denominator`` on the Lie basis.  It acts on
        scaled logarithms: ``D log phi(g) = M (D log g) / denominator`` for the
        law's ``log_scale`` ``D``, so that
        ``apply(g) = exp(M pack_scaled(g) / denominator / D)``, which is
        ``unpack_scaled(M pack_scaled(g), denominator)``.  On a quotient
        spec the images must respect the relators (:class:`SpecError`).
        """
        if self._linear is None:
            spec = self.spec
            law = spec.law
            d = law.log_scale

            s, table = law._integral_partners

            def leaf(gen):
                return {i: v for i, v in enumerate(law.pack_scaled(self.images[gen])) if v}

            # brackets over the integral table are s times the law's, so the
            # value of a cover entry of weight w comes out in integers,
            # scaled by d^w s^(w-1)
            cover = spec.basis
            values = cover.evaluate(leaf, lambda x, y: bracket_over(table, x, y))
            if spec.relations is not None:
                _check_relators(spec, values, d * s)
            entries = []
            for j, p in enumerate(spec._positions):
                w = cover.weights[p]
                scale = d ** w * s ** (w - 1)
                entries.extend((i, j, v, scale) for i, v in values[p].items())
            self._linear = _cleared(entries, spec.dim)
        return self._linear

    def __eq__(self, other):
        return (
            isinstance(other, Endomorphism)
            and self.spec == other.spec
            and self.images == other.images
        )

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Endomorphism(spec={self.spec!r}, images={self.images!r})"


def _check_relators(spec, values, d):
    """Raise :class:`SpecError` unless the map kills every relator of ``spec``.

    ``values[k]`` is ``d^weight`` times the image of the cover's ``k``-th Lie
    basis vector in the quotient algebra ``L / I``, up to a factor common to
    every ``k``.  The images define an endomorphism exactly when ``log r`` of
    every relator ``r`` maps into ``I``, that is, to zero here.
    """
    top = spec.nilpotency_class
    for r in spec.relators:
        residue = {}
        for value, w, v in zip(values, spec.basis.weights, spec.free_cover.law.pack_scaled(r)):
            if v:
                residue = assoc.add(residue, assoc.scale(value, v * d ** (top - w)))
        if residue:
            raise SpecError("generator images do not respect the relators of the quotient")


def identity_endomorphism(spec):
    return Endomorphism(spec, [spec.indicator(k) for k in range(spec.rank)])


def _scatter(columns, p):
    """``M p`` over the sparse integer columns ``((i, m_ij), ...)`` of ``M``,
    skipping the zero entries of ``p``."""
    q = [0] * len(columns)
    for v, column in zip(p, columns):
        if v:
            for i, m in column:
                q[i] += m * v
    return q


def apply(phi, g):
    """Image of ``g``: ``exp(L log g)`` through the integer linear map of ``phi``."""
    g = phi.spec.check_vector(g)
    law = phi.spec.law
    columns, denominator = phi.linear_map
    return law.unpack_scaled(_scatter(columns, law.pack_scaled(g)), denominator)[1]


def _orbit(phi, g):
    """``phi(g), phi^2(g), ...`` without end, for a checked vector ``g``:
    ``unpack_scaled(M p, denominator)`` at each step.

    The scaled logarithm ``p = D log phi^n(g)`` is integral, since
    ``phi^n(g)`` is a group element, and carries from one step to the next
    as the first output of ``unpack_scaled``: the orbit packs once.
    """
    law = phi.spec.law
    columns, denominator = phi.linear_map
    unpack = law.unpack_scaled
    p = law.pack_scaled(g)
    while True:
        p, h = unpack(_scatter(columns, p), denominator)
        yield h


def compose(phi, psi):
    """``compose(phi, psi)(g) = phi(psi(g))``."""
    if phi.spec != psi.spec:
        raise SpecError("endomorphisms live on different specs")
    return Endomorphism(phi.spec, [apply(phi, img) for img in psi.images])


def iterate(phi, n):
    """``phi`` composed with itself ``n`` times (``n >= 0``).

    The images ``phi^n(x_j)`` are read off the orbits of the generators, so
    nothing is cached on ``phi``.
    """
    n = _integer(n, "iterate exponent")
    if n < 0:
        raise SpecError("iterate exponent must be non-negative")
    spec = phi.spec
    if n == 0:
        return identity_endomorphism(spec)
    return Endomorphism(spec, [next(islice(_orbit(phi, spec.indicator(j)), n - 1, None))
                               for j in range(spec.rank)])


def abelianization_matrix(phi):
    """Action on ``G/[G,G]``: columns are the weight-1 parts of the images."""
    m = phi.spec.rank
    return tuple(
        tuple(phi.images[j][i] for j in range(m)) for i in range(m)
    )


def graded_matrix(phi, d):
    """Action on the weight-``d`` graded piece: the weight-``d`` diagonal block
    of ``L``, an integer matrix (a remainder raises
    :class:`~nilentropy.mpoly.IntegralityError`)."""
    spec = phi.spec
    d = _integer(d, "weight")
    if not 1 <= d <= spec.nilpotency_class:
        raise SpecError(
            f"weight {d} out of range 1..{spec.nilpotency_class}"
        )
    idxs = [k for k, w in enumerate(spec.weights) if w == d]
    pos = {k: p for p, k in enumerate(idxs)}
    columns, denominator = phi.linear_map
    block = [[0] * len(idxs) for _ in idxs]
    for j in idxs:
        for i, m in columns[j]:
            if i in pos:
                block[pos[i]][pos[j]] = m
    return tuple(tuple(exact_quotient(m, denominator) for m in row) for row in block)


def linearization_matrix(phi):
    """``L``, the induced map on the Mal'cev Lie algebra, as ``Fraction`` row tuples.

    This is :attr:`Endomorphism.linear_map` on every spec, in coordinates of
    the first kind.  The Lie basis is adapted to the weight filtration, so the
    matrix is block triangular with the graded actions on the diagonal.
    """
    columns, denominator = phi.linear_map
    out = [[Fraction(0)] * phi.spec.dim for _ in columns]
    for j, column in enumerate(columns):
        for i, m in column:
            out[i][j] = Fraction(m, denominator)
    return tuple(map(tuple, out))


def is_homologically_trivial(phi):
    """True when the abelianized action is the identity."""
    return abelianization_matrix(phi) == mat_identity(phi.spec.rank)


def is_automorphism(phi):
    """True when every graded piece is acted on invertibly over the integers.

    One determinant decides it, that of the weight-1 block.  Each graded
    piece ``gr_d = gamma_d / gamma_{d+1}`` is free abelian and generated by
    the d-fold commutators of weight-1 classes, so a map onto ``gr_1`` is
    onto every ``gr_d``; and an onto endomorphism of ``Z^r`` is invertible
    (``Z^r`` is Hopfian).  The blocks of higher weight thus have
    determinant +-1 whenever the weight-1 block does.

    The graded actions are the diagonal blocks of :attr:`Endomorphism.linear_map`,
    which is built first, so on a quotient spec images that do not respect
    the relators raise :class:`SpecError`.  The answer is kept on ``phi``,
    whose images are immutable, so later calls take no determinant.
    """
    if phi._automorphic is None:
        phi._automorphic = bareiss_det(graded_matrix(phi, 1)) in (1, -1)
    return phi._automorphic


def invert(phi):
    """Inverse automorphism: the images ``exp(L^-1 log x_j)``.

    ``L^-1`` is the inverse of :func:`linearization_matrix`, cleared of
    denominators the same way as :attr:`Endomorphism.linear_map`, and each
    image goes through the same checked ``pack`` and linear step as
    :func:`apply`.
    """
    spec = phi.spec
    if not is_automorphism(phi):
        raise SpecError("endomorphism is not invertible over the integers")
    inv_columns, inv_denominator = _cleared(
        [(i, j, *x.as_integer_ratio()) for i, row in enumerate(inverse(linearization_matrix(phi)))
         for j, x in enumerate(row) if x],
        spec.dim,
    )
    law = spec.law
    psi = Endomorphism(spec, [
        law.unpack_scaled(_scatter(inv_columns, law.pack_scaled(spec.indicator(j))),
                          inv_denominator)[1]
        for j in range(spec.rank)])
    for j in range(spec.rank):
        if apply(phi, psi.images[j]) != spec.indicator(j):
            raise SpecError("inverse image does not map back to its generator")
    return psi


# ---------------------------------------------------------------------------
# spectral analysis of integer matrices


class SpectralReport(namedtuple("SpectralReport", [
        "charpoly", "spectral_radius", "radius_error", "unipotent", "quasi_unipotent",
        "radius_gap"])):
    """Characteristic data of an integer matrix.

    ``charpoly`` lists the monic coefficients from the leading term down.
    ``spectral_radius`` is the largest eigenvalue modulus, correctly rounded:
    exact disk tests bracket it between the rounding midpoints around the
    float.  ``radius_error`` is a fixed ``1e-9`` (``0.0`` when the matrix is
    quasi-unipotent), not a computed bound: the radius is correctly rounded,
    so its error is at most half a unit in the last place; the field stays
    at that value so that reports do not change.  ``radius_gap`` is
    ``spectral_radius - 1`` when the matrix is not quasi-unipotent, else
    ``None``.
    """

    __slots__ = ()


def _charpoly(rows):
    """Coefficients of ``det(x I - A)``, leading first (Berkowitz's algorithm)."""
    coeffs = [1]
    for k in range(len(rows)):
        # border the leading k x k block with row r, column col and a corner
        r = rows[k][:k]
        col = [rows[i][k] for i in range(k)]
        toeplitz = [1, -rows[k][k]]
        for _ in range(k):
            toeplitz.append(-sum(x * y for x, y in zip(r, col)))
            col = [sum(rows[i][j] * col[j] for j in range(k)) for i in range(k)]
        coeffs = [
            sum(toeplitz[i - j] * coeffs[j] for j in range(max(0, i - k - 1), min(i, k) + 1))
            for i in range(k + 2)
        ]
    return tuple(_exact(c) for c in coeffs)


def _poly_quotient(num, den):
    """``num / den`` for integer polynomials given leading coefficient first,
    where ``den`` divides ``num`` exactly."""
    num = list(num)
    quo = []
    for i in range(len(num) - len(den) + 1):
        c = exact_quotient(num[i], den[0])
        quo.append(c)
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    return quo


def _primitive(poly):
    g = math.gcd(*poly)
    return [c // g for c in poly] if g > 1 else list(poly)


def _pseudo_rem(a, b):
    """A positive multiple of the remainder of ``a`` by ``b`` (integer
    polynomials), made primitive; the signs of its values are those of the
    true remainder."""
    a = list(a)
    while a and len(a) >= len(b):
        if a[0] % b[0]:
            a = [c * abs(b[0]) for c in a]
        q = a[0] // b[0]
        a = [c - q * d for c, d in zip(a[1:], b[1:] + [0] * (len(a) - len(b)))]
        while a and not a[0]:
            a.pop(0)
    return _primitive(a) if a else a


def _derivative(poly):
    deg = len(poly) - 1
    return [c * (deg - i) for i, c in enumerate(poly[:-1])]


def _poly_gcd(a, b):
    """Primitive greatest common divisor of two integer polynomials."""
    while b:
        a, b = b, _pseudo_rem(a, b)
    return _primitive(a)


def _squarefree(coeffs):
    """Primitive integer polynomial with the roots of ``coeffs``, each simple."""
    denom = math.lcm(*(Fraction(c).denominator for c in coeffs))
    poly = _primitive([int(c * denom) for c in coeffs])
    # a primitive divisor divides exactly over the integers (Gauss's lemma)
    return _primitive(_poly_quotient(poly, _poly_gcd(poly, _derivative(poly))))


def _scaled(poly, num, den):
    """``den^deg poly(num z / den)``: the roots of ``poly`` divided by ``num / den``."""
    n = len(poly) - 1
    return [c * num ** (n - i) * den ** i for i, c in enumerate(poly)]


def _inside(poly, num=1, den=1):
    """True when every root of the integer polynomial ``poly`` has modulus
    below ``num / den``: the Schur-Cohn test on ``q = _scaled(poly, num, den)``.

    On the unit circle ``|q*| = |q|`` for the reversed ``q*``, so when
    ``|a_n| > |a_0|``, ``a_n q`` and ``a_n q - a_0 q*`` have as many roots
    inside it (Rouche), one of them 0: every root of ``q`` is inside exactly
    when every root of ``(a_n q - a_0 q*) / z`` is.  A root on the circle
    fails the test.
    """
    q = _scaled(poly, num, den)
    while len(q) > 1:
        a, b = q[0], q[-1]
        if abs(a) <= abs(b):
            return False
        q = _primitive([a * x - b * y for x, y in zip(q[:-1], q[:0:-1])])
    return True


def _radius_is(poly, num, den):
    """True when the largest root modulus of the squarefree ``poly``, with
    ``poly(0) != 0``, is exactly ``num / den``.

    Scaled to ``q`` with that circle as the unit circle, ``g = gcd(q, q*)``
    holds the roots on it and the pairs ``z, 1 / conj(z)``.  No root lies
    outside when those of ``q / g`` lie inside and those of ``g`` on the
    circle, which for the self-inversive, squarefree ``g`` is those of ``g'``
    inside (Cohn).
    """
    q = _scaled(poly, num, den)
    g = _poly_gcd(q, q[::-1])
    return len(g) > 1 and _inside(_poly_quotient(q, g)) and _inside(_derivative(g))


def _guess(poly):
    """Float estimate of the largest root modulus of a squarefree integer
    polynomial: Durand-Kerner iteration on ``poly(2^e z)``, whose roots
    Fujiwara's bound ``2 max_k |c_k / lead|^(1/k) <= 2^e`` puts in the unit disk.
    """
    lead, n = poly[0], len(poly) - 1
    e = max(1 - (lead.bit_length() - c.bit_length() - 1) // k
            for k, c in enumerate(poly[1:], 1) if c)
    monic = [c / (lead << e * k) if e >= 0 else (c << -e * k) / lead
             for k, c in enumerate(poly[1:], 1)]
    roots = [complex(0.4, 0.9) ** i for i in range(n)]
    for _ in range(100):
        moved = 0.0
        for i, z in enumerate(roots):
            value, denom = 1.0, 1.0
            for c in monic:
                value = value * z + c
            for j, w in enumerate(roots):
                if j != i:
                    denom *= z - w
            if denom:
                step = value / denom
                roots[i] = z - step
                moved = max(moved, abs(step))
        if moved < 1e-12:
            break
    return math.ldexp(min(max(abs(z) for z in roots), 1.0), e)


_INF_BITS = int.from_bytes(struct.pack("<d", math.inf), "little")


def _midpoint_below(bits):
    """``(num, den)`` halfway between the float with bit pattern ``bits`` and
    the float below: ``(2 s + 1) 2^(e - 1)`` for the lower one ``s 2^e``."""
    if not bits:
        return 0, 1
    exponent, s = divmod(bits - 1, 1 << 52)
    if exponent:
        s += 1 << 52
    shift = max(exponent, 1) - 1076
    return ((2 * s + 1) << shift, 1) if shift >= 0 else (2 * s + 1, 1 << -shift)


def _spectral_radius(poly):
    """Correctly rounded largest root modulus of a squarefree integer
    polynomial with ``poly(0) != 0``, or of a constant.

    Bit patterns order the positive floats, and the radius rounds to the float
    at ``lo`` when it lies between the midpoints below and above it.  The exact
    :func:`_inside` brackets it at midpoints: first those around the float
    estimate of :func:`_guess`, then a side it rejects widened by one float,
    and by 256 times the last widening at each further rejection, then
    bisection.  The estimate, which is usually right or one float off, only
    orders the tests.
    """
    if len(poly) == 1:
        return 0.0
    # invariant: rho >= _midpoint_below(lo), and rho < _midpoint_below(hi)
    # unless hi is past inf, which every larger radius rounds to
    lo = int.from_bytes(struct.pack("<d", _guess(poly)), "little")
    hi, step = lo + 1, 1
    while _inside(poly, *_midpoint_below(lo)):
        lo, hi, step = max(lo - step, 0), lo, 256 * step
    while hi <= _INF_BITS and not _inside(poly, *_midpoint_below(hi)):
        lo, hi, step = hi, min(hi + step, _INF_BITS + 1), 256 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _inside(poly, *_midpoint_below(mid)):
            hi = mid
        else:
            lo = mid
    # a radius on the midpoint below an odd float is a tie: round to even
    if lo % 2 and _radius_is(poly, *_midpoint_below(lo)):
        lo -= 1
    return struct.unpack("<d", lo.to_bytes(8, "little"))[0]


def spectral_report(matrix):
    """Exact unipotence tests plus a certified spectral radius."""
    rows = _as_matrix_rows(matrix)
    n = len(rows)
    coeffs = _charpoly(rows)
    # unipotent: every eigenvalue is 1, so the charpoly is (x - 1)^n
    unipotent = coeffs == tuple((-1) ** i * math.comb(n, i) for i in range(n + 1))
    poly = _squarefree(coeffs)
    zero_root = not poly[-1]
    if zero_root:
        poly.pop()  # simple in the squarefree part
    # quasi-unipotent: every eigenvalue a root of unity.  By Kronecker's
    # theorem, for a monic integer charpoly that is every root of modulus 1
    quasi = unipotent or (not zero_root and all(isinstance(c, int) for c in coeffs)
                          and _radius_is(poly, 1, 1))
    if quasi:
        radius = 1.0
        error = 0.0
        gap = None
    else:
        radius = _spectral_radius(poly)
        error = 1e-9
        gap = radius - 1.0
    return SpectralReport(
        charpoly=coeffs,
        spectral_radius=radius,
        radius_error=error,
        unipotent=unipotent,
        quasi_unipotent=quasi,
        radius_gap=gap,
    )


# ---------------------------------------------------------------------------
# named example automorphisms


def builtin_automorphism(name, spec):
    """Shared example automorphisms, padded to the spec's coordinates.

    ``fib``: x1 -> x1 x2, x2 -> x1 (hyperbolic on homology).
    ``unipotent-shear``: x1 -> x1, x2 -> x1 x2 (unipotent, acts on homology).
    ``central-shear``: x1 -> x1 c, x2 -> x2 (trivial on homology).
    """
    if spec.rank < 2:
        raise SpecError("builtin automorphisms need rank >= 2")

    def unit(*pairs):
        out = [0] * spec.dim
        for k, v in pairs:
            out[k] = v
        return tuple(out)

    if name == "fib":
        images = [unit((0, 1), (1, 1)), unit((0, 1))]
    elif name == "unipotent-shear":
        images = [unit((0, 1)), unit((0, 1), (1, 1))]
    elif name == "central-shear":
        if spec.nilpotency_class < 2:
            raise SpecError("central-shear needs class >= 2")
        first_w2 = next(k for k, w in enumerate(spec.weights) if w == 2)
        images = [unit((0, 1), (first_w2, 1)), unit((1, 1))]
    else:
        raise SpecError(
            f"unknown builtin automorphism {name!r}; "
            "choose fib, unipotent-shear or central-shear"
        )
    images += [spec.indicator(k) for k in range(2, spec.rank)]
    return Endomorphism(spec, images)
