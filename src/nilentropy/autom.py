"""Endomorphisms of nilpotent group specs and their linear invariants.

An endomorphism is stored by its generator images.  By the Mal'cev
correspondence it acts linearly on the rational Lie algebra of the group:
``log phi(g) = L log g``.  The columns of ``L`` on the Lie basis are the
logarithms of the generator images and, for every other basis entry, the
same commutator tree of brackets over those columns (for a quotient spec the
trees are the free-cover entries at the kept positions).  ``L`` is cleared of
denominators into one integer matrix per endomorphism, held as its sparse
columns (:attr:`Endomorphism.linear_map`), and every linear invariant is
read off those columns.  The map acts on scaled logarithms ``p = D log g``
(``D`` being the law's ``log_scale``), which are integer vectors: one step
is ``p -> M p / denominator``, an exact division, followed by the generated
exponential ``exp(p / D)``, every division checked; a remainder raises
``IntegralityError`` where it occurs.  :func:`apply` is one
generated ``pack`` and one step; an orbit ``phi^n(g)`` keeps ``p`` from step
to step and packs once, and :func:`iterate` reads ``phi^n`` off the orbits
of the generators; the graded actions are the diagonal weight blocks
of ``L``; and :func:`invert` takes the same step with ``L^-1``, from the
``Fraction`` inverse of :mod:`.linalg`.

The spectral report of an integer matrix is exact integer code: a Berkowitz
characteristic polynomial, cyclotomic deflation, and a spectral radius
isolated by Sturm sequences and bisected until it is correctly rounded.  A
spectrum with non-real roots is reduced to a real one: the largest real
eigenvalue of ``C (x) C``, for the companion matrix ``C`` of its squarefree
part, is the squared radius.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice, repeat

from . import assoc
from .linalg import bareiss_det, inverse
from .mpoly import _inexact, exact_quotient
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


def _basis_entries(spec):
    """The commutator trees of the spec's basis: the free entries it keeps."""
    return [spec.basis.entries[p] for p in spec._positions]


def _tree_evaluator(leaf, node):
    """Cached value of a commutator tree: ``leaf(gen)`` at the generators and
    ``node(left, right)`` at every bracket."""
    cached = {}

    def value(entry):
        got = cached.get(entry)
        if got is None:
            if entry.is_generator():
                got = leaf(entry.gen)
            else:
                got = node(value(entry.left), value(entry.right))
            cached[entry] = got
        return got

    return value


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
        ``apply(g) = unpack_scaled(M pack_scaled(g) / denominator)``; it is
        the form :func:`_step` takes.  On a quotient spec the images must
        respect the relators (:class:`SpecError`).
        """
        if self._linear is None:
            spec = self.spec
            law = spec.law
            d = law.log_scale

            def leaf(gen):
                return {i: v for i, v in enumerate(law.pack_scaled(self.images[gen])) if v}

            # the column of a tree of weight w comes out scaled by d^w
            value = _tree_evaluator(leaf, law.bracket_vec)
            if spec.relations is not None:
                _check_relators(spec, value, d)
            entries = []
            for j, e in enumerate(_basis_entries(spec)):
                scale = d ** e.weight
                for i, v in value(e).items():
                    num, den = v.as_integer_ratio()
                    entries.append((i, j, num, den * scale))
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


def _check_relators(spec, value, d):
    """Raise :class:`SpecError` unless the map kills every relator of ``spec``.

    ``value(entry)`` is ``d^weight`` times the image of the cover's Lie basis
    vector ``entry`` in the quotient algebra ``L / I``.  The images define an
    endomorphism exactly when ``log r`` of every relator ``r`` maps into ``I``,
    that is, to zero here.
    """
    top = spec.nilpotency_class
    for r in spec.relators:
        residue = {}
        for entry, v in zip(spec.basis.entries, spec.free_cover.law.pack_scaled(r)):
            if v:
                residue = assoc.add(residue, assoc.scale(value(entry), v * d ** (top - entry.weight)))
        if residue:
            raise SpecError("generator images do not respect the relators of the quotient")


def identity_endomorphism(spec):
    return Endomorphism(spec, [spec.indicator(k) for k in range(spec.rank)])


def _step(law, columns, denominator, p):
    """``(q, exp(q / D))`` for ``q = M p / denominator``: one linear step on the
    scaled logarithm ``p``, with the law's ``log_scale`` ``D``.

    ``M p`` is scattered over the sparse integer columns ``((i, m_ij), ...)``
    of ``M``, skipping the zero entries of ``p``; the division by
    ``denominator`` is one ``divmod`` per entry, and the first nonzero
    remainder raises :class:`~nilentropy.mpoly.IntegralityError`.  Every
    division is checked.
    """
    q = [0] * len(columns)
    for v, column in zip(p, columns):
        if v:
            for i, m in column:
                q[i] += m * v
    if denominator != 1:
        q, remainders = zip(*map(divmod, q, repeat(denominator)))
        if any(remainders):
            _inexact(denominator, next(filter(None, remainders)))
    return q, law.unpack_scaled(q)


def apply(phi, g):
    """Image of ``g``: ``exp(L log g)`` through the integer linear map of ``phi``."""
    g = phi.spec.check_vector(g)
    law = phi.spec.law
    return _step(law, *phi.linear_map, law.pack_scaled(g))[1]


def _orbit(phi, g):
    """``phi(g), phi^2(g), ...`` without end, for a checked vector ``g``.

    The scaled logarithm ``D log phi^n(g)`` is integral, since ``phi^n(g)`` is
    a group element, and carries from one step to the next: the orbit packs
    once.
    """
    law = phi.spec.law
    columns, denominator = phi.linear_map
    p = law.pack_scaled(g)
    while True:
        p, h = _step(law, columns, denominator, p)
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
    psi = Endomorphism(spec, [_step(law, inv_columns, inv_denominator,
                                    law.pack_scaled(spec.indicator(j)))[1]
                              for j in range(spec.rank)])
    for j in range(spec.rank):
        if apply(phi, psi.images[j]) != spec.indicator(j):
            raise SpecError("inverse image does not map back to its generator")
    return psi


# ---------------------------------------------------------------------------
# spectral analysis of integer matrices


@dataclass(frozen=True)
class SpectralReport:
    """Characteristic data of an integer matrix.

    ``charpoly`` lists the monic coefficients from the leading term down.
    ``radius_gap`` is ``spectral_radius - 1`` when the matrix is not
    quasi-unipotent, else ``None``.
    """

    charpoly: tuple
    spectral_radius: float
    radius_error: float
    unipotent: bool
    quasi_unipotent: bool
    radius_gap: float | None


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


def _poly_divmod(num, den):
    """Quotient and remainder of polynomials given leading coefficient first.

    ``den`` is monic, or divides ``num`` exactly over the integers.
    """
    num = list(num)
    quo = []
    for i in range(len(num) - len(den) + 1):
        c = num[i] if den[0] == 1 else exact_quotient(num[i], den[0])
        quo.append(c)
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    rem = num[len(quo):]
    while rem and not rem[0]:
        rem.pop(0)
    return quo, rem


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


def _totient(k):
    out, m, p = k, k, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    return out - out // m if m > 1 else out


@lru_cache(maxsize=None)
def _cyclotomic(k):
    """The k-th cyclotomic polynomial: ``x^k - 1`` over all ``Phi_d``, ``d | k, d < k``."""
    poly = [1] + [0] * (k - 1) + [-1]
    for d in range(1, k):
        if k % d == 0:
            poly, rem = _poly_divmod(poly, _cyclotomic(d))
            assert not rem, "cyclotomic division left a remainder"
    return tuple(poly)


def _cyclotomic_deflate(poly):
    """Divide out cyclotomic factors; True when nothing else remains."""
    rem = list(poly)
    deg = len(rem) - 1
    # totient(k) <= deg forces k <= 2 * deg^2 + 1 comfortably
    for k in range(1, 2 * deg * deg + 3):
        if len(rem) == 1:
            break
        if _totient(k) > len(rem) - 1:
            continue
        cyc = _cyclotomic(k)
        while len(rem) >= len(cyc):
            quo, r = _poly_divmod(rem, cyc)
            if r:
                break
            rem = quo
    return len(rem) == 1


def _derivative(poly):
    deg = len(poly) - 1
    return [c * (deg - i) for i, c in enumerate(poly[:-1])]


def _squarefree(coeffs):
    """Primitive integer polynomial with the roots of ``coeffs``, each simple."""
    denom = math.lcm(*(Fraction(c).denominator for c in coeffs))
    poly = _primitive([int(c * denom) for c in coeffs])
    a, b = poly, _derivative(poly)
    while b:
        a, b = b, _pseudo_rem(a, b)
    # a primitive divisor divides exactly over the integers (Gauss's lemma)
    return _primitive(_poly_divmod(poly, _primitive(a))[0])


def _sturm(poly):
    """Sturm sequence of a squarefree integer polynomial, up to positive factors."""
    seq = [poly, _derivative(poly)]
    while True:
        rem = _pseudo_rem(seq[-2], seq[-1])
        if not rem:
            return seq
        seq.append([-c for c in rem])


def _sign_at(poly, num, k):
    """Sign of ``poly(num / 2^k)``, from the integer ``2^(k deg) poly(num / 2^k)``."""
    acc, shift = poly[0], 0
    for c in poly[1:]:
        shift += k
        acc = acc * num + (c << shift)
    return (acc > 0) - (acc < 0)


def _changes(values):
    """Sign changes along a sequence, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sturm_count(sturm, num, k):
    """Sign changes of the Sturm sequence at ``num / 2^k``."""
    return _changes([_sign_at(p, num, k) for p in sturm])


def _largest_root(poly, sturm):
    """Correctly rounded largest root of a squarefree integer polynomial with
    real roots, given its Sturm sequence.

    Sturm counts isolate the root in a dyadic interval; bisection on the sign
    of ``poly`` alone then narrows it until both ends round to one float.
    """
    bits = max(abs(c) for c in poly).bit_length() + 1  # Cauchy: roots in (-2^bits, 2^bits)
    lo, hi, k = -1 << bits, 1 << bits, 0
    count = _sturm_count(sturm, lo, k) - _sturm_count(sturm, hi, k)
    # invariant: the largest root lies in (lo, hi] / 2^k with count roots there
    while count > 1:
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) // 2
        upper = _sturm_count(sturm, mid, k) - _sturm_count(sturm, hi, k)
        if upper:
            lo, count = mid, upper
        else:
            hi = mid
    top = _sign_at(poly, hi, k)
    while top and lo / (1 << k) != hi / (1 << k):
        for _ in range(16):  # bisection steps between the float comparisons
            lo, hi, k = 2 * lo, 2 * hi, k + 1
            mid = (lo + hi) // 2
            sign = _sign_at(poly, mid, k)
            if not sign:
                return mid / (1 << k)
            if sign == top:
                hi = mid
            else:
                lo = mid
    return hi / (1 << k)


def _spectral_radius(coeffs):
    """Largest modulus of a root of the characteristic polynomial ``coeffs``."""
    poly = _squarefree(coeffs)
    deg = len(poly) - 1
    sturm = _sturm(poly)
    at_minus = [p[0] * (-1) ** (len(p) - 1) for p in sturm]
    real_roots = _changes(at_minus) - _changes([p[0] for p in sturm])
    if real_roots == deg:
        # the smallest root of poly is minus the largest of poly(-x)
        mirrored = [c * (-1) ** i for i, c in enumerate(poly)]
        return max(_largest_root(poly, sturm), _largest_root(mirrored, _sturm(mirrored)))
    # the eigenvalues of C (x) C are the products of two roots; the largest
    # real one is |root|^2 for a root of largest modulus, so the radius is the
    # largest real root of r(z^2) for the characteristic polynomial r
    companion = [[int(i == j + 1) for j in range(deg - 1)]
                 + [_exact(Fraction(-poly[deg - i], poly[0]))] for i in range(deg)]
    kron = [[a * b for a in row for b in other] for row in companion for other in companion]
    squares = _squarefree([c for r in _charpoly(kron) for c in (r, 0)][:-1])
    return _largest_root(squares, _sturm(squares))


def spectral_report(matrix):
    """Exact unipotence tests plus a certified spectral radius."""
    rows = _as_matrix_rows(matrix)
    n = len(rows)
    coeffs = _charpoly(rows)
    # unipotent: every eigenvalue is 1, so the charpoly is (x - 1)^n
    unipotent = coeffs == tuple((-1) ** i * math.comb(n, i) for i in range(n + 1))

    # strip zero eigenvalues; they rule out quasi-unipotence on their own
    data = list(coeffs)
    had_zero = False
    while len(data) > 1 and data[-1] == 0:
        data.pop()
        had_zero = True
    quasi = unipotent or (not had_zero and _cyclotomic_deflate(data))

    if quasi:
        radius = 1.0
        error = 0.0
        gap = None
    else:
        radius = _spectral_radius(coeffs)
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
