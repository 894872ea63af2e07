"""Endomorphisms of nilpotent group specs and their linear invariants.

An endomorphism is stored by its generator images.  By the Mal'cev
correspondence it acts linearly on the rational Lie algebra of the group:
``log phi(g) = L log g``.  The columns of ``L`` on the Lie basis are the
logarithms of the generator images and, for every other basis entry, the
same commutator tree of brackets over those columns (for a quotient spec the
trees are the free-cover entries at the kept positions).  ``L`` is cleared of
denominators into an integer matrix once per endomorphism, and :func:`apply`
is then one generated ``pack``, one sparse integer matrix-vector product and
one generated ``unpack``, with every division checked.  The images of the
basis elements themselves (:attr:`Endomorphism.basis_images`, read by the
graded matrices) are the same trees evaluated as group commutators.

The spectral report of an integer matrix is exact integer code: a Berkowitz
characteristic polynomial, cyclotomic deflation, and a spectral radius
isolated by Sturm sequences; only spectra with non-real roots fall back to
sympy, which is imported where it is still needed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .collect import _vec_add, _vec_scale
from .mpoly import ExactDivisionError, exact_quotient
from .nilgroup import (
    IntegralityError,
    SpecError,
    _law_commutator,
    inverse,
    multiply,
    power,
)

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
    """The commutator trees of the spec's basis: kept free-cover entries for a quotient."""
    entries = spec.basis.entries
    if spec.relations is not None:
        entries = [entries[p] for p in spec._positions]
    return entries


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


class Endomorphism:
    """Endomorphism given by generator images in Mal'cev coordinates."""

    __slots__ = ("spec", "images", "_basis_images", "_linear", "_powers")

    def __init__(self, spec, images):
        if len(images) != spec.rank:
            raise SpecError(
                f"{len(images)} images for {spec.rank} generators"
            )
        self.spec = spec
        self.images = tuple(spec.check_vector(g) for g in images)
        self._basis_images = None
        self._linear = None
        self._powers = {}

    @property
    def basis_images(self):
        """Images of all basis elements, derived by commutator trees.

        Each basis element is a commutator tree in the generators, so its
        image is the same tree over the generator images; for a quotient spec
        the trees are the free-cover entries at the kept positions.
        """
        if self._basis_images is None:
            law = self.spec.law
            value = _tree_evaluator(self.images.__getitem__,
                                    lambda a, b: _law_commutator(law, a, b))
            try:
                self._basis_images = tuple(value(e) for e in _basis_entries(self.spec))
            except ExactDivisionError as exc:
                raise IntegralityError(str(exc)) from exc
        return self._basis_images

    @property
    def linear_map(self):
        """``(rows, scale, denominator)`` of the map on the Mal'cev Lie algebra.

        ``rows`` is an integer matrix ``M`` as sparse rows ``((j, m_ij), ...)``
        with ``L = M / denominator`` on the Lie basis, and ``scale`` is
        ``denominator`` times the law's ``log_scale``, so that
        ``apply(g) = unpack_scaled(M pack_scaled(g), scale)``.  On a quotient
        spec the images must respect the relators (:class:`SpecError`).
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
            columns = [
                {i: Fraction(v, d ** e.weight) for i, v in value(e).items()}
                for e in _basis_entries(spec)
            ]
            denominator = math.lcm(*(x.denominator for col in columns for x in col.values()))
            rows = [[] for _ in range(spec.dim)]
            for j, col in enumerate(columns):
                for i, x in col.items():
                    rows[i].append((j, x.numerator * (denominator // x.denominator)))
            self._linear = (tuple(map(tuple, rows)), denominator * d, denominator)
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
                residue = _vec_add(residue, _vec_scale(value(entry), v * d ** (top - entry.weight)))
        if residue:
            raise SpecError("generator images do not respect the relators of the quotient")


def identity_endomorphism(spec):
    return Endomorphism(spec, [spec.indicator(k) for k in range(spec.rank)])


def apply(phi, g):
    """Image of ``g``: ``exp(L log g)`` through the integer linear map of ``phi``."""
    law = phi.spec.law
    g = phi.spec.check_vector(g)
    rows, scale, _ = phi.linear_map
    try:
        p = law.pack_scaled(g)
        z = [sum([m * p[j] for j, m in row]) for row in rows]
        return law.unpack_scaled(z, scale)
    except ExactDivisionError as exc:
        raise IntegralityError(str(exc)) from exc


def compose(phi, psi):
    """``compose(phi, psi)(g) = phi(psi(g))``."""
    if phi.spec != psi.spec:
        raise SpecError("endomorphisms live on different specs")
    return Endomorphism(phi.spec, [apply(phi, img) for img in psi.images])


def iterate(phi, n):
    """``phi`` composed with itself ``n`` times (``n >= 0``)."""
    if n < 0:
        raise SpecError("iterate exponent must be non-negative")
    cached = phi._powers.get(n)
    if cached is not None:
        return cached
    if n == 0:
        result = identity_endomorphism(phi.spec)
        phi._powers[0] = result
        return result
    best = max((k for k in phi._powers if 1 <= k <= n), default=0)
    if best == 0:
        phi._powers[1] = phi
        best = 1
    result = phi._powers[best]
    for k in range(best + 1, n + 1):
        result = compose(phi, result)
        phi._powers[k] = result
    return result


def abelianization_matrix(phi):
    """Action on ``G/[G,G]``: columns are the weight-1 parts of the images."""
    m = phi.spec.rank
    return tuple(
        tuple(phi.images[j][i] for j in range(m)) for i in range(m)
    )


def graded_matrix(phi, d):
    """Action on the weight-``d`` graded piece (columns = basis images)."""
    spec = phi.spec
    if not 1 <= d <= spec.nilpotency_class:
        raise SpecError(
            f"weight {d} out of range 1..{spec.nilpotency_class}"
        )
    idxs = [k for k, w in enumerate(spec.weights) if w == d]
    images = phi.basis_images
    return tuple(
        tuple(images[j][i] for j in idxs) for i in idxs
    )


def linearization_matrix(phi):
    """Rational sympy ``Matrix`` of the induced map on the Mal'cev Lie algebra.

    For a free spec this is the linear map ``L`` of :attr:`Endomorphism.linear_map`,
    in coordinates of the first kind.  For a quotient spec the matrix is the
    Jacobian of the coordinate action at the identity (columns are the basis
    images); both charts are adapted to the weight filtration, so the matrix
    is block triangular with the graded actions on the diagonal either way.
    """
    import sympy

    spec = phi.spec
    n = spec.dim
    if spec.relations is not None:
        images = phi.basis_images
        return sympy.Matrix(n, n, lambda i, k: sympy.Integer(images[k][i]))
    rows, _, denominator = phi.linear_map
    out = sympy.zeros(n, n)
    for i, row in enumerate(rows):
        for j, m in row:
            out[i, j] = sympy.Rational(m, denominator)
    return out


def is_homologically_trivial(phi):
    """True when the abelianized action is the identity."""
    return abelianization_matrix(phi) == mat_identity(phi.spec.rank)


def is_automorphism(phi):
    """True when every graded piece is acted on invertibly over the integers."""
    spec = phi.spec
    for d in range(1, spec.nilpotency_class + 1):
        m = graded_matrix(phi, d)
        if m and _bareiss_det(m) not in (1, -1):
            return False
    return True


def invert(phi):
    """Inverse automorphism, found by weight-by-weight correction.

    Starts from the inverse on the abelianization and repairs the defect on
    each graded piece; the graded matrices are unimodular so the corrections
    stay integral.
    """
    import sympy

    spec = phi.spec
    if not is_automorphism(phi):
        raise SpecError("endomorphism is not invertible over the integers")
    m = spec.rank
    a = sympy.Matrix(abelianization_matrix(phi))
    a_inv = a.inv()
    images = []
    for j in range(m):
        img = spec.identity()
        for i in range(m):
            e = a_inv[i, j]
            assert e.is_integer
            if e:
                img = multiply(img, power(spec.indicator(i), int(e), spec), spec)
        images.append(img)
    psi = Endomorphism(spec, images)
    for d in range(2, spec.nilpotency_class + 1):
        idxs = [k for k, w in enumerate(spec.weights) if w == d]
        if not idxs:
            continue
        g_inv = sympy.Matrix(graded_matrix(phi, d)).inv()
        new_images = []
        dirty = False
        for j in range(m):
            defect = multiply(
                inverse(apply(phi, psi.images[j]), spec), spec.indicator(j), spec
            )
            if defect == spec.identity():
                new_images.append(psi.images[j])
                continue
            assert all(
                v == 0 for v, w in zip(defect, spec.weights) if w < d
            ), "defect below the current weight"
            rhs = sympy.Matrix([defect[k] for k in idxs])
            corr = g_inv * rhs
            fix = [0] * spec.dim
            for pos, k in enumerate(idxs):
                val = corr[pos]
                assert val.is_integer
                fix[k] = int(val)
            new_images.append(multiply(psi.images[j], tuple(fix), spec))
            dirty = True
        psi = Endomorphism(spec, new_images) if dirty else psi
    for j in range(m):
        if apply(phi, psi.images[j]) != spec.indicator(j):
            raise SpecError("inverse correction failed to converge")
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


def _bareiss_det(rows):
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
    import sympy

    x = sympy.Symbol("x")
    radius = 0.0
    for root in sympy.Poly(coeffs, x).all_roots(radicals=False):
        radius = max(radius, abs(complex(root.evalf(30))))
    return radius


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
