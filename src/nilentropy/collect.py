"""Collection engine: exact multiplication in coordinates of the second kind.

An element is a tuple of integer exponents along the group's basis sequence
``g = b_1^{e_1} ... b_n^{e_n}``.  The law is derived once per group inside
the rational graded Lie algebra attached to its structure constants:
coordinates are packed into a logarithm with the Campbell-Hausdorff series,
combined there, and taken back through the exponential.  Running that
derivation on symbolic exponents produces integer polynomials for
multiplication and inversion (P. Hall's multiplication polynomials,
computed as in the "Deep Thought" approach of Leedham-Green and Soicher).
The symbolic exponents are :class:`~nilentropy.mpoly.MPoly` polynomials
(packed monomials, integer numerators over one denominator).

Only the logarithm ``pack(e)`` is derived on the Lie side.  It is generated
in integer form at one fixed scale ``D``, the common denominator of the
logarithm: :attr:`CollectionLaw.pack_scaled` is ``g -> D log g`` with no
division.  Its exponential :attr:`CollectionLaw.unpack_scaled`,
``(q, den) -> (z, exp(z / D))`` with ``z = q / den``, needs no derivation
of its own: the pack polynomials are unitriangular, ``z_k = D e_k +
Q_k(e_0 .. e_{k-1})`` with integer ``Q_k``, so it is generated from them by
back-substitution, one exact division by ``D`` per coordinate, after a
checked division of its input by a linear map's denominator ``den``
(:func:`~nilentropy.mpoly.orbit_step`).  It is one step of every exact
orbit.  The same text, followed by the box length of its output, is the
law's step of a Karidi orbit, :attr:`CollectionLaw.orbit_step`.  Every
other map is derived by running those generated functions on ``MPoly``
arguments, ``den`` being 1, so each polynomial map has one evaluator:
inversion is ``unpack_scaled(-pack_scaled(g))`` on the variables of ``g``,
and multiplication is ``unpack_scaled`` of
``D * BCH(pack_scaled(g) / D, pack_scaled(h) / D)`` on the variables of
``g`` and ``h``.  Each of those polynomial maps is generated once as a
straight-line Python function (:func:`~nilentropy.mpoly.straight_line`),
and that function is itself the law's entry point
(:attr:`CollectionLaw.multiply` and the others), so the runtime path is
plain ``int`` arithmetic, with no per-term interpretation and no call in
between.  Hall's polynomials take integer values, so their outputs are
generated over binomial coefficients with no checked division; only the
exponential keeps exact-division checks.  A word-metric ball gets one
generated layer expander: the right products ``g -> g * h`` by all of its
directions ``h``, each read off :attr:`CollectionLaw.multiply` run on the
variables of ``g`` and the integer ``h``, so ``h`` is folded into the
coefficients, evaluated inline for every element of a breadth-first layer
(:meth:`CollectionLaw.layer_expander`).  Whatever acts linearly on the Lie
algebra goes through the integer vectors of ``pack_scaled``: an
endomorphism, ``log phi(g) = L log g``, and a power, ``log g^n = n log g``.

``log_vectors[k]`` holds the logarithm of the k-th basis group element as a
rational coordinate vector; its leading term is the k-th Lie basis vector,
and its other terms sit at later, no lighter, coordinates.  Every bracket
lands in a strictly heavier weight, so at a later coordinate.  That makes
``pack`` unitriangular, for free groups and quotients alike.

Free groups get their structure constants from the Hall basis
(:meth:`CollectionLaw.for_free`).  A quotient by a normal subgroup gets the
same kind of law on ``L / I``, the cover's Mal'cev algebra modulo the span
of the subgroup's logarithms (:meth:`CollectionLaw.for_quotient`); its
structure constants may be rational, and its bracket is the true Mal'cev
bracket of the quotient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from .assoc import add, bch_terms, scale
from .mpoly import MPoly, compile_poly, layer_expander, orbit_step, straight_line


class CollectionLaw:
    """Multiplication, inversion, powers and the scaled logarithm for one
    group presentation."""

    def __init__(self, weights, nil_class, struct, log_vectors):
        self.weights = tuple(weights)
        self.dim = len(self.weights)
        self.nil_class = nil_class
        # struct: {(i, j): ((k, coeff), ...)} for i > j with nonzero bracket.
        self.struct = struct
        self.log_vectors = log_vectors
        self._terms = bch_terms(nil_class)

    @classmethod
    def for_free(cls, basis):
        n = len(basis)
        struct = {}
        for i in range(n):
            for j in range(i):
                pairs = basis.pair_bracket(i, j)
                if pairs:
                    struct[(i, j)] = tuple(sorted(pairs.items()))
        law = cls(basis.weights, basis.nil_class, struct, None)
        # the generators lead the basis, so generator k is coordinate k
        law.log_vectors = basis.evaluate(lambda k: {k: Fraction(1)}, law.group_commutator_log)
        return law

    @classmethod
    def for_quotient(cls, cover, rows, positions):
        """Law of the quotient of ``cover``'s group by a normal subgroup.

        ``rows`` are echelon coordinate rows of the subgroup, each with
        leading entry 1.  Their logarithms span an ideal ``I`` of the cover's
        Mal'cev algebra, and each has leading entry 1 at its row's depth, so
        the Lie basis vectors at ``positions`` (every other coordinate) span
        a complement of ``I``.  The quotient law is the ordinary law of
        ``L / I``: the cover's brackets and basis logarithms at ``positions``
        reduced modulo ``I`` and renumbered onto ``positions``.
        """
        ideal = {}  # depth -> ideal vector: 1 at its depth, 0 at the others

        def reduce(vec):
            for d, basis_vec in ideal.items():
                if vec.get(d):
                    vec = add(vec, scale(basis_vec, -vec[d]))
            return vec

        for row in reversed(rows):
            vec = reduce(cover.pack(row))
            depth = min(vec)
            assert vec[depth] == 1, "closure row without leading entry 1"
            ideal[depth] = vec
        index = {p: k for k, p in enumerate(positions)}

        def quotient(vec):
            return {index[p]: c for p, c in reduce(vec).items()}

        struct = {}
        for i, pi in enumerate(positions):
            for j, pj in enumerate(positions[:i]):
                pairs = cover.struct.get((pi, pj))
                image = quotient(dict(pairs)) if pairs else None
                if image:
                    struct[(i, j)] = tuple(sorted(image.items()))
        weights = [cover.weights[p] for p in positions]
        log_vectors = [quotient(cover.log_vectors[p]) for p in positions]
        return cls(weights, cover.nil_class, struct, log_vectors)

    # ---- Lie algebra layer (generic over Fraction / MPoly coefficients) ----

    @cached_property
    def _partners(self):
        """``{i: {j: pairs}}`` with ``[e_i, e_j] = sum c e_k`` over ``(k, c)``
        in ``pairs``, for both orders of every pair in :attr:`struct`."""
        table = {}
        for (i, j), pairs in self.struct.items():
            table.setdefault(i, {})[j] = pairs
            table.setdefault(j, {})[i] = tuple((k, -c) for k, c in pairs)
        return table

    @cached_property
    def _integral_partners(self):
        """``(S, table)``: ``S`` the least common denominator of the structure
        constants, and ``table`` :attr:`_partners` with each constant times
        ``S``.  A bracket over ``table`` is ``S`` times the bracket, so
        integer vectors bracket in integers.  On a law whose constants are
        integers (every free law), ``S`` is 1 and ``table`` is
        :attr:`_partners` itself."""
        partners = self._partners
        constants = [c for row in partners.values() for pairs in row.values() for _, c in pairs]
        if all(type(c) is int for c in constants):
            return 1, partners
        s = lcm(*(c.denominator for c in constants))
        return s, {i: {j: tuple((k, (c * s).numerator) for k, c in pairs)
                       for j, pairs in row.items()}
                   for i, row in partners.items()}

    def bracket_vec(self, x, y):
        """``[x, y]`` of two sparse vectors ``{index: coefficient}``."""
        return bracket_over(self._partners, x, y)

    def bch(self, x, y):
        """log(exp(x) exp(y)) truncated at the nilpotency class."""
        if not x:
            return dict(y)
        if not y:
            return dict(x)
        out = add(x, y)
        values = {(0,): x, (1,): y}

        def word_value(word):
            v = values.get(word)
            if v is None:
                v = self.bracket_vec(word_value(word[:-1]), values[word[-1:]])
                values[word] = v
            return v

        for d in range(2, self.nil_class + 1):
            for coeff, word in self._terms[d]:
                acc = word_value(word)
                for k, c in acc.items():
                    t = out.get(k, 0) + c * coeff
                    if t:
                        out[k] = t
                    else:
                        out.pop(k, None)
        return out

    def group_commutator_log(self, a, b):
        """log of ``exp(a)^-1 exp(b)^-1 exp(a) exp(b)``."""
        return self.bch(self.bch(self.bch(scale(a, -1), scale(b, -1)), a), b)

    def pack(self, exponents):
        """First-kind logarithm of ``prod_k b_k^{e_k}``."""
        out = {}
        for k, e in enumerate(exponents):
            if e:
                out = self.bch(out, scale(self.log_vectors[k], e))
        return out

    # ---- symbolic derivation of the polynomial laws ----

    @cached_property
    def _pack_sym(self):
        """``log g`` for symbolic ``g``: :meth:`pack` on the variables
        ``e_0 .. e_{n-1}``, the one map derived on the Lie side.  Every
        other map of the law is derived from it by running the generated
        kernels on :class:`~nilentropy.mpoly.MPoly` arguments."""
        n = self.dim
        return self.pack([MPoly.var(n, k) for k in range(n)])

    @cached_property
    def _pack_compiled(self):
        """``(D, polys)``: ``D * log g`` as integer polynomials, no division."""
        vec = self._pack_sym
        compiled = [compile_poly(vec[k]) for k in range(self.dim)]
        d = lcm(*(denom for denom, _ in compiled))
        return d, tuple(
            (1, tuple((c * (d // denom), ve) for c, ve in terms))
            for denom, terms in compiled
        )

    @cached_property
    def _inv_compiled(self):
        """``exp(-log g)``, run through :attr:`pack_scaled` and
        :attr:`unpack_scaled` on the variables of ``g``."""
        g = [MPoly.var(self.dim, k) for k in range(self.dim)]
        z = [-v for v in self.pack_scaled(g)]
        return tuple(map(compile_poly, self.unpack_scaled(z, 1)[1]))

    @cached_property
    def _mul_compiled(self):
        """``exp(BCH(log g, log h))`` in the variables of ``g`` (``0 ..
        n-1``) and ``h`` (``n .. 2n-1``): ``unpack_scaled`` of ``D *
        BCH(pack_scaled(g) / D, pack_scaled(h) / D)``."""
        n, d = self.dim, self.log_scale
        g, h = ([MPoly.var(2 * n, first + k) for k in range(n)] for first in (0, n))
        log_g, log_h = (scale(dict(enumerate(self.pack_scaled(v))), Fraction(1, d))
                        for v in (g, h))
        vec = self.bch(log_g, log_h)
        return tuple(map(compile_poly, self.unpack_scaled([vec[k] * d for k in range(n)], 1)[1]))

    # ---- generated kernels, derived on first use: the runtime entry points ----

    @cached_property
    def multiply(self):
        """``(g, h) -> g * h``."""
        return straight_line("multiply", self._mul_compiled, (self.dim, self.dim))

    @cached_property
    def inverse(self):
        """``g -> g^-1``."""
        return straight_line("inverse", self._inv_compiled, (self.dim,))

    @cached_property
    def pack_scaled(self):
        """``g -> D log g`` as an integer vector, ``D`` being :attr:`log_scale`."""
        return straight_line("pack", self._pack_compiled[1], (self.dim,))

    @cached_property
    def unpack_scaled(self):
        """``(q, den) -> (z, exp(z / D))``: one step of an orbit on scaled
        logarithms, ``D`` being :attr:`log_scale`, for integer vectors ``q``.

        ``z = q / den`` is divided entry by entry, the first remainder
        raising :class:`IntegralityError`.  The scaled logarithm is
        unitriangular: ``D log g`` has the coordinates ``z_k = D e_k +
        Q_k(e_0 .. e_{k-1})`` with integer ``Q_k``, since ``log_vectors[k]``
        is 1 at ``k`` and supported at ``k`` and later (heavier)
        coordinates, and every bracket lands in a strictly heavier weight.
        So the exponential is back-substitution into the pack polynomials,
        one checked exact division by ``D`` per coordinate: it raises
        :class:`IntegralityError` exactly when ``z / D`` is not the
        logarithm of an integer element, at the first coordinate that is
        not an integer (:func:`~nilentropy.mpoly.orbit_step_source`).
        """
        return orbit_step(*self._pack_compiled)

    @cached_property
    def orbit_step(self):
        """``(q, den) -> (z, exp(z / D), box)``: :attr:`unpack_scaled` and the
        box length ``max_k |e_k|^(1 / w_k)`` of its output, bit for bit that
        of :func:`~nilentropy.nilgroup.karidi_length`, for the Karidi series
        of :func:`~nilentropy.growth.growth_series`
        (:func:`~nilentropy.mpoly.orbit_step_source`).
        """
        return orbit_step(*self._pack_compiled, self.weights)

    @property
    def log_scale(self):
        """The common denominator ``D`` of :attr:`pack_scaled`."""
        return self._pack_compiled[0]

    def power(self, g, n):
        """``g^n = exp(n log g)``: :attr:`pack_scaled`, scaled by ``n``, then
        :attr:`unpack_scaled`, every division checked; ``n`` in {0, 1, -1}
        is the identity, ``g`` or :attr:`inverse`, with no exponential."""
        if n in (0, 1):
            return tuple(g) if n else (0,) * self.dim
        if n == -1:
            return self.inverse(g)
        return self.unpack_scaled([n * v for v in self.pack_scaled(g)], 1)[1]

    def _layer_compiled(self, directions):
        """:attr:`multiply` run on the variables of ``g`` and each of
        ``directions`` as ``h``: one compiled tuple per direction."""
        g = [MPoly.var(self.dim, k) for k in range(self.dim)]
        return [tuple(map(compile_poly, self.multiply(g, h))) for h in directions]

    def layer_expander(self, directions):
        """Generated function expanding one BFS layer by right products.

        ``directions`` are the vectors ``h`` of the products ``g -> g * h``,
        taken in order, each folded into the coefficients of the multiply
        polynomials; see :func:`~nilentropy.mpoly.layer_expander_source`.
        """
        return layer_expander(self._layer_compiled(directions), self.dim)


def bracket_over(partners, x, y):
    """``[x, y]`` of two sparse vectors ``{index: coefficient}`` under a
    partners table ``{i: {j: ((k, c), ...)}}``, ``[e_i, e_j] = sum c e_k``.

    Only the pairs with a structure constant are visited: for each ``i`` of
    ``x``, the partners of ``e_i`` intersected with the keys of ``y``.
    """
    out = {}
    for i, xi in x.items():
        row = partners.get(i)
        if row is None:
            continue
        for j in row.keys() & y.keys():
            p = xi * y[j]
            for k, c in row[j]:
                t = out.get(k, 0) + p * c
                if t:
                    out[k] = t
                else:
                    out.pop(k, None)
    return out
