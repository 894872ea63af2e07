"""Collection engine: exact multiplication in coordinates of the second kind.

An element is a tuple of integer exponents along the group's basis sequence
``g = b_1^{e_1} ... b_n^{e_n}``.  The law is derived once per group inside
the rational graded Lie algebra attached to its structure constants:
coordinates are packed into a logarithm with the Campbell-Hausdorff series,
combined there, and peeled off again.  Running that derivation on symbolic
exponents produces integer polynomials for multiplication and inversion
(P. Hall's multiplication polynomials, computed as in the "Deep Thought"
approach of Leedham-Green and Soicher).  The symbolic exponents are
:class:`~nilentropy.mpoly.MPoly` polynomials (packed monomials, integer
numerators over one denominator), and the symbolic logarithm ``pack(e)``
is derived once: inversion negates it, and multiplication combines it
with a copy whose variables are shifted past the first factor's.  Each of
those polynomial maps is generated once as a straight-line Python function
(:func:`~nilentropy.mpoly.straight_line`), so the runtime path is plain
``int`` arithmetic with exact divisions and no per-term interpretation.
A word-metric ball gets one generated layer expander: the right products
``g -> g * h`` by all of its directions ``h``, each ``h`` folded into the
coefficients, evaluated inline for every element of a breadth-first layer
(:meth:`CollectionLaw.layer_expander`).  The logarithm and the exponential
themselves are generated the same way, in integer form at one fixed scale
``D``, the common denominator of the logarithm:
:meth:`CollectionLaw.pack_scaled` is ``g -> D log g`` with no division,
and :meth:`CollectionLaw.unpack_scaled` is ``z -> exp(z / D)`` with one
exact division per coordinate.  Whatever acts linearly on the Lie algebra
goes through these integer vectors: an endomorphism,
``log phi(g) = L log g``, and a power, ``log g^n = n log g``.

``log_vectors[k]`` holds the logarithm of the k-th basis group element as a
rational coordinate vector; its leading term is the k-th Lie basis vector,
which makes the peeling loop triangular.

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

from .assoc import bch_terms
from .mpoly import MPoly, compile_poly, layer_expander, straight_line


def _vec_scale(vec, s):
    if not s:
        return {}
    return {k: c * s for k, c in vec.items()}


def _vec_neg(vec):
    return {k: -c for k, c in vec.items()}


def _vec_add(x, y):
    out = dict(x)
    for k, c in y.items():
        t = out.get(k, 0) + c
        if t:
            out[k] = t
        else:
            out.pop(k, None)
    return out


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
        vectors = []
        for entry in basis.entries:
            if entry.is_generator():
                vectors.append({basis.index[entry]: Fraction(1)})
            else:
                a = vectors[basis.index[entry.left]]
                b = vectors[basis.index[entry.right]]
                vectors.append(law.group_commutator_log(a, b))
        law.log_vectors = vectors
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
                    vec = _vec_add(vec, _vec_scale(basis_vec, -vec[d]))
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

    def bracket_vec(self, x, y):
        """``[x, y]`` of two sparse vectors ``{index: coefficient}``.

        Only the pairs with a structure constant are visited: for each
        ``i`` of ``x``, the partners of ``e_i`` in :attr:`_partners`
        intersected with the keys of ``y``.
        """
        out = {}
        partners = self._partners
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

    def bch(self, x, y):
        """log(exp(x) exp(y)) truncated at the nilpotency class."""
        if not x:
            return dict(y)
        if not y:
            return dict(x)
        out = _vec_add(x, y)
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
        return self.bch(self.bch(self.bch(_vec_neg(a), _vec_neg(b)), a), b)

    def pack(self, exponents):
        """First-kind logarithm of ``prod_k b_k^{e_k}``."""
        out = {}
        for k, e in enumerate(exponents):
            if e:
                out = self.bch(out, _vec_scale(self.log_vectors[k], e))
        return out

    def unpack(self, vec):
        """Peel second-kind exponents off a logarithm; inverse of :meth:`pack`.

        Works coordinate by coordinate in weight order: subtracting
        ``e_k * log_vectors[k]`` only disturbs strictly heavier coordinates.
        """
        vec = dict(vec)
        exponents = []
        for k in range(self.dim):
            e = vec.get(k, 0)
            exponents.append(e)
            if e:
                vec = self.bch(_vec_scale(self.log_vectors[k], -e), vec)
        assert not any(vec.values()), f"unpack left a residue: {vec}"
        return exponents

    # ---- symbolic derivation of the polynomial laws ----

    def _sym_polys(self, exponents):
        nvars = next((p.nvars for p in exponents if isinstance(p, MPoly)), 0)
        return tuple(
            p if isinstance(p, MPoly) else MPoly.const(nvars, p)
            for p in exponents
        )

    @cached_property
    def _pack_sym(self):
        """``log g`` for symbolic ``g``: :meth:`pack` on the variables
        ``e_0 .. e_{n-1}``, derived once for multiply, inverse and pack."""
        n = self.dim
        return self.pack([MPoly.var(n, k) for k in range(n)])

    @cached_property
    def _mul_sym(self):
        """``unpack(BCH(log g, log h))`` in the variables of ``g`` (bytes
        ``0 .. n-1`` of a monomial) and ``h`` (bytes ``n .. 2n-1``)."""
        n = self.dim
        log_g = {k: p.shifted(2 * n, 0) for k, p in self._pack_sym.items()}
        log_h = {k: p.shifted(2 * n, n) for k, p in self._pack_sym.items()}
        return self._sym_polys(self.unpack(self.bch(log_g, log_h)))

    @cached_property
    def _mul_compiled(self):
        return tuple(compile_poly(p) for p in self._mul_sym)

    @cached_property
    def _inv_compiled(self):
        polys = self._sym_polys(self.unpack(_vec_neg(self._pack_sym)))
        return tuple(compile_poly(p) for p in polys)

    @cached_property
    def _pack_compiled(self):
        """``(D, polys)``: ``D * log g`` as integer polynomials, no division."""
        n = self.dim
        vec = self._pack_sym
        compiled = [compile_poly(p)
                    for p in self._sym_polys([vec.get(k, 0) for k in range(n)])]
        scale = lcm(*(denom for denom, _ in compiled))
        return scale, tuple(
            (1, tuple((c * (scale // denom), ve) for c, ve in terms))
            for denom, terms in compiled
        )

    @cached_property
    def _unpack_compiled(self):
        """Compiled ``z -> unpack(z / D)``, ``D`` being :attr:`log_scale`.

        Output ``k`` is the unpack polynomial ``sum_m c_m z^m / denom_k``
        with ``D`` folded in: a monomial of degree ``deg`` gets the
        coefficient ``c_m * D^(top_k - deg)`` over the denominator
        ``denom_k * D^top_k``, ``top_k`` being the output's top degree, so
        each output is one exact division.
        """
        n = self.dim
        scale = self.log_scale
        polys = self._sym_polys(self.unpack({k: MPoly.var(n, k) for k in range(n)}))
        compiled = []
        for denom, terms in map(compile_poly, polys):
            degs = [sum(e for _, e in ve) for _, ve in terms]
            top = max(degs, default=0)
            compiled.append((denom * scale ** top, tuple(
                (c * scale ** (top - deg), ve) for (c, ve), deg in zip(terms, degs)
            )))
        return tuple(compiled)

    # ---- generated evaluators and runtime entry points ----

    @cached_property
    def _mul(self):
        return straight_line("multiply", self._mul_compiled, (self.dim, self.dim))

    @cached_property
    def _inv(self):
        return straight_line("inverse", self._inv_compiled, (self.dim,))

    @cached_property
    def _pack(self):
        return straight_line("pack", self._pack_compiled[1], (self.dim,))

    @cached_property
    def _unpack(self):
        return straight_line("unpack_scaled", self._unpack_compiled, (self.dim,))

    @property
    def log_scale(self):
        """The common denominator ``D`` of :meth:`pack_scaled`."""
        return self._pack_compiled[0]

    def multiply(self, g, h):
        return self._mul(g, h)

    def inverse(self, g):
        return self._inv(g)

    def power(self, g, n):
        """``g^n = exp(n log g)``: :meth:`pack_scaled`, scaled by ``n``, then
        :meth:`unpack_scaled`, every division checked."""
        return self.unpack_scaled([n * v for v in self.pack_scaled(g)])

    def pack_scaled(self, g):
        """``D * log g`` as an integer vector, ``D`` being :attr:`log_scale`."""
        return self._pack(g)

    def unpack_scaled(self, z):
        """Coordinates of ``exp(z / D)`` for an integer vector ``z``, ``D``
        being :attr:`log_scale`.

        Each output is one exact division; a remainder raises
        ``ExactDivisionError``.
        """
        return self._unpack(z)

    def _layer_compiled(self, directions):
        """The multiply polynomials with each of ``directions`` substituted
        for the second factor: one compiled tuple per direction."""
        compiled = []
        for h in directions:
            assign = {self.dim + i: v for i, v in enumerate(h)}
            compiled.append(tuple(compile_poly(p.partial_eval(assign))
                                  for p in self._mul_sym))
        return compiled

    def layer_expander(self, directions):
        """Generated function expanding one BFS layer by right products.

        ``directions`` are the vectors ``h`` of the products ``g -> g * h``,
        taken in order, each folded into the coefficients of the multiply
        polynomials; see :func:`~nilentropy.mpoly.layer_expander_source`.
        """
        return layer_expander(self._layer_compiled(directions), self.dim)
