"""Group constructions: free quotients, subgroups, semidirect extensions,
surface-relator quotients, and the central series on either side.

Subgroup lattices, the lower central series, the class of a semidirect
extension and the relator test of surface maps all come from the one sift
routine ``nilgroup._sift_closure``; they differ only in the maps
(commutators with the generators, the monodromy defect) under which the
subgroup has to be closed.  A surface quotient hands ``GroupSpec`` its
relator and graded relations; the relator's normal closure decides torsion
and ranks, and the graded relations are checked against it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from . import autom, nilgroup
from .autom import _orbit, invert, linearization_matrix, spectral_report, abelianization_matrix
from .assoc import add
from .hall import HallBasis
from .linalg import nullspace
from .nilgroup import (
    GroupSpec,
    SpecError,
    _generator_commutators,
    _integer,
    _sift_closure,
    free_nilpotent,
    inverse,
    multiply,
    power,
)


def truncate(spec, k):
    """Quotient by the k-th lower central term: a spec of class ``k - 1``."""
    k = _integer(k, "truncation weight")
    if not 2 <= k <= spec.nilpotency_class + 1:
        raise SpecError(
            f"truncation weight {k} out of range 2..{spec.nilpotency_class + 1}"
        )
    if k == spec.nilpotency_class + 1:
        return spec
    if spec.relations is None:
        return free_nilpotent(spec.rank, k - 1)
    relations = {d: rows for d, rows in spec.relations.items() if d < k}
    basis = HallBasis(spec.rank, k - 1)
    cut = [tuple(r[:len(basis)]) for r in spec.relators]
    relators = [r for r in cut if any(r)]
    return GroupSpec(basis, relations=relations or None, relators=relators or None)


# ---------------------------------------------------------------------------
# subgroup lattices


class SubgroupLattice:
    """Echelonized polycyclic generating sequence for a subgroup.

    ``rows`` are coordinate vectors whose leading (lowest-index nonzero)
    coordinates are strictly increasing, with positive leading entries.
    Membership reduces leading coordinates in order; the quotient exponents
    are the subgroup's own coordinates.
    """

    def __init__(self, spec, rows):
        self.spec = spec
        self.rows = tuple(map(spec.check_vector, rows))
        self.depths = tuple(self._depth(r) for r in self.rows)

    @staticmethod
    def _depth(vec):
        for i, v in enumerate(vec):
            if v:
                return i
        return None

    def __len__(self):
        return len(self.rows)

    def __repr__(self):
        return f"SubgroupLattice(hirsch={len(self.rows)}, spec={self.spec!r})"

    @property
    def hirsch_length(self):
        return len(self.rows)

    def reduce(self, g):
        """Coefficients of ``g`` along the rows, or ``None`` if not a member."""
        law = self.spec.law
        g = self.spec.check_vector(g)
        coeffs = [0] * len(self.rows)
        while True:
            d = self._depth(g)
            if d is None:
                return tuple(coeffs)
            try:
                pos = self.depths.index(d)
            except ValueError:
                return None
            q, r = divmod(g[d], self.rows[pos][d])
            if r:
                return None
            coeffs[pos] = q
            g = law.multiply(law.power(self.rows[pos], -q), g)

    def __contains__(self, g):
        return self.reduce(g) is not None

    def member_from_coefficients(self, coeffs):
        spec = self.spec
        out = spec.identity()
        for row, c in zip(self.rows, coeffs):
            if c:
                out = multiply(out, power(row, c, spec), spec)
        return out

    def abelianized_index(self):
        """Index of the image in ``G/[G,G]``; ``None`` when infinite."""
        spec = self.spec
        weight1 = [k for k, w in enumerate(spec.weights) if w == 1]
        leads = {}
        for row, d in zip(self.rows, self.depths):
            if d in weight1:
                leads[d] = abs(row[d])
        if len(leads) != len(weight1):
            return None
        return math.prod(leads.values())

    def index(self):
        """Full index in the ambient group; ``None`` when infinite."""
        if len(self.rows) != self.spec.dim:
            return None
        return math.prod(abs(r[d]) for r, d in zip(self.rows, self.depths))


def subgroup_closure(spec, generators, budget=100_000):
    """Lattice for the subgroup generated by ``generators``.

    Sifts generators into echelon slots, combining coincident depths with
    an extended-gcd pair of powers and sifting commutators of the slots
    until the sequence is closed under the group operations.  ``budget``
    caps the group operations of the sift.
    """
    gens = [spec.check_vector(g) for g in generators]
    lattice = SubgroupLattice(
        spec, _sift_closure(spec, gens, budget=budget, what="subgroup closure")
    )
    # [b, a] = [a, b]^-1 and [a, a] = 1, so one test per unordered pair
    law = spec.law
    rows = lattice.rows
    for i, a in enumerate(rows):
        for b in rows[i + 1:]:
            if nilgroup._law_commutator(law, a, b) not in lattice:
                raise SpecError("subgroup closure failed to stabilize")
    return lattice


def _lower_central_terms(spec, rows, maps, budget=nilgroup.DEFAULT_CLOSURE_BUDGET):
    """``rows`` and then each next term while it is nontrivial: the sift
    closure of the images of the current rows under ``maps``.

    ``rows`` are the echelon rows of a subgroup closed under ``maps``.  A
    next term equal to the current one raises :class:`SpecError`: the series
    stalls, so the group is not nilpotent.
    """
    while rows:
        yield rows
        nxt = _sift_closure(
            spec, [image(row) for row in rows for image in maps], maps,
            budget=budget, what="lower central series",
        )
        if nxt == rows:
            raise SpecError("lower central series stalled; extension is not nilpotent")
        rows = nxt


def lower_central_series(spec, budget=100_000):
    """Lattices of the lower central terms, from the whole group down.

    Returns ``[G, [G,G], ...]`` ending with the last nontrivial term.  Each
    term ``[H, G]`` is the normal closure of the commutators of the rows of
    ``H`` with the generators.
    """
    # the indicators are already the echelon rows of the whole group
    whole = tuple(spec.indicator(k) for k in range(spec.dim))
    return [SubgroupLattice(spec, rows) for rows in
            _lower_central_terms(spec, whole, _generator_commutators(spec), budget)]


def quotient_ranks(series):
    """Hirsch lengths of successive quotients of a subgroup chain."""
    out = []
    for a, b in zip(series, series[1:]):
        out.append(a.hirsch_length - b.hirsch_length)
    if series:
        out.append(series[-1].hirsch_length)
    return tuple(out)


# ---------------------------------------------------------------------------
# semidirect extensions by one unipotent automorphism


class SemidirectSpec:
    """Split extension of a base spec by one integer automorphism.

    Elements are pairs ``(k, n)`` with ``k`` the exponent of the stable
    letter and ``n`` a base coordinate vector; products follow
    ``(k1, n1)(k2, n2) = (k1 + k2, monodromy^(-k2)(n1) * n2)``.
    """

    def __init__(self, base, monodromy):
        self.base = base
        self.monodromy = monodromy
        if not autom.is_automorphism(monodromy):
            raise SpecError("monodromy must be an automorphism")
        report = spectral_report(abelianization_matrix(monodromy))
        if not report.unipotent:
            raise SpecError(
                "monodromy must act unipotently on the base homology"
            )
        self._inverse = invert(monodromy)
        self.nilpotency_class = self._compute_class()

    @property
    def hirsch_length(self):
        return self.base.dim + 1

    def identity(self):
        return (0, self.base.identity())

    def monodromy_power(self, k, n):
        """Apply the k-th power of the monodromy (k any integer): step ``|k|``
        of the orbit of ``n`` under the monodromy, or under its inverse when
        ``k < 0``."""
        k = _integer(k, "monodromy power")
        n = self.base.check_vector(n)
        if k == 0:
            return n
        phi = self.monodromy if k > 0 else self._inverse
        return next(islice(_orbit(phi, n), abs(k) - 1, None))

    def multiply(self, a, b):
        k1, n1 = a
        k2, n2 = b
        return (
            k1 + k2,
            multiply(self.monodromy_power(-k2, n1), n2, self.base),
        )

    def inverse_element(self, a):
        k, n = a
        return (-k, self.monodromy_power(k, inverse(n, self.base)))

    def commutator_element(self, a, b):
        ai = self.inverse_element(a)
        bi = self.inverse_element(b)
        return self.multiply(self.multiply(self.multiply(ai, bi), a), b)

    def _compute_class(self):
        """Nilpotency class via the lower central series of the extension.

        Every term from the second on lies in the base, so the closure runs
        in base coordinates; commutation with the stable letter contributes
        the monodromy defect ``n^-1 phi^-1(n)``.
        """
        base = self.base
        law = base.law
        maps = _generator_commutators(base) + [
            lambda row: law.multiply(law.inverse(row), self.monodromy_power(-1, row))
        ]
        gens = [(1, base.identity())] + [(0, base.indicator(k)) for k in range(base.rank)]
        comms = []
        for i, a in enumerate(gens):
            for b in gens[:i]:
                k, n = self.commutator_element(a, b)
                assert k == 0
                comms.append(n)
        second = _sift_closure(base, comms, maps, what="lower central series")
        return 1 + sum(1 for _ in _lower_central_terms(base, second, maps))

    def __repr__(self):
        return (
            f"SemidirectSpec(base={self.base!r}, "
            f"class={self.nilpotency_class})"
        )


def semidirect_unipotent(base, monodromy):
    """Extension of ``base`` by a homologically unipotent automorphism."""
    if monodromy.spec != base:
        raise SpecError("monodromy is not an endomorphism of the base")
    return SemidirectSpec(base, monodromy)


# ---------------------------------------------------------------------------
# upper central series (computed on the rational Lie algebra)


def _lie_struct_matrices(spec):
    """ad-matrices of the coordinate basis as sparse columns: ``mats[j][i]``
    is the bracket ``[e_i, e_j]``."""
    units = [{i: Fraction(1)} for i in range(spec.dim)]
    return [[spec.law.bracket_vec(u, v) for u in units] for v in units]


def _semidirect_lie_matrices(sd):
    """ad-matrices for base Lie algebra extended by the monodromy logarithm."""
    n = sd.base.dim
    nilp = [[x - (i == j) for j, x in enumerate(row)]
            for i, row in enumerate(linearization_matrix(sd.monodromy))]
    # log L = sum (-1)^(k+1) (L - 1)^k / k, a finite sum when L - 1 is nilpotent
    log_m, p = [[0] * n for _ in range(n)], nilp
    for k in range(1, n + 2):
        if not any(map(any, p)):
            break
        log_m = [[a + Fraction((-1) ** (k + 1), k) * b for a, b in zip(r, q)]
                 for r, q in zip(log_m, p)]
        p = [[sum(a * b for a, b in zip(r, col)) for col in zip(*nilp)] for r in p]
    else:
        raise SpecError("monodromy linearization is not unipotent")
    log_cols = [{i: log_m[i][j] for i in range(n) if log_m[i][j]} for j in range(n)]
    # [T, Y_j] is minus the log of the monodromy applied to Y_j
    mats = [cols + [{i: -x for i, x in log_cols[j].items()}]
            for j, cols in enumerate(_lie_struct_matrices(sd.base))]
    return mats + [log_cols + [{}]]


def upper_central_lengths(spec_or_semidirect):
    """Length of the upper central series of the rational Lie structure.

    Iterates the center via kernel-of-adjoint linear algebra on the
    structure constants and returns the number of steps needed to exhaust
    the algebra.  Computed on the Lie side; agreement with the group-level
    series is checked on worked examples, not assumed.
    """
    return len(upper_central_dimensions(spec_or_semidirect))


def upper_central_dimensions(spec_or_semidirect):
    """Dimensions of successive upper central quotients of the Lie algebra.

    Each center is a ``Fraction`` nullspace: ``x`` is central modulo the
    center ``Z`` when ``w([x, e_j]) = 0`` for every basis vector ``e_j`` and
    every functional ``w`` that vanishes on ``Z``.
    """
    if isinstance(spec_or_semidirect, SemidirectSpec):
        mats = _semidirect_lie_matrices(spec_or_semidirect)
    else:
        mats = _lie_struct_matrices(spec_or_semidirect)
    n = len(mats)
    center, lengths = [], []
    while len(center) < n:
        ann = nullspace(center, n)
        cond = [[sum(w[k] * v for k, v in col.items()) for col in m] for m in mats for w in ann]
        next_center = nullspace(cond, n)
        if len(next_center) <= len(center):
            raise SpecError("upper central series stalled; algebra not nilpotent")
        lengths.append(len(next_center) - len(center))
        center = next_center
    return tuple(lengths)


# ---------------------------------------------------------------------------
# surface relator quotients


@lru_cache(maxsize=None, typed=True)
def surface_quotient(genus, nil_class):
    """Class-c quotient of the genus-g surface group (cached).

    The group is the free class-c group cut by the surface relator
    ``[x1,x2]...[x{2g-1},x{2g}]``.  Its graded relations, the ideal that the
    relator's degree-2 class ``omega`` generates, are written with the free
    cover's Lie bracket, and ``GroupSpec`` checks them against the relator's
    normal closure.  The graded pieces of a surface group are free abelian
    (Labute, J. Algebra 14, 1970), yet a closure lead other than 1 is still
    refused with :class:`TorsionDetected`, as for genus 2 at class 4.  The
    cache is typed, so a float count never finds a cached spec.
    """
    genus = _integer(genus, "genus")
    nil_class = _integer(nil_class, "class")
    if genus < 1:
        raise SpecError(f"genus must be >= 1, got {genus}")
    if nil_class < 2:
        raise SpecError("surface quotients need class >= 2")
    rank = 2 * genus
    cover = free_nilpotent(rank, nil_class)
    bracket = cover.law.bracket_vec
    units = [{k: 1} for k in range(rank)]
    omega = {}
    for i in range(genus):
        omega = add(omega, bracket(units[2 * i], units[2 * i + 1]))
    layer = [omega]
    relations = {}
    for d in range(2, nil_class + 1):
        relations[d] = [tuple(el.get(k, 0) for k in cover.basis.by_weight[d]) for el in layer]
        layer = [img for el in layer for x in units if (img := bracket(el, x))]
    relator = _surface_relator(cover, [cover.indicator(k) for k in range(rank)], genus)
    return GroupSpec(cover.basis, relations=relations, relators=[relator])


def _surface_relator(spec, gens, genus):
    """``[g1, g2] ... [g{2g-1}, g{2g}]`` over the checked vectors ``gens``."""
    law = spec.law
    out = spec.identity()
    for i in range(genus):
        out = law.multiply(out, nilgroup._law_commutator(law, gens[2 * i], gens[2 * i + 1]))
    return out


@lru_cache(maxsize=None)
def _surface_relator_closure(genus, nil_class):
    """Lattice of the surface relator's normal closure in the free group.

    These are the rows :func:`surface_quotient` builds on, sifted once
    (``nilgroup._normal_closure``) and kept for :func:`relator_check`
    without building the quotient, which refuses torsion the membership
    test does not mind (genus 2 at class 4).
    """
    spec = free_nilpotent(2 * genus, nil_class)
    base = _surface_relator(spec, [spec.indicator(k) for k in range(2 * genus)], genus)
    return SubgroupLattice(spec, nilgroup._normal_closure(spec, (base,)))


def relator_check(images, genus, nil_class):
    """Test whether generator images respect the surface relator.

    Evaluates the relator over the images inside the free class-c group.
    The images define an endomorphism of ``surface_quotient(genus,
    nil_class)`` exactly when that value lies in the relator's normal
    closure, which is decided by membership in the closure's lattice; the
    closure is sifted once per ``(genus, nil_class)``.  A degree-2 screen
    runs first: the value must carry the degree-2 class of the relator or
    of its inverse, as the image of a surface relation under a mapping
    class does, so maps such as the collapse onto one generator, whose
    relator value is trivial, are refused.
    """
    rank = 2 * genus
    spec = free_nilpotent(rank, nil_class)
    images = [spec.check_vector(g) for g in images]
    if len(images) != rank:
        raise SpecError(f"{len(images)} images for {rank} generators")
    target = _surface_relator(spec, images, genus)
    base = _surface_relator(spec, [spec.indicator(k) for k in range(rank)], genus)
    # quick graded screen: conjugation cannot move the degree-2 class
    w2 = [k for k, w in enumerate(spec.weights) if w == 2]
    t2 = tuple(target[k] for k in w2)
    if t2 not in (
        tuple(base[k] for k in w2),
        tuple(spec.law.inverse(base)[k] for k in w2),
    ):
        return False
    return target in _surface_relator_closure(genus, nil_class)
