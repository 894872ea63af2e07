"""Finitely generated torsion-free nilpotent groups in Mal'cev coordinates.

A :class:`GroupSpec` describes either a free nilpotent group (rank m,
class c, basis of basic commutators) or a quotient of one by the normal
closure of some relators.  Elements are plain tuples of integers: the
exponents of the normal form ``g = b_1^{e_1} ... b_n^{e_n}`` along the basis
sequence; a quotient keeps the free basis entries off the leading
coordinates of its normal subgroup.  Every spec runs one kind of group law,
a :class:`~nilentropy.collect.CollectionLaw`, and one polycyclic sift
routine serves the normal closure here and the subgroup lattices and
central series in :mod:`nilentropy.constructions`.
"""

from __future__ import annotations

import math
import operator
import re
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Mapping
from functools import lru_cache
from itertools import compress

from .collect import CollectionLaw
from .hall import HallBasis
from .linalg import smith_factors
from .mpoly import _root, box

DEFAULT_RADIUS_CAP = 10
DEFAULT_BALL_BUDGET = 10_000_000

JSON_INT_LIMIT = 2 ** 53


class SpecError(ValueError):
    """Invalid group data or arguments inconsistent with a spec."""


class SpecFormatError(SpecError):
    """Malformed serialized spec, vector or word."""


class TorsionDetected(SpecError):
    """A graded quotient piece has torsion; no Mal'cev basis over it."""


class BallBudgetExceeded(RuntimeError):
    """Metric ball enumeration hit the configured element budget."""


class GrowthWarning(UserWarning):
    """Non-fatal measurement issues (unresolved lengths, exhausted searches)."""


def _coordinates(g, dim):
    """``g`` as a tuple of ``dim`` ints; anything else raises :class:`SpecError`."""
    try:
        g = tuple(operator.index(x) for x in g)
    except TypeError as exc:
        raise SpecError(f"coordinates must be integers: {exc}") from exc
    if len(g) != dim:
        raise SpecError(f"vector of length {len(g)}, expected {dim}")
    return g


def _integer(value, what):
    """``value`` as an ``int``; a float or other non-integral count is refused."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise SpecError(f"{what} must be an integer: {exc}") from exc


# ---------------------------------------------------------------------------
# length records, words and group specs


class KaridiEstimate(namedtuple("KaridiEstimate", ["value"])):
    """Coordinate box length ``max_i |e_i|^(1/weight_i)``.

    The comparison constant between this proxy and the word metric is
    measured by :func:`karidi_band`, which returns it.
    """

    __slots__ = ()


class KaridiBand(namedtuple("KaridiBand", ["lower", "upper", "constant", "radius", "size"])):
    """Measured two-sided comparison between box length and word length."""

    __slots__ = ()


class WordExpr:
    """Formal word over the generators ``x1 .. xm`` and their inverses.

    Stored as runs ``(generator_index, exponent)`` with 0-based indices.
    """

    __slots__ = ("letters",)

    _TOKEN = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")

    def __init__(self, letters):
        self.letters = tuple((_integer(g, "generator index"), _integer(e, "exponent"))
                             for g, e in letters if e)

    @classmethod
    def parse(cls, text):
        text = text.replace("⁻¹", "^-1").replace("*", " ")
        letters = []
        for tok in text.split():
            m = cls._TOKEN.match(tok)
            if not m:
                raise SpecFormatError(f"cannot parse word token {tok!r}")
            gen = int(m.group(1))
            if gen < 1:
                raise SpecFormatError(f"generator index must be >= 1 in {tok!r}")
            exp = int(m.group(2)) if m.group(2) else 1
            letters.append((gen - 1, exp))
        return cls(letters)

    def inverse(self):
        return WordExpr([(g, -e) for g, e in reversed(self.letters)])

    def __mul__(self, other):
        return WordExpr(self.letters + other.letters)

    def length(self):
        return sum(abs(e) for _, e in self.letters)

    def __repr__(self):
        if not self.letters:
            return "WordExpr('')"
        body = " ".join(
            f"x{g + 1}" + (f"^{e}" if e != 1 else "") for g, e in self.letters
        )
        return f"WordExpr({body!r})"


def _relation_rows(basis, relations):
    """The rows of ``relations`` by weight, as int tuples, each checked for
    its weight (2 to the class) and its layer's width.  Every weight is
    checked; weights given no rows, and rows of zeros, cut nothing and are
    dropped."""
    c = basis.nil_class
    relations = {} if relations is None else relations
    if not isinstance(relations, Mapping):
        raise SpecError(f"relations must map weights to rows, got {type(relations).__name__}")
    out = {}
    for d, rows in relations.items():
        d = _integer(d, "relation weight")
        if d < 2 or d > c:
            raise SpecError(f"relation weight {d} outside 2..{c}")
        try:
            rows = tuple(tuple(_integer(x, "relation entry") for x in row) for row in rows)
        except TypeError as exc:
            raise SpecError(f"relations at weight {d} must be rows of integers: {exc}") from exc
        width = basis.graded_dimension(d)
        for row in rows:
            if len(row) != width:
                raise SpecError(
                    f"relation row at weight {d} has length {len(row)}, expected {width}"
                )
        if rows := tuple(filter(any, rows)):
            out[d] = rows
    return out


class GroupSpec:
    """Presentation-level data for one torsion-free nilpotent group.

    ``relators`` gives the group relators as free-cover coordinate vectors;
    when omitted, each row of ``relations`` is read as the group element
    supported on its weight layer.  The normal closure of the relators in
    the free cover decides the quotient: a leading entry other than 1 raises
    :class:`TorsionDetected`, its leading rows give the graded ranks, and the
    law is derived on the cover's Mal'cev algebra modulo their logarithms.
    ``relations`` maps a weight to integer rows cutting that graded piece of
    the free Lie ring.  A row lattice with invariant factors other than 0 and
    1 raises :class:`TorsionDetected`; otherwise it must equal the lattice of
    the closure's leading rows at its weight, one integral cross-check per
    weight (:class:`SpecError`).  Weights given no rows, rows of zeros and
    identity relators cut nothing: without rows or relators the spec is the
    free nilpotent group on ``basis``, and relators without rows meet the
    cross-check against rank 0.  A quotient's ``free_cover`` is
    :func:`free_nilpotent` of its rank and class, laws included.
    """

    def __init__(self, basis, relations=None, generating_set=None, relators=None):
        self.basis = basis
        self.rank = basis.rank
        self.nilpotency_class = basis.nil_class
        self.relations = None
        self.relators = None
        self._ball = None
        rows = _relation_rows(basis, relations)
        if relators is not None:
            relators = tuple(filter(any, (_coordinates(r, len(basis)) for r in relators)))
            relators = relators or None
        if not rows and relators is None:
            self.dim = len(basis)
            self.weights = basis.weights
            self.free_cover = None
            self.law = CollectionLaw.for_free(basis)
            # the free basis entries a spec keeps as its coordinates: all here
            self._positions = tuple(range(self.dim))
        else:
            self.relations = rows
            self.free_cover = free_nilpotent(basis.rank, basis.nil_class)
            self._build_quotient(self.free_cover, relators)
        if generating_set is None:
            self.generating_set = tuple(
                self.indicator(k) for k in range(self.rank)
            )
        else:
            self.generating_set = tuple(
                tuple(_integer(x, "generating set entry") for x in g) for g in generating_set
            )
            for g in self.generating_set:
                if len(g) != self.dim:
                    raise SpecError(
                        f"generating set vector of length {len(g)}, expected {self.dim}"
                    )

    # -- quotient construction -------------------------------------------

    def _build_quotient(self, cover, relators):
        basis = self.basis
        c = basis.nil_class
        # graded side: rank and torsion of each quotient piece
        ranks = {}
        for d in range(2, c + 1):
            factors = smith_factors(self.relations.get(d, ()))
            bad = [f for f in factors if f != 1]
            if bad:
                raise TorsionDetected(
                    f"graded piece at weight {d} has invariant factors {bad}"
                )
            ranks[d] = len(factors)
        # group side: normal closure of the relators in the free cover
        if relators is None:
            relators = self._default_relators(cover)
        for r in relators:
            if any(v for v, w in zip(r, cover.weights) if w == 1):
                raise SpecError("relators must lie in the commutator subgroup")
        self.relators = relators
        nrows = _normal_closure(cover, relators)
        # the closure's leading rows at weight d span the graded piece of N
        # there; with unit leads that lattice is saturated, so it equals the
        # saturated lattice of the given rows exactly when the ranks agree and
        # each given row reduces to zero against the leads
        depths = set()
        leads = {d: [] for d in ranks}
        for row in nrows:
            depth = next(i for i, v in enumerate(row) if v)
            if row[depth] != 1:
                raise TorsionDetected(
                    f"free coordinate {depth} gains torsion of order "
                    f"{row[depth]} in the closure of the relators"
                )
            depths.add(depth)
            d = cover.weights[depth]
            layer = basis.by_weight[d]
            leads[d].append((depth - layer[0], row[layer[0]:layer[-1] + 1]))
        for d, rank in ranks.items():
            if len(leads[d]) != rank:
                raise SpecError(
                    f"relator closure cuts rank {len(leads[d])} at weight {d}, "
                    f"graded relations cut rank {rank}"
                )
            for row in self.relations.get(d, ()):
                for pivot, lead in leads[d]:
                    f = row[pivot]
                    row = [x - f * y for x, y in zip(row, lead)]
                if any(row):
                    raise SpecError(
                        f"relator closure leaves the graded relations at weight {d}"
                    )
        positions = tuple(p for p in range(cover.dim) if p not in depths)
        self._positions = positions
        self._nrows = nrows
        self.dim = len(positions)
        self.law = CollectionLaw.for_quotient(cover.law, nrows, positions)
        self.weights = self.law.weights

    def _default_relators(self, cover):
        """Read each relation row as the element supported on its layer."""
        out = []
        for d in sorted(self.relations):
            layer = self.basis.by_weight[d]
            for row in self.relations[d]:
                vec = [0] * cover.dim
                for local, coeff in enumerate(row):
                    vec[layer[local]] = coeff
                if any(vec):
                    out.append(tuple(vec))
        return tuple(out)

    # -- basic queries ----------------------------------------------------

    def identity(self):
        return (0,) * self.dim

    def indicator(self, k):
        out = [0] * self.dim
        out[k] = 1
        return tuple(out)

    def graded_rank(self, d):
        d = _integer(d, "weight")
        if not 1 <= d <= self.nilpotency_class:
            raise SpecError(f"weight {d} out of range 1..{self.nilpotency_class}")
        return sum(1 for w in self.weights if w == d)

    @property
    def hirsch_length(self):
        return self.dim

    def check_vector(self, g):
        return _coordinates(g, self.dim)

    def __eq__(self, other):
        return (
            isinstance(other, GroupSpec)
            and self.rank == other.rank
            and self.nilpotency_class == other.nilpotency_class
            and self.relations == other.relations
            and self.relators == other.relators
            and self.generating_set == other.generating_set
        )

    def __hash__(self):
        return hash((self.rank, self.nilpotency_class, self.relators))

    def __repr__(self):
        kind = "quotient" if self.relations else "free"
        return (
            f"GroupSpec({kind}, rank={self.rank}, "
            f"class={self.nilpotency_class}, hirsch={self.dim})"
        )


@lru_cache(maxsize=None, typed=True)
def free_nilpotent(rank, nil_class):
    """Free nilpotent group of the given rank and class (cached): the cover
    every quotient of that rank and class shares, laws included.  The cache
    is typed, so a float count such as ``2.0`` never finds the spec cached
    for ``2`` and is refused by :class:`HallBasis`."""
    return GroupSpec(HallBasis(rank, nil_class))


# ---------------------------------------------------------------------------
# polycyclic sift closure (normal closures, subgroups, central series)


def _law_commutator(law, g, h):
    """``g^-1 h^-1 g h`` as ``(h g)^-1 (g h)``, straight on the law, no checks."""
    return law.multiply(law.inverse(law.multiply(h, g)), law.multiply(g, h))


def _generator_commutators(spec):
    """Maps ``row -> [row, x_k]``, one per generator ``x_k`` of ``spec``.

    A subgroup closed under them is normal: it is carried into itself by
    conjugation with every generator.
    """
    law = spec.law
    return [
        lambda row, x=spec.indicator(k): _law_commutator(law, row, x)
        for k in range(spec.rank)
    ]


DEFAULT_CLOSURE_BUDGET = 200_000


def _sift_closure(spec, generators, maps=(), budget=DEFAULT_CLOSURE_BUDGET,
                  what="closure"):
    """Echelon rows of the smallest subgroup that contains ``generators`` and
    holds the image of each of its elements under every map in ``maps``.

    Polycyclic sifting (Sims, *Computation with Finitely Presented Groups*,
    ch. 9) off one stack, by one rule: a popped ``g`` whose leading
    coordinate ``d`` meets the slot's row ``held`` becomes ``held^-q g``,
    ``q = g[d] // held[d]``.  It goes back on the stack if its entry at
    ``d`` is now 0; otherwise that remainder lies in ``(0, held[d])``, so
    ``g`` takes the slot and ``held`` goes back on the stack: Euclid's
    algorithm on the leads.  A row that lands in a slot pushes its images
    under ``maps`` and its commutators with every other slot.  When the
    stack is empty the rows are closed.  Coordinates are adapted to a
    central series, so the commutator of rows at depths ``a < b``, pushed
    when the later of the two was set, sifts only through rows deeper than
    ``b``.  Every row a slot at depth ``d`` ever held lies in the group of
    the final rows at depth ``d`` or deeper, since a displaced row is sifted
    again.  So, by induction from the deepest row up, the depth-ordered
    products of the final rows are a group, the subgroup, and no second
    pass is needed, since the back-reduction below keeps depths and leading
    entries.  Each remainder that lands strictly lowers the positive lead
    at its depth, so the Euclid steps at any one depth end.  A map only has
    to be checked on the rows when it is a defect ``g -> g^-1 a(g)`` of an
    automorphism ``a`` (commutators with a fixed element are such defects).

    Rows come back by increasing leading coordinate with positive leading
    entries, and each entry at a deeper row's depth reduced into
    ``[0, lead)``; that form depends only on the subgroup.  ``budget`` caps
    the group operations, and going over it raises :class:`SpecError`.
    """
    law = spec.law
    ops = 0

    def charge(n=1):
        nonlocal ops
        ops += n
        if ops > budget:
            raise SpecError(f"{what} exceeded its operation budget ({budget})")

    slots = {}
    stack = list(generators)
    while stack:
        g = stack.pop()
        depth = next((i for i, v in enumerate(g) if v), None)
        if depth is None:
            continue
        held = slots.get(depth)
        if held is None:
            if g[depth] < 0:
                charge()
                g = law.inverse(g)
        else:
            charge(2)
            g = law.multiply(law.power(held, -(g[depth] // held[depth])), g)
            if not g[depth]:
                stack.append(g)
                continue
            # the remainder takes the slot; the displaced row is sifted again
            stack.append(slots.pop(depth))
        for image in maps:
            charge(5)
            stack.append(image(g))
        for other in slots.values():
            charge(5)
            stack.append(_law_commutator(law, g, other))
        slots[depth] = g
    depths = sorted(slots)
    rows = [slots[d] for d in depths]
    for i in range(len(rows) - 1, -1, -1):
        row = rows[i]
        for j in range(i + 1, len(rows)):
            q = row[depths[j]] // rows[j][depths[j]]
            if q:
                charge(2)
                row = law.multiply(row, law.power(rows[j], -q))
        rows[i] = row
    return tuple(rows)


@lru_cache(maxsize=64)
def _normal_closure(cover, relators):
    """Echelon rows of the normal closure of ``relators`` in ``cover``.

    Sifted once per ``(cover, relators)`` value: a quotient build and a
    membership test on the same closure (``constructions.relator_check``)
    share the rows.
    """
    return _sift_closure(cover, relators, _generator_commutators(cover),
                         what="normal closure")


# ---------------------------------------------------------------------------
# group operations


def identity(spec):
    return spec.identity()


def multiply(g, h, spec):
    return spec.law.multiply(spec.check_vector(g), spec.check_vector(h))


def inverse(g, spec):
    return spec.law.inverse(spec.check_vector(g))


def power(g, n, spec):
    return spec.law.power(spec.check_vector(g), _integer(n, "power"))


def commutator(g, h, spec):
    """Group commutator ``g^-1 h^-1 g h``, computed as ``(h g)^-1 (g h)``."""
    return _law_commutator(spec.law, spec.check_vector(g), spec.check_vector(h))


def conjugate(g, h, spec):
    """``h^-1 g h``."""
    law = spec.law
    h = spec.check_vector(h)
    return law.multiply(law.multiply(law.inverse(h), spec.check_vector(g)), h)


def eval_word(word, spec):
    """Evaluate a word over the generators into coordinates."""
    if isinstance(word, str):
        word = WordExpr.parse(word)
    if isinstance(word, WordExpr):
        letters = word.letters
    else:
        letters = [(_integer(gen, "generator index"), _integer(e, "exponent"))
                   for gen, e in word]
    for gen, _ in letters:
        if not 0 <= gen < spec.rank:
            raise SpecError(f"generator index {gen} out of range 0..{spec.rank - 1}")
    law = spec.law
    out = spec.identity()
    for gen, e in letters:
        if e:
            # relators lie in [G, G], so coordinate gen is the generator
            # itself and its power x_gen^e is e at that coordinate
            letter = [0] * spec.dim
            letter[gen] = e
            out = law.multiply(out, letter)
    return out


def project(g, k, spec):
    """Coordinates of the image in the class-(k-1) truncation.

    Keeps the coordinates of weight below ``k``; valid for ``2 <= k <=
    class + 1`` (the top value is the identity map).
    """
    g = spec.check_vector(g)
    k = _integer(k, "truncation weight")
    if not 2 <= k <= spec.nilpotency_class + 1:
        raise SpecError(
            f"truncation weight {k} out of range 2..{spec.nilpotency_class + 1}"
        )
    return tuple(v for v, w in zip(g, spec.weights) if w < k)


def rewrite_mod_last_term(g, spec):
    """Split ``g = g' * z`` with ``g'`` top-weight-free and ``z`` central.

    ``g'`` carries the coordinates of weight below the class with the
    top-weight slots zeroed; ``z`` lands in the last lower-central term.
    """
    if spec.nilpotency_class < 2:
        raise SpecError("group is abelian; no top term to split off")
    g = spec.check_vector(g)
    c = spec.nilpotency_class
    trimmed = tuple(0 if w == c else v for v, w in zip(g, spec.weights))
    z = spec.law.multiply(spec.law.inverse(trimmed), g)
    assert all(w == c or v == 0 for v, w in zip(z, spec.weights))
    return trimmed, z


@lru_cache(maxsize=64)
def _box_kernel(weights):
    """The generated box length ``g -> max_i |e_i|^(1/w_i)`` for a tuple of
    ``weights`` (:func:`~nilentropy.mpoly.box`), compiled once per tuple."""
    return box(weights)


def _box_length(g, weights):
    """``max_i |e_i|^(1/w_i)`` over the nonzero coordinates, 0.0 at the identity."""
    return _box_kernel(tuple(weights))(g)


def _add_roots(tables, columns, weights):
    """Add ``_root(a, w)`` for every new absolute value ``a`` of each column.

    ``columns`` hold absolute coordinate values; a value already in its
    column's table keeps its root.  Returns each column's set of values.
    """
    out = []
    for table, col, w in zip(tables, columns, weights):
        values = set(col)
        table.update({a: _root(a, w) for a in values.difference(table)})
        out.append(values)
    return out


def _boxes(tables, columns):
    """The box length of each row of ``columns``, one table lookup per entry."""
    looked = [map(t.__getitem__, col) for t, col in zip(tables, columns)]
    return looked[0] if len(looked) == 1 else map(max, *looked)


def karidi_length(g, spec):
    """Box-length proxy for the word metric: ``max_i |e_i|^(1/w_i)``."""
    g = spec.check_vector(g)
    return KaridiEstimate(value=_box_length(g, spec.weights))


# ---------------------------------------------------------------------------
# metric balls


class _Ball:
    """Incrementally grown word-metric ball for one generating set.

    Directions are each generator and then its inverse, skipping the
    identity and repeats; one generated expander takes all of their right
    products, layer by layer.  Once ``dist`` has been handed to a caller it
    is copied before it grows, so a mapping the caller holds never changes.
    """

    def __init__(self, spec, genset):
        self.genset = genset
        directions = []
        for g in genset:
            for vec in (g, spec.law.inverse(g)):
                if vec != spec.identity() and vec not in directions:
                    directions.append(vec)
        self.expand = spec.law.layer_expander(directions)
        self.dist = {spec.identity(): 0}
        self.handed_out = False
        self.frontier = [spec.identity()]
        self.radius = 0

    def expand_to(self, radius, budget):
        if self.handed_out and self.radius < radius and self.frontier:
            self.dist = dict(self.dist)
            self.handed_out = False
        while self.radius < radius and self.frontier:
            new = []
            dist = self.dist
            r = self.radius + 1
            try:
                if self.expand(self.frontier, dist, new, r, budget):
                    raise BallBudgetExceeded(
                        f"ball budget {budget} exceeded at radius {r} "
                        f"({len(dist)} elements)"
                    )
            except BaseException:
                # a failed layer leaves the ball as it was at radius r - 1
                for h in new:
                    del dist[h]
                raise
            self.frontier = new
            self.radius = r


def _normalized_genset(spec, genset):
    if genset is None:
        return spec.generating_set
    return tuple(spec.check_vector(g) for g in genset)


def _get_ball(spec, genset):
    """The spec's ball for ``genset``; a new generating set replaces the
    ball of the previous one."""
    key = _normalized_genset(spec, genset)
    if spec._ball is None or spec._ball.genset != key:
        spec._ball = None  # free the old ball before growing the new one
        spec._ball = _Ball(spec, key)
    return spec._ball


def bfs_ball(spec, radius, genset=None, budget=DEFAULT_BALL_BUDGET):
    """Word lengths of all elements within ``radius``: ``{vector: length}``.

    The returned mapping may be the cache for the generating set; treat it
    as read-only.  A later call never changes it: the cache is copied before
    it grows further.  The spec keeps only the ball of its latest generating
    set: a call with another set frees it and starts anew.  Results depend
    only on the requested radius, never on how far earlier calls grew the
    cache or which generating sets they used.
    """
    radius = _integer(radius, "radius")
    if radius < 0:
        raise SpecError(f"radius must be >= 0, got {radius}")
    ball = _get_ball(spec, genset)
    ball.expand_to(radius, budget)
    if ball.radius <= radius:
        ball.handed_out = True
        return ball.dist
    return {g: d for g, d in ball.dist.items() if d <= radius}


def geodesic_length(g, spec, radius_cap=DEFAULT_RADIUS_CAP, genset=None,
                    budget=DEFAULT_BALL_BUDGET):
    """Exact word length if within ``radius_cap``, else ``None`` (unknown)."""
    g = spec.check_vector(g)
    radius_cap = _integer(radius_cap, "radius_cap")
    if radius_cap < 0:
        raise SpecError(f"radius_cap must be >= 0, got {radius_cap}")
    ball = _get_ball(spec, genset)
    found = ball.dist.get(g)
    if found is None:
        while ball.radius < radius_cap and ball.frontier:
            ball.expand_to(ball.radius + 1, budget)
            found = ball.dist.get(g)
            if found is not None:
                break
    if found is not None and found > radius_cap:
        # a deeper cached ball must not change the answer for this cap
        return None
    return found


# the coordinates of an element whose box length is 1.0
_UNIT = frozenset((-1, 0, 1))


def karidi_band(spec, radius=8, genset=None, budget=DEFAULT_BALL_BUDGET):
    """Measured ratio band between word length and box length over a ball.

    Fits the two-sided comparison constant and returns it with the band;
    nothing is recorded on the spec.  The band is read sphere by sphere from
    the distinct values of each coordinate on each sphere, with one root per
    distinct absolute value of a coordinate:

    - ``lower`` is the least ``d / maxbox_d``, where ``maxbox_d`` is the
      largest root over the values on sphere ``d``.  Float division is
      monotone, so this is the least per-element ratio exactly.
    - ``upper``: every non-identity box is at least 1.0, so sphere ``d``
      gives at most ``d``.  The spheres are scanned from the outermost
      inwards until ``d <= upper``.  A sphere with an element whose
      coordinates all lie in ``-1..1`` has least box exactly 1.0; only a
      sphere without one lists its per-element box lengths.
    """
    dist = bfs_ball(spec, radius, genset=genset, budget=budget)
    lengths = list(dist.values())
    if len(lengths) < 2:
        raise SpecError("ball too small to fit a comparison band")
    vecs = list(dist)
    weights = spec.weights
    getters = [operator.itemgetter(k) for k in range(len(weights))]
    # bfs_ball lists the ball sphere by sphere, the identity alone first, so
    # sphere d is spheres[d - 1]
    bounds = [bisect_left(lengths, d) for d in range(1, lengths[-1] + 2)]
    spheres = [vecs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    tables = [{} for _ in weights]
    heavy = getters[max(range(len(weights)), key=weights.__getitem__)]
    upper = 0.0
    most = {}  # each sphere's largest box, first where its boxes are listed
    for d in range(len(spheres), 0, -1):
        if d <= upper:
            break
        sphere = spheres[d - 1]
        # filter on the heaviest coordinate first, then test the survivors
        unit = compress(sphere, map(_UNIT.__contains__, map(heavy, sphere)))
        if any(map(_UNIT.issuperset, unit)):
            least = 1.0
        else:
            columns = [list(map(abs, col)) for col in zip(*sphere)]
            _add_roots(tables, columns, weights)
            boxes = list(_boxes(tables, columns))
            least, most[d] = min(boxes), max(boxes)
        upper = max(upper, d / least)
    lower = math.inf
    for d, sphere in enumerate(spheres, 1):
        if d not in most:
            values = _add_roots(
                tables, [map(abs, set(map(get, sphere))) for get in getters], weights)
            most[d] = max(max(map(t.__getitem__, v)) for t, v in zip(tables, values))
        lower = min(lower, d / most[d])
    constant = max(upper, 1.0 / lower if lower > 0 else math.inf, 1.0 + 1e-9)
    return KaridiBand(lower=lower, upper=upper, constant=constant,
                      radius=radius, size=len(lengths) - 1)


# ---------------------------------------------------------------------------
# serialization


def _encode_int(v):
    return v if abs(v) < JSON_INT_LIMIT else str(v)


def _decode_int(v):
    """An integer, or a string of ASCII decimal digits after an optional
    sign, as an ``int``."""
    if isinstance(v, bool):
        raise SpecFormatError(f"expected integer, got {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, str) and re.fullmatch("[+-]?[0-9]+", v):
        try:
            return int(v)
        except ValueError as exc:  # past the interpreter's digit limit
            raise SpecFormatError(f"bad integer literal {v!r}") from exc
    raise SpecFormatError(f"expected integer or decimal string, got {v!r}")


def _json_array(value, what):
    if not isinstance(value, list):
        raise SpecFormatError(f"{what} must be a JSON array, got {value!r}")
    return value


def vector_to_json(g):
    return [_encode_int(int(v)) for v in g]


def vector_from_json(data, spec=None):
    if not isinstance(data, list):
        raise SpecFormatError("vector must be a JSON array")
    vec = tuple(_decode_int(v) for v in data)
    if spec is not None and len(vec) != spec.dim:
        raise SpecFormatError(
            f"vector of length {len(vec)}, expected {spec.dim}"
        )
    return vec


def spec_to_json(spec):
    out = {
        "rank": spec.rank,
        "class": spec.nilpotency_class,
        "convention": "left-collected",
    }
    if spec.relations:
        out["relations"] = {
            str(d): [[int(x) for x in row] for row in rows]
            for d, rows in sorted(spec.relations.items())
        }
        out["relators"] = [vector_to_json(r) for r in spec.relators]
    default_gens = tuple(spec.indicator(k) for k in range(spec.rank))
    if spec.generating_set != default_gens:
        out["generating_set"] = [vector_to_json(g) for g in spec.generating_set]
    return out


def spec_from_json(data):
    if not isinstance(data, dict):
        raise SpecFormatError("spec must be a JSON object")
    for key in ("rank", "class", "convention"):
        if key not in data:
            raise SpecFormatError(f"spec is missing {key!r}")
    if data["convention"] != "left-collected":
        raise SpecFormatError(
            f"unsupported convention {data['convention']!r}"
        )
    rank = _decode_int(data["rank"])
    nil_class = _decode_int(data["class"])
    relations = None
    if "relations" in data and data["relations"]:
        if not isinstance(data["relations"], dict):
            raise SpecFormatError("relations must map weights to matrices")
        relations = {}
        for key, rows in data["relations"].items():
            try:
                d = _decode_int(key)
            except ValueError as exc:
                raise SpecFormatError(f"bad relation weight {key!r}") from exc
            relations[d] = [
                [_decode_int(x) for x in _json_array(row, f"relation row at weight {key}")]
                for row in _json_array(rows, f"relations at weight {key}")
            ]
    relators = None
    if "relators" in data and data["relators"]:
        if relations is None:
            raise SpecFormatError("relators given without relations")
        relators = [vector_from_json(r) for r in _json_array(data["relators"], "relators")]
    genset = None
    if "generating_set" in data:
        genset = [
            vector_from_json(g) for g in _json_array(data["generating_set"], "generating_set")
        ]
    try:
        return GroupSpec(
            HallBasis(rank, nil_class), relations=relations, relators=relators,
            generating_set=genset,
        )
    except TorsionDetected:
        raise
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from exc
