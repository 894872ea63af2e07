"""Hall bases of free nilpotent Lie rings and their structure constants.

A basis entry is either a generator or a bracket ``[u, v]`` of earlier
entries satisfying the Hall condition.  Brackets of arbitrary entries are
straightened onto the basis with the Jacobi identity; the resulting pair
table is the structure-constant table of every group law.
"""

from __future__ import annotations

from functools import total_ordering


@total_ordering
class BasicCommutator:
    """Immutable commutator tree over generators ``x1 .. xm``.

    Ordering is by weight first, then by a deterministic structural key
    (generator index, then recursively the pair ``(left, right)``).
    """

    __slots__ = ("gen", "left", "right", "weight", "key")

    def __init__(self, gen=None, left=None, right=None):
        if gen is not None:
            assert left is None and right is None
            self.gen = gen
            self.left = None
            self.right = None
            self.weight = 1
            self.key = (1, (0, gen))
        else:
            assert left is not None and right is not None
            self.gen = None
            self.left = left
            self.right = right
            self.weight = left.weight + right.weight
            self.key = (self.weight, (1, left.key, right.key))

    def is_generator(self):
        return self.gen is not None

    def __eq__(self, other):
        return isinstance(other, BasicCommutator) and self.key == other.key

    def __lt__(self, other):
        return self.key < other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        if self.gen is not None:
            return f"x{self.gen + 1}"
        return f"[{self.left!r},{self.right!r}]"


def _hall_pair_ok(u, v):
    # u > v, and if u = [p, q] then q <= v.
    if not u > v:
        return False
    if u.is_generator():
        return True
    return not u.right > v


# The most entries a Hall basis may have.  A rank and class whose Witt
# dimension passes it raise SpecError before any entry is built: rank 2 and
# class 40 would have 5.6e10 entries.  A basis this size builds in under half
# a second; the specs the package derives laws for are far smaller (F(4,6)
# has 964 entries and F(7,4) 728).
MAX_DIMENSION = 1 << 15


def _witt_dimension(rank, nil_class, limit):
    """The number of Hall basis entries of weight at most ``nil_class``, or a
    partial count above ``limit`` once it passes ``limit``.

    By Witt's formula the weight-``d`` layer has ``N(d)`` entries, the number
    of aperiodic necklaces of length ``d`` in ``rank`` letters, so
    ``rank^d = sum(e * N(e) for e | d)``.
    """
    if rank == 1:
        return 1
    layers, total = [0], 0
    for d in range(1, nil_class + 1):
        periodic = sum(e * layers[e] for e in range(1, d // 2 + 1) if d % e == 0)
        layers.append((rank ** d - periodic) // d)
        total += layers[d]
        if total > limit:
            break
    return total


class HallBasis:
    """Hall basis of the free Lie ring of given rank, truncated at ``nil_class``.

    A rank and class with more than :data:`MAX_DIMENSION` entries raise
    :class:`~nilentropy.nilgroup.SpecError` before anything is built.
    """

    def __init__(self, rank, nil_class):
        from .nilgroup import SpecError, _integer  # nilgroup imports this module

        rank = _integer(rank, "rank")
        nil_class = _integer(nil_class, "class")
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if nil_class < 1:
            raise ValueError(f"class must be >= 1, got {nil_class}")
        if _witt_dimension(rank, nil_class, MAX_DIMENSION) > MAX_DIMENSION:
            raise SpecError(f"a Hall basis of rank {rank} and class {nil_class} has more "
                            f"than {MAX_DIMENSION} entries")
        self.rank = rank
        self.nil_class = nil_class
        # only the nonempty layers, so that rank 1 pairs one layer per class
        by_weight = {1: [BasicCommutator(gen=i) for i in range(rank)]}
        for d in range(2, nil_class + 1):
            layer = sorted(BasicCommutator(left=u, right=v)
                           for wu, us in by_weight.items() if d - wu in by_weight
                           for u in us for v in by_weight[d - wu] if _hall_pair_ok(u, v))
            if layer:
                by_weight[d] = layer
        entries = [e for layer in by_weight.values() for e in layer]
        self.entries = tuple(entries)
        self.index = {e: i for i, e in enumerate(entries)}
        self.weights = tuple(e.weight for e in entries)
        self.by_weight = {
            d: tuple(self.index[e] for e in by_weight.get(d, ()))
            for d in range(1, nil_class + 1)
        }
        self._pair_cache = {}

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        return f"HallBasis(rank={self.rank}, class={self.nil_class})"

    def graded_dimension(self, d):
        from .nilgroup import _integer  # nilgroup imports this module

        d = _integer(d, "weight")
        if not 1 <= d <= self.nil_class:
            raise ValueError(
                f"weight {d} out of range 1..{self.nil_class}"
            )
        return len(self.by_weight[d])

    def pair_bracket(self, i, j):
        """Bracket of basis entries ``i`` and ``j`` as ``{index: coefficient}``.

        Brackets of total weight above the class truncate to zero silently.
        """
        if i == j:
            return {}
        if i < j:
            return {k: -c for k, c in self.pair_bracket(j, i).items()}
        cached = self._pair_cache.get((i, j))
        if cached is not None:
            return cached
        u, v = self.entries[i], self.entries[j]
        w = u.weight + v.weight
        if w > self.nil_class:
            result = {}
        elif _hall_pair_ok(u, v):
            result = {self.index[BasicCommutator(left=u, right=v)]: 1}
        else:
            # u = [p, q] with q > v; straighten with Jacobi:
            # [[p,q],v] = [[p,v],q] + [p,[q,v]].
            p, q = self.index[u.left], self.index[u.right]
            result = {}
            for k, c in self.pair_bracket(p, j).items():
                for k2, c2 in self.pair_bracket(k, q).items():
                    result[k2] = result.get(k2, 0) + c * c2
            for k, c in self.pair_bracket(q, j).items():
                for k2, c2 in self.pair_bracket(p, k).items():
                    result[k2] = result.get(k2, 0) + c * c2
            result = {k: c for k, c in result.items() if c}
        self._pair_cache[(i, j)] = result
        return result
