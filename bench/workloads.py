"""The three seeded workloads: set-up, per-unit inputs, one unit, and its check.

Every unit goes through the package's public API.  Inputs depend only on the
seed and the unit index, so unit ``i`` of a seed is the same in every run.
Each unit builds its own ``Endomorphism`` or generating set, so per-object
caches (``basis_images``, ``_powers``, balls, right multipliers) never carry
from one unit to the next.  What persists by design: the specs with their
compiled laws, which count as set-up (``free_nilpotent`` keeps its specs in
an ``lru_cache``), and on ``metric-bfs`` the balls each unit leaves on its
spec, which is the memory ``peak_rss_mb`` sees.
"""

from __future__ import annotations

import math
import random

import nilentropy as ne


def unit_rng(seed, *key):
    return random.Random(":".join(map(str, (seed,) + key)))


def derive_laws(spec):
    """Derive the multiply, power and inverse laws through the public API."""
    g = spec.indicator(0)
    ne.multiply(g, g, spec)
    ne.power(g, 2, spec)
    ne.inverse(g, spec)


def hyperbolic_radius(block):
    (a, b), (c, d) = block
    tr, det = a + d, a * d - b * c
    return (abs(tr) + math.sqrt(tr * tr - 4 * det)) / 2


def floats(xs):
    return tuple(repr(float(x)) for x in xs)


class Workload:
    name = ""
    # units per round: inputs are balanced within a round
    cycle = 1
    # units between calls of renew(), made outside the timed units; 0: never
    epoch = 0

    def setup(self, timer):
        raise NotImplementedError

    def renew(self):
        pass

    def inputs(self, seed, i):
        raise NotImplementedError

    def run(self, inp, ops):
        """Run one unit; ``ops`` counts the public calls attempted."""
        raise NotImplementedError

    def check(self, inp, out):
        """Problems with one unit's output, as strings."""
        return []


# ---------------------------------------------------------------------------


class EntropyFree(Workload):
    """Automorphism growth on free nilpotent groups.

    Loads compiled-polynomial evaluation (``apply`` -> ``power``/``multiply``
    on integers of hundreds of bits) and the spectral report.  Never touches
    BFS, quotient reduction or closures.
    """

    name = "entropy-free"
    # F(2,5), F(2,5), F(3,4): p50 falls among F(2,5) units, p90 among F(3,4)
    groups = ((2, 5), (2, 5), (3, 4))
    cycle = 3
    # hyperbolic SL2(Z) / GL2(Z) blocks on x1, x2; columns are the images
    blocks = (
        ((1, 1), (1, 0)),
        ((2, 1), (1, 1)),
        ((1, 1), (1, 2)),
        ((0, 1), (1, 3)),
        ((3, 1), (2, 1)),
        ((1, 2), (1, 1)),
    )
    n_max = 40

    def setup(self, timer):
        with timer.phase("derive", opaque=True):
            self.specs = {mc: ne.free_nilpotent(*mc) for mc in set(self.groups)}
            for spec in self.specs.values():
                derive_laws(spec)

    def _block_order(self, seed, rnd):
        # each block once per group slot in a round of 18 units
        rng = unit_rng(seed, "blocks", rnd)
        order = []
        for _ in range(self.cycle):
            perm = list(range(len(self.blocks)))
            rng.shuffle(perm)
            order.append(perm)
        return order

    def inputs(self, seed, i):
        nb = len(self.blocks)
        rnd, pos = divmod(i, self.cycle * nb)
        slot, k = pos % self.cycle, pos // self.cycle
        block_index = self._block_order(seed, rnd)[slot][k]
        mc = self.groups[slot]
        spec = self.specs[mc]
        rng = unit_rng(seed, i)
        (a, b), (c, d) = self.blocks[block_index]
        images = []
        for j in range(spec.rank):
            v = [0] * spec.dim
            if j == 0:
                v[0], v[1] = a, c
            elif j == 1:
                v[0], v[1] = b, d
            else:
                v[j] = 1
            for pos_k, w in enumerate(spec.weights):
                if w >= 2 and rng.random() < 0.3:
                    v[pos_k] = rng.choice((-2, -1, 1, 2))
            images.append(tuple(v))
        return {
            "group": mc,
            "block": block_index,
            "images": tuple(images),
            "subject": rng.randrange(2),
        }

    def run(self, inp, ops):
        spec = self.specs[inp["group"]]
        phi = ne.Endomorphism(spec, inp["images"])
        ops[0] += 1
        is_aut = ne.is_automorphism(phi)
        ops[0] += 1
        report = ne.spectral_report(ne.abelianization_matrix(phi))
        ops[0] += 1
        series = ne.growth_series(phi, spec.indicator(inp["subject"]), self.n_max,
                                  mode="karidi")
        ops[0] += 1
        est = ne.entropy_estimate(series)
        return (
            inp["group"], inp["block"], is_aut, tuple(map(str, report.charpoly)),
            repr(report.spectral_radius), floats(series.lengths()),
            repr(est.value), tuple(est.window),
        )

    def check(self, inp, out):
        problems = []
        is_aut, radius, value = out[2], float(out[4]), float(out[6])
        if not is_aut:
            problems.append("not an automorphism")
        rho = hyperbolic_radius(self.blocks[inp["block"]])
        if abs(radius - rho) > 1e-9 * rho:
            problems.append(f"spectral radius {radius} != {rho}")
        if abs(value - radius) > 0.05 * radius:
            problems.append(f"entropy {value} not within 5% of {radius}")
        return problems


# ---------------------------------------------------------------------------


# sphere sizes at radius 0..r of every metric-bfs ball, per group
SPHERES = {
    (2, 2): (1, 6, 30, 118, 356, 874, 1838, 3470),
    (2, 3): (1, 6, 30, 150, 698, 2798, 10182),
    (3, 2): (1, 8, 56, 360, 2064, 10164),
}


class MetricBfs(Workload):
    """Word-metric balls over fresh generating sets.

    Loads ``bfs_ball`` (dict membership over 10^4 elements, with right
    multipliers compiled afresh for every generating set) and the Karidi
    band / distortion fits over the ball.  Integers stay small; no
    automorphisms, quotient reduction or closures.

    The extra generator's tail coefficients are far beyond what the radius
    reaches, so every ball of a group has the same sphere sizes whatever the
    seed; ``SPHERES`` pins them.
    """

    name = "metric-bfs"
    # (rank, class), radius, shape of the extra generator
    groups = (((2, 2), 7, "x"), ((2, 3), 6, "w2"), ((3, 2), 5, "x"))
    cycle = 3
    # fresh specs every 30 units bound the cached balls to about 130 MB, so
    # peak_rss_mb measures the same work however many units a run completes
    epoch = 30

    def setup(self, timer):
        with timer.phase("derive", opaque=True):
            self.renew()

    def renew(self):
        self.specs = {}
        for mc, _, _ in self.groups:
            spec = ne.GroupSpec(ne.HallBasis(*mc))
            derive_laws(spec)
            self.specs[mc] = spec

    def inputs(self, seed, i):
        mc, radius, shape = self.groups[i % self.cycle]
        spec = self.specs[mc]
        rng = unit_rng(seed, i)
        extra = [0] * spec.dim
        if shape == "x":
            a, b = rng.sample(range(spec.rank), 2)
            extra[a], extra[b] = rng.choice((-1, 1)), rng.choice((-1, 1))
            tail = [k for k, w in enumerate(spec.weights) if w >= 2]
        else:
            extra[rng.choice([k for k, w in enumerate(spec.weights) if w == 2])] = (
                rng.choice((-1, 1)))
            tail = [k for k, w in enumerate(spec.weights) if w >= 3]
        for k in tail:
            extra[k] = rng.choice((-1, 1)) * rng.randint(10**4, 10**6)
        gens = tuple(spec.indicator(k) for k in range(spec.rank)) + (tuple(extra),)
        return {"group": mc, "radius": radius, "genset": gens}

    def run(self, inp, ops):
        spec = self.specs[inp["group"]]
        r, gens = inp["radius"], inp["genset"]
        ops[0] += 1
        ball = ne.bfs_ball(spec, r, genset=gens)
        spheres = [0] * (r + 1)
        for d in ball.values():
            spheres[d] += 1
        ops[0] += 1
        band = ne.karidi_band(spec, r, genset=gens)
        ops[0] += 1
        fit = ne.distortion_profile(spec, spec.nilpotency_class, radius=r, genset=gens)
        return (
            inp["group"], tuple(spheres),
            floats((band.lower, band.upper, band.constant)), band.size,
            floats((fit.degree, fit.correlation)),
        )

    def check(self, inp, out):
        problems = []
        spheres, size = out[1], out[3]
        want = SPHERES[inp["group"]]
        if spheres != want:
            problems.append(f"sphere sizes {spheres}, want {want}")
        if size != sum(spheres) - 1:
            problems.append(f"band size {size} != ball size {sum(spheres) - 1}")
        lower, upper = float(out[2][0]), float(out[2][1])
        if not 0 < lower <= upper:
            problems.append(f"band [{lower}, {upper}] is empty")
        return problems


# ---------------------------------------------------------------------------


def twist_images(spec, which):
    """Generator images of a handle Dehn twist: x2 -> x1 x2 or x1 -> x2 x1."""
    x = [spec.indicator(k) for k in range(spec.rank)]
    if which == "a":
        x[1] = ne.multiply(x[0], x[1], spec)
    else:
        x[0] = ne.multiply(x[1], x[0], spec)
    return x


class QuotientSurface(Workload):
    """Automorphism growth and closures in the genus-2, class-3 surface quotient.

    Every operation goes through the cover-reduction law of the quotient,
    and each unit runs the sift closure.  The other workloads bypass both.
    """

    name = "quotient-surface"
    cycle = 1
    genus, nil_class = 2, 3
    word_length = 20
    n_max = 40
    golden_sq = (3 + math.sqrt(5)) / 2

    def setup(self, timer):
        with timer.phase("derive", opaque=True):
            cover = ne.free_nilpotent(2 * self.genus, self.nil_class)
            derive_laws(cover)
        with timer.phase("quotient.build", opaque=True):
            self.spec = ne.surface_quotient(self.genus, self.nil_class)
        # phi = (x2 -> x1 x2) o (x1 -> x2 x1), each twist checked on the relator
        for which in "ab":
            if not ne.relator_check(twist_images(cover, which), self.genus, self.nil_class):
                raise RuntimeError(f"twist {which} does not preserve the relator")
        spec = self.spec
        twist_a = ne.Endomorphism(spec, twist_images(spec, "a"))
        twist_b = ne.Endomorphism(spec, twist_images(spec, "b"))
        self.images = ne.compose(twist_a, twist_b).images
        rho = ne.spectral_report(
            ne.abelianization_matrix(ne.Endomorphism(spec, self.images))
        ).spectral_radius
        if abs(rho - self.golden_sq) > 1e-9:
            raise RuntimeError(f"spectral radius {rho}, want {self.golden_sq}")
        self.rho = rho

    def _word(self, rng, need_block):
        rank = 2 * self.genus
        while True:
            word = [(rng.randrange(rank), rng.choice((-1, 1)))
                    for _ in range(self.word_length)]
            # growth at rate rho needs a nonzero image on the x1, x2 block
            if not need_block or any(sum(e for g, e in word if g == k) for k in (0, 1)):
                return tuple(word)

    def inputs(self, seed, i):
        rng = unit_rng(seed, i)
        return {"words": (self._word(rng, True), self._word(rng, False))}

    def run(self, inp, ops):
        spec = self.spec
        w1, w2 = inp["words"]
        ops[0] += 1
        g1 = ne.eval_word(w1, spec)
        ops[0] += 1
        g2 = ne.eval_word(w2, spec)
        phi = ne.Endomorphism(spec, self.images)
        ops[0] += 1
        series = ne.growth_series(phi, g1, self.n_max, mode="karidi")
        ops[0] += 1
        est = ne.entropy_estimate(series)
        ops[0] += 1
        lattice = ne.subgroup_closure(spec, [g1, g2])
        return (
            g1, g2, floats(series.lengths()), repr(est.value), tuple(est.window),
            lattice.rows,
        )

    def check(self, inp, out):
        problems = []
        value = float(out[3])
        if abs(value - self.rho) > 0.05 * self.rho:
            problems.append(f"entropy {value} not within 5% of {self.rho}")
        lattice = ne.SubgroupLattice(self.spec, out[5])
        for g in out[:2]:
            if g not in lattice:
                problems.append(f"{g} missing from its own closure")
        return problems


WORKLOADS = {w.name: w for w in (EntropyFree, MetricBfs, QuotientSurface)}
