"""Correctness gate, run after the timed units and outside their timing.

The common checks run on every workload, so each traced run touches every
layer.  They compare the group law with the independent Magnus normal form,
BFS spheres with a brute-force enumeration of words normalised by Magnus,
an entropy estimate with its certified spectral radius, the Heisenberg
distortion degree, and the surface quotient's relator and lower central
ranks.  ``torsion_probes`` attempts the two presentations that currently
raise ``TorsionDetected`` although the groups are torsion-free.
"""

from __future__ import annotations

import itertools

import nilentropy as ne
from nilentropy.assoc import magnus_normal_form

from workloads import SPHERES, derive_laws, unit_rng

MAGNUS_GROUPS = ((2, 5), (3, 4), (4, 3))
MAGNUS_WORDS = 20
MAGNUS_LENGTH = 12
BRUTE_RADIUS = 3


def _spheres(dist, radius):
    out = [0] * (radius + 1)
    for d in dist.values():
        if d <= radius:
            out[d] += 1
    return tuple(out)


def _brute_force_spheres(directions, radius, normal_form):
    """Shortest length of every element reached by a word of <= radius steps."""
    best = {}
    for n in range(radius + 1):
        for steps in itertools.product(directions, repeat=n):
            g = normal_form(steps)
            if g not in best:
                best[g] = n
    return _spheres(best, radius)


def common_checks(seed, timer):
    """``[(name, ok, detail)]`` for the checks shared by every workload."""
    results = []
    with timer.phase("gate.derive", opaque=True):
        for mc in MAGNUS_GROUPS + ((2, 2), (2, 3), (2, 4)):
            derive_laws(ne.free_nilpotent(*mc))

    rng = unit_rng(seed, "gate")
    for m, c in MAGNUS_GROUPS:
        spec = ne.free_nilpotent(m, c)
        bad = 0
        for _ in range(MAGNUS_WORDS):
            word = [(rng.randrange(m), rng.choice((-2, -1, 1, 2)))
                    for _ in range(MAGNUS_LENGTH)]
            if ne.eval_word(word, spec) != magnus_normal_form(word, spec.basis):
                bad += 1
        results.append((f"magnus F({m},{c})", bad == 0,
                        f"{MAGNUS_WORDS - bad}/{MAGNUS_WORDS} words agree"))

    f23 = ne.free_nilpotent(2, 3)
    words = [((0, 1),), ((1, 1),), ((0, 1), (1, 1))]
    words += [tuple((g, -e) for g, e in reversed(w)) for w in words]
    gens = [ne.eval_word(list(w), f23) for w in words[:3]]
    got = _spheres(ne.bfs_ball(f23, BRUTE_RADIUS, genset=gens), BRUTE_RADIUS)
    want = _brute_force_spheres(
        words, BRUTE_RADIUS,
        lambda steps: magnus_normal_form([x for w in steps for x in w], f23.basis),
    )
    results.append(("bfs spheres vs Magnus words", got == want,
                    f"bfs {got}, brute force {want}"))

    f24 = ne.free_nilpotent(2, 4)
    phi = ne.builtin_automorphism("fib", f24)
    rho = ne.spectral_report(ne.abelianization_matrix(phi)).spectral_radius
    est = ne.entropy_estimate(ne.growth_series(phi, f24.indicator(0), 30))
    ok = ne.is_automorphism(phi) and abs(est.value - rho) <= 0.05 * rho
    results.append(("entropy within 5% of spectral radius", ok,
                    f"fib on F(2,4): {est.value:.6f} vs {rho:.6f}"))

    heis = ne.free_nilpotent(2, 2)
    band = ne.karidi_band(heis, 8)
    fit = ne.distortion_profile(heis, 2)
    ok = band.lower <= band.upper and abs(fit.degree - 2.0) <= 0.2
    results.append(("Heisenberg distortion degree", ok,
                    f"degree {fit.degree:.4f} (want 2 +/- 0.2), "
                    f"band [{band.lower:.4f}, {band.upper:.4f}]"))

    with timer.phase("quotient.build", opaque=True):
        surf = ne.surface_quotient(2, 3)
    relator = surf.identity()
    for i in range(2):
        relator = ne.multiply(
            relator, ne.commutator(surf.indicator(2 * i), surf.indicator(2 * i + 1), surf),
            surf)
    ranks = ne.quotient_ranks(ne.lower_central_series(surf))
    ok = relator == surf.identity() and ranks == (4, 5, 16)
    results.append(("surface(2,3) relator and ranks", ok,
                    f"relator trivial: {relator == surf.identity()}, ranks {ranks}"))
    return results


def metric_bfs_checks(workload, seed):
    """Brute-force spheres of the first ball of each group, by products."""
    results = []
    for i in range(workload.cycle):
        inp = workload.inputs(seed, i)
        spec = workload.specs[inp["group"]]
        directions = []
        for g in inp["genset"]:
            for h in (g, ne.inverse(g, spec)):
                if h not in directions:
                    directions.append(h)

        def product(steps, spec=spec):
            out = spec.identity()
            for h in steps:
                out = ne.multiply(out, h, spec)
            return out

        got = _brute_force_spheres(directions, BRUTE_RADIUS, product)
        want = SPHERES[inp["group"]][:BRUTE_RADIUS + 1]
        results.append((f"spheres F{inp['group']} vs word products", got == want,
                        f"brute force {got}, pinned {want}"))
    return results


def torsion_probes():
    """Outcome of each known-defect presentation: the error's name or 'accepted'.

    ``GroupSpec(HallBasis(3,2), relations={2: [(2,1,0)]})`` is rejected while
    the row ``(1,2,0)`` is accepted, and ``surface_quotient(2,4)`` is rejected
    although Labute's theorem makes it torsion-free: every graded Smith factor
    is 1, and then the group side refuses an echelon lead other than 1.
    """
    control = ne.GroupSpec(ne.HallBasis(3, 2), relations={2: [(1, 2, 0)]})
    outcomes = [("control relation (1,2,0)", "accepted", control.dim)]
    probes = (
        ("relation (2,1,0) on F(3,2)",
         lambda: ne.GroupSpec(ne.HallBasis(3, 2), relations={2: [(2, 1, 0)]})),
        ("surface_quotient(2,4)", lambda: ne.surface_quotient(2, 4)),
    )
    for name, build in probes:
        try:
            spec = build()
        except ne.SpecError as exc:
            outcomes.append((name, type(exc).__name__, str(exc)))
        else:
            outcomes.append((name, "accepted", spec.dim))
    return outcomes
