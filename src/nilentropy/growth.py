"""Growth of word length under automorphism iteration.

Series ℓ(φⁿ(g)) in several length modes, entropy and polynomial-degree
fits, and the comparison experiments: abelianization, quotient tower,
finite-index subgroups, and subgroup distortion.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import nilgroup
from .autom import (
    Endomorphism,
    abelianization_matrix,
    apply,
    builtin_automorphism,
    is_automorphism,
    spectral_report,
)
from .constructions import free_nilpotent, subgroup_closure, truncate
from .nilgroup import (
    GrowthWarning,
    SpecError,
    bfs_ball,
    geodesic_length,
    project,
)

MODES = ("exact-bfs", "karidi", "normalform-upper")


class InsufficientDataError(ValueError):
    """Too few series entries in the fit window."""


class DegenerateFitError(ValueError):
    """The fit is impossible (all lengths zero) or its residual is rejected."""


class ExponentialSeriesError(ValueError):
    """A polynomial-degree fit was requested on an exponential series."""


class GrowthEntry(NamedTuple):
    n: int
    length: float
    mode: str


@dataclass(frozen=True)
class GrowthSeries:
    """Lengths of φⁿ(g) for n = 1..n_max, tagged with the length mode.

    ``exact-bfs`` entries are exact integers; entries past the BFS radius
    cap are omitted (with a warning) rather than guessed.
    """

    entries: tuple
    subject: tuple | None = None
    automorphism: object | None = None

    @property
    def n_max(self):
        return max(e.n for e in self.entries) if self.entries else 0

    def lengths(self):
        return [e.length for e in self.entries]


@dataclass(frozen=True)
class EntropyEstimate:
    """Exponential rate fitted from a growth series.

    value = exp(slope) of the fit log ℓ_n = n·log K + r·log n + C over the
    window [n_max/2, n_max]; the polynomial factor n^r is fitted out so it
    does not inflate the rate.
    """

    value: float
    residual: float
    window: tuple
    poly_exponent: float


@dataclass(frozen=True)
class PolyFit:
    degree: float
    correlation: float


# ---------------------------------------------------------------------------
# length modes


def _normalform_costs(spec):
    """Word-length cost of each coordinate direction (an upper bound)."""
    cached = getattr(spec, "_nf_costs", None)
    if cached is not None:
        return cached
    basis = spec.basis
    free_costs = []
    for entry in basis.entries:
        if entry.is_generator():
            free_costs.append(1)
        else:
            free_costs.append(
                2
                * (
                    free_costs[basis.index[entry.left]]
                    + free_costs[basis.index[entry.right]]
                )
            )
    if spec.relations is None:
        costs = tuple(free_costs)
    else:
        costs = tuple(free_costs[p] for p in spec._positions)
    spec._nf_costs = costs
    return costs


def _upper_length(g, spec):
    costs = _normalform_costs(spec)
    return float(sum(abs(v) * c for v, c in zip(g, costs)))


def _length_in_mode(h, spec, mode, genset):
    if mode == "exact-bfs":
        return geodesic_length(h, spec, genset=genset)
    if mode == "karidi":
        return nilgroup._box_length(h, spec.weights)
    return _upper_length(h, spec)


# ---------------------------------------------------------------------------
# series and fits


def growth_series(phi, g, n_max, mode="karidi", genset=None):
    """Series ℓ(φⁿ(g)) for n = 1..n_max in the requested length mode."""
    if mode not in MODES:
        raise SpecError(
            f"unknown growth mode {mode!r}; expected one of {', '.join(MODES)}"
        )
    if n_max < 1:
        raise SpecError(f"n_max must be >= 1, got {n_max}")
    spec = phi.spec
    if not is_automorphism(phi):
        raise SpecError("growth series requires an automorphism")
    g = spec.check_vector(g)
    entries = []
    h = g
    for n in range(1, n_max + 1):
        h = apply(phi, h)
        length = _length_in_mode(h, spec, mode, genset)
        if length is None:
            warnings.warn(
                f"exact length unknown at n={n}; entry omitted",
                GrowthWarning,
                stacklevel=2,
            )
            continue
        entries.append(GrowthEntry(n, length, mode))
    return GrowthSeries(tuple(entries), subject=g, automorphism=phi)


def _window_entries(series):
    if not series.entries:
        raise InsufficientDataError("series has no entries")
    hi = series.n_max
    sel = [e for e in series.entries if 2 * e.n >= hi]
    return sel, (math.ceil(hi / 2), hi)


def entropy_estimate(series, residual_threshold=0.5):
    """Fit log ℓ_n = n·log K + r·log n + C and return K = exp(slope).

    Lengths below 1 are clamped to 1 for the logarithm, so K ≥ 1 always.
    """
    sel, window = _window_entries(series)
    if len(sel) < 8:
        raise InsufficientDataError(
            f"{len(sel)} entries in window {window}; need at least 8"
        )
    if all(e.length == 0 for e in sel):
        raise DegenerateFitError("all lengths in the fit window are zero")
    ns = np.array([e.n for e in sel], dtype=float)
    ys = np.log([max(float(e.length), 1.0) for e in sel])
    design = np.column_stack([ns, np.log(ns), np.ones_like(ns)])
    beta, *_ = np.linalg.lstsq(design, ys, rcond=None)
    residual = float(np.sqrt(np.mean((design @ beta - ys) ** 2)))
    if residual > residual_threshold:
        raise DegenerateFitError(
            f"fit residual {residual:.3g} above threshold {residual_threshold}"
        )
    value = max(float(np.exp(beta[0])), 1.0)
    return EntropyEstimate(
        value=value,
        residual=residual,
        window=window,
        poly_exponent=float(beta[1]),
    )


def poly_degree_fit(series, entropy_tolerance=0.05):
    """Degree of polynomial growth: slope of log ℓ_n against log n.

    Only meaningful when the series is subexponential; the entropy gate
    rejects anything with K further than ``entropy_tolerance`` from 1.
    """
    est = entropy_estimate(series)
    if abs(est.value - 1.0) > entropy_tolerance:
        raise ExponentialSeriesError(
            f"series has exponential rate K = {est.value:.4g}"
        )
    sel, _ = _window_entries(series)
    ys = np.log([max(float(e.length), 1.0) for e in sel])
    if np.allclose(ys, ys[0]):
        return PolyFit(degree=0.0, correlation=1.0)
    xs = np.log([float(e.n) for e in sel])
    design = np.column_stack([xs, np.ones_like(xs)])
    beta, *_ = np.linalg.lstsq(design, ys, rcond=None)
    corr = float(np.corrcoef(xs, ys)[0, 1])
    return PolyFit(degree=max(float(beta[0]), 0.0), correlation=corr)


# ---------------------------------------------------------------------------
# experiments


def abelian_comparison(phi, generators=None, n_max=30, mode="karidi",
                       genset=None):
    """Spectral radius on homology vs the measured entropy estimate."""
    spec = phi.spec
    report = spectral_report(abelianization_matrix(phi))
    rho = float(report.spectral_radius)
    if generators is None:
        generators = [spec.indicator(k) for k in range(spec.rank)]
    best = None
    for g in generators:
        series = growth_series(phi, g, n_max, mode=mode, genset=genset)
        est = entropy_estimate(series)
        if best is None or est.value > best.value:
            best = est
    return {
        "spectral_radius": rho,
        "entropy_estimate": best.value,
        "ratio": best.value / rho,
        "window": list(best.window),
        "residual": best.residual,
    }


def quotient_tower(phi, g, classes, n_max=30, mode="karidi"):
    """Entropy estimate of the induced automorphism per truncation level.

    Each level k quotients by the weight-k lower central term, so larger k
    retains more of the group; the estimates are non-decreasing in k up to
    fit tolerance.
    """
    spec = phi.spec
    g = spec.check_vector(g)
    rows = []
    for k in sorted(set(classes)):
        tspec = truncate(spec, k)
        if tspec is spec:
            phi_k, g_k = phi, g
        else:
            images = [project(img, k, spec) for img in phi.images]
            phi_k = Endomorphism(tspec, images)
            g_k = project(g, k, spec)
        series = growth_series(phi_k, g_k, n_max, mode=mode)
        est = entropy_estimate(series)
        rows.append({
            "class": k,
            "entropy": est.value,
            "residual": est.residual,
            "window": list(est.window),
        })
    return rows


def _subgroup_series(phi, g, lattice, n_max, mode):
    """Growth series measured in the subgroup's own word metric."""
    spec = phi.spec
    weights = [spec.weights[d] for d in lattice.depths]
    entries = []
    h = tuple(g)
    for n in range(1, n_max + 1):
        h = apply(phi, h)
        coeffs = lattice.reduce(h)
        if coeffs is None:
            raise SpecError("iterate left the subgroup")
        if mode == "karidi":
            length = max(
                (nilgroup._root(abs(t), w) for t, w in zip(coeffs, weights) if t),
                default=0.0,
            )
        elif mode == "exact-bfs":
            length = geodesic_length(h, spec, genset=lattice.rows)
            if length is None:
                warnings.warn(
                    f"exact subgroup length unknown at n={n}; entry omitted",
                    GrowthWarning,
                    stacklevel=3,
                )
                continue
        else:
            raise SpecError(
                f"subgroup series supports karidi or exact-bfs, not {mode!r}"
            )
        entries.append(GrowthEntry(n, length, mode))
    return GrowthSeries(tuple(entries), subject=tuple(g), automorphism=phi)


def finite_index_experiment(phi, subgroup_generators, n_max=30,
                            mode="karidi", ambient_generators=None):
    """Entropy on a finite-index invariant subgroup vs the ambient estimate.

    The subgroup metric uses the subgroup's own polycyclic coordinates
    (karidi mode) or BFS over its generating rows (exact-bfs mode).
    """
    spec = phi.spec
    if not is_automorphism(phi):
        raise SpecError("finite-index comparison requires an automorphism")
    gens = [spec.check_vector(g) for g in subgroup_generators]
    lattice = subgroup_closure(spec, gens)
    for g in gens:
        if apply(phi, g) not in lattice:
            raise SpecError("subgroup is not invariant under the automorphism")
    index = lattice.abelianized_index()
    if index is None:
        raise SpecError("subgroup has infinite abelianized index")
    ambient = abelian_comparison(
        phi, generators=ambient_generators, n_max=n_max, mode="karidi"
    )
    best = None
    for g in gens:
        series = _subgroup_series(phi, g, lattice, n_max, mode)
        est = entropy_estimate(series)
        if best is None or est.value > best.value:
            best = est
    return {
        "subgroup_entropy": best.value,
        "ambient_entropy": ambient["entropy_estimate"],
        "ratio": best.value / ambient["entropy_estimate"],
        "abelianized_index": index,
        "window": list(best.window),
        "residual": best.residual,
    }


def distortion_profile(spec, i, radius=None, genset=None,
                       budget=nilgroup.DEFAULT_BALL_BUDGET, min_points=20):
    """Polynomial degree of the distortion of the weight-i central term.

    Over the BFS ball, elements supported on coordinates of weight ≥ i are
    measured twice: ambient word length against intrinsic length in the
    subgroup's own coordinates (box proxy with the induced weights ⌊w/i⌋).
    """
    c = spec.nilpotency_class
    if not 1 <= i <= c:
        raise SpecError(f"weight {i} out of range 1..{c}")
    if i == 1:
        return PolyFit(degree=1.0, correlation=1.0)
    if radius is None:
        # smallest radii giving >= 20 layer points on the desk-scale groups
        radius = 14 if spec.dim <= 3 else 12 if spec.dim <= 5 else 8
    ball = bfs_ball(spec, radius, genset=genset, budget=budget)
    pairs = []
    for h, dist in ball.items():
        if dist == 0:
            continue
        if any(v and w < i for v, w in zip(h, spec.weights)):
            continue
        intrinsic = max(
            nilgroup._root(abs(v), w // i)
            for v, w in zip(h, spec.weights)
            if v
        )
        pairs.append((dist, intrinsic))
    if len(pairs) < min_points:
        raise SpecError(
            f"only {len(pairs)} elements of the weight-{i} layer within "
            f"radius {radius}; need at least {min_points}"
        )
    xs = np.log([float(d) for d, _ in pairs])
    ys = np.log([max(float(v), 1.0) for _, v in pairs])
    design = np.column_stack([xs, np.ones_like(xs)])
    beta, *_ = np.linalg.lstsq(design, ys, rcond=None)
    if np.allclose(ys, ys[0]) or np.allclose(xs, xs[0]):
        corr = 1.0
    else:
        corr = float(np.corrcoef(xs, ys)[0, 1])
    return PolyFit(degree=max(float(beta[0]), 0.0), correlation=corr)


def unipotent_degree_sweep(ranks=(2, 3, 4), nil_class=3, n_max=24,
                           mode="karidi"):
    """Fitted polynomial degrees of the shear automorphism across ranks.

    Records the data for the open question of whether the degree is
    controlled by the homology rank; draws no conclusion.
    """
    out = []
    for m in ranks:
        spec = free_nilpotent(m, nil_class)
        phi = builtin_automorphism("unipotent-shear", spec)
        degrees = []
        for k in range(m):
            series = growth_series(phi, spec.indicator(k), n_max, mode=mode)
            fit = poly_degree_fit(series)
            degrees.append(fit.degree)
        out.append({
            "rank": m,
            "homology_rank": m,
            "degrees": degrees,
            "max_degree": max(degrees),
        })
    return out


# ---------------------------------------------------------------------------
# CSV round trip


def _write_series_rows(series, fh):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["n", "length", "mode"])
    for e in series.entries:
        if e.mode == "exact-bfs":
            value = str(int(e.length))
        else:
            value = repr(float(e.length))
        writer.writerow([e.n, value, e.mode])


def series_to_csv(series, path_or_file):
    """Write ``n,length,mode`` rows; exact-bfs lengths stay integers."""
    if hasattr(path_or_file, "write"):
        _write_series_rows(series, path_or_file)
        return
    with open(path_or_file, "w", newline="") as fh:
        _write_series_rows(series, fh)


def series_from_csv(path_or_file):
    """Read a series written by :func:`series_to_csv`."""
    if hasattr(path_or_file, "read"):
        rows = list(csv.reader(path_or_file))
    else:
        with open(path_or_file, newline="") as fh:
            rows = list(csv.reader(fh))
    if not rows or rows[0] != ["n", "length", "mode"]:
        raise SpecError("missing n,length,mode header")
    entries = []
    for n, value, mode in rows[1:]:
        if mode not in MODES:
            raise SpecError(f"unknown growth mode {mode!r}")
        length = int(value) if mode == "exact-bfs" else float(value)
        entries.append(GrowthEntry(int(n), length, mode))
    return GrowthSeries(tuple(entries))
