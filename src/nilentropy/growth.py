"""Growth of word length under automorphism iteration.

Series ℓ(φⁿ(g)) in several length modes, entropy and polynomial-degree
fits, and the comparison experiments: abelianization, quotient tower,
finite-index subgroups, and subgroup distortion.

Every series maps one length function, picked once by its mode, over the
exact orbit of ``autom._orbit``.  A Karidi length, in the ambient group, a
subgroup or a distortion layer, is one call of the generated box kernel of
its weights (``nilgroup._box_kernel``), fetched once per series or layer.
An exact-bfs entry past the BFS radius cap is omitted with a
:class:`GrowthWarning`, issued at the first caller outside this module.

The three fits share one least-squares routine.  Every float is an integer
over a power of two, so it forms the normal equations exactly in integers
and solves them by Cramer's rule: each coefficient is the exact
least-squares solution, rounded once.  A rank-one design, every point at
one x, gets the minimum-norm solution β = (x, 1)·ȳ / (x² + 1).
"""

from __future__ import annotations

import math
import operator
import sys
import warnings
from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import compress

from . import nilgroup
from .autom import (
    Endomorphism,
    _orbit,
    abelianization_matrix,
    apply,
    builtin_automorphism,
    is_automorphism,
    spectral_report,
)
from .constructions import free_nilpotent, subgroup_closure, truncate
from .linalg import bareiss_det
from .nilgroup import (
    GrowthWarning,
    SpecError,
    _integer,
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


class GrowthEntry(namedtuple("GrowthEntry", ["n", "length", "mode"])):
    """The length of φⁿ(g) in one length mode."""

    __slots__ = ()


class GrowthSeries(namedtuple("GrowthSeries", ["entries", "subject", "automorphism"],
                              defaults=(None, None))):
    """Lengths of φⁿ(g) for n = 1..n_max, tagged with the length mode.

    ``exact-bfs`` entries are exact integers; entries past the BFS radius
    cap are omitted (with a warning) rather than guessed.
    """

    __slots__ = ()

    @property
    def n_max(self):
        return max(e.n for e in self.entries) if self.entries else 0

    def lengths(self):
        return [e.length for e in self.entries]


class EntropyEstimate(namedtuple("EntropyEstimate",
                                 ["value", "residual", "window", "poly_exponent"])):
    """Exponential rate fitted from a growth series.

    value = exp(slope) of the fit log ℓ_n = n·log K + r·log n + C over the
    window [n_max/2, n_max]; the polynomial factor n^r is fitted out so it
    does not inflate the rate.
    """

    __slots__ = ()


class PolyFit(namedtuple("PolyFit", ["degree", "correlation"])):
    """Slope of log length against log x, floored at 0, and the Pearson
    correlation.  The slope is the exact least-squares solution, rounded
    once.  Flat lengths give (0.0, 1.0); flat x, a rank-one design, gives
    correlation 1.0 and the minimum-norm slope x·ȳ / (x² + 1)."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# length modes


def _normalform_length(spec):
    """The normal-form upper bound on word length: the sum of the
    coordinates' costs, 1 at a generator, and at a bracket twice the sum of
    its parts, the length of ``u^-1 v^-1 u v``."""
    free_costs = spec.basis.evaluate(lambda gen: 1, lambda a, b: 2 * (a + b))
    costs = tuple(free_costs[p] for p in spec._positions)
    return lambda h: float(sum(abs(v) * c for v, c in zip(h, costs)))


# ---------------------------------------------------------------------------
# series and fits


def growth_series(phi, g, n_max, mode="karidi", genset=None):
    """Series ℓ(φⁿ(g)) for n = 1..n_max in the requested length mode.

    ``karidi`` and ``normalform-upper`` lengths are floats: an orbit past
    2^1024 raises :class:`OverflowError` (fib's on F(2,2) before n = 1500).
    ``exact-bfs`` lengths are integers; an entry past the BFS radius cap is
    omitted with a :class:`GrowthWarning` at the first caller outside this
    module.
    """
    if mode not in MODES:
        raise SpecError(
            f"unknown growth mode {mode!r}; expected one of {', '.join(MODES)}"
        )
    n_max = _integer(n_max, "n_max")
    if n_max < 1:
        raise SpecError(f"n_max must be >= 1, got {n_max}")
    spec = phi.spec
    if not is_automorphism(phi):
        raise SpecError("growth series requires an automorphism")
    g = spec.check_vector(g)
    if mode == "karidi":
        length = nilgroup._box_kernel(spec.weights)
    elif mode == "exact-bfs":
        length = partial(geodesic_length, spec=spec, genset=genset)
    else:
        length = _normalform_length(spec)
    return _collect_series(phi, g, map(length, _orbit(phi, g)), n_max, mode,
                           "exact length unknown at n={n}; entry omitted")


def _collect_series(phi, g, lengths, n_max, mode, omitted):
    """The :class:`GrowthSeries` of the first ``n_max`` of ``lengths``.

    A ``None`` length is omitted with a :class:`GrowthWarning`, the message
    ``omitted`` formatted with its ``n``, issued at the first frame outside
    this module.
    """
    entries = []
    for n, length in zip(range(1, n_max + 1), lengths):
        if length is None:
            frame, level = sys._getframe(1), 2
            while frame.f_globals is globals():
                frame, level = frame.f_back, level + 1
            warnings.warn(omitted.format(n=n), GrowthWarning, stacklevel=level)
            continue
        entries.append(GrowthEntry(n, length, mode))
    return GrowthSeries(tuple(entries), subject=g, automorphism=phi)


def _window_entries(series):
    if not series.entries:
        raise InsufficientDataError("series has no entries")
    hi = series.n_max
    sel = [e for e in series.entries if 2 * e.n >= hi]
    return sel, (math.ceil(hi / 2), hi)


def _exact(values):
    """Integers ``a`` and an exponent ``e`` with ``values[i] == a[i] / 2**e``."""
    ratios = [v.as_integer_ratio() for v in values]
    e = max(d for _, d in ratios).bit_length() - 1
    return [n << e - d.bit_length() + 1 for n, d in ratios], e


def _least_squares(columns, ys):
    """Coefficients of the fit ``ys ≈ Σ β_j·columns[j] + β_last`` of
    :func:`_exact` pairs, each one ``int / int`` division (Cramer's rule).
    Every point at one row r gets the minimum-norm β = r·ȳ / (r·r); other
    singular designs raise :class:`DegenerateFitError`."""
    b, t = ys
    cols = [*columns, ([1] * len(b), 0)]
    gram = [[sum(map(operator.mul, p, q)) for q, _ in cols] for p, _ in cols]
    rhs = [sum(map(operator.mul, p, b)) for p, _ in cols]
    det = bareiss_det(gram)
    if det:
        return [
            (bareiss_det([row[:j] + [h] + row[j + 1:] for row, h in zip(gram, rhs)]) << e)
            / (det << t)
            for j, (_, e) in enumerate(cols)
        ]
    if any(len(set(p)) > 1 for p, _ in columns):
        raise DegenerateFitError("the fit's design matrix has rank below its width")
    x = [Fraction(p[0], 1 << e) for p, e in cols]
    scale = Fraction(sum(b), len(b) << t) / sum(v * v for v in x)
    return [float(v * scale) for v in x]


def _flat(values):
    """Whether every value is within ``1e-8 + 1e-5·|values[0]|`` of the first."""
    tol = 1e-8 + 1e-5 * abs(values[0])
    return all(abs(v - values[0]) <= tol for v in values)


def _correlation(x, y):
    """Pearson correlation of two non-flat :func:`_exact` columns."""
    (a, _), (b, _) = x, y
    m, sa, sb = len(a), sum(a), sum(b)
    sab = m * sum(map(operator.mul, a, b)) - sa * sb
    saa = m * sum(map(operator.mul, a, a)) - sa * sa
    sbb = m * sum(map(operator.mul, b, b)) - sb * sb
    r = math.sqrt(sab * sab / (saa * sbb))
    return r if sab >= 0 else -r


def _loglog_fit(xs, ys):
    """The :class:`PolyFit` of log max(y, 1) against log x."""
    log_y = [math.log(max(float(y), 1.0)) for y in ys]
    if _flat(log_y):
        return PolyFit(degree=0.0, correlation=1.0)
    log_x = [math.log(float(x)) for x in xs]
    x, y = _exact(log_x), _exact(log_y)
    slope, _ = _least_squares([x], y)
    corr = 1.0 if _flat(log_x) else _correlation(x, y)
    return PolyFit(degree=max(slope, 0.0), correlation=corr)


def entropy_estimate(series, residual_threshold=0.5):
    """Fit log ℓ_n = n·log K + r·log n + C and return K = exp(slope).

    Lengths below 1 are clamped to 1 for the logarithm, so K ≥ 1 always.
    The coefficients are the exact least-squares solution, each rounded
    once; the residual is the root mean square of the rounded fit.
    """
    sel, window = _window_entries(series)
    if len(sel) < 8:
        raise InsufficientDataError(
            f"{len(sel)} entries in window {window}; need at least 8"
        )
    if all(e.length == 0 for e in sel):
        raise DegenerateFitError("all lengths in the fit window are zero")
    ns = [e.n for e in sel]
    logs = [math.log(n) for n in ns]
    ys = [math.log(max(float(e.length), 1.0)) for e in sel]
    slope, exponent, const = _least_squares([(ns, 0), _exact(logs)], _exact(ys))
    # a plain running sum: from Python 3.12 on, sum() of floats is
    # compensated and moves the last bit of the residual
    square = 0.0
    for n, log, y in zip(ns, logs, ys):
        square += (slope * n + exponent * log + const - y) ** 2
    residual = math.sqrt(square / len(ys))
    if residual > residual_threshold:
        raise DegenerateFitError(
            f"fit residual {residual:.3g} above threshold {residual_threshold}"
        )
    return EntropyEstimate(
        value=max(math.exp(slope), 1.0),
        residual=residual,
        window=window,
        poly_exponent=exponent,
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
    return _loglog_fit([e.n for e in sel], [e.length for e in sel])


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
    if not generators:
        raise SpecError("abelian comparison needs at least one generator")
    # max keeps the first of equal estimates
    best = max((entropy_estimate(growth_series(phi, g, n_max, mode, genset))
                for g in generators), key=operator.attrgetter("value"))
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
        series = growth_series(phi_k, g_k, n_max, mode)
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
    box = nilgroup._box_kernel(tuple(spec.weights[d] for d in lattice.depths))

    def length(h):
        coeffs = lattice.reduce(h)
        if coeffs is None:
            raise SpecError("iterate left the subgroup")
        if mode == "karidi":
            return box(coeffs)
        return geodesic_length(h, spec, genset=lattice.rows)

    return _collect_series(phi, tuple(g), map(length, _orbit(phi, g)), n_max, mode,
                           "exact subgroup length unknown at n={n}; entry omitted")


def finite_index_experiment(phi, subgroup_generators, n_max=30,
                            mode="karidi", ambient_generators=None):
    """Entropy on a finite-index invariant subgroup vs the ambient estimate.

    The subgroup metric uses the subgroup's own polycyclic coordinates
    (karidi mode) or BFS over its generating rows (exact-bfs mode).
    Exact-bfs subgroup lengths stop at :func:`geodesic_length`'s radius cap
    of 10, so on the Heisenberg group's index-4 subgroup of ``(2,0,0),
    (0,2,0), (0,0,1)`` unipotent-shear, central-shear and fib all end in
    :class:`InsufficientDataError`.
    """
    if mode not in ("karidi", "exact-bfs"):
        raise SpecError(f"subgroup series supports karidi or exact-bfs, not {mode!r}")
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
    best = max((entropy_estimate(_subgroup_series(phi, g, lattice, n_max, mode)) for g in gens),
               key=operator.attrgetter("value"))
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
    The layer is found by a C-level filter on coordinate 0 before the rest
    of the weight-below-i prefix is tested.
    """
    c = spec.nilpotency_class
    i = _integer(i, "weight")
    if not 1 <= i <= c:
        raise SpecError(f"weight {i} out of range 1..{c}")
    if i == 1:
        return PolyFit(degree=1.0, correlation=1.0)
    if radius is None:
        # smallest radii giving >= 20 layer points on the desk-scale groups
        radius = 14 if spec.dim <= 3 else 12 if spec.dim <= 5 else 8
    ball = bfs_ball(spec, radius, genset=genset, budget=budget)
    # weights never decrease, so the coordinates of weight < i are a prefix
    low = sum(1 for w in spec.weights if w < i)
    # a C-level pass keeps the elements with coordinate 0 zero; only those
    # test the rest of the prefix
    kept = compress(ball.items(), map(operator.not_, map(operator.itemgetter(0), ball)))
    layer = {h: d for h, d in kept if d and not any(h[1:low])}
    need = max(min_points, 1)
    if len(layer) < need:
        raise SpecError(
            f"only {len(layer)} elements of the weight-{i} layer within "
            f"radius {radius}; need at least {need}"
        )
    intrinsic = list(map(nilgroup._box_kernel(tuple(w // i for w in spec.weights)), layer))
    return _loglog_fit(layer.values(), intrinsic)


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
            series = growth_series(phi, spec.indicator(k), n_max, mode)
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


def _length_text(entry):
    """The length of a series entry as written: an exact-bfs length as an
    integer, any other as the ``repr`` of its float."""
    if entry.mode == "exact-bfs":
        return str(int(entry.length))
    return repr(float(entry.length))


def series_to_csv(series, path_or_file):
    """Write ``n,length,mode`` rows; exact-bfs lengths stay integers."""
    if not hasattr(path_or_file, "write"):
        with open(path_or_file, "w", newline="") as fh:
            return series_to_csv(series, fh)
    import csv

    writer = csv.writer(path_or_file, lineterminator="\n")
    writer.writerow(["n", "length", "mode"])
    writer.writerows([e.n, _length_text(e), e.mode] for e in series.entries)


def series_from_csv(path_or_file):
    """Read a series written by :func:`series_to_csv`."""
    if not hasattr(path_or_file, "read"):
        with open(path_or_file, newline="") as fh:
            return series_from_csv(fh)
    import csv

    rows = list(csv.reader(path_or_file))
    if not rows or rows[0] != ["n", "length", "mode"]:
        raise SpecError("missing n,length,mode header")
    entries = []
    for n, value, mode in rows[1:]:
        if mode not in MODES:
            raise SpecError(f"unknown growth mode {mode!r}")
        length = int(value) if mode == "exact-bfs" else float(value)
        entries.append(GrowthEntry(int(n), length, mode))
    return GrowthSeries(tuple(entries))
