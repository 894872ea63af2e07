import io
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import distortion_pairs_reference, karidi_band_reference
from nilentropy import growth, nilgroup
from nilentropy import (
    DegenerateFitError,
    ExponentialSeriesError,
    GrowthEntry,
    GrowthSeries,
    GrowthWarning,
    InsufficientDataError,
    SpecError,
    abelian_comparison,
    apply,
    builtin_automorphism,
    distortion_profile,
    entropy_estimate,
    finite_index_experiment,
    free_nilpotent,
    geodesic_length,
    growth_series,
    identity_endomorphism,
    iterate,
    karidi_band,
    poly_degree_fit,
    quotient_tower,
    series_from_csv,
    series_to_csv,
    subgroup_closure,
    surface_quotient,
    unipotent_degree_sweep,
)

GOLDEN = (1 + 5 ** 0.5) / 2


def synthetic(values, mode="synthetic"):
    return GrowthSeries(
        entries=tuple(GrowthEntry(n, v, mode) for n, v in enumerate(values, start=1))
    )


# ---------------------------------------------------------------------------
# series anchors


def test_fib_series_prefix(heis):
    phi = builtin_automorphism("fib", heis)
    series = growth_series(phi, heis.indicator(0), 3, mode="karidi")
    assert [e.n for e in series.entries] == [1, 2, 3]
    assert series.lengths() == [1.0, 2.0, 3.0]
    assert apply(iterate(phi, 2), heis.indicator(0)) == (2, 1, 1)
    assert apply(iterate(phi, 3), heis.indicator(0)) == (3, 2, 2)
    assert all(e.mode == "karidi" for e in series.entries)


def test_shear_series_is_linear(heis):
    phi = builtin_automorphism("unipotent-shear", heis)
    series = growth_series(phi, heis.indicator(1), 12, mode="karidi")
    for e in series.entries:
        assert apply(iterate(phi, e.n), heis.indicator(1)) == (e.n, 1, 0)
        assert e.length == float(e.n)


def test_central_shear_series_is_sqrt(heis):
    phi = builtin_automorphism("central-shear", heis)
    series = growth_series(phi, heis.indicator(0), 12, mode="karidi")
    for e in series.entries:
        assert apply(iterate(phi, e.n), heis.indicator(0)) == (1, 0, e.n)
        assert e.length == pytest.approx(math.sqrt(e.n))


def test_exact_bfs_mode_is_sandwiched(heis):
    phi = builtin_automorphism("fib", heis)
    g = heis.indicator(0)
    exact = growth_series(phi, g, 4, mode="exact-bfs")
    upper = growth_series(phi, g, 4, mode="normalform-upper")
    karidi = growth_series(phi, g, 4, mode="karidi")
    by_n = {e.n: e.length for e in exact.entries}
    for e in upper.entries:
        if e.n in by_n:
            assert by_n[e.n] <= e.length
    for e in karidi.entries:
        if e.n in by_n:
            assert e.length <= by_n[e.n] + 1e-9


def test_exact_bfs_omits_entries_past_the_cap(heis):
    phi = builtin_automorphism("fib", heis)
    with pytest.warns(GrowthWarning):
        series = growth_series(phi, heis.indicator(0), 25, mode="exact-bfs")
    assert series.n_max < 25


def test_growth_series_rejects_unknown_mode(heis):
    phi = builtin_automorphism("fib", heis)
    with pytest.raises(SpecError):
        growth_series(phi, heis.indicator(0), 5, mode="exotic")


@pytest.mark.parametrize("n_max", [0, 2.5])
def test_growth_series_refuses_a_bad_count(heis, n_max):
    phi = builtin_automorphism("fib", heis)
    with pytest.raises(SpecError, match="n_max"):
        growth_series(phi, heis.indicator(0), n_max)


def test_growth_series_leaves_the_spec_as_it_was(f23):
    phi = builtin_automorphism("fib", f23)
    keys = sorted(vars(f23))
    upper = growth_series(phi, f23.indicator(0), 6, mode="normalform-upper")
    growth_series(phi, f23.indicator(0), 6, mode="karidi")
    assert sorted(vars(f23)) == keys
    again = growth_series(phi, f23.indicator(0), 6, mode="normalform-upper")
    assert again.entries == upper.entries


# ---------------------------------------------------------------------------
# entropy fits


def test_entropy_of_fib_is_golden(heis):
    phi = builtin_automorphism("fib", heis)
    series = growth_series(phi, heis.indicator(0), 30, mode="karidi")
    est = entropy_estimate(series)
    assert est.window == (15, 30)
    assert 1.59 <= est.value <= 1.65


def test_entropy_of_constant_and_polynomial_series():
    assert entropy_estimate(synthetic([7.0] * 30)).value == pytest.approx(1.0)
    assert entropy_estimate(synthetic([float(n * n) for n in range(1, 31)])).value == pytest.approx(1.0, abs=1e-6)


def test_entropy_recovers_synthetic_rates():
    for k_rate in (1.5, 2.0):
        values = [3.0 * n * k_rate ** n for n in range(1, 41)]
        est = entropy_estimate(synthetic(values))
        assert est.value == pytest.approx(k_rate, rel=1e-6)


def test_entropy_errors():
    with pytest.raises(InsufficientDataError):
        entropy_estimate(synthetic([1.0] * 5))
    with pytest.raises(DegenerateFitError):
        entropy_estimate(synthetic([0.0] * 30))
    with pytest.raises(InsufficientDataError):
        entropy_estimate(GrowthSeries(entries=()))
    # two distinct n cannot determine the three columns n, log n, 1
    twice = tuple(GrowthEntry(n, 2.0 ** n, "karidi") for n in (19, 20) * 4)
    with pytest.raises(DegenerateFitError, match="rank below its width"):
        entropy_estimate(GrowthSeries(entries=twice))


def test_poly_degree_fit_anchors():
    sqrt_series = synthetic([math.sqrt(n) for n in range(1, 31)])
    fit = poly_degree_fit(sqrt_series)
    assert fit.degree == pytest.approx(0.5, abs=0.05)
    linear = synthetic([2.0 * n for n in range(1, 31)])
    assert poly_degree_fit(linear).degree == pytest.approx(1.0, abs=0.05)
    constant = synthetic([4.0] * 30)
    assert poly_degree_fit(constant).degree == pytest.approx(0.0, abs=1e-9)


def test_poly_degree_fit_rejects_exponential(heis):
    phi = builtin_automorphism("fib", heis)
    series = growth_series(phi, heis.indicator(0), 30, mode="karidi")
    with pytest.raises(ExponentialSeriesError):
        poly_degree_fit(series)


# ---------------------------------------------------------------------------
# experiments


def test_abelian_comparison_identity(heis):
    out = abelian_comparison(identity_endomorphism(heis))
    assert out["spectral_radius"] == pytest.approx(1.0)
    assert out["entropy_estimate"] == pytest.approx(1.0)
    assert out["ratio"] == pytest.approx(1.0)


def test_abelian_comparison_fib(f23):
    out = abelian_comparison(builtin_automorphism("fib", f23))
    assert out["spectral_radius"] == pytest.approx(GOLDEN, abs=1e-9)
    assert 0.95 <= out["ratio"] <= 1.05


def test_abelian_comparison_needs_a_generator(heis):
    with pytest.raises(SpecError, match="at least one generator"):
        abelian_comparison(builtin_automorphism("fib", heis), generators=[])


def test_unipotent_degree_sweep_is_pinned():
    out = unipotent_degree_sweep(ranks=(2, 3))
    assert repr(out) == (
        "[{'rank': 2, 'homology_rank': 2, 'degrees': [0.0, 1.0], 'max_degree': 1.0}, "
        "{'rank': 3, 'homology_rank': 3, 'degrees': [0.0, 1.0, 0.0], 'max_degree': 1.0}]"
    )


def test_quotient_tower_fib(f24):
    phi = builtin_automorphism("fib", f24)
    rows = quotient_tower(phi, f24.indicator(0), (2, 3, 4))
    assert [r["class"] for r in rows] == [2, 3, 4]
    values = [r["entropy"] for r in rows]
    for v in values:
        assert v == pytest.approx(GOLDEN, rel=0.02)
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-6


def test_quotient_tower_identity_and_shear(f23):
    rows = quotient_tower(identity_endomorphism(f23), f23.indicator(0), (2, 3))
    assert all(r["entropy"] == pytest.approx(1.0) for r in rows)
    shear = builtin_automorphism("unipotent-shear", f23)
    rows = quotient_tower(shear, f23.indicator(1), (2, 3))
    assert all(r["entropy"] == pytest.approx(1.0, abs=0.01) for r in rows)


def test_finite_index_fib(heis):
    phi = builtin_automorphism("fib", heis)
    out = finite_index_experiment(phi, [(2, 0, 0), (0, 2, 0), (0, 0, 1)])
    assert out["abelianized_index"] == 4
    assert 0.9 <= out["ratio"] <= 1.1


def test_finite_index_identity(heis):
    out = finite_index_experiment(
        identity_endomorphism(heis), [(2, 0, 0), (0, 2, 0), (0, 0, 1)]
    )
    assert out["subgroup_entropy"] == pytest.approx(1.0)


def test_finite_index_central_shear(heis):
    phi = builtin_automorphism("central-shear", heis)
    out = finite_index_experiment(phi, [(2, 0, 0), (0, 2, 0), (0, 0, 1)])
    assert out["subgroup_entropy"] == pytest.approx(1.0, abs=0.01)


def test_finite_index_exact_bfs(heis):
    """The exact-bfs subgroup series: word lengths over the lattice rows
    along the orbit, an entry past the radius cap omitted with a warning."""
    gens = [(2, 0, 0), (0, 2, 0), (0, 0, 1)]
    out = finite_index_experiment(identity_endomorphism(heis), gens, n_max=20,
                                  mode="exact-bfs")
    assert (out["subgroup_entropy"], out["residual"], out["window"]) == (1.0, 0.0, [10, 20])
    shear = builtin_automorphism("unipotent-shear", heis)
    lattice = subgroup_closure(heis, gens)
    want = [(n, geodesic_length(apply(iterate(shear, n), (0, 2, 0)), heis, genset=lattice.rows))
            for n in range(1, 13)]
    with warnings.catch_warnings(record=True) as omitted:
        warnings.simplefilter("always", GrowthWarning)
        series = growth._subgroup_series(shear, (0, 2, 0), lattice, 12, "exact-bfs")
    assert [(e.n, e.length) for e in series.entries] == [(n, k) for n, k in want if k is not None]
    assert [str(w.message) for w in omitted] == [
        f"exact subgroup length unknown at n={n}; entry omitted" for n, k in want if k is None]
    assert omitted and len(series.entries) > 3


def test_finite_index_rejects_an_unknown_mode(heis):
    gens = [(2, 0, 0), (0, 2, 0), (0, 0, 1)]
    with pytest.raises(SpecError, match="^subgroup series supports karidi or exact-bfs, "
                                        "not 'normalform-upper'$"):
        finite_index_experiment(identity_endomorphism(heis), gens, mode="normalform-upper")


def test_finite_index_rejects_non_invariant(heis):
    phi = builtin_automorphism("fib", heis)
    with pytest.raises(SpecError):
        finite_index_experiment(phi, [(3, 0, 0), (0, 1, 0), (0, 0, 1)])


# ---------------------------------------------------------------------------
# distortion


def test_distortion_whole_group_is_trivial(heis):
    fit = distortion_profile(heis, 1)
    assert fit.degree == 1.0
    assert fit.correlation == 1.0


def test_distortion_requires_valid_term(heis):
    with pytest.raises(SpecError):
        distortion_profile(heis, 3)
    with pytest.raises(SpecError):
        distortion_profile(heis, 0)
    with pytest.raises(SpecError, match="only 0 elements"):
        distortion_profile(heis, 2, radius=1, min_points=0)


def test_distortion_center_of_heisenberg(heis):
    fit = distortion_profile(heis, 2)
    assert fit.degree == pytest.approx(2.0, abs=0.2)
    assert fit.correlation > 0.9


# the column-wise box lengths against the per-element loops they replaced;
# the extra generator's coefficients reach 2^70, past the integers a float
# holds exactly, and F(1,3) has a single coordinate column
METRIC_GROUPS = {
    "F(1,3)": (lambda: free_nilpotent(1, 3), 6),
    "F(2,1)": (lambda: free_nilpotent(2, 1), 5),
    "F(2,2)": (lambda: free_nilpotent(2, 2), 4),
    "F(2,3)": (lambda: free_nilpotent(2, 3), 3),
    "F(3,2)": (lambda: free_nilpotent(3, 2), 3),
    "surface(2,2)": (lambda: surface_quotient(2, 2), 3),
}


def fit_reference(pairs):
    # the box lengths and the layer are what the per-element loops check; the
    # fit itself is checked against Fraction and numpy below
    return growth._loglog_fit([d for d, _ in pairs], [v for _, v in pairs])


def fraction_least_squares(columns, ys):
    """Least-squares coefficients of ``ys ≈ Σ β_j·columns[j] + β_last``:
    the normal equations over ``Fraction``, solved by Gauss-Jordan."""
    rows = [[Fraction(c[i]) for c in columns] + [Fraction(1)] for i in range(len(ys))]
    k = len(rows[0])
    system = [[sum(r[a] * r[b] for r in rows) for b in range(k)]
              + [sum(r[a] * Fraction(y) for r, y in zip(rows, ys))] for a in range(k)]
    for p in range(k):
        q = next(q for q in range(p, k) if system[q][p])
        system[p], system[q] = system[q], system[p]
        system[p] = [v / system[p][p] for v in system[p]]
        for q in range(k):
            if q != p:
                system[q] = [v - system[q][p] * w for v, w in zip(system[q], system[p])]
    return [float(row[k]) for row in system]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_least_squares_is_the_exact_solution_rounded_once(data):
    width = data.draw(st.integers(1, 2))
    m = data.draw(st.integers(width + 2, 24))
    # perturbed discrete Legendre columns t and 3t^2 - 1 keep the design well conditioned
    ts = [2 * i / (m - 1) - 1 for i in range(m)]
    noise = st.lists(st.floats(-0.1, 0.1, allow_subnormal=False), min_size=m, max_size=m)
    columns = [[legendre(t) + e for t, e in zip(ts, data.draw(noise))]
               for legendre in (lambda t: t, lambda t: 3 * t * t - 1)[:width]]
    ys = data.draw(st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=m, max_size=m))
    design = np.column_stack(columns + [np.ones(m)])
    assume(np.linalg.cond(design) < 100)
    beta = growth._least_squares([growth._exact(c) for c in columns], growth._exact(ys))
    assert beta == fraction_least_squares(columns, ys)
    ref, *_ = np.linalg.lstsq(design, np.array(ys), rcond=None)
    assert np.max(np.abs(np.array(beta) - ref)) <= 1e-12 * np.max(np.abs(ref))
    if width == 1 and not growth._flat(ys):
        corr = growth._correlation(growth._exact(columns[0]), growth._exact(ys))
        assert corr == pytest.approx(np.corrcoef(columns[0], ys)[0, 1], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("row", [(math.log(3),), (0.0,), (2.5, -0.75)])
def test_rank_one_design_gets_the_minimum_norm_solution(row):
    # every point at one row: numpy's minimum-norm answer row·ȳ / (row·row)
    ys = [0.1, 0.5, 2.0, 1.0, 0.3]
    columns = [[x] * len(ys) for x in row]
    beta = growth._least_squares([growth._exact(c) for c in columns], growth._exact(ys))
    ref, *_ = np.linalg.lstsq(np.column_stack(columns + [np.ones(len(ys))]), np.array(ys),
                              rcond=None)
    assert beta == pytest.approx(ref.tolist(), rel=1e-12, abs=1e-15)


def test_rank_one_distortion_layer():
    # F(2,2) at radius 2 over generators of first coordinate +-1: the layer
    # (the centre) is reached only by products of two of them
    spec = free_nilpotent(2, 2)
    genset = ((1, 0, 0), (-1, 0, 3), (-1, 0, 7))
    pairs = distortion_pairs_reference(spec, 2, 2, genset=genset)
    assert {d for d, _ in pairs} == {2}
    fit = distortion_profile(spec, 2, radius=2, genset=genset, min_points=2)
    ys = [math.log(max(v, 1.0)) for _, v in pairs]
    ref, *_ = np.linalg.lstsq(np.column_stack([[math.log(2)] * len(ys), np.ones(len(ys))]),
                              np.array(ys), rcond=None)
    assert fit.degree == pytest.approx(ref[0], rel=1e-12) and fit.correlation == 1.0


@pytest.mark.parametrize("name", sorted(METRIC_GROUPS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_band_and_distortion_match_the_per_element_loops(name, data):
    build, max_radius = METRIC_GROUPS[name]
    spec = build()
    c = spec.nilpotency_class
    i = data.draw(st.integers(min(2, c), c))
    # an extra generator inside the weight-i layer puts its powers there
    inside = data.draw(st.booleans())
    big = st.integers(-2**70, 2**70)
    small = big if c == 1 or spec.dim == 1 else st.integers(-2, 2)
    extra = tuple(
        0 if inside and w < i else data.draw(small if w == 1 else big)
        for w in spec.weights
    )
    genset = spec.generating_set + (extra,)
    if data.draw(st.booleans()):
        # large vectors only: hardly any sphere holds an element of box 1,
        # so the band lists per-element boxes sphere after sphere
        large = st.integers(2, 2**70).flatmap(lambda v: st.sampled_from((v, -v)))
        genset = tuple(tuple(data.draw(large) for _ in spec.weights)
                       for _ in range(data.draw(st.integers(1, 2))))
    radius = data.draw(st.integers(1, max_radius))
    assert repr(karidi_band(spec, radius, genset=genset)) == repr(
        karidi_band_reference(spec, radius, genset=genset))
    if c == 1:
        return
    pairs = distortion_pairs_reference(spec, i, radius, genset=genset)
    if len(pairs) < 2:
        with pytest.raises(SpecError, match=f"only {len(pairs)} elements"):
            distortion_profile(spec, i, radius=radius, genset=genset, min_points=2)
    else:
        fit = distortion_profile(spec, i, radius=radius, genset=genset, min_points=2)
        assert repr(fit) == repr(fit_reference(pairs))


# bands over generating sets of large vectors only, at radius 1 and deeper,
# as computed by the per-element band before it went sphere by sphere; no
# sphere of these balls holds an element of box 1
LARGE_VECTOR_BANDS = (
    ((2, 2), ((5, -3, 7), (-2, 9, 4)), 1,
     "KaridiBand(lower=0.1111111111111111, upper=0.2, constant=9.0, radius=1, size=4)"),
    ((2, 2), ((5, -3, 7), (-2, 9, 4)), 5,
     "KaridiBand(lower=0.1111111111111111, upper=0.6681531047810608, constant=9.0, "
     "radius=5, size=298)"),
    ((2, 3), ((3, 2, -5, 11, 2 ** 70), (-7, 4, 6, -2, 9)), 1,
     "KaridiBand(lower=9.461647581864584e-08, upper=0.14285714285714285, "
     "constant=10568983.798516542, radius=1, size=4)"),
    ((2, 3), ((3, 2, -5, 11, 2 ** 70), (-7, 4, 6, -2, 9)), 4,
     "KaridiBand(lower=9.461647581864584e-08, upper=0.7844645405527361, "
     "constant=10568983.798516542, radius=4, size=160)"),
    ((3, 2), ((2, 3, 5, -7, 11, 13), (-17, 19, -2, 23, 29, -31),
              (4, -6, 8, 10, -12, 2 ** 66)), 1,
     "KaridiBand(lower=1.1641532182693469e-10, upper=0.2, constant=8589934592.00001, "
     "radius=1, size=6)"),
    ((3, 2), ((2, 3, 5, -7, 11, 13), (-17, 19, -2, 23, 29, -31),
              (4, -6, 8, 10, -12, 2 ** 66)), 3,
     "KaridiBand(lower=1.1641532182693469e-10, upper=0.46852128566581813, "
     "constant=8589934592.00001, radius=3, size=186)"),
)


@pytest.mark.parametrize("group, genset, radius, want", LARGE_VECTOR_BANDS)
def test_large_vector_bands_are_pinned(group, genset, radius, want, monkeypatch):
    spec = free_nilpotent(*group)
    listed = []
    real = nilgroup._boxes

    def boxes(tables, columns):
        listed.append(1)
        return real(tables, columns)

    monkeypatch.setattr(nilgroup, "_boxes", boxes)
    band = karidi_band(spec, radius, genset=genset)
    assert repr(band) == want
    assert repr(karidi_band_reference(spec, radius, genset=genset)) == want
    # every sphere took the per-element branch
    assert len(listed) == radius


# ---------------------------------------------------------------------------
# CSV round trips


def test_csv_roundtrip(heis):
    phi = builtin_automorphism("fib", heis)
    series = growth_series(phi, heis.indicator(0), 20, mode="karidi")
    buf = io.StringIO()
    series_to_csv(series, buf)
    text = buf.getvalue()
    lines = text.strip().splitlines()
    assert lines[0] == "n,length,mode"
    assert len(lines) == 21
    back = series_from_csv(io.StringIO(text))
    assert [e.n for e in back.entries] == [e.n for e in series.entries]
    assert back.lengths() == pytest.approx(series.lengths())
    assert all(e.mode == "karidi" for e in back.entries)


def test_csv_exact_lengths_stay_integers(heis):
    phi = builtin_automorphism("fib", heis)
    series = growth_series(phi, heis.indicator(0), 4, mode="exact-bfs")
    buf = io.StringIO()
    series_to_csv(series, buf)
    for line in buf.getvalue().strip().splitlines()[1:]:
        n, length, mode = line.split(",")
        assert "." not in length


def test_csv_rejects_bad_header():
    with pytest.raises(SpecError):
        series_from_csv(io.StringIO("a,b,c\n1,2,karidi\n"))
    with pytest.raises(SpecError):
        series_from_csv(io.StringIO(""))
