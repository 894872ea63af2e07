import hashlib
import itertools
import json
import random

import pytest
import sympy

from nilentropy import (
    Endomorphism,
    GroupSpec,
    HallBasis,
    SpecError,
    SubgroupLattice,
    apply,
    builtin_automorphism,
    commutator,
    distortion_profile,
    eval_word,
    free_nilpotent,
    graded_matrix,
    identity,
    inverse,
    invert,
    lower_central_series,
    multiply,
    power,
    project,
    quotient_ranks,
    relator_check,
    semidirect_unipotent,
    spec_to_json,
    subgroup_closure,
    surface_quotient,
    truncate,
    upper_central_dimensions,
    upper_central_lengths,
)

from nilentropy import constructions, nilgroup
from nilentropy.constructions import _semidirect_lie_matrices

from conftest import random_vector, random_word


# ---------------------------------------------------------------------------
# free groups and truncation


def test_free_nilpotent_shapes():
    assert free_nilpotent(2, 2).dim == 3
    assert free_nilpotent(2, 3).dim == 5
    assert free_nilpotent(2, 4).dim == 8
    assert free_nilpotent(3, 2).dim == 6
    assert free_nilpotent(2, 1).weights == (1, 1)


def test_truncate_matches_projection(f24, rng):
    t = truncate(f24, 3)
    assert t.nilpotency_class == 2
    assert t.dim == 3
    for _ in range(30):
        g = random_vector(f24, rng)
        h = random_vector(f24, rng)
        assert multiply(project(g, 3, f24), project(h, 3, f24), t) == project(
            multiply(g, h, f24), 3, f24
        )
    assert truncate(f24, 5) is f24


def test_truncate_range(f24):
    with pytest.raises(SpecError):
        truncate(f24, 1)
    with pytest.raises(SpecError):
        truncate(f24, 6)


@pytest.mark.parametrize("call, message", [
    (lambda: HallBasis(2, 3.0), "class must be an integer"),
    (lambda: HallBasis(2.0, 3), "rank must be an integer"),
    (lambda: free_nilpotent(2, 3.0), "class must be an integer"),
    (lambda: surface_quotient(1.5, 3), "genus must be an integer"),
    (lambda: surface_quotient(2, 3.0), "class must be an integer"),
    (lambda: truncate(free_nilpotent(2, 2), 2.5), "truncation weight must be an integer"),
], ids=["hall-class", "hall-rank", "free", "surface-genus", "surface-class", "truncate"])
def test_float_counts_refused(call, message):
    with pytest.raises(SpecError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: graded_matrix(builtin_automorphism("fib", free_nilpotent(2, 3)), 1.5),
     "weight must be an integer"),
    (lambda: free_nilpotent(2, 3).graded_rank(1.5), "weight must be an integer"),
    (lambda: HallBasis(2, 3).graded_dimension(1.5), "weight must be an integer"),
    (lambda: project((0, 0, 0, 0, 0), 2.5, free_nilpotent(2, 3)),
     "truncation weight must be an integer"),
    (lambda: distortion_profile(free_nilpotent(2, 3), 2.5), "weight must be an integer"),
], ids=["graded_matrix", "graded_rank", "graded_dimension", "project", "distortion_profile"])
def test_float_weights_refused(call, message):
    with pytest.raises(SpecError, match=message):
        call()


def test_float_count_misses_the_cached_spec():
    """A float equal to a cached count is refused, not served the cached spec."""
    assert free_nilpotent(2, 2) is free_nilpotent(2, 2)
    with pytest.raises(SpecError, match="class must be an integer"):
        free_nilpotent(2, 2.0)
    surface_quotient(2, 3)
    with pytest.raises(SpecError, match="genus must be an integer"):
        surface_quotient(2.0, 3)


# ---------------------------------------------------------------------------
# subgroup lattices


def test_closure_of_even_generators_contains_c4(heis):
    lat = subgroup_closure(heis, [(2, 0, 0), (0, 2, 0)])
    assert lat.hirsch_length == 3
    assert (0, 0, 4) in lat
    assert (0, 0, 2) not in lat
    assert (0, 0, 1) not in lat
    assert lat.abelianized_index() == 4
    assert lat.index() == 16


def test_closure_reduce_roundtrip(heis, rng):
    lat = subgroup_closure(heis, [(2, 0, 0), (0, 2, 0), (0, 0, 1)])
    assert lat.index() == 4
    for _ in range(25):
        coeffs = [rng.randint(-4, 4) for _ in range(lat.hirsch_length)]
        g = lat.member_from_coefficients(coeffs)
        assert g in lat
        assert lat.reduce(g) == tuple(coeffs)
    outside = (1, 0, 0)
    assert lat.reduce(outside) is None


def test_closure_is_a_subgroup(heis, rng):
    lat = subgroup_closure(heis, [(2, 0, 0), (0, 2, 0)])
    members = [
        lat.member_from_coefficients([rng.randint(-3, 3) for _ in range(3)])
        for _ in range(12)
    ]
    for g in members:
        assert inverse(g, heis) in lat
    for g in members[:6]:
        for h in members[6:]:
            assert multiply(g, h, heis) in lat


def test_full_group_closure(f23):
    lat = subgroup_closure(f23, [f23.indicator(0), f23.indicator(1)])
    assert lat.hirsch_length == f23.dim
    assert lat.index() == 1
    assert lat.abelianized_index() == 1


def test_infinite_index_closure(heis):
    lat = subgroup_closure(heis, [(1, 0, 0)])
    assert lat.hirsch_length == 1
    assert lat.abelianized_index() is None
    assert lat.index() is None


def test_lattice_rows_are_checked_once(heis):
    # reduce calls the law on the rows, so they are checked on the way in
    with pytest.raises(SpecError, match="vector of length 2, expected 3"):
        SubgroupLattice(heis, [(1, 0)])
    with pytest.raises(SpecError, match="coordinates must be integers"):
        SubgroupLattice(heis, [(1.5, 0, 0)])


def test_subgroup_closure_over_its_budget():
    # the closure needs about 50 operations
    spec = free_nilpotent(2, 3)
    gens = [(2, 0, 0, 0, 0), (0, 3, 0, 0, 0)]
    with pytest.raises(SpecError, match=r"^subgroup closure exceeded its operation budget \(25\)$"):
        subgroup_closure(spec, gens, budget=25)
    # [x1^2, x2^3] = [x1, x2]^6, times 2 or 3 again at weight 3
    assert subgroup_closure(spec, gens).index() == 2 * 3 * 6 * 12 * 18


def test_normal_closure_over_its_budget():
    # the surface relator's closure in F(4,3) needs about 150 operations
    cover = free_nilpotent(4, 3)
    relators = surface_quotient(2, 3).relators
    maps = nilgroup._generator_commutators(cover)
    with pytest.raises(SpecError, match=r"^normal closure exceeded its operation budget \(100\)$"):
        nilgroup._sift_closure(cover, relators, maps, budget=100, what="normal closure")
    assert nilgroup._sift_closure(cover, relators, maps) == nilgroup._normal_closure(cover, relators)


def test_sift_closure_keeps_entries_small(monkeypatch):
    """Three elements whose normal closure in surface(2,3) a round-by-round
    sift took minutes over, with entries of millions of bits; one stack
    keeps every product under 2^64."""
    spec = surface_quotient(2, 3)
    gens = (
        (0, 0, 2, -1, 0, 0, 2, 0, 0, -1, 0, 0, -1, 0, 0, 0, 0, 0, -2, 2, 0, 0, -2, 0, 0),
        (1, -1, 0, 0, -2, 0, 1, 0, 0, 0, 0, -2, 0, 0, 0, 0, 2, 0, 0, 0, -1, 0, 0, 0, 0),
        (-2, 0, -1, 0, -1, 0, 0, -1, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, -1, 0, 0, -2, -2, 0, 0),
    )
    law = spec.law
    real = law.multiply

    def guarded(g, h):
        out = real(g, h)
        assert all(abs(v) < 2 ** 64 for v in out), "a product entry reached 2^64"
        return out

    monkeypatch.setattr(law, "multiply", guarded)
    rows = nilgroup._sift_closure(spec, gens, nilgroup._generator_commutators(spec))
    assert len(rows) == 24
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "32da93199e8741dbc527d330dfb43d8e9914356c582e2cf90e7c8e7818b83a87"
    )


# ---------------------------------------------------------------------------
# lower and upper central series


def test_lower_central_series_heisenberg(heis):
    series = lower_central_series(heis)
    assert [lat.hirsch_length for lat in series] == [3, 1]
    assert quotient_ranks(series) == (2, 1)


def test_lower_central_series_free23(f23):
    series = lower_central_series(f23)
    assert [lat.hirsch_length for lat in series] == [5, 3, 2]
    assert quotient_ranks(series) == (2, 1, 2)


def test_upper_central_lengths():
    assert upper_central_lengths(free_nilpotent(2, 1)) == 1
    assert upper_central_lengths(free_nilpotent(2, 2)) == 2
    assert upper_central_lengths(free_nilpotent(2, 3)) == 3
    dims = upper_central_dimensions(free_nilpotent(2, 2))
    assert dims == (1, 2)
    assert sum(dims) == free_nilpotent(2, 2).dim


@pytest.mark.parametrize("build, dims", [
    (lambda: surface_quotient(2, 3), (16, 5, 4)),
    (lambda: surface_quotient(3, 2), (14, 6)),
    (lambda: surface_quotient(2, 2), (5, 4)),
    (lambda: GroupSpec(HallBasis(3, 2), relations={2: [(1, 2, 0)]}), (2, 3)),
], ids=["surface(2,3)", "surface(3,2)", "surface(2,2)", "F(3,2)/(1,2,0)"])
def test_quotient_upper_central_dimensions(build, dims):
    spec = build()
    assert upper_central_dimensions(spec) == dims
    assert sum(dims) == spec.dim


# ---------------------------------------------------------------------------
# semidirect extensions


def test_semidirect_shear_on_z2_is_class_two():
    z2 = free_nilpotent(2, 1)
    shear = builtin_automorphism("unipotent-shear", z2)
    sd = semidirect_unipotent(z2, shear)
    assert sd.nilpotency_class == 2
    assert sd.hirsch_length == 3
    t = (1, z2.identity())
    x2 = (0, (0, 1))
    # t x2 t^-1 = shear(x2) = x1 x2, so [t, x2] generates the x1 line
    conj = sd.multiply(sd.multiply(t, x2), sd.inverse_element(t))
    assert conj == (0, (1, 1))
    assert sd.commutator_element(t, x2)[1] in ((1, 0), (-1, 0))


def test_semidirect_unipotent_shear_on_heisenberg(heis):
    phi = builtin_automorphism("unipotent-shear", heis)
    sd = semidirect_unipotent(heis, phi)
    assert sd.hirsch_length == 4
    assert 3 <= sd.nilpotency_class <= 4
    assert sd.nilpotency_class == 3


def test_lower_central_terms_stall_under_the_identity_map(heis):
    rows = tuple(heis.indicator(k) for k in range(heis.dim))
    terms = constructions._lower_central_terms(heis, rows, [lambda row: row])
    assert next(terms) == rows
    with pytest.raises(SpecError, match="stalled"):
        next(terms)


def test_semidirect_central_shear_upper_central_length(heis):
    phi = builtin_automorphism("central-shear", heis)
    sd = semidirect_unipotent(heis, phi)
    assert upper_central_lengths(sd) == 2


def test_semidirect_lie_matrices_form_a_lie_algebra():
    # the bracket with T is a derivation only if T acts by log L, with the
    # alternating signs of the series: x2 -> x1 x2, x3 -> x2 x3 has
    # (L - 1)^2 != 0 and moves x2, x3 to the non-commuting x1, x2
    base = free_nilpotent(3, 3)
    x = [base.indicator(k) for k in range(3)]
    shear = Endomorphism(base, [x[0], multiply(x[0], x[1], base), multiply(x[1], x[2], base)])
    sd = semidirect_unipotent(base, shear)
    mats = _semidirect_lie_matrices(sd)

    def bracket(x, y):
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                for k, v in mats[j][i].items():
                    out[k] = out.get(k, 0) + a * b * v
        return {k: v for k, v in out.items() if v}

    unit = [{i: 1} for i in range(len(mats))]
    for x, y in itertools.combinations(unit, 2):
        assert bracket(x, y) == {k: -v for k, v in bracket(y, x).items()}
    for x, y, z in itertools.combinations(unit, 3):
        total = {}
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            for k, v in bracket(a, bracket(b, c)).items():
                total[k] = total.get(k, 0) + v
        assert not any(total.values()), (x, y, z)


def test_semidirect_rejects_non_unipotent(heis):
    fib = builtin_automorphism("fib", heis)
    with pytest.raises(SpecError):
        semidirect_unipotent(heis, fib)


def test_semidirect_group_axioms(heis, rng):
    phi = builtin_automorphism("unipotent-shear", heis)
    sd = semidirect_unipotent(heis, phi)

    def rand():
        return (rng.randint(-2, 2), random_vector(heis, rng, span=3))

    e = sd.identity()
    for _ in range(40):
        a, b, c = rand(), rand(), rand()
        assert sd.multiply(sd.multiply(a, b), c) == sd.multiply(a, sd.multiply(b, c))
        assert sd.multiply(a, sd.inverse_element(a)) == e
        assert sd.multiply(sd.inverse_element(a), a) == e


def test_semidirect_monodromy_power(heis, rng):
    phi = builtin_automorphism("unipotent-shear", heis)
    sd = semidirect_unipotent(heis, phi)
    g = (3, -1, 2)
    assert sd.monodromy_power(2, g) == apply(phi, apply(phi, g))
    assert sd.monodromy_power(-1, sd.monodromy_power(1, g)) == g
    assert sd.monodromy_power(0, g) == g


def test_monodromy_power_refuses_non_integral_input(heis):
    sd = semidirect_unipotent(heis, builtin_automorphism("unipotent-shear", heis))
    for k, n in ((0, (1.5, 0, 0)), (1, (1.5, 0, 0)), (1.5, (1, 0, 0)), (0.0, (1, 0, 0))):
        with pytest.raises(SpecError, match="must be integers|must be an integer"):
            sd.monodromy_power(k, n)
    with pytest.raises(SpecError, match="vector of length 2"):
        sd.monodromy_power(0, (1, 0))


@pytest.mark.parametrize("make, name", [
    (lambda: free_nilpotent(2, 2), "unipotent-shear"),
    (lambda: free_nilpotent(2, 3), "unipotent-shear"),
    (lambda: free_nilpotent(3, 3), "central-shear"),
], ids=["F(2,2)", "F(2,3)", "F(3,3)"])
def test_monodromy_power_is_repeated_apply(make, name, rng):
    base = make()
    phi = builtin_automorphism(name, base)
    sd = semidirect_unipotent(base, phi)
    inv = invert(phi)
    for _ in range(10):
        g = random_vector(base, rng)
        for k, step in ((3, phi), (-3, inv)):
            want = g
            for _ in range(3):
                want = apply(step, want)
            assert sd.monodromy_power(k, g) == want


# ---------------------------------------------------------------------------
# surface quotients


def test_surface_genus_one_is_abelian():
    s = surface_quotient(1, 3)
    assert s.dim == 2
    assert multiply((1, 0), (0, 1), s) == (1, 1)
    assert multiply((0, 1), (1, 0), s) == (1, 1)
    assert commutator((1, 0), (0, 1), s) == (0, 0)


def test_surface_genus_two_ranks():
    s = surface_quotient(2, 3)
    assert s.rank == 4
    assert s.dim == 25
    series = lower_central_series(s)
    assert quotient_ranks(series) == (4, 5, 16)


def test_surface_rank_generating_function():
    # prod_d (1 - t^d)^(r_d) = 1 - 4t + t^2 modulo t^4 for genus 2
    t = sympy.symbols("t")
    ranks = {1: 4, 2: 5, 3: 16}
    prod = sympy.prod((1 - t ** d) ** r for d, r in ranks.items())
    got = sympy.Poly(sympy.expand(prod), t)
    expect = sympy.Poly(1 - 4 * t + t ** 2, t)
    assert (got - expect).rem(sympy.Poly(t ** 4, t)) == sympy.Poly(0, t)


def test_surface_relator_dies_in_the_quotient():
    s = surface_quotient(2, 3)
    relator = identity(s)
    for i in range(2):
        relator = multiply(
            relator,
            commutator(s.indicator(2 * i), s.indicator(2 * i + 1), s),
            s,
        )
    assert relator == identity(s)


def test_surface_group_axioms(rng):
    s = surface_quotient(2, 3)
    for _ in range(40):
        g = random_vector(s, rng, span=3)
        h = random_vector(s, rng, span=3)
        k = random_vector(s, rng, span=3)
        assert multiply(multiply(g, h, s), k, s) == multiply(g, multiply(h, k, s), s)
        assert multiply(g, inverse(g, s), s) == identity(s)
        assert power(g, 3, s) == multiply(multiply(g, g, s), g, s)


def test_surface_truncation_is_a_homomorphism(rng):
    s = surface_quotient(2, 3)
    t = truncate(s, 3)
    assert t.nilpotency_class == 2
    assert t.dim == 9
    for _ in range(25):
        g = random_vector(s, rng, span=3)
        h = random_vector(s, rng, span=3)
        assert project(multiply(g, h, s), 3, s) == multiply(
            project(g, 3, s), project(h, 3, s), t
        )


def test_surface_class_two_matches_direct_construction(rng):
    assert surface_quotient(2, 2).dim == truncate(surface_quotient(2, 3), 3).dim


def test_surface_rejects_bad_genus():
    with pytest.raises(SpecError):
        surface_quotient(0, 3)


def test_relator_check_accepts_defining_images():
    spec = free_nilpotent(4, 2)
    images = [spec.indicator(k) for k in range(4)]
    assert relator_check(images, 2, 2)


def test_relator_check_accepts_handle_swap():
    spec = free_nilpotent(4, 2)
    ids = [spec.indicator(k) for k in range(4)]
    swapped = [ids[2], ids[3], ids[0], ids[1]]
    assert relator_check(swapped, 2, 2)


def test_relator_check_rejects_collapse():
    # collapsing everything to one generator kills the degree-2 class, so
    # the graded screen refuses without any ball search
    spec = free_nilpotent(4, 2)
    x = spec.indicator(0)
    assert not relator_check([x, x, x, x], 2, 2)


def test_relator_check_conjugated_images():
    spec = free_nilpotent(4, 3)
    h = spec.indicator(1)
    images = [
        multiply(multiply(inverse(h, spec), spec.indicator(k), spec), h, spec)
        for k in range(4)
    ]
    assert relator_check(images, 2, 3)


def _count_sifts(monkeypatch):
    """Empty the quotient and closure caches and record every ``_sift_closure``
    call."""
    constructions.surface_quotient.cache_clear()
    nilgroup._normal_closure.cache_clear()
    sifts = []
    real = nilgroup._sift_closure

    def counting(*args, **kwargs):
        sifts.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(nilgroup, "_sift_closure", counting)
    monkeypatch.setattr(constructions, "_sift_closure", counting)
    return sifts


def test_relator_check_sifts_the_closure_once(monkeypatch):
    sifts = _count_sifts(monkeypatch)
    for nil_class in (3, 4):
        # class 4 has a closure lead of 2, which surface_quotient refuses;
        # the membership test still decides
        spec = free_nilpotent(4, nil_class)
        x = [spec.indicator(k) for k in range(4)]
        twist = [x[0], multiply(x[0], x[1], spec), x[2], x[3]]
        assert relator_check(x, 2, nil_class)
        assert relator_check(twist, 2, nil_class)
        assert not relator_check([x[0]] * 4, 2, nil_class)
        assert not relator_check([x[0], x[1], x[2], multiply(x[3], x[0], spec)], 2, nil_class)
    assert len(sifts) == 2
    spec = free_nilpotent(4, 3)
    assert relator_check([spec.indicator(k) for k in range(4)], 2, 3)
    assert len(sifts) == 2


def test_surface_quotient_and_relator_check_share_one_sift(monkeypatch):
    sifts = _count_sifts(monkeypatch)
    surface = surface_quotient(2, 3)
    spec = free_nilpotent(4, 3)
    x = [spec.indicator(k) for k in range(4)]
    twist = [x[0], multiply(x[0], x[1], spec), x[2], x[3]]
    assert relator_check(x, 2, 3)
    assert relator_check(twist, 2, 3)
    assert sifts == [surface.relators]
    assert nilgroup._normal_closure(free_nilpotent(4, 3), surface.relators) == surface._nrows


def test_surface_quotient_is_derived_once(monkeypatch):
    constructions.surface_quotient.cache_clear()
    derived = []
    real = nilgroup.CollectionLaw.for_quotient

    def counting(*args):
        derived.append(args)
        return real(*args)

    monkeypatch.setattr(nilgroup.CollectionLaw, "for_quotient", counting)
    surface = surface_quotient(2, 3)
    assert surface_quotient(2, 3) is surface
    assert len(derived) == 1


def _surface_map_words(rng):
    """Generator images of genus-2 surface maps, as words in x1..x4."""
    x = [[(k, 1)] for k in range(4)]

    def conjugated(words, h):
        return [[(g, -e) for g, e in reversed(h)] + w + h for w in words]

    twist_a = [x[0], x[0] + x[1], x[2], x[3]]  # x2 -> x1 x2
    twist_b = [x[1] + x[0], x[1], x[2], x[3]]  # x1 -> x2 x1
    maps = {
        "twist a": twist_a,
        "twist b": twist_b,
        "a after b": [x[0] + x[1] + x[0], x[0] + x[1], x[2], x[3]],
        "x1 -> x1 [x3, x4]": [x[0] + [(2, -1), (3, -1), (2, 1), (3, 1)], x[1], x[2], x[3]],
    }
    for i in range(3):
        maps[f"inner {i}"] = conjugated(x, random_word(4, 6, rng))
        maps[f"twist a, conjugated {i}"] = conjugated(twist_a, random_word(4, 6, rng))
        maps[f"each conjugated apart {i}"] = [conjugated([w], random_word(4, 4, rng))[0]
                                              for w in x]
    return maps


@pytest.mark.parametrize("nil_class", [2, 3])
def test_relator_check_agrees_with_the_quotient(nil_class):
    # the images define a map on the surface quotient exactly when the
    # linearization accepts them; relator_check decides the same in the cover
    rng = random.Random(nil_class)
    cover, surface = free_nilpotent(4, nil_class), surface_quotient(2, nil_class)
    seen = set()
    for name, words in _surface_map_words(rng).items():
        try:
            Endomorphism(surface, [eval_word(w, surface) for w in words]).linear_map
            respected = True
        except SpecError:
            respected = False
        assert relator_check([eval_word(w, cover) for w in words], 2, nil_class) == respected, name
        seen.add(respected)
    assert seen == ({True} if nil_class == 2 else {True, False})
    # the collapse kills the relator, which the exact test accepts: the
    # degree-2 screen is what refuses it
    collapse = [cover.indicator(0)] * 4
    assert not relator_check(collapse, 2, nil_class)


SURFACE_SPEC_DIGESTS = {
    (1, 4): "4f068f95f3b6506c1873e8168f8267afbc4eda9fccce3b14ac9a581a0f375c43",
    (2, 2): "0d91352f0bfa75151281068700ab3f83acc6993abfc1f2f395e0157b2531785b",
    (2, 3): "a5cc2d44506be6b62b673226c173ce1af279eaa8cdc27186cc227e6625c0f1e1",
    (3, 3): "83baeb2cd8091e7b1e1edb8956d59a2001ad1f9094f4840e33d9edcca235de3c",
}


@pytest.mark.parametrize("genus, nil_class", sorted(SURFACE_SPEC_DIGESTS))
def test_surface_spec_json_is_pinned(genus, nil_class):
    # sha256 of the spec JSON, keys sorted: relations, relator and ranks
    text = json.dumps(spec_to_json(surface_quotient(genus, nil_class)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SURFACE_SPEC_DIGESTS[genus, nil_class]
