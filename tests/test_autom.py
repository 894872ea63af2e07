import math
from fractions import Fraction

import pytest
import sympy

from nilentropy import (
    Endomorphism,
    SpecError,
    abelian_comparison,
    abelianization_matrix,
    apply,
    builtin_automorphism,
    compose,
    free_nilpotent,
    graded_matrix,
    growth_series,
    identity,
    identity_endomorphism,
    inverse,
    invert,
    is_automorphism,
    is_homologically_trivial,
    iterate,
    linearization_matrix,
    multiply,
    spectral_report,
    surface_quotient,
)

from nilentropy import autom
from nilentropy.linalg import bareiss_det

from conftest import random_vector


def _identity_rows(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# construction and application


def test_apply_is_a_homomorphism(f23, rng):
    phi = builtin_automorphism("fib", f23)
    for _ in range(50):
        g = random_vector(f23, rng)
        h = random_vector(f23, rng)
        assert apply(phi, multiply(g, h, f23)) == multiply(
            apply(phi, g), apply(phi, h), f23
        )
    assert apply(phi, identity(f23)) == identity(f23)


def test_builtin_images(heis):
    assert builtin_automorphism("fib", heis).images == ((1, 1, 0), (1, 0, 0))
    assert builtin_automorphism("unipotent-shear", heis).images == ((1, 0, 0), (1, 1, 0))
    assert builtin_automorphism("central-shear", heis).images == ((1, 0, 1), (0, 1, 0))
    with pytest.raises(SpecError):
        builtin_automorphism("no-such-map", heis)


def test_endomorphism_validates_arity(heis):
    with pytest.raises(SpecError):
        Endomorphism(heis, [(1, 0, 0)])


def test_compose_iterate_invert(f23, rng):
    phi = builtin_automorphism("fib", f23)
    psi = builtin_automorphism("unipotent-shear", f23)
    comp = compose(phi, psi)
    cube = iterate(phi, 3)
    inv = invert(phi)
    both = compose(phi, inv)
    for _ in range(30):
        g = random_vector(f23, rng)
        assert apply(comp, g) == apply(phi, apply(psi, g))
        assert apply(cube, g) == apply(phi, apply(phi, apply(phi, g)))
        assert apply(both, g) == g
    assert iterate(phi, 0).images == identity_endomorphism(f23).images
    assert iterate(phi, 1).images == phi.images


@pytest.mark.parametrize("n", [-1, 2.5])
def test_iterate_refuses_a_bad_exponent(heis, n):
    with pytest.raises(SpecError, match="iterate exponent"):
        iterate(builtin_automorphism("fib", heis), n)


@pytest.mark.parametrize("make, names", [
    (lambda: free_nilpotent(2, 3), ("fib", "unipotent-shear")),
    (lambda: free_nilpotent(3, 3), ("fib", "central-shear")),
    (lambda: surface_quotient(2, 3), ()),
], ids=["F(2,3)", "F(3,3)", "surface(2,3)"])
def test_iterate_is_the_compose_chain_and_caches_nothing(make, names):
    spec = make()
    maps = [builtin_automorphism(name, spec) for name in names]
    if not maps:
        # the handle twist x2 -> x1 x2 respects the surface relator
        x = [spec.indicator(k) for k in range(spec.rank)]
        maps = [Endomorphism(spec, [x[0], multiply(x[0], x[1], spec)] + x[2:])]
    for phi in maps:
        phi.linear_map  # built before the snapshot: it is phi's own, not a power's
        # every slot, by identity and by value
        state = {slot: (getattr(phi, slot), repr(getattr(phi, slot)))
                 for slot in Endomorphism.__slots__}
        chain = identity_endomorphism(spec)
        for n in range(6):
            got = iterate(phi, n)
            assert got.images == chain.images, n
            assert got.spec is spec
            chain = compose(phi, chain)
        assert all(getattr(phi, slot) is value and repr(value) == text
                   for slot, (value, text) in state.items())


def test_invert_rejects_non_automorphism(heis):
    doubling = Endomorphism(heis, [(2, 0, 0), (0, 1, 0)])
    assert not is_automorphism(doubling)
    with pytest.raises(SpecError):
        invert(doubling)


def test_is_automorphism(heis, f24):
    assert is_automorphism(builtin_automorphism("fib", f24))
    assert not is_automorphism(Endomorphism(heis, [(2, 0, 0), (0, 1, 0)]))
    # swap of the generators
    assert is_automorphism(Endomorphism(heis, [(0, 1, 0), (1, 0, 0)]))


def _count_determinants(monkeypatch):
    calls = []
    real = autom.bareiss_det

    def counting(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(autom, "bareiss_det", counting)
    return calls


def test_is_automorphism_takes_its_determinants_once(monkeypatch):
    calls = _count_determinants(monkeypatch)
    spec = free_nilpotent(2, 4)
    phi = builtin_automorphism("fib", spec)
    assert is_automorphism(phi)
    # one Bareiss determinant per map, of the weight-1 block
    assert calls == [graded_matrix(phi, 1)]
    growth_series(phi, spec.indicator(0), 10)
    assert is_automorphism(phi)
    assert len(calls) == 1
    # a fresh map pays once over all of its generators' series
    psi = builtin_automorphism("fib", spec)
    calls.clear()
    abelian_comparison(psi, n_max=20)
    assert len(calls) == 1
    # a non-automorphism keeps its answer too
    doubling = Endomorphism(spec, [multiply(spec.indicator(0), spec.indicator(0), spec),
                                   spec.indicator(1)])
    calls.clear()
    assert not is_automorphism(doubling)
    assert not is_automorphism(doubling)
    assert len(calls) == 1


def test_is_automorphism_refusal_is_raised_every_time():
    surface = surface_quotient(2, 3)
    fib = builtin_automorphism("fib", surface)  # breaks the surface relator
    for _ in range(2):
        with pytest.raises(SpecError, match="do not respect the relators"):
            is_automorphism(fib)
    with pytest.raises(SpecError, match="do not respect the relators"):
        growth_series(fib, surface.indicator(0), 5)


# ---------------------------------------------------------------------------
# matrices


def test_abelianization_matrix_anchor(f23):
    fib = builtin_automorphism("fib", f23)
    assert abelianization_matrix(fib) == ((1, 1), (1, 0))
    shear = builtin_automorphism("unipotent-shear", f23)
    assert abelianization_matrix(shear) == ((1, 1), (0, 1))


def test_graded_matrix_weight_two_is_determinant(heis, rng):
    # for rank 2 the weight-2 layer is the exterior square of homology
    for _ in range(20):
        while True:
            a, b, c = (rng.randint(-3, 3) for _ in range(3))
            # unimodular completions of a random first column
            m = sympy.Matrix([[a, b], [c, 0]])
            if abs(m.det()) == 1:
                break
        x1 = (a, c, 0)
        x2 = (b, 0, 0)
        phi = Endomorphism(heis, [x1, x2])
        det = int(m.det())
        assert graded_matrix(phi, 2) == ((det,),)


def test_graded_matrix_determinant_identity(rng):
    # det of the weight-2 action equals det(M)^(rank-1) for class 2
    spec = free_nilpotent(3, 2)
    for _ in range(10):
        m = sympy.Matrix(3, 3, lambda i, j: rng.randint(-2, 2))
        if abs(m.det()) != 1:
            continue
        images = [
            tuple(int(m[i, j]) for i in range(3)) + (0,) * (spec.dim - 3)
            for j in range(3)
        ]
        phi = Endomorphism(spec, images)
        block = sympy.Matrix(graded_matrix(phi, 2))
        assert block.det() == m.det() ** 2


def test_graded_matrix_multiplicativity(f23, rng):
    phi = builtin_automorphism("fib", f23)
    psi = builtin_automorphism("central-shear", f23)
    comp = compose(phi, psi)
    for d in (1, 2, 3):
        a = sympy.Matrix(graded_matrix(phi, d))
        b = sympy.Matrix(graded_matrix(psi, d))
        c = sympy.Matrix(graded_matrix(comp, d))
        assert c == a * b
    with pytest.raises(SpecError):
        graded_matrix(phi, 4)


def test_homologically_trivial_maps_act_trivially_on_gradeds(f23, rng):
    # images x_i * (element of the commutator subgroup)
    for _ in range(10):
        tails = [
            (0, 0, rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
            for _ in range(2)
        ]
        images = [
            multiply(f23.indicator(k), tails[k], f23) for k in range(2)
        ]
        phi = Endomorphism(f23, images)
        assert is_homologically_trivial(phi)
        assert is_automorphism(phi)
        for d in (1, 2, 3):
            n = len([w for w in f23.weights if w == d])
            assert graded_matrix(phi, d) == _identity_rows(n)
    assert not is_homologically_trivial(builtin_automorphism("fib", f23))


def test_linearization_matrix_free_is_filtration_triangular(f23):
    phi = builtin_automorphism("fib", f23)
    m = sympy.Matrix(linearization_matrix(phi))
    n = f23.dim
    assert m.shape == (n, n)
    for i in range(n):
        for j in range(n):
            if f23.weights[i] > f23.weights[j]:
                continue
            if f23.weights[i] < f23.weights[j]:
                assert m[i, j] == 0
    # diagonal blocks are the graded actions
    for d in (1, 2, 3):
        idxs = [k for k, w in enumerate(f23.weights) if w == d]
        block = m[idxs, idxs]
        assert block == sympy.Matrix(graded_matrix(phi, d))
    # charpoly is integral even when the chart has rational entries
    poly = m.charpoly()
    assert all(sympy.Rational(c).is_integer for c in poly.all_coeffs())


def test_spectral_report_fib():
    report = spectral_report(((1, 1), (1, 0)))
    assert report.charpoly == (1, -1, -1)
    golden = (1 + 5 ** 0.5) / 2
    assert report.spectral_radius == pytest.approx(golden, abs=1e-9)
    assert not report.unipotent
    assert not report.quasi_unipotent
    assert report.radius_gap == pytest.approx(golden - 1, abs=1e-9)


def test_spectral_radius_against_bisection():
    # independent root bracket for x^2 - x - 1 on [1, 2]
    lo, hi = 1.0, 2.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if mid * mid - mid - 1 < 0:
            lo = mid
        else:
            hi = mid
    report = spectral_report(((1, 1), (1, 0)))
    assert report.spectral_radius == pytest.approx((lo + hi) / 2, abs=1e-9)


def test_spectral_report_quasi_unipotent_cases():
    rot = spectral_report(((0, -1), (1, -1)))
    assert rot.quasi_unipotent and not rot.unipotent
    assert rot.spectral_radius == pytest.approx(1.0)
    assert rot.radius_gap is None
    shear = spectral_report(((1, 1), (0, 1)))
    assert shear.unipotent and shear.quasi_unipotent
    ident = spectral_report(sympy.eye(2))
    assert ident.unipotent
    # x^2 - x/2 + 1: both roots on the unit circle, neither a root of unity
    circle = spectral_report(((Fraction(1, 2), -1), (1, 0)))
    assert not circle.quasi_unipotent
    assert (circle.spectral_radius, circle.radius_gap) == (1.0, 0.0)


def _sympy_report(rows):
    """The spectral report computed with sympy: the test-only oracle."""
    m = sympy.Matrix(rows)
    n = m.shape[0]
    x = sympy.Symbol("x")
    coeffs = tuple(int(c) for c in m.charpoly(x).all_coeffs())
    p = m - sympy.eye(n)
    unipotent = p.is_zero_matrix
    for _ in range(n - 1):
        p = p * (m - sympy.eye(n))
        unipotent = unipotent or p.is_zero_matrix
    factors = sympy.factor_list(sympy.Poly(coeffs, x))[1]
    quasi = unipotent or all(
        f.degree() > 0 and f.LC() == 1 and f.eval(0) != 0
        and any(sympy.Poly(sympy.cyclotomic_poly(k, x), x) == f
                for k in range(1, 2 * n * n + 3))
        for f, _ in factors
    )
    if quasi:
        radius, error, gap = 1.0, 0.0, None
    else:
        # 60-digit roots of the squarefree part round to the correctly rounded radius
        squarefree = sympy.Poly(coeffs, x).sqf_part()
        radius = max(float(abs(r)) for r in squarefree.nroots(n=60, maxsteps=200))
        error, gap = 1e-9, radius - 1.0
    return (coeffs, radius, error, bool(unipotent), bool(quasi), gap)


def test_spectral_report_matches_sympy(rng):
    x = sympy.Symbol("x")
    seen = {"real": 0, "non-real": 0, "quasi": 0, "not quasi": 0}
    while sum(seen.values()) < 2 * 80:
        n = rng.randint(1, 5)
        if rng.random() < 0.25:
            # triangular with diagonal entries +-1, 0: (quasi-)unipotent or not
            rows = tuple(tuple(rng.choice((1, -1, 0)) if i == j else
                               rng.randint(-3, 3) * (j > i) for j in range(n))
                         for i in range(n))
        else:
            rows = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        squarefree = sympy.Poly(sympy.Matrix(rows).charpoly(x).as_expr(), x).sqf_part()
        real = squarefree.count_roots() == squarefree.degree()
        report = spectral_report(rows)
        got = (report.charpoly, report.spectral_radius, report.radius_error,
               report.unipotent, report.quasi_unipotent, report.radius_gap)
        assert repr(got) == repr(_sympy_report(rows)), rows
        seen["real" if real else "non-real"] += 1
        seen["quasi" if report.quasi_unipotent else "not quasi"] += 1
    assert all(seen.values()) and seen["non-real"] >= 20, seen


# a root 3 t +- 4 t i of modulus 5 t, an odd integer between 2^53 and 2^54:
# halfway between two floats, it rounds to the one with an even last bit
_TIE = 2 ** 53 // 5 + 3

RADII = [
    (((0, -3, 2), (-3, 3, 1), (1, 3, 3)), 4.406632672299806),
    (((2, -2, 1), (3, 3, 3), (3, -2, 3)), 5.066175486004313),
    (((-3, 3, 2, -3), (0, 3, 2, 3), (-2, 0, -2, 0), (3, 2, -1, -3)), 4.656965343990649),
    (((3, 1, 0, 2), (-1, -2, 1, 1), (-2, -3, -3, 3), (2, 2, -3, 1)), 4.146073331807827),
    (((Fraction(1, 2), 1), (1, 0)), 1.2807764064044151),
    (((Fraction(1, 2), 0), (0, Fraction(1, 3))), 0.5),
    (((0, 1), (0, 0)), 0.0),
    (((10 ** 200, 0), (0, 1)), 1e+200),
    (((0, 10 ** 200), (1, 0)), 1e+100),
    (((2 ** 53 + 1, 0), (0, 1)), 2.0 ** 53),
    (((Fraction(2 ** 53 + 1, 2 ** 53),),), 1.0),
    (((3 * _TIE, -4 * _TIE), (4 * _TIE, 3 * _TIE)), float(5 * _TIE - 1)),
]


@pytest.mark.parametrize("rows, radius", RADII)
def test_non_real_spectral_radius_is_correctly_rounded(rows, radius):
    # the first four: the largest modulus is that of a non-real pair; each
    # radius is the correctly rounded float(sympy.Abs(root).evalf(60)), one
    # ulp away from the modulus of a 30-digit complex root.  Then rational
    # entries, a nilpotent matrix, radii past 2^53 and float midpoints
    assert spectral_report(rows).spectral_radius == radius


@pytest.mark.parametrize("guess", [1.0, 1e9])
def test_spectral_radius_does_not_depend_on_the_estimate(monkeypatch, guess):
    # the float estimate only chooses where the exact disk test is tried first
    monkeypatch.setattr(autom, "_guess", lambda poly: guess)
    for rows, radius in RADII:
        assert spectral_report(rows).spectral_radius == radius, rows


def test_radius_is_exact_on_the_circle():
    # z^2 + 1 and (z^2 + 1)(2z - 1) have their outermost roots on |z| = 1,
    # which the open disk leaves out; (z - 2)(2z - 1) pairs 2 with 1/2, as a
    # root on the circle would be
    assert not autom._inside([1, 0, 1])
    assert autom._radius_is([1, 0, 1], 1, 1)
    assert autom._radius_is([2, -1, 2, -1], 1, 1)
    assert not autom._radius_is([2, -5, 2], 1, 1)
    assert not autom._radius_is([1, 0, 1], 1, 2)
    assert autom._radius_is([4, 0, 1], 1, 2)


def test_graded_radii_of_the_free_gap_probe():
    # phi = (a -> b, b -> c, c -> a b^-1) on F(3,5): its weight-d layers have
    # rho_d = rho_1^d, the paper's claim on this spec.  The d = 5 radius
    # matches mpmath nroots(n=60) on the factors of its characteristic
    # polynomial, whose squarefree part has degree 18
    spec = free_nilpotent(3, 5)
    a, b, c = (spec.indicator(j) for j in range(3))
    phi = Endomorphism(spec, [b, c, multiply(a, inverse(b, spec), spec)])
    layers = [graded_matrix(phi, d) for d in range(1, 6)]
    assert [len(m) for m in layers] == [3, 3, 8, 18, 48]
    radii = [spectral_report(m).spectral_radius for m in layers]
    assert radii == [1.210607794406086, 1.465571231876768, 1.7742319565673446,
                     2.1478990357047874, 2.6002633142215315]
    for d, radius in enumerate(radii, 1):
        assert abs(radius ** (1 / d) - radii[0]) < 1e-12


def test_spectral_radius_of_large_real_spectrum():
    # companion matrix of (x - 3)(x + 5)(x - 7/1)(x^2 - 2): radius 7 exactly
    # up to the float; the roots +-sqrt(2) exercise the bisection
    coeffs = [int(c) for c in sympy.Poly(
        sympy.expand((sympy.Symbol("x") - 3) * (sympy.Symbol("x") + 5)
                     * (sympy.Symbol("x") - 7) * (sympy.Symbol("x") ** 2 - 2))).all_coeffs()]
    n = len(coeffs) - 1
    companion = [[0] * n for _ in range(n)]
    for i in range(1, n):
        companion[i][i - 1] = 1
    for i in range(n):
        companion[i][n - 1] = -coeffs[n - i]
    report = spectral_report(companion)
    assert report.charpoly == tuple(coeffs)
    assert report.spectral_radius == 7.0
    sqrt2 = spectral_report(((0, 2), (1, 0)))
    assert sqrt2.spectral_radius == math.sqrt(2)


def test_bareiss_det_matches_sympy(rng):
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            rows[rng.randrange(n)][0] = 0
            rows[0] = [0] * n if rng.random() < 0.2 else rows[0]
        assert bareiss_det(rows) == sympy.Matrix(rows).det()
    assert bareiss_det([[0, 1], [1, 0]]) == -1


def test_spectral_report_rejects_non_square():
    with pytest.raises(SpecError):
        spectral_report(((1, 2, 3), (4, 5, 6)))


# ---------------------------------------------------------------------------
# quotient specs


def _lie_homomorphism_defects(spec, m):
    """Basis pairs ``(x, y)`` where ``m[x, y] != [m x, m y]`` under the
    spec's Mal'cev bracket."""
    n = spec.dim
    bracket = spec.law.bracket_vec

    def column(vec):
        return {i: x for i in range(n)
                if (x := sum(m[i, j] * v for j, v in vec.items()))}

    unit = [{i: Fraction(1)} for i in range(n)]
    return [(x, y) for x in range(n) for y in range(x)
            if column(bracket(unit[x], unit[y]))
            != bracket(column(unit[x]), column(unit[y]))]


def test_quotient_linearization_is_integral_triangular():
    s = surface_quotient(2, 2)
    phi = identity_endomorphism(s)
    m = sympy.Matrix(linearization_matrix(phi))
    assert m == sympy.eye(s.dim)
    for s in (surface_quotient(2, 2), surface_quotient(2, 3)):
        x = [s.indicator(k) for k in range(s.rank)]
        # handle swap: a1,b1 <-> a2,b2 conjugates the relator, still a map of s
        swap = Endomorphism(s, [x[2], x[3], x[0], x[1]])
        twist = Endomorphism(s, [x[0], multiply(x[0], x[1], s), x[2], x[3]])
        for phi in (swap, twist):
            assert is_automorphism(phi)
            ms = sympy.Matrix(linearization_matrix(phi))
            for i in range(s.dim):
                for j in range(s.dim):
                    if s.weights[i] < s.weights[j]:
                        assert ms[i, j] == 0
            assert abs(ms.det()) == 1
            # the chart of the first kind may be rational; its charpoly is not
            assert all(c.is_integer for c in ms.charpoly().all_coeffs())
            assert _lie_homomorphism_defects(s, ms) == []
            for d in range(1, s.nilpotency_class + 1):
                idxs = [k for k, w in enumerate(s.weights) if w == d]
                assert ms[idxs, idxs] == sympy.Matrix(graded_matrix(phi, d))
