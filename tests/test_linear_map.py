"""``apply``, the graded matrices and ``invert`` read off one linear map on the
Mal'cev Lie algebra, against the product of basis-image powers and the
commutator-tree basis images, and the package without sympy or numpy."""

import math
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from functools import cache
from itertools import islice

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nilentropy import (
    Endomorphism,
    GroupSpec,
    GrowthWarning,
    HallBasis,
    IntegralityError,
    SpecError,
    apply,
    builtin_automorphism,
    compose,
    conjugate,
    eval_word,
    free_nilpotent,
    graded_matrix,
    growth_series,
    identity_endomorphism,
    invert,
    is_automorphism,
    iterate,
    linearization_matrix,
    multiply,
    power,
    semidirect_unipotent,
    surface_quotient,
)
from nilentropy.autom import _orbit
from nilentropy.collect import bracket_over
from nilentropy.linalg import bareiss_det
from nilentropy.mpoly import exact_quotient
from nilentropy.nilgroup import _box_length

from conftest import (
    apply_reference,
    basis_images_reference,
    box_length_reference,
    unpack_reference,
)

BIG = st.integers(2 ** 64, 2 ** 96)
COORD = st.one_of(st.integers(-3, 3), BIG, BIG.map(lambda v: -v))


def _twists(spec):
    """Handle Dehn twists ``x2 -> x1 x2`` and ``x1 -> x2 x1``: maps of every
    surface quotient, and of free groups."""
    x = [spec.indicator(k) for k in range(spec.rank)]
    a, b = list(x), list(x)
    a[1] = multiply(x[0], x[1], spec)
    b[0] = multiply(x[1], x[0], spec)
    return [a, b]


def _squares(spec):
    return [[power(spec.indicator(k), 2, spec) for k in range(spec.rank)]]


def _trivial(spec):
    return [[spec.identity()] * spec.rank]


def _pinch(spec):
    """A map onto the first handle, not invertible: ``a_2 -> b_1``,
    ``b_2 -> a_1`` and the other handles to 1, so the surface relator goes
    to ``[a_1, b_1][b_1, a_1] = 1``."""
    x = [spec.indicator(k) for k in range(spec.rank)]
    images = [x[0], x[1], x[1], x[0]] + [spec.identity()] * (spec.rank - 4)
    return [images]


def _random_images(spec, rng):
    return [[tuple(rng.randint(-3, 3) for _ in range(spec.dim)) for _ in range(spec.rank)]
            for _ in range(3)]


# every map listed is an endomorphism of its group (and the group's relators)
GROUPS = {
    "F(2,2)": (lambda: free_nilpotent(2, 2), ("twists", "squares", "trivial", "random")),
    "F(2,4)": (lambda: free_nilpotent(2, 4), ("twists", "squares", "trivial", "random")),
    "F(3,3)": (lambda: free_nilpotent(3, 3), ("twists", "squares", "trivial", "random")),
    "surface(2,3)": (cache(lambda: surface_quotient(2, 3)), ("twists", "trivial", "pinch")),
    "surface(3,2)": (cache(lambda: surface_quotient(3, 2)),
                     ("twists", "squares", "trivial", "pinch")),
    "F(3,2)/(1,2,0)": (cache(lambda: GroupSpec(HallBasis(3, 2), relations={2: [(1, 2, 0)]})),
                       ("squares", "trivial")),
}

MAPS = {"twists": _twists, "squares": _squares, "trivial": _trivial, "pinch": _pinch}


def _draw_map(name, data):
    """One listed map of the group ``name``, conjugated or not."""
    make, kinds = GROUPS[name]
    spec = make()
    kind = data.draw(st.sampled_from(kinds))
    if kind == "random":
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        candidates = _random_images(spec, rng)
    else:
        candidates = MAPS[kind](spec)
    images = data.draw(st.sampled_from(candidates))
    # an inner automorphism on top keeps the map valid and makes its images large
    h = data.draw(st.tuples(*[COORD] * spec.dim))
    if data.draw(st.booleans()):
        images = [conjugate(img, h, spec) for img in images]
    return Endomorphism(spec, images)


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_apply_matches_basis_image_powers(name, data):
    phi = _draw_map(name, data)
    spec = phi.spec
    g = data.draw(st.tuples(*[COORD] * spec.dim))
    assert apply(phi, g) == apply_reference(phi, g)
    assert apply(phi, spec.identity()) == spec.identity()


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_graded_matrix_matches_basis_image_blocks(name, data):
    phi = _draw_map(name, data)
    spec = phi.spec
    images = basis_images_reference(phi)
    for d in range(1, spec.nilpotency_class + 1):
        idxs = [k for k, w in enumerate(spec.weights) if w == d]
        assert graded_matrix(phi, d) == tuple(tuple(images[j][i] for j in idxs) for i in idxs)


@pytest.mark.parametrize("name", ["F(2,4)", "F(3,3)", "surface(2,3)"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_is_automorphism_is_the_graded_determinant_test(name, data):
    """The weight-1 determinant decides what those of all graded blocks do."""
    phi = _draw_map(name, data)
    spec = phi.spec
    if data.draw(st.booleans()):
        phi = compose(phi, _draw_map(name, data))
    want = all(bareiss_det(graded_matrix(phi, d)) in (1, -1)
               for d in range(1, spec.nilpotency_class + 1))
    assert is_automorphism(Endomorphism(spec, phi.images)) == want


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_apply_is_a_homomorphism_on_words(name, data):
    """``phi(w(x_1, ...)) = w(phi(x_1), ...)``, the right side by multiply and
    power alone."""
    phi = _draw_map(name, data)
    spec = phi.spec
    letter = st.tuples(st.integers(0, spec.rank - 1),
                       st.one_of(st.integers(-3, 3), st.sampled_from((2 ** 70, -2 ** 70))))
    word = data.draw(st.lists(letter, max_size=8))
    want = spec.identity()
    for gen, e in word:
        want = multiply(want, power(phi.images[gen], e, spec), spec)
    assert apply(phi, eval_word(word, spec)) == want


def _conjugated_f33_images(spec):
    x = [spec.indicator(k) for k in range(3)]
    images = [multiply(x[0], x[1], spec), multiply(x[2], power(x[1], -2, spec), spec), x[0]]
    h = (2 ** 70, -3, 2 ** 65 + 1) + (5,) * (spec.dim - 3)
    return [conjugate(img, h, spec) for img in images]


@pytest.mark.parametrize("make, images", [
    (GROUPS["surface(2,3)"][0], lambda s: _twists(s)[0]),
    (GROUPS["surface(2,3)"][0], lambda s: _twists(s)[1]),
    (lambda: free_nilpotent(3, 3), _conjugated_f33_images),
], ids=["surface(2,3) twist a", "surface(2,3) twist b", "F(3,3) conjugated"])
def test_invert_is_a_two_sided_inverse(make, images):
    spec = make()
    phi = Endomorphism(spec, images(spec))
    psi = invert(phi)
    for j in range(spec.rank):
        assert apply(phi, psi.images[j]) == spec.indicator(j)
        assert apply(psi, phi.images[j]) == spec.indicator(j)
    assert (sympy.Matrix(linearization_matrix(psi)) * sympy.Matrix(linearization_matrix(phi))
            == sympy.eye(spec.dim))


def test_iterated_orbit_matches_reference():
    spec = free_nilpotent(3, 3)
    phi = builtin_automorphism("fib", spec)
    g = got = spec.indicator(0)
    for _ in range(25):
        got = apply(phi, got)
        g = apply_reference(phi, g)
        assert got == g


def _hyperbolic_block_images(spec):
    """``x1 -> x1^2 x2``, ``x2 -> x1 x2`` on homology, with fixed tails of
    weight 2 and more, and the other generators fixed."""
    rng = random.Random(7)
    images = [spec.indicator(k) for k in range(spec.rank)]
    for j, (a, b) in enumerate(((2, 1), (1, 1))):
        v = [0] * spec.dim
        v[0], v[1] = a, b
        for k, w in enumerate(spec.weights):
            if w >= 2 and rng.random() < 0.3:
                v[k] = rng.choice((-2, -1, 1, 2))
        images[j] = tuple(v)
    return images


def _surface_twist_composite(spec):
    a, b = (Endomorphism(spec, images) for images in _twists(spec))
    return compose(a, b).images


ORBIT_MAPS = [
    (lambda: free_nilpotent(2, 5), _hyperbolic_block_images),
    (lambda: free_nilpotent(3, 4), _hyperbolic_block_images),
    (GROUPS["surface(2,3)"][0], _surface_twist_composite),
]
ORBIT_IDS = ["F(2,5) block", "F(3,4) block", "surface(2,3) twists"]


@pytest.mark.parametrize("make, images", ORBIT_MAPS, ids=ORBIT_IDS)
def test_orbit_matches_reference(make, images):
    """The exact orbit, its box lengths and the Karidi series, which maps
    the box kernel over that orbit, against the reference images and the
    per-coordinate box length."""
    spec = make()
    phi = Endomorphism(spec, images(spec))
    g = want = tuple(range(1, spec.dim + 1))
    series = growth_series(phi, g, 40).lengths()
    for n, (got, length) in enumerate(zip(_orbit(phi, g), series), 1):
        want = apply_reference(phi, want)
        assert got == want, n
        box = repr(box_length_reference(want, spec.weights))
        assert repr(_box_length(got, spec.weights)) == box, n
        assert repr(length) == box, n
    assert n == 40


@pytest.mark.parametrize("make, images", ORBIT_MAPS, ids=ORBIT_IDS)
@pytest.mark.parametrize("start", ["range", "generator", "inverse"])
def test_orbit_step_matches_the_old_path(make, images, start):
    """Each step of the exact orbit against the passes it was once taken
    in: ``M p`` computed densely, an exact division by the denominator
    entry by entry, ``unpack_scaled`` at denominator 1, and the box length
    of the image against the per-coordinate loop; the images against the
    reference images."""
    spec = make()
    law = spec.law
    phi = Endomorphism(spec, images(spec))
    columns, den = phi.linear_map
    dense = [[0] * spec.dim for _ in range(spec.dim)]
    for j, column in enumerate(columns):
        for i, m in column:
            dense[i][j] = m
    g = want = {"range": tuple(range(1, spec.dim + 1)), "generator": spec.indicator(1),
                "inverse": law.inverse(tuple(range(-3, spec.dim - 3)))}[start]
    p = law.pack_scaled(g)
    for n, got in enumerate(islice(_orbit(phi, g), 40), 1):
        q = [sum(m * v for m, v in zip(row, p)) for row in dense]
        p, h = law.unpack_scaled([exact_quotient(v, den) for v in q], 1)
        want = apply_reference(phi, want)
        assert got == h == want, n
        assert (repr(_box_length(got, spec.weights))
                == repr(box_length_reference(want, spec.weights))), n
    assert n == 40


LAWS = {
    "F(2,5)": lambda: free_nilpotent(2, 5).law,
    "F(3,4)": lambda: free_nilpotent(3, 4).law,
    "F(2,6)": lambda: free_nilpotent(2, 6).law,
    "surface(2,3)": lambda: GROUPS["surface(2,3)"][0]().law,
}


@pytest.mark.parametrize("name", LAWS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_unpack_scaled_is_the_scaled_exponential(name, data):
    law = LAWS[name]()
    d = law.log_scale
    g = data.draw(st.tuples(*[COORD] * law.dim))
    assert law.unpack_scaled(law.pack_scaled(g), 1)[1] == g
    # any integer vector: exp(z / D) when integral, else a checked remainder
    z = data.draw(st.one_of(
        st.tuples(*[st.integers(-3 * d, 3 * d)] * law.dim),
        st.tuples(*[COORD] * law.dim).map(law.pack_scaled),
    ))
    want = unpack_reference(law, {k: Fraction(v, d) for k, v in enumerate(z) if v})
    if all(Fraction(v).denominator == 1 for v in want):
        assert law.unpack_scaled(z, 1) == (z, tuple(want))
    else:
        with pytest.raises(IntegralityError):
            law.unpack_scaled(z, 1)


def test_unpack_scaled_names_the_scale():
    law = free_nilpotent(2, 2).law
    assert law.log_scale == 2
    with pytest.raises(IntegralityError, match="^expected multiple of 2, got remainder 1$"):
        law.unpack_scaled((1, 0, 0), 1)
    # the map's denominator divides first, checked the same way
    assert law.unpack_scaled((6, 0, 12), 3) == ((2, 0, 4), (1, 0, 2))
    with pytest.raises(IntegralityError, match="^expected multiple of 3, got remainder 1$"):
        law.unpack_scaled((7, 0, 12), 3)


def test_identity_map_has_unit_linearization():
    for spec in (free_nilpotent(2, 4), surface_quotient(2, 3)):
        columns, denominator = identity_endomorphism(spec).linear_map
        assert denominator == 1
        assert columns == tuple(((i, 1),) for i in range(spec.dim))


def _linear_map_in_fractions(phi):
    """``L`` of ``phi`` as ``{(i, j): entry}``, by the law's own brackets in
    ``Fraction`` arithmetic: a cover entry of weight ``w`` evaluates to
    ``d^w`` times its column, ``d`` the law's ``log_scale``."""
    spec = phi.spec
    law = spec.law
    values = spec.basis.evaluate(
        lambda gen: {i: v for i, v in enumerate(law.pack_scaled(phi.images[gen])) if v},
        law.bracket_vec)
    return {(i, j): Fraction(v) / law.log_scale ** spec.basis.weights[p]
            for j, p in enumerate(spec._positions) for i, v in values[p].items()}


SURFACES = [(2, 2), (2, 3), (3, 2), (3, 3)]


@pytest.mark.parametrize("genus, nil_class", SURFACES)
def test_linear_map_on_a_quotient_matches_fraction_brackets(genus, nil_class):
    """``linear_map`` brackets in integers over the law's integral partner
    table; the handle twists, conjugated too, give the matrix that the law's
    ``Fraction`` brackets give, over its least denominator."""
    spec = surface_quotient(genus, nil_class)
    s, table = spec.law._integral_partners
    assert all(type(c) is int for row in table.values() for pairs in row.values()
               for _, c in pairs)
    rng = random.Random(genus * 10 + nil_class)
    x, y = ({k: rng.randint(-9, 9) for k in range(spec.dim)} for _ in range(2))
    assert bracket_over(table, x, y) == {k: s * c for k, c in spec.law.bracket_vec(x, y).items()}
    h = tuple(rng.randint(-9, 9) for _ in range(spec.dim))
    for images in _twists(spec):
        for images in (images, [conjugate(img, h, spec) for img in images]):
            columns, denominator = Endomorphism(spec, images).linear_map
            got = {(i, j): Fraction(m, denominator)
                   for j, column in enumerate(columns) for i, m in column}
            assert got == _linear_map_in_fractions(Endomorphism(spec, images))
            assert math.gcd(denominator, *(m for column in columns for _, m in column)) == 1


@pytest.mark.parametrize("genus, nil_class", SURFACES)
def test_map_breaking_the_surface_relator_is_refused(genus, nil_class):
    # swapping a_1 and b_1 sends [a_1, b_1] to its inverse
    spec = surface_quotient(genus, nil_class)
    x = [spec.indicator(k) for k in range(spec.rank)]
    with pytest.raises(SpecError, match="do not respect the relators"):
        Endomorphism(spec, [x[1], x[0], *x[2:]]).linear_map


def test_map_not_respecting_the_relators_is_refused():
    # fib sends [x1,x2][x3,x4] to [x2,x1][x3,x4], outside the relator's closure
    s = surface_quotient(2, 3)
    phi = builtin_automorphism("fib", s)
    with pytest.raises(SpecError, match="do not respect the relators"):
        apply(phi, s.indicator(0))


def test_linear_step_raises_integrality_error():
    spec = GroupSpec(HallBasis(2, 2))
    phi = identity_endomorphism(spec)
    # a denominator that does not divide M p = D log x1 = (2, 0, 0)
    phi._linear = (phi.linear_map[0], 7)
    with pytest.raises(IntegralityError, match="expected multiple of 7, got remainder 2"):
        apply(phi, spec.indicator(0))


@pytest.mark.parametrize("g", [(1, 3, 0), (7, 3, 1), (14, -5, 2)])
def test_linear_step_names_the_first_remainder(g):
    spec = GroupSpec(HallBasis(2, 2))
    phi = identity_endomorphism(spec)
    phi._linear = (phi.linear_map[0], 7)
    # the message of one checked division per entry of M p, in entry order
    with pytest.raises(IntegralityError) as first:
        [exact_quotient(v, 7) for v in spec.law.pack_scaled(g)]
    with pytest.raises(IntegralityError) as got:
        apply(phi, g)
    assert str(got.value) == str(first.value)
    with pytest.raises(IntegralityError) as orbit:
        next(_orbit(phi, g))
    assert str(orbit.value) == str(first.value)


# past the largest finite float, about 2^1024: such a coordinate has no
# float box length, but an exact step takes it like any other integer
HUGE = 2 ** 1100


def test_exact_steps_take_coordinates_past_the_float_range():
    spec = free_nilpotent(2, 2)
    fib = builtin_automorphism("fib", spec)
    g = (HUGE, -HUGE, 3)
    assert apply(identity_endomorphism(spec), g) == g
    assert apply(invert(fib), apply(fib, g)) == g
    # the orbit of fib passes 2^1024 near step 1475
    far = iterate(fib, 1500)
    assert max(map(abs, far.images[0])) > 2 ** 1024
    assert far == compose(iterate(fib, 1000), iterate(fib, 500))
    group = semidirect_unipotent(spec, builtin_automorphism("unipotent-shear", spec))
    assert group.monodromy_power(-2, group.monodromy_power(2, g)) == g
    assert group.multiply(group.inverse_element((1, g)), (1, g)) == group.identity()


def test_growth_series_past_the_float_range():
    """An exact-bfs series omits the lengths it cannot find, wherever the
    orbit goes; the Karidi length of such an element raises, as
    ``_box_length`` does."""
    spec = free_nilpotent(2, 2)
    fib = builtin_automorphism("fib", spec)
    with warnings.catch_warnings(record=True) as omitted:
        warnings.simplefilter("always", GrowthWarning)
        series = growth_series(fib, spec.indicator(0), 1500, mode="exact-bfs")
    assert [e.n for e in series.entries] == [1, 2, 3, 4]
    assert len(omitted) == 1496
    assert str(omitted[-1].message) == "exact length unknown at n=1500; entry omitted"
    with pytest.raises(OverflowError):
        growth_series(fib, (HUGE, 0, 0), 1)


def test_free_linearization_is_pack_times_inverse_log_basis():
    # L V = P: the logarithms of the basis elements map to those of their images
    spec = free_nilpotent(2, 4)
    phi = builtin_automorphism("fib", spec)
    law = spec.law
    n = spec.dim
    v = sympy.Matrix(n, n, lambda i, k: sympy.Rational(law.log_vectors[k].get(i, 0)))
    logs = [law.pack(img) for img in basis_images_reference(phi)]
    p = sympy.Matrix(n, n, lambda i, k: sympy.Rational(logs[k].get(i, 0)))
    assert sympy.Matrix(linearization_matrix(phi)) == p * v.inv()


SYMPY_FREE = """
import contextlib
import io
import sys
import nilentropy as ne
from nilentropy import cli
for spec in (ne.free_nilpotent(2, 4), ne.surface_quotient(2, 3)):
    phi = ne.builtin_automorphism("unipotent-shear", spec)
    fib = ne.builtin_automorphism("fib", spec)
    ne.growth_series(phi, spec.indicator(0), 30)
    ne.invert(phi)
    ne.linearization_matrix(phi)
    ne.semidirect_unipotent(spec, phi)
    try:
        ne.is_automorphism(fib)
    except ne.SpecError:  # fib does not respect the surface relator
        assert spec.relations is not None
    ne.spectral_report(ne.abelianization_matrix(phi))
    ne.spectral_report(ne.abelianization_matrix(fib))
ne.growth_series(ne.builtin_automorphism("fib", ne.free_nilpotent(2, 4)),
                 (1, 0, 0, 0, 0, 0, 0, 0), 30)
ne.upper_central_dimensions(ne.surface_quotient(2, 3))
ne.spectral_report(((1, -1), (1, 1)))
f22 = ne.free_nilpotent(2, 2)
ne.entropy_estimate(ne.growth_series(ne.builtin_automorphism("fib", f22), f22.indicator(0), 30))
ne.poly_degree_fit(ne.growth_series(ne.builtin_automorphism("unipotent-shear", f22),
                                    f22.indicator(1), 24))
ne.distortion_profile(f22, 2)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["semidirect", "--group", "free:2,2", "--aut", "builtin:unipotent-shear"]) == 0
    assert cli.main(["aut-check", "--group", "free:2,2", "--aut", sys.argv[1]]) == 0
    assert cli.main(["entropy", "--group", "free:2,2", "--aut", "builtin:fib", "--n", "30"]) == 0
    assert cli.main(["tower", "--group", "free:2,3", "--aut", "builtin:fib", "--subject", "x1",
                     "--classes", "2,3,4"]) == 0
    assert cli.main(["distortion", "--group", "free:2,2", "--weight", "2"]) == 0
print(sorted(m for m in ("numpy", "sympy", "nilentropy") if m in sys.modules))
"""


def test_package_does_not_import_sympy(tmp_path):
    # nor numpy: the exact paths, the three fits and the CLI commands that print them
    # abelianization ((1, -1), (1, 1)): eigenvalues 1 +- i
    aut = tmp_path / "rotation.json"
    aut.write_text('{"images": [[1, 1, 0], [-1, 1, 0]]}')
    proc = subprocess.run([sys.executable, "-c", SYMPY_FREE, str(aut)], capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["['nilentropy']"]
