"""``apply`` as one linear map on the Mal'cev Lie algebra, against the product
of basis-image powers, and the growth path without sympy."""

import random
import subprocess
import sys
from functools import cache

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nilentropy import (
    Endomorphism,
    GroupSpec,
    HallBasis,
    IntegralityError,
    SpecError,
    apply,
    builtin_automorphism,
    conjugate,
    free_nilpotent,
    identity_endomorphism,
    linearization_matrix,
    multiply,
    power,
    surface_quotient,
)
from nilentropy.mpoly import straight_line

from conftest import apply_reference

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


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_apply_matches_basis_image_powers(name, data):
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
    phi = Endomorphism(spec, images)
    g = data.draw(st.tuples(*[COORD] * spec.dim))
    assert apply(phi, g) == apply_reference(phi, g)
    assert apply(phi, spec.identity()) == spec.identity()


def test_iterated_orbit_matches_reference():
    spec = free_nilpotent(3, 3)
    phi = builtin_automorphism("fib", spec)
    g = got = spec.indicator(0)
    for _ in range(25):
        got = apply(phi, got)
        g = apply_reference(phi, g)
        assert got == g


def test_identity_map_has_unit_linearization():
    for spec in (free_nilpotent(2, 4), surface_quotient(2, 3)):
        rows, scale, denominator = identity_endomorphism(spec).linear_map
        assert denominator == 1 and scale == spec.law.log_scale
        assert rows == tuple(((i, 1),) for i in range(spec.dim))


def test_map_not_respecting_the_relators_is_refused():
    # fib sends [x1,x2][x3,x4] to [x2,x1][x3,x4], outside the relator's closure
    s = surface_quotient(2, 3)
    phi = builtin_automorphism("fib", s)
    with pytest.raises(SpecError, match="do not respect the relators"):
        apply(phi, s.indicator(0))


def test_apply_raises_integrality_error():
    spec = GroupSpec(HallBasis(2, 2))
    phi = builtin_automorphism("fib", spec)
    # every unpacked coordinate comes out with remainder 1 modulo 2
    bad = straight_line("bad", ((2, ((1, ()),)),) * spec.dim, (spec.dim, 1))
    spec.law._unpack = bad
    with pytest.raises(IntegralityError, match="expected multiple of 2, got remainder 1"):
        apply(phi, spec.indicator(0))


def test_free_linearization_is_pack_times_inverse_log_basis():
    # L V = P: the logarithms of the basis elements map to those of their images
    spec = free_nilpotent(2, 4)
    phi = builtin_automorphism("fib", spec)
    law = spec.law
    n = spec.dim
    v = sympy.Matrix(n, n, lambda i, k: sympy.Rational(law.log_vectors[k].get(i, 0)))
    logs = [law.pack(img) for img in phi.basis_images]
    p = sympy.Matrix(n, n, lambda i, k: sympy.Rational(logs[k].get(i, 0)))
    assert linearization_matrix(phi) == p * v.inv()


SYMPY_FREE = """
import sys
import nilentropy as ne
for spec in (ne.free_nilpotent(2, 4), ne.surface_quotient(2, 3)):
    phi = ne.builtin_automorphism("unipotent-shear", spec)
    fib = ne.builtin_automorphism("fib", spec)
    ne.growth_series(phi, spec.indicator(0), 30)
    ne.is_automorphism(fib)
    ne.spectral_report(ne.abelianization_matrix(phi))
    ne.spectral_report(ne.abelianization_matrix(fib))
ne.growth_series(ne.builtin_automorphism("fib", ne.free_nilpotent(2, 4)),
                 (1, 0, 0, 0, 0, 0, 0, 0), 30)
print(sorted(m for m in ("sympy", "nilentropy") if m in sys.modules))
"""


def test_growth_path_does_not_import_sympy():
    proc = subprocess.run([sys.executable, "-c", SYMPY_FREE], capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["['nilentropy']"]
