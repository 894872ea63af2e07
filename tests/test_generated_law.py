"""Generated straight-line laws against the term-by-term reference evaluator."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilentropy import (
    GroupSpec,
    HallBasis,
    IntegralityError,
    SubgroupLattice,
    apply,
    bfs_ball,
    builtin_automorphism,
    commutator,
    conjugate,
    eval_word,
    free_nilpotent,
    growth_series,
    inverse,
    iterate,
    multiply,
    power,
    subgroup_closure,
    surface_quotient,
)
from nilentropy import mpoly
from nilentropy.mpoly import (
    MPoly,
    box,
    box_source,
    compile_poly,
    layer_expander,
    orbit_step,
    orbit_step_source,
    straight_line,
    straight_line_source,
)
from nilentropy.nilgroup import (
    _box_kernel,
    _box_length,
    _generator_commutators,
    _law_commutator,
    _sift_closure,
)

from conftest import box_length_reference, eval_compiled, unpack_reference

GROUPS = {
    "F(2,2)": lambda: free_nilpotent(2, 2),
    "F(2,4)": lambda: free_nilpotent(2, 4),
    "F(3,3)": lambda: free_nilpotent(3, 3),
    "F(2,5)": lambda: free_nilpotent(2, 5),
    "surface(2,3)": cache(lambda: surface_quotient(2, 3)),
    "surface(3,2)": cache(lambda: surface_quotient(3, 2)),
    "F(3,2)/(1,2,0)": cache(lambda: GroupSpec(HallBasis(3, 2), relations={2: [(1, 2, 0)]})),
}

BIG = st.integers(2 ** 64, 2 ** 96)
COORD = st.one_of(st.integers(-3, 3), BIG, BIG.map(lambda v: -v))
# the kernel oracle's coordinates: zero, small negatives and +-2**70
KERNEL_COORD = st.one_of(st.integers(-3, 3), st.sampled_from((2 ** 70, -2 ** 70)), COORD)
EXPONENT = st.one_of(st.integers(-8, 8), st.integers(2 ** 64, 2 ** 70),
                     st.integers(-2 ** 70, -2 ** 64))


def _interpret(compiled, values):
    return tuple(eval_compiled(cp, values) for cp in compiled)


@cache
def _power_polynomials(law):
    """P. Hall's power polynomials of ``law`` in the variables ``(e, t)``:
    ``unpack(t * pack(e))`` run on symbolic exponents, through the Lie-side
    peel of :func:`conftest.unpack_reference`.

    The law itself no longer derives them, since ``power`` goes through the
    scaled logarithm; the reference derives them as the law once did.
    """
    n = law.dim
    e = [MPoly.var(n + 1, k) for k in range(n)]
    t = MPoly.var(n + 1, n)
    log = {k: c * t for k, c in law.pack(e).items()}
    return tuple(compile_poly(p) for p in unpack_reference(law, log))


class ReferenceLaw:
    """The group law of ``spec`` evaluated through the reference interpreter.

    Quotient specs lift to the free cover, evaluate there and clear the
    depths of the normal-closure rows one by one, in increasing order: an
    oracle independent of the quotient's own derived law.
    """

    def __init__(self, spec):
        self.spec = spec
        self.quotient = spec.free_cover is not None
        self.free = spec.free_cover.law if self.quotient else spec.law

    def _free_mul(self, g, h):
        return _interpret(self.free._mul_compiled, tuple(g) + tuple(h))

    def _free_pow(self, g, n):
        return _interpret(_power_polynomials(self.free), tuple(g) + (n,))

    def _lift(self, g):
        if not self.quotient:
            return tuple(g)
        out = [0] * self.spec.free_cover.dim
        for p, v in zip(self.spec._positions, g):
            out[p] = v
        return tuple(out)

    def _reduce(self, vec):
        if not self.quotient:
            return vec
        for row in self.spec._nrows:
            depth = next(i for i, v in enumerate(row) if v)
            if vec[depth]:
                vec = self._free_mul(self._free_pow(row, -vec[depth]), vec)
        return tuple(vec[p] for p in self.spec._positions)

    def multiply(self, g, h):
        return self._reduce(self._free_mul(self._lift(g), self._lift(h)))

    def inverse(self, g):
        return self._reduce(_interpret(self.free._inv_compiled, self._lift(g)))

    def power(self, g, n):
        return self._reduce(self._free_pow(self._lift(g), n))


def _vector(data, spec):
    return data.draw(st.tuples(*[COORD] * spec.dim))


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_multiply_matches_reference(name, data):
    spec = GROUPS[name]()
    g, h = _vector(data, spec), _vector(data, spec)
    assert spec.law.multiply(g, h) == ReferenceLaw(spec).multiply(g, h)


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_power_matches_reference(name, data):
    spec = GROUPS[name]()
    g = _vector(data, spec)
    ref = ReferenceLaw(spec)
    for n in (0, 1, -1, data.draw(EXPONENT)):
        assert spec.law.power(g, n) == ref.power(g, n)


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_inverse_matches_reference(name, data):
    spec = GROUPS[name]()
    g = _vector(data, spec)
    assert spec.law.inverse(g) == ReferenceLaw(spec).inverse(g)


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_commutator_matches_reference(name, data):
    """The law's ``(h g)^-1 (g h)`` against the reference ``g^-1 h^-1 g h``."""
    spec = GROUPS[name]()
    g, h = _vector(data, spec), _vector(data, spec)
    ref = ReferenceLaw(spec)
    want = ref.multiply(ref.multiply(ref.multiply(ref.inverse(g), ref.inverse(h)), g), h)
    assert _law_commutator(spec.law, g, h) == want


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_subgroup_closure_is_closed(name, data):
    """The sift's stack runs empty only on closed rows: a subgroup closure
    holds both generators and every commutator of its rows, and a normal
    closure also holds every row's commutator with each generator.  The
    rows are canonical: other generators of the same subgroup, met in
    another order, give the same rows.  Coordinates stay small: a closure
    of two big elements of F(2,5) takes about a second."""
    spec = GROUPS[name]()
    law = spec.law
    g, h = (data.draw(st.tuples(*[st.integers(-9, 9)] * spec.dim)) for _ in range(2))
    lattice = subgroup_closure(spec, [g, h])
    assert g in lattice and h in lattice
    rows = lattice.rows
    for i, a in enumerate(rows):
        for b in rows[i + 1:]:
            assert _law_commutator(law, a, b) in lattice
    assert subgroup_closure(spec, [h, law.multiply(g, h), law.inverse(g)]).rows == rows
    n = data.draw(st.tuples(*[st.integers(-2, 2)] * spec.dim))
    maps = _generator_commutators(spec)
    normal = SubgroupLattice(spec, _sift_closure(spec, [n], maps))
    assert n in normal
    for row in normal.rows:
        for image in maps:
            assert image(row) in normal
    assert _sift_closure(spec, [law.inverse(n)], maps) == normal.rows


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_right_multiplier_matches_reference(name, data):
    """Every right product of a generated layer expander, in direction order."""
    spec = GROUPS[name]()
    g = _vector(data, spec)
    directions = data.draw(st.lists(st.tuples(*[COORD] * spec.dim),
                                    min_size=1, max_size=3, unique=True))
    dist, new = {}, []
    assert spec.law.layer_expander(directions)([g], dist, new, 1, 10) is False
    ref = ReferenceLaw(spec)
    assert new == [ref.multiply(g, h) for h in directions]
    assert dist == dict.fromkeys(new, 1)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_eval_word_matches_reference_on_surface(data):
    spec = GROUPS["surface(2,3)"]()
    ref = ReferenceLaw(spec)
    letter = st.tuples(st.integers(0, spec.rank - 1),
                       st.one_of(st.integers(-3, 3), st.sampled_from((2 ** 70, -2 ** 70))))
    word = data.draw(st.lists(letter, max_size=8))
    want = spec.identity()
    for gen, e in word:
        want = ref.multiply(want, ref.power(spec.indicator(gen), e))
    assert eval_word(word, spec) == want


def test_division_check_matches_reference():
    compiled = (2, ((1, ((0, 1),)),))  # v0 / 2
    half = straight_line("half", (compiled,), (1,))
    assert half((6,)) == (3,) == (eval_compiled(compiled, (6,)),)
    with pytest.raises(IntegralityError) as expected:
        eval_compiled(compiled, (1,))
    with pytest.raises(IntegralityError) as got:
        half((1,))
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_kernels_match_their_polynomials(name, data):
    """``multiply`` and ``inverse`` against the monomial polynomials they
    were generated from, evaluated term by term."""
    law = GROUPS[name]().law
    g, h = (data.draw(st.tuples(*[KERNEL_COORD] * law.dim)) for _ in range(2))
    assert law.multiply(g, h) == _interpret(law._mul_compiled, g + h)
    assert law.inverse(g) == _interpret(law._inv_compiled, g)


@pytest.mark.parametrize("name", GROUPS)
def test_law_kernels_divide_nowhere(name):
    """Every multiply and inverse output is integer-valued, so none keeps a
    checked division."""
    law = GROUPS[name]().law
    n = law.dim
    if law.nil_class >= 3:
        assert any(denom != 1 for denom, _ in law._mul_compiled)
    for kernel, compiled, sizes in (("multiply", law._mul_compiled, (n, n)),
                                    ("inverse", law._inv_compiled, (n,))):
        assert "divmod" not in straight_line_source(kernel, compiled, sizes)


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_kernels_evaluate_over_polynomials(name, data):
    """The generated kernels run on ``MPoly`` variables: the scaled
    exponential inverts the scaled logarithm, the logarithm is ``D`` times
    the Lie-side ``pack``, and the layer polynomials, evaluated term by
    term, are the right products."""
    law = GROUPS[name]().law
    n, d = law.dim, law.log_scale
    v = tuple(MPoly.var(n, k) for k in range(n))
    assert law.unpack_scaled(law.pack_scaled(v), 1)[1] == v
    assert law.pack_scaled(v) == tuple(law._pack_sym[k] * d for k in range(n))
    directions = data.draw(st.lists(st.tuples(*[KERNEL_COORD] * n), min_size=1, max_size=3))
    g = data.draw(st.tuples(*[KERNEL_COORD] * n))
    for compiled, h in zip(law._layer_compiled(directions), directions, strict=True):
        assert _interpret(compiled, g) == law.multiply(g, h)


V0 = MPoly.var(1, 0)
POINTS = [(v,) for v in (*range(-9, 10), 2 ** 70, -2 ** 70, 2 ** 70 + 1, -2 ** 70 - 1)]


@pytest.mark.parametrize("poly, denom", [((V0 * V0 - V0) * Fraction(1, 2), 2),
                                         ((V0 * V0 * V0 - V0) * Fraction(1, 6), 6)],
                         ids=["(v0**2 - v0)/2", "(v0**3 - v0)/6"])
def test_integer_valued_output_generates_no_division(poly, denom):
    compiled = compile_poly(poly)
    assert compiled[0] == denom
    assert "divmod" not in straight_line_source("f", (compiled,), (1,))
    fn = straight_line("f", (compiled,), (1,))
    for point in POINTS:
        assert fn(point) == (eval_compiled(compiled, point),)


def test_binomial_products_of_two_variables():
    """C(v0, 3) C(v1, 2) + C(v1, 4) over denominator 24, negatives included."""
    v0, v1 = MPoly.var(2, 0), MPoly.var(2, 1)
    poly = (v0 * (v0 - 1) * (v0 - 2) * v1 * (v1 - 1) * Fraction(1, 12)
            + v1 * (v1 - 1) * (v1 - 2) * (v1 - 3) * Fraction(1, 24))
    compiled = compile_poly(poly)
    assert compiled[0] == 24
    source = straight_line_source("f", (compiled,), (2,))
    assert "divmod" not in source and "b0_3*b1_2 + b1_4" in source
    fn = straight_line("f", (compiled,), (2,))
    for point in [(a, b) for a in (-7, -1, 0, 2, 5, -2 ** 70) for b in (-4, 0, 3, 2 ** 70)]:
        assert fn(point) == (eval_compiled(compiled, point),)


@pytest.mark.parametrize("poly", [V0 * Fraction(1, 2), V0 * V0 * Fraction(1, 2)],
                         ids=["v0/2", "v0**2/2"])
def test_fractional_output_keeps_its_division(poly):
    compiled = compile_poly(poly)
    assert "divmod(s0, 2)" in straight_line_source("f", (compiled,), (1,))
    fn = straight_line("f", (compiled,), (1,))
    assert fn((4,)) == (eval_compiled(compiled, (4,)),)
    with pytest.raises(IntegralityError, match="^expected multiple of 2, got remainder 1$"):
        fn((1,))


def test_long_sums_match_reference():
    terms = tuple((k - 700 or 1, ((0, 1), (1, k % 4 + 1))) for k in range(1201))
    compiled = ((1, terms), (6, terms), (1, ()))
    fn = straight_line("long", compiled, (2,))
    for values in [(1, 1), (2, 3), (6, 2 ** 70), (-5, 7)]:
        try:
            expected = tuple(eval_compiled(cp, values) for cp in compiled)
        except IntegralityError as exc:
            with pytest.raises(IntegralityError, match=str(exc)):
                fn(values)
        else:
            assert fn(values) == expected


# z0 = 2 v0, z1 = 2 v1 - v0^2: unitriangular at scale 2
TRIANGULAR = ((1, ((2, ((0, 1),)),)), (1, ((-1, ((0, 2),)), (2, ((1, 1),)))))


@pytest.mark.parametrize("compiled, message", [
    ((TRIANGULAR[0], (1, ((2, ((1, 1),)), (1, ((1, 2),))))),
     "output 1 has a term in v1, which is not solved before v1"),
    (((1, ((2, ((0, 1),)), (5, ((1, 1),)))), TRIANGULAR[1]),
     "output 0 has a term in v1, which is not solved before v0"),
    ((TRIANGULAR[0], (1, ((3, ((1, 1),)),))), "output 1 has v1 coefficient 3, not 2"),
    ((TRIANGULAR[0], (1, ((-1, ((0, 2),)),))), "output 1 has v1 coefficient 0, not 2"),
    ((TRIANGULAR[0], (3,) + TRIANGULAR[1][1:]), "output 1 has denominator 3, not 1"),
])
def test_back_substitution_refuses_a_non_triangular_map(compiled, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        orbit_step_source(2, compiled)


def test_back_substitution_inverts_the_map():
    solve = orbit_step(2, TRIANGULAR)
    for v in [(0, 0), (3, -4), (2 ** 70, -5)]:
        z = _interpret(TRIANGULAR, v)
        assert solve(z, 1) == (z, v)
        assert solve([3 * x for x in z], 3) == (z, v)
    # v0 = 1 is exact, then 2 v1 = 0 + v0^2 is not
    with pytest.raises(IntegralityError, match="^expected multiple of 2, got remainder 1$"):
        solve((2, 0), 1)
    # the prologue divides by den first
    with pytest.raises(IntegralityError, match="^expected multiple of 3, got remainder 2$"):
        solve((6, 2), 3)
    # at scale 1 the body has nothing to check: z0 = v0, z1 = v1 - v0^2; the
    # prologue's two divisions by den are the only ones
    unit = ((1, ((1, ((0, 1),)),)), (1, ((-1, ((0, 2),)), (1, ((1, 1),)))))
    source = orbit_step_source(1, unit)
    assert source.count("divmod") == 2 and "divmod(z0, den)" in source
    assert orbit_step(1, unit)((3, 5), 1) == ((3, 5), (3, 14))


def test_back_substitution_of_a_long_sum():
    # z2 = 6 v2 + Q(v0, v1) with 1201 distinct monomials: three chunked statements
    q = tuple((k - 700 or 1, tuple((v, e) for v, e in ((0, k // 35), (1, k % 35)) if e))
              for k in range(1, 1202))
    compiled = ((1, ((6, ((0, 1),)),)), (1, ((6, ((1, 1),)),)),
                (1, ((6, ((2, 1),)),) + q))
    source = orbit_step_source(6, compiled)
    assert source.count("    s += ") == 2
    solve = orbit_step(6, compiled)
    for v in [(1, 1, 0), (2, -3, 5), (-7, 2 ** 20, 11)]:
        z = _interpret(compiled, v)
        assert solve(z, 1)[1] == v
        with pytest.raises(IntegralityError, match="^expected multiple of 6, got remainder 4$"):
            solve(z[:2] + (z[2] + 4,), 1)


def _box_outcome(box):
    """``repr`` of ``box()``, or the type and message of what it raised."""
    try:
        return repr(box())
    except (OverflowError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_box_matches(vec, weights):
    """The box kernel of ``weights``, compiled afresh and as ``_box_length``
    takes it from its cache, against the per-coordinate loop."""
    want = _box_outcome(lambda: box_length_reference(vec, weights))
    assert _box_outcome(lambda: box(weights)(vec)) == want
    assert _box_outcome(lambda: _box_length(vec, weights)) == want


# magnitudes of same-weight near-ties: small, 2^53 (the last integer run
# that floats hold exactly), 2^1024 (where math.log(int) switches to frexp),
# far beyond, and past 2^16384 bits, where the kernel takes every root
CENTRES = (2 ** 20, 2 ** 32, 2 ** 53, 2 ** 1024, 2 ** 5000, 2 ** 16400, 2 ** 20000)


@st.composite
def _box_inputs(draw):
    vec, weights = [], []
    for w in sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=4))):
        centre = draw(st.sampled_from(CENTRES)) + draw(st.integers(-16, 16))
        for _ in range(draw(st.integers(1, 4))):
            k = draw(st.integers(0, 4))
            gap = draw(st.one_of(st.just(k), st.integers(20, 64).map(lambda s: k * (centre >> s))))
            v = draw(st.one_of(st.just(centre - gap), st.integers(-2, 2)))
            vec.append(draw(st.sampled_from((v, -v))))
            weights.append(w)
    return tuple(vec), tuple(weights)


@settings(max_examples=400, deadline=None)
@given(_box_inputs())
def test_box_epilogue_matches_box_length(inputs):
    """The generated box kernel, one root per weight plus its guard band,
    against the root of every coordinate, on near-ties of one weight."""
    _assert_box_matches(*inputs)


@pytest.mark.parametrize("vec, weights", [
    ((3, 27), (1, 3)),
    ((2 ** 100, 2 ** 300), (1, 3)),
    ((0, 0, 0), (1, 2, 2)),
    ((5, -5, 5), (2, 2, 2)),
    ((2 ** 60, 2 ** 60 - 1, -2 ** 60), (1, 3, 3)),
    ((1, 0, 7), (0, 1, 2)),
    ((-1, 1, 0), (0, 0, 3)),
    ((2, 1), (0, 1)),
    ((2 ** 1024, 3), (1, 2)),
    ((5, 2 ** 2100, 2 ** 2100 - 1), (1, 2, 2)),
], ids=["tie 3 = 27^(1/3)", "tie 2^100 = (2^300)^(1/3)", "zeros", "equal values",
        "one below", "weight 0", "weight 0 only", "weight 0 raises",
        "weight 1 overflows", "weight 2 overflows"])
def test_box_epilogue_edge_cases(vec, weights):
    _assert_box_matches(vec, weights)


@pytest.mark.parametrize("vec, weights", [
    ((1, 2 ** 60, 2 ** 60 - 1), (1, 2, 2)),
    ((5, 7, -2 ** 61, 2 ** 61 - 3), (2, 3, 3, 3)),
    ((-(2 ** 3000 - 1), 2 ** 3000), (5, 5)),
    ((2 ** 16400 - 2 ** 16369 - 1, 3, 2 ** 16400), (17, 17, 17)),
])
def test_box_epilogue_keeps_roots_that_rounding_reorders(monkeypatch, vec, weights):
    """Under a logarithm that reads odd integers high, by 2^-39 up to 2^14
    bits and by 2^-30 past them, the root of an odd value passes that of the
    even value just above it.  The guard band, and past 2^14 bits the root
    of every value, take that root too.

    A kernel binds the logarithm it is compiled with, so the cache of
    kernels is cleared before and after: no kernel compiled under the
    skewed logarithm outlives the test."""
    def skewed(x):
        if isinstance(x, int) and x % 2:
            return math.log(x) + (2 ** -39 if x.bit_length() <= 2 ** 14 else 2 ** -30)
        return math.log(x)

    _box_kernel.cache_clear()
    monkeypatch.setattr(mpoly, "_log", skewed)
    try:
        # one root per weight, of its largest value, would fall short
        tops = {w: max(abs(v) for v, u in zip(vec, weights) if u == w) for w in weights}
        assert (max(mpoly._root(abs(v), w) for v, w in zip(vec, weights))
                > max(mpoly._root(m, w) for w, m in tops.items()))
        _assert_box_matches(vec, weights)
    finally:
        monkeypatch.undo()
        _box_kernel.cache_clear()
    # odd values of every weight: a kernel left over from the skewed
    # logarithm would read the largest of them high
    odd = tuple(abs(v) | 1 for v in vec)
    assert repr(_box_length(odd, weights)) == repr(box_length_reference(odd, weights))


def test_box_epilogue_takes_one_root_per_weight():
    source = box_source((1, 1, 2, 2, 2))
    assert source.startswith("def box(a0):\n    v0, v1, v2, v3, v4, = a0\n")
    assert source.count("_exp(_log(m)") == 1
    assert "m = max(abs(v0), abs(v1))" in source
    assert box((1, 1, 2, 2, 2))((-3, 2, 0, 16, -15)) == 4.0
    assert box(())(()) == 0.0
    with pytest.raises(ValueError, match="^weight 256 out of range 0..255$"):
        box_source((256,))


# entry point -> (the law kernel whose division fails, a call through it)
ENTRY_POINTS = {
    "multiply": ("multiply", lambda s: multiply(s.indicator(0), s.indicator(1), s)),
    "inverse": ("inverse", lambda s: inverse(s.indicator(0), s)),
    "power": ("unpack_scaled", lambda s: power(s.indicator(0), 3, s)),
    "eval_word": ("multiply", lambda s: eval_word("x1 x2^-1", s)),
    "commutator": ("multiply", lambda s: commutator(s.indicator(0), s.indicator(1), s)),
    "conjugate": ("multiply", lambda s: conjugate(s.indicator(0), s.indicator(1), s)),
    "apply": ("unpack_scaled",
              lambda s: apply(builtin_automorphism("fib", s), s.indicator(0))),
    "growth_series": ("unpack_scaled",
                      lambda s: growth_series(builtin_automorphism("fib", s), s.indicator(0), 10)),
    "iterate": ("unpack_scaled", lambda s: iterate(builtin_automorphism("fib", s), 3)),
    "bfs_ball": ("layer_expander", lambda s: bfs_ball(s, 1)),
    "SubgroupLattice.reduce": (
        "unpack_scaled",
        lambda s: SubgroupLattice(s, [s.indicator(k) for k in range(s.dim)]).reduce((1, 2, 3)),
    ),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_integrality_error_from_every_entry_point(name):
    """A remainder in a generated division reaches the caller unconverted."""
    kernel, call = ENTRY_POINTS[name]
    spec = GroupSpec(HallBasis(2, 2))
    n = spec.dim
    # every output of the corrupted kernel is 1/2
    bad = ((2, ((1, ()),)),) * n
    # z_k = 2 v_k + 1: every solved coordinate of a step is (z_k - 1) / 2
    odd = tuple((1, ((1, ()), (2, ((k, 1),)))) for k in range(n))
    if kernel == "layer_expander":
        spec.law.layer_expander = lambda directions: layer_expander([bad] * len(directions), n)
    elif kernel == "unpack_scaled":
        spec.law.unpack_scaled = orbit_step(2, odd)
    else:
        sizes = (n, n) if kernel == "multiply" else (n,)
        setattr(spec.law, kernel, straight_line("bad", bad, sizes))
    with pytest.raises(IntegralityError, match="^expected multiple of 2, got remainder 1$"):
        call(spec)


SOURCE_DIGEST = """
import hashlib
from nilentropy import free_nilpotent, surface_quotient
from nilentropy.mpoly import (
    box_source,
    layer_expander_source,
    orbit_step_source,
    straight_line_source,
)
for law in (free_nilpotent(3, 4).law, surface_quotient(2, 3).law):
    n = law.dim
    texts = [(name, straight_line_source(name, compiled, sizes))
             for name, compiled, sizes in (("multiply", law._mul_compiled, (n, n)),
                                           ("inverse", law._inv_compiled, (n,)),
                                           ("pack", law._pack_compiled[1], (n,)))]
    texts.append(("unpack_scaled", orbit_step_source(*law._pack_compiled)))
    for name, text in texts:
        print(name, len(text), hashlib.sha256(text.encode()).hexdigest())
for spec in (free_nilpotent(2, 3), surface_quotient(2, 3)):
    law = spec.law
    genset = [spec.indicator(k) for k in range(spec.rank)]
    genset.append(tuple(range(-2, spec.dim - 2)))
    directions = [v for g in genset for v in (g, law.inverse(g))]
    text = layer_expander_source(law._layer_compiled(directions), law.dim)
    print("expand", len(text), hashlib.sha256(text.encode()).hexdigest())
for law in (free_nilpotent(3, 4).law, surface_quotient(2, 3).law):
    text = box_source(law.weights)
    print("box", len(text), hashlib.sha256(text.encode()).hexdigest())
"""


# Length and sha256 of each text SOURCE_DIGEST prints: any change to the
# text of a derived law, however it is derived, shows here.
SOURCE_DIGEST_LINES = """\
multiply 2450 1acc2f9f988749db245488d51233eb7cb8e6cbaa7086574776a942d103185830
inverse 1877 745a622fb363a12ea1ae866223af607b12ee46a2b51817a116dfe0e23504510b
pack 2102 364c4856c4b9dd1e5f67a22e58deffba83975e72183a8ee14cee95cd40e123dc
unpack_scaled 6630 dcbb146696470e021f9c44f9517cc2ea89ea94c8b3c6786d073c778d932b8482
multiply 1418 577846c74cf95ebafe3c65d1e51681035e2fe16ab8cbf8fe1242e8c84d2e091d
inverse 946 81ffd400c8ce57ed13db4a34c55d4dc2072c97551b06d0a84698923d94640772
pack 1091 b3e5a8ba567755eabab12a29025c444fc88b0261b7ed854f982a46764a5e1eeb
unpack_scaled 4625 310f914909096f81485a144b321f700e4242c8fa5fb0dde4cae3da7741402b16
expand 1527 99d30669766a81678d5c27bf3283c6ee6a9e6d7e678ea0d39bd60730ffc3ace5
expand 4656 a598a61299fbe38bda5cfc044283c6642b9328271154b620b128d04a617dbded
box 3575 b26cd57ef3917eadd5246efd564dbe71fdc80dbcfee66edc3b8377b933750e44
box 2600 a8e901c0d4662e1715fa9cbb0f5cbcd8fcacde51aa1ddb5c4d1d9e739fbacb6a
"""


def test_generated_source_independent_of_hash_seed():
    outputs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", SOURCE_DIGEST], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 12
    assert outputs[0] == outputs[1]
    assert outputs[0] == SOURCE_DIGEST_LINES
