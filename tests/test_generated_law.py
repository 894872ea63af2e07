"""Generated straight-line laws against the term-by-term reference evaluator."""

import hashlib
import os
import subprocess
import sys
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilentropy import (
    GroupSpec,
    HallBasis,
    IntegralityError,
    bfs_ball,
    eval_word,
    free_nilpotent,
    surface_quotient,
)
from nilentropy.mpoly import ExactDivisionError, MPoly, compile_poly, straight_line

from conftest import eval_compiled

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
EXPONENT = st.one_of(st.integers(-8, 8), st.integers(2 ** 64, 2 ** 70),
                     st.integers(-2 ** 70, -2 ** 64))


def _interpret(compiled, values):
    return tuple(eval_compiled(cp, values) for cp in compiled)


@cache
def _power_polynomials(law):
    """P. Hall's power polynomials of ``law`` in the variables ``(e, t)``:
    ``unpack(t * pack(e))`` run on symbolic exponents.

    The law itself no longer derives them, since ``power`` goes through the
    scaled logarithm; the reference derives them as the law once did.
    """
    n = law.dim
    e = [MPoly.var(n + 1, k) for k in range(n)]
    t = MPoly.var(n + 1, n)
    log = {k: c * t for k, c in law.pack(e).items()}
    return tuple(compile_poly(p) for p in law._sym_polys(law.unpack(log)))


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
    for n in (0, -1, data.draw(EXPONENT)):
        assert spec.law.power(g, n) == ref.power(g, n)


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_inverse_matches_reference(name, data):
    spec = GROUPS[name]()
    g = _vector(data, spec)
    assert spec.law.inverse(g) == ReferenceLaw(spec).inverse(g)


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_right_multiplier_matches_reference(name, data):
    spec = GROUPS[name]()
    g, h = _vector(data, spec), _vector(data, spec)
    assert spec.law.right_multiplier(h)(g) == ReferenceLaw(spec).multiply(g, h)


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
    with pytest.raises(ExactDivisionError) as expected:
        eval_compiled(compiled, (1,))
    with pytest.raises(ExactDivisionError) as got:
        half((1,))
    assert str(got.value) == str(expected.value)


def test_long_sums_match_reference():
    terms = tuple((k - 700 or 1, ((0, 1), (1, k % 4 + 1))) for k in range(1201))
    compiled = ((1, terms), (6, terms), (1, ()))
    fn = straight_line("long", compiled, (2,))
    for values in [(1, 1), (2, 3), (6, 2 ** 70), (-5, 7)]:
        try:
            expected = tuple(eval_compiled(cp, values) for cp in compiled)
        except ExactDivisionError as exc:
            with pytest.raises(ExactDivisionError, match=str(exc)):
                fn(values)
        else:
            assert fn(values) == expected


def test_bfs_step_raises_integrality_error(monkeypatch):
    spec = GroupSpec(HallBasis(2, 2))
    # every right multiplication yields a coordinate 1/2
    bad = straight_line("bad", ((2, ((1, ()),)),) * spec.dim, (spec.dim,))
    monkeypatch.setattr(spec.law, "right_multiplier", lambda h: bad)
    with pytest.raises(IntegralityError, match="expected multiple of 2, got remainder 1"):
        bfs_ball(spec, 1)


SOURCE_DIGEST = """
import hashlib
from nilentropy import free_nilpotent, surface_quotient
from nilentropy.mpoly import straight_line_source
for law in (free_nilpotent(3, 4).law, surface_quotient(2, 3).law):
    n = law.dim
    for name, compiled, sizes in (("multiply", law._mul_compiled, (n, n)),
                                  ("inverse", law._inv_compiled, (n,)),
                                  ("pack", law._pack_compiled[1], (n,)),
                                  ("unpack_scaled", law._unpack_compiled, (n,))):
        text = straight_line_source(name, compiled, sizes)
        print(name, len(text), hashlib.sha256(text.encode()).hexdigest())
"""


def test_generated_source_independent_of_hash_seed():
    outputs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", SOURCE_DIGEST], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 8
    assert outputs[0] == outputs[1]
