import math
import random

import pytest

from nilentropy import (
    IntegralityError,
    KaridiBand,
    SpecError,
    bfs_ball,
    free_nilpotent,
    multiply,
    power,
)
from nilentropy.autom import _basis_entries, _tree_evaluator
from nilentropy.mpoly import ExactDivisionError
from nilentropy.nilgroup import _law_commutator, _root


@pytest.fixture(scope="session")
def heis():
    """Free class-2 group on two generators (discrete Heisenberg)."""
    return free_nilpotent(2, 2)


@pytest.fixture(scope="session")
def f23():
    return free_nilpotent(2, 3)


@pytest.fixture(scope="session")
def f24():
    return free_nilpotent(2, 4)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_vector(spec, rng, span=4):
    return tuple(rng.randint(-span, span) for _ in range(spec.dim))


def random_word(rank, length, rng, max_exp=2):
    return [
        (rng.randrange(rank), rng.choice([e for e in range(-max_exp, max_exp + 1) if e]))
        for _ in range(length)
    ]


def eval_compiled(compiled, values):
    """Reference evaluator: one ``(denominator, terms)`` polynomial, term by term.

    This is the interpreter the generated straight-line laws replaced; tests
    keep it as an independent oracle for them.
    """
    denom, terms = compiled
    total = 0
    for c, ve in terms:
        p = c
        for v, e in ve:
            p *= values[v] ** e
        total += p
    if denom == 1:
        return total
    q, r = divmod(total, denom)
    if r:
        raise ExactDivisionError(
            f"expected multiple of {denom}, got remainder {r}"
        )
    return q


def basis_images_reference(phi):
    """Images of all basis elements, derived by commutator trees.

    Each basis element is a commutator tree in the generators, so its
    image is the same tree over the generator images; for a quotient spec
    the trees are the free-cover entries at the kept positions.

    These group commutators fed the graded matrices and ``invert`` before
    every linear invariant was read off the linear map on the Mal'cev Lie
    algebra; tests keep them as an independent oracle.
    """
    law = phi.spec.law
    value = _tree_evaluator(phi.images.__getitem__,
                            lambda a, b: _law_commutator(law, a, b))
    try:
        return tuple(value(e) for e in _basis_entries(phi.spec))
    except ExactDivisionError as exc:
        raise IntegralityError(str(exc)) from exc


def apply_reference(phi, g):
    """Reference endomorphism image: the product of basis images raised to the
    exponents of ``g``.

    This is how ``apply`` worked before it became one linear map on the
    Mal'cev Lie algebra; tests keep it as an independent oracle.
    """
    spec = phi.spec
    out = spec.identity()
    for image, e in zip(basis_images_reference(phi), g):
        if e:
            out = multiply(out, power(image, e, spec), spec)
    return out


def box_length_reference(g, weights):
    """Reference box length: ``max_i |e_i|^(1/w_i)`` by a per-coordinate loop.

    This is how ``_box_length`` worked before it became one ``max`` over
    ``map``; tests keep it as an independent oracle.
    """
    value = 0.0
    for v, w in zip(g, weights):
        if v:
            value = max(value, _root(abs(v), w))
    return value


def karidi_band_reference(spec, radius, genset=None):
    """Reference Karidi band: one box length per ball element.

    This is how ``karidi_band`` worked before it took the box lengths column
    by column; tests keep it as an independent oracle.
    """
    dist = bfs_ball(spec, radius, genset=genset)
    lower = math.inf
    upper = 0.0
    count = 0
    for vec, length in dist.items():
        if length == 0:
            continue
        ratio = length / box_length_reference(vec, spec.weights)
        lower = min(lower, ratio)
        upper = max(upper, ratio)
        count += 1
    if count == 0:
        raise SpecError("ball too small to fit a comparison band")
    constant = max(upper, 1.0 / lower if lower > 0 else math.inf, 1.0 + 1e-9)
    return KaridiBand(lower=lower, upper=upper, constant=constant,
                      radius=radius, size=count)


def distortion_pairs_reference(spec, i, radius, genset=None):
    """Reference ``(word length, intrinsic length)`` pairs of the weight-i layer.

    This is the per-element loop ``distortion_profile`` ran before it took
    the intrinsic lengths column by column; tests keep it as an independent
    oracle.
    """
    pairs = []
    for h, dist in bfs_ball(spec, radius, genset=genset).items():
        if dist == 0:
            continue
        if any(v and w < i for v, w in zip(h, spec.weights)):
            continue
        intrinsic = max(
            _root(abs(v), w // i) for v, w in zip(h, spec.weights) if v
        )
        pairs.append((dist, intrinsic))
    return pairs
