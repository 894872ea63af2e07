import random

import pytest

from nilentropy import free_nilpotent, multiply, power
from nilentropy.mpoly import ExactDivisionError


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


def apply_reference(phi, g):
    """Reference endomorphism image: the product of basis images raised to the
    exponents of ``g``.

    This is how ``apply`` worked before it became one linear map on the
    Mal'cev Lie algebra; tests keep it as an independent oracle.
    """
    spec = phi.spec
    out = spec.identity()
    for image, e in zip(phi.basis_images, g):
        if e:
            out = multiply(out, power(image, e, spec), spec)
    return out
