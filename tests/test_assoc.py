import random
from fractions import Fraction

import pytest

from nilentropy import HallBasis, free_nilpotent
from nilentropy.assoc import (
    _solve_exact,
    add,
    bch_terms,
    elt_inverse,
    elt_power,
    exp_series,
    log_series,
    magnus_normal_form,
    magnus_word,
    mul,
    one,
    scale,
)

from conftest import random_word


def _random_series(rng, letters=2, maxdeg=4, span=3):
    out = {}
    for _ in range(8):
        w = tuple(rng.randrange(letters) for _ in range(rng.randint(1, maxdeg)))
        out[w] = Fraction(rng.randint(-span, span))
    return {w: v for w, v in out.items() if v}


def test_exp_log_roundtrip():
    rng = random.Random(3)
    for _ in range(10):
        x = _random_series(rng)
        assert log_series(exp_series(x, 4), 4) == x


def test_mul_is_associative_and_truncates():
    rng = random.Random(5)
    for _ in range(10):
        a = {(): Fraction(1), **_random_series(rng)}
        b = {(): Fraction(1), **_random_series(rng)}
        c = {(): Fraction(1), **_random_series(rng)}
        left = mul(mul(a, b, 4), c, 4)
        right = mul(a, mul(b, c, 4), 4)
        assert left == right
        assert all(len(w) <= 4 for w in left)


def test_magnus_word_inverse():
    rng = random.Random(9)
    for _ in range(10):
        word = random_word(2, 6, rng)
        a = magnus_word(word, 3)
        inv = magnus_word([(g, -e) for g, e in reversed(word)], 3)
        assert mul(a, inv, 3) == one()
        assert elt_inverse(a, 3) == inv


def test_elt_power_matches_repeated_product():
    word = [(0, 1), (1, 2), (0, -1)]
    a = magnus_word(word, 3)
    acc = one()
    for _ in range(4):
        acc = mul(acc, a, 3)
    assert elt_power(a, 4, 3) == acc
    assert elt_power(a, -1, 3) == elt_inverse(a, 3)


def _bch_as_lie(terms, bracket):
    """Evaluate {degree: ((coeff, 01-word), ...)} into the free Lie algebra."""
    letters = ({0: 1}, {1: 1})
    total = {}
    for pairs in terms.values():
        for coeff, w in pairs:
            el = letters[w[0]]
            for k in w[1:]:
                el = bracket(el, letters[k])
            total = add(total, scale(el, coeff))
    return total


def test_bch_degree_two_and_three_coefficients():
    bracket = free_nilpotent(2, 3).law.bracket_vec
    x, y = {0: 1}, {1: 1}
    xy = bracket(x, y)
    expect = add(
        add(scale(xy, Fraction(1, 2)), scale(bracket(x, xy), Fraction(1, 12))),
        scale(bracket(y, bracket(y, x)), Fraction(1, 12)),
    )
    assert _bch_as_lie(bch_terms(3), bracket) == expect


def test_bch_degree_four_has_single_mixed_term():
    bracket = free_nilpotent(2, 4).law.bracket_vec
    x, y = {0: 1}, {1: 1}
    deg4 = {4: bch_terms(4)[4]}
    expect = scale(bracket(y, bracket(x, bracket(x, y))), Fraction(-1, 24))
    assert _bch_as_lie(deg4, bracket) == expect


def test_magnus_normal_form_single_letters():
    basis = HallBasis(2, 3)
    assert magnus_normal_form([(0, 5)], basis) == (5, 0, 0, 0, 0)
    assert magnus_normal_form([(1, -2)], basis) == (0, -2, 0, 0, 0)
    assert magnus_normal_form([], basis) == (0, 0, 0, 0, 0)


def test_magnus_normal_form_collects_a_commutator():
    basis = HallBasis(2, 2)
    # x2 x1 differs from the normal order x1 x2 by one central commutator
    assert magnus_normal_form([(0, 1), (1, 1)], basis) == (1, 1, 0)
    assert magnus_normal_form([(1, 1), (0, 1)], basis) == (1, 1, 1)


@pytest.mark.parametrize("columns, target, message", [
    ([{(0,): 1}, {(0,): 2}], {(0,): 1}, "coordinate system is degenerate"),
    ([{(0,): 1}], {(0,): 1, (1,): 1}, "element is not in the span of the basis layer"),
    ([{(0,): 2, (1,): 4}], {(0,): 1, (1,): 2}, "non-integral coordinate 1/2"),
], ids=["degenerate", "outside-span", "non-integral"])
def test_solve_exact_refusals(columns, target, message):
    keys = sorted({k for col in columns for k in col} | set(target))
    with pytest.raises(ValueError, match=f"^{message}$"):
        _solve_exact(columns, target, keys)
