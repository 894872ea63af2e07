import random

import pytest
from sympy import divisors, mobius

from nilentropy import HallBasis, free_nilpotent
from nilentropy.collect import _vec_add, _vec_scale
from nilentropy.hall import _hall_pair_ok


def necklace_count(m, d):
    """Number-theoretic rank of the weight-d layer of the free Lie ring."""
    return sum(mobius(e) * m ** (d // e) for e in divisors(d)) // d


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_layer_sizes_match_necklace_counts(rank):
    basis = HallBasis(rank, 6)
    for d in range(1, 7):
        assert basis.graded_dimension(d) == necklace_count(rank, d)


def test_layer_sizes_rank2_class5():
    basis = HallBasis(2, 5)
    assert [basis.graded_dimension(d) for d in range(1, 6)] == [2, 1, 2, 3, 6]
    assert len(basis) == 14


def test_entries_sorted_by_weight_and_order():
    basis = HallBasis(3, 4)
    assert list(basis.weights) == sorted(basis.weights)
    for d, idxs in basis.by_weight.items():
        for i in idxs:
            assert basis.entries[i].weight == d
        assert list(idxs) == sorted(idxs)
    # the index ordering refines the basis order used by the Hall condition
    for i, e in enumerate(basis.entries):
        assert basis.index[e] == i


def test_hall_condition_on_every_entry():
    basis = HallBasis(2, 5)
    for e in basis.entries:
        if e.is_generator():
            continue
        assert e.right < e.left
        if not e.left.is_generator():
            assert not e.right < e.left.right
        assert _hall_pair_ok(e.left, e.right)


def _random_element(dim, rng, span=3):
    return {i: c for i in range(dim) if (c := rng.randint(-span, span))}


def test_bracket_is_bilinear_alternating():
    law = free_nilpotent(2, 4).law
    bracket = law.bracket_vec
    rng = random.Random(7)
    for _ in range(25):
        u, v, w = (_random_element(law.dim, rng) for _ in range(3))
        assert bracket(u, u) == {}
        assert _vec_add(bracket(u, v), bracket(v, u)) == {}
        assert bracket(_vec_add(u, v), w) == _vec_add(bracket(u, w), bracket(v, w))
        assert bracket(_vec_scale(u, 3), v) == _vec_scale(bracket(u, v), 3)


def test_jacobi_identity():
    law = free_nilpotent(3, 3).law
    bracket = law.bracket_vec
    rng = random.Random(11)
    for _ in range(25):
        u, v, w = (_random_element(law.dim, rng, span=2) for _ in range(3))
        total = _vec_add(
            _vec_add(bracket(u, bracket(v, w)), bracket(v, bracket(w, u))),
            bracket(w, bracket(u, v)),
        )
        assert total == {}


def test_bracket_respects_grading():
    basis = HallBasis(2, 4)
    for i, u in enumerate(basis.entries):
        for j, v in enumerate(basis.entries):
            out = basis.pair_bracket(i, j)
            for k in out:
                assert basis.weights[k] == u.weight + v.weight


def test_constructor_rejects_bad_parameters():
    with pytest.raises(ValueError):
        HallBasis(0, 2)
    with pytest.raises(ValueError):
        HallBasis(2, 0)
