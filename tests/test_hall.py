import operator
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import divisors, mobius

from nilentropy import HallBasis, SpecError, commutator, free_nilpotent, surface_quotient
from nilentropy import hall
from nilentropy.assoc import add, scale
from nilentropy.hall import MAX_DIMENSION, _hall_pair_ok, _witt_dimension
from nilentropy.mpoly import MPoly


def necklace_count(m, d):
    """Number-theoretic rank of the weight-d layer of the free Lie ring."""
    return sum(mobius(e) * m ** (d // e) for e in divisors(d)) // d


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_layer_sizes_match_necklace_counts(rank):
    basis = HallBasis(rank, 6)
    for d in range(1, 7):
        assert basis.graded_dimension(d) == necklace_count(rank, d)


@pytest.mark.parametrize("rank, nil_class", [(1, 9), (2, 7), (3, 5), (4, 6), (7, 4)])
def test_witt_dimension_is_the_basis_size(rank, nil_class):
    want = sum(necklace_count(rank, d) for d in range(1, nil_class + 1))
    assert _witt_dimension(rank, nil_class, MAX_DIMENSION) == want == len(HallBasis(rank, nil_class))


def test_budget_admits_the_largest_specs_in_use():
    # F(4,6) and F(7,4) are the largest specs the tests and the roadmap build
    assert _witt_dimension(4, 6, MAX_DIMENSION) == 964
    assert _witt_dimension(7, 4, MAX_DIMENSION) == 728
    assert _witt_dimension(2, 40, 10 ** 12) == 56466147791


@pytest.mark.parametrize("rank, nil_class", [(2, 40), (2, 10 ** 6), (60, 3), (3, 12)])
def test_oversized_basis_is_refused_before_it_is_built(monkeypatch, rank, nil_class):
    def built(*args, **kwargs):
        raise AssertionError("a basis entry was built")

    monkeypatch.setattr(hall, "BasicCommutator", built)
    with pytest.raises(SpecError, match=f"^a Hall basis of rank {rank} and class {nil_class} "
                                        f"has more than {MAX_DIMENSION} entries$"):
        HallBasis(rank, nil_class)


def test_rank_one_builds_in_linear_time():
    # every layer past weight 1 is empty; pairing every weight pair of a
    # class this large takes the better part of a minute
    start = time.perf_counter()
    basis = HallBasis(1, 20000)
    assert time.perf_counter() - start < 2.0
    assert len(basis) == 1 and basis.graded_dimension(1) == 1
    assert all(basis.graded_dimension(d) == 0 for d in range(2, 20001))


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
        assert add(bracket(u, v), bracket(v, u)) == {}
        assert bracket(add(u, v), w) == add(bracket(u, w), bracket(v, w))
        assert bracket(scale(u, 3), v) == scale(bracket(u, v), 3)


def test_jacobi_identity():
    law = free_nilpotent(3, 3).law
    bracket = law.bracket_vec
    rng = random.Random(11)
    for _ in range(25):
        u, v, w = (_random_element(law.dim, rng, span=2) for _ in range(3))
        total = add(
            add(bracket(u, bracket(v, w)), bracket(v, bracket(w, u))),
            bracket(w, bracket(u, v)),
        )
        assert total == {}


def _dense_bracket(law, x, y):
    """``[x, y]`` by a double loop over every pair of keys, each probed in
    ``law.struct``: the reference for the partner table of ``bracket_vec``."""
    out = {}
    for i, xi in x.items():
        for j, yj in y.items():
            if i > j:
                pairs, sign = law.struct.get((i, j)), 1
            elif i < j:
                pairs, sign = law.struct.get((j, i)), -1
            else:
                continue
            if pairs is None:
                continue
            p = xi * yj if sign > 0 else -(xi * yj)
            for k, c in pairs:
                t = out.get(k, 0) + p * c
                if t:
                    out[k] = t
                else:
                    out.pop(k, None)
    return out


BRACKET_LAWS = {
    "F(3,4)": lambda: free_nilpotent(3, 4).law,
    "surface(2,3)": lambda: surface_quotient(2, 3).law,
}

_SMALL = st.integers(-4, 4)
COEFFICIENTS = {
    "int": _SMALL,
    "Fraction": st.fractions(min_value=-4, max_value=4, max_denominator=6),
    # a x0 + b x1 x2 + c in three variables
    "MPoly": st.builds(
        lambda a, b, c: (MPoly.var(3, 0) * a + MPoly.var(3, 1) * MPoly.var(3, 2) * b
                         + MPoly.const(3, c)),
        _SMALL, _SMALL, st.fractions(min_value=-2, max_value=2, max_denominator=3)),
}


@pytest.mark.parametrize("kind", COEFFICIENTS)
@pytest.mark.parametrize("name", BRACKET_LAWS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_bracket_matches_the_dense_double_loop(name, kind, data):
    law = BRACKET_LAWS[name]()
    vec = st.dictionaries(st.integers(0, law.dim - 1), COEFFICIENTS[kind], max_size=8)
    x, y = data.draw(vec), data.draw(vec)
    assert law.bracket_vec(x, y) == _dense_bracket(law, x, y)


def test_bracket_respects_grading():
    basis = HallBasis(2, 4)
    for i, u in enumerate(basis.entries):
        for j, v in enumerate(basis.entries):
            out = basis.pair_bracket(i, j)
            for k in out:
                assert basis.weights[k] == u.weight + v.weight


def test_constructor_rejects_bad_parameters():
    with pytest.raises(SpecError, match="^rank must be >= 1, got 0$"):
        HallBasis(0, 2)
    with pytest.raises(SpecError, match="^class must be >= 1, got 0$"):
        HallBasis(2, 0)
    for d in (0, 4):
        with pytest.raises(SpecError, match=f"^weight {d} out of range 1..3$"):
            HallBasis(2, 3).graded_dimension(d)


@pytest.mark.parametrize("rank, nil_class", [(2, 5), (3, 4), (4, 3)])
def test_evaluate_walks_every_tree(rank, nil_class):
    """The weights add up over the trees, and every Hall element is the group
    commutator of its two parts."""
    spec = free_nilpotent(rank, nil_class)
    basis = spec.basis
    assert basis.evaluate(lambda g: 1, operator.add) == list(basis.weights)
    assert basis.evaluate(spec.indicator, lambda a, b: commutator(a, b, spec)) == [
        spec.indicator(k) for k in range(len(basis))]
