import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilentropy import (
    BallBudgetExceeded,
    GroupSpec,
    HallBasis,
    IntegralityError,
    SpecError,
    SpecFormatError,
    TorsionDetected,
    WordExpr,
    bfs_ball,
    commutator,
    conjugate,
    eval_word,
    free_nilpotent,
    geodesic_length,
    identity,
    inverse,
    karidi_band,
    karidi_length,
    multiply,
    power,
    project,
    rewrite_mod_last_term,
    spec_from_json,
    spec_to_json,
    surface_quotient,
    vector_from_json,
    vector_to_json,
)
from nilentropy.assoc import _tree_word, magnus_normal_form
from nilentropy.nilgroup import _box_length

from conftest import box_length_reference, random_vector, random_word


# ---------------------------------------------------------------------------
# the class-2 law in closed form


def test_class_two_law_anchors(heis):
    x1, x2 = heis.indicator(0), heis.indicator(1)
    assert multiply(x1, x2, heis) == (1, 1, 0)
    assert multiply(x2, x1, heis) == (1, 1, 1)
    assert commutator(x2, x1, heis) == (0, 0, 1)
    assert commutator(x1, x2, heis) == (0, 0, -1)
    assert inverse((3, -2, 5), heis) == multiply(
        inverse((0, 0, 5), heis), inverse((3, -2, 0), heis), heis
    )
    assert power(x1, 7, heis) == (7, 0, 0)
    assert power((1, 1, 0), 3, heis) == (3, 3, 3)


def test_class_two_law_closed_form(heis, rng):
    # (a1, b1, e1)(a2, b2, e2) = (a1+a2, b1+b2, e1+e2+b1*a2)
    for _ in range(200):
        g = random_vector(heis, rng, span=6)
        h = random_vector(heis, rng, span=6)
        a1, b1, e1 = g
        a2, b2, e2 = h
        assert multiply(g, h, heis) == (a1 + a2, b1 + b2, e1 + e2 + b1 * a2)


def test_conjugate_and_eval_word(heis):
    x1, x2 = heis.indicator(0), heis.indicator(1)
    assert conjugate(x1, x2, heis) == multiply(
        multiply(inverse(x2, heis), x1, heis), x2, heis
    )
    assert eval_word("x2 x1", heis) == (1, 1, 1)
    assert eval_word("x1^-1 x2^-1 x1 x2", heis) == (0, 0, -1)
    assert eval_word([(0, 2), (1, -1)], heis) == multiply(
        power(x1, 2, heis), inverse(x2, heis), heis
    )
    assert eval_word("", heis) == identity(heis)


def test_eval_word_rejects_out_of_range_generator(heis):
    with pytest.raises(SpecError):
        eval_word([(2, 1)], heis)


def test_non_integral_counts_are_refused(heis):
    with pytest.raises(SpecError, match="power must be an integer"):
        power((1, 0, 0), 2.5, heis)
    with pytest.raises(SpecError, match="exponent must be an integer"):
        eval_word([(0, 2.5)], heis)
    with pytest.raises(SpecError, match="generator index must be an integer"):
        eval_word([(0.0, 1)], heis)
    assert power((1, 0, 0), True, heis) == (1, 0, 0)


# ---------------------------------------------------------------------------
# engine vs the Magnus-embedding normal form


@pytest.mark.parametrize("nil_class,count,length", [(2, 150, 12), (3, 150, 12), (4, 40, 8)])
def test_collection_matches_magnus_normal_form(nil_class, count, length):
    spec = free_nilpotent(2, nil_class)
    rng = random.Random(nil_class * 1001)
    for _ in range(count):
        word = random_word(2, rng.randint(1, length), rng)
        assert eval_word(word, spec) == magnus_normal_form(word, spec.basis)


def test_collection_matches_magnus_rank3():
    spec = free_nilpotent(3, 3)
    rng = random.Random(77)
    for _ in range(60):
        word = random_word(3, rng.randint(1, 10), rng)
        assert eval_word(word, spec) == magnus_normal_form(word, spec.basis)


def _normal_form_word(g, basis):
    """A word spelling ``g = b_1^{e_1} ... b_n^{e_n}``, each basis element
    spelled as its commutator tree."""
    word = []
    for entry, e in zip(basis.entries, g):
        letters = _tree_word(entry)
        if e < 0:
            letters = [(gen, -x) for gen, x in reversed(letters)]
        word += letters * abs(e)
    return word


@pytest.mark.parametrize("rank,nil_class", [(2, 3), (3, 3), (2, 4)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_power_matches_magnus_normal_form(rank, nil_class, data):
    spec = free_nilpotent(rank, nil_class)
    g = data.draw(st.tuples(*[st.integers(-2, 2)] * spec.dim))
    n = data.draw(st.integers(-4, 4))
    word = _normal_form_word(g, spec.basis)
    assert magnus_normal_form(word, spec.basis) == g
    if n < 0:
        word = [(gen, -e) for gen, e in reversed(word)]
    assert power(g, n, spec) == magnus_normal_form(word * abs(n), spec.basis)


# ---------------------------------------------------------------------------
# group axioms as properties

small_ints = st.integers(min_value=-8, max_value=8)


@settings(max_examples=120, deadline=None)
@given(st.tuples(*[small_ints] * 5), st.tuples(*[small_ints] * 5), st.tuples(*[small_ints] * 5))
def test_associativity_f23(g, h, k):
    spec = free_nilpotent(2, 3)
    assert multiply(multiply(g, h, spec), k, spec) == multiply(
        g, multiply(h, k, spec), spec
    )


@settings(max_examples=120, deadline=None)
@given(st.tuples(*[small_ints] * 5))
def test_inverse_and_identity_f23(g):
    spec = free_nilpotent(2, 3)
    e = identity(spec)
    assert multiply(g, inverse(g, spec), spec) == e
    assert multiply(inverse(g, spec), g, spec) == e
    assert multiply(g, e, spec) == tuple(g)
    assert multiply(e, g, spec) == tuple(g)


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[small_ints] * 5), st.integers(min_value=-6, max_value=6))
def test_power_matches_repeated_product_f23(g, n):
    spec = free_nilpotent(2, 3)
    acc = identity(spec)
    step = tuple(g) if n >= 0 else inverse(g, spec)
    for _ in range(abs(n)):
        acc = multiply(acc, step, spec)
    assert power(g, n, spec) == acc


def test_axioms_class_four(f24, rng):
    for _ in range(60):
        g = random_vector(f24, rng)
        h = random_vector(f24, rng)
        k = random_vector(f24, rng)
        assert multiply(multiply(g, h, f24), k, f24) == multiply(
            g, multiply(h, k, f24), f24
        )
        assert multiply(g, inverse(g, f24), f24) == identity(f24)
        assert inverse(inverse(g, f24), f24) == g


# ---------------------------------------------------------------------------
# truncation


def test_project_is_a_homomorphism(f24, rng):
    for k in (2, 3, 4):
        target = free_nilpotent(2, k - 1)
        for _ in range(40):
            g = random_vector(f24, rng)
            h = random_vector(f24, rng)
            lhs = project(multiply(g, h, f24), k, f24)
            rhs = multiply(project(g, k, f24), project(h, k, f24), target)
            assert lhs == rhs
    g = random_vector(f24, rng)
    assert project(g, 5, f24) == g


def test_project_range_errors(f24):
    g = identity(f24)
    with pytest.raises(SpecError):
        project(g, 1, f24)
    with pytest.raises(SpecError):
        project(g, 6, f24)


def test_rewrite_mod_last_term(f23, rng):
    for _ in range(40):
        g = random_vector(f23, rng)
        trimmed, z = rewrite_mod_last_term(g, f23)
        assert multiply(trimmed, z, f23) == g
        assert all(v == 0 for v, w in zip(trimmed, f23.weights) if w == 3)
        assert all(v == 0 for v, w in zip(z, f23.weights) if w < 3)


def test_rewrite_mod_last_term_rejects_abelian():
    z2 = free_nilpotent(2, 1)
    with pytest.raises(SpecError):
        rewrite_mod_last_term((1, 0), z2)


# ---------------------------------------------------------------------------
# lengths


def test_karidi_length_anchors(heis):
    assert karidi_length((1, 1, 0), heis).value == 1.0
    assert karidi_length((2, 1, 1), heis).value == 2.0
    assert karidi_length((3, 2, 2), heis).value == 3.0
    assert karidi_length((0, 0, 0), heis).value == 0.0
    assert karidi_length((1, 0, 9), heis).value == pytest.approx(3.0)
    assert karidi_length((0, 0, -4), heis).value == pytest.approx(2.0)


def test_geodesic_length_anchors(heis):
    assert geodesic_length(identity(heis), heis) == 0
    assert geodesic_length((1, 0, 0), heis) == 1
    assert geodesic_length((0, 0, 1), heis) == 4
    assert geodesic_length((2, 1, 0), heis) == 3
    assert geodesic_length((0, 0, 5), heis) == 10


def test_geodesic_length_symmetric_under_inverse(heis, rng):
    for _ in range(15):
        g = random_vector(heis, rng, span=2)
        a = geodesic_length(g, heis, radius_cap=8)
        b = geodesic_length(inverse(g, heis), heis, radius_cap=8)
        assert a == b


def test_bfs_ball_basic_structure(heis):
    dist = bfs_ball(heis, 2)
    assert dist[identity(heis)] == 0
    # r=1 shell: four generator letters
    assert sorted(v for v in dist.values()) .count(1) == 4
    for g, d in dist.items():
        assert dist[inverse(g, heis)] == d


@pytest.mark.parametrize("call", [
    lambda spec: bfs_ball(spec, -1),
    lambda spec: bfs_ball(spec, 2.5),
    lambda spec: geodesic_length(identity(spec), spec, radius_cap=-1),
    lambda spec: geodesic_length(identity(spec), spec, radius_cap=2.5),
], ids=["ball-negative", "ball-float", "cap-negative", "cap-float"])
def test_metric_calls_refuse_bad_radii(call):
    # a fresh spec: a refused radius grows no ball
    spec = GroupSpec(HallBasis(2, 2))
    with pytest.raises(SpecError):
        call(spec)
    assert spec._ball is None


def test_karidi_band_bounds_hold_on_the_ball(heis):
    band = karidi_band(heis, radius=4)
    assert 0 < band.lower <= band.upper
    assert band.radius == 4
    dist = bfs_ball(heis, 4)
    assert band.size == len(dist) - 1
    for g, d in dist.items():
        if d == 0:
            continue
        box = karidi_length(g, heis).value
        assert band.lower * box <= d + 1e-9
        assert d <= band.upper * box + 1e-9
    # the fitted constant comes back with the band
    assert band.constant == max(band.upper, 1 / band.lower, 1 + 1e-9)


def test_karidi_length_ignores_earlier_bands():
    spec = GroupSpec(HallBasis(2, 2))
    before = repr(karidi_length((3, -1, 5), spec))
    karidi_band(spec, radius=4)
    assert repr(karidi_length((3, -1, 5), spec)) == before


def test_box_length_keeps_the_rounded_root_on_exact_ties():
    # |3|^1 and |27|^(1/3) tie exactly, as do 2^100 and (2^300)^(1/3), but
    # the float root rounds up, and the largest float wins: comparing the
    # weighted values exactly and then taking one root would change these
    assert _box_length((3, 27), (1, 3)) == 3.0000000000000004
    assert _box_length((2 ** 100, 2 ** 300), (1, 3)) == 1.2676506002282317e+30
    assert float(2 ** 100) == 1.2676506002282294e+30


BIG = st.integers(2 ** 64, 2 ** 96)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.integers(-9, 9), BIG, BIG.map(lambda v: -v)),
                          st.integers(1, 6)), max_size=12),
       st.booleans())
def test_box_length_matches_reference(pairs, weight_one_only):
    vec = tuple(v for v, _ in pairs)
    weights = tuple(1 if weight_one_only else w for _, w in pairs)
    assert repr(_box_length(vec, weights)) == repr(box_length_reference(vec, weights))
    zero = (0,) * len(vec)
    assert repr(_box_length(zero, weights)) == repr(box_length_reference(zero, weights)) == "0.0"


def _fresh_ball(radius):
    return dict(bfs_ball(GroupSpec(HallBasis(2, 2)), radius))


def test_ball_over_budget_is_left_as_before():
    spec = GroupSpec(HallBasis(2, 2))
    with pytest.raises(BallBudgetExceeded, match="ball budget 100 exceeded at radius 4"):
        bfs_ball(spec, 5, budget=100)
    assert dict(bfs_ball(spec, 3)) == _fresh_ball(3)
    ball = bfs_ball(spec, 5)
    assert len(ball) == 299 and ball[(-2, 1, 1)] == 5
    assert dict(ball) == _fresh_ball(5)


def test_geodesic_length_after_budget_failure():
    spec = GroupSpec(HallBasis(2, 2))
    with pytest.raises(BallBudgetExceeded):
        geodesic_length((3, 3, 0), spec, budget=50)
    assert geodesic_length((3, 3, 0), spec) == 6


def test_ball_after_integrality_failure_is_left_as_before(monkeypatch):
    spec = GroupSpec(HallBasis(2, 2))
    real = spec.law.layer_expander

    failures = [1]

    def flaky(directions):
        expand = real(directions)

        def step(frontier, dist, new, radius, budget):
            # the radius-2 layer adds the products of two elements, then
            # fails, once
            if radius != 2 or not failures:
                return expand(frontier, dist, new, radius, budget)
            failures.pop()
            expand(frontier[:2], dist, new, radius, budget)
            assert new
            raise IntegralityError("expected multiple of 2, got remainder 1")

        return step

    monkeypatch.setattr(spec.law, "layer_expander", flaky)
    with pytest.raises(IntegralityError, match="expected multiple of 2"):
        bfs_ball(spec, 3)
    assert dict(bfs_ball(spec, 1)) == _fresh_ball(1)
    assert dict(bfs_ball(spec, 5)) == _fresh_ball(5)


# generating sets of F(2,2) for the call-order checks
GENSETS = (
    ((1, 0, 0), (0, 1, 0)),
    ((1, 0, 0), (0, 1, 0), (1, 1, 3)),
    ((1, 1, 0), (0, -1, 2)),
)
BALL_CALL = st.one_of(
    st.tuples(st.just("ball"), st.integers(0, 2), st.integers(0, 5)),
    st.tuples(st.just("length"), st.integers(0, 2),
              st.tuples(*[st.integers(-3, 3)] * 3), st.integers(0, 5)),
    st.tuples(st.just("band"), st.integers(0, 2), st.integers(1, 4)),
    st.tuples(st.just("over"), st.integers(0, 2), st.integers(3, 6)),
)


def _ball_call(spec, call):
    kind, which, *args = call
    genset = GENSETS[which]
    if kind == "ball":
        return bfs_ball(spec, args[0], genset=genset)
    if kind == "length":
        return geodesic_length(args[0], spec, radius_cap=args[1], genset=genset)
    if kind == "band":
        return repr(karidi_band(spec, radius=args[0], genset=genset))
    try:
        bfs_ball(spec, args[0], genset=genset, budget=20)
    except BallBudgetExceeded:
        return "over"
    return "within"


@settings(max_examples=40, deadline=None)
@given(st.lists(BALL_CALL, min_size=2, max_size=10))
def test_balls_do_not_depend_on_call_order(calls):
    spec = GroupSpec(HallBasis(2, 2))
    # then, on every set, a ball grown past a held mapping, and caps and
    # radii below a deeper cached ball
    for which in range(len(GENSETS)):
        calls += [("ball", which, 3), ("ball", which, 5), ("length", which, (3, 0, 0), 2),
                  ("length", which, (3, 0, 0), 4), ("ball", which, 2)]
    held = []
    for call in calls:
        got = _ball_call(spec, call)
        if call[0] != "over":
            assert got == _ball_call(GroupSpec(HallBasis(2, 2)), call), call
        if call[0] == "ball":
            assert _spheres_in_order(got), call
            held.append((call, got, dict(got)))
    # later calls leave every mapping handed out as it was
    for call, got, snapshot in held:
        assert got == snapshot, call


def _spheres_in_order(ball):
    lengths = list(ball.values())
    return lengths == sorted(lengths)


def test_ball_lists_its_spheres_in_order():
    # karidi_band reads the spheres off the mapping's order
    spec = GroupSpec(HallBasis(2, 2))
    gens = GENSETS[1]
    fresh = bfs_ball(spec, 4, genset=gens)
    assert _spheres_in_order(fresh)
    # a smaller radius filters the cached ball
    smaller = bfs_ball(spec, 2, genset=gens)
    assert smaller is not fresh and _spheres_in_order(smaller)
    # the handed-out radius-4 mapping is copied before it grows
    grown = bfs_ball(spec, 5, genset=gens)
    assert grown is not fresh and _spheres_in_order(grown) and _spheres_in_order(fresh)
    # growth through geodesic_length, one layer per step
    spec = GroupSpec(HallBasis(2, 2))
    assert geodesic_length((3, 3, 0), spec) == 6
    assert _spheres_in_order(bfs_ball(spec, 6))
    # a layer over budget is rolled back, and the ball grows on from there
    spec = GroupSpec(HallBasis(2, 2))
    bfs_ball(spec, 2)
    with pytest.raises(BallBudgetExceeded):
        bfs_ball(spec, 5, budget=100)
    assert _spheres_in_order(bfs_ball(spec, 3))
    assert _spheres_in_order(bfs_ball(spec, 5))


def test_ball_memory_stays_bounded_over_generating_sets():
    spec = GroupSpec(HallBasis(2, 2))
    bfs_ball(spec, 1)  # derive the law before tracing

    def grow(i):
        bfs_ball(spec, 6, genset=((1, 0, 0), (0, 1, 0), (1, -1, 1000 + i)))

    tracemalloc.start()
    try:
        grow(0)
        one = tracemalloc.get_traced_memory()[0]
        for i in range(1, 40):
            grow(i)
        forty = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert forty <= 2 * one, (one, forty)


# ---------------------------------------------------------------------------
# words


def test_word_expr_parse_and_inverse(heis):
    w = WordExpr.parse("x1^2 x2^-1 x1")
    assert w.letters == ((0, 2), (1, -1), (0, 1))
    assert w.length() == 4
    assert eval_word(w * w.inverse(), heis) == identity(heis)
    assert WordExpr.parse("x1*x2").letters == ((0, 1), (1, 1))


def test_word_expr_parse_errors():
    with pytest.raises(SpecFormatError):
        WordExpr.parse("y1")
    with pytest.raises(SpecFormatError):
        WordExpr.parse("x0")
    with pytest.raises(SpecFormatError):
        WordExpr.parse("x1^^2")


# ---------------------------------------------------------------------------
# vectors and serialization


def test_check_vector_errors(heis):
    with pytest.raises(SpecError):
        heis.check_vector((1, 2))
    with pytest.raises(SpecError):
        heis.check_vector((1, 2, 3, 4))
    with pytest.raises(SpecError):
        heis.check_vector((1.5, 0, 0))


def test_vector_json_roundtrip(heis):
    big = (10**40, -3, 2**70)
    payload = vector_to_json(big)
    assert json.loads(json.dumps(payload)) == payload
    assert vector_from_json(payload) == big
    with pytest.raises(SpecFormatError):
        vector_from_json(["not-an-int", 0, 0])


def test_spec_json_roundtrip_free(f23):
    blob = json.dumps(spec_to_json(f23))
    back = spec_from_json(json.loads(blob))
    assert back == f23
    assert back.dim == f23.dim


def test_spec_json_roundtrip_quotient():
    s = surface_quotient(2, 2)
    payload = spec_to_json(s)
    back = spec_from_json(json.loads(json.dumps(payload)))
    assert back.dim == s.dim
    assert back.weights == s.weights
    g = tuple(range(1, s.dim + 1))
    h = tuple((-1) ** k for k in range(s.dim))
    assert multiply(g, h, back) == multiply(g, h, s)


def test_spec_equality_includes_generating_set():
    basis = HallBasis(2, 2)
    gens = ((1, 0, 0), (1, 1, 0))
    skewed = GroupSpec(basis, generating_set=gens)
    assert skewed != GroupSpec(basis)
    assert skewed == GroupSpec(basis, generating_set=gens)
    assert spec_from_json(json.loads(json.dumps(spec_to_json(skewed)))) == skewed


@pytest.mark.parametrize("relations", [{}, {2: []}, {2: [], 3: ()},
                                       {2: [(0,)]}, {2: [(0,)], 3: [(0, 0), [0, 0]]}])
def test_empty_relations_give_the_free_spec(relations):
    spec = GroupSpec(HallBasis(2, 3), relations=relations)
    free = free_nilpotent(2, 3)
    assert repr(spec) == repr(free) == "GroupSpec(free, rank=2, class=3, hirsch=5)"
    assert spec.relations is None and spec.relators is None
    assert spec == free and hash(spec) == hash(free)
    assert spec_to_json(spec) == spec_to_json(free)
    assert spec_from_json(json.loads(json.dumps(spec_to_json(spec)))) == spec


def test_zero_relation_rows_are_checked_then_dropped():
    basis = HallBasis(2, 3)
    assert (GroupSpec(basis, relations={2: [(0,), (1,)], 3: [(1, 0), (0, 0), (0, 1)]})
            == GroupSpec(basis, relations={2: [(1,)], 3: [(1, 0), (0, 1)]}))
    with pytest.raises(SpecError, match="relation row at weight 2 has length 2, expected 1"):
        GroupSpec(basis, relations={2: [(0, 0)]})
    with pytest.raises(SpecError, match="relation weight 4 outside 2..3"):
        GroupSpec(basis, relations={4: [(0,)]})


@pytest.mark.parametrize("kwargs, match", [
    ({"generating_set": [(1.5, 0, 0), (0, 1, 0)]}, "generating set entry must be an integer"),
    ({"relations": {2: [(1.9,)]}}, "relation entry must be an integer"),
    ({"relations": {2.7: [(1,)]}}, "relation weight must be an integer"),
    ({"generating_set": [(1, 0), (0, 1)]}, "generating set vector of length 2, expected 3"),
])
def test_spec_refuses_non_integral_data(kwargs, match):
    # int() would read the first three as (1, 0, 0), (1,) and weight 2
    with pytest.raises(SpecError, match=match):
        GroupSpec(HallBasis(2, 2), **kwargs)


@pytest.mark.parametrize("relations, match", [
    ({99: []}, "relation weight 99 outside 2..2"),
    ({"x": []}, "relation weight must be an integer"),
    ({2.5: []}, "relation weight must be an integer"),
    ({2: [(1,)], 99: [], "x": [], 2.5: []}, "relation weight 99 outside 2..2"),
    ({2: 5}, "relations at weight 2 must be rows of integers"),
    ({2: [5]}, "relations at weight 2 must be rows of integers"),
    ({2: None}, "relations at weight 2 must be rows of integers"),
    ([(1,)], "relations must map weights to rows, got list"),
])
def test_spec_refuses_malformed_relations(relations, match):
    # weights given no rows are checked too, and no TypeError or AttributeError escapes
    with pytest.raises(SpecError, match=match):
        GroupSpec(HallBasis(2, 2), relations=relations)


@pytest.mark.parametrize("relations", [None, {}, {2: []}])
def test_relators_with_empty_relations_are_refused(relations):
    # [x2, x1] cuts weight 2 while the relations cut nothing
    with pytest.raises(SpecError, match="relator closure cuts rank 1 at weight 2, "
                                        "graded relations cut rank 0"):
        GroupSpec(HallBasis(2, 2), relations=relations, relators=[(0, 0, 1)])


@pytest.mark.parametrize("relations", [None, {}, {2: []}])
@pytest.mark.parametrize("relators", [[], [(0, 0, 0)], [(0, 0, 0), [0, 0, 0]]])
def test_identity_relators_give_the_free_spec(relations, relators):
    spec = GroupSpec(HallBasis(2, 2), relations=relations, relators=relators)
    free = free_nilpotent(2, 2)
    assert repr(spec) == repr(free)
    assert spec.relations is None and spec.relators is None
    assert spec == free and hash(spec) == hash(free)
    assert spec_to_json(spec) == spec_to_json(free)
    assert spec_from_json(json.loads(json.dumps(spec_to_json(spec)))) == spec


def test_identity_relators_are_dropped_beside_real_ones():
    basis = HallBasis(2, 3)
    # relation rows with only identity relators read as rows without relators
    spec = GroupSpec(basis, relations={2: [(1,)], 3: [(1, 0), (0, 1)]},
                     relators=[(0,) * 5])
    assert spec == GroupSpec(basis, relations={2: [(1,)], 3: [(1, 0), (0, 1)]})
    assert spec.dim == 2
    # a real relator beside an identity one still meets the rank cross-check
    with pytest.raises(SpecError, match="relator closure cuts rank 1 at weight 2, "
                                        "graded relations cut rank 0"):
        GroupSpec(HallBasis(2, 2), relators=[(0, 0, 0), (0, 0, 1)])
    # an identity relator is still checked as a cover vector
    with pytest.raises(SpecError, match="vector of length 2, expected 3"):
        GroupSpec(HallBasis(2, 2), relators=[(0, 0)])
    with pytest.raises(SpecError, match="coordinates must be integers"):
        GroupSpec(HallBasis(2, 2), relators=[(0, 0, 0.0)])


def test_spec_json_rejects_relators_without_relations(f23):
    payload = spec_to_json(f23)
    payload["relators"] = [vector_to_json(identity(f23))]
    with pytest.raises(SpecFormatError):
        spec_from_json(payload)


def test_spec_json_rejects_garbage():
    with pytest.raises(SpecFormatError):
        spec_from_json({"rank": 2})
    with pytest.raises(SpecFormatError):
        spec_from_json([1, 2, 3])


def _spec_payload(rank, nil_class, **fields):
    return {"rank": rank, "class": nil_class, "convention": "left-collected", **fields}


@pytest.mark.parametrize("payload, match", [
    (_spec_payload(2, 2, relations={"5": [[1]]}), r"^relation weight 5 outside 2\.\.2$"),
    (_spec_payload(2, 2, relations={"2": [[1, 0]]}),
     r"^relation row at weight 2 has length 2, expected 1$"),
    (_spec_payload(2, 2, generating_set=[[1, 0]]),
     r"^generating set vector of length 2, expected 3$"),
    (_spec_payload(2, 40), r"^a Hall basis of rank 2 and class 40 has more than \d+ entries$"),
    (_spec_payload(0, 2), r"^rank must be >= 1, got 0$"),
], ids=["relation-weight", "relation-row", "generating-set", "class-40", "rank-0"])
def test_spec_json_refusals_are_format_errors(payload, match):
    with pytest.raises(SpecFormatError, match=match):
        spec_from_json(payload)


def test_spec_json_torsion_stays_torsion():
    payload = _spec_payload(2, 2, relations={"2": [[2]]}, relators=[[0, 0, 2]])
    with pytest.raises(TorsionDetected):
        spec_from_json(payload)


# JSON values of the wrong type for a count, an entry or an array
JSON_ODDITY = st.sampled_from(
    ["true", "false", "null", '"x"', '""', '"2"', "1.5", "-1", "[]", "[0]", "{}"]
).map(json.loads)


def _json_paths(value, path=()):
    """The path to every value inside a decoded JSON array or object."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield path + (key,)
        if isinstance(item, (dict, list)):
            yield from _json_paths(item, path + (key,))


def _int_rows(width, most):
    return st.lists(st.lists(st.integers(-1, 1), min_size=width, max_size=width),
                    min_size=1, max_size=most)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_spec_json_fuzz_ends_in_a_spec_or_a_refusal(data):
    """A spec payload of rank 1-3 and class 1-3, with rows at random weights
    and up to two values replaced by ones of the wrong type, length or
    weight, builds a spec that round-trips, or is refused with
    :class:`SpecFormatError` or :class:`TorsionDetected`, never another
    error.  The class stays at 3: no budget bounds a law derivation."""
    rank, nil_class = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    basis = HallBasis(rank, nil_class)
    count = st.sampled_from([int, str])
    payload = {"rank": data.draw(count)(rank), "class": data.draw(count)(nil_class),
               "convention": "left-collected"}
    widths = {d: basis.graded_dimension(d) for d in range(1, nil_class + 1)}
    weights = data.draw(st.lists(st.integers(2, max(nil_class, 2)), max_size=2, unique=True))
    if not data.draw(st.integers(0, 3)):
        weights.append(data.draw(st.sampled_from([1, nil_class + 1])))
    if weights:
        payload["relations"] = {str(d): data.draw(_int_rows(widths.get(d, 1), 2)) for d in weights}
    if not data.draw(st.integers(0, 3)):
        # relators in the commutator subgroup: zero on the generators
        payload["relators"] = [[0] * rank + r for r in data.draw(_int_rows(len(basis) - rank, 2))]
    if data.draw(st.booleans()):
        payload["generating_set"] = data.draw(_int_rows(len(basis), 3))
    for _ in range(data.draw(st.integers(0, 2))):
        *path, last = data.draw(st.sampled_from(list(_json_paths(payload))))
        parent = payload
        for key in path:
            parent = parent[key]
        parent[last] = data.draw(JSON_ODDITY)
    try:
        spec = spec_from_json(json.loads(json.dumps(payload)))
    except (SpecFormatError, TorsionDetected):
        return
    assert isinstance(spec, GroupSpec)
    assert spec_from_json(json.loads(json.dumps(spec_to_json(spec)))) == spec


# ---------------------------------------------------------------------------
# quotients with torsion are refused


def test_quotient_torsion_detected():
    with pytest.raises(TorsionDetected):
        GroupSpec(HallBasis(2, 2), relations={2: [(2,)]}, relators=[(0, 0, 2)])


def test_quotient_relations_must_form_an_ideal():
    # [x1, x2] = 1 forces [x1, x2, x1] = [x1, x2, x2] = 1 at weight 3
    with pytest.raises(SpecError, match="relator closure cuts rank 2 at weight 3"):
        GroupSpec(HallBasis(2, 3), relations={2: [(1,)]})


def test_quotient_relators_must_cut_the_graded_relations():
    # the relator [x3, x1] against the graded relation [x2, x1]
    with pytest.raises(SpecError, match="leaves the graded relations at weight 2"):
        GroupSpec(HallBasis(3, 2), relations={2: [(1, 0, 0)]},
                  relators=[(0, 0, 0, 0, 1, 0)])


def test_quotient_relators_must_cut_the_graded_rank():
    # [x2, x1] and [x3, x1] close to rank 2 against the one graded relation
    with pytest.raises(SpecError, match="relator closure cuts rank 2 at weight 2"):
        GroupSpec(HallBasis(3, 2), relations={2: [(1, 0, 0)]},
                  relators=[(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0)])


@pytest.mark.parametrize("rank, nil_class, relations, relators, error, match", [
    # non-ideal relations: the closure of [x2, x1] also cuts weight 3
    (2, 3, {2: [(1,)]}, None, SpecError, "relator closure cuts rank 2 at weight 3"),
    # the relator [x3, x1] leaves the graded relation [x2, x1]
    (3, 2, {2: [(1, 0, 0)]}, [(0, 0, 0, 0, 1, 0)], SpecError,
     "relator closure leaves the graded relations at weight 2"),
    # [x2, x1] and [x3, x1] cut rank 2 against the one graded relation
    (3, 2, {2: [(1, 0, 0)]}, [(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0)], SpecError,
     "relator closure cuts rank 2 at weight 2"),
    # a saturated relator against non-saturated relations: the Smith screen
    (3, 2, {2: [(2, 0, 0)]}, [(0, 0, 0, 1, 0, 0)], TorsionDetected,
     r"graded piece at weight 2 has invariant factors \[2\]"),
])
def test_quotient_cross_check_refusals(rank, nil_class, relations, relators, error, match):
    with pytest.raises(error, match=match):
        GroupSpec(HallBasis(rank, nil_class), relations=relations, relators=relators)


def test_quotient_relator_must_be_commutator_shaped():
    with pytest.raises(SpecError):
        GroupSpec(HallBasis(2, 2), relations={2: [(1,)]}, relators=[(1, 0, 1)])
