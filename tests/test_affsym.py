"""Window notation, null partition statistics, and the combinatorial
reflection length.

The running example v0 = (-3,-2,-2,-1,1,2,5) was worked through by hand:
the per-weight basic block counts, the seven minimal null blocks, and
the three maximal null partitions below all follow from the definitions
by direct enumeration.
"""

import random
import re
import time
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxlen.affsym
import coxlen.reflen
from coxlen.affgroup import compose, is_elliptic, require_group_element
from coxlen.affsym import (
    SetPartition,
    Window,
    _good_origin_split,
    _window_pair,
    cycles,
    embed_window,
    good_origin_split,
    l_map,
    minimal_null_blocks,
    null_complex,
    nullity,
    proper_basic_null_block_count,
    reflection_length,
    relative_nullity,
    window_root_system,
)
from coxlen.errors import BudgetExceeded, ParseError
from coxlen.oracle import brute_nullity
from coxlen.reflen import DEFAULT_HURWITZ_BUDGET, dimension_report, zero_block_count
from reference_affgroup import is_translation
from reference_affsym import (
    basic_null_blocks,
    compose_windows,
    differential_dimension_window,
    elliptic_dimension_window,
    profiles,
    reference_good_origin_split,
    reference_minimal_null_blocks,
    window_from_normal_form,
    window_of_element,
    window_value,
)

V0 = (-3, -2, -2, -1, 1, 2, 5)

MINIMAL_V0 = [
    {4, 5},
    {2, 6},
    {3, 6},
    {1, 5, 6},
    {1, 2, 7},
    {1, 3, 7},
    {2, 3, 4, 7},
]


@st.composite
def windows(draw, nmin=3, nmax=5):
    n = draw(st.integers(nmin, nmax))
    pi = tuple(draw(st.permutations(list(range(1, n + 1)))))
    head = [draw(st.integers(-2, 2)) for _ in range(n - 1)]
    lam = tuple(head + [-sum(head)])
    return window_from_normal_form(lam, pi)


def test_window_validation():
    with pytest.raises(ParseError):
        Window((1,))
    with pytest.raises(ParseError):
        Window((1, 4, 1))  # 1 and 4 collide mod 3
    with pytest.raises(ParseError):
        Window((1, 2, 4))  # sum 7, expected 6


def test_normal_form_and_roundtrip():
    win = Window((4, 2, 0))
    lam, pi = win.normal_form()
    assert lam == (1, 0, -1)
    assert pi == (1, 2, 3)
    assert window_from_normal_form(lam, pi) == win
    assert window_of_element(embed_window(win)) == win


def test_window_value_periodicity():
    win = Window((6, 0, 7, -1, 3))
    for i in range(-5, 12):
        assert window_value(win, i + 5) == window_value(win, i) + 5
    assert [window_value(win, i) for i in range(1, 6)] == [6, 0, 7, -1, 3]


def test_cycles_and_set_partition():
    assert [sorted(b) for b in cycles((4, 5, 1, 3, 2, 6)).blocks] == [
        [1, 3, 4],
        [2, 5],
        [6],
    ]
    with pytest.raises(ValueError):
        SetPartition.make(3, [{1, 2}])
    with pytest.raises(ValueError):
        SetPartition.make(3, [{1, 2}, {2, 3}])
    with pytest.raises(ValueError):
        SetPartition.make(3, [{1, 2}, set()])


def test_l_map_orders_blocks_by_minimum():
    p = SetPartition.make(4, [{2, 4}, {1, 3}])
    assert l_map(p, (5, 1, -5, 2)) == (0, 3)


def test_profiles_of_v0():
    p = profiles(V0)
    assert p.x_set == {5, 6, 7}
    assert p.y_set == {1, 2, 3, 4}
    assert p.z_set == frozenset()
    assert p.positive_weight == 8
    assert p.pos_at(1) == {frozenset({5})}
    assert p.neg_at(3) == {frozenset({1}), frozenset({2, 4}), frozenset({3, 4})}
    assert p.pos_at(4) == frozenset()
    assert p.pos_at(99) == frozenset()


def test_basic_null_blocks_of_v0():
    buckets = basic_null_blocks(V0)
    assert [len(b) for b in buckets] == [1, 2, 3, 0, 3, 2, 1, 1]
    assert buckets[0] == {frozenset({4, 5})}
    assert frozenset({1, 5, 6}) in buckets[2]
    assert frozenset({1, 2, 7}) in buckets[4]
    assert buckets[7] == {frozenset(range(1, 8))}
    assert proper_basic_null_block_count(V0) == 12


def test_minimal_null_blocks_of_v0():
    got = [set(b) for b in minimal_null_blocks(V0)]
    assert sorted(got, key=sorted) == sorted(MINIMAL_V0, key=sorted)


def test_null_complex_of_v0():
    cx = null_complex(V0)
    assert len(cx.vertices) == 7
    assert len(cx.edges) == 7
    triangles = [
        (i, j, k)
        for (i, j) in cx.edges
        for k in range(len(cx.vertices))
        if k > j and (j, k) in cx.edges and (i, k) in cx.edges
    ]
    assert len(triangles) == 2
    expected_cliques = {
        frozenset({frozenset({1, 2, 7}), frozenset({3, 6}), frozenset({4, 5})}),
        frozenset({frozenset({1, 3, 7}), frozenset({2, 6}), frozenset({4, 5})}),
        frozenset({frozenset({1, 5, 6}), frozenset({2, 3, 4, 7})}),
    }
    assert {frozenset(c) for c in cx.maximal_cliques} == expected_cliques
    # every maximal null partition covers the whole index set
    for c in cx.maximal_cliques:
        assert set().union(*c) == set(range(1, 8))


def brute_null_partitions(v):
    """Every set partition of {1..n} whose blocks are minimal null blocks
    (zero sum, no proper nonempty zero-sum subset), blocks by minimum."""
    n = len(v)
    zero = {m for m in range(1, 1 << n) if sum(v[i] for i in range(n) if m >> i & 1) == 0}
    minimal = {m for m in zero if not any(z != m and z & m == z for z in zero)}

    def partitions(items):
        if not items:
            yield []
            return
        for p in partitions(items[1:]):
            yield [[items[0]]] + p
            for i in range(len(p)):
                yield p[:i] + [[items[0]] + p[i]] + p[i + 1 :]

    out = []
    for p in partitions(list(range(1, n + 1))):
        if all(sum(1 << (i - 1) for i in b) in minimal for b in p):
            out.append(tuple(sorted((frozenset(b) for b in p), key=min)))
    return out


@st.composite
def zero_sum_vectors(draw, nmax=9):
    head = draw(st.lists(st.integers(-3, 3), min_size=0, max_size=nmax - 1))
    return tuple(head) + (-sum(head),)


@given(zero_sum_vectors())
@settings(max_examples=100, deadline=None)
def test_null_complex_cliques_are_the_minimal_null_partitions(v):
    cx = null_complex(v, vertex_cap=1 << len(v))
    expected = sorted(brute_null_partitions(v), key=lambda c: (len(c), [sorted(b) for b in c]))
    assert list(cx.maximal_cliques) == expected
    assert cx.nullity == brute_nullity(v)


def test_good_origin_split_checks_only_the_window(monkeypatch):
    # the pair is read off the window, so no matrix is checked; the split
    # hands over the factorisation of its elliptic part, checked once
    checked, split_off = [], coxlen.reflen._split_off
    monkeypatch.setattr(coxlen.reflen, "require_group_element", lambda rs, a: checked.append(a))
    monkeypatch.setattr(coxlen.reflen, "_split_off", lambda *args: checked.append("split") or split_off(*args))
    good_origin_split(Window((6, 0, 7, -1, 3)))
    assert checked == ["split"]


@given(windows(nmin=2, nmax=8))
@settings(max_examples=150, deadline=None)
def test_window_pair_is_the_group_element_of_the_embedding(win):
    rs = window_root_system(win.n)
    assert _window_pair(rs, *win.normal_form()) == require_group_element(rs, embed_window(win))


def test_nullity_values():
    assert nullity(V0) == 3
    assert nullity((0, 0, 0)) == 3
    assert nullity((1, -1)) == 1
    assert nullity(()) == 0
    with pytest.raises(ValueError):
        nullity((1, 1))


@given(zero_sum_vectors(nmax=10))
@settings(max_examples=60, deadline=None)
def test_nullity_is_the_kernel_and_agrees_with_brute_force_and_the_cliques(v):
    assert nullity(v) == zero_block_count(v, False) == brute_nullity(v)
    assert nullity(v) == null_complex(v, vertex_cap=1 << len(v)).nullity


def test_nullity_answers_sixteen_entries_without_a_cap():
    # at a vertex cap of 64 the clique route gives up on
    # (1, -1, ..., 8, -8) and on 7 of the 40 random vectors; uncapped, it
    # agrees with the kernel on all of them
    started = time.perf_counter()
    assert nullity(tuple(x for i in range(1, 9) for x in (i, -i))) == 8
    assert time.perf_counter() - started < 1
    rng = random.Random(16)
    vectors = []
    while len(vectors) < 40:
        v = tuple(rng.randint(-2, 2) for _ in range(16))
        if sum(v) == 0:
            vectors.append(v)
    started = time.perf_counter()
    answers = [nullity(v) for v in vectors]
    assert time.perf_counter() - started < 2
    assert answers == [null_complex(v, vertex_cap=1 << 16).nullity for v in vectors]


def test_zero_entries_become_singleton_blocks():
    blocks = minimal_null_blocks((1, 0, -1, 0))
    assert frozenset({2}) in blocks
    assert frozenset({4}) in blocks
    assert frozenset({1, 3}) in blocks
    assert nullity((1, 0, -1, 0)) == 3


def test_profile_size_cap():
    v = tuple([1] * 23 + [-23])
    with pytest.raises(BudgetExceeded):
        profiles(v)
    for f in (minimal_null_blocks, proper_basic_null_block_count):
        with pytest.raises(BudgetExceeded, match="DEFAULT_PROFILE_SIZE_CAP = 22"):
            f(v)
        with pytest.raises(BudgetExceeded):
            f(tuple(-x for x in v))


def test_reflection_length_frozen_windows():
    assert reflection_length(Window((4, 2, 0))) == 2
    assert relative_nullity((1, 0, -1), (1, 2, 3)) == 2
    win = Window((6, 0, 7, -1, 3))
    assert reflection_length(win) == 4
    assert elliptic_dimension_window(win) == 2
    assert differential_dimension_window(win) == 1
    # adjacent transposition: a single reflection
    assert reflection_length(Window((2, 1, 3))) == 1
    # translation by v0 in period 7: 2 * (7 - nullity)
    tv0 = window_from_normal_form(V0, tuple(range(1, 8)))
    assert reflection_length(tv0) == 8


def test_good_origin_split_frozen():
    win = Window((6, 0, 7, -1, 3))
    origin, (t, u) = good_origin_split(win)
    assert origin == tuple(Q(c, 5) for c in (2, 2, -3, 2, -3))
    w = embed_window(win)
    assert compose(t, u) == w
    assert is_translation(t) and is_elliptic(u)
    assert u.apply(origin) == origin
    # coordinate differences of a vertex are integers
    for i in range(5):
        for j in range(5):
            assert (origin[i] - origin[j]).denominator == 1


@pytest.mark.parametrize("k", [0, -1])
def test_good_origin_split_rejects_a_shifted_assignment(monkeypatch, k):
    # one simple coroot added to the translation of u moves mu across two
    # cycles of pi ({1}, {2, 5, 3}, {4}), so the walk along a cycle no
    # longer closes, which the integer check must see
    split = coxlen.affsym.pair_split

    def shifted(*args):
        coords_t, coords_u, rep_t, rep_u, elliptic = split(*args)
        coords_u = list(coords_u)
        coords_u[k] += 1
        return coords_t, tuple(coords_u), rep_t, rep_u, elliptic

    monkeypatch.setattr(coxlen.affsym, "pair_split", shifted)
    with pytest.raises(AssertionError, match="not fixed by the elliptic part"):
        good_origin_split(Window((6, 0, 7, -1, 3)))


@given(windows())
@settings(max_examples=60, deadline=None)
def test_window_composition_is_a_homomorphism(a):
    b = window_from_normal_form((0,) * a.n, tuple(range(2, a.n + 1)) + (1,))
    ab = compose_windows(a, b)
    assert embed_window(ab) == compose(embed_window(a), embed_window(b))
    assert window_of_element(embed_window(a)) == a


@given(windows())
@settings(max_examples=60, deadline=None)
def test_combinatorial_length_matches_geometry(win):
    rs = window_root_system(win.n)
    w = embed_window(win)
    rep = dimension_report(rs, w)
    assert reflection_length(win) == rep.length
    assert elliptic_dimension_window(win) == rep.e
    assert differential_dimension_window(win) == rep.d


@given(windows())
@settings(max_examples=40, deadline=None)
def test_relative_nullity_matches_brute(win):
    lam, pi = win.normal_form()
    v = l_map(cycles(pi), lam)
    assert nullity(v) == brute_nullity(v)


@given(windows(nmin=3, nmax=4))
@settings(max_examples=25, deadline=None)
def test_good_origin_split_properties(win):
    origin, (t, u) = good_origin_split(win)
    w = embed_window(win)
    rs = window_root_system(win.n)
    assert compose(t, u) == w
    assert is_translation(t) and is_elliptic(u)
    assert u.apply(origin) == tuple(origin)
    assert dimension_report(rs, t).length == 2 * differential_dimension_window(win)
    assert dimension_report(rs, u).length == elliptic_dimension_window(win)
    assert sum(origin) == 0


@given(windows(nmin=2, nmax=9))
@settings(max_examples=200, deadline=None)
def test_good_origin_split_matches_the_search_over_factor_hyperplanes(win):
    # the trees of the factor hyperplanes are the cycles of pi, and both
    # anchor each at its least index
    lam, pi = win.normal_form()
    expected = reference_good_origin_split(lam, pi, DEFAULT_HURWITZ_BUDGET)
    assert _good_origin_split(lam, pi, DEFAULT_HURWITZ_BUDGET) == expected


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=9).map(lambda xs: tuple(xs) + (-sum(xs),)))
@settings(max_examples=100, deadline=None)
def test_proper_basic_count_is_the_built_count(v):
    assert proper_basic_null_block_count(v) == sum(len(s) for s in basic_null_blocks(v)[:-1])


def test_minimal_null_block_cap_raises_as_soon_as_it_is_exceeded():
    v = (1, -1, 2, -2, 3, -3, 4, -4, 0)
    blocks = minimal_null_blocks(v)
    assert minimal_null_blocks(v, cap=len(blocks)) == blocks
    with pytest.raises(BudgetExceeded, match=f"^{len(blocks)} minimal null blocks exceed the vertex cap {len(blocks) - 1} by weight"):
        minimal_null_blocks(v, cap=len(blocks) - 1)
    with pytest.raises(BudgetExceeded, match="^2 minimal null blocks exceed the vertex cap 1 by weight 1 of 10$"):
        null_complex(v, vertex_cap=1)


def test_union_cap_counts_the_unions_the_sweep_tests(monkeypatch):
    # (1, -1) x 8 joins C(8, w)^2 part pairs at each weight w, C(16, 8) - 1
    # = 12869 in all, into its 64 minimal blocks
    v = (1, -1) * 8
    monkeypatch.setattr(coxlen.affsym, "DEFAULT_NULL_UNION_CAP", 12869)
    assert len(minimal_null_blocks(v)) == 64
    monkeypatch.setattr(coxlen.affsym, "DEFAULT_NULL_UNION_CAP", 12868)
    with pytest.raises(BudgetExceeded, match="^the minimal null block sweep would test 12869 unions by weight 8 of 8, "
                                             "above DEFAULT_NULL_UNION_CAP = 12868$"):
        minimal_null_blocks(v)


def test_clique_cap_counts_the_cliques_listed(monkeypatch):
    # the maximal cliques of (1, -1) x 7 are its 7! perfect matchings
    v = (1, -1) * 7
    monkeypatch.setattr(coxlen.affsym, "DEFAULT_CLIQUE_CAP", 5040)
    cx = null_complex(v)
    assert (len(cx.vertices), len(cx.maximal_cliques), cx.nullity) == (49, 5040, 7)
    monkeypatch.setattr(coxlen.affsym, "DEFAULT_CLIQUE_CAP", 5039)
    with pytest.raises(BudgetExceeded, match="^the 49 minimal null blocks make more than DEFAULT_CLIQUE_CAP = 5039 maximal cliques$"):
        null_complex(v)


@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=11).map(lambda xs: tuple(xs) + (-sum(xs),)),
    st.sampled_from([None, 1, 3, 8]),
)
@settings(max_examples=200, deadline=None)
def test_lazy_sweep_matches_the_sweep_over_full_profiles(v, cap):
    # the same blocks, or the same BudgetExceeded message, as the sweep
    # that builds every signed subset first and sorts each weight
    try:
        expected = reference_minimal_null_blocks(v, cap)
    except BudgetExceeded as ex:
        with pytest.raises(BudgetExceeded, match=f"^{re.escape(str(ex))}$"):
            minimal_null_blocks(v, cap)
    else:
        assert minimal_null_blocks(v, cap) == expected
