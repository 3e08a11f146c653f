"""Brute-force oracles: search-based lengths, exhaustive nullity, and
exhaustive move-set dimension.

These are the independent checks the analytic formulas are certified
against, so the tests here stress their own guarantees: Bell numbers
for the partition generator, certification flags, and the two-sided
length search against the one-sided reference in reference_oracle.
"""

from functools import lru_cache
from itertools import product as iproduct
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlen.affgroup import (
    AffineElement,
    AffineReflection,
    compose,
    identity_element,
    product,
    require_group_element,
    translation_element,
)
import coxlen.oracle as oracle_module
from coxlen.affsym import nullity
from coxlen.errors import BudgetExceeded
from coxlen.genfun import enumerate_w0
from coxlen.linalg import mat_mul, mat_vec, vec
from coxlen.oracle import (
    CertifiedLength,
    ORACLE_MAX_NULLITY_N,
    ORACLE_MAX_RANK,
    _oracle_tables,
    _pair_lengths,
    _partitions,
    brute_move_dimension,
    brute_nullity,
    brute_reflection_length,
    brute_reflection_lengths,
)
from coxlen.reflen import dimension_report
from coxlen.rootsys import coroot, root_system
import reference_oracle
from reference_oracle import fraction_oracle_tables
from w0_matrices import w0_matrices

A2 = root_system("A2")
B2 = root_system("B2")

V0 = (-3, -2, -2, -1, 1, 2, 5)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877}


def refl(rs, i, level):
    return AffineReflection.make(rs.positive_roots[i], level)


@pytest.mark.parametrize("n,count", sorted(BELL.items()))
def test_partition_generator_hits_bell_numbers(n, count):
    parts = list(_partitions(n))
    assert len(parts) == count
    seen = set()
    for p in parts:
        key = frozenset(frozenset(b) for b in p)
        assert key not in seen
        seen.add(key)
        assert sorted(i for b in p for i in b) == list(range(1, n + 1))


def test_brute_nullity_values_and_guards():
    assert brute_nullity(V0) == 3
    assert brute_nullity((0, 0, 0, 0)) == 4
    assert brute_nullity((1, -1)) == 1
    assert brute_nullity((2, -1, -1)) == 1
    assert brute_nullity(()) == 0
    with pytest.raises(ValueError):
        brute_nullity((1, 2, 3))
    with pytest.raises(BudgetExceeded):
        brute_nullity((0,) * (ORACLE_MAX_NULLITY_N + 1))


def test_brute_nullity_agrees_with_pipeline_on_v0():
    assert brute_nullity(V0) == nullity(V0)


FROZEN_B2 = [
    (lambda: identity_element(2), 0),
    (lambda: refl(B2, 1, 0).to_element(), 1),
    (lambda: translation_element(vec([1, 1])), 2),
    (lambda: translation_element(vec([2, 4])), 4),
    (
        lambda: compose(refl(B2, 0, 0).to_element(), translation_element(vec([2, 0]))),
        3,
    ),
    (
        lambda: compose(refl(B2, 0, 0).to_element(), refl(B2, 3, 0).to_element()),
        2,
    ),
]


@pytest.mark.parametrize("make,expected", FROZEN_B2)
def test_frozen_lengths_are_found_and_certified(make, expected):
    res = brute_reflection_length(B2, make())
    assert isinstance(res, CertifiedLength)
    assert res.length == expected
    assert res.certified


def test_unconditional_certificates_do_not_need_stability():
    # a single reflection has k = 1 = e, certified by the rank bound
    # alone even when the stability ball is tiny
    r = refl(B2, 1, 1).to_element()
    res = brute_reflection_length(B2, r, level_bound=1, depth_bound=2)
    assert res.length == 1
    assert res.certified
    assert (res.level_bound, res.depth_bound) == (1, 2)


def test_unreachable_targets_report_none():
    far = translation_element(vec([9, 9]))
    res = brute_reflection_length(B2, far, level_bound=1, depth_bound=1)
    assert res.length is None
    assert not res.certified


def test_certificate_names_what_holds():
    # k <= e + 1 is a proof and needs no second ball
    res = brute_reflection_length(B2, refl(B2, 1, 1).to_element(), level_bound=1, depth_bound=2)
    assert (res.length, res.certificate) == (1, "rank")
    # a translation has e = 0, so length 2 is only stable from J to J + 1
    res = brute_reflection_length(B2, translation_element(vec([2, 2])), level_bound=1, depth_bound=4)
    assert (res.length, res.certificate, res.certified) == (2, "stable", True)
    # at J = 1 the search finds 4 for t_(6,0); at J = 2 it finds 2
    res = brute_reflection_length(B2, translation_element(vec([6, 0])), level_bound=1, depth_bound=4)
    assert (res.length, res.certificate, res.certified) == (4, None, False)
    res = brute_reflection_length(B2, translation_element(vec([9, 9])), level_bound=1, depth_bound=1)
    assert (res.length, res.certificate, res.certified) == (None, None, False)


def test_non_group_targets_are_rejected():
    from fractions import Fraction as Q

    from coxlen.affgroup import AffineElement

    with pytest.raises(ValueError):
        brute_reflection_length(B2, translation_element(vec([1, 0])))
    shear = AffineElement(((Q(1), Q(1)), (Q(0), Q(1))), (Q(0), Q(0)))
    with pytest.raises(ValueError):
        brute_reflection_length(B2, shear)


def test_rank_guard():
    with pytest.raises(BudgetExceeded):
        brute_reflection_length(
            root_system("A5"), identity_element(6)
        )
    with pytest.raises(BudgetExceeded):
        brute_move_dimension(root_system("B5"), identity_element(5))
    assert ORACLE_MAX_RANK == 4


def test_batch_lengths_share_bounds():
    els = [
        identity_element(2),
        translation_element(vec([1, 1])),
        translation_element(vec([3, 1])),
    ]
    out = brute_reflection_lengths(B2, els)
    assert [r.length for r in out] == [0, 2, 4]
    assert len({(r.level_bound, r.depth_bound) for r in out}) == 1
    # widest coefficient decides the default level bound
    assert out[0].level_bound == out[2].level_bound


@st.composite
def b2_words(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    return [
        refl(B2, draw(st.integers(0, 3)), draw(st.integers(-1, 1)))
        for _ in range(n)
    ]


@given(b2_words())
@settings(max_examples=40, deadline=None)
def test_oracle_matches_formula_on_b2(word):
    w = product(word) if word else identity_element(2)
    rep = dimension_report(B2, w)
    res = brute_reflection_length(B2, w)
    assert res.length == rep.length
    assert res.certified


@given(b2_words())
@settings(max_examples=40, deadline=None)
def test_move_dimension_matches_formula_on_b2(word):
    w = product(word) if word else identity_element(2)
    rep = dimension_report(B2, w)
    assert brute_move_dimension(B2, w) == rep.dim


def test_move_dimension_in_zero_sum_ambient():
    w = translation_element(vec([2, -1, -1]))
    assert brute_move_dimension(A2, w) == 2
    assert brute_move_dimension(A2, translation_element(vec([1, -1, 0]))) == 1
    assert brute_move_dimension(A2, identity_element(3)) == 0


def reference_oracle_tables(rs):
    """_oracle_tables on matrices rebuilt from the words of W0: left
    multiplication by s_alpha is a Fraction mat_mul per element, looked
    up by matrix, and each element is indexed by the root permutation of
    its matrix, read off with mat_vec."""
    matrices = w0_matrices(rs)
    by_matrix = {m: i for i, m in enumerate(matrices)}
    index = {tuple(rs.root_index[mat_vec(m, r)] for r in rs.roots): i for i, m in enumerate(matrices)}
    basis = [coroot(a) for a in rs.simple_roots]
    lines = []
    for alpha in rs.positive_roots:
        s = AffineReflection.make(alpha, 0).to_element().linear
        perm = tuple(by_matrix[mat_mul(s, m)] for m in matrices)
        cols = [rs.lattice_coords(mat_vec(s, b)) for b in basis]
        lat = tuple(tuple(cols[j][i] for j in range(rs.rank)) for i in range(rs.rank))
        lines.append((perm, lat, rs.lattice_coords(coroot(alpha))))
    return index, tuple(lines)


@pytest.mark.parametrize("name", ["A2", "B2", "C2", "G2", "A3", "B3", "C3", "A4", "D4"])
def test_oracle_tables_match_matrix_reference(name):
    rs = root_system(name)
    assert _oracle_tables(rs) == reference_oracle_tables(rs)


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"])
def test_oracle_tables_match_fraction_reflections(name):
    rs = root_system(name)
    assert _oracle_tables(rs) == fraction_oracle_tables(rs)


def test_linear_part_outside_w0_is_rejected():
    # -I permutes the roots of A2 but is not in W(A2): it is the longest
    # element times the diagram automorphism
    minus_one = tuple(vec(-(i == j) for j in range(3)) for i in range(3))
    with pytest.raises(ValueError, match="^linear part is not an element of W0$"):
        brute_reflection_length(A2, AffineElement(minus_one, vec([0, 0, 0])))


# The reference searches the whole ball at J and at J + 1 for every
# call; the property below reuses each ball across its examples.
reference_ball = lru_cache(maxsize=None)(reference_oracle._ball)

# (type, largest level bound drawn): A3 stays within J <= 2 so that the
# reference's second ball, at J + 1, remains small
REFERENCE_CASES = [("A2", 3), ("B2", 3), ("C2", 3), ("G2", 3), ("A3", 2)]


@st.composite
def oracle_batches(draw):
    """A type, a level bound, a depth bound in 0..4 and up to four
    elements t_c m with m in W0 and lattice coordinates c in [-3, 3]^n,
    many of them beyond the depth bound."""
    name, top = draw(st.sampled_from(REFERENCE_CASES))
    rs = root_system(name)
    group = w0_matrices(rs)
    coords = st.tuples(*[st.integers(-3, 3)] * rs.rank)
    picks = draw(st.lists(st.tuples(st.integers(0, len(group) - 1), coords), min_size=1, max_size=4))
    elements = [AffineElement(group[i], rs.from_lattice_coords(c)) for i, c in picks]
    return rs, elements, draw(st.integers(1, top)), draw(st.integers(0, 4))


@given(oracle_batches())
@settings(max_examples=60, deadline=None)
def test_two_sided_search_matches_the_one_sided_reference(batch):
    rs, elements, level_bound, depth_bound = batch
    got = brute_reflection_lengths(rs, elements, level_bound, depth_bound)
    with patch.object(reference_oracle, "_ball", reference_ball):
        assert got == reference_oracle.brute_reflection_lengths(rs, elements, level_bound, depth_bound)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
@pytest.mark.parametrize("depth_bound", [0, 1])
def test_shallow_depth_bounds_match_the_reference(name, depth_bound):
    rs = root_system(name)
    elements = [AffineElement(m, rs.from_lattice_coords(c))
                for m in w0_matrices(rs) for c in [(0,) * rs.rank, (1,) + (0,) * (rs.rank - 1)]]
    got = brute_reflection_lengths(rs, elements, 2, depth_bound)
    assert got == reference_oracle.brute_reflection_lengths(rs, elements, 2, depth_bound)
    assert {r.length for r in got} == ({0, None} if depth_bound == 0 else {0, 1, None})


def test_batch_equals_one_element_at_a_time():
    els = [identity_element(2), refl(B2, 1, 1).to_element(), translation_element(vec([2, 4])),
           translation_element(vec([1, 1])), translation_element(vec([9, 9])), translation_element(vec([1, 1]))]
    for level_bound, depth_bound in [(None, None), (2, 3), (5, 4)]:
        batch = brute_reflection_lengths(B2, els, level_bound, depth_bound)
        bound = batch[0].level_bound
        assert batch == [brute_reflection_length(B2, w, bound, depth_bound) for w in els]


def test_elliptic_rank_runs_once_per_w0_index(monkeypatch):
    calls = []
    rank = oracle_module.elliptic_rank
    monkeypatch.setattr(oracle_module, "elliptic_rank", lambda m: calls.append(m) or rank(m))
    s0, s1 = refl(B2, 0, 0).to_element(), refl(B2, 1, 1).to_element()
    els = [identity_element(2), translation_element(vec([1, 1])), s0, compose(translation_element(vec([2, 0])), s0),
           s1, translation_element(vec([3, 1])), compose(s0, s1)]
    index, _ = _oracle_tables(B2)
    distinct = {index[require_group_element(B2, w)[0]] for w in els}
    assert len(distinct) == 4
    out = brute_reflection_lengths(B2, els)
    assert len(calls) == len(distinct)
    assert [r.length for r in out] == [dimension_report(B2, w).length for w in els]
    assert all(r.certified for r in out)


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_pair_entry_matches_the_element_entry_on_the_box_sweep(name):
    # the tables bench sweep: every element of W0 times every translation
    # with simple-coroot coordinates in [-2, 2], once as matrices and once
    # as (root permutation, coordinates) pairs off the W0 enumeration
    rs = root_system(name)
    box = list(iproduct(range(-2, 3), repeat=rs.rank))
    elements = [AffineElement(m, rs.from_lattice_coords(c)) for c in box for m in w0_matrices(rs)]
    pairs = [(perm, c) for c in box for perm in enumerate_w0(rs).elements]
    got = _pair_lengths(rs, pairs, None, None)
    assert got == brute_reflection_lengths(rs, elements)
    assert [r.length for r in got] == [dimension_report(rs, w).length for w in elements]


def test_no_stability_search_when_the_rank_certifies(monkeypatch):
    # k <= e + 1 for every target: only the level-J search runs
    calls = []
    ball = oracle_module._ball

    def recording(rs, level_bound, depth_bound, targets=None):
        calls.append(level_bound)
        return ball(rs, level_bound, depth_bound, targets)

    monkeypatch.setattr(oracle_module, "_ball", recording)
    els = [identity_element(2), refl(B2, 1, 1).to_element(),
           compose(refl(B2, 0, 0).to_element(), refl(B2, 3, 1).to_element())]
    assert [(r.length, r.certificate) for r in brute_reflection_lengths(B2, els, 3, 4)] == [
        (0, "rank"), (1, "rank"), (2, "rank")]
    assert calls == [3]
    # a translation of length 2 has e = 0, so the level-(J + 1) search runs
    brute_reflection_lengths(B2, els + [translation_element(vec([1, 1]))], 3, 4)
    assert calls == [3, 3, 4]


def test_state_cap_refuses_a_first_round_that_cannot_fit(monkeypatch):
    # the first round of B2 at J = 5 stores 1 + 1 + 4 (2J + 1) = 46 states:
    # a cap one lower refuses before any move is built, and at 46 the
    # search stores them all and trips the cap in its next round
    t = translation_element(vec([2, 4]))
    monkeypatch.setattr(oracle_module, "DEFAULT_ORACLE_STATE_CAP", 45)
    with pytest.raises(BudgetExceeded, match=(
        r"^oracle state cap DEFAULT_ORACLE_STATE_CAP = 45 exceeded: the first round would store 46 "
        r"states at level bound 5; the largest level bound that fits is 4$")):
        brute_reflection_length(B2, t)
    # a last first round stores nothing, and the identity needs no round
    assert brute_reflection_length(B2, t, depth_bound=1).length is None
    assert brute_reflection_length(B2, identity_element(2)).length == 0
    monkeypatch.setattr(oracle_module, "DEFAULT_ORACLE_STATE_CAP", 46)
    with pytest.raises(BudgetExceeded, match=r"exceeded: 47 states stored with the forward ball at radius 1 "):
        brute_reflection_length(B2, t)


def test_state_cap_names_the_cap_the_states_and_the_radii(monkeypatch):
    monkeypatch.setattr(oracle_module, "DEFAULT_ORACLE_STATE_CAP", 100)
    with pytest.raises(BudgetExceeded, match=(
        r"^oracle state cap DEFAULT_ORACLE_STATE_CAP = 100 exceeded: 101 states stored with the forward "
        r"ball at radius \d and the reverse balls at radius \d \(level bound 5, depth bound 4\)")):
        brute_reflection_length(B2, translation_element(vec([2, 4])))
