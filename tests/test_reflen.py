"""Reflection length, minimum factorisations, and the translation-
elliptic split.

The frozen dimension values below were worked out by hand from the
definitions: e is the rank of (linear - I), d is the least number of
root lines whose span (mod the elliptic directions) contains the
translation, and the length is 2d + e.
"""

import dataclasses
import random
import sys
import time
from collections import Counter
from fractions import Fraction as Q
from itertools import combinations, count

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import coxlen.linalg
import coxlen.reflen
from coxlen.affgroup import (
    AffineElement,
    AffineReflection,
    compose,
    fixed_set,
    identity_element,
    inverse,
    is_elliptic,
    linear_move_space,
    product,
    require_group_element,
    translation_element,
)
from coxlen.affsym import Window, _window_pair, reflection_length, window_root_system
from coxlen.errors import BudgetExceeded
from coxlen.genfun import _genfun_tables, enumerate_w0
from coxlen.linalg import dot, in_span, int_line_rep, int_residual, is_zero, line_rep, mat_vec, reduce_against, rref, rref_pivots, solve_affine, vec
from coxlen.reflen import (
    DimensionReport,
    ReflectionFactorization,
    _cycle_key,
    _cycle_lines,
    _fixed_point_level,
    _fixed_sums,
    _index_moves,
    _min_span_subset,
    _move_flat,
    _null_partition_d,
    _move_mask,
    _peel_elliptic,
    _quotient_lines,
    _root_basis_of_span,
    _signed_cycles,
    dimension_report,
    factor_elliptic,
    hurwitz_move,
    min_factorization,
    pair_factorization,
    pair_report,
    pair_split,
    translation_elliptic_split,
    zero_block_count,
)
from coxlen.rootsys import root_system
from reference_affgroup import is_translation, root_permutation, w0_permutation
from reference_affsym import window_of_element
from reference_reflen import _root_basis_of_span as reference_root_basis_of_span
from reference_reflen import _peel_elliptic as reference_move_space_peel
from reference_reflen import dfs_min_span_subset, mask_zero_block_count
from reference_reflen import pair_split as reference_pair_split
from reference_reflen import span_search_report
from reference_rootsys import move_space
from w0_matrices import w0_matrices

A2 = root_system("A2")
B2 = root_system("B2")
G2 = root_system("G2")


def refl(rs, i, level):
    return AffineReflection.make(rs.positive_roots[i], level)


def rot90():
    # product of reflections in (0,1) and (1,1): order-four rotation
    return compose(refl(B2, 0, 0).to_element(), refl(B2, 3, 0).to_element())


@st.composite
def words(draw, rs, max_len=5, max_level=2):
    n = draw(st.integers(min_value=0, max_value=max_len))
    k = len(rs.positive_roots)
    return [
        refl(rs, draw(st.integers(0, k - 1)), draw(st.integers(-max_level, max_level)))
        for _ in range(n)
    ]


def element_of(rs, word):
    return product(word) if word else identity_element(rs.ambient_dim)


# (group, element, e, d)
FROZEN = [
    ("B2", lambda: identity_element(2), 0, 0),
    ("B2", lambda: refl(B2, 1, 0).to_element(), 1, 0),
    ("B2", lambda: translation_element(vec([1, 1])), 0, 1),
    ("B2", lambda: translation_element(vec([2, 0])), 0, 1),
    ("B2", lambda: translation_element(vec([2, 2])), 0, 1),
    # (2,4) is on no single root line, so two are needed
    ("B2", lambda: translation_element(vec([2, 4])), 0, 2),
    ("B2", rot90, 2, 0),
    # glide: mirror across the first axis, slide along it
    ("B2", lambda: compose(refl(B2, 0, 0).to_element(), translation_element(vec([2, 0]))), 1, 1),
    # -I absorbs any translation into its move space, so d stays 0
    ("B2", lambda: compose(rot90(), rot90()), 2, 0),
    ("B2", lambda: compose(translation_element(vec([1, 1])), compose(rot90(), rot90())), 2, 0),
    ("A2", lambda: translation_element(vec([1, -1, 0])), 0, 1),
    ("A2", lambda: translation_element(vec([2, -1, -1])), 0, 2),
    ("A2", lambda: refl(A2, 0, 1).to_element(), 1, 0),
    (
        "A2",
        lambda: compose(refl(A2, 0, 0).to_element(), refl(A2, 1, 0).to_element()),
        2,
        0,
    ),
    ("G2", lambda: translation_element(vec([1, -1, 0])), 0, 1),
    # coroot of the long root (-1,-1,2), still a single root line
    ("G2", lambda: translation_element(tuple(Q(c, 3) for c in (-1, -1, 2))), 0, 1),
]


@pytest.mark.parametrize("name,make,e,d", FROZEN)
def test_frozen_dimensions(name, make, e, d):
    rs = root_system(name)
    rep = dimension_report(rs, make())
    assert (rep.e, rep.d) == (e, d)
    assert rep.dim == d + e
    assert rep.length == 2 * d + e


@pytest.mark.parametrize("name,make,e,d", FROZEN)
def test_min_factorization_is_exact(name, make, e, d):
    rs = root_system(name)
    w = make()
    f = min_factorization(rs, w)
    assert len(f) == 2 * d + e
    assert f.product(w.dim) == w
    lines = {tuple(r) for r in rs.positive_roots}
    for r in f.factors:
        assert tuple(r.root) in lines


def test_factor_elliptic_requires_elliptic_input():
    with pytest.raises(ValueError):
        factor_elliptic(B2, translation_element(vec([1, 1])))


def test_factor_elliptic_rotation_about_deep_vertex():
    # rotation by 180 degrees about (1, 0): both factors pass through it
    c = vec([1, 0])
    w = compose(
        translation_element(c),
        compose(compose(rot90(), rot90()), translation_element(tuple(-x for x in c))),
    )
    f = factor_elliptic(B2, w)
    assert len(f) == 2
    assert f.product(2) == w
    for r in f.factors:
        from coxlen.linalg import dot

        assert dot(c, r.root) == r.level


def test_non_group_elements_are_rejected_by_factorisations():
    # dimension_report stays lenient (its statistics make sense for any
    # rational isometry); the factorisation routines promise products of
    # group reflections, so they validate membership up front
    with pytest.raises(ValueError):
        min_factorization(B2, translation_element(vec([0, 1])))
    with pytest.raises(ValueError):
        factor_elliptic(B2, compose(refl(B2, 0, 0).to_element(), translation_element(vec([0, 1]))))
    with pytest.raises(ValueError):
        translation_elliptic_split(B2, translation_element(vec([1, 0])))


def test_hurwitz_moves_preserve_product_and_invert():
    f = min_factorization(B2, compose(rot90(), translation_element(vec([1, 1]))))
    w = f.product(2)
    for i in range(len(f) - 1):
        g = hurwitz_move(f, i, "right")
        assert g.product(2) == w
        assert hurwitz_move(g, i, "left") == f
        h = hurwitz_move(f, i, "left")
        assert h.product(2) == w
        assert hurwitz_move(h, i, "right") == f


def test_hurwitz_move_bounds_and_direction():
    f = ReflectionFactorization((refl(B2, 0, 0), refl(B2, 1, 1)))
    with pytest.raises(IndexError):
        hurwitz_move(f, 1)
    with pytest.raises(IndexError):
        hurwitz_move(f, -1)
    with pytest.raises(ValueError):
        hurwitz_move(f, 0, "sideways")


@pytest.mark.parametrize("name,make,e,d", FROZEN)
def test_split_properties(name, make, e, d):
    rs = root_system(name)
    w = make()
    t, u = translation_elliptic_split(rs, w)
    assert is_translation(t)
    assert is_elliptic(u)
    assert compose(t, u) == w
    assert dimension_report(rs, t).length == 2 * d
    assert dimension_report(rs, u).length == e


@pytest.mark.parametrize("name,make,e,d", FROZEN)
def test_split_carries_the_elliptic_factorization(name, make, e, d):
    rs = root_system(name)
    split = translation_elliptic_split(rs, make())
    f = split.elliptic_factorization
    assert len(f) == e == split.elliptic_report.length
    assert f.product(split.elliptic.dim) == split.elliptic
    assert f == factor_elliptic(rs, split.elliptic)


def test_split_budget_exhaustion():
    glide = compose(refl(B2, 0, 0).to_element(), translation_element(vec([2, 0])))
    with pytest.raises(BudgetExceeded):
        translation_elliptic_split(B2, glide, budget=0)
    # d = 0 elements never search, so a zero budget is fine
    t, u = translation_elliptic_split(B2, rot90(), budget=0)
    assert t.is_identity() and u == rot90()


@given(words(B2))
@settings(max_examples=80, deadline=None)
def test_length_invariants_b2(word):
    w = element_of(B2, word)
    rep = dimension_report(B2, w)
    assert rep.length % 2 == rep.e % 2
    assert rep.length <= len(word)
    assert rep.e <= rep.length <= 2 * B2.rank
    assert dimension_report(B2, inverse(w)).length == rep.length


@given(words(B2, max_len=4), words(B2, max_len=2))
@settings(max_examples=60, deadline=None)
def test_length_conjugation_and_subadditivity(word, gword):
    w = element_of(B2, word)
    g = element_of(B2, gword)
    lw = dimension_report(B2, w).length
    conj = compose(compose(g, w), inverse(g))
    assert dimension_report(B2, conj).length == lw
    v = element_of(B2, gword)
    assert (
        dimension_report(B2, compose(w, v)).length
        <= lw + dimension_report(B2, v).length
    )


@given(words(G2, max_len=4))
@settings(max_examples=40, deadline=None)
def test_g2_factorizations_verify(word):
    w = element_of(G2, word)
    f = min_factorization(G2, w)
    rep = dimension_report(G2, w)
    assert len(f) == rep.length
    assert f.product(w.dim) == w


def reference_min_span_subset(lines, target, max_k):
    """The exhaustive d search: row-reduce every k-subset of the sorted
    projected lines in lexicographic order and return the first
    independent one whose span contains the target."""
    tkey = line_rep(target)
    if tkey in lines:
        return 1, (lines[tkey],)
    keys = sorted(lines)
    for k in range(2, max_k + 1):
        for combo in combinations(keys, k):
            basis, pivots = rref(combo)
            if len(basis) < k:
                continue
            if is_zero(reduce_against(basis, pivots, target)):
                return k, tuple(lines[c] for c in combo)
    raise AssertionError("projected root lines failed to span their own span")


SPAN_TYPES = ["A3", "B3", "C3", "D4", "G2", "F4"]
WIDE_SPAN_TYPES = ["A5", "B5", "C5", "D5", "A6"]


@st.composite
def span_problems(draw, types=SPAN_TYPES):
    """Projected root lines modulo the move space of a random W0 element,
    and a random nonzero target in their span."""
    rs = root_system(draw(st.sampled_from(types)))
    word = draw(st.lists(st.integers(0, rs.rank - 1), max_size=2 * rs.rank))
    w = element_of(rs, [AffineReflection.make(rs.simple_roots[i], 0) for i in word])
    ubasis, upivots = rref(linear_move_space(w.linear))
    lines = _quotient_lines(rs, linear_move_space(w.linear), upivots)
    coeffs = draw(st.lists(st.integers(-12, 12), min_size=rs.rank, max_size=rs.rank))
    lam = [sum((c * a[j] for c, a in zip(coeffs, rs.simple_roots)), Q(0)) for j in range(rs.ambient_dim)]
    target = reduce_against(ubasis, upivots, tuple(lam))
    assume(not is_zero(target))
    return lines, target, rs.rank - len(ubasis)


@given(span_problems())
@settings(max_examples=150, deadline=None)
def test_span_search_matches_exhaustive_reference(problem):
    lines, target, max_k = problem
    assert _min_span_subset(lines, target, max_k) == reference_min_span_subset(lines, target, max_k)


@given(span_problems(WIDE_SPAN_TYPES))
@settings(max_examples=100, deadline=None)
def test_span_search_matches_depth_first_reference(problem):
    # beyond the exhaustive reference's reach: the search that tests every
    # independent later line against the residual target, witnesses included
    lines, target, max_k = problem
    assert _min_span_subset(lines, target, max_k) == dfs_min_span_subset(lines, target, max_k)


def test_span_search_skips_lines_parallel_modulo_the_prefix(monkeypatch):
    # A3 lines in key order: e3-e4, e2-e3, e2-e4, e1-e2, e1-e3, e1-e4; the
    # generic target needs three.  Size 2 reduces all six lines in one pass.
    # Modulo the prefix e3-e4, e2-e4 is parallel to e2-e3 and e1-e4 to
    # e1-e3, so the pass after that prefix reduces three lines, not five.
    A3 = root_system("A3")
    lines = _quotient_lines(A3, (), ())
    target = vec([1, 2, 3, -6])
    witness = (vec([0, 0, 1, -1]), vec([0, 1, -1, 0]), vec([1, -1, 0, 0]))
    assert _min_span_subset(lines, target, 3) == dfs_min_span_subset(lines, target, 3) == (3, witness)
    monkeypatch.setattr("coxlen.reflen.DEFAULT_SPAN_SEARCH_CAP", 9)
    assert _min_span_subset(lines, target, 3) == (3, witness)
    monkeypatch.setattr("coxlen.reflen.DEFAULT_SPAN_SEARCH_CAP", 8)
    with pytest.raises(BudgetExceeded, match=r"cap 8\b.*\b9 candidate.*size 3"):
        _min_span_subset(lines, target, 3)


# Witness roots of translations by sum c_i * (i-th simple coroot), as the
# exhaustive subset search returned them; (name, c, d, witness).
FROZEN_WITNESSES = [
    ("A5", (39, -8, 5, 27, -37), 5,
     ["0,0,0,0,1,-1", "0,0,0,1,-1,0", "0,0,1,-1,0,0", "0,1,-1,0,0,0", "1,-1,0,0,0,0"]),
    ("B5", (19, -9, -34, -20, -26), 5,
     ["0,0,0,0,1", "0,0,0,1,-1", "0,0,1,-1,0", "0,1,-1,0,0", "1,-1,0,0,0"]),
    ("C5", (7, 20, -9, 8, 29), 5,
     ["0,0,0,0,2", "0,0,0,1,-1", "0,0,1,-1,0", "0,1,-1,0,0", "1,-1,0,0,0"]),
    ("D5", (-27, 33, -9, -39, -13), 5,
     ["0,0,0,1,-1", "0,0,0,1,1", "0,0,1,-1,0", "0,1,-1,0,0", "1,-1,0,0,0"]),
    ("F4", (-20, -31, -23, 39), 4,
     ["0,0,0,1", "0,0,1,-1", "0,1,-1,0", "1/2,-1/2,-1/2,-1/2"]),
    ("B5", (3, -5, 7, -9, 11), 4, ["0,0,0,1,-1", "0,0,1,0,1", "0,1,0,0,0", "1,0,-1,0,0"]),
    ("C5", (3, -5, 7, -9, 11), 4, ["0,0,0,1,-1", "0,0,1,0,1", "0,1,-1,0,0", "2,0,0,0,0"]),
    ("D5", (3, -5, 7, -9, 11), 4, ["0,0,1,0,-1", "0,0,1,0,1", "0,1,0,1,0", "1,-1,0,0,0"]),
    ("F4", (3, -5, 7, -9), 3, ["0,0,1,1", "1/2,-1/2,1/2,-1/2", "1,0,-1,0"]),
]


@pytest.mark.parametrize("name,coeffs,d,witness", FROZEN_WITNESSES)
def test_frozen_translation_witnesses(name, coeffs, d, witness):
    rs = root_system(name)
    rep = dimension_report(rs, translation_element(rs.from_lattice_coords(coeffs)))
    assert (rep.e, rep.d) == (0, d)
    assert rep.witness_roots == tuple(vec(Q(x) for x in r.split(",")) for r in witness)


def test_span_search_cap(monkeypatch):
    # (2, 4) in B2 needs two lines; one pass reduces all four lines first
    lines = _quotient_lines(B2, (), ())
    target = vec([2, 4])
    assert _min_span_subset(lines, target, 2)[0] == 2
    monkeypatch.setattr("coxlen.reflen.DEFAULT_SPAN_SEARCH_CAP", 0)
    with pytest.raises(BudgetExceeded, match=r"cap 0\b.*\b4 candidate.*size 2"):
        _min_span_subset(lines, target, 2)
    # a single line is a lookup, not a tested subset
    assert _min_span_subset(lines, vec([1, 1]), 2)[0] == 1


def sum_i_coroots(rs):
    return translation_element(rs.from_lattice_coords(range(1, rs.rank + 1)))


@pytest.mark.parametrize("name,expected", [("A7", 14), ("A8", 16)])
def test_reach_matches_window_formula(name, expected):
    # A8 under the default span search cap
    rs = root_system(name)
    t = sum_i_coroots(rs)
    length = dimension_report(rs, t).length
    assert length == reflection_length(window_of_element(t)) == expected


@st.composite
def classical_pairs(draw, names, bound):
    """(type name, root permutation, simple-coroot coordinates) of a
    random element of one of the types names: a word of at most 2 * rank
    simple reflections and coordinates in [-bound, bound]."""
    name = draw(st.sampled_from(names))
    rs = root_system(name)
    word = draw(st.lists(st.integers(0, rs.rank - 1), max_size=2 * rs.rank))
    perm, _ = rs.tables.fold((rs.tables.simple[i], 0) for i in word)
    coords = tuple(draw(st.lists(st.integers(-bound, bound), min_size=rs.rank, max_size=rs.rank)))
    return name, perm, coords


def type_a_pairs():
    return classical_pairs([f"A{n}" for n in range(1, 7)], 3)


def full_search_report(rs, perm, coords):
    """pair_report with the null-partition rule switched off: the span
    search from size 1, as for the types other than A."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coxlen.reflen, "_null_partition_d", lambda *args: None)
        return pair_report(rs, perm, coords)


@given(type_a_pairs())
@example(("A1", (0, 1), (1,)))  # one simple-root image gives both s(1) and s(2); d = 1
@example(("A3", tuple(range(12)), (0, 0, 0)))  # d = e = 0
@example(("A3", tuple(range(12)), (1, 2, 3)))  # e = 0, d = 3
@example(("A2", root_system("A2").tables.fold([(1, 0), (2, 0)])[0], (0, 0)))  # d = 0, e = 2
@settings(max_examples=300, deadline=None)
def test_null_partition_d_matches_the_full_search(case):
    name, perm, coords = case
    rs = root_system(name)
    assert pair_report(rs, perm, coords) == full_search_report(rs, perm, coords)


SIGNED_TYPES = [f"{f}{n}" for f in "BC" for n in range(2, 6)] + ["D3", "D4", "D5"]


@given(classical_pairs([f"A{n}" for n in range(2, 6)] + SIGNED_TYPES, 6))
@settings(max_examples=300, deadline=None)
def test_null_partition_d_is_the_reports_d(case):
    # the rule on the positive cycles of u, signed for B-D, with bare the
    # cycles of one coordinate when u has no negative cycle, against the
    # span search, which B-D still run from size 1
    name, perm, coords = case
    rs = root_system(name)
    weight, home, tops = _signed_cycles(rs.tables, perm)
    key = _cycle_key(rs.coroot_lattice.combination(coords), weight, home)
    sizes = Counter(m for v, m in zip(weight, home) if v)
    bare = sum(1 << i for i, m in enumerate(tops) if sizes[m] == 1) if all(weight) else 0
    d = _null_partition_d(rs.spec.family, [key[m] for m in tops], bare)
    assert d == pair_report(rs, perm, coords).d


@st.composite
def wide_windows(draw):
    n = draw(st.integers(8, 9))
    pi = draw(st.permutations(range(1, n + 1)))
    head = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
    return Window(tuple(p + n * x for p, x in zip(pi, head + [-sum(head)])))


@given(wide_windows())
@settings(max_examples=25, deadline=None)
def test_null_partition_d_at_ranks_7_and_8(win):
    rs = window_root_system(win.n)
    assert pair_report(rs, *_window_pair(rs, *win.normal_form())).length == reflection_length(win)


@pytest.mark.parametrize("shift", [-1, 1])
def test_a_wrong_null_partition_d_raises(monkeypatch, shift):
    # one too few: no witness at that size, and the search found d above it;
    # one too many at d = 1: the size-1 lookup finds the line anyway
    rule = coxlen.reflen._null_partition_d
    monkeypatch.setattr(coxlen.reflen, "_null_partition_d", lambda *args: rule(*args) + shift)
    A3 = root_system("A3")
    coords = (1, 2, 3) if shift < 0 else (1, 0, 0)
    with pytest.raises(AssertionError, match="null partitions give d"):
        pair_report(A3, tuple(range(12)), coords)


def test_null_partitions_skip_the_smaller_sizes(monkeypatch):
    # A8 at sum i alpha_i^vee: d = 8 is searched at size 8 only
    sizes, search = [], coxlen.reflen._min_span_subset
    monkeypatch.setattr(
        coxlen.reflen, "_min_span_subset", lambda *args, **kw: sizes.append(kw["least"]) or search(*args, **kw)
    )
    A8 = root_system("A8")
    rep = pair_report(A8, tuple(range(len(A8.roots))), tuple(range(1, 9)))
    assert (sizes, rep.d, rep.length) == ([8], 8, 16)


@pytest.mark.parametrize("name,length", [("B7", 8), ("D6", 8)])
def test_reach_b7_d6(name, length):
    rs = root_system(name)
    assert dimension_report(rs, sum_i_coroots(rs)).length == length


@st.composite
def typed_factorisations(draw):
    """A random sequence of affine reflections in one of SPAN_TYPES."""
    rs = root_system(draw(st.sampled_from(SPAN_TYPES)))
    k = len(rs.positive_roots)
    n = draw(st.integers(min_value=2, max_value=6))
    factors = tuple(refl(rs, draw(st.integers(0, k - 1)), draw(st.integers(-3, 3))) for _ in range(n))
    return rs, ReflectionFactorization(factors)


@given(typed_factorisations())
@settings(max_examples=150, deadline=None)
def test_index_hurwitz_moves_match_hurwitz_move(typed):
    rs, f = typed
    pairs = tuple((rs.root_index[r.root], r.level) for r in f.factors)
    moves = list(_index_moves(rs.tables.conjugate, pairs, tuple(a for a, _ in pairs)))
    assert [key for _, key in moves] == [tuple(a for a, _ in g) for g, _ in moves]
    got = [tuple(AffineReflection(rs.roots[a], j) for a, j in g) for g, _ in moves]
    expected = [
        hurwitz_move(f, i, direction).factors
        for i in range(len(f) - 1)
        for direction in ("right", "left")
    ]
    assert got == expected


def reference_dimension_report(rs, w):
    """dimension_report on Fraction row reduction, as it was computed
    before the move spaces became integer: the RREF of the columns of
    linear - I, reduce_against for every span test and line_rep keys.
    Returns the report and the projected root lines."""
    n = w.dim
    cols = [tuple(w.linear[i][j] - (i == j) for i in range(n)) for j in range(n)]
    ubasis, upivots = rref(cols)
    e = len(ubasis)
    lines = {}
    for alpha in rs.positive_roots:
        res = reduce_against(ubasis, upivots, alpha)
        if not is_zero(res):
            lines.setdefault(line_rep(res), alpha)
    res = reduce_against(ubasis, upivots, w.translation)
    d, lifts = (0, ()) if is_zero(res) else _min_span_subset(lines, res, rs.rank - e)
    report = DimensionReport(
        e=e, d=d, dim=d + e, length=2 * d + e,
        elliptic_roots=reference_root_basis(rs, ubasis, upivots), lift_roots=lifts,
    )
    return report, lines


def reference_root_basis(rs, ubasis, upivots):
    """The first roots, in root order, that lie in the span of the RREF
    basis ubasis and are independent of the roots chosen before them."""
    chosen = []
    for alpha in rs.roots:
        if len(chosen) == len(ubasis):
            break
        if is_zero(reduce_against(ubasis, upivots, alpha)) and not in_span(chosen, alpha):
            chosen.append(alpha)
    return tuple(chosen)


@st.composite
def reported_elements(draw):
    """A random W0 element of SPAN_TYPES times a translation with
    coefficients in (1/q) Z on the simple coroots, q in {1, 2, 3}: lattice
    points, F4 half-integer and G2 one-third translations among them."""
    rs = root_system(draw(st.sampled_from(SPAN_TYPES)))
    word = draw(st.lists(st.integers(0, rs.rank - 1), max_size=2 * rs.rank))
    w = element_of(rs, [AffineReflection.make(rs.simple_roots[i], 0) for i in word])
    q = draw(st.sampled_from([1, 2, 3]))
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=rs.rank, max_size=rs.rank))
    return rs, AffineElement(w.linear, rs.from_lattice_coords([Q(c, q) for c in coeffs]))


def check_against_reference(rs, w):
    expected, lines = reference_dimension_report(rs, w)
    assert dimension_report(rs, w) == expected
    ubasis = linear_move_space(w.linear)
    assert _quotient_lines(rs, ubasis, rref(ubasis)[1]) == lines


@given(reported_elements())
@settings(max_examples=150, deadline=None)
def test_dimension_report_matches_fraction_reference(typed):
    check_against_reference(*typed)


@pytest.mark.parametrize("name", ["A4", "B4", "F4"])
def test_root_basis_of_every_move_space(name):
    # some move spaces of these types (30 of the 268 of F4) contain a
    # root dependent on the roots before it, which must be skipped; each
    # move space is reached through the first element of W0 that has it
    rs = root_system(name)
    spaces = {}
    for perm in enumerate_w0(rs).elements:
        spaces.setdefault(move_space(rs.tables, perm), perm)
    assert len(spaces) == len(_genfun_tables(rs)[1])
    for ubasis, perm in spaces.items():
        basis, pivots = rref(ubasis)
        mask = _move_mask(rs.tables, _fixed_sums(rs.tables, perm))
        assert _root_basis_of_span(rs, len(ubasis), mask) == reference_root_basis(rs, basis, pivots)


@pytest.mark.parametrize("name,word,lam", [
    ("F4", (), (Q(1, 2),) * 4),
    ("F4", (0, 2), (Q(1, 2), Q(-3, 2), Q(5, 2), Q(1, 2))),
    ("F4", (3,), (Q(1, 2), Q(1, 2), 0, 0)),
    ("G2", (), (Q(2, 3), Q(-1, 3), Q(-1, 3))),
    ("G2", (0,), (Q(1, 3), Q(1, 3), Q(-2, 3))),
    ("G2", (1,), (Q(4, 3), Q(-5, 3), Q(1, 3))),
])
def test_dimension_report_fractional_translations(name, word, lam):
    rs = root_system(name)
    w = element_of(rs, [AffineReflection.make(rs.simple_roots[i], 0) for i in word])
    check_against_reference(rs, AffineElement(w.linear, vec(lam)))


@pytest.mark.parametrize("name,word,lam", [
    ("A2", (), (2, 0, 0)),
    ("A2", (0, 1), (2, 0, 0)),
    ("A3", (), (1, 1, 1, 1)),
    ("A3", (0, 2), (1, 1, 1, 1)),
    ("G2", (), (1, 1, 1)),
    ("G2", (1,), (Q(1, 3), 0, 0)),
])
def test_dimension_report_refuses_translations_off_the_root_span(monkeypatch, name, word, lam):
    # a ValueError naming the translation, before any search
    def boom(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(coxlen.reflen, "_report", boom)
    rs = root_system(name)
    w = element_of(rs, [AffineReflection.make(rs.simple_roots[i], 0) for i in word])
    with pytest.raises(ValueError) as caught:
        dimension_report(rs, AffineElement(w.linear, vec(lam)))
    text = ", ".join(map(str, lam))
    assert str(caught.value) == f"translation part ({text}) is not in the root span of {name}"


def reference_peel_elliptic(rs, v):
    """factor_elliptic's factors as they were computed on Fraction
    matrices: through the canonical fixed point of fixed_set, peel the
    first positive root of the move space with an integer level whose
    reflection, multiplied on the left, lowers e by one, and restart the
    scan from the top after every peel."""
    x = fixed_set(rs, v).base
    factors, current = [], v
    mov = linear_move_space(current.linear)
    while mov:
        for alpha in rs.positive_roots:
            level = dot(x, alpha)
            if level.denominator != 1 or not in_span(mov, alpha):
                continue
            r = AffineReflection.make(alpha, level)
            peeled = compose(r.to_element(), current)
            if len(linear_move_space(peeled.linear)) == len(mov) - 1:
                break
        else:
            raise AssertionError("no peelable reflection")
        factors.append(r)
        current = peeled
        mov = linear_move_space(current.linear)
    assert current.is_identity()
    return tuple(factors)


PEEL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"]


@st.composite
def reflection_products(draw):
    """A product of at most rank + 2 affine reflections, levels in [-3, 3]."""
    rs = root_system(draw(st.sampled_from(PEEL_TYPES)))
    k = len(rs.positive_roots)
    n = draw(st.integers(0, rs.rank + 2))
    return rs, element_of(rs, [refl(rs, draw(st.integers(0, k - 1)), draw(st.integers(-3, 3))) for _ in range(n)])


@given(reflection_products())
@settings(max_examples=150, deadline=None)
def test_one_pass_peel_matches_restart_scan(typed):
    rs, w = typed
    lifts = tuple(AffineReflection.make(alpha, 0) for alpha in dimension_report(rs, w).lift_roots)
    v = product((w,) + lifts)
    assert min_factorization(rs, w).factors == reference_peel_elliptic(rs, v) + lifts[::-1]
    if is_elliptic(w):
        assert factor_elliptic(rs, w).factors == reference_peel_elliptic(rs, w)


@given(reflection_products())
@settings(max_examples=150, deadline=None)
def test_fixed_point_levels_match_fraction_solve(typed):
    # the elliptic part the peel sees: F4 fixed points have halves, G2 ones
    # thirds and sixths
    rs, w = typed
    lifts = tuple(AffineReflection.make(alpha, 0) for alpha in dimension_report(rs, w).lift_roots)
    v = product((w,) + lifts)
    m = [[y - (i == j) for j, y in enumerate(row)] for i, row in enumerate(v.linear)]
    x = solve_affine(m, [-y for y in v.translation])[0]
    perm = root_permutation(rs, v.linear)
    mu = rs.coroot_lattice.combination(rs.lattice_coords(v.translation))
    for a, alpha in enumerate(rs.roots):
        if solve_affine(m, alpha) is not None:
            assert Q(*_fixed_point_level(rs, perm, mu, a)) == dot(x, alpha)


@pytest.mark.parametrize("name,coords", [("A1", (1,)), ("B2", (0, 1)), ("G2", (2, -1)), ("F4", (0, 0, 1, 0))])
def test_peel_without_a_fixed_point_raises(name, coords):
    # a nonzero translation fixes no point
    rs = root_system(name)
    with pytest.raises(AssertionError, match="^element to peel has no fixed point$"):
        _peel_elliptic(rs, tuple(range(len(rs.roots))), coords)


@given(reflection_products())
@settings(max_examples=150, deadline=None)
def test_require_group_element_returns_permutation_and_coordinates(typed):
    rs, w = typed
    perm, coords = require_group_element(rs, w)
    assert (perm, coords) == (root_permutation(rs, w.linear), rs.lattice_coords(w.translation))
    assert perm == tuple(rs.root_index[mat_vec(w.linear, r)] for r in rs.roots)
    assert rs.from_lattice_coords(coords) == w.translation


@st.composite
def reflection_pairs(draw, types=PEEL_TYPES):
    """A root system of types and at most rank + 3 (positive root index,
    level) pairs, levels in [-3, 3]."""
    rs = root_system(draw(st.sampled_from(types)))
    positive = [a for a, pos in enumerate(rs.tables.positive) if pos]
    n = draw(st.integers(0, rs.rank + 3))
    return rs, [(draw(st.sampled_from(positive)), draw(st.integers(-3, 3))) for _ in range(n)]


@given(reflection_pairs(), st.data())
@settings(max_examples=200, deadline=None)
def test_integer_fold_matches_fraction_product(typed, data):
    # G2 translations have thirds, F4 linear parts halves
    rs, pairs = typed
    w = element_of(rs, [AffineReflection(rs.roots[a], k) for a, k in pairs])
    expected = (root_permutation(rs, w.linear), rs.lattice_coords(w.translation))
    assert rs.tables.fold(pairs) == expected
    cut = data.draw(st.integers(0, len(pairs)))
    assert rs.tables.fold(pairs[cut:], rs.tables.fold(pairs[:cut])) == expected


@given(reflection_pairs(PEEL_TYPES + ["A5", "B5", "C5", "D5"]))
@settings(max_examples=200, deadline=None)
def test_orbit_sum_peel_matches_move_space_peel(typed):
    # the elliptic element min_factorization peels: w times its lifts
    rs, pairs = typed
    perm, coords = rs.tables.fold(pairs)
    lifts = [(rs.root_index[alpha], 0) for alpha in pair_report(rs, perm, coords).lift_roots]
    peeled, _ = rs.tables.fold(lifts, (perm, coords))
    assert _peel_elliptic(rs, peeled, coords) == reference_move_space_peel(rs, peeled, coords)


def split_or_message(split, rs, perm, coords, budget):
    try:
        coords_t, coords_u, _, _, elliptic = split(rs, perm, coords, budget)
    except BudgetExceeded as ex:
        return str(ex)
    return coords_t, coords_u, elliptic.factors


@given(reflection_pairs(), st.sampled_from([0, 1, 2, 3, 5, 8, 13, 30, 100, 10**6]))
@settings(max_examples=300, deadline=None)
def test_split_tested_as_generated_matches_layer_search(typed, budget):
    # the same split, or the same budget message with the same count
    rs, pairs = typed
    perm, coords = rs.tables.fold(pairs)
    expected = split_or_message(reference_pair_split, rs, perm, coords, budget)
    assert split_or_message(pair_split, rs, perm, coords, budget) == expected


@pytest.mark.parametrize("name,coords,word", [
    ("A3", (1, 2, 3), ()),
    ("B3", (1, 2, 3), ()),
    ("D4", (2, 1, 2, -2), (2, 1)),
    ("D4", (0, 1, 1, -2), (2, 4, 2, 1, 4, 4)),
    ("F4", (-2, -1, -1, -2), (2, 3, 1, 2, 3, 3)),
])
def test_split_least_budget_matches_layer_search(name, coords, word):
    # d >= 2, so the budget counts the states of several rounds: the least
    # budget the layer search gets through with, and the message one
    # below it, must be the same, found states included in the count
    rs = root_system(name)
    perm, _ = rs.tables.fold((rs.tables.simple[i - 1], 0) for i in word)
    assert pair_report(rs, perm, coords).d >= 2
    least = next(
        b for b in count() if not isinstance(split_or_message(reference_pair_split, rs, perm, coords, b), str)
    )
    for budget in (least - 1, least):
        expected = split_or_message(reference_pair_split, rs, perm, coords, budget)
        assert split_or_message(pair_split, rs, perm, coords, budget) == expected


# mutations of a list of (root index, level) pairs
def drop_last(rs, pairs):
    return pairs[:-1]


def shift_level(rs, pairs):
    (a, k), *rest = pairs
    return [(a, k + 1)] + rest


def next_root(rs, pairs):
    (a, k), *rest = pairs
    positive = [b for b, pos in enumerate(rs.tables.positive) if pos]
    return [(positive[(positive.index(a) + 1) % len(positive)], k)] + rest


def append_rotation(rs, pairs):
    # two level-zero reflections: the root permutation changes, the coordinates do not
    a, b = [b for b, pos in enumerate(rs.tables.positive) if pos][:2]
    return list(pairs) + [(a, 0), (b, 0)]


# elements with a nonempty peel; the last two have d > 0
MUTATION_ELEMENTS = [
    ("B2", lambda: refl(B2, 1, 0).to_element()),
    ("B2", rot90),
    ("A2", lambda: refl(A2, 0, 1).to_element()),
    ("B2", lambda: compose(refl(B2, 0, 0).to_element(), translation_element(vec([2, 0])))),
    ("B2", lambda: translation_element(vec([2, 4]))),
]


@pytest.mark.parametrize("mutate", [drop_last, shift_level, next_root])
@pytest.mark.parametrize("name,make", MUTATION_ELEMENTS)
def test_a_wrong_peel_fails_verification(monkeypatch, name, make, mutate):
    rs, w = root_system(name), make()
    peel = coxlen.reflen._peel_elliptic
    monkeypatch.setattr(coxlen.reflen, "_peel_elliptic", lambda rs, x, perm: mutate(rs, peel(rs, x, perm)))
    with pytest.raises(AssertionError, match="failed verification"):
        min_factorization(rs, w)
    with pytest.raises(AssertionError, match="failed verification"):
        translation_elliptic_split(rs, w)


@pytest.mark.parametrize("mutate", [shift_level, next_root, append_rotation])
@pytest.mark.parametrize("part", ["translation", "elliptic"])
def test_a_wrong_split_fails_verification(monkeypatch, mutate, part):
    # the glide splits into one stripped pair and a one-factor suffix
    split_off = coxlen.reflen._split_off

    def wrong(rs, rep, perm, coords, pairs, suffix):
        if part == "translation":
            pairs = mutate(rs, pairs)
        else:
            suffix = mutate(rs, suffix)
        return split_off(rs, rep, perm, coords, pairs, suffix)

    glide = compose(refl(B2, 0, 0).to_element(), translation_element(vec([2, 0])))
    monkeypatch.setattr(coxlen.reflen, "_split_off", wrong)
    with pytest.raises(AssertionError, match="split failed verification"):
        translation_elliptic_split(B2, glide)


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "F4"])
def test_permutation_move_space_is_linear_move_space(name):
    rs = root_system(name)
    group = enumerate_w0(rs)
    for linear, perm in zip(w0_matrices(rs), group.elements, strict=True):
        assert root_permutation(rs, linear) == perm
        assert move_space(rs.tables, perm) == linear_move_space(linear)


def check_orbit_sum_membership(rs, perm):
    """A root pairs to zero with every orbit sum of the simple roots
    exactly when it lies in the move space."""
    fixed = _fixed_sums(rs.tables, perm)
    basis = move_space(rs.tables, perm)
    pivots = rref_pivots(basis)
    for a in rs.tables.int_roots:
        paired = not any(sum(x * y for x, y in zip(a, f)) for f in fixed)
        assert paired == (int_residual(basis, pivots, a) is None)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_orbit_sums_decide_move_space_membership_on_all_of_w0(name):
    rs = root_system(name)
    for perm in enumerate_w0(rs).elements:
        check_orbit_sum_membership(rs, perm)


@given(st.sampled_from(["B5", "B6", "B7", "B8"]), st.data())
@settings(max_examples=60, deadline=None)
def test_orbit_sums_decide_move_space_membership_at_higher_rank(name, data):
    rs = root_system(name)
    word = data.draw(st.lists(st.integers(0, rs.rank - 1), max_size=3 * rs.rank))
    check_orbit_sum_membership(rs, rs.tables.fold((rs.tables.simple[i], 0) for i in word)[0])


@pytest.mark.parametrize("name", ["A1", "A8", "B2", "B8", "C8", "D4", "D8", "G2", "F4"])
def test_root_lines_are_the_quotient_lines_of_a_translation(name):
    rs = root_system(name)
    assert rs.root_lines == _quotient_lines(rs, (), ())


def test_signed_nullity_is_not_a_chain_of_zero_prefixes():
    # The subset DP dp[m] = max over i in m of dp[m - i] + [m is a zero
    # block] counts a chain of nested zero blocks.  For type A the steps of
    # such a chain sum to zero, so it is a null partition; for signed sums
    # they need not be: (1, 1, 2) has the zero blocks {1, 2} (1 - 1) and
    # {1, 2, 3} (1 + 1 - 2), but {3} alone is not one, so nu = 1, not 2.
    sums = (1, 1, 2)

    def is_zero_block(m):
        members = [sums[i] for i in range(len(sums)) if m >> i & 1]
        return any(
            sum(s if sign >> j & 1 else -s for j, s in enumerate(members)) == 0
            for sign in range(1 << len(members))
        )

    dp = [0] * (1 << len(sums))
    for m in range(1, len(dp)):
        dp[m] = max(dp[m & ~(1 << i)] for i in range(len(sums)) if m >> i & 1) + is_zero_block(m)
    assert dp[-1] == 2
    assert zero_block_count(sums, True) == 1


@given(
    st.one_of(
        st.lists(st.integers(-4, 4), max_size=8),
        st.lists(st.integers(-4, 4), max_size=7).map(lambda xs: xs + [-sum(xs)]),
    ),
    st.booleans(),
    st.integers(0, 255),
)
@settings(max_examples=400, deadline=None)
def test_zero_block_count_matches_the_mask_dp(sums, signed, bare):
    # the DP over count vectors against the DP over position masks it
    # replaced: both signs, zero entries and random bare masks; unsigned
    # sums that do not add to 0, where the mask DP gives -1, raise
    sums = tuple(sums)
    bare &= (1 << len(sums)) - 1
    expected = mask_zero_block_count(sums, signed, bare)
    if expected < 0:
        with pytest.raises(ValueError, match="^nullity needs a zero-sum vector$"):
            zero_block_count(sums, signed, bare)
    else:
        assert zero_block_count(sums, signed, bare) == expected


@given(
    st.lists(st.integers(-4, 4), max_size=8),
    st.booleans(),
    st.integers(0, 255),
    st.sampled_from([10**12, -3 * 10**12]),
)
@settings(max_examples=150, deadline=None)
def test_zero_block_count_of_scaled_sums(sums, signed, bare, scale):
    # the bitsets are as wide as the sums over their gcd, so sums scaled
    # by 10^12 answer at once, with the zero blocks of the unscaled ones:
    # unsigned, signed, and signed with a bare mask
    sums = tuple(sums) if signed else tuple(sums) + (-sum(sums),)
    bare &= (1 << len(sums)) - 1
    expected = mask_zero_block_count(sums, signed, bare)
    assert zero_block_count([scale * v for v in sums], signed, bare) == expected


ROOT_BASIS_TYPES = [f"A{n}" for n in range(2, 9)] + [f"B{n}" for n in range(3, 9)] + ["C4"] + [
    f"D{n}" for n in range(4, 9)
] + ["G2", "F4"]


@pytest.mark.parametrize("name", ROOT_BASIS_TYPES)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_root_basis_picks_the_roots_of_the_primitive_rref_reference(name, data):
    # the move space of a random W0 element, folded from a word in the
    # simple reflections
    rs = root_system(name)
    word = data.draw(st.lists(st.integers(0, rs.rank - 1), max_size=3 * rs.rank))
    perm, _ = rs.tables.fold((rs.tables.simple[i], 0) for i in word)
    basis = move_space(rs.tables, perm)
    pivots = rref_pivots(basis)
    expected = reference_root_basis_of_span(rs, basis, pivots)
    assert _root_basis_of_span(rs, len(basis), _move_mask(rs.tables, _fixed_sums(rs.tables, perm))) == expected


def _outside_w0():
    """(root system, linear part) pairs that permute the roots but lie
    outside W0.  RootTables.linear reads only the images of the simple
    roots, so it builds a diagram automorphism from how it permutes them."""

    def automorphism(name, images):
        rs = root_system(name)
        perm = list(range(len(rs.roots)))
        for a, b in zip(rs.tables.simple, images(rs.tables.simple)):
            perm[a] = b
        return rs, rs.tables.linear(tuple(perm))

    j = Q(2, 3)
    return [
        # 2J/3 - I: -1 on the zero-sum plane, the longest element times the flip
        (A2, tuple(tuple(j - (i == k) for k in range(3)) for i in range(3))),
        # I - 2J/3 fixes every root but reflects the all-ones line
        (A2, tuple(tuple((i == k) - j for k in range(3)) for i in range(3))),
        # the flip of the A3 diagram, a_1 <-> a_3
        automorphism("A3", lambda s: s[::-1]),
        # D4 triality: a_1 -> a_3 -> a_4 -> a_1, a_2 fixed
        automorphism("D4", lambda s: (s[2], s[1], s[3], s[0])),
    ]


@pytest.mark.parametrize("rs,linear", _outside_w0())
def test_linear_parts_outside_w0_are_rejected_by_every_public_call(rs, linear):
    root_permutation(rs, linear)  # each of them permutes the roots
    w = AffineElement(linear, vec([0] * rs.ambient_dim))
    for call in (dimension_report, min_factorization, factor_elliptic, translation_elliptic_split):
        with pytest.raises(ValueError, match="^linear part is not an element of W0$"):
            call(rs, w)
    # and so does the full root scan the conversion replaced
    with pytest.raises(ValueError, match="^linear part is not an element of W0$"):
        w0_permutation(rs, linear)


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "F4"])
def test_every_element_of_w0_is_accepted(name):
    rs = root_system(name)
    zero = vec([0] * rs.ambient_dim)
    for perm in enumerate_w0(rs).elements:
        w = AffineElement(rs.tables.linear(perm), zero)
        assert require_group_element(rs, w) == (perm, (0,) * rs.rank)
        assert dimension_report(rs, w).d == 0


def test_public_calls_read_one_report_off_the_root_permutation(monkeypatch):
    # each call reads the root permutation once and builds one report off
    # it; the matrix move space is never computed
    def boom(*args):
        raise AssertionError("move space computed from the matrix")

    for name in ("linear_move_space", "is_elliptic"):
        monkeypatch.setattr(coxlen.affgroup, name, boom)
        monkeypatch.setattr(coxlen.reflen, name, boom, raising=False)
    calls = []
    # dimension_report reads the conversion through reflen's name for it,
    # require_group_element through affgroup's
    for module, name in ((coxlen.affgroup, "_w0_permutation"), (coxlen.reflen, "_w0_permutation"), (coxlen.reflen, "pair_report")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, f=original, n=name: calls.append(n) or f(*args))
    b3 = root_system("B3")
    w = product([refl(b3, 0, 1), refl(b3, 4, -2), refl(b3, 7, 1)])
    elliptic = product([refl(b3, 0, 1), refl(b3, 2, 0)])
    for call, element in [
        (min_factorization, w),
        (translation_elliptic_split, w),
        (factor_elliptic, elliptic),
    ]:
        calls.clear()
        call(b3, element)
        assert calls == ["_w0_permutation", "pair_report"], call.__name__
    calls.clear()
    assert dimension_report(b3, w).length == 3
    assert calls == ["_w0_permutation"]


# G2 and F4 read d and the witness off the table of root subspaces; the
# span search they used before must agree on every element of W0, each
# with seeded translations in [-9, 9]^rank.
@pytest.mark.parametrize("name,per_element", [("G2", 40), ("F4", 4)])
def test_table_report_matches_the_span_search_on_every_w0_element(name, per_element):
    rs = root_system(name)
    rng = random.Random(name)
    for perm in enumerate_w0(rs).elements:
        for _ in range(per_element):
            coords = tuple(rng.randint(-9, 9) for _ in range(rs.rank))
            assert pair_report(rs, perm, coords) == span_search_report(rs, perm, coords), (perm, coords)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_table_report_matches_the_span_search(data):
    rs = root_system(data.draw(st.sampled_from(["G2", "F4"])))
    elements = enumerate_w0(rs).elements
    perm = elements[data.draw(st.integers(0, len(elements) - 1))]
    coords = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=rs.rank, max_size=rs.rank)))
    assert pair_report(rs, perm, coords) == span_search_report(rs, perm, coords)


def test_dimension_report_is_its_six_fields():
    # a report is a plain value: nothing it was read from rides along
    names = tuple(f.name for f in dataclasses.fields(DimensionReport))
    assert names == ("e", "d", "dim", "length", "elliptic_roots", "lift_roots")


@st.composite
def lattice_pairs(draw):
    """(root system of SPAN_TYPES, root permutation folded from a word in
    the simple reflections, simple-coroot coordinates in [-6, 6])."""
    rs = root_system(draw(st.sampled_from(SPAN_TYPES)))
    word = draw(st.lists(st.integers(0, rs.rank - 1), max_size=2 * rs.rank))
    perm, _ = rs.tables.fold([(rs.tables.simple[i], 0) for i in word])
    return rs, perm, tuple(draw(st.lists(st.integers(-6, 6), min_size=rs.rank, max_size=rs.rank)))


@given(lattice_pairs())
@settings(max_examples=150, deadline=None)
def test_split_reports_equal_fresh_reports_of_t_and_u(typed):
    # u's report is w's with d = 0, and t's is made on the identity: each
    # equals the report of its part made from scratch
    rs, perm, coords = typed
    coords_t, coords_u, rep_t, rep_u, _ = pair_split(rs, perm, coords)
    assert rep_u == pair_report(rs, perm, coords_u)
    assert rep_t == pair_report(rs, tuple(range(len(perm))), coords_t)


def forbid_elimination(monkeypatch, boom):
    """Make every binding of linalg.primitive_rref in the coxlen modules
    call boom (modules bind it by name, with from .linalg import)."""
    original = coxlen.linalg.primitive_rref
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "coxlen" and getattr(module, "primitive_rref", None) is original:
            monkeypatch.setattr(module, "primitive_rref", boom)


@pytest.mark.parametrize("text", [
    "lambda=(-3,-22,-11,90)",
    "lambda=(-11,51,-60,64)",
    "lambda=(2,-1,0,-9); word=s3 s2 s4 s3",
    "lambda=(2,-2,0,2); word=s1 s1 s4",
])
def test_f4_reports_and_splits_run_no_span_search(monkeypatch, text):
    from coxlen.cli import parse_element

    rs = root_system("F4")
    perm, coords = require_group_element(rs, parse_element(rs, text))
    expected = span_search_report(rs, perm, coords)

    def boom(*args, **kwargs):
        raise AssertionError("G2 and F4 read d off the table of root subspaces")

    monkeypatch.setattr(coxlen.reflen, "_min_span_subset", boom)
    forbid_elimination(monkeypatch, boom)
    assert pair_report(rs, perm, coords) == expected
    split = pair_split(rs, perm, coords)
    assert split[2].length == 2 * expected.d and split[3].length == expected.e


@pytest.mark.parametrize("word,coords,least", [
    ((), (-4, -4, -8, -4), 4),
    ((3,), (0, -4, -3, 6), 3),
    ((0, 1, 2, 3, 1, 2, 0, 1, 2, 3, 0, 1, 2, 1, 0), (5, 7, 7, 4), 2),
])
def test_witness_over_several_least_root_subspaces(word, coords, least):
    # the least root subspaces above Mov(u) that hold lam are several here,
    # and the witness is the least of their greedy bases
    rs = root_system("F4")
    perm, _ = rs.tables.fold([(rs.tables.simple[i], 0) for i in word])
    rep = pair_report(rs, perm, coords)
    flat = _move_flat(rs.tables, _fixed_sums(rs.tables, perm))
    held = list(rs.tables.flats.holding(rs.coroot_lattice.combination(coords), flat))
    assert sum(f.dim == rep.dim for f in held) == least
    assert rep == span_search_report(rs, perm, coords)


def check_signed_cycles_against_elimination(rs, perm, coords):
    """The signed cycles of u give what the elimination of Mov(u) gives:
    e, the quotient lines (keys, first roots and insertion order), the
    roots of Mov(u), and the line of the image of lam (None when lam lies
    in Mov(u))."""
    basis = move_space(rs.tables, perm)
    pivots = rref_pivots(basis)
    weight, home, tops = _signed_cycles(rs.tables, perm)
    assert len(weight) - len(tops) == len(basis)
    lines, mask = _cycle_lines(rs, weight, home)
    assert list(lines.items()) == list(_quotient_lines(rs, basis, pivots).items())
    assert mask == sum(1 << a for a, r in enumerate(rs.tables.int_roots) if int_residual(basis, pivots, r) is None)
    mu = rs.coroot_lattice.combination(coords)
    key, res = _cycle_key(mu, weight, home), int_residual(basis, pivots, mu)
    assert (int_line_rep(key) if any(key) else None) == (None if res is None else int_line_rep(res))


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4"])
def test_signed_cycles_match_the_elimination_on_all_of_w0(name):
    rs = root_system(name)
    rng = random.Random(name)
    for perm in enumerate_w0(rs).elements:
        check_signed_cycles_against_elimination(rs, perm, tuple(rng.randint(-2, 2) for _ in range(rs.rank)))


@given(st.sampled_from([f"{f}{n}" for f in "ABCD" for n in range(5, 9)]), st.data())
@settings(max_examples=100, deadline=None)
def test_signed_cycles_match_the_elimination_at_ranks_5_to_8(name, data):
    rs = root_system(name)
    word = data.draw(st.lists(st.integers(0, rs.rank - 1), max_size=3 * rs.rank))
    coords = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=rs.rank, max_size=rs.rank)))
    check_signed_cycles_against_elimination(rs, rs.tables.fold((rs.tables.simple[i], 0) for i in word)[0], coords)


@pytest.mark.parametrize("name", ["A1", "A3", "B3", "C3", "D2", "D4", "B5"])
def test_classical_reports_factorisations_and_splits_eliminate_nothing(monkeypatch, name):
    # the identity, a translation and random elements, each checked
    # against the span search modulo the elimination before it is
    # switched off
    rs = root_system(name)
    rng = random.Random(name)
    identity = tuple(range(len(rs.roots)))
    cases = [(identity, (0,) * rs.rank), (identity, tuple(range(1, rs.rank + 1)))]
    for _ in range(12):
        word = [rng.randrange(rs.rank) for _ in range(rng.randrange(3 * rs.rank))]
        perm, _ = rs.tables.fold((rs.tables.simple[i], 0) for i in word)
        cases.append((perm, tuple(rng.randint(-3, 3) for _ in range(rs.rank))))
    expected = [span_search_report(rs, perm, coords) for perm, coords in cases]

    def boom(*args):
        raise AssertionError("A-D read Mov(u) off the signed cycles of u")

    forbid_elimination(monkeypatch, boom)
    for (perm, coords), rep in zip(cases, expected):
        assert pair_report(rs, perm, coords) == rep
        assert len(pair_factorization(rs, perm, coords)) == rep.length
        split = pair_split(rs, perm, coords)
        assert (split[2].length, split[3].length) == (2 * rep.d, rep.e)


def test_nullity_cap_refuses_the_dp_before_it_starts(monkeypatch):
    # unsigned (1, 2, -3, 4, -4): five distinct items give 2^5 count
    # vectors, each with bitsets of at most 6 returns of 2 * 14 + 1 bits
    sums = (1, 2, -3, 4, -4)
    monkeypatch.setattr("coxlen.reflen.DEFAULT_NULLITY_BITS_CAP", 32 * 6 * 29)
    assert zero_block_count(sums, False) == mask_zero_block_count(sums, False, 0) == 2
    monkeypatch.setattr("coxlen.reflen.DEFAULT_NULLITY_BITS_CAP", 32 * 6 * 29 - 1)
    with pytest.raises(BudgetExceeded, match=r"^nullity cap 5567 bits exceeded: 5 sums with sum \|sums\| = 14 need up to 5568 bits$"):
        zero_block_count(sums, False)


def test_wide_coprime_cycle_sums_are_refused_at_once():
    # the A8 translation by (1000003, -1000003, 2000011, -2000011, 3000017,
    # -3000017, 1, 2, -3): the gcd of its cycle sums is 1, and the default
    # cap refuses the DP in place of building bitsets of about 1.2e11 bits
    A8 = root_system("A8")
    coords = A8.lattice_coords(vec([1000003, -1000003, 2000011, -2000011, 3000017, -3000017, 1, 2, -3]))
    started = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"^nullity cap \d+ bits exceeded: 9 sums"):
        pair_report(A8, tuple(range(len(A8.roots))), coords)
    assert time.perf_counter() - started < 1
