"""Affine isometries: group algebra, reflections, move and fixed sets."""

from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlen.affgroup import (
    AffineElement,
    AffineReflection,
    AffineSubspace,
    _w0_permutation,
    compose,
    elliptic_rank,
    fixed_set,
    identity_element,
    inverse,
    is_elliptic,
    linear_move_space,
    product,
    require_group_element,
    times_reflection,
    translation_element,
)
from coxlen.genfun import enumerate_w0
from coxlen.linalg import (
    identity_matrix,
    is_zero,
    mat_vec,
    reduce_against,
    rref,
    rref_pivots,
    transpose,
    vec,
    vsub,
)
from coxlen.rootsys import root_system
from reference_affgroup import (
    conjugated_by,
    is_translation,
    move_set,
    rebased_normal_form,
    root_permutation,
    w0_permutation,
)
from w0_matrices import w0_matrices

B2 = root_system("B2")
G2 = root_system("G2")
A2 = root_system("A2")


def refl(rs, i, level):
    return AffineReflection.make(rs.positive_roots[i], level)


@st.composite
def b2_words(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    return [
        refl(B2, draw(st.integers(min_value=0, max_value=3)), draw(st.integers(-2, 2)))
        for _ in range(n)
    ]


def test_apply_and_compose_semantics():
    a = translation_element(vec([1, 2]))
    b = refl(B2, 0, 1).to_element()
    x = vec([Q(1, 3), Q(5)])
    assert compose(a, b).apply(x) == a.apply(b.apply(x))
    assert a.apply(x) == (Q(4, 3), Q(7))


def test_identity_and_inverse():
    e = identity_element(2)
    assert e.is_identity()
    w = compose(refl(B2, 0, 1).to_element(), refl(B2, 2, -1).to_element())
    assert compose(w, inverse(w)).is_identity()
    assert compose(inverse(w), w).is_identity()
    assert not w.is_identity()


def test_product_accepts_mixed_factors_and_rejects_empty():
    r = refl(B2, 1, 0)
    w = product([r, translation_element(vec([1, 1])), r])
    assert is_translation(w)
    with pytest.raises(ValueError):
        product([])


def test_reflection_make_normalisation():
    r = AffineReflection.make(vec([-1, -1]), 2)
    assert r.root == (1, 1)
    assert r.level == -2
    with pytest.raises(ValueError):
        AffineReflection.make(vec([0, 0]), 0)
    with pytest.raises(ValueError):
        AffineReflection.make(vec([1, 0]), Q(1, 2))


def test_reflection_element_is_involution():
    for rs in (B2, G2):
        for i in range(len(rs.positive_roots)):
            m = refl(rs, i, 1).to_element()
            assert compose(m, m).is_identity()


def test_reflection_fixes_its_hyperplane():
    r = refl(B2, 2, 3)  # <x, root> = 3
    m = r.to_element()
    from coxlen.linalg import dot

    x = vec([Q(3) / dot(r.root, r.root) * c for c in r.root])
    assert dot(x, r.root) == 3
    assert m.apply(x) == x


@given(b2_words(), st.integers(0, 3), st.integers(-2, 2))
@settings(max_examples=60, deadline=None)
def test_conjugation_paths_agree(word, i, j):
    r = refl(B2, i, j)
    for s in word:
        via_matrix = conjugated_by(r, s.to_element())
        via_pairing = r.conjugated_by_reflection(s)
        assert via_matrix == via_pairing
        r = via_pairing


@given(b2_words())
@settings(max_examples=60, deadline=None)
def test_conjugated_reflection_is_conjugate_element(word):
    r = refl(B2, 0, 1)
    g = product(word) if word else identity_element(2)
    lhs = conjugated_by(r, g).to_element()
    rhs = compose(compose(g, r.to_element()), inverse(g))
    assert lhs == rhs


def test_move_set_of_translation_is_a_point():
    t = translation_element(vec([2, 0]))
    mv = move_set(t)
    assert mv.dim == 0
    assert mv.contains_point(vec([2, 0]))
    assert not mv.contains_point(vec([0, 0]))


def test_move_set_of_reflection_is_a_line():
    r = refl(B2, 0, 1)  # root (0, 1)
    mv = move_set(r.to_element())
    assert mv.dim == 1
    assert mv.contains_point(vec([0, 2]))
    assert not mv.contains_point(vec([1, 0]))


def test_fixed_set_matches_hyperplane():
    r = refl(B2, 2, 1)
    fix = fixed_set(B2, r.to_element())
    assert fix.dim == 1
    from coxlen.linalg import dot

    assert dot(fix.base, r.root) == 1


def test_fixed_set_empty_for_proper_translation():
    t = translation_element(vec([1, 1]))
    fix = fixed_set(B2, t)
    assert fix.is_empty
    assert not fix.contains_point(vec([0, 0]))
    with pytest.raises(ValueError):
        AffineSubspace.empty(2).dim


def test_fixed_set_in_zero_sum_ambient_is_mean_centred():
    # type A acts on the zero-sum plane; fixed set is reported there
    r = AffineReflection.make(vec([1, -1, 0]), 1)
    fix = fixed_set(A2, r.to_element())
    assert fix.dim == 1
    assert sum(fix.base) == 0
    assert all(sum(d) == 0 for d in fix.directions)


def test_ellipticity_predicates():
    rot = compose(refl(B2, 0, 0).to_element(), refl(B2, 2, 0).to_element())
    assert is_elliptic(rot)
    assert not is_translation(rot)
    # root (0, 1) mirrors across the first axis; translating along that
    # axis gives a glide, which moves every point
    glide = compose(refl(B2, 0, 0).to_element(), translation_element(vec([2, 0])))
    assert not is_elliptic(glide)
    assert is_elliptic(identity_element(2))
    assert elliptic_rank(rot.linear) == 2
    assert elliptic_rank(identity_element(2).linear) == 0


def test_require_group_element():
    require_group_element(B2, translation_element(vec([1, 1])))
    with pytest.raises(ValueError):
        require_group_element(B2, translation_element(vec([1, 0])))
    with pytest.raises(ValueError):
        require_group_element(B2, translation_element(vec([1, 1, 0])))
    rot45 = AffineElement(
        ((Q(0), Q(-1)), (Q(1), Q(0))),
        (Q(0), Q(0)),
    )
    # the 90-degree rotation preserves B2 roots, so it passes; a shear
    # does not
    require_group_element(B2, rot45)
    shear = AffineElement(((Q(1), Q(1)), (Q(0), Q(1))), (Q(0), Q(0)))
    with pytest.raises(ValueError):
        require_group_element(B2, shear)


@given(b2_words(), st.integers(-2, 2), st.integers(-2, 2))
@settings(max_examples=60, deadline=None)
def test_rebased_normal_form_recomposes(word, y0, y1):
    w = product(word) if word else identity_element(2)
    origin = vec([y0, y1])
    mu, u = rebased_normal_form(w, origin)
    assert mu == vsub(w.apply(origin), origin)
    assert compose(translation_element(mu), u) == w
    # u = t_{-mu} w always fixes the chosen origin
    assert u.apply(origin) == tuple(origin)


@given(b2_words())
@settings(max_examples=60, deadline=None)
def test_words_stay_in_group(word):
    w = product(word) if word else identity_element(2)
    require_group_element(B2, w)
    root_set = set(B2.roots)
    assert all(mat_vec(w.linear, a) in root_set for a in B2.roots)


CROSS_TYPES = ["A3", "B3", "C3", "D4", "G2", "F4"]


def fraction_preserves_roots(rs, linear):
    """The Fraction form of the membership predicate: every root maps to
    a root under the linear part."""
    root_set = set(rs.roots)
    return all(mat_vec(linear, a) in root_set for a in rs.roots)


def accepts(check, rs, linear):
    """Whether check(rs, linear) returns without a ValueError."""
    try:
        check(rs, linear)
    except ValueError:
        return False
    return True


def in_group(rs, linear):
    """require_group_element on linear with a zero translation."""
    return require_group_element(rs, AffineElement(linear, vec([0] * rs.ambient_dim)))


def fraction_in_w0(rs, linear):
    """linear is the matrix of an element of W0: it preserves the roots,
    its root permutation is one that enumerate_w0 lists, and it is that
    element's matrix, which fixes the complement of the root span."""
    if not fraction_preserves_roots(rs, linear):
        return False
    perm = tuple(rs.root_index[mat_vec(linear, a)] for a in rs.roots)
    return perm in set(enumerate_w0(rs).elements) and rs.tables.linear(perm) == linear


@st.composite
def typed_words(draw):
    """A root system of CROSS_TYPES and a word of affine reflections in it."""
    rs = root_system(draw(st.sampled_from(CROSS_TYPES)))
    k = len(rs.positive_roots)
    n = draw(st.integers(min_value=0, max_value=2 * rs.rank))
    return rs, [refl(rs, draw(st.integers(0, k - 1)), draw(st.integers(-3, 3))) for _ in range(n)]


def compose_fold(rs, word):
    """Left-to-right product through full matrix products only."""
    out = identity_element(rs.ambient_dim)
    for r in word:
        out = compose(out, r.to_element())
    return out


@given(typed_words(), st.data())
@settings(max_examples=120, deadline=None)
def test_rank_one_products_match_compose(typed, data):
    rs, word = typed
    w = compose_fold(rs, word)
    r = refl(rs, data.draw(st.integers(0, len(rs.positive_roots) - 1)), data.draw(st.integers(-3, 3)))
    assert times_reflection(w, r) == compose(w, r.to_element())
    if word:
        assert product(word) == w


@st.composite
def changed_linear_parts(draw):
    """A root system of CROSS_TYPES and the linear part of a word in it,
    as it is or with one entry shifted, all entries doubled, two rows
    swapped or one row negated."""
    rs, word = draw(typed_words())
    m = [list(row) for row in compose_fold(rs, word).linear]
    n = rs.ambient_dim
    change = draw(st.sampled_from(["none", "entry", "scale", "swap", "negate"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if change == "entry":
        m[i][j] += draw(st.sampled_from([Q(1), Q(-1), Q(1, 2), Q(-1, 2), Q(1, 3), Q(2, 3)]))
    elif change == "scale":
        m = [[2 * x for x in row] for row in m]
    elif change == "swap":
        m[i], m[j] = m[j], m[i]
    elif change == "negate":
        m[i] = [-x for x in m[i]]
    return rs, tuple(tuple(row) for row in m)


@given(changed_linear_parts())
@settings(max_examples=150, deadline=None)
def test_integer_membership_matches_fraction_predicate(typed):
    rs, linear = typed
    assert accepts(root_permutation, rs, linear) == fraction_preserves_roots(rs, linear)
    assert accepts(in_group, rs, linear) == fraction_in_w0(rs, linear)


def outcome(check, rs, linear):
    """check(rs, linear), or ValueError if it raises one."""
    try:
        return check(rs, linear)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"])
def test_simple_root_conversion_matches_the_full_root_scan_on_w0(name):
    # every element of W0 at rank <= 4, its matrix a product of simple
    # reflections along its word
    rs = root_system(name)
    for linear, perm in zip(w0_matrices(rs), enumerate_w0(rs).elements, strict=True):
        assert _w0_permutation(rs, linear) == w0_permutation(rs, linear) == perm


@given(changed_linear_parts())
@settings(max_examples=300, deadline=None)
def test_simple_root_conversion_matches_the_full_root_scan_off_w0(typed):
    # the same permutation, or a ValueError from both
    rs, linear = typed
    assert outcome(_w0_permutation, rs, linear) == outcome(w0_permutation, rs, linear)


def test_integer_membership_on_fractional_linear_parts():
    f4, g2 = root_system("F4"), root_system("G2")
    short = AffineReflection.make(vec([Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2)]), 0).to_element().linear
    assert any(x.denominator == 2 for row in short for x in row)
    long_g2 = AffineReflection.make(vec([-2, 1, 1]), 0).to_element().linear
    assert any(x.denominator == 3 for row in long_g2 for x in row)
    rot90 = ((Q(0), Q(-1)), (Q(1), Q(0)))
    shear = ((Q(1), Q(1)), (Q(0), Q(1)))
    half_shear = ((Q(1), Q(1, 2)), (Q(0), Q(1)))
    # rounding the images of this one down would land on roots every time
    rounds_onto_roots = ((Q(-2, 3), Q(-1, 3)), (Q(2, 3), Q(1, 3)))
    for rs, linear, expected in [
        (f4, short, True),
        (g2, long_g2, True),
        (B2, rot90, True),
        (B2, shear, False),
        (B2, half_shear, False),
        (B2, rounds_onto_roots, False),
        (f4, tuple(tuple(2 * x for x in row) for row in short), False),
        (g2, tuple(tuple(x / 2 for x in row) for row in long_g2), False),
    ]:
        assert fraction_preserves_roots(rs, linear) is expected
        assert accepts(root_permutation, rs, linear) is expected
        assert accepts(in_group, rs, linear) is expected


def reference_linear_move_space(linear):
    """Im(linear - I) as the Fraction RREF of the columns of linear - I,
    the way linear_move_space computed it before it became integer."""
    n = len(linear)
    ident = identity_matrix(n)
    cols = transpose(tuple(tuple(linear[i][j] - ident[i][j] for j in range(n)) for i in range(n)))
    rows, _ = rref(cols)
    return rows


def _non_weyl_linear_parts():
    short = AffineReflection.make(vec([Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2)]), 0).to_element().linear
    long_g2 = AffineReflection.make(vec([-2, 1, 1]), 0).to_element().linear
    return [
        ((Q(0), Q(-1)), (Q(1), Q(0))),  # the B2 rotation by 90 degrees
        ((Q(1), Q(1)), (Q(0), Q(1))),
        ((Q(1), Q(1, 2)), (Q(0), Q(1))),
        ((Q(1), Q(0)), (Q(-2, 3), Q(1))),
        ((Q(-2, 3), Q(-1, 3)), (Q(2, 3), Q(1, 3))),
        tuple(tuple(2 * x for x in row) for row in short),
        tuple(tuple(x / 2 for x in row) for row in long_g2),
        identity_matrix(3),
        ((Q(0),) * 3,) * 3,
    ]


NON_WEYL_LINEAR_PARTS = _non_weyl_linear_parts()


@st.composite
def linear_parts(draw):
    """A linear part: a random W0 element of CROSS_TYPES, a fixed
    rational non-Weyl matrix, or a random matrix with entries in
    {-2, ..., 2} / {1, 2, 3}."""
    kind = draw(st.sampled_from(["weyl", "fixed", "random"]))
    if kind == "weyl":
        rs, word = draw(typed_words())
        return compose_fold(rs, word).linear
    if kind == "fixed":
        return draw(st.sampled_from(NON_WEYL_LINEAR_PARTS))
    n = draw(st.integers(1, 4))
    entry = st.builds(Q, st.integers(-2, 2), st.sampled_from([1, 2, 3]))
    return tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))


@given(linear_parts(), st.data())
@settings(max_examples=200, deadline=None)
def test_linear_move_space_is_the_scaled_fraction_rref(linear, data):
    basis = reference_linear_move_space(linear)
    pivots = rref_pivots(basis)
    ints = linear_move_space(linear)
    assert rref(ints) == (basis, pivots)
    assert rref_pivots(ints) == pivots
    for row, ref, p in zip(ints, basis, pivots, strict=True):
        assert all(type(x) is int for x in row)
        assert gcd(*row) == 1 and row[p] > 0
        assert all(x == row[p] * y for x, y in zip(row, ref))
    # the integer span test of is_elliptic agrees with the Fraction one
    n = len(linear)
    entry = st.builds(Q, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    t = data.draw(st.one_of(
        st.tuples(*[entry] * n),
        st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)).map(
            lambda cs: tuple(sum((c * row[j] for c, row in zip(cs, basis)), Q(0)) for j in range(n))
        ),
    ))
    expected = is_zero(reduce_against(basis, pivots, t))
    assert is_elliptic(AffineElement(linear, t)) is expected
