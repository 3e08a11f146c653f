"""Local generating functions and length distributions over W0.

The closed forms used as expectations are classical: the distribution
of reflection length over a finite real reflection group is the product
of (1 + e_i t) over its exponents, and the rank-two local polynomials
below factor as (s + t)(1 + m t) on subregular points and
(s + t)(s + m t) on generic points, with m the largest exponent.
"""

import random
import time
from collections import Counter
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlen.affgroup import AffineElement, AffineReflection
from coxlen import genfun
from coxlen.errors import BudgetExceeded
from coxlen.genfun import (
    BivariatePolynomial,
    _dominant_key,
    _genfun_tables,
    _height_exponents,
    _local_counts,
    _partition_counts,
    _table_counts,
    classify_coroots,
    enumerate_w0,
    exponent_product,
    is_generic,
    local_genfun,
    poly1_format,
    poly1_mul,
    poly_one_plus,
    spherical_genfun,
)
from coxlen.linalg import identity_matrix, mat_mul, vec
from coxlen.reflen import dimension_report
from coxlen.rootsys import root_system
from reference_affgroup import root_permutation
from reference_genfun import (
    poly_s_plus,
    reference_classify_coroots,
    reference_genfun_tables,
    span_search_counts,
    span_search_is_generic,
)
from w0_matrices import w0_matrices, word_matrix

A2 = root_system("A2")
B2 = root_system("B2")
G2 = root_system("G2")


def test_polynomial_construction_and_algebra():
    p = BivariatePolynomial.from_dict({(1, 0): 1, (0, 1): 1, (2, 2): 0})
    assert p.terms == ((0, 1, 1), (1, 0, 1))
    assert p == poly_s_plus(1)
    q = poly_one_plus(2)
    prod = p * q
    assert prod.coefficient(1, 1) == 2
    assert prod.coefficient(0, 1) == 1
    assert prod.coefficient(0, 2) == 2
    assert (p + p).coefficient(1, 0) == 2
    assert BivariatePolynomial.zero() + p == p
    assert p.uses_s() and not q.uses_s()
    assert BivariatePolynomial.monomial(0, 0, 5).format() == "5"


def test_polynomial_format_is_ascending_and_tidy():
    p = poly_s_plus(2) * poly_s_plus(3)
    # (s + 2t)(s + 3t) = 6t^2 + 5st + s^2
    assert p.format() == "6*t^2 + 5*s*t + s^2"
    assert poly_one_plus(1).format() == "1 + t"
    assert BivariatePolynomial.zero().format() == "0"
    assert BivariatePolynomial.monomial(2, 1).format() == "s^2*t"
    assert p.to_json_terms() == [[0, 2, 6], [1, 1, 5], [2, 0, 1]]


def test_specialize_substitutes_length():
    p = poly_s_plus(1) * poly_one_plus(2)
    # (s + t)(1 + 2t) -> (t^2 + t)(1 + 2t) = t + 3t^2 + 2t^3
    assert p.specialize() == (0, 1, 3, 2)
    assert BivariatePolynomial.zero().specialize() == (0,)


def test_poly1_helpers():
    assert poly1_mul((1, 1), (1, 2)) == (1, 3, 2)
    assert poly1_format((1, 3, 2)) == "1 + 3*t + 2*t^2"
    assert poly1_format((0, 1)) == "t"
    assert poly1_format((0,)) == "0"


def test_w0_enumeration_counts():
    assert enumerate_w0(A2).order == 6
    assert enumerate_w0(B2).order == 8
    assert enumerate_w0(G2).order == 12
    g = enumerate_w0(B2)
    assert g.words[0] == ()
    lengths = [len(w) for w in g.words]
    assert lengths == sorted(lengths)
    assert max(lengths) == 4  # the long element of B2


def reference_enumerate_w0(rs):
    """W0 by breadth-first closure of the simple reflection matrices with
    Fraction matrix products: each level sorted by matrix, each new
    element keeping the first word that reached it (level order, then
    generator order).  Returns (elements, words)."""
    gens = [AffineReflection.make(a, 0).to_element().linear for a in rs.simple_roots]
    ident = identity_matrix(rs.ambient_dim)
    words = {ident: ()}
    order = [ident]
    level = [ident]
    while level:
        found = {}
        for m in level:
            for gi, g in enumerate(gens):
                nm = mat_mul(m, g)
                if nm not in words and nm not in found:
                    found[nm] = words[m] + (gi,)
        level = sorted(found)
        for nm in level:
            words[nm] = found[nm]
            order.append(nm)
    return tuple(order), tuple(words[m] for m in order)


REFERENCE_W0_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D2", "D3", "D4", "G2", "F4"]


@pytest.mark.parametrize("name", REFERENCE_W0_TYPES)
def test_enumeration_matches_matrix_reference(name):
    rs = root_system(name)
    group = enumerate_w0(rs)
    elements, words = reference_enumerate_w0(rs)
    # the words rebuild W0 exactly, each element once, each word reduced
    level = {m: len(word) for m, word in zip(elements, words)}
    matrices = [word_matrix(rs, word) for word in group.words]
    assert len(matrices) == len(elements)
    assert set(matrices) == set(elements)
    assert [len(word) for word in group.words] == [level[m] for m in matrices]
    # each permutation is the action of its word's matrix on the roots
    for m, perm in zip(matrices, group.elements, strict=True):
        assert root_permutation(rs, m) == perm


@pytest.mark.parametrize("name", ["A5", "B5", "C5", "D5", "A6"])
def test_enumeration_beyond_the_reference_is_complete(name):
    # past the matrix reference's reach: exactly |W0| distinct
    # permutations of the root indices
    rs = root_system(name)
    elements = enumerate_w0(rs).elements
    identity = list(range(len(rs.roots)))
    assert all(sorted(p) == identity for p in elements)
    assert len(set(elements)) == len(elements) == rs.w0_size


GENFUN_PROPERTY_TYPES = ["A2", "B2", "G2", "A3", "B3", "C3", "D4"]


@st.composite
def lattice_points(draw):
    rs = root_system(draw(st.sampled_from(GENFUN_PROPERTY_TYPES)))
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=rs.rank, max_size=rs.rank))
    return rs, rs.from_lattice_coords(coeffs)


@given(lattice_points())
@settings(max_examples=60, deadline=None)
def test_local_genfun_counts_dimension_reports(point):
    # an independent path: one dimension_report per element t_lam u of W0
    rs, lam = point
    counts = Counter()
    for m in w0_matrices(rs):
        rep = dimension_report(rs, AffineElement(m, lam))
        counts[(rep.d, rep.e)] += 1
    assert local_genfun(rs, lam) == BivariatePolynomial.from_dict(dict(counts))


# Coefficient radius of the box per rank: every lattice point in it is
# summed both ways.
PARTITION_BOX = {1: 3, 2: 3, 3: 2, 4: 1, 5: 1}
PARTITION_TYPES = [f"{f}{n}" for f in "ABCD" for n in range(1, 6) if f == "A" or n >= 2]


@pytest.mark.parametrize("name", PARTITION_TYPES)
def test_partition_sum_matches_w0_tables_on_a_box(name):
    rs = root_system(name)
    radius = PARTITION_BOX[rs.rank]
    for coeffs in iproduct(range(-radius, radius + 1), repeat=rs.rank):
        lam = rs.from_lattice_coords(coeffs)
        assert _partition_counts(rs, lam)[0] == _table_counts(rs, lam)[0], coeffs


@pytest.mark.parametrize("name", ["A6", "D6"])
def test_partition_sum_matches_w0_tables_on_samples(name):
    rs = root_system(name)
    rng = random.Random(name)
    for _ in range(6):
        lam = rs.from_lattice_coords([rng.randint(-3, 3) for _ in range(rs.rank)])
        assert _partition_counts(rs, lam)[0] == _table_counts(rs, lam)[0], lam


# d + e is the least dimension of a root subspace above the move space
# that holds lam; the span search it replaced must give the same counts
TABLE_COUNT_BOXES = [("G2", 3), ("F4", 1), ("A4", 1), ("B4", 1), ("D4", 1)]


@pytest.mark.parametrize("name,radius", TABLE_COUNT_BOXES)
def test_table_counts_match_the_span_search_on_a_box(name, radius):
    rs = root_system(name)
    for coeffs in iproduct(range(-radius, radius + 1), repeat=rs.rank):
        lam = rs.from_lattice_coords(coeffs)
        assert _table_counts(rs, lam)[0] == span_search_counts(rs, lam), coeffs


GENERIC_TYPES = (
    [f"A{n}" for n in range(1, 6)] + [f"{f}{n}" for f in "BC" for n in range(2, 6)] + ["D3", "D4", "D5", "G2", "F4"]
)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_is_generic_matches_the_span_search(data):
    rs = root_system(data.draw(st.sampled_from(GENERIC_TYPES)))
    bound = data.draw(st.sampled_from([2, 40]))
    coeffs = data.draw(st.lists(st.integers(-bound, bound), min_size=rs.rank, max_size=rs.rank))
    lam = rs.from_lattice_coords(coeffs)
    assert is_generic(rs, lam) == span_search_is_generic(rs, lam)


@pytest.mark.parametrize("name,lam,generic", [
    ("B8", vec([38, 670, -829, -180, 244, -143, 368, 220]), True),
    ("C8", (-24, 50, 5, -45, 28, -47, 54, -15), False),
])
def test_is_generic_answers_at_rank_8(name, lam, generic):
    # the span search raised BudgetExceeded at both points after seconds.
    # The C8 point, in simple-coroot coordinates, is (-24, 74, -45, -50,
    # 73, -75, 101, -69), whose entries 1, 2 and 4 add to 0: it lies in the
    # root subspace x1 + x2 + x4 = 0, spanned by 2e_i (i not 1, 2, 4), the
    # e_i +- e_j among those and e1 - e2, e2 - e4.  For B and C, lam is
    # generic exactly when no signed subset of its entries cancels.
    rs = root_system(name)
    if name == "C8":
        lam = rs.from_lattice_coords(lam)
        assert lam[0] + lam[1] + lam[3] == 0
    started = time.perf_counter()
    assert is_generic(rs, lam) == generic
    assert time.perf_counter() - started < 1
    cancels = any(sum(s * x for s, x in zip(signs, lam)) == 0 for signs in iproduct((-1, 0, 1), repeat=8) if any(signs))
    assert cancels != generic


def test_classify_cap(monkeypatch):
    # one bound for every type: A4 at radius 1 sums 1177 partition-sum
    # terms over the W0-orbits it computes, on 81 lattice points, and a
    # box may hold a tenth as many points as the cap has terms
    a4 = root_system("A4")
    expected = classify_coroots(a4, 1)
    monkeypatch.setattr(genfun, "DEFAULT_CLASSIFY_CAP", 1177)
    assert classify_coroots(a4, 1) == expected
    monkeypatch.setattr(genfun, "DEFAULT_CLASSIFY_CAP", 1176)
    with pytest.raises(BudgetExceeded) as caught:
        classify_coroots(a4, 1)
    assert str(caught.value) == (
        "classification cap 1176 exceeded: 1177 terms summed over 61 of 81 lattice points of A4 at radius 1; "
        "use a smaller radius"
    )
    # B2 at radius 2 has 25 points: it fits a cap of 250 terms, not 249
    expected = classify_coroots(B2, 2)
    monkeypatch.setattr(genfun, "DEFAULT_CLASSIFY_CAP", 250)
    assert classify_coroots(B2, 2) == expected
    monkeypatch.setattr(genfun, "DEFAULT_CLASSIFY_CAP", 249)
    with pytest.raises(BudgetExceeded) as caught:
        classify_coroots(B2, 2)
    assert str(caught.value) == (
        "classification cap 24 lattice points exceeded: radius 2 of B2 has 25; the largest radius that fits is 1"
    )
    monkeypatch.undo()
    # too many points to try: fails before the first one
    with pytest.raises(BudgetExceeded) as caught:
        classify_coroots(root_system("B8"), 3)
    assert str(caught.value) == (
        "classification cap 300000 lattice points exceeded: radius 3 of B8 has 5764801; "
        "the largest radius that fits is 1"
    )


@pytest.mark.parametrize("name,radius,points,fits", [
    ("G2", 600, 1442401, 273),
    ("B2", 600, 1442401, 273),
    ("A3", 60, 1771561, 32),
    ("A7", 3, 823543, 2),
    ("B6", 4, 531441, 3),
])
def test_classify_refuses_a_box_beyond_the_point_bound(name, radius, points, fits):
    # refused before the scan, for small W0 as for large
    rs = root_system(name)
    started = time.perf_counter()
    with pytest.raises(BudgetExceeded) as caught:
        classify_coroots(rs, radius)
    assert time.perf_counter() - started < 1
    assert str(caught.value) == (
        f"classification cap 300000 lattice points exceeded: radius {radius} of {name} has {points}; "
        f"the largest radius that fits is {fits}"
    )


@pytest.mark.parametrize("radius,terms,done", [(0, 268, 1), (1, 2412, 41)])
def test_classify_stops_on_table_terms_as_on_partition_terms(monkeypatch, radius, terms, done):
    # as A4 does in test_classify_cap
    rs = root_system("F4")
    monkeypatch.setattr(genfun, "DEFAULT_CLASSIFY_CAP", terms - 1)
    with pytest.raises(BudgetExceeded) as caught:
        classify_coroots(rs, radius)
    points = (2 * radius + 1) ** rs.rank
    assert str(caught.value) == (
        f"classification cap {terms - 1} exceeded: {terms} terms summed over {done} of {points} lattice points "
        f"of F4 at radius {radius}; use a smaller radius"
    )


@pytest.mark.parametrize("name,rows", [("G2", 8), ("F4", 268)])
def test_table_terms_are_the_rows_read(name, rows):
    # G2 sums 8 terms per orbit of at most 12 points, never the ten terms
    # per point the point bound allows, so that bound always holds first
    rs = root_system(name)
    assert _local_counts(rs, (0,) * rs.ambient_dim)[1] == len(_genfun_tables(rs)[1]) == rows


@pytest.mark.parametrize("name", ["A5", "B5", "D5", "A6"])
def test_length_distribution_reach(name):
    rs = root_system(name)
    assert spherical_genfun(rs) == exponent_product(rs)


def test_w0_cap():
    # |W0(B8)| = 10,321,920 is above DEFAULT_W0_CAP
    with pytest.raises(BudgetExceeded):
        enumerate_w0(root_system("B8"))
    with pytest.raises(BudgetExceeded, match="W0 of B8 has order 10321920, above the cap"):
        _genfun_tables(root_system("B8"))


def table_map(rows):
    """The W0 tables as a map from move space to (e, mult, root mask); no
    space may have two rows."""
    rows = list(rows)
    out = {key: (e, mult, mask) for e, key, mask, mult in rows}
    assert len(out) == len(rows)
    return out


TABLE_TYPES = [f"A{n}" for n in range(1, 6)] + [f"{f}{n}" for f in "BC" for n in range(2, 6)]


@pytest.mark.parametrize("name", TABLE_TYPES + ["D4", "D5", "G2", "F4"])
def test_tables_from_flats_match_the_element_loop(name):
    rs = root_system(name)
    flats, rows = _genfun_tables(rs)
    got = table_map((flat.dim, flat.rows, flat.mask, mult) for flat, mult in rows)
    assert got == table_map(reference_genfun_tables(rs))
    assert sum(mult for _, mult in rows) == rs.w0_size
    assert [flat for layer in flats.layers for flat in layer] == [flat for flat, _ in rows]
    assert all(flats.by_mask[flat.mask] is flat for flat, _ in rows)


HEIGHT_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"{f}{n}" for f in "BC" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
)


@pytest.mark.parametrize("name", HEIGHT_TYPES + ["G2", "F4"])
def test_exponents_are_the_dual_partition_of_the_coroot_heights(name):
    # Kostant: no W0 is needed, and the closed form in rootsys is independent
    rs = root_system(name)
    assert _height_exponents(rs.tables, range(len(rs.roots))) == rs.exponents


SHEPHARD_TODD = [
    "A1",
    "A2",
    "A3",
    "A4",
    "A5",
    "B2",
    "B3",
    "B4",
    "C3",
    "D4",
    "G2",
    "F4",
]


@pytest.mark.parametrize("name", SHEPHARD_TODD)
def test_length_distribution_matches_exponent_product(name):
    rs = root_system(name)
    assert spherical_genfun(rs) == exponent_product(rs)


@pytest.mark.parametrize("name", ["A7", "A8", "B7", "B8", "C7", "C8", "D7", "D8"])
def test_length_distribution_matches_exponent_product_at_ranks_7_and_8(name):
    rs = root_system(name)
    assert spherical_genfun(rs) == exponent_product(rs)


def test_frozen_spherical_counts():
    assert spherical_genfun(root_system("A3")) == (1, 6, 11, 6)
    assert spherical_genfun(root_system("A4")) == (1, 10, 35, 50, 24)
    assert spherical_genfun(root_system("B3")) == (1, 9, 23, 15)
    assert spherical_genfun(root_system("D4")) == (1, 12, 50, 84, 45)
    assert spherical_genfun(G2) == (1, 6, 5)


def test_local_genfun_at_origin_is_spherical():
    for rs in (A2, B2, G2):
        f = local_genfun(rs, vec([0] * rs.ambient_dim))
        assert not f.uses_s()
        assert f.specialize() == spherical_genfun(rs)


RANK2_LOCALS = [
    # (group, lattice point, expected polynomial)
    ("A2", (1, -1, 0), poly_s_plus(1) * poly_one_plus(2)),
    ("A2", (2, -1, -1), poly_s_plus(1) * poly_s_plus(2)),
    ("B2", (2, 0), poly_s_plus(1) * poly_one_plus(3)),
    ("B2", (1, 1), poly_s_plus(1) * poly_one_plus(3)),
    ("B2", (3, 1), poly_s_plus(1) * poly_s_plus(3)),
    ("G2", (1, -1, 0), poly_s_plus(1) * poly_one_plus(5)),
    ("G2", (-1, 2, -1), poly_s_plus(1) * poly_one_plus(5)),
]


@pytest.mark.parametrize("name,lam,expected", RANK2_LOCALS)
def test_frozen_local_polynomials(name, lam, expected):
    rs = root_system(name)
    assert local_genfun(rs, vec(list(lam))) == expected


def test_local_genfun_rejects_non_lattice_points():
    with pytest.raises(ValueError):
        local_genfun(B2, vec([1, 0]))
    with pytest.raises(ValueError):
        is_generic(B2, vec([1, 0]))


def test_genericity():
    assert not is_generic(B2, vec([0, 0]))
    assert not is_generic(B2, vec([1, 1]))
    assert is_generic(B2, vec([3, 1]))
    assert not is_generic(A2, vec([1, -1, 0]))
    assert is_generic(A2, vec([2, -1, -1]))


def test_generic_local_polynomial_is_full_deformation():
    # at a generic point every exponent factor deforms to (s + e_i t)
    f = local_genfun(B2, vec([3, 1]))
    assert f == poly_s_plus(1) * poly_s_plus(3)
    assert is_generic(G2, vec([3, -2, -1]))
    g = local_genfun(G2, vec([3, -2, -1]))
    assert g == poly_s_plus(1) * poly_s_plus(5)


def test_classify_rank2():
    # with coefficients in [-2,2]^2 each rank-two group splits into
    # origin / root-line / generic; on-a-root-line counts by hand:
    # B2 has 2+4+4+4 = 14 box points on its four root lines
    classes = classify_coroots(B2, 2)
    assert len(classes) == 3
    origin = BivariatePolynomial.from_dict({(0, 0): 1, (0, 1): 4, (0, 2): 3})
    assert classes[origin] == (vec([0, 0]),)
    subregular = poly_s_plus(1) * poly_one_plus(3)
    generic = poly_s_plus(1) * poly_s_plus(3)
    assert len(classes[subregular]) == 14
    assert len(classes[generic]) == 10
    assert sum(len(p) for p in classes.values()) == 25
    a2 = classify_coroots(A2, 2)
    assert sorted(len(p) for p in a2.values()) == [1, 12, 12]


def test_classify_a3_radius_2():
    classes = classify_coroots(root_system("A3"), 2)
    sizes = sorted(len(pts) for pts in classes.values())
    assert len(classes) == 6
    assert sizes == [1, 10, 20, 22, 24, 48]
    total = sum(sizes)
    assert total == 5**3


ORBIT_TYPES = ["A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "D4", "G2"]


@pytest.mark.parametrize(
    "name,radius", [(name, radius) for name in ORBIT_TYPES for radius in range(3)] + [("F4", 0), ("F4", 1)]
)
def test_orbit_classify_matches_the_per_point_reference(monkeypatch, name, radius):
    # the same classes in the same order, points sorted within each
    rs = root_system(name)
    expected = list(reference_classify_coroots(rs, radius).items())
    assert list(classify_coroots(rs, radius).items()) == expected
    # and by one _local_counts call per W0-orbit of the box, for every type
    calls, local = [], genfun._local_counts
    monkeypatch.setattr(genfun, "_local_counts", lambda *args: calls.append(args) or local(*args))
    assert list(classify_coroots(rs, radius).items()) == expected
    key = _dominant_key(rs.tables)
    assert len(calls) == len({key(c) for c in iproduct(range(-radius, radius + 1), repeat=rs.rank)})


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4"])
def test_orbit_key_is_the_dominant_point_of_the_orbit(name):
    # w lam has coordinates sum_j c_j (w a_j)^vee for every w in W0; the
    # key is constant on each orbit of the radius-1 box, lies in it, has
    # no negative pairing with a simple root, and tells orbits apart
    rs = root_system(name)
    tables, key = rs.tables, _dominant_key(rs.tables)
    group = [[tables.coroot_coords[perm[a]] for a in tables.simple] for perm in enumerate_w0(rs).elements]
    pairing = [[tables.cartan[j][i] for i in tables.simple] for j in tables.simple]
    orbits: dict[tuple[int, ...], set] = {}
    for coeffs in iproduct(range(-1, 2), repeat=rs.rank):
        orbit = {tuple(sum(c * col[i] for c, col in zip(coeffs, w)) for i in range(rs.rank)) for w in group}
        k = key(coeffs)
        assert {key(mu) for mu in orbit} == {k}
        assert k in orbit
        assert all(sum(c * row[i] for c, row in zip(k, pairing)) >= 0 for i in range(rs.rank))
        assert orbits.setdefault(k, orbit) == orbit


def test_classify_b8_at_radius_1_answers():
    # 6,561 points in 33 classes; each class polynomial counts all of W0,
    # and the origin's is prod (1 + e_i t)
    rs = root_system("B8")
    classes = classify_coroots(rs, 1)
    assert (len(classes), sum(map(len, classes.values()))) == (33, 3**8)
    assert all(sum(c for _, _, c in f.terms) == rs.w0_size for f in classes)
    origin = BivariatePolynomial.monomial(0, 0)
    for e in (1, 3, 5, 7, 9, 11, 13, 15):
        origin = origin * poly_one_plus(e)
    assert classes[origin] == (vec([0] * 8),)


def test_every_class_count_adds_up():
    classes = classify_coroots(A2, 2)
    assert sum(len(p) for p in classes.values()) == 25
    for f, pts in classes.items():
        for lam in pts:
            assert local_genfun(A2, lam) == f


@given(st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_polynomial_ring_laws(k, m):
    a, b = poly_s_plus(k), poly_one_plus(m)
    c = BivariatePolynomial.monomial(1, 1, 2)
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert poly1_mul(a.specialize(), b.specialize()) == (a * b).specialize()
