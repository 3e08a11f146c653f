"""Root system data: counts, lattices, and type-level structure.

Expected root counts and Weyl group orders are the classical values for
each family; they pin down the construction independently of the code
that produced it.
"""

from fractions import Fraction as Q
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import coxlen.linalg
import coxlen.rootsys
from coxlen.errors import ParseError, UnsupportedTypeError
from coxlen.genfun import enumerate_w0
from coxlen.linalg import dot, primitive_rref, solve_combination, vec
from coxlen.rootsys import (
    RootSystemSpec,
    build_root_system,
    coroot,
    parse_type_spec,
    reflect,
    root_system,
)
from reference_lattice import RationalLattice
from reference_linalg import canonical_root
from reference_rootsys import reference_coroot_lattice, reference_highest_root as walked_highest_root
from reference_rootsys import reference_from_lattice_coords, reference_roots, reference_tables
from w0_matrices import w0_matrices

# (type, root count, Weyl order)
CLASSICAL = [
    ("A1", 2, 2),
    ("A2", 6, 6),
    ("A3", 12, 24),
    ("A7", 56, 40320),
    ("B2", 8, 8),
    ("B3", 18, 48),
    ("B8", 128, 10321920),
    ("C3", 18, 48),
    ("C4", 32, 384),
    ("D4", 24, 192),
    ("D8", 112, 5160960),
    ("G2", 12, 12),
    ("F4", 48, 1152),
]


@pytest.mark.parametrize("name,count,order", CLASSICAL)
def test_classical_counts(name, count, order):
    rs = root_system(name)
    assert len(rs.roots) == count
    assert rs.w0_size == order
    assert len(rs.positive_roots) == count // 2


@pytest.mark.parametrize("name,count,order", CLASSICAL)
def test_roots_closed_under_reflection(name, count, order):
    rs = root_system(name)
    root_set = set(rs.roots)
    for a in rs.simple_roots:
        for b in rs.roots:
            assert reflect(a, b) in root_set


def test_cartan_pairings_are_integers():
    for name in ["A3", "B3", "C3", "D4", "G2", "F4"]:
        rs = root_system(name)
        for a in rs.roots:
            for b in rs.roots:
                c = dot(coroot(a), b)
                assert c.denominator == 1
                assert abs(c) <= 3


def _bourbaki_simple_roots(family: str, n: int) -> list[tuple]:
    """Bourbaki's simple roots, Plates I-IX: e_i - e_(i+1), and for B, C, D
    a last root e_n, 2 e_n or e_(n-1) + e_n; A_n in R^(n+1), G2 in the
    zero-sum plane of R^3."""
    if family == "G":
        return [(1, -1, 0), (-2, 1, 1)]
    if family == "F":
        h = Q(1, 2)
        return [(0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (h, -h, -h, -h)]
    dim = n + 1 if family == "A" else n
    e = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    chain = [tuple(x - y for x, y in zip(e[i], e[i + 1])) for i in range(dim - 1)]
    if family == "A":
        return chain
    last = {"B": e[-1], "C": tuple(2 * x for x in e[-1]), "D": tuple(x + y for x, y in zip(e[-2], e[-1]))}
    return chain + [last[family]]


@pytest.mark.parametrize(
    "name",
    [f"{f}{n}" for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 2)) for n in range(lo, 9)] + ["G2", "F4"],
)
def test_simple_roots_are_bourbaki(name):
    rs = root_system(name)
    expected = _bourbaki_simple_roots(name[0], int(name[1:]))
    assert rs.simple_roots == tuple(expected)
    assert all(type(x) is Q for a in rs.simple_roots for x in a)


def test_a2_lives_in_zero_sum_plane():
    rs = root_system("A2")
    assert rs.ambient_dim == 3
    assert all(sum(r) == 0 for r in rs.roots)
    assert vec([1, -1, 0]) in rs.roots


def test_g2_realisation_is_zero_sum_and_has_both_lengths():
    rs = root_system("G2")
    assert rs.ambient_dim == 3
    assert all(sum(r) == 0 for r in rs.roots)
    norms = sorted({dot(r, r) for r in rs.roots})
    assert norms == [2, 6]
    long_coroots = {tuple(coroot(r)) for r in rs.roots if dot(r, r) == 6}
    assert any(x.denominator == 3 for c in long_coroots for x in c)


def test_f4_has_half_integer_roots_but_integral_coroots():
    rs = root_system("F4")
    halves = [r for r in rs.roots if any(x.denominator == 2 for x in r)]
    assert len(halves) == 16
    for r in rs.roots:
        assert all(x.denominator == 1 for x in coroot(r))


def test_b2_c2_coroot_lattices_differ():
    b2, c2 = root_system("B2"), root_system("C2")
    assert b2.in_coroot_lattice(vec([1, 1]))
    assert not b2.in_coroot_lattice(vec([1, 0]))
    assert c2.in_coroot_lattice(vec([1, 0]))
    assert c2.in_coroot_lattice(vec([1, 1]))


def test_b2_c2_related_by_similarity():
    """sigma(u, v) = (u+v, v-u) maps the C2 root lines onto the B2 root
    lines and the C2 coroot lattice onto the B2 coroot lattice, which is
    the precise sense in which the two affine groups are the same group
    in different clothes."""
    b2, c2 = root_system("B2"), root_system("C2")
    b2_lines = {tuple(r) for r in b2.positive_roots}

    def sigma(v):
        return vec([v[0] + v[1], v[1] - v[0]])

    for r in c2.positive_roots:
        image = sigma(r)
        assert canonical_root(b2, image) in b2_lines
    for ca in [(-2, -1), (0, 0), (1, 0), (0, 1), (2, -1)]:
        lam = c2.from_lattice_coords(ca)
        assert b2.in_coroot_lattice(sigma(lam))


def test_coroot_lattice_coords_roundtrip():
    for name in ["A2", "B3", "C3", "D4", "G2", "F4"]:
        rs = root_system(name)
        for coeffs in [(1,) * rs.rank, (-2, 1) + (0,) * (rs.rank - 2)]:
            lam = rs.from_lattice_coords(coeffs)
            assert rs.lattice_coords(lam) == coeffs
            assert rs.in_coroot_lattice(lam)


def test_highest_root_has_maximal_height():
    for name in ["A3", "B3", "C3", "D4", "G2", "F4"]:
        rs = root_system(name)
        theta = rs.highest_root
        assert theta in rs.roots
        heights = []
        for r in rs.roots:
            cs = solve_combination(rs.simple_roots, r)
            assert cs is not None
            heights.append(sum(cs))
        cs_theta = solve_combination(rs.simple_roots, theta)
        assert sum(cs_theta) == max(heights)


def test_exponents_match_orders():
    # |W0| equals the product of (exponent + 1)
    for name in ["A4", "B4", "D4", "G2", "F4"]:
        rs = root_system(name)
        prod = 1
        for e in rs.exponents:
            prod *= e + 1
        assert prod == rs.w0_size
        assert len(rs.exponents) == rs.rank
        assert sum(rs.exponents) == len(rs.positive_roots)


def test_d2_is_reducible_and_others_are_not():
    assert root_system("D2").is_reducible
    for name in ["A1", "B2", "C2", "G2", "D3", "F4"]:
        assert not root_system(name).is_reducible


def test_parse_and_validation_errors():
    assert str(parse_type_spec(" b 3 ")) == "B3"
    with pytest.raises(ParseError):
        parse_type_spec("42")
    with pytest.raises(ParseError):
        parse_type_spec("A")
    with pytest.raises(UnsupportedTypeError):
        parse_type_spec("E6")
    with pytest.raises(UnsupportedTypeError):
        parse_type_spec("A9")
    with pytest.raises(UnsupportedTypeError):
        parse_type_spec("G3")
    with pytest.raises(UnsupportedTypeError):
        parse_type_spec("F5")
    with pytest.raises(UnsupportedTypeError):
        RootSystemSpec("B", 1)


def test_canonical_root_normalises_scalar_multiples():
    rs = root_system("B2")
    assert canonical_root(rs, vec([-2, 0])) == vec([1, 0])
    with pytest.raises(ValueError):
        canonical_root(rs, vec([1, 2]))


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4", "B8"])
def test_root_tables_match_fraction_geometry(name):
    rs = root_system(name)
    tables = rs.tables
    assert tables.scale == (2 if name == "F4" else 1)
    assert tuple(rs.roots[i] for i in tables.simple) == rs.simple_roots
    zero = vec([0] * rs.ambient_dim)
    for i, a in enumerate(rs.roots):
        assert tables.int_roots[i] == tuple(x * tables.scale for x in a)
        assert rs.roots[tables.negated[i]] == tuple(-x for x in a)
        assert tables.positive[i] == (a > zero)
        for j, b in enumerate(rs.roots):
            assert rs.roots[tables.reflected[i][j]] == reflect(a, b)
            assert tables.cartan[i][j] == dot(coroot(a), b)
        assert tables.coroot_coords[i] == rs.lattice_coords(coroot(a))


LATTICE_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{f}{n}" for f in "BCD" for n in range(2, 9)]
    + ["G2", "F4"]
)


def reference_highest_root(rs):
    """The first root in root order of maximal height, each height the
    coefficient sum of a Fraction solve against the simple roots."""
    heights = [sum(solve_combination(rs.simple_roots, r)) for r in rs.roots]
    return rs.roots[heights.index(max(heights))]


@pytest.mark.parametrize("name", LATTICE_TYPES)
def test_highest_root_matches_fraction_heights(name):
    # includes the D2 tie (two roots of height 1) and G2, whose highest
    # root is not the lexicographically largest
    rs = root_system(name)
    assert rs.highest_root == reference_highest_root(rs)


@lru_cache(maxsize=None)
def reference_lattice(name):
    """The Hermite-normal-form lattice spanned by all coroots."""
    return RationalLattice([coroot(a) for a in root_system(name).roots])


def reference_lattice_coords(rs, v):
    """Simple-coroot coordinates by a Fraction solve of the linear system."""
    cs = solve_combination([coroot(a) for a in rs.simple_roots], v)
    if cs is None or any(c.denominator != 1 for c in cs):
        return None
    if v != rs.from_lattice_coords([int(c) for c in cs]):
        return None
    return tuple(int(c) for c in cs)


@st.composite
def lattice_probes(draw):
    """A root system and a vector: a lattice point, a lattice point with
    one entry moved by +-1, +-1/2 or +-1/3, or random rationals."""
    rs = root_system(draw(st.sampled_from(LATTICE_TYPES)))
    kind = draw(st.sampled_from(["point", "moved", "random"]))
    if kind == "random":
        q = st.fractions(min_value=-6, max_value=6, max_denominator=6)
        return rs, tuple(draw(st.lists(q, min_size=rs.ambient_dim, max_size=rs.ambient_dim)))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=rs.rank, max_size=rs.rank))
    v = list(rs.from_lattice_coords(coeffs))
    if kind == "moved":
        j = draw(st.integers(0, rs.ambient_dim - 1))
        v[j] += draw(st.sampled_from([1, -1, Q(1, 2), Q(-1, 2), Q(1, 3), Q(-1, 3)]))
    return rs, tuple(v)


@given(lattice_probes())
@settings(max_examples=300, deadline=None)
def test_lattice_coords_match_hermite_reference(probe):
    rs, v = probe
    coords = rs.lattice_coords(v)
    assert coords == reference_lattice_coords(rs, v)
    assert rs.in_coroot_lattice(v) == reference_lattice(str(rs.spec)).contains(v)
    assert (coords is not None) == rs.in_coroot_lattice(v)
    if coords is not None:
        assert rs.from_lattice_coords(coords) == v


@given(st.sampled_from(LATTICE_TYPES), st.data())
@settings(max_examples=200, deadline=None)
def test_from_lattice_coords_matches_the_fraction_multiply_adds(name, data):
    # integer and rational coefficients: the tests build off-lattice
    # vectors from rational ones
    rs = root_system(name)
    coeff = st.integers(-9, 9) | st.fractions(min_value=-6, max_value=6, max_denominator=6)
    coeffs = data.draw(st.lists(coeff, min_size=rs.rank, max_size=rs.rank))
    assert rs.from_lattice_coords(coeffs) == reference_from_lattice_coords(rs, coeffs)


def test_coroot_lattice_weights_are_dual_to_the_simple_coroots():
    for name in LATTICE_TYPES:
        rs = root_system(name)
        lat = rs.coroot_lattice
        assert [tuple(Q(x, lat.den) for x in b) for b in lat.int_coroots] == [coroot(a) for a in rs.simple_roots]
        for i, w in enumerate(lat.weights):
            for j, b in enumerate(lat.int_coroots):
                assert sum(x * y for x, y in zip(w, b)) == lat.den**2 * (i == j)


TABLE_FIELDS = (
    "scale", "int_roots", "int_index", "reflected", "cartan", "negated", "positive", "simple", "coroot_coords",
    "coweights", "fixed", "linear_den",
)


@pytest.mark.parametrize("name", LATTICE_TYPES)
def test_integer_closure_matches_the_fraction_construction(name):
    rs = root_system(name)
    roots = reference_roots(rs.spec)
    assert rs.roots == roots
    tables = reference_tables(roots, rs.simple_roots)
    for f in TABLE_FIELDS:
        assert getattr(rs.tables, f) == getattr(tables, f), f
    assert rs.highest_root == walked_highest_root(roots, tables)
    lattice = reference_coroot_lattice(rs.simple_roots, rs.ambient_dim)
    for f in ("den", "weights", "int_coroots"):
        assert getattr(rs.coroot_lattice, f) == getattr(lattice, f), f


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_permutation_matrix_is_the_product_of_simple_reflections(name):
    rs = root_system(name)
    for perm, m in zip(enumerate_w0(rs).elements, w0_matrices(rs)):
        assert rs.tables.linear(perm) == m


def test_construction_is_fraction_free(monkeypatch):
    def boom(*args):
        raise AssertionError("Fraction helper called while building a root system")

    for name in ("reflect", "coroot", "rref"):
        # rootsys imports no rref; the patch still catches one brought back
        monkeypatch.setattr(coxlen.rootsys, name, boom, raising=name != "rref")
    monkeypatch.setattr(coxlen.linalg, "rref", boom)
    for name in LATTICE_TYPES:
        rs = build_root_system.__wrapped__(parse_type_spec(name))
        rs.tables, rs.highest_root, rs.coroot_lattice


@pytest.mark.parametrize("name,sizes", [("G2", [1, 6, 1]), ("F4", [1, 24, 122, 120, 1])])
def test_flat_table_lists_each_root_subspace_once(name, sizes):
    # each root subspace has its roots as mask, its rows, and normals that
    # cut it out of the ambient space: a root lies in it exactly when it
    # pairs to zero with every normal
    rs = root_system(name)
    table = rs.tables.flats
    assert [len(layer) for layer in table.layers] == sizes
    assert len(table.by_mask) == sum(sizes)
    for k, layer in enumerate(table.layers):
        for flat in layer:
            assert flat.dim == k and table.by_mask[flat.mask] is flat
            assert flat.rows == primitive_rref(a for i, a in enumerate(rs.tables.int_roots) if flat.mask >> i & 1)
            assert len(flat.normals) == rs.ambient_dim - k
            assert primitive_rref(flat.rows + flat.normals) == primitive_rref(identity_rows(rs.ambient_dim))
            assert all(dot(n, r) == 0 for n in flat.normals for r in flat.rows)
            assert flat.mask == sum(1 << i for i, a in enumerate(rs.tables.int_roots) if flat.holds(a))
            assert table.by_mask[flat.standard].standard == flat.standard


def identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_only_g2_and_f4_carry_a_flat_table():
    assert [name for name in LATTICE_TYPES if root_system(name).tables.flats is not None] == ["G2", "F4"]


@pytest.mark.parametrize("name", LATTICE_TYPES)
def test_coordinate_roots_are_the_documented_roots(name):
    # per coordinate k, with j = k + 1 (k - 1 for the last): e_k - e_j for
    # A, e_k for B, 2 e_k for C, e_k - e_j and e_k + e_j for D; none for
    # G2 and F4
    rs = root_system(name)
    t = rs.tables
    if rs.spec.family in "GF":
        assert t.coordinate_roots is None
        return
    dim = rs.ambient_dim
    unit = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
    expected = []
    for k in range(dim):
        j = k + 1 if k + 1 < dim else k - 1
        minus, plus = (tuple(x - y for x, y in zip(unit[k], unit[j])), tuple(x + y for x, y in zip(unit[k], unit[j])))
        expected.append({"A": (minus,), "B": (unit[k],), "C": (tuple(2 * x for x in unit[k]),), "D": (minus, plus)}[rs.spec.family])
    assert [tuple(t.int_roots[a] for a in group) for group in t.coordinate_roots] == expected
