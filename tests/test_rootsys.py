"""Root system data: counts, lattices, and type-level structure.

Expected root counts and Weyl group orders are the classical values for
each family; they pin down the construction independently of the code
that produced it.
"""

from fractions import Fraction as Q

import pytest

from coxlen.errors import ParseError, UnsupportedTypeError
from coxlen.linalg import dot, solve_combination, vec
from coxlen.rootsys import (
    RootSystemSpec,
    canonical_root,
    coroot,
    parse_type_spec,
    reflect,
    root_system,
)

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
    assert rs.w0_order == order
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
        assert prod == rs.w0_order
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
    zero = vec([0] * rs.ambient_dim)
    for i, a in enumerate(rs.roots):
        assert tables.int_roots[i] == tuple(x * tables.scale for x in a)
        assert rs.roots[tables.negated[i]] == tuple(-x for x in a)
        assert tables.positive[i] == (a > zero)
        for j, b in enumerate(rs.roots):
            assert rs.roots[tables.reflected[i][j]] == reflect(a, b)
            assert tables.cartan[i][j] == dot(coroot(a), b)
