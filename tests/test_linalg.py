"""Exact linear algebra: hand-checked values plus algebraic properties."""

from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from coxlen.linalg import (
    dot,
    in_span,
    identity_matrix,
    int_line_rep,
    line_rep,
    mat_mul,
    mat_vec,
    mat,
    orthogonalize,
    primitive_rref,
    project_off,
    reduce_against,
    rref,
    rref_pivots,
    solve_affine,
    solve_combination,
    transpose,
    vec,
)
from reference_lattice import RationalLattice
from reference_linalg import rank

small_q = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def vecs(dim: int):
    return st.tuples(*([small_q] * dim))


def test_rref_hand_example():
    rows = (vec([2, 4, 6]), vec([1, 2, 4]))
    basis, pivots = rref(rows)
    assert basis == (vec([1, 2, 0]), vec([0, 0, 1]))
    assert pivots == (0, 2)


def test_rank_examples():
    assert rank(()) == 0
    assert rank((vec([0, 0]),)) == 0
    assert rank((vec([1, 2]), vec([2, 4]))) == 1
    assert rank(identity_matrix(5)) == 5


def test_reduce_against_detects_span_membership():
    basis, pivots = rref((vec([1, 0, 1]), vec([0, 1, 1])))
    assert reduce_against(basis, pivots, vec([2, 3, 5])) == vec([0, 0, 0])
    residual = reduce_against(basis, pivots, vec([0, 0, 1]))
    assert residual != vec([0, 0, 0])


def test_solve_combination_finds_exact_coefficients():
    cols = (vec([1, 1]), vec([1, -1]))
    sol = solve_combination(cols, vec([3, 1]))
    assert sol == (Q(2), Q(1))
    assert solve_combination((vec([1, 0]),), vec([0, 1])) is None


def test_solve_affine_parametrises_solutions():
    m = (vec([1, 1, 0]), vec([0, 0, 1]))
    res = solve_affine(m, vec([2, 3]))
    assert res is not None
    particular, kernel = res
    assert mat_vec(m, particular) == vec([2, 3])
    assert len(kernel) == 1
    assert mat_vec(m, kernel[0]) == vec([0, 0])
    assert solve_affine((vec([1, 1]), vec([2, 2])), vec([1, 3])) is None


def test_line_rep_canonicalises_sign_and_scale():
    assert line_rep(vec([Q(-1, 2), Q(1, 2)])) == vec([1, -1])
    assert line_rep(vec([2, -4])) == vec([1, -2])
    assert line_rep(vec([0, Q(-2, 3)])) == vec([0, 1])


def test_orthogonalize_and_project_off():
    basis = orthogonalize((vec([1, 1]), vec([1, 0])))
    assert len(basis) == 2
    assert dot(basis[0], basis[1]) == 0
    residue = project_off(vec([3, 3]), (vec([1, 1]),))
    assert residue == vec([0, 0])


def test_rational_lattice_membership_and_coords():
    lat = RationalLattice([vec([2, 0]), vec([1, 1])])
    assert lat.contains(vec([3, 1]))
    assert lat.contains(vec([0, 2]))
    assert not lat.contains(vec([1, 0]))
    assert not lat.contains(vec([Q(1, 2), Q(1, 2)]))
    c = lat.coords(vec([3, 1]))
    assert c is not None
    assert lat.from_coords(c) == vec([3, 1])
    assert lat.coords(vec([1, 0])) is None


def test_rational_lattice_fractional_basis():
    lat = RationalLattice([vec([Q(1, 3), Q(-1, 3)])])
    assert lat.contains(vec([Q(2, 3), Q(-2, 3)]))
    assert not lat.contains(vec([Q(1, 2), Q(-1, 2)]))


@settings(max_examples=150, deadline=None)
@given(st.lists(vecs(3), min_size=1, max_size=4))
def test_rref_is_idempotent_and_spans(rows):
    rows = tuple(rows)
    basis, pivots = rref(rows)
    again, again_pivots = rref(basis)
    assert again == basis and again_pivots == pivots
    for r in rows:
        assert in_span(basis, r)
    assert rank(rows) == len(basis)


@settings(max_examples=150, deadline=None)
@given(st.lists(vecs(3), min_size=1, max_size=3), vecs(3))
def test_reduce_against_residual_is_canonical(rows, target):
    basis, pivots = rref(tuple(rows))
    residual = reduce_against(basis, pivots, target)
    # subtracting the residual lands in the span; reducing it changes nothing
    back = tuple(t - r for t, r in zip(target, residual))
    assert in_span(basis, back)
    assert reduce_against(basis, pivots, residual) == residual


@settings(max_examples=100, deadline=None)
@given(st.lists(vecs(2), min_size=1, max_size=3), vecs(2))
def test_lattice_roundtrip(gens, target):
    gens = [g for g in gens if any(g)]
    if not gens:
        return
    lat = RationalLattice(gens)
    if lat.contains(target):
        c = lat.coords(target)
        assert c is not None and lat.from_coords(c) == target
    else:
        assert lat.coords(target) is None


@settings(max_examples=100, deadline=None)
@given(vecs(3), vecs(3))
def test_matrix_vector_algebra(u, v):
    m = (u, v, vec([1, 0, 0]))
    mt = transpose(m)
    assert transpose(mt) == m
    ident = identity_matrix(3)
    assert mat_mul(m, ident) == m
    assert mat_mul(ident, m) == m
    w = vec([1, 2, 3])
    assert mat_vec(mat_mul(m, mt), w) == mat_vec(m, mat_vec(mt, w))


def test_line_rep_rejects_zero():
    with pytest.raises(ValueError):
        line_rep(vec([0, 0]))


@settings(max_examples=200, deadline=None)
@given(st.tuples(*([st.integers(-6, 6)] * 4)).filter(any), st.sampled_from([1, -1, 2, -3]))
def test_int_line_rep_is_line_rep(v, scale):
    # gcd 1 with either leading sign, and scaled multiples
    w = [scale * x for x in v]
    assert int_line_rep(w) == line_rep(vec(w)) == int_line_rep(v)
    assert all(type(x) is int for x in int_line_rep(w))


int_rows = st.lists(st.tuples(*([st.integers(-5, 5)] * 4)), max_size=5)


@settings(max_examples=150, deadline=None)
@given(int_rows, st.lists(st.tuples(st.integers(1, 3), st.integers(0, 4), st.integers(0, 4), st.integers(-2, 2))))
def test_primitive_rref_is_the_scaled_rref(rows, ops):
    key = primitive_rref(rows)
    basis, pivots = rref(mat(rows))
    assert rref(mat(key)) == (basis, pivots)
    assert rref_pivots(basis) == pivots
    for row, p in zip(key, pivots):
        assert row[p] > 0 and gcd(*row) == 1
    # other generators of the same span (rows scaled, combined and
    # duplicated) give the same key
    other = [list(r) for r in rows]
    for scale, i, j, c in ops:
        if other:
            i, j = i % len(other), j % len(other)
            if i != j:
                other[i] = [scale * x + c * y for x, y in zip(other[i], other[j])]
            other.append(other[j])
    assert primitive_rref(reversed(other)) == key


def test_primitive_rref_hand_example():
    assert primitive_rref([(2, 4, 6), (1, 2, 4)]) == ((1, 2, 0), (0, 0, 1))
    assert primitive_rref([(0, -3, 6), (0, 0, 0)]) == ((0, 1, -2),)
    assert primitive_rref([]) == ()


def test_rref_is_exact_on_integer_rows():
    basis, pivots = rref([(3, 1, 0), (0, 0, 7)])
    assert (basis, pivots) == (((1, Q(1, 3), 0), (0, 0, 1)), (0, 2))
    assert all(type(x) is Q for row in basis for x in row)
