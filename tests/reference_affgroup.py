"""Affine-group helpers that only the tests use: the affine move-set,
the normal form relative to another origin, conjugation by a general
element and the translation test, all on Fraction matrices, the root
permutation of a matrix alone, and the W0 membership test as it was
before it imaged only the simple roots: every root mapped through the
scaled matrix (_scaled_root_permutation, w0_permutation)."""

from __future__ import annotations

from coxlen.affgroup import (
    AffineElement,
    AffineReflection,
    AffineSubspace,
    compose,
    linear_move_space,
    translation_element,
)
from coxlen.linalg import Mat, Vec, dot, identity_matrix, mat_vec, scale_to_ints, vsub
from coxlen.rootsys import RootSystem


def _scaled_root_permutation(rs: RootSystem, linear: Mat) -> tuple[int, list[list[int]], tuple[int, ...]]:
    """(den, rows, perm): linear scaled to the integer rows of den times
    it, den the lcm of its denominators (linalg.scale_to_ints), and the
    permutation of root indices (RootTables) that linear induces, perm[b]
    the index of linear(root b); ValueError if linear does not permute
    the roots.

    In integers: a root r (integer after scaling) maps to a root iff
    (den * linear) r is den times an integer root."""
    tables = rs.tables
    den, rows = scale_to_ints(linear)
    columns = list(zip(*rows))
    perm = []
    for r in tables.int_roots:
        image = [0] * len(linear)
        for x, col in zip(r, columns, strict=True):
            if x:
                image = [y + x * c for y, c in zip(image, col)]
        b = None if any(y % den for y in image) else tables.int_index.get(tuple(y // den for y in image))
        if b is None:
            raise ValueError("linear part does not preserve the root system")
        perm.append(b)
    return den, rows, tuple(perm)


def w0_permutation(rs: RootSystem, linear: Mat) -> tuple[int, ...]:
    """The root permutation of linear, or ValueError unless linear lies in
    W0: it is w sigma, sigma a diagram automorphism, and multiplying by s_i
    while a_i maps to a negative root (negative coroot coordinates) leaves
    sigma, which must fix the simple roots.  For A_n and G2, linear must
    also fix the all-ones line off the root span: scaled rows sum to den."""
    tables = rs.tables
    den, rows, perm = _scaled_root_permutation(rs, linear)
    u = perm
    while (i := next((i for i in tables.simple if sum(tables.coroot_coords[u[i]]) < 0), None)) is not None:
        u = tuple(map(u.__getitem__, tables.reflected[i]))
    if (rs.ambient_dim > rs.rank and any(sum(row) != den for row in rows)) or any(u[i] != i for i in tables.simple):
        raise ValueError("linear part is not an element of W0")
    return perm


def root_permutation(rs: RootSystem, linear: Mat) -> tuple[int, ...]:
    """The permutation of root indices (RootTables) that linear induces,
    perm[b] the index of linear(root b); ValueError if linear does not
    permute the roots."""
    return _scaled_root_permutation(rs, linear)[2]


def conjugated_by(r: AffineReflection, g: AffineElement) -> AffineReflection:
    """g r g^{-1}: the reflection in the image hyperplane g(H).

    With g: x -> Bx + mu, the image of <x, alpha> = j is
    <y, B alpha> = j + <mu, B alpha>, and the new level is an
    integer because the coroot lattice pairs integrally with roots.
    """
    new_root = mat_vec(g.linear, r.root)
    return AffineReflection.make(new_root, r.level + dot(g.translation, new_root))


def move_set(a: AffineElement) -> AffineSubspace:
    """Mov(a) = {a(x) - x} = translation + Im(linear - I)."""
    return AffineSubspace.from_point_and_directions(a.translation, linear_move_space(a.linear))


def rebased_normal_form(w: AffineElement, origin: Vec) -> tuple[Vec, AffineElement]:
    """Normal form of w relative to a different origin y: the pair
    (mu, u) with mu = w(y) - y and u = t_{-mu} w, which fixes y when w's
    linear part does."""
    mu = vsub(w.apply(origin), origin)
    u = compose(translation_element(tuple(-x for x in mu)), w)
    return mu, u


def is_translation(a: AffineElement) -> bool:
    return a.linear == identity_matrix(a.dim)
