"""Affine-group helpers that only the tests use: the affine move-set,
the normal form relative to another origin, conjugation by a general
element and the translation test, all on Fraction matrices, and the
root permutation of a matrix alone."""

from __future__ import annotations

from coxlen.affgroup import (
    AffineElement,
    AffineReflection,
    AffineSubspace,
    _scaled_root_permutation,
    compose,
    linear_move_space,
    translation_element,
)
from coxlen.linalg import Mat, Vec, dot, identity_matrix, mat_vec, vsub
from coxlen.rootsys import RootSystem


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
