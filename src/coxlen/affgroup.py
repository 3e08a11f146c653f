"""Elements of affine Coxeter groups in semidirect normal form.

An element is a pair (linear, translation): the isometry
x -> linear @ x + translation.  The linear part lies in the finite Weyl
group W0 (an orthogonal matrix permuting the roots), the translation
part in the coroot lattice.  This normal form is unique once an origin
is fixed; the representation always uses the origin 0.

The affine reflection r_{alpha,j} fixes the hyperplane <x, alpha> = j.
As an element it has linear part (I - alpha-check alpha^T) and
translation part j * alpha-check.  The pairs (alpha, j) and
(-alpha, -j) describe the same reflection; AffineReflection normalises
to the lexicographically positive root, so equality of reflections is
equality of fields.

Fixed sets are affine subspaces, canonicalised so that structural
equality is subspace equality.  Move spaces of linear parts are integer
row bases (linear_move_space).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from typing import Sequence

from .linalg import (
    Mat,
    Vec,
    dot,
    identity_matrix,
    in_span,
    int_residual,
    is_zero,
    mat_mul,
    mat_vec,
    primitive_rref,
    project_off,
    rref,
    rref_pivots,
    scale_to_ints,
    scaled_ints,
    solve_affine,
    transpose,
    vadd,
    vsub,
    zero_vec,
)
from .rootsys import RootSystem, coroot, reflect


@dataclass(frozen=True)
class AffineSubspace:
    """b + span(directions), canonical.

    directions is the RREF basis of the direction space and base is the
    unique point of the subspace orthogonal to it, so equal subspaces
    compare equal field by field.  The empty set is its own flag.
    """

    base: Vec
    directions: Mat
    is_empty: bool = False

    @staticmethod
    def from_point_and_directions(base: Vec, directions) -> AffineSubspace:
        rows, _ = rref(tuple(directions))
        return AffineSubspace(base=project_off(base, rows), directions=rows)

    @staticmethod
    def empty(ambient_dim: int) -> AffineSubspace:
        return AffineSubspace(base=zero_vec(ambient_dim), directions=(), is_empty=True)

    @property
    def dim(self) -> int:
        if self.is_empty:
            raise ValueError("empty subspace has no dimension")
        return len(self.directions)

    def contains_point(self, x: Vec) -> bool:
        if self.is_empty:
            return False
        return is_zero(project_off(vsub(x, self.base), self.directions))

    def contains_subspace(self, other: AffineSubspace) -> bool:
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return self.contains_point(other.base) and all(
            in_span(self.directions, d) for d in other.directions
        )


@dataclass(frozen=True)
class AffineElement:
    """x -> linear @ x + translation."""

    linear: Mat
    translation: Vec

    @property
    def dim(self) -> int:
        return len(self.translation)

    def apply(self, x: Vec) -> Vec:
        return vadd(mat_vec(self.linear, x), self.translation)

    def is_identity(self) -> bool:
        return is_zero(self.translation) and self.linear == identity_matrix(self.dim)


def identity_element(ambient_dim: int) -> AffineElement:
    return AffineElement(identity_matrix(ambient_dim), zero_vec(ambient_dim))


def translation_element(v: Vec) -> AffineElement:
    return AffineElement(identity_matrix(len(v)), tuple(v))


def compose(a: AffineElement, b: AffineElement) -> AffineElement:
    """a after b: (compose(a, b))(x) = a(b(x))."""
    return AffineElement(
        linear=mat_mul(a.linear, b.linear),
        translation=vadd(mat_vec(a.linear, b.translation), a.translation),
    )


def inverse(a: AffineElement) -> AffineElement:
    # linear parts are orthogonal, so the inverse matrix is the transpose
    lt = transpose(a.linear)
    return AffineElement(linear=lt, translation=tuple(-x for x in mat_vec(lt, a.translation)))


def product(factors) -> AffineElement:
    """Left-to-right product; factors may be elements or reflections."""
    items = list(factors)
    if not items:
        raise ValueError("empty product has no ambient dimension; use identity_element")
    first = items[0]
    out = first.to_element() if isinstance(first, AffineReflection) else first
    for f in items[1:]:
        out = times_reflection(out, f) if isinstance(f, AffineReflection) else compose(out, f)
    return out


def times_reflection(x: AffineElement, r: AffineReflection) -> AffineElement:
    """x r, as a rank-one update: with r = (I - a^vee a^T, j a^vee) and
    c = A a^vee, the product is (A - c a^T, mu + j c)."""
    c = _times_sparse(x.linear, r.coroot)
    translation = x.translation
    if r.level:
        translation = tuple(m + r.level * ci for m, ci in zip(translation, c))
    return AffineElement(linear=_rank_one_update(x.linear, c, r.root), translation=translation)


def _times_sparse(m: Mat, v: Vec) -> Vec:
    """m v, summing over the nonzero entries of v only (a root has at
    most four)."""
    support = [(k, y) for k, y in enumerate(v) if y]
    return tuple(sum(row[k] * y for k, y in support) for row in m)


def _rank_one_update(m: Mat, col: Vec, row: Vec) -> Mat:
    """m - col row^T, exactly."""
    support = [j for j, y in enumerate(row) if y]
    out = []
    for mi, c in zip(m, col):
        if c:
            mi = list(mi)
            for j in support:
                mi[j] -= c * row[j]
            mi = tuple(mi)
        out.append(mi)
    return tuple(out)


@dataclass(frozen=True)
class AffineReflection:
    """The reflection fixing <x, root> = level, root normalised positive."""

    root: Vec
    level: int

    @staticmethod
    def make(root: Vec, level) -> AffineReflection:
        if Q(level).denominator != 1:
            raise ValueError(f"reflection level must be an integer, got {level}")
        level = int(level)
        nonzero = next((x for x in root if x != 0), None)
        if nonzero is None:
            raise ValueError("reflection root must be nonzero")
        if nonzero < 0:
            root, level = tuple(-x for x in root), -level
        return AffineReflection(tuple(Q(x) for x in root), level)

    @cached_property
    def coroot(self) -> Vec:
        """root-check, computed once per reflection."""
        return coroot(self.root)

    def to_element(self) -> AffineElement:
        av = self.coroot
        n = len(self.root)
        linear = tuple(
            tuple((Q(1) if i == j else Q(0)) - av[i] * self.root[j] for j in range(n))
            for i in range(n)
        )
        return AffineElement(linear=linear, translation=tuple(self.level * c for c in av))

    def conjugated_by_reflection(self, s: AffineReflection) -> AffineReflection:
        """s r s, without building matrices: the root reflects and the
        level shifts by the Cartan pairing, s_{a,j} r_{b,k} s_{a,j} =
        r_{s_a(b), k - j <a^vee, b>}."""
        new_root = reflect(s.root, self.root)
        pairing = dot(coroot(s.root), self.root)
        return AffineReflection.make(new_root, self.level - s.level * pairing)


def linear_move_space(linear: Mat) -> tuple[tuple[int, ...], ...]:
    """Im(linear - I) as primitive_rref rows: its RREF basis, each row
    scaled to primitive integers with a positive pivot.  Computed
    fraction-free from the columns of linear - I times the lcm of the
    denominators."""
    den, rows = scale_to_ints(linear)
    cols = [list(col) for col in zip(*rows)]
    for j, col in enumerate(cols):
        col[j] -= den
    return primitive_rref(cols)


def elliptic_rank(linear: Mat) -> int:
    return len(linear_move_space(linear))


def fixed_set(rs: RootSystem, a: AffineElement) -> AffineSubspace:
    """Solutions of (linear - I)x = -translation, intersected with the
    span of the roots (for type A and G2 the ambient space is one
    dimension larger than the space the group acts on)."""
    n = a.dim
    ident = identity_matrix(n)
    m = tuple(tuple(a.linear[i][j] - ident[i][j] for j in range(n)) for i in range(n))
    sol = solve_affine(m, tuple(-x for x in a.translation))
    if sol is None:
        return AffineSubspace.empty(n)
    base, kernel = sol
    if rs.ambient_dim > rs.rank:
        ones = tuple(Q(1) for _ in range(n))
        s = sum(base) / n
        base = tuple(x - s for x in base)
        kernel = tuple(project_off(k, (ones,)) for k in kernel)
    return AffineSubspace.from_point_and_directions(base, kernel)


def is_elliptic(a: AffineElement) -> bool:
    """True iff the translation part lies in Im(linear - I), equivalently
    iff the fixed set is nonempty."""
    basis = linear_move_space(a.linear)
    return int_residual(basis, rref_pivots(basis), scaled_ints(a.translation)) is None


def _w0_permutation(rs: RootSystem, linear: Mat) -> tuple[int, ...]:
    """The root permutation of linear, or ValueError unless linear lies in
    W0.  Only the simple roots a_i are imaged, through the integer rows
    of den times linear (linalg.scale_to_ints): each image must be den
    times a root v_i.  While some v_i is negative (negative coroot
    coordinates), linear s_i sends a_j to s_{v_i}(v_j), an index lookup
    in RootTables.reflected, and is one shorter than linear if linear is
    in W0; within |Phi+| such steps the images must become the simple
    roots.  Then linear agrees on the root span with the word read
    backwards, and for A_n and G2 it must also fix the all-ones line off
    the root span: scaled rows sum to den.  Together these prove linear
    is that element of W0, whose root permutation the word folds to on
    RootTables.reflected."""
    tables = rs.tables
    den, rows = scale_to_ints(linear)
    if len(rows) != rs.ambient_dim or any(len(row) != rs.ambient_dim for row in rows):
        raise ValueError("linear part does not preserve the root system")
    images = []
    for a in tables.simple:
        support = [(k, x) for k, x in enumerate(tables.int_roots[a]) if x]
        image = tuple(sum(row[k] * x for k, x in support) for row in rows)
        b = None if any(y % den for y in image) else tables.int_index.get(tuple(y // den for y in image))
        if b is None:
            raise ValueError("linear part does not preserve the root system")
        images.append(b)
    coords, word = tables.coroot_coords, []
    while (i := next((i for i, b in enumerate(images) if sum(coords[b]) < 0), None)) is not None:
        if 2 * len(word) == len(coords):
            break
        moves = tables.reflected[images[i]]
        images = [moves[b] for b in images]
        word.append(i)
    if (rs.ambient_dim > rs.rank and any(sum(row) != den for row in rows)) or images != list(tables.simple):
        raise ValueError("linear part is not an element of W0")
    return tables.fold((tables.simple[i], 0) for i in reversed(word))[0]


def require_group_element(rs, a: AffineElement) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Check membership in the affine Weyl group: the linear part must
    lie in W0 and the translation part in the coroot lattice; return
    (root permutation, simple-coroot coordinates)."""
    if a.dim != rs.ambient_dim:
        raise ValueError(
            f"element acts on dimension {a.dim}, root system lives in {rs.ambient_dim}"
        )
    den, (vi,) = scale_to_ints((a.translation,))
    return _w0_permutation(rs, a.linear), require_lattice_coords(rs, vi, den)


def require_lattice_coords(rs, vi: Sequence[int], den: int) -> tuple[int, ...]:
    """The simple-coroot coordinates of the translation vi / den, for
    integers vi and den > 0, or ValueError naming it."""
    coords = rs.scaled_lattice_coords(vi, den)
    if coords is None:
        raise ValueError("translation part (" + ", ".join(str(Q(x, den)) for x in vi) + ") is not in the coroot lattice")
    return coords
