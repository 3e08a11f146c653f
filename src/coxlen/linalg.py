"""Exact linear algebra on tuples of Fractions and of integers.

Vectors are tuples of rationals, matrices are tuples of row vectors.
Most functions take Fractions; rref also accepts integer rows and
returns Fractions.  Everything here is exact: no floats, no tolerances.
Rank and span questions must come out right on the nose because the
geometry modules branch on them.

Subspaces are normalised to reduced row echelon form so that equal
subspaces have equal representations.  The integer form of a subspace is
primitive_rref, its RREF rows scaled to primitive integers; span tests
against it (int_residual) are fraction-free, a chain of reduce_int.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction as Q
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Q, ...]
Mat = tuple[Vec, ...]


def vec(xs: Iterable) -> Vec:
    return tuple(Q(x) for x in xs)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def zero_vec(n: int) -> Vec:
    return (Q(0),) * n


def is_zero(v: Vec) -> bool:
    return all(x == 0 for x in v)


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def smul(c, a: Vec) -> Vec:
    c = Q(c)
    return tuple(c * x for x in a)


def dot(a: Vec, b: Vec) -> Q:
    return sum((x * y for x, y in zip(a, b, strict=True)), Q(0))


def identity_matrix(n: int) -> Mat:
    return tuple(tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n))


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def rref(rows: Sequence[Vec]) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form.

    Returns the nonzero rows (each with leading entry 1 and zeros above
    and below its pivot) together with the pivot column indices.  The
    result depends only on the span of the input rows, which is what
    makes it usable as a canonical form.
    """
    work = [list(r) for r in rows if not is_zero(r)]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        # a Fraction pivot keeps integer rows exact
        inv = Q(work[r][c])
        work[r] = [x / inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    out = tuple(tuple(row) for row in work[:r])
    return out, tuple(pivots)


def rref_pivots(basis: Sequence[Vec]) -> tuple[int, ...]:
    """Pivot columns of rows already in reduced row echelon form: the
    first nonzero column of each row."""
    return tuple(next(j for j, x in enumerate(row) if x) for row in basis)


def reduce_int(v: list[int], b: list[int], p: int) -> list[int] | None:
    """v modulo the line through b (with b[p] != 0), fraction-free and
    divided by the gcd; None when v lies on that line.  With b[p] > 0 the
    result is a positive multiple of v - (v[p] / b[p]) b."""
    c = v[p]
    if c == 0:
        return v
    bp = b[p]
    w = [bp * x - c * y for x, y in zip(v, b)]
    g = gcd(*w)
    if g == 0:
        return None
    return w if g == 1 else [x // g for x in w]


def primitive_rref(rows: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical integer basis of the rational span of integer rows: the
    rows of its reduced row echelon form, each scaled to primitive
    integers with a positive pivot, so equal spans give equal tuples.
    Fraction-free: rref(mat(result)) is the RREF of the span."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    for v in rows:
        for b, p in zip(basis, pivots):
            v = reduce_int(v, b, p)
            if v is None:
                break
        q = None if v is None else next((j for j, x in enumerate(v) if x), None)
        if q is None:
            continue
        g = gcd(*v)
        v = [x // (g if v[q] > 0 else -g) for x in v]
        basis = [reduce_int(b, v, q) for b in basis]
        k = bisect(pivots, q)
        basis.insert(k, v)
        pivots.insert(k, q)
    return tuple(tuple(b) for b in basis)


def int_residual(
    basis: Sequence[Sequence[int]], pivots: Sequence[int], v: Sequence[int]
) -> Sequence[int] | None:
    """v modulo the span of primitive_rref rows with these pivots, for an
    integer vector v: a positive multiple of reduce_against's residual,
    or None when v lies in the span."""
    for b, p in zip(basis, pivots):
        v = reduce_int(v, b, p)
        if v is None:
            return None
    return v if any(v) else None


def int_kernel(basis: Sequence[Sequence[int]], pivots: Sequence[int], n: int) -> tuple[tuple[int, ...], ...]:
    """An integer basis of the vectors of length n orthogonal to the
    primitive_rref rows basis with these pivots: one per free column f,
    den at f and -den b[f] / b[p] at the pivot p of each row b, den the
    lcm of the pivot entries."""
    den = lcm(*(b[p] for b, p in zip(basis, pivots)))
    out = []
    for f in range(n):
        if f not in pivots:
            v = [0] * n
            v[f] = den
            for b, p in zip(basis, pivots):
                v[p] = -den // b[p] * b[f]
            out.append(tuple(v))
    return tuple(out)


def scale_to_ints(rows: Sequence[Sequence[Q]]) -> tuple[int, list[list[int]]]:
    """(den, the rows times den as integers), den the lcm of every
    denominator in the rows; fraction-free, numerator times a quotient of
    denominators."""
    den = lcm(*(x.denominator for r in rows for x in r))
    return den, [[x.numerator * (den // x.denominator) for x in r] for r in rows]


def scaled_ints(v: Sequence[Q]) -> list[int]:
    """v times the lcm of its denominators: a positive multiple of v in
    integers."""
    return scale_to_ints((v,))[1][0]


def int_line_rep(v: Sequence[int]) -> tuple[int, ...]:
    """line_rep of a nonzero integer vector, as a tuple of ints (it
    compares and hashes equal to line_rep's Fractions)."""
    g = gcd(*v)
    if next(filter(None, v)) < 0:
        g = -g
    return tuple(v) if g == 1 else tuple(x // g for x in v)


def reduce_against(basis: Mat, pivots: tuple[int, ...], v: Vec) -> Vec:
    """Residual of v after subtracting the RREF basis combination matching
    its pivot coordinates.  Zero residual means v lies in the span."""
    out = list(v)
    for row, p in zip(basis, pivots):
        c = out[p]
        if c != 0:
            out = [x - c * y for x, y in zip(out, row)]
    return tuple(out)


def in_span(rows: Sequence[Vec], v: Vec) -> bool:
    basis, pivots = rref(rows)
    return is_zero(reduce_against(basis, pivots, v))


def solve_combination(vectors: Sequence[Vec], target: Vec) -> tuple[Q, ...] | None:
    """Coefficients c with sum(c_i * vectors_i) = target, or None.

    Solved by row reducing the transposed augmented system; returns one
    solution (free coefficients set to zero)."""
    if not vectors:
        return () if is_zero(target) else None
    aug = [list(col) + [t] for col, t in zip(zip(*vectors), target)]
    n = len(vectors)
    reduced, pivots = rref(mat(aug))
    coeffs = [Q(0)] * n
    for row, p in zip(reduced, pivots):
        if p == n:
            return None  # pivot in augmented column: inconsistent
        coeffs[p] = row[n]
    return tuple(coeffs)


def solve_affine(m: Mat, b: Vec) -> tuple[Vec, Mat] | None:
    """All solutions of m x = b as (particular, kernel_basis), or None."""
    ncols = len(m[0]) if m else len(b)
    aug = mat([list(row) + [bi] for row, bi in zip(m, b)])
    reduced, pivots = rref(aug)
    if ncols in pivots:
        return None
    particular = [Q(0)] * ncols
    for row, p in zip(reduced, pivots):
        particular[p] = row[ncols]
    kernel_rows = []
    pivot_set = set(pivots)
    for free in range(ncols):
        if free in pivot_set:
            continue
        kv = [Q(0)] * ncols
        kv[free] = Q(1)
        for row, p in zip(reduced, pivots):
            kv[p] = -row[free]
        kernel_rows.append(tuple(kv))
    return tuple(particular), tuple(kernel_rows)


def orthogonalize(rows: Sequence[Vec]) -> Mat:
    """Gram-Schmidt without normalisation (stays rational)."""
    basis: list[Vec] = []
    for v in rows:
        w = v
        for g in basis:
            w = vsub(w, smul(dot(w, g) / dot(g, g), g))
        if not is_zero(w):
            basis.append(w)
    return tuple(basis)


def project_off(v: Vec, rows: Sequence[Vec]) -> Vec:
    """Component of v orthogonal to span(rows)."""
    for g in orthogonalize(rows):
        v = vsub(v, smul(dot(v, g) / dot(g, g), g))
    return v


def line_rep(v: Vec) -> Vec:
    """Canonical representative of the line through v: primitive integer
    coordinates, first nonzero entry positive.  Requires v != 0."""
    ints = scaled_ints(v)
    if not any(ints):
        raise ValueError("the zero vector spans no line")
    return vec(int_line_rep(ints))
