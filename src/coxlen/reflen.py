"""Reflection length in affine Coxeter groups.

For an element w with linear part A and translation part lam:

  e(w) = rank(A - I), the dimension of the move-set of the linear part;
  d(w) = the minimal number of roots whose images span the image of lam
         in the quotient V / Im(A - I);
  dim(w) = d(w) + e(w), the dimension of the smallest root subspace
         containing the move-set of w;
  reflection length = 2 d(w) + e(w).

The d-search tries subset sizes k = 1, 2, ... of the projected root
lines.  For each k it walks prefixes of independent lines depth first,
keeping the target and the remaining lines reduced modulo the prefix as
primitive integer vectors (fraction-free elimination), so extending a
prefix costs one reduction per line and its last line is a parallelism
test.  It is exact but still exponential in the worst case (the
underlying problem contains subset-sum).

Factorisations mirror the structure above: peel d level-zero reflections
to reach an elliptic element whose move-set is the witness subspace,
then factor the elliptic part through a common fixed point.  Hurwitz
moves act on factorisations, and the translation-elliptic split searches
the Hurwitz orbit for a factorisation whose leading reflection pairs
project to equal reflections of W0, so that each pair multiplies to a
translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Literal

from .affgroup import (
    AffineElement,
    AffineReflection,
    compose,
    elliptic_rank,
    fixed_set,
    identity_element,
    is_elliptic,
    is_translation,
    linear_move_space,
    move_set,
    product,
    require_group_element,
)
from .errors import BudgetExceeded
from .linalg import Mat, Vec, dot, in_span, is_zero, line_rep, reduce_against, rref
from .rootsys import RootSystem

DEFAULT_HURWITZ_BUDGET = 10**6
DEFAULT_SPAN_SEARCH_CAP = 10**6


def elliptic_dimension(w: AffineElement) -> int:
    """e(w) = rank(linear - I); depends only on the linear part."""
    return elliptic_rank(w.linear)


def _quotient_lines(rs: RootSystem, ubasis: Mat, upivots: tuple[int, ...]) -> dict[Vec, Vec]:
    """Nonzero images of roots in the quotient by span(ubasis), deduped
    up to scalar.  Maps canonical line representative -> a root lifting it."""
    lines: dict[Vec, Vec] = {}
    for alpha in rs.positive_roots:
        res = reduce_against(ubasis, upivots, alpha)
        if is_zero(res):
            continue
        key = line_rep(res)
        if key not in lines:
            lines[key] = alpha
    return lines


def _min_span_subset(
    lines: dict[Vec, Vec], target: Vec, max_k: int, cap: int = DEFAULT_SPAN_SEARCH_CAP
) -> tuple[int, tuple[Vec, ...]]:
    """Smallest k and a witness set of k roots whose projected lines span
    the (nonzero) target; the caller guarantees solvability at max_k.

    The witness is the lexicographically first linearly independent
    k-subset of the sorted line keys whose span contains the target.  For
    each k a depth-first walk over independent prefixes, in that order,
    carries the target and the later lines reduced modulo the prefix, as
    primitive integer vectors; a line reducing to zero is dependent on the
    prefix and dropped.  A prefix of k - 1 lines leaves a residual target
    r != 0 (a smaller subset would have spanned it), and a later line
    completes a spanning k-subset exactly when its residual is parallel
    to r.  cap bounds the candidate k-subsets tested that way, one per
    prefix of k - 1 lines and independent later line, summed over all k;
    a search that needs more raises BudgetExceeded.
    """
    tkey = line_rep(target)
    if tkey in lines:
        return 1, (lines[tkey],)
    keys = sorted(lines)
    tested = 0

    def complete(t: list[int], later: list[tuple[int, list[int]]], size: int) -> tuple[int, ...] | None:
        """Indices of the first `size` later lines spanning t with the prefix."""
        nonlocal tested
        if size == 1:
            neg = [-x for x in t]
            hit = next((n for n, (_, v) in enumerate(later) if v == t or v == neg), None)
            tested += len(later) if hit is None else hit + 1
            if tested > cap:
                raise BudgetExceeded(
                    f"span search cap {cap} exceeded: {tested} candidate subsets tested "
                    f"while searching subsets of size {k}"
                )
            return None if hit is None else (later[hit][0],)
        for pos in range(len(later) - size + 1):
            i, b = later[pos]
            p = next(c for c, x in enumerate(b) if x)
            rest = [(j, w) for j, v in later[pos + 1 :] if (w := _reduce_int(v, b, p)) is not None]
            found = complete(_reduce_int(t, b, p), rest, size - 1)
            if found is not None:
                return (i,) + found
        return None

    start = [(i, [int(x) for x in key]) for i, key in enumerate(keys)]
    t = [int(x) for x in tkey]
    for k in range(2, max_k + 1):
        found = complete(t, start, k)
        if found is not None:
            return k, tuple(lines[keys[i]] for i in found)
    raise AssertionError("projected root lines failed to span their own span")


def _reduce_int(v: list[int], b: list[int], p: int) -> list[int] | None:
    """v modulo the line through b (with b[p] != 0), fraction-free and
    divided by the gcd; None when v lies on that line."""
    c = v[p]
    if c == 0:
        return v
    bp = b[p]
    w = [bp * x - c * y for x, y in zip(v, b)]
    g = gcd(*w)
    if g == 0:
        return None
    return w if g == 1 else [x // g for x in w]


def differential_dimension(rs: RootSystem, w: AffineElement) -> int:
    """d(w): minimal number of roots spanning the translation part modulo
    the move-set of the linear part."""
    return _differential_data(rs, w)[0]


def _differential_data(rs: RootSystem, w: AffineElement) -> tuple[int, tuple[Vec, ...]]:
    ubasis, upivots = rref(linear_move_space(w.linear))
    res = reduce_against(ubasis, upivots, w.translation)
    if is_zero(res):
        return 0, ()
    lines = _quotient_lines(rs, ubasis, upivots)
    max_k = rs.rank - len(ubasis)
    return _min_span_subset(lines, res, max_k)


def _root_basis_of_span(rs: RootSystem, basis: Mat) -> tuple[Vec, ...]:
    """Roots inside span(basis) forming a basis of it; exists because
    every move-set of a Weyl group element is spanned by roots."""
    chosen: list[Vec] = []
    for alpha in rs.roots:
        if len(chosen) == len(basis):
            break
        if in_span(basis, alpha) and not in_span(chosen, alpha):
            chosen.append(alpha)
    if len(chosen) != len(basis):
        raise AssertionError("move-set of a group element must be a root subspace")
    return tuple(chosen)


@dataclass(frozen=True)
class DimensionReport:
    """All four statistics plus a root basis of the witness subspace (the
    minimal root subspace containing the move-set): first the roots
    spanning the elliptic direction space, then the d lifted roots."""

    e: int
    d: int
    dim: int
    length: int
    elliptic_roots: tuple[Vec, ...]
    lift_roots: tuple[Vec, ...]

    @property
    def witness_roots(self) -> tuple[Vec, ...]:
        return self.elliptic_roots + self.lift_roots


def dimension_report(rs: RootSystem, w: AffineElement) -> DimensionReport:
    ubasis, _ = rref(linear_move_space(w.linear))
    e = len(ubasis)
    d, lifts = _differential_data(rs, w)
    u_roots = _root_basis_of_span(rs, ubasis)
    return DimensionReport(
        e=e, d=d, dim=d + e, length=2 * d + e, elliptic_roots=u_roots, lift_roots=lifts
    )


@dataclass(frozen=True)
class ReflectionFactorization:
    factors: tuple[AffineReflection, ...]

    def __len__(self) -> int:
        return len(self.factors)

    def product(self, ambient_dim: int | None = None) -> AffineElement:
        if not self.factors:
            if ambient_dim is None:
                raise ValueError("empty factorisation needs an explicit ambient dimension")
            return identity_element(ambient_dim)
        return product(self.factors)


def factor_elliptic(rs: RootSystem, v: AffineElement) -> ReflectionFactorization:
    """Write an elliptic element as a product of e(v) reflections with
    linearly independent roots, all through a common fixed point.

    Peels one reflection at a time: take the first root (in canonical
    order) lying in the move-set whose hyperplane through the fixed
    point has integer level and whose peeling drops e by one.  Not every
    root in the move-set gives an integer level (a rotation about a
    deep vertex sees only some of the hyperplanes through it), hence the
    explicit integrality filter.
    """
    require_group_element(rs, v)
    if not is_elliptic(v):
        raise ValueError("input is not elliptic")
    x = fixed_set(rs, v).base
    factors: list[AffineReflection] = []
    current = v
    while True:
        e = elliptic_rank(current.linear)
        if e == 0:
            break
        mov = linear_move_space(current.linear)
        found = None
        for alpha in rs.roots:
            if alpha <= tuple(-c for c in alpha):
                continue  # scan each line once, via its positive representative
            if not in_span(mov, alpha):
                continue
            level = dot(x, alpha)
            if level.denominator != 1:
                continue
            r = AffineReflection.make(alpha, level)
            peeled = compose(r.to_element(), current)
            if elliptic_rank(peeled.linear) == e - 1:
                found = (r, peeled)
                break
        if found is None:
            raise AssertionError("no peelable reflection for an elliptic element")
        factors.append(found[0])
        current = found[1]
    if not current.is_identity():
        raise AssertionError("elliptic peeling did not terminate at the identity")
    return ReflectionFactorization(tuple(factors))


def min_factorization(rs: RootSystem, w: AffineElement) -> ReflectionFactorization:
    """A factorisation of w into exactly 2d + e reflections: multiply by
    level-zero reflections in the d lifted roots to reach an elliptic
    element whose move-set is the witness subspace, factor that, then
    append the lifted reflections again in reverse."""
    require_group_element(rs, w)
    rep = dimension_report(rs, w)
    lifts = [AffineReflection.make(alpha, 0) for alpha in rep.lift_roots]
    v = w
    for r in lifts:
        v = compose(v, r.to_element())
    if not is_elliptic(v):
        raise AssertionError("lifted product failed to become elliptic")
    elliptic_factors = factor_elliptic(rs, v)
    factors = tuple(elliptic_factors.factors) + tuple(reversed(lifts))
    out = ReflectionFactorization(factors)
    if len(factors) != rep.length or out.product(w.dim) != w:
        raise AssertionError("minimum factorisation failed verification")
    return out


HurwitzDirection = Literal["left", "right"]


def hurwitz_move(
    f: ReflectionFactorization, i: int, direction: HurwitzDirection = "right"
) -> ReflectionFactorization:
    """Hurwitz move at position i (0-based, acting on factors i and i+1).

    right: (r, r') -> (r r' r, r);  left: (r, r') -> (r', r' r r').
    Both preserve the product.
    """
    if not 0 <= i < len(f.factors) - 1:
        raise IndexError(f"no adjacent pair at position {i} in a factorisation of length {len(f.factors)}")
    r, rp = f.factors[i], f.factors[i + 1]
    if direction == "right":
        new_pair = (rp.conjugated_by_reflection(r), r)
    elif direction == "left":
        new_pair = (rp, r.conjugated_by_reflection(rp))
    else:
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    return ReflectionFactorization(f.factors[:i] + new_pair + f.factors[i + 2 :])


def translation_elliptic_split(
    rs: RootSystem, w: AffineElement, budget: int = DEFAULT_HURWITZ_BUDGET
) -> tuple[AffineElement, AffineElement]:
    """Split w = t * u with t a translation of length 2d and u elliptic of
    length e, by Hurwitz moves on a minimum factorisation: d rounds,
    each a breadth-first search until some adjacent pair of factors
    shares a root direction, then a deterministic walk bringing that
    pair to the front (two right moves shift a shared pair one slot left
    and conjugate both members by the factor they pass, preserving the
    shared root).  A front pair multiplies to a translation and is
    stripped before the next round.

    Stripping a front pair leaves a factorisation of length two less
    whose product has the same linear part, so e is unchanged and d
    drops by one; the suffix is again a minimum factorisation and the
    rounds compose.  Search states are deduplicated by the projections
    of their factors to W0: the shared-pair goal only depends on the
    projection and Hurwitz moves commute with projecting, so the
    quotient search is complete, and it is finite.  The budget caps
    states visited across all rounds.
    """
    require_group_element(rs, w)
    rep = dimension_report(rs, w)
    if rep.d == 0:
        return identity_element(w.dim), w

    def proj_key(f: ReflectionFactorization) -> tuple[Vec, ...]:
        return tuple(r.root for r in f.factors)

    def shared_pair_at(f: ReflectionFactorization) -> int | None:
        for i in range(len(f.factors) - 1):
            if f.factors[i].root == f.factors[i + 1].root:
                return i
        return None

    pairs: list[AffineReflection] = []
    current = min_factorization(rs, w)
    visited = 0
    for _ in range(rep.d):
        found = None
        seen = {proj_key(current)}
        queue = [current]
        while queue and found is None:
            nxt: list[ReflectionFactorization] = []
            for f in queue:
                visited += 1
                if visited > budget:
                    raise BudgetExceeded("Hurwitz search budget exceeded")
                pos = shared_pair_at(f)
                if pos is not None:
                    found = (f, pos)
                    break
                for i in range(len(f.factors) - 1):
                    for direction in ("right", "left"):
                        g = hurwitz_move(f, i, direction)
                        key = proj_key(g)
                        if key not in seen:
                            seen.add(key)
                            nxt.append(g)
            queue = nxt
        if found is None:
            raise AssertionError("Hurwitz orbit exhausted without a shared-root pair")
        f, pos = found
        while pos > 0:
            f = hurwitz_move(hurwitz_move(f, pos - 1, "right"), pos, "right")
            pos -= 1
        if f.factors[0].root != f.factors[1].root:
            raise AssertionError("bubbling a shared pair broke it")
        pairs.extend(f.factors[:2])
        current = ReflectionFactorization(f.factors[2:])
    t = product(pairs)
    u = product(current.factors) if current.factors else identity_element(w.dim)
    _verify_split(rs, w, t, u, rep)
    return t, u


def _verify_split(rs, w, t, u, rep) -> None:
    ok = (
        is_translation(t)
        and is_elliptic(u)
        and compose(t, u) == w
        and dimension_report(rs, t).length == 2 * rep.d
        and dimension_report(rs, u).length == rep.e
    )
    if not ok:
        raise AssertionError("translation-elliptic split failed verification")
