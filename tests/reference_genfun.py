"""Polynomial factors, the W0 tables as the element loop built them,
local counts and genericity by the span search, and the classification
that computes f at every point of the box, which only the tests use."""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct

from coxlen.errors import BudgetExceeded
from coxlen.genfun import (
    DEFAULT_CLASSIFY_CAP,
    BivariatePolynomial,
    _local_counts,
    enumerate_w0,
)
from coxlen.linalg import Vec, int_residual, is_zero, rref_pivots, scaled_ints
from coxlen.reflen import _min_span_subset, _quotient_lines
from coxlen.rootsys import RootSystem
from reference_rootsys import move_space


def poly_s_plus(k: int) -> BivariatePolynomial:
    """s + k t."""
    return BivariatePolynomial.from_dict({(1, 0): 1, (0, 1): k})


def reference_genfun_tables(rs):
    """genfun._genfun_tables by enumerating W0 and reading each element's
    move space (reference_rootsys.move_space) off its root permutation, one row
    (e, primitive_rref rows, mask of the roots in it, number of elements)
    per distinct space in first-seen order."""
    counts: dict[tuple[tuple[int, ...], ...], int] = {}
    for perm in enumerate_w0(rs).elements:
        key = move_space(rs.tables, perm)
        counts[key] = counts.get(key, 0) + 1
    out = []
    for key, mult in counts.items():
        pivots = rref_pivots(key)
        mask = sum(1 << a for a, r in enumerate(rs.tables.int_roots) if int_residual(key, pivots, r) is None)
        out.append((len(key), key, mask, mult))
    return tuple(out)


@lru_cache(maxsize=None)
def _span_search_rows(rs):
    """(e, move space rows, their pivots, projected root lines, number of
    elements) per reference_genfun_tables row."""
    out = []
    for e, key, _, mult in reference_genfun_tables(rs):
        pivots = rref_pivots(key)
        out.append((e, key, pivots, _quotient_lines(rs, key, pivots), mult))
    return out


def span_search_counts(rs, lam) -> dict[tuple[int, int], int]:
    """genfun._table_counts as it was before the table of root subspaces:
    over the reference_genfun_tables rows, d is the span search of lam
    modulo each move space."""
    x = scaled_ints(lam)
    counts: dict[tuple[int, int], int] = {}
    for e, key, pivots, lines, mult in _span_search_rows(rs):
        res = int_residual(key, pivots, x)
        d = 0 if res is None else _min_span_subset(lines, res, rs.rank - e)[0]
        counts[(d, e)] = counts.get((d, e), 0) + mult
    return counts


def span_search_is_generic(rs, lam) -> bool:
    """genfun.is_generic as it was before the null-partition rule and the
    table: the span search of lam over the root lines needs rank lines."""
    return not is_zero(lam) and _min_span_subset(rs.root_lines, scaled_ints(lam), rs.rank)[0] == rs.rank


def reference_classify_coroots(rs: RootSystem, radius: int) -> dict[BivariatePolynomial, tuple[Vec, ...]]:
    """Group the lattice points with simple-coroot coefficients in
    [-radius, radius] by their exact local generating function.  Classes
    appear in first-seen order over the lexicographic coefficient scan;
    points within a class are sorted.  DEFAULT_CLASSIFY_CAP bounds the
    terms summed over the whole scan (every point sums at least one); a
    scan that needs more raises BudgetExceeded."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    cap = DEFAULT_CLASSIFY_CAP
    classes: dict[BivariatePolynomial, list[Vec]] = {}
    rng = range(-radius, radius + 1)
    total = len(rng) ** rs.rank
    terms = 0

    def exceeded(done: int) -> BudgetExceeded:
        return BudgetExceeded(
            f"classification cap {cap} exceeded: {terms} terms summed over {done} of "
            f"{total} lattice points of {rs.spec} at radius {radius}; use a smaller radius"
        )

    if total > cap:
        raise exceeded(0)
    for done, coeffs in enumerate(iproduct(rng, repeat=rs.rank), 1):
        lam = rs.from_lattice_coords(coeffs)
        counts, summed = _local_counts(rs, lam)
        terms += summed
        if terms > cap:
            raise exceeded(done)
        classes.setdefault(BivariatePolynomial.from_dict(counts), []).append(lam)
    return {f: tuple(sorted(pts)) for f, pts in classes.items()}
