"""Polynomial factors, the W0 tables as the element loop built them,
local counts and genericity by the span search, and the classification
that computes f at every point of the box, which only the tests use.

_cycle_options and _partition_counts are the set-partition sum as it was
before covers were merged by what nu can see: every cover keeps its exact
cycle sums, and each distinct multiset of them is one _null_partition_d
call."""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct
from math import factorial

from coxlen.errors import BudgetExceeded
from coxlen.genfun import (
    DEFAULT_CLASSIFY_CAP,
    BivariatePolynomial,
    _local_counts,
    _negative_covers,
    enumerate_w0,
)
from coxlen.linalg import Vec, int_residual, is_zero, rref_pivots, scaled_ints
from coxlen.reflen import _min_span_subset, _null_partition_d, _quotient_lines
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
        counts, summed = _local_counts(rs, scaled_ints(lam))
        terms += summed
        if terms > cap:
            raise exceeded(done)
        classes.setdefault(BivariatePolynomial.from_dict(counts), []).append(lam)
    return {f: tuple(sorted(pts)) for f, pts in classes.items()}


def _cycle_options(x: list[int], family: str) -> list[list[tuple]]:
    """For each nonempty coordinate mask T, the positive cycles on T as
    (item, number of cycles) pairs, one per distinct item: the sum of x
    over T (type A), else |<x, v>| over the fixed-vector classes v, each
    class carrying (|T| - 1)! cycles; type D pairs the item with whether
    |T| is 1."""
    n = len(x)
    sums: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(1, 1 << n)]
    out: list[list[tuple]] = [[]]
    for block in range(1, 1 << n):
        top = block.bit_length() - 1
        below = sums[block ^ (1 << top)]
        # v is +1 on the lowest coordinate of the block
        signs = (1,) if family == "A" or block == 1 << top else (1, -1)
        acc = sums[block]
        for v, c in below.items():
            for sign in signs:
                acc[v + sign * x[top]] = acc.get(v + sign * x[top], 0) + c
        size = block.bit_count()
        items: dict = {}
        for v, c in acc.items():
            item = v if family == "A" else abs(v)
            if family == "D":
                item = (item, size == 1)
            items[item] = items.get(item, 0) + c * factorial(size - 1)
        out.append(list(items.items()))
    return out


def _partition_counts(rs: RootSystem, x: list[int]) -> tuple[dict[tuple[int, int], int], int]:
    """The coefficients (d, e) -> count of f_lam for types A-D by the
    (signed) set-partition sum, and the number of terms summed (multisets
    of cycle sums over all coordinate masks)."""
    family = rs.spec.family
    n = len(x)
    full = (1 << n) - 1
    options = _cycle_options(x, family)
    # covers[S]: sorted items of the positive cycles -> ways to cover S
    covers: list[dict[tuple, int]] = [{(): 1}]
    for mask in range(1, full + 1):
        low = mask & -mask
        rest = mask ^ low
        acc: dict[tuple, int] = {}
        other = rest
        while True:
            block = other | low
            for key, ways in covers[mask ^ block].items():
                for item, c in options[block]:
                    grown = tuple(sorted(key + (item,)))
                    acc[grown] = acc.get(grown, 0) + ways * c
            if not other:
                break
            other = (other - 1) & rest
        covers.append(acc)
    negative = _negative_covers(n)
    counts: dict[tuple[int, int], int] = {}
    ds: dict[tuple[tuple[int, ...], int], int] = {}
    for mask, cover in enumerate(covers):
        # the coordinates outside mask lie in negative cycles (none in type A)
        even, odd = negative[n - mask.bit_count()]
        if family == "A":
            weight = int(mask == full)
        else:
            weight = even if family == "D" else even + odd
        if not weight:
            continue
        for key, ways in cover.items():
            sums, bare = key, 0
            if family == "D":
                sums = tuple(v for v, _ in key)
                if mask == full:
                    bare = sum(1 << i for i, (_, single) in enumerate(key) if single)
            d = ds.get((sums, bare))
            if d is None:
                d = ds[(sums, bare)] = _null_partition_d(family, sums, bare)
            e = n - len(key)
            counts[(d, e)] = counts.get((d, e), 0) + ways * weight
    return counts, sum(map(len, covers))
