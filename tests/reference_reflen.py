"""Earlier forms of reflen helpers, which the tests compare with the
current ones.

dfs_min_span_subset is the d search as coxlen computed it before lines
parallel modulo the prefix were skipped and the last two lines found in
one pass: a depth-first walk that tests every independent later line
against the residual target.  _root_basis_of_span is the root basis as
coxlen chose it before the chosen roots were kept as reduced residuals:
it takes the primitive_rref of the chosen roots again after each pick.
mask_zero_block_count is nu as zero_block_count computed it before the
DP ran over count vectors: a DP over the masks of positions.
_peel_elliptic is the elliptic peel as it was before the move space was
tracked by orbit sums: it recomputes reference_rootsys.move_space after every
root it peels.  _fixed_point_levels is how the peel read the levels of
its fixed point before they came from one root cycle: one elimination
of the equations <x, A b - b> = <mu, A b> over the simple roots b.  The
cycle formula that replaced it sums k <mu, A^k a> around the cycle of a
and divides by the cycle's length, which holds because a root a of
Mov(A) = Fix(A)^perp has a zero orbit sum: the sum of the A^k a is a
multiple of a's projection onto Fix(A).  pair_split is the
translation-elliptic split as it was before states were tested as they
are generated: it generates each breadth-first layer whole, with keys
rebuilt from every neighbour by _index_moves, before testing any state
in it.  span_search_report is pair_report as G2 and F4 computed it before
d and the witness were read off the table of root subspaces: the span
search of lam modulo reference_rootsys.move_space.
"""
from __future__ import annotations

from math import lcm
from typing import Sequence

from coxlen.errors import BudgetExceeded
from coxlen.linalg import Vec, int_line_rep, int_residual, primitive_rref, reduce_int, rref_pivots, scaled_ints
from coxlen.reflen import (
    DEFAULT_HURWITZ_BUDGET,
    DEFAULT_SPAN_SEARCH_CAP,
    DimensionReport,
    _fixed_sums,
    _min_factorization,
    _min_span_subset,
    _move_mask,
    _quotient_lines,
    _root_basis_of_span as _orbit_root_basis,
    _split_off,
    pair_report,
)
from coxlen.rootsys import RootSystem
from reference_rootsys import move_space


def dfs_min_span_subset(
    lines: dict[tuple[int, ...], Vec],
    target: Sequence[int],
    max_k: int,
) -> tuple[int, tuple[Vec, ...]]:
    """Smallest k and a witness set of k roots whose projected lines span
    the nonzero integer target (a rational one is scaled to integers);
    the caller guarantees solvability at max_k.

    The witness is the lexicographically first linearly independent
    k-subset of the sorted line keys whose span contains the target.  For
    each k a depth-first walk over independent prefixes, in that order,
    carries the target and the later lines reduced modulo the prefix, as
    primitive integer vectors; a line reducing to zero is dependent on the
    prefix and dropped.  A prefix of k - 1 lines leaves a residual target
    r != 0 (a smaller subset would have spanned it), and a later line
    completes a spanning k-subset exactly when its residual is parallel
    to r.  DEFAULT_SPAN_SEARCH_CAP, read at each call, bounds the
    candidate k-subsets tested that way, one per prefix of k - 1 lines and
    independent later line, summed over all k; a search that needs more
    raises BudgetExceeded.
    """
    cap = DEFAULT_SPAN_SEARCH_CAP
    tkey = int_line_rep(scaled_ints(target))
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
            rest = [(j, w) for j, v in later[pos + 1 :] if (w := reduce_int(v, b, p)) is not None]
            found = complete(reduce_int(t, b, p), rest, size - 1)
            if found is not None:
                return (i,) + found
        return None

    start = [(i, [int(x) for x in key]) for i, key in enumerate(keys)]
    t = list(tkey)
    for k in range(2, max_k + 1):
        found = complete(t, start, k)
        if found is not None:
            return k, tuple(lines[keys[i]] for i in found)
    raise AssertionError("projected root lines failed to span their own span")


def _root_basis_of_span(
    rs: RootSystem, basis: tuple[tuple[int, ...], ...], pivots: tuple[int, ...]
) -> tuple[Vec, ...]:
    """Roots inside the span of primitive_rref rows basis forming a basis
    of it, the first such in root order; exists because every move-set of
    a Weyl group element is spanned by roots."""
    chosen: list[Vec] = []
    chosen_ints: list[tuple[int, ...]] = []
    cbasis, cpivots = (), ()
    for alpha, a in zip(rs.roots, rs.tables.int_roots):
        if len(chosen) == len(basis):
            break
        if int_residual(basis, pivots, a) is None and int_residual(cbasis, cpivots, a) is not None:
            chosen.append(alpha)
            chosen_ints.append(a)
            cbasis = primitive_rref(chosen_ints)
            cpivots = rref_pivots(cbasis)
    if len(chosen) != len(basis):
        raise AssertionError("move-set of a group element must be a root subspace")
    return tuple(chosen)


def mask_zero_block_count(sums: Sequence[int], signed: bool, bare: int = 0) -> int:
    """nu, the most zero blocks in a partition of the positions of sums.

    For a classical element t_lam u, sums are the images <lam, v_B> of lam
    on the fixed vectors v_B of the cycles B of u (Im(u - I) is their
    orthogonal complement), and d = len(sums) - nu.  Type A is unsigned:
    every position lies in a zero block, whose sums add to 0 (null
    partitions, McCammond-Petersen).  Types B-D are signed: a zero block
    is one whose sums cancel under some choice of signs, and the positions
    in no zero block form one free block, uncounted and possibly empty,
    except that the single position i with bit i set in the mask bare
    may not be the free block (type D, a cycle of size 1 when u has no
    negative cycle).  A DP over the position masks: zero masks by their
    signed subset sums (a bitset offset by the total), then the best
    partition of each mask with a zero block holding its lowest position.
    """
    k = len(sums)
    full = (1 << k) - 1
    zeros: list[int] = []
    if signed:
        off = sum(map(abs, sums))
        # no zero block at all unless some sum is a signed sum of earlier ones
        seen = 1 << off
        for v in map(abs, sums):
            if seen >> (off + v) & 1:
                break
            seen |= (seen << v) | (seen >> v)
        else:
            return 0
        reach = [1 << off] + [0] * full
        for m in range(1, full + 1):
            low = m & -m
            v = abs(sums[low.bit_length() - 1])
            r = reach[m ^ low]
            reach[m] = (r << v) | (r >> v)
            if reach[m] >> off & 1:
                zeros.append(m)
    else:
        total = [0] * (full + 1)
        for m in range(1, full + 1):
            low = m & -m
            total[m] = total[m ^ low] + sums[low.bit_length() - 1]
            if total[m] == 0:
                zeros.append(m)
    best = [0] + [-1] * full
    for m in range(1, full + 1):
        low = m & -m
        for z in zeros:
            if z & low and z & m == z and best[m ^ z] >= 0:
                best[m] = max(best[m], best[m ^ z] + 1)
    if not signed:
        return best[full]
    return max(
        best[full ^ f] for f in range(full + 1) if not (f & bare and f & (f - 1) == 0)
    )


def _peel_elliptic(rs: RootSystem, perm: tuple[int, ...], coords: tuple[int, ...]) -> list[tuple[int, int]]:
    """The reflections, through a common fixed point x, whose product is
    the elliptic group element (perm, coords), as (positive root index,
    level) pairs; unchecked.

    One pass over the positive roots in canonical order peels each root
    that lies in the current move space and whose hyperplane through x
    has integer level.  Not every root in the move space gives an
    integer level (a rotation about a deep vertex sees only some of the
    hyperplanes through it), hence the explicit integrality filter.

    Works on perm, the root permutation of the linear part A: peeling
    root a replaces A by s_a A.  For a in Mov(A), dim Mov(s_a A) =
    dim Mov(A) - 1 (Brady-Watt), so Mov(s_a A) lies in Mov(A) and misses
    a.  Move spaces only shrink and levels at the fixed point x stay, so
    a root passed over is never peelable later, and one pass peels the
    same roots as a scan restarted from the top after every peel.
    """
    tables = rs.tables
    form, unit = _fixed_point_levels(rs, perm, coords)
    mov = move_space(tables, perm)
    pivots = rref_pivots(mov)
    factors: list[tuple[int, int]] = []
    for a, (ints, pos) in enumerate(zip(tables.int_roots, tables.positive)):
        if not (pos and mov):
            continue
        level, rest = divmod(sum(ints[p] * c for p, c in form), unit)
        if rest or int_residual(mov, pivots, ints) is not None:
            continue
        factors.append((a, level))
        perm = tuple(tables.reflected[a][b] for b in perm)
        peeled = move_space(tables, perm)
        if len(peeled) != len(mov) - 1:
            raise AssertionError("peeling a root of the move space did not lower e by one")
        mov, pivots = peeled, rref_pivots(peeled)
    if mov:
        raise AssertionError("move space is not empty after the pass over the positive roots")
    return factors


def _fixed_point_levels(
    rs: RootSystem, perm: tuple[int, ...], coords: tuple[int, ...]
) -> tuple[tuple[tuple[int, int], ...], int]:
    """(form, unit) with <x, root a> = sum(int_roots[a][p] * c for p, c in
    form) / unit for every root a in Mov(A) and every fixed point x of the
    element (perm, coords): linear part A with root permutation perm and
    translation mu with simple-coroot coordinates coords.

    x = A x + mu and A orthogonal give <x, A b - b> = <mu, A b> for every
    b, and the A b - b over the simple roots span Mov(A) (as in
    reference_rootsys.move_space).  Fraction-free elimination of these integer
    equations leaves <x, r_j> = v_j / den on reduced echelon rows r_j of
    Mov(A) with pivots p_j, and a root a of Mov(A) is the sum of
    a[p_j] / r_j[p_j] times r_j.  Fixed points differ by vectors of
    Fix(A), orthogonal to Mov(A), so every one gives the same levels.
    """
    tables, lattice = rs.tables, rs.coroot_lattice
    mu = lattice.combination(coords)
    roots = tables.int_roots
    rows = primitive_rref(
        [x - y for x, y in zip(roots[perm[i]], roots[i])] + [sum(m * y for m, y in zip(mu, roots[perm[i]]))]
        for i in tables.simple
        if perm[i] != i
    )
    pivots = rref_pivots(rows)
    if len(mu) in pivots:
        raise AssertionError("element to peel has no fixed point")
    common = lcm(*(row[p] for row, p in zip(rows, pivots)))
    form = tuple((p, row[-1] * (common // row[p])) for row, p in zip(rows, pivots))
    return form, common * lattice.den * tables.scale


def _index_moves(conjugate, f: tuple[tuple[int, int], ...]):
    """Every Hurwitz move of a factorisation given as (root index, level)
    pairs, in the order of hurwitz_move(f, i, direction) for i = 0, 1, ...
    and direction right, then left; conjugate is RootTables.conjugate."""
    for i in range(len(f) - 1):
        (a, j), (b, k) = f[i], f[i + 1]
        yield f[:i] + (conjugate(a, j, b, k), f[i]) + f[i + 2 :]
        yield f[:i] + (f[i + 1], conjugate(b, k, a, j)) + f[i + 2 :]


def pair_split(rs: RootSystem, perm, coords, budget: int = DEFAULT_HURWITZ_BUDGET):
    """translation_elliptic_split of the group element (perm, coords): the
    simple-coroot coordinates of t and of u, the reports of t and of u,
    and the factorisation of u."""
    rep = pair_report(rs, perm, coords)
    conjugate = rs.tables.conjugate

    def shared_pair_at(f: tuple[tuple[int, int], ...]) -> int | None:
        for i in range(len(f) - 1):
            if f[i][0] == f[i + 1][0]:
                return i
        return None

    pairs: list[tuple[int, int]] = []
    current = _min_factorization(rs, rep, perm, coords)
    visited = 0
    for rnd in range(1, rep.d + 1):
        found = None
        seen = {tuple(a for a, _ in current)}
        queue = [current]
        while queue and found is None:
            nxt = []
            for f in queue:
                visited += 1
                if visited > budget:
                    raise BudgetExceeded(
                        f"Hurwitz search budget {budget} exceeded: {visited} states visited "
                        f"by round {rnd} of {rep.d}; raise it with --budget or COXLEN_BUDGET"
                    )
                pos = shared_pair_at(f)
                if pos is not None:
                    found = (f, pos)
                    break
                for g in _index_moves(conjugate, f):
                    key = tuple(a for a, _ in g)
                    if key not in seen:
                        seen.add(key)
                        nxt.append(g)
            queue = nxt
        if found is None:
            raise AssertionError("Hurwitz orbit exhausted without a shared-root pair")
        f, pos = found
        while pos > 0:
            # two right moves at pos - 1, then at pos
            (a, j), (b, k), (c, m) = f[pos - 1 : pos + 2]
            f = f[: pos - 1] + (conjugate(a, j, b, k), conjugate(a, j, c, m), (a, j)) + f[pos + 2 :]
            pos -= 1
        if f[0][0] != f[1][0]:
            raise AssertionError("bubbling a shared pair broke it")
        pairs.extend(f[:2])
        current = f[2:]
    return _split_off(rs, rep, perm, coords, pairs, current)


def span_search_report(rs: RootSystem, perm: tuple[int, ...], coords: tuple[int, ...]) -> DimensionReport:
    """pair_report by the span search: the move space is the elimination
    reference_rootsys.move_space, d and the lifted roots come from
    _min_span_subset over its projected root lines, and the root basis
    from pairings with the fixed sums."""
    ubasis = move_space(rs.tables, perm)
    upivots = rref_pivots(ubasis)
    e = len(ubasis)
    res = int_residual(ubasis, upivots, rs.coroot_lattice.combination(coords))
    if res is None:
        d, lifts = 0, ()
    else:
        d, lifts = _min_span_subset(_quotient_lines(rs, ubasis, upivots), res, rs.rank - e)
    u_roots = _orbit_root_basis(rs, e, _move_mask(rs.tables, _fixed_sums(rs.tables, perm)))
    return DimensionReport(e, d, d + e, 2 * d + e, u_roots, lifts)
