"""Reflection length in affine Coxeter groups.

For an element w with linear part A and translation part lam:

  e(w) = rank(A - I), the dimension of the move-set of the linear part;
  d(w) = the minimal number of roots whose images span the image of lam
         in the quotient V / Im(A - I);
  dim(w) = d(w) + e(w), the dimension of the smallest root subspace
         containing the move-set of w;
  reflection length = 2 d(w) + e(w).

Both terms are read off the image of lam and of the roots in the
quotient V / Im(A - I), as canonical integer line representatives; a
translation reads RootSystem.root_lines.  The root basis of the move
space takes the first independent roots inside it, in root order.

G2 and F4 read both terms off the table of root subspaces that
build_root_system makes for them (rootsys.FlatTable).  Mov(u) is found
there by its roots, those that pair to zero with the orbit sums of the
simple roots (sums of the roots over cycles of the root permutation,
which span the fixed space within the root span), and d + e is the
least dimension of a root subspace that contains Mov(u) and holds lam,
as the paper defines dim(w); the witness is the least greedy basis of
the quotient lines over those least subspaces (_flat_search).  Nothing
is searched and nothing eliminated but the residuals of the roots of
those subspaces.

For A-D, u permutes the coordinates up to sign, u e_k = sigma_k e_s(k),
read off the images of a few roots under the root permutation
(RootTables.coordinate_roots), and everything comes from the cycles of
that signed permutation (Carter; for type A, McCammond-Petersen), with
no elimination: Fix(u) is spanned by one vector v_B per positive cycle
B (the product of its signs is 1), so e = #coordinates - #positive
cycles, and the image of a vector a in V / Mov(u) is <a, v_B> at the
largest coordinate of each positive cycle (_cycle_key), the residual of a
modulo the reduced echelon rows of Mov(u).  A root lies in Mov(u) exactly
when its image is zero.  d = #positive cycles - nu(mu_B), mu_B = <mu,
v_B>, with nu the most zero blocks in a partition of the cycles
(zero_block_count, signed for B-D): _null_partition_d, the one home of
that rule, which genfun also reads.  For type A the d-search runs only
at that subset size, for the witness, and a search that finds another
size raises AssertionError.  Types B-D try subset sizes k = 1, 2, ... of
the projected root lines (the span search).
For each k it walks prefixes of independent lines depth first, keeping
the target and the remaining lines reduced modulo the prefix as
canonical integer line representatives (fraction-free elimination).  Of
the lines parallel modulo a prefix only the first is kept, and the last
two lines come from one pass that groups the remaining lines by their
image modulo the target; the span search cap counts the lines that pass
reduces.  Both keep the lexicographically first witness.  The search is
exact but still exponential in the worst case (the underlying problem
contains subset-sum).

Factorisations mirror the structure above: peel d level-zero reflections
to reach an elliptic element whose move-set is the witness subspace,
then factor the elliptic part through a common fixed point, in one pass
over the positive roots on the root permutation of its linear part.
The pass tracks the move space by fixed vectors, with no elimination:
the orbit sums of the simple roots, and per peeled root a the sum of
the roots in a's cycle under the new permutation (Brady-Watt: peeling a
root of the move space lowers its dimension by one).  Levels through the
fixed point are weighted sums of pairings along one root cycle.
Hurwitz moves act on factorisations, and the translation-elliptic split
searches the Hurwitz orbit for a factorisation whose leading reflection
pairs project to equal reflections of W0, so that each pair multiplies
to a translation.  That search moves (root index, level) pairs through
the integer tables of RootSystem.tables, keys each state by its root
indices, built from its parent's key, and tests each state for a shared
pair as it generates it, so it stops at the first state that has one.

The integer core (pair_report, pair_factorization, pair_split) takes a
group element as the pair of the root permutation of its linear part and
the simple-coroot coordinates of its translation.  RootTables.fold
multiplies (root index, level) factors onto such a pair, one lookup and
one integer vector add per factor, and every factorisation and split is
checked by comparing pairs.  Each public function reads the root
permutation of its AffineElement once, checking that it lies in W0, runs
the integer core on it and builds Fraction elements only for outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from itertools import compress, islice, product as iproduct, takewhile
from math import gcd
from operator import mul, or_
from typing import Literal, Sequence

from .affgroup import (
    AffineElement,
    AffineReflection,
    _w0_permutation,
    identity_element,
    product,
    require_group_element,
    translation_element,
)
from .errors import BudgetExceeded
from .linalg import Vec, int_line_rep, int_residual, scaled_ints
from .rootsys import Flat, RootSystem

DEFAULT_HURWITZ_BUDGET = 10**6
DEFAULT_SPAN_SEARCH_CAP = 10**6
# bits of the bitsets zero_block_count may build: states x (k + 1) x (2 off + 1)
DEFAULT_NULLITY_BITS_CAP = 1 << 34


def _quotient_lines(
    rs: RootSystem, ubasis: tuple[tuple[int, ...], ...], upivots: tuple[int, ...], mask: int = -1
) -> dict[tuple[int, ...], Vec]:
    """Nonzero images of roots in the quotient by the span of primitive_rref
    rows ubasis, deduped up to scalar: canonical line representative
    (int_line_rep, equal to line_rep of the Fraction residual) -> the
    first positive root lifting it.  Only the roots whose bit is set in
    mask are read."""
    lines: dict[tuple[int, ...], Vec] = {}
    t = rs.tables
    for i, (alpha, a, pos) in enumerate(zip(rs.roots, t.int_roots, t.positive)):
        if not pos or not mask >> i & 1:
            continue
        res = int_residual(ubasis, upivots, a)
        if res is not None:
            lines.setdefault(int_line_rep(res), alpha)
    return lines


def _line_mod(v: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...] | None:
    """int_line_rep of line rep v modulo the line through b, b[p] != 0; None if v is on it."""
    c = v[p]
    if c == 0:
        return v
    w = [b[p] * x - c * y for x, y in zip(v, b)]
    return int_line_rep(w) if any(w) else None


def _min_span_subset(
    lines: dict[tuple[int, ...], Vec],
    target: Sequence[int],
    max_k: int,
    *,
    least: int = 1,
) -> tuple[int, tuple[Vec, ...]]:
    """Smallest k and a witness set of k roots whose projected lines span
    the nonzero integer target (a rational one is scaled to integers);
    the caller guarantees solvability at max_k.  A caller that knows no
    fewer than least lines span the target skips the sizes 2 .. least - 1;
    size 1 is a lookup and always tried.

    The witness is the lexicographically first linearly independent
    k-subset of the sorted line keys whose span contains the target.  For
    each k a depth-first walk over independent prefixes, in that order,
    carries the target and the later lines reduced modulo the prefix, as
    canonical line representatives.  A later line that reduces to zero is
    dependent on the prefix and dropped, and so is one parallel modulo
    the prefix to an earlier later line: swapping it for that line spans
    the same and is lexicographically smaller.  A prefix of k - 2 lines
    leaves a residual target r parallel to no later line (a smaller subset
    would have spanned it), and then two later lines, not parallel modulo
    the prefix, complete a spanning k-subset exactly when they are
    parallel modulo r: one pass reduces every later line modulo r and
    returns the first line with a partner after it, and that partner.
    DEFAULT_SPAN_SEARCH_CAP, read at each call, bounds the later lines
    reduced by these passes, summed over all k; a search that needs more
    raises BudgetExceeded.
    """
    cap = DEFAULT_SPAN_SEARCH_CAP
    tkey = int_line_rep(scaled_ints(target))
    if max_k and tkey in lines:
        return 1, (lines[tkey],)
    keys = sorted(lines)
    tested = 0

    def complete(t: tuple[int, ...], later: list[tuple[int, tuple[int, ...]]], size: int) -> tuple[int, ...] | None:
        """Indices of the first `size` later lines spanning t with the prefix."""
        nonlocal tested
        if size == 2:
            tested += len(later)
            if tested > cap:
                raise BudgetExceeded(
                    f"span search cap {cap} exceeded: {tested} candidate lines tested "
                    f"while searching subsets of size {k}"
                )
            p = next(c for c, x in enumerate(t) if x)
            first: dict[tuple[int, ...], int] = {}
            pairs = [(first.setdefault(_line_mod(v, t, p), i), i) for i, v in later]
            return min(((j, i) for j, i in pairs if j != i), default=None)
        for pos in range(len(later) - size + 1):
            i, b = later[pos]
            p = next(c for c, x in enumerate(b) if x)
            rest: dict[tuple[int, ...], int] = {}
            for j, v in later[pos + 1 :]:
                if (w := _line_mod(v, b, p)) is not None:
                    rest.setdefault(w, j)
            found = complete(_line_mod(t, b, p), [(j, w) for w, j in rest.items()], size - 1)
            if found is not None:
                return (i,) + found
        return None

    start = [(i, tuple(map(int, key))) for i, key in enumerate(keys)]
    for k in range(max(2, least), max_k + 1):
        found = complete(tkey, start, k)
        if found is not None:
            return k, tuple(lines[keys[i]] for i in found)
    raise AssertionError("projected root lines failed to span their own span")


def zero_block_count(sums: Sequence[int], signed: bool, bare: int = 0) -> int:
    """nu, the most zero blocks in a partition of the positions of sums.

    For a classical element t_lam u, sums are the images <lam, v_B> of lam
    on the fixed vectors v_B of the cycles B of u (Im(u - I) is their
    orthogonal complement), and d = len(sums) - nu.  Type A is unsigned:
    every position lies in a zero block, whose sums add to 0 (null
    partitions, McCammond-Petersen; ValueError unless all add to 0).
    Types B-D are signed: a zero block is one whose sums cancel under some
    choice of signs, and the positions in no zero block form one free
    block, uncounted and possibly empty, except that the single position i
    with bit i set in the mask bare may not be the free block (type D, a
    cycle of size 1 when u has no negative cycle).  Placing copies of the
    sums one at a time (signed: with sign + or -, or into the free block),
    a block closes each time the running total returns to 0; the most
    returns depend only on the count placed of each item, a sum (signed:
    its absolute value and whether it is bare): a DP over count vectors.
    Its bitsets hold at most (number of count vectors) x (k + 1) x
    (2 off + 1) bits, off = sum |sums| over their gcd; a DP that could
    need more than DEFAULT_NULLITY_BITS_CAP, read at each call, raises
    BudgetExceeded before it starts.
    """
    k, off = len(sums), sum(map(abs, sums))
    total = off
    if not signed and sum(sums):
        raise ValueError("nullity needs a zero-sum vector")
    # over their gcd the zero blocks stay and the bitsets narrow, worth it from 2^16
    if off >= 1 << 16 and (g := gcd(*sums)) > 1:
        sums, off = [v // g for v in sums], off // g
    # unsigned, a zero sum is a block on its own
    vals = list(map(abs, sums)) if signed else [v for v in sums if v]
    # no block but the whole set closes unless a nonempty subset cancels
    # (unsigned, one of all but the last sum: its complement cancels too)
    seen = 1 << off
    for v in vals if signed else vals[:-1]:
        if seen >> (off - v) & 1:
            break
        seen |= seen << v | seen >> v if signed else seen << off + v >> off
    else:
        return 0 if signed else k - len(vals) + min(len(vals), 1)
    keys = list(zip(vals, [bare >> i & 1 for i in range(k)] if signed else [0] * k))
    items = {key: keys.count(key) for key in keys}
    # reach[u] has bit off + t + r * width if an ordering of the copies
    # counted by u ends at total t after r or more returns to 0.  A copy of
    # v steps back one count and shifts by +-v (unsigned by v, a = off + v)
    width = 2 * off + 1
    zeros = sum(1 << r * width for r in range(k + 1)) << off
    moves, lone, stride = [], [], 1
    for (v, b), c in items.items():
        moves.append([()] + [(stride, v if signed else off + v)] * c)
        lone += [stride] * b
        stride *= c + 1
    if (bits := stride * (k + 1) * width) > DEFAULT_NULLITY_BITS_CAP:
        raise BudgetExceeded(
            f"nullity cap {DEFAULT_NULLITY_BITS_CAP} bits exceeded: {k} sums with sum |sums| = {total} "
            f"need up to {bits} bits"
        )
    reach = [1 << off]
    for u, row in enumerate(islice(iproduct(*reversed(moves)), 1, None), 1):
        x = 0
        for s, a in filter(None, row):
            y = reach[u - s]
            x |= y << a | y >> a if signed else y << a >> off
        reach.append(x | (x & zeros) << width)
    # signed, the free copies counted by stride - 1 - u may not be one bare copy
    ends = [r for u, r in enumerate(reach) if stride - 1 - u not in lone] if signed else reach[-1:]
    return k - len(vals) + max(((r & zeros).bit_length() - 1 - off) // width for r in ends)


def _null_partition_d(family: str, sums: Sequence[int], bare: int = 0) -> int:
    """d of the classical element t_lam u of type family by null
    partitions, the one home of that rule: sums are the images mu_B of a
    multiple mu of lam on the fixed vectors v_B of the positive cycles B
    of u, and d = #cycles - nu(mu_B) (zero_block_count).  Type A is
    unsigned (McCammond-Petersen); B-D are signed (signed cycle types,
    Carter), and type D alone reads bare, the cycles of size 1 when u has
    no negative cycle."""
    return len(sums) - zero_block_count(sums, family != "A", bare if family == "D" else 0)


def _signed_cycles(tables, perm: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
    """(weight, home, tops) of the W0 element u of types A-D with root
    permutation perm.  u e_k = sigma_k e_s(k) is read off the images of
    RootTables.coordinate_roots, at their entry of largest absolute value,
    the positive one if any (for A, the +1 of u(e_k - e_j)).  A positive
    cycle B of s (its signs multiply to 1) has the fixed vector v_B with
    v_s(k) = sigma_k v_k and v_m = 1 at its largest coordinate m: weight[b]
    is v_B at b (0 on the negative cycles), home[b] that m, and tops lists
    the m.  Scanning the starts in descending order, each new cycle starts
    at its m."""
    roots = tables.int_roots
    s, sign = [], []
    for group in tables.coordinate_roots:
        image = roots[perm[group[0]]] if len(group) == 1 else list(map(sum, zip(*(roots[perm[a]] for a in group))))
        top = max(image)
        s.append(image.index(top if top > 0 else min(image)))
        sign.append(1 if top > 0 else -1)
    n = len(s)
    weight, home, tops, seen = [0] * n, [0] * n, [], [False] * n
    for m in reversed(range(n)):
        if seen[m]:
            continue
        cycle, v, k = [], 1, m
        while not seen[k]:
            seen[k] = True
            cycle.append((k, v))
            v *= sign[k]
            k = s[k]
        # back at m, v is the product of the signs of the cycle
        if v == 1:
            tops.append(m)
            for k, v in cycle:
                weight[k], home[k] = v, m
    return weight, home, tops


def _cycle_key(a: Sequence[int], weight: list[int], home: list[int]) -> list[int]:
    """The image of the integer vector a in V / Mov(u), for the
    _signed_cycles (weight, home) of u: <a, v_B> at the largest coordinate
    m of each positive cycle B, 0 elsewhere.  This is the residual of a
    modulo the primitive_rref rows of Mov(u), up to a positive factor:
    those rows pivot on every coordinate but the m (each v_B ends at its
    m), so the residual lives on the m and pairs with each v_B as a does."""
    key = [0] * len(a)
    for x, v, m in zip(a, weight, home):
        if x and v:
            key[m] += v * x
    return key


def _cycle_lines(rs: RootSystem, weight: list[int], home: list[int]) -> tuple[dict[tuple[int, ...], Vec], int]:
    """_quotient_lines modulo Mov(u) off the _signed_cycles (weight, home)
    of u, with no elimination, and the mask of the roots in Mov(u): those
    whose _cycle_key is zero."""
    lines: dict[tuple[int, ...], Vec] = {}
    mask = 0
    t = rs.tables
    for i, (alpha, a, pos) in enumerate(zip(rs.roots, t.int_roots, t.positive)):
        if pos:
            key = _cycle_key(a, weight, home)
            if any(key):
                lines.setdefault(int_line_rep(key), alpha)
            else:
                mask |= 1 << i | 1 << t.negated[i]
    return lines, mask


def _orbit_sum(roots, perm: tuple[int, ...], b: int) -> list[int]:
    """The sum of the integer roots in the cycle of perm through root b."""
    cycle, c = [b], perm[b]
    while c != b:
        cycle.append(c)
        c = perm[c]
    return list(map(sum, zip(*map(roots.__getitem__, cycle))))


def _fixed_sums(tables, perm: tuple[int, ...]) -> list[list[int]]:
    """The nonzero orbit sums of the simple roots under the root
    permutation perm of u.  Averaging over the powers of u projects onto
    Fix(u), so they span Fix(u) within the root span, and a root lies in
    Mov(u) = Fix(u)^perp exactly when it pairs to zero with each."""
    return [y for b in tables.simple if any(y := _orbit_sum(tables.int_roots, perm, b))]


def _root_basis_of_span(rs: RootSystem, e: int, mask: int) -> tuple[Vec, ...]:
    """The first roots, in root order, inside Mov(u) and independent of
    the roots chosen before them: a basis of Mov(u), of dimension e, for
    the W0 element u whose roots in Mov(u) have their bits set in mask
    (every move-set of a Weyl group element is spanned by roots).  The
    chosen roots are kept as residuals modulo those before them, pivoted
    at their first nonzero entry, so int_residual is exact and eliminates
    on at most e rows."""
    chosen: list[Vec] = []
    rows, rpivots = [], []
    for i, (alpha, a) in enumerate(zip(rs.roots, rs.tables.int_roots)):
        if len(chosen) == e:
            break
        if mask >> i & 1 and (r := int_residual(rows, rpivots, a)) is not None:
            chosen.append(alpha)
            rows.append(r)
            rpivots.append(next(j for j, x in enumerate(r) if x))
    if len(chosen) != e:
        raise AssertionError("move-set of a group element must be a root subspace")
    return tuple(chosen)


def _move_mask(tables, fixed) -> int:
    """The mask of the roots in Mov(u), bit a for root a: those that pair
    to zero with fixed, the _fixed_sums of u."""
    mask = 0
    for a, ints in compress(enumerate(tables.int_roots), tables.positive):
        if not any(sum(map(mul, ints, y)) for y in fixed):
            mask |= 1 << a | 1 << tables.negated[a]
    return mask


def _move_flat(tables, fixed) -> Flat:
    """The row of Mov(u) in the table of root subspaces (G2, F4), found
    by its roots (_move_mask)."""
    return tables.flats.by_mask[_move_mask(tables, fixed)]


def _flat_search(rs: RootSystem, flat: Flat, mu) -> tuple[int, tuple[Vec, ...]]:
    """d and the lifted roots of t_lam u, for G2 and F4, off the table of
    root subspaces: flat is the row of Mov(u), and mu a positive integer
    multiple of lam.  d + e is the least dimension of a root subspace that
    contains Mov(u) and holds lam (FlatTable.holding).

    The lifted roots are the witness _min_span_subset finds, the
    lexicographically first independent d-subset of the sorted quotient
    line keys whose span holds lam.  Such a subset spans, with Mov(u),
    one of the least root subspaces R found, and every basis of R / Mov(u)
    drawn from the lines of R spans lam; within one R the lexicographically
    first basis is the greedy one (a matroid fact).  So the witness is the
    least greedy basis over those R, each line lifted to the first
    positive root on it (_quotient_lines of the roots of R)."""
    if flat.holds(mu):
        return 0, ()
    # a translation along a root line is the size-1 lookup of _min_span_subset
    if not flat.dim and (root := rs.root_lines.get(int_line_rep(mu))) is not None:
        return 1, (root,)
    held = rs.tables.flats.holding(mu, flat)
    least = next(held, None)
    if least is None:
        raise AssertionError("projected root lines failed to span their own span")
    d = least.dim - flat.dim
    minimal = [least, *takewhile(lambda f: f.dim == least.dim, held)]
    if flat.dim or d < rs.rank:
        lines = _quotient_lines(rs, flat.rows, flat.pivots, reduce(or_, (R.mask for R in minimal)))
    else:
        lines = rs.root_lines
    keys = sorted(lines)
    best = None
    for R in minimal:
        # the chosen lines are kept as residuals modulo those before them,
        # pivoted at their first nonzero entry, as in _root_basis_of_span;
        # a line lies in R / Mov(u) when its key lies in R
        basis, rows, pivots = [], [], []
        for key in keys if len(minimal) == 1 else filter(R.holds, keys):
            if (r := int_residual(rows, pivots, key)) is not None:
                basis.append(key)
                rows.append(r)
                pivots.append(next(j for j, x in enumerate(r) if x))
                if len(basis) == d:
                    break
        if best is None or basis < best:
            best = basis
    return d, tuple(lines[key] for key in best)


def _span_search(rs: RootSystem, lines, target, sums, max_k: int) -> tuple[int, tuple[Vec, ...]]:
    """d and the lifted roots of t_lam u, for A-D: the span search of the
    image target of lam (a positive integer multiple of it) over the
    quotient lines of Mov(u), at the one size null partitions give for
    type A from the sums of lam over the cycles of u."""
    if not any(target):
        return 0, ()
    rule = _null_partition_d("A", sums) if rs.spec.family == "A" and not sum(sums) else None
    d, lifts = _min_span_subset(lines, target, max_k, least=rule or 1)
    if rule not in (None, d):
        raise AssertionError(f"null partitions give d = {rule}, the span search {d}")
    return d, lifts


@dataclass(frozen=True)
class DimensionReport:
    """A plain value: all four statistics plus a root basis of the witness
    subspace (the minimal root subspace containing the move-set), first
    the roots spanning the elliptic direction space, then the d lifted roots."""

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
    perm, mu = _w0_permutation(rs, w.linear), scaled_ints(w.translation)
    # only A_n and G2 have a root span short of the space: the zero-sum one
    if rs.ambient_dim > rs.rank and sum(mu):
        text = ", ".join(map(str, w.translation))
        raise ValueError(f"translation part ({text}) is not in the root span of {rs.spec}")
    return _report(rs, perm, mu)


def pair_report(rs: RootSystem, perm: tuple[int, ...], coords: tuple[int, ...]) -> DimensionReport:
    """dimension_report of the group element with root permutation perm
    and simple-coroot coordinates coords."""
    return _report(rs, perm, rs.coroot_lattice.combination(coords))


def _report(rs: RootSystem, perm, mu) -> DimensionReport:
    """The report from the root permutation perm of the linear part and a
    positive integer multiple mu of lam.

    For G2 and F4 the fixed sums find the move space in the table of root
    subspaces (_move_flat), and d comes from there (_flat_search).  For
    A-D everything is read off the signed cycles of u (_signed_cycles),
    with no elimination: e = #coordinates - #positive cycles, and the
    quotient lines, the image of lam and the roots of Mov(u) come from
    _cycle_key.  At e = 0, u is the identity, and the lines are
    RootSystem.root_lines and the image mu itself."""
    tables = rs.tables
    if tables.flats is not None:
        flat = _move_flat(tables, _fixed_sums(tables, perm))
        e, mask = flat.dim, flat.mask
        d, lifts = _flat_search(rs, flat, mu)
    else:
        weight, home, tops = _signed_cycles(tables, perm)
        e = len(weight) - len(tops)
        if e:
            lines, mask = _cycle_lines(rs, weight, home)
            target = _cycle_key(mu, weight, home)
        else:
            lines, mask, target = rs.root_lines, 0, mu
        d, lifts = _span_search(rs, lines, target, [target[m] for m in tops], rs.rank - e)
    return DimensionReport(e, d, d + e, 2 * d + e, _root_basis_of_span(rs, e, mask), lifts)


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


def _reflections(rs: RootSystem, pairs) -> ReflectionFactorization:
    """The factorisation with the given (root index, level) pairs, roots positive."""
    return ReflectionFactorization(tuple(AffineReflection(rs.roots[a], k) for a, k in pairs))


def factor_elliptic(rs: RootSystem, v: AffineElement) -> ReflectionFactorization:
    """Write an elliptic element as a product of e(v) reflections with
    linearly independent roots, all through a common fixed point x.

    An elliptic element has d = 0, so this is its minimum factorisation,
    peeled and checked as min_factorization does.
    """
    perm, coords = require_group_element(rs, v)
    rep = pair_report(rs, perm, coords)
    if rep.d:
        raise ValueError("input is not elliptic")
    return _reflections(rs, _min_factorization(rs, rep, perm, coords))


def _peel_elliptic(rs: RootSystem, perm: tuple[int, ...], coords: tuple[int, ...]) -> list[tuple[int, int]]:
    """The reflections, through a common fixed point x, whose product is
    the elliptic group element (perm, coords), as (positive root index,
    level) pairs; unchecked but for the fixed point, which must exist.

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
    same roots as a scan restarted from the top after every peel.  It
    stops when perm reaches the identity, and must reach it.

    Nothing is eliminated.  A root lies in Mov(B) when it pairs to zero
    with fixed vectors spanning Fix(B) in the root span, at first
    _fixed_sums of A, and mu must pair to zero with those for a fixed
    point to exist.  Peeling a adds one vector.  Fix(B) is orthogonal to
    a, so s_a fixes it, and Fix(s_a B) = Fix(B) + R y_a, y_a the sum of
    the roots in the cycle of a under s_a B: a positive multiple of a's
    projection onto Fix(s_a B), nonzero exactly when e drops by one, as
    each peel checks.  Levels come from cycles of the starting A
    (_fixed_point_level), as Mov(B) lies in Mov(A).
    """
    tables = rs.tables
    roots = tables.int_roots
    mu = rs.coroot_lattice.combination(coords)
    fixed = _fixed_sums(tables, perm)
    if any(sum(map(mul, mu, y)) for y in fixed):
        raise AssertionError("element to peel has no fixed point")
    start, identity = perm, tuple(range(len(perm)))
    factors: list[tuple[int, int]] = []
    for a, ints in compress(enumerate(roots), tables.positive):
        if perm == identity:
            break
        if any(sum(map(mul, ints, y)) for y in fixed):
            continue
        level, rest = divmod(*_fixed_point_level(rs, start, mu, a))
        if rest:
            continue
        factors.append((a, level))
        perm = tuple(map(tables.reflected[a].__getitem__, perm))
        y = _orbit_sum(roots, perm, a)
        if sum(map(mul, ints, y)) <= 0:
            raise AssertionError("peeling a root of the move space did not lower e by one")
        fixed.append(y)
    if perm != identity:
        raise AssertionError("move space is not empty after the pass over the positive roots")
    return factors


def _fixed_point_level(rs: RootSystem, perm: tuple[int, ...], mu, a: int) -> tuple[int, int]:
    """(n, q) with <x, root a> = n / q at every fixed point x of the
    element with root permutation perm (linear part A) and translation
    lam = mu / den (mu = CorootLattice.combination of its coordinates),
    for a root a in Mov(A).  Let a_k = A^k a over the cycle of a, of
    length c, so a_c = a.  x = A x + lam and A orthogonal give <x, a_k> =
    <x, a_(k-1)> + <lam, a_k>.  The orbit sum a_1 + ... + a_c, c times the
    projection of a onto Fix(A), is zero for a in Mov(A) = Fix(A)^perp, so
    summing over the cycle leaves <x, a> = sum_(k <= c) k <lam, a_k> / c:
    on int_roots (the roots times scale), n = sum_(k <= c) k <mu,
    int_roots[a_k]> over q = c den scale."""
    roots = rs.tables.int_roots
    n, k, c = 0, 0, a
    while True:
        c = perm[c]
        k += 1
        n += k * sum(map(mul, mu, roots[c]))
        if c == a:
            return n, k * rs.coroot_lattice.den * rs.tables.scale


def min_factorization(rs: RootSystem, w: AffineElement) -> ReflectionFactorization:
    """A factorisation of w into exactly 2d + e reflections: multiply by
    level-zero reflections in the d lifted roots to reach an elliptic
    element whose move-set is the witness subspace, factor that, then
    append the lifted reflections again in reverse."""
    return pair_factorization(rs, *require_group_element(rs, w))


def pair_factorization(rs: RootSystem, perm, coords) -> ReflectionFactorization:
    """min_factorization of the group element (perm, coords)."""
    return _reflections(rs, _min_factorization(rs, pair_report(rs, perm, coords), perm, coords))


def _min_factorization(
    rs: RootSystem, rep: DimensionReport, perm: tuple[int, ...], coords: tuple[int, ...]
) -> tuple[tuple[int, int], ...]:
    """min_factorization of the group element (perm, coords) with report
    rep, as (root index, level) pairs.  Level-zero lifts change only the
    linear part, so the element and the elliptic element peeled share
    their coordinates.

    The check folds the pairs on the integer tables (RootTables.fold) and
    compares the result with (perm, coords).  That pair determines the
    element: its linear part A is the identity off the root span (the
    report found a root basis of Mov(A)), and perm determines A on it.
    """
    lifts = [(rs.root_index[alpha], 0) for alpha in rep.lift_roots]
    peeled, _ = rs.tables.fold(lifts, (perm, coords))
    pairs = tuple(_peel_elliptic(rs, peeled, coords) + lifts[::-1])
    if len(pairs) != rep.length or rs.tables.fold(pairs) != (perm, coords):
        raise AssertionError("minimum factorisation failed verification")
    return pairs


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


def _index_moves(conjugate, f: tuple[tuple[int, int], ...], key: tuple[int, ...]):
    """Every Hurwitz move of a factorisation given as (root index, level)
    pairs, in the order of hurwitz_move(f, i, direction) for i = 0, 1, ...
    and direction right, then left, each with its root-index key; key is
    f's, tuple(a for a, _ in f), and a move changes two of its entries.
    conjugate is RootTables.conjugate."""
    for i in range(len(f) - 1):
        (a, j), (b, k) = f[i], f[i + 1]
        c = conjugate(a, j, b, k)
        yield f[:i] + (c, f[i]) + f[i + 2 :], key[:i] + (c[0], a) + key[i + 2 :]
        c = conjugate(b, k, a, j)
        yield f[:i] + (f[i + 1], c) + f[i + 2 :], key[:i] + (b, c[0]) + key[i + 2 :]


def _hurwitz_states(conjugate, f: tuple[tuple[int, int], ...]):
    """The Hurwitz orbit of f, one state per root-index key, with its key,
    breadth first: f, then each state as _index_moves first reaches it,
    layer by layer.  Lazy, so a caller that stops at a state has generated
    no state after it."""
    key = tuple(a for a, _ in f)
    seen = {key}
    layer = [(f, key)]
    yield f, key
    while layer:
        nxt = []
        for f, key in layer:
            for g, gkey in _index_moves(conjugate, f, key):
                if gkey not in seen:
                    seen.add(gkey)
                    yield g, gkey
                    nxt.append((g, gkey))
        layer = nxt


@dataclass(frozen=True)
class TranslationEllipticSplit:
    """w = translation * elliptic, the dimension reports of both (the
    elliptic part's is w's with d = 0) and a factorisation of the
    elliptic part.  Unpacks as (translation, elliptic)."""

    translation: AffineElement
    elliptic: AffineElement
    translation_report: DimensionReport
    elliptic_report: DimensionReport
    elliptic_factorization: ReflectionFactorization

    def __iter__(self):
        return iter((self.translation, self.elliptic))


def translation_elliptic_split(
    rs: RootSystem, w: AffineElement, budget: int = DEFAULT_HURWITZ_BUDGET
) -> TranslationEllipticSplit:
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
    quotient search is complete, and it is finite.

    The search runs on (root index, level) pairs, one per factor, and
    conjugates by table lookup (RootTables.conjugate), which is
    hurwitz_move on the corresponding reflections.  Each round tests its
    states in breadth-first order as they are generated: the start, then
    each state the first time a move reaches its key, and it stops at the
    first state with a shared pair, so the rest of that layer is never
    generated.  The budget caps the states tested across all rounds, the
    start of each round included: the state that would exceed it raises
    BudgetExceeded before it is tested.
    """
    coords_t, coords_u, rep_t, rep_u, elliptic = pair_split(rs, *require_group_element(rs, w), budget)
    t = translation_element(rs.from_lattice_coords(coords_t))
    return TranslationEllipticSplit(t, AffineElement(w.linear, rs.from_lattice_coords(coords_u)), rep_t, rep_u, elliptic)


def pair_split(rs: RootSystem, perm, coords, budget: int = DEFAULT_HURWITZ_BUDGET):
    """translation_elliptic_split of the group element (perm, coords): the
    simple-coroot coordinates of t and of u, the reports of t and of u,
    and the factorisation of u."""
    rep = pair_report(rs, perm, coords)
    conjugate = rs.tables.conjugate
    pairs: list[tuple[int, int]] = []
    current = _min_factorization(rs, rep, perm, coords)
    visited = 0
    for rnd in range(1, rep.d + 1):
        for f, key in _hurwitz_states(conjugate, current):
            visited += 1
            if visited > budget:
                raise BudgetExceeded(
                    f"Hurwitz search budget {budget} exceeded: {visited} states visited "
                    f"by round {rnd} of {rep.d}; raise it with --budget or COXLEN_BUDGET"
                )
            pos = next((i for i in range(len(key) - 1) if key[i] == key[i + 1]), None)
            if pos is not None:
                break
        else:
            raise AssertionError("Hurwitz orbit exhausted without a shared-root pair")
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


def _split_off(rs, rep, perm, coords, pairs, suffix):
    """w = (perm, coords) = t * u, t the product of the stripped pairs and
    u that of the suffix, checked in integers: folded on RootTables, t must
    have the identity root permutation, u that of w, and their coordinates
    must add up to those of w, since t u = (A, mu_t + mu_u), and t's report
    must give length 2d.  u has w's linear part, so its report is w's rep
    with d = 0; u's peel checks that u is elliptic, as it needs a fixed
    point and _min_factorization checks that e factors fold to u."""
    perm_t, coords_t = rs.tables.fold(pairs)
    perm_u, coords_u = rs.tables.fold(suffix)
    ok = (
        perm_t == tuple(range(len(perm)))
        and perm_u == perm
        and tuple(x + y for x, y in zip(coords_t, coords_u)) == coords
        and (rep_t := _report(rs, perm_t, rs.coroot_lattice.combination(coords_t))).length == 2 * rep.d
    )
    if not ok:
        raise AssertionError("translation-elliptic split failed verification")
    rep_u = replace(rep, d=0, dim=rep.e, length=rep.e, lift_roots=())
    # with no pair stripped d = 0 and u = w, whose peel the suffix already is
    elliptic = suffix if not pairs else _min_factorization(rs, rep_u, perm, coords_u)
    return coords_t, coords_u, rep_t, rep_u, _reflections(rs, elliptic)
