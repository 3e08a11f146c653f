"""Local generating functions for reflection length.

For a lattice point lam, the local generating function collects the
statistics of every element with translation part lam:

    f_lam(s, t) = sum over u in W0 of s^d(t_lam u) * t^e(u)

Specialising s -> t^2 turns each monomial into t^length.  At lam = 0
this is the Poincare-style product over the exponents of W0; at generic
lam every factor (1 + e_i t) deforms to (s + e_i t).

Two paths compute the sum.

Types A-D sum over (signed) set partitions of the coordinates and never
enumerate W0.  The cycles of u partition the coordinates.  For type A
(u a permutation of [n+1]) e = n + 1 - k over the k cycles, and the
cycles on one set partition number prod (|B| - 1)!.  For types B-D (u a
signed permutation of [n]) a cycle of size m is negative (sign product
-1; 2^(m-1) (m-1)! of them, no fixed vector) or positive, with a fixed
vector v_B in {+-1}^B up to sign: each of its 2^(m-1) classes carries
(m-1)! cycles.  e = n - k over the k positive cycles, and type D keeps
only an even number of negative cycles.  In both, d is
reflen._null_partition_d of the sums <lam, v_B>, the one home of that
rule (signed cycle types, Carter 1972; null partitions,
McCammond-Petersen 2011).  A DP over the coordinate masks S holds, for
each multiset of cycle sums, the weighted number of ways to cover S by
positive cycles; the negative cycles on the other coordinates only
contribute a weight.

The DP keys covers by what nu can see, not by the exact sums.  A zero
block of cycles covers a zero mask of coordinates (sum 0, or for B-D
some signed sum 0), so only a sum of some block inside a zero mask (a
live sum) can lie in one.  Every other sum becomes one token
(_cycle_options): a key holding it has nu = 1 in type A, and for B-D its
token cycles lie in the free block (_cover_d).  At a generic point no
zero mask exists, so the covers of a mask differ only in their number of
cycles, where the exact sums kept one key per cover (about 2 10^5 at
rank 8).  When every sum is live (lam = 0, or a zero full mask for B-D)
no token is made.

G2 and F4 read f_lam off lam-independent tables, one row per root
subspace M that is the move space Im(u - I) of some u in W0: e(u) is
its dimension and d(t_lam u) + e(u) the least dimension of a root
subspace that contains M and holds lam, so f_lam depends on u only
through M.  The root subspaces are the table that build_root_system
makes for G2 and F4 (rootsys.flat_table), with no W0 enumeration, and
lam is tested against each by its normals, fraction-free.  By
Steinberg's theorem the pointwise stabiliser of Fix(u) is a parabolic
subgroup, conjugate to a standard W_J, so the move spaces are the
W0-images of the spans of the standard parabolic subsystems Phi_J, and
the u with move space M are the elements of the reflection group W_M
of the roots in M with no fixed vector in M.  By Shephard-Todd there
are prod e_i of them over the exponents e_i of W_J, which Kostant's
theorem reads off the heights of the positive roots of Phi_J (the dual
partition).  Each row holds the space and that count, so classifying
many lattice points repeats only the tests of lam against the spaces.
These tables also serve as the reference for types A-D in the tests.

Both paths read lam as integers, x a positive multiple of it: the public
entries check the lattice once (_require_lattice_point), the command
line hands its parsed integers straight to _scaled_local_genfun, and
classify_coroots, which computes f once per W0-orbit of the box, keeps
each point as den lam (CorootLattice.combination).  Fractions are built
only for its output.

W0 itself is enumerated, for the oracle, by breadth-first search over
permutations of the root indices: right multiplication by a simple
reflection s_i is an index lookup in RootSystem.tables.reflected, and
duplicates are found by hashing integer tuples.  An element of W0 is its
root permutation throughout.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from itertools import count, product as iproduct
from math import comb, factorial, gcd, prod
from typing import Sequence

from .errors import BudgetExceeded
from .linalg import Vec, scaled_ints
from .reflen import _null_partition_d
from .rootsys import Flat, FlatTable, RootSystem, RootTables, flat_table

DEFAULT_W0_CAP = 10**5
DEFAULT_CLASSIFY_CAP = 3 * 10**6


@dataclass(frozen=True)
class BivariatePolynomial:
    """Integer polynomial in s and t; terms (a, b, c) means c * s^a t^b,
    stored sorted by (a, b) so equal polynomials are equal tuples."""

    terms: tuple[tuple[int, int, int], ...]

    @staticmethod
    def from_dict(d: dict[tuple[int, int], int]) -> BivariatePolynomial:
        return BivariatePolynomial(
            tuple((a, b, c) for (a, b), c in sorted(d.items()) if c != 0)
        )

    @staticmethod
    def zero() -> BivariatePolynomial:
        return BivariatePolynomial(())

    @staticmethod
    def monomial(a: int, b: int, c: int = 1) -> BivariatePolynomial:
        return BivariatePolynomial.from_dict({(a, b): c})

    def __add__(self, other: BivariatePolynomial) -> BivariatePolynomial:
        d: dict[tuple[int, int], int] = {}
        for a, b, c in self.terms + other.terms:
            d[(a, b)] = d.get((a, b), 0) + c
        return BivariatePolynomial.from_dict(d)

    def __mul__(self, other: BivariatePolynomial) -> BivariatePolynomial:
        d: dict[tuple[int, int], int] = {}
        for a1, b1, c1 in self.terms:
            for a2, b2, c2 in other.terms:
                key = (a1 + a2, b1 + b2)
                d[key] = d.get(key, 0) + c1 * c2
        return BivariatePolynomial.from_dict(d)

    def coefficient(self, a: int, b: int) -> int:
        return next((c for ta, tb, c in self.terms if (ta, tb) == (a, b)), 0)

    def uses_s(self) -> bool:
        return any(a > 0 for a, _, _ in self.terms)

    def specialize(self) -> tuple[int, ...]:
        """Substitute s -> t^2; coefficients ascending in t."""
        if not self.terms:
            return (0,)
        deg = max(2 * a + b for a, b, _ in self.terms)
        out = [0] * (deg + 1)
        for a, b, c in self.terms:
            out[2 * a + b] += c
        return tuple(out)

    def format(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for a, b, c in self.terms:
            factors = []
            if c != 1 or (a == 0 and b == 0):
                factors.append(str(c))
            if a == 1:
                factors.append("s")
            elif a > 1:
                factors.append(f"s^{a}")
            if b == 1:
                factors.append("t")
            elif b > 1:
                factors.append(f"t^{b}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def to_json_terms(self) -> list[list[int]]:
        return [[a, b, c] for a, b, c in self.terms]


def poly_one_plus(k: int) -> BivariatePolynomial:
    """1 + k t."""
    return BivariatePolynomial.from_dict({(0, 0): 1, (0, 1): k})


def poly1_mul(a, b) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def poly1_format(coeffs) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            parts.append(f"{head}t" if i == 1 else f"{head}t^{i}")
    return " + ".join(parts) if parts else "0"


@dataclass(eq=False)
class SphericalGroup:
    """W0 in breadth-first order (word length, then permutation
    lexicographically).  elements holds the root permutations,
    elements[k][b] being the index in RootSystem.roots of the image of
    root b; words one reduced word per element, as indices into the
    simple roots."""

    elements: tuple[tuple[int, ...], ...]
    words: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _require_w0_reach(rs: RootSystem) -> None:
    if rs.w0_size > DEFAULT_W0_CAP:
        raise BudgetExceeded(
            f"W0 of {rs.spec} has order {rs.w0_size}, above the cap {DEFAULT_W0_CAP}"
        )


@lru_cache(maxsize=None)
def enumerate_w0(rs: RootSystem) -> SphericalGroup:
    _require_w0_reach(rs)
    reflected = rs.tables.reflected
    gens = [reflected[i] for i in rs.tables.simple]
    start = (tuple(range(len(rs.roots))), ())
    order = [start]
    seen = {start[0]}
    level = [start]
    while level:
        # first discovery wins, scanning the level in order and the
        # generators in index order
        found: dict[tuple[int, ...], tuple[int, ...]] = {}
        for p, word in level:
            for gi, moves in enumerate(gens):
                q = tuple(p[b] for b in moves)
                if q not in seen and q not in found:
                    found[q] = word + (gi,)
        level = sorted(found.items())
        seen.update(found)
        order.extend(level)
    elements, words = zip(*order)
    return SphericalGroup(elements=elements, words=words)


def _height_exponents(tables: RootTables, inside) -> tuple[int, ...]:
    """The exponents, ascending, of the Weyl group of the standard
    parabolic subsystem whose root indices are inside.  By Kostant's
    theorem they are the dual partition of the heights of its positive
    roots: with m_k positive roots of height k, m_k exponents are at
    least k.  The heights are those of the coroots, the sums of
    coroot_coords (the dual system has the same Weyl group), and a root
    is positive for the simple system when its height is, which the
    lexicographic RootTables.positive is not for G2."""
    m = Counter(h for a in inside if (h := sum(tables.coroot_coords[a])) > 0)
    return tuple(sorted(sum(c > j for c in m.values()) for j in range(m[1])))


@lru_cache(maxsize=None)
def _genfun_tables(rs: RootSystem) -> tuple[FlatTable, tuple[tuple[Flat, int], ...]]:
    """The lam-independent data: the table of root subspaces (the one
    build_root_system made for G2 and F4, else rootsys.flat_table) and,
    per subspace in layer order, the number of elements of W0 whose move
    space it is.  The move spaces are the root subspaces, the W0-images
    of the spans of the standard parabolic subsystems Phi_J (Steinberg),
    so no element of W0 is enumerated.  Every subspace of the orbit of
    span Phi_J counts the elements of a conjugate of W_J with no fixed
    vector in it: prod e_i over the exponents of W_J (Shephard-Todd),
    read off the heights (_height_exponents)."""
    _require_w0_reach(rs)
    tables = rs.tables
    flats = tables.flats or flat_table(tables)
    mults: dict[int, int] = {}
    rows = []
    for layer in flats.layers:
        for flat in layer:
            if flat.standard not in mults:
                inside = [a for a in range(len(rs.roots)) if flat.standard >> a & 1]
                mults[flat.standard] = prod(_height_exponents(tables, inside))
            rows.append((flat, mults[flat.standard]))
    return flats, tuple(rows)


def _off_lattice(rs: RootSystem, lam) -> ValueError:
    return ValueError("(" + ", ".join(map(str, lam)) + f") is not in the coroot lattice of {rs.spec}")


def _require_lattice_point(rs: RootSystem, lam: Vec) -> list[int]:
    if not rs.in_coroot_lattice(lam):
        raise _off_lattice(rs, lam)
    return scaled_ints(lam)


def _table_counts(rs: RootSystem, x: list[int]) -> tuple[dict[tuple[int, int], int], int]:
    """The coefficients (d, e) -> count of f_lam from the W0 tables, and
    the terms summed (its rows): for u with move space M, d + e is the
    least dimension of a root subspace that contains M and holds x."""
    flats, rows = _genfun_tables(rs)
    held = list(flats.holding(x))
    own = {h.mask for h in held}
    counts: dict[tuple[int, int], int] = {}
    for flat, mult in rows:
        # held is ascending in dimension, so the first one above M is least
        top = flat.dim if flat.mask in own else next(h.dim for h in held if h.mask & flat.mask == flat.mask)
        key = (top - flat.dim, flat.dim)
        counts[key] = counts.get(key, 0) + mult
    return counts, len(rows)


def _cycle_options(x: list[int], family: str) -> tuple[list[list[tuple]], int | None]:
    """For each nonempty coordinate mask T, the positive cycles on T as
    (item, number of cycles) pairs, one per distinct item: the sum of x
    over T (type A), else |<x, v>| over the fixed-vector classes v, each
    class carrying (|T| - 1)! cycles; type D pairs the item with whether
    |T| is 1.  And the token that stands for every sum nu cannot see, or
    None when there is none.

    A zero block of cycles covers a zero mask: one whose sum is 0 (type A,
    a proper mask, as the full one always adds to 0), or whose signed sum
    is 0 for some signs (B-D).  So a cycle lies in a zero block only if
    its sum is live: the sum of some block inside a zero mask.  Every
    other sum becomes the token, below any sum, and _cover_d reads the
    token cycles as lying in no zero block.  The map is a function of the
    sum, so covers that were equal stay equal, and at a generic point,
    where no zero mask exists, the covers of a mask collapse to one per
    number of cycles (type D also counts the single coordinates)."""
    n = len(x)
    full = (1 << n) - 1
    sums: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(full)]
    out: list[list[tuple]] = [[]]
    for block in range(1, full + 1):
        top = block.bit_length() - 1
        below, step = sums[block ^ (1 << top)], x[top]
        acc = sums[block]
        for v, c in below.items():
            acc[v + step] = acc.get(v + step, 0) + c
        # v is +1 on the lowest coordinate of the block
        if family != "A" and block != 1 << top:
            for v, c in below.items():
                acc[v - step] = acc.get(v - step, 0) + c
        size = block.bit_count()
        ways = factorial(size - 1)
        if family == "A":
            out.append([(v, c * ways) for v, c in acc.items()])
            continue
        items: dict = {}
        for v, c in acc.items():
            item = (abs(v), size == 1) if family == "D" else abs(v)
            items[item] = items.get(item, 0) + c * ways
        out.append(list(items.items()))
    # every sum is live when x is 0 or (B-D) the full mask is a zero mask
    if not any(x) or family != "A" and 0 in sums[full]:
        return out, None
    # inside[T]: T lies in a zero mask; masks come down from full, so a
    # mask is marked before its submasks are reached.  live holds signed
    # sums, both signs for B-D, whose items are absolute values
    live: set[int] = set()
    inside = [False] * (full + 1)
    for block in range(full, 0, -1):
        if inside[block] or block != full and 0 in sums[block]:
            live.update(sums[block])
            bits = block
            while bits:
                low = bits & -bits
                inside[block ^ low] = True
                bits ^= low
    if family != "A":
        live.update([-v for v in live])
    dead = [block for block in range(1, full + 1) if not inside[block] and not live.issuperset(sums[block])]
    if not dead:
        return out, None
    token = -1 - sum(map(abs, x))
    for block in dead:
        items = {}
        for item, c in out[block]:
            if (item[0] if family == "D" else item) not in live:
                item = (token, item[1]) if family == "D" else token
            items[item] = items.get(item, 0) + c
        out[block] = list(items.items())
    return out, token


def _cover_d(family: str, sums: tuple[int, ...], bare: int, token: int | None) -> int:
    """_null_partition_d of the cycle sums of a cover, whose leading copies
    of token stand for sums that lie in no zero block (_cycle_options).
    Type A puts them in the one block, so nu = 1.  Types B-D put them in
    the free block, which they make nonempty, so no bare rule binds and
    nu is that of the other sums; but one bare token cycle may not be the
    whole free block, so an item too large to cancel stands for it, bare,
    a multiple of the others' gcd so that zero_block_count can still
    narrow them."""
    tokens = sums.count(token)
    if not tokens:
        return _null_partition_d(family, sums, bare)
    if family == "A":
        return len(sums) - 1
    rest = sums[tokens:]
    if tokens == 1 and bare & 1:
        return _null_partition_d(family, rest + (sum(rest) + (gcd(*rest) or 1),), 1 << len(rest))
    return tokens + _null_partition_d(family, rest)


def _negative_covers(n: int) -> list[tuple[int, int]]:
    """covers[N] = (even, odd): the signed permutations of N coordinates
    whose cycles are all negative, by the parity of their number; a
    negative cycle on m given coordinates comes in 2^(m-1) (m-1)! ways."""
    covers = [(1, 0)]
    for size in range(1, n + 1):
        even = odd = 0
        for m in range(1, size + 1):
            ways = comb(size - 1, m - 1) * 2 ** (m - 1) * factorial(m - 1)
            e, o = covers[size - m]
            even += ways * o
            odd += ways * e
        covers.append((even, odd))
    return covers


def _partition_counts(rs: RootSystem, x: list[int]) -> tuple[dict[tuple[int, int], int], int]:
    """The coefficients (d, e) -> count of f_lam for types A-D by the
    (signed) set-partition sum, and the number of terms summed (multisets
    of cycle sums over all coordinate masks)."""
    family = rs.spec.family
    n = len(x)
    full = (1 << n) - 1
    options, token = _cycle_options(x, family)
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
                d = ds[(sums, bare)] = _cover_d(family, sums, bare, token)
            e = n - len(key)
            counts[(d, e)] = counts.get((d, e), 0) + ways * weight
    return counts, sum(map(len, covers))


def _local_counts(rs: RootSystem, x: list[int]) -> tuple[dict[tuple[int, int], int], int]:
    if rs.tables.flats is None:
        return _partition_counts(rs, x)
    return _table_counts(rs, x)


def local_genfun(rs: RootSystem, lam: Vec) -> BivariatePolynomial:
    """f_lam(s, t) = sum of s^d t^e over the elements with translation lam."""
    return BivariatePolynomial.from_dict(_local_counts(rs, _require_lattice_point(rs, lam))[0])


def _scaled_local_genfun(rs: RootSystem, x: Sequence[int], den: int) -> BivariatePolynomial:
    """local_genfun at lam = x / den, for integers x and den > 0 (the
    command line's parsed vector): the lattice check runs on the
    integers, and Fractions are built only for its refusal."""
    if rs.scaled_lattice_coords(x, den) is None:
        raise _off_lattice(rs, (Q(v, den) for v in x))
    return BivariatePolynomial.from_dict(_local_counts(rs, list(x))[0])


def spherical_genfun(rs: RootSystem) -> tuple[int, ...]:
    """Distribution of reflection length over W0 (elliptic elements have
    length equal to e); computed by counting, not from rs.exponents: the
    e-marginal of f_0, where every term has d = 0."""
    counts = [0] * (rs.rank + 1)
    for (_, e), mult in _local_counts(rs, [0] * rs.ambient_dim)[0].items():
        counts[e] += mult
    return tuple(counts)


def exponent_product(rs: RootSystem) -> tuple[int, ...]:
    """The closed form prod (1 + e_i t) over the exponents."""
    out = (1,)
    for e in rs.exponents:
        out = poly1_mul(out, (1, e))
    return out


def is_generic(rs: RootSystem, lam: Vec) -> bool:
    """lam lies in no proper root subspace, so d(t_lam) = rank.  For A-D
    this is the null-partition rule (reflen._null_partition_d) at u = 1,
    whose cycles are the coordinates with sums the entries of lam, every
    one of size 1 (bare for type D, as u has no negative cycle).  For G2
    and F4 no root subspace of corank 1 may hold lam (FlatTable.holding)."""
    x = _require_lattice_point(rs, lam)
    if rs.tables.flats is not None:
        return next(rs.tables.flats.holding(x)).dim == rs.rank
    return _null_partition_d(rs.spec.family, x, (1 << len(x)) - 1) == rs.rank


def _dominant_key(tables: RootTables):
    """The map from the simple-coroot coordinates of a lattice point lam to
    those of the dominant point of its W0-orbit.  While some
    <a_i, lam> < 0, lam becomes s_i(lam) = lam - <a_i, lam> a_i^vee, which
    lowers coordinate i and shifts each pairing <a_k, lam> by
    <a_i, lam> <a_i^vee, a_k> (RootTables.cartan); each step moves lam up
    in the dominance order, so the walk ends, at the one point of the
    orbit in the dominant chamber."""
    simple, cartan = tables.simple, tables.cartan
    # pairing[j][i] = <a_j^vee, a_i>, and steps[j] its nonzero entries
    pairing = [[cartan[j][i] for i in simple] for j in simple]
    steps = [[(k, a) for k, a in enumerate(row) if a] for row in pairing]

    def key(coeffs) -> tuple[int, ...]:
        c = list(coeffs)
        p = [sum(x * row[i] for x, row in zip(c, pairing)) for i in range(len(c))]
        while (i := next((i for i, x in enumerate(p) if x < 0), None)) is not None:
            x = p[i]
            c[i] -= x
            for k, a in steps[i]:
                p[k] -= x * a
        return tuple(c)

    return key


def classify_coroots(rs: RootSystem, radius: int) -> dict[BivariatePolynomial, tuple[Vec, ...]]:
    """Group the lattice points with simple-coroot coefficients in
    [-radius, radius] by their exact local generating function.  Classes
    appear in first-seen order over the lexicographic coefficient scan;
    points within a class are sorted.

    f_lam is constant on W0-orbits: conjugating t_lam u by w in W0 gives
    t_{w lam} (w u w^-1) with the same d and e, and u -> w u w^-1 permutes
    W0.  So each point is keyed by the dominant point of its orbit
    (_dominant_key, one rule for every type) and f is computed once
    per key, at the first point of the scan that has it.  One bound holds
    for every type: DEFAULT_CLASSIFY_CAP bounds the terms summed over the
    orbits computed (partition-sum terms for A-D, table rows for G2 and
    F4), and a scan that needs more raises BudgetExceeded; a box of more
    than a tenth as many points is refused before the scan."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    cap = DEFAULT_CLASSIFY_CAP
    # a point costs about ten terms (its orbit key and integer point take
    # 12-47 us, a term 2-5 us, on a 2-vCPU VM), so the box may hold cap // 10
    bound = cap // 10
    rng = range(-radius, radius + 1)
    total = len(rng) ** rs.rank
    if total > bound:
        fits = next(r for r in count() if (2 * r + 3) ** rs.rank > bound)
        raise BudgetExceeded(
            f"classification cap {bound} lattice points exceeded: radius {radius} of {rs.spec} has {total}; "
            f"the largest radius that fits is {fits}"
        )
    terms = 0
    orbit_key, lattice = _dominant_key(rs.tables), rs.coroot_lattice
    classes: dict[BivariatePolynomial, list[list[int]]] = {}
    orbits: dict[tuple[int, ...], list[list[int]]] = {}
    for done, coeffs in enumerate(iproduct(rng, repeat=rs.rank), 1):
        x = lattice.combination(coeffs)
        key = orbit_key(coeffs)
        pts = orbits.get(key)
        if pts is None:
            counts, summed = _local_counts(rs, x)
            terms += summed
            if terms > cap:
                raise BudgetExceeded(
                    f"classification cap {cap} exceeded: {terms} terms summed over {done} of "
                    f"{total} lattice points of {rs.spec} at radius {radius}; use a smaller radius"
                )
            pts = orbits[key] = classes.setdefault(BivariatePolynomial.from_dict(counts), [])
        pts.append(x)
    # every point is den lam with the same den > 0, so the integer order is lam's
    return {f: tuple(tuple(Q(v, lattice.den) for v in x) for x in sorted(pts)) for f, pts in classes.items()}
