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
only an even number of negative cycles.  In both, d = k - nu with nu
reflen.zero_block_count of the sums <lam, v_B>, as in affsym.nullity
(signed cycle types, Carter 1972; null partitions, McCammond-Petersen
2011).  A DP over the coordinate masks S holds, for each multiset of
cycle sums, the weighted number of ways to cover S by positive cycles;
the negative cycles on the other coordinates only contribute a weight.

G2 and F4 read f_lam off lam-independent tables, one row per root
subspace that is the move space Im(u - I) of some u in W0: e(u) is its
dimension and d(t_lam u) the span search of lam modulo it, so f_lam
depends on u only through that space.  The rows come from the flats,
with no W0 enumeration.  By Steinberg's theorem the pointwise
stabiliser of Fix(u) is a parabolic subgroup, conjugate to a standard
W_J, so the move spaces are the W0-images of the spans of the standard
parabolic subsystems Phi_J, and the u with move space M are the
elements of the reflection group W_M of the roots in M with no fixed
vector in M.  By Shephard-Todd there are prod e_i of them over the
exponents e_i of W_J, which Kostant's theorem reads off the heights of
the positive roots of Phi_J (the dual partition).  Each row holds the space's primitive integer RREF basis,
its projected root lines and that count, so classifying many lattice
points repeats only the small span search, once per space.  The tables
and the reduction of lam modulo each space are fraction-free.  These
tables also serve as the reference for types A-D in the tests.

W0 itself is enumerated, for the oracle, by breadth-first search over
permutations of the root indices: right multiplication by a simple
reflection s_i is an index lookup in RootSystem.tables.reflected, and
duplicates are found by hashing integer tuples.  An element of W0 is its
root permutation throughout.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct
from math import comb, factorial, prod

from .errors import BudgetExceeded
from .linalg import Vec, int_residual, is_zero, primitive_rref, rref_pivots, scaled_ints
from .reflen import _min_span_subset, _quotient_lines, zero_block_count
from .rootsys import RootSystem, RootTables

DEFAULT_W0_CAP = 10**5
DEFAULT_CLASSIFY_CAP = 10**5
CLASSICAL = "ABCD"


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
        for ta, tb, c in self.terms:
            if (ta, tb) == (a, b):
                return c
        return 0

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
def _genfun_tables(rs: RootSystem):
    """The lam-independent data, one row per move space of W0: (e, the
    primitive_rref basis of the space, its pivots, projected root lines,
    number of elements of W0 with that move space).

    The move spaces are the flats, the W0-images of the spans of the
    standard parabolic subsystems Phi_J (Steinberg), so no element of W0
    is enumerated.  For each subset J of the simple roots, Phi_J holds
    the roots whose coroot_coords vanish off J; unless an earlier orbit
    holds it, its W0-orbit is walked by lookups in tables.reflected,
    each flat keyed by the set of root indices in it and carrying the
    images of J's simple roots, which span it.  Every flat of the orbit
    counts the elements of a conjugate of W_J with no fixed vector in
    the flat: prod e_i over the exponents of W_J (Shephard-Todd), read
    off the heights (_height_exponents).  Rows come orbit by orbit, J in
    binary order, each orbit breadth first."""
    _require_w0_reach(rs)
    tables = rs.tables
    gens = [tables.reflected[i] for i in tables.simple]
    support = [sum(1 << i for i, x in enumerate(c) if x) for c in tables.coroot_coords]
    seen: set[frozenset[int]] = set()
    out = []
    for bits in range(1 << rs.rank):
        inside = frozenset(a for a, s in enumerate(support) if not s & ~bits)
        if inside in seen:
            continue
        seen.add(inside)
        mult = prod(_height_exponents(tables, inside))
        orbit = [(inside, [b for i, b in enumerate(tables.simple) if bits >> i & 1])]
        for flat, images in orbit:
            key = primitive_rref(tables.int_roots[b] for b in images)
            pivots = rref_pivots(key)
            out.append((len(key), key, pivots, _quotient_lines(rs, key, pivots), mult))
            for g in gens:
                image = frozenset(map(g.__getitem__, flat))
                if image not in seen:
                    seen.add(image)
                    orbit.append((image, [g[b] for b in images]))
    return tuple(out)


def _require_lattice_point(rs: RootSystem, lam: Vec) -> None:
    if not rs.in_coroot_lattice(lam):
        raise ValueError(
            "(" + ", ".join(map(str, lam)) + f") is not in the coroot lattice of {rs.spec}"
        )


def _table_counts(rs: RootSystem, lam: Vec) -> dict[tuple[int, int], int]:
    """The coefficients (d, e) -> count of f_lam from the W0 tables."""
    lam_ints = scaled_ints(lam)
    counts: dict[tuple[int, int], int] = {}
    for e, ubasis, upivots, lines, mult in _genfun_tables(rs):
        res = int_residual(ubasis, upivots, lam_ints)
        if res is None:
            d = 0
        else:
            d = _min_span_subset(lines, res, rs.rank - e, witness=False)[0]
        counts[(d, e)] = counts.get((d, e), 0) + mult
    return counts


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


def _partition_counts(rs: RootSystem, lam: Vec) -> tuple[dict[tuple[int, int], int], int]:
    """The coefficients (d, e) -> count of f_lam for types A-D by the
    (signed) set-partition sum, and the number of terms summed (multisets
    of cycle sums over all coordinate masks)."""
    family = rs.spec.family
    x = scaled_ints(lam)
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
    signed = family != "A"
    negative = _negative_covers(n)
    counts: dict[tuple[int, int], int] = {}
    nus: dict[tuple[tuple[int, ...], int], int] = {}
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
            nu = nus.get((sums, bare))
            if nu is None:
                nu = nus[(sums, bare)] = zero_block_count(sums, signed, bare)
            k = len(key)
            counts[(k - nu, n - k)] = counts.get((k - nu, n - k), 0) + ways * weight
    return counts, sum(map(len, covers))


def _local_counts(rs: RootSystem, lam: Vec) -> dict[tuple[int, int], int]:
    _require_lattice_point(rs, lam)
    if rs.spec.family in CLASSICAL:
        return _partition_counts(rs, lam)[0]
    return _table_counts(rs, lam)


def local_genfun(rs: RootSystem, lam: Vec) -> BivariatePolynomial:
    """f_lam(s, t) = sum of s^d t^e over the elements with translation lam."""
    return BivariatePolynomial.from_dict(_local_counts(rs, lam))


def spherical_genfun(rs: RootSystem) -> tuple[int, ...]:
    """Distribution of reflection length over W0 (elliptic elements have
    length equal to e); computed by counting, not from rs.exponents: the
    e-marginal of f_0, where every term has d = 0."""
    counts = [0] * (rs.rank + 1)
    for (_, e), mult in _local_counts(rs, (0,) * rs.ambient_dim).items():
        counts[e] += mult
    return tuple(counts)


def exponent_product(rs: RootSystem) -> tuple[int, ...]:
    """The closed form prod (1 + e_i t) over the exponents."""
    out = (1,)
    for e in rs.exponents:
        out = poly1_mul(out, (1, e))
    return out


def is_generic(rs: RootSystem, lam: Vec) -> bool:
    """lam lies in no proper root subspace: the identity-element d-search
    needs a full rank's worth of roots."""
    _require_lattice_point(rs, lam)
    if is_zero(lam):
        return False
    return _min_span_subset(rs.root_lines, scaled_ints(lam), rs.rank)[0] == rs.rank


def classify_coroots(rs: RootSystem, radius: int) -> dict[BivariatePolynomial, tuple[Vec, ...]]:
    """Group the lattice points with simple-coroot coefficients in
    [-radius, radius] by their exact local generating function.  Classes
    appear in first-seen order over the lexicographic coefficient scan;
    points within a class are sorted.  Where W0 is above DEFAULT_W0_CAP
    (types A-D, by the partition sum), DEFAULT_CLASSIFY_CAP bounds the
    terms summed over the whole scan (every point sums at least one); a
    scan that needs more raises BudgetExceeded.  Elsewhere the scan is
    uncapped, as the W0 tables bound it."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    cap = DEFAULT_CLASSIFY_CAP
    capped = rs.w0_size > DEFAULT_W0_CAP
    classes: dict[BivariatePolynomial, list[Vec]] = {}
    rng = range(-radius, radius + 1)
    total = len(rng) ** rs.rank
    terms = 0

    def exceeded(done: int) -> BudgetExceeded:
        return BudgetExceeded(
            f"classification cap {cap} exceeded: {terms} terms summed over {done} of "
            f"{total} lattice points of {rs.spec} at radius {radius}; use a smaller radius"
        )

    if capped and total > cap:
        raise exceeded(0)
    for done, coeffs in enumerate(iproduct(rng, repeat=rs.rank), 1):
        lam = rs.from_lattice_coords(coeffs)
        if capped:
            counts, summed = _partition_counts(rs, lam)
            terms += summed
            if terms > cap:
                raise exceeded(done)
        else:
            counts = _local_counts(rs, lam)
        classes.setdefault(BivariatePolynomial.from_dict(counts), []).append(lam)
    return {f: tuple(sorted(pts)) for f, pts in classes.items()}
