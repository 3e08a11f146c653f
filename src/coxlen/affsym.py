"""Affine symmetric groups in window notation, and null partitions.

An affine permutation of period n is a bijection w of the integers with
w(i + n) = w(i) + n and sum(w(1..n)) = sum(1..n).  It is recorded by its
window [w(1), ..., w(n)].  Writing each value as w(i) = pi(i) + n*lam_i
with pi(i) in 1..n splits the window into a permutation pi of [n] and a
zero-sum integer vector lam; the pair is the combinatorial shadow of the
semidirect normal form, and embed_window realises it as an isometry of
the zero-sum hyperplane.

Reflection length is computed here without any geometry:

  length = n - 2 nu(lam / pi) + (number of cycles of pi)

where the relative nullity nu(lam / pi) is the largest number of blocks
in a partition refinable into cycles of pi whose block sums vanish.
Nullity is reflen.zero_block_count, the kernel of the classical d rule
reflen._null_partition_d, which genfun also reads; the minimal null blocks and the maximal cliques of their disjointness complex
(null_complex) list the null partitions for the nullity command only.

good_origin_split walks the cycles of pi for a vertex fixed by the
elliptic part of the split, which runs in A_(n-1): n <= MAX_RANK + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import accumulate, combinations, groupby

from .affgroup import AffineElement, translation_element
from .errors import BudgetExceeded, ParseError, UnsupportedTypeError
from .linalg import Vec, mat_vec, vec
from .reflen import DEFAULT_HURWITZ_BUDGET, pair_split, zero_block_count
from .rootsys import MAX_RANK, RootSystem, RootSystemSpec, build_root_system

DEFAULT_CLIQUE_VERTEX_CAP = 256
DEFAULT_NULL_UNION_CAP = 10**4
DEFAULT_CLIQUE_CAP = 10**5
DEFAULT_PROFILE_SIZE_CAP = 22


@dataclass(frozen=True)
class Window:
    """Window notation for an affine permutation.

    >>> Window((4, 2, 0)).normal_form()
    ((1, 0, -1), (1, 2, 3))
    """

    values: tuple[int, ...]

    def __post_init__(self):
        n = len(self.values)
        if n < 2:
            raise ParseError("window needs at least two entries")
        if len({v % n for v in self.values}) != n:
            raise ParseError("window entries are not distinct modulo n")
        if sum(self.values) != n * (n + 1) // 2:
            raise ParseError(
                f"window entries sum to {sum(self.values)}, expected {n * (n + 1) // 2}"
            )

    @property
    def n(self) -> int:
        return len(self.values)

    def normal_form(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(lam, pi) with window value_i = pi(i) + n * lam_i."""
        n = self.n
        pi = tuple((v - 1) % n + 1 for v in self.values)
        lam = tuple((v - p) // n for v, p in zip(self.values, pi))
        return lam, pi


def window_root_system(n: int) -> RootSystem:
    if n > MAX_RANK + 1:
        raise UnsupportedTypeError(f"window size n = {n} out of range: the split runs in A_(n-1), n <= {MAX_RANK + 1}")
    return build_root_system(RootSystemSpec("A", n - 1))


def perm_matrix(pi) -> tuple[tuple[Q, ...], ...]:
    """Matrix sending e_j to e_{pi(j)}; pi -> matrix is a homomorphism."""
    n = len(pi)
    return tuple(tuple(Q(1) if pi[j] == i + 1 else Q(0) for j in range(n)) for i in range(n))


def embed_window(win: Window) -> AffineElement:
    """The isometry of the zero-sum hyperplane corresponding to the
    window; window composition matches element composition."""
    lam, pi = win.normal_form()
    a = perm_matrix(pi)
    return AffineElement(linear=a, translation=mat_vec(a, vec(lam)))


def _window_pair(rs: RootSystem, lam, pi) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (root permutation, simple-coroot coordinates) pair of embed_window:
    root e_i - e_j goes to e_pi(i) - e_pi(j), and the translation, lam_i at
    pi(i), has its partial sums as coordinates (coroots e_i - e_(i+1))."""
    inv = sorted(range(len(pi)), key=pi.__getitem__)  # pi[inv[m]] = m + 1
    tables = rs.tables
    perm = tuple(tables.int_index[tuple(r[k] for k in inv)] for r in tables.int_roots)
    return perm, tuple(accumulate(lam[k] for k in inv))[:-1]


@dataclass(frozen=True)
class SetPartition:
    """Partition of {1..n}; blocks sorted by their minimum."""

    n: int
    blocks: tuple[frozenset[int], ...]

    @staticmethod
    def make(n: int, blocks) -> SetPartition:
        bs = tuple(sorted((frozenset(b) for b in blocks), key=min))
        seen: set[int] = set()
        for b in bs:
            if not b or seen & b:
                raise ValueError("blocks must be nonempty and disjoint")
            seen |= b
        if seen != set(range(1, n + 1)):
            raise ValueError("blocks must cover {1..n}")
        return SetPartition(n, bs)

    def __len__(self) -> int:
        return len(self.blocks)


def cycles(pi) -> SetPartition:
    """Cycle partition of a one-line permutation.

    >>> [sorted(b) for b in cycles((4, 5, 1, 3, 2, 6)).blocks]
    [[1, 3, 4], [2, 5], [6]]
    """
    n = len(pi)
    seen: set[int] = set()
    blocks = []
    for start in range(1, n + 1):
        if start in seen:
            continue
        blk = []
        i = start
        while i not in seen:
            seen.add(i)
            blk.append(i)
            i = pi[i - 1]
        blocks.append(frozenset(blk))
    return SetPartition.make(n, blocks)


def l_map(partition: SetPartition, v) -> tuple:
    """Block sums, blocks in canonical (min-sorted) order; the kernel of
    this map on a fixed partition is exactly the block-sum-zero space."""
    return tuple(sum(v[i - 1] for i in b) for b in partition.blocks)


def _sides(v):
    """The (position, |entry|) pairs of the positive and of the negative
    entries of the zero-sum v, at most DEFAULT_PROFILE_SIZE_CAP of each
    sign, and for each sign the number of its nonempty subsets of each
    weight that both signs reach.  The sign with fewer entries is counted
    at every weight, by a subset-sum count over the distinct partial
    sums; the other only at those weights, by a count over the weights
    left to reach after each of its entries."""
    if sum(v) != 0:
        raise ValueError("nullity needs a zero-sum vector")
    xs = [(i, x) for i, x in enumerate(v, 1) if x > 0]
    ys = [(i, -x) for i, x in enumerate(v, 1) if x < 0]
    if max(len(xs), len(ys)) > DEFAULT_PROFILE_SIZE_CAP:
        raise BudgetExceeded(f"profile enumeration allows DEFAULT_PROFILE_SIZE_CAP = {DEFAULT_PROFILE_SIZE_CAP} "
                             f"entries of each sign; the vector has {len(xs)} positive and {len(ys)} negative")
    few, many = (xs, ys) if len(xs) <= len(ys) else (ys, xs)
    count = {0: 1}
    for _, x in few:
        for w, c in list(count.items()):
            count[w + x] = count.get(w + x, 0) + c
    del count[0]
    # the weights still to reach after each entry of many, then the
    # number of ways to reach them, back from the last entry
    left = sum(x for _, x in many)
    need = [count.keys()]
    for _, x in many:
        left -= x
        need.append({r for t in need[-1] for r in (t, t - x) if 0 <= r <= left})
    ways = {0: 1}
    for (_, x), targets in zip(reversed(many), reversed(need[:-1])):
        ways = {t: ways.get(t, 0) + ways.get(t - x, 0) for t in targets}
    other = {w: c for w in count if (c := ways.get(w))}
    count = {w: count[w] for w in other}
    return (xs, ys, count, other) if few is xs else (xs, ys, other, count)


def _parts_of_weight(side, weight: int):
    """The position sets of the side's subsets of this weight, depth
    first; a branch ends once the entries left cannot reach the weight."""
    left = [sum(x for _, x in side[k:]) for k in range(len(side) + 1)]
    chosen: list[int] = []

    def walk(k: int, rest: int):
        if rest == 0:
            yield frozenset(chosen)
        elif left[k] >= rest:
            i, x = side[k]
            if x <= rest:
                chosen.append(i)
                yield from walk(k + 1, rest - x)
                chosen.pop()
            yield from walk(k + 1, rest)

    return walk(0, weight)


def proper_basic_null_block_count(v) -> int:
    """Basic null blocks of weight strictly below the full positive
    weight (the top weight always contributes the whole support): a
    positive part and a negative part of each weight, counted as the
    product of the two sides' subset counts without building them."""
    _, _, pos, neg = _sides(v)
    top = max(pos, default=0)
    return sum(c * neg.get(w, 0) for w, c in pos.items() if w < top)


def minimal_null_blocks(v, cap: int | None = None) -> tuple[frozenset[int], ...]:
    """Sweep over the weights that both signs reach, in increasing order,
    joining each positive part with each negative part of the weight (the
    parts lie in disjoint positions, so the unions are distinct): blocks
    of the first such weight are minimal, supersets of confirmed minimal
    blocks are skipped at later weights, and every zero entry contributes
    a singleton.  No block lies inside another of its own weight, so the
    order within a weight does not matter, and each weight's parts are
    built only when the sweep reaches it, the side with fewer of them in
    full.  Raises BudgetExceeded as soon as there are more than cap, and
    before a weight whose unions, pos[w] * neg[w] of them, would take the
    number tested above DEFAULT_NULL_UNION_CAP."""
    xs, ys, pos, neg = _sides(v)
    singles = [frozenset([i + 1]) for i, x in enumerate(v) if x == 0]
    confirmed: list[frozenset[int]] = []
    tested = 0
    for w in sorted(pos.keys() & neg.keys()):
        tested += pos[w] * neg[w]
        if tested > DEFAULT_NULL_UNION_CAP:
            raise BudgetExceeded(
                f"the minimal null block sweep would test {tested} unions by weight {w} of {max(pos)}, "
                f"above DEFAULT_NULL_UNION_CAP = {DEFAULT_NULL_UNION_CAP}"
            )
        few, many = (xs, ys) if pos[w] <= neg[w] else (ys, xs)
        held = list(_parts_of_weight(few, w))
        for a in _parts_of_weight(many, w):
            for b in held:
                block = a | b
                if not any(c < block for c in confirmed):
                    confirmed.append(block)
                    if cap is not None and len(confirmed) + len(singles) > cap:
                        raise BudgetExceeded(
                            f"{len(confirmed) + len(singles)} minimal null blocks exceed the vertex cap {cap} "
                            f"by weight {w} of {max(pos)}"
                        )
    return tuple(sorted(confirmed + singles, key=sorted))


@dataclass(frozen=True)
class NullComplex:
    """Disjointness complex of the minimal null blocks: vertices, edges
    as index pairs, and the maximal cliques (= maximal null partitions)."""

    vertices: tuple[frozenset[int], ...]
    edges: tuple[tuple[int, int], ...]
    maximal_cliques: tuple[tuple[frozenset[int], ...], ...]

    @property
    def nullity(self) -> int:
        """Size of the largest maximal clique (null partition)."""
        return max(len(c) for c in self.maximal_cliques)


def null_complex(v, vertex_cap: int = DEFAULT_CLIQUE_VERTEX_CAP) -> NullComplex:
    """The maximal cliques are the partitions of {1..n} into minimal null
    blocks: the indices a clique misses sum to zero, so they hold another
    minimal block, one starting at the lowest missed index.  Hence covering
    the lowest uncovered index by each fitting block starting there, in
    vertex order, lists every clique by the blocks' sorted members, and
    every branch ends in one, so the listing stops with BudgetExceeded
    once it would hold more than DEFAULT_CLIQUE_CAP cliques.  A stable
    sort puts fewer blocks first."""
    verts = minimal_null_blocks(v, vertex_cap)
    edges = tuple((i, j) for i, j in combinations(range(len(verts)), 2) if not verts[i] & verts[j])
    starting_at = {i: list(bs) for i, bs in groupby(verts, key=min)}
    cliques: list[tuple[frozenset[int], ...]] = []

    def cover(rest: frozenset[int], head: tuple[frozenset[int], ...]) -> None:
        if not rest:
            if len(cliques) == DEFAULT_CLIQUE_CAP:
                raise BudgetExceeded(
                    f"the {len(verts)} minimal null blocks make more than DEFAULT_CLIQUE_CAP = "
                    f"{DEFAULT_CLIQUE_CAP} maximal cliques"
                )
            cliques.append(head)
            return
        for b in starting_at[min(rest)]:
            if b <= rest:
                cover(rest - b, head + (b,))

    cover(frozenset(range(1, len(v) + 1)), ())
    cliques.sort(key=len)
    return NullComplex(vertices=verts, edges=edges, maximal_cliques=tuple(cliques))


def nullity(v) -> int:
    """Largest number of blocks in a partition of the index set with
    every block summing to zero."""
    return zero_block_count(v, False)


def relative_nullity(lam, pi) -> int:
    """nu(lam / pi): nullity of the block sums of lam over the cycles of pi."""
    return nullity(l_map(cycles(pi), lam))


def reflection_length(win: Window) -> int:
    """Combinatorial reflection length: n - 2 nu(lam/pi) + #cycles(pi)."""
    lam, pi = win.normal_form()
    return win.n - 2 * relative_nullity(lam, pi) + len(cycles(pi))


def good_origin_split(
    win: Window, budget: int = DEFAULT_HURWITZ_BUDGET
) -> tuple[Vec, tuple[AffineElement, AffineElement]]:
    """Split the window's isometry as translation * elliptic and produce a
    vertex of the alcove geometry fixed by the elliptic part, usable as
    a re-basing origin (relative to it the normal form has parts of
    length 2d and e).

    Vertices of type A are the points of the zero-sum hyperplane all of
    whose coordinate differences are integers.  A fixed point of the
    elliptic part steps by its translation along each cycle of pi, so
    walking each cycle from its least index, set to 0, and recentring to
    coordinate-sum zero lands on a vertex inside the fixed set.
    """
    lam, pi = win.normal_form()
    origin, coords_t, coords_u = _good_origin_split(lam, pi, budget)
    rs = window_root_system(win.n)
    t = translation_element(rs.from_lattice_coords(coords_t))
    return origin, (t, AffineElement(perm_matrix(pi), rs.from_lattice_coords(coords_u)))


def _good_origin_split(lam, pi, budget: int) -> tuple[Vec, tuple[int, ...], tuple[int, ...]]:
    """The origin of good_origin_split for the window with normal form
    (lam, pi), and the simple-coroot coordinates of t and of u.

    x walks each cycle of pi from its least index; u = (P, mu), P sending
    e_j to e_pi(j), maps x_j to position pi(j), so u fixes x exactly when
    x_pi(j) = x_j + mu_pi(j) for every j, checked in integers, and
    recentring subtracts a multiple of the all-ones vector, which u fixes."""
    n = len(pi)
    rs = window_root_system(n)
    coords_t, coords_u, _, _, _ = pair_split(rs, *_window_pair(rs, lam, pi), budget)
    lattice = rs.coroot_lattice
    mu = lattice.combination(coords_u)  # den times the translation of u
    assign: dict[int, int] = {}
    for start in range(1, n + 1):
        if start in assign:
            continue
        assign[start] = 0
        j = start
        while (p := pi[j - 1]) != start:
            assign[p] = assign[j] + mu[p - 1] // lattice.den
            j = p
    if any(lattice.den * (assign[p] - assign[j]) != mu[p - 1] for j, p in enumerate(pi, 1)):
        raise AssertionError("constructed origin is not fixed by the elliptic part")
    shift = Q(sum(assign.values()), n)
    return tuple(assign[i] - shift for i in range(1, n + 1)), coords_t, coords_u
