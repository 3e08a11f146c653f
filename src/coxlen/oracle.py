"""Brute-force certifiers, independent of the closed-form machinery.

The length oracle searches the Cayley graph of the group itself: states
are pairs (index of the linear part in W0, integer coordinates of the
translation part in the simple-coroot basis), and the moves are left
multiplication by the finitely many reflections whose level is at most
a bound J.  The distance of a state from the identity is its reflection
length relative to that generator set.  W0 is genfun.enumerate_w0's list
of root permutations, and a target enters the search as its (root
permutation, lattice coordinates) pair: an AffineElement through
affgroup.require_group_element, which checks its linear part lies in W0,
and a CLI target as the pair the parser reads; beyond these the oracle
shares nothing with the closed-form machinery.

The search is two-sided, and only distances to given targets are
computed.  One ball grows forward from the identity, and one in reverse
from each target, with the same moves, since every reflection is an
involution.  Each round grows the side whose frontier is smaller, the
reverse frontier counting every target not yet settled.
A target is settled at the first layer where its reverse ball meets the
forward ball: both balls are complete to their radii, and they did not
meet one layer earlier, so the distance is the sum of the two radii,
which is the depth sum of every meeting state.  The last layer a search
may grow is only looked up, never stored.

Finite J can in principle miss shorter factorisations through
higher-level hyperplanes, so results carry a certificate:

  - k <= e + 1 is unconditionally minimal: a product of k reflections
    has elliptic rank at most k, so lengths never go below e, and the
    length parity is forced by the determinant, which rules out e when
    k = e + 1.
  - otherwise the search is repeated with bound J + 1; an unchanged
    distance is reported as certified (a stability heuristic, labelled
    as such).  Only targets with k > e + 1 take part in it.

No state needs pruning: along any factorisation with levels at most J
the translation norm grows by at most J * R per step (linear parts are
orthogonal; R is the largest coroot norm), so every state within K steps
already satisfies |translation| <= K * J * R.

The certificate's e is elliptic_rank of the matrix of the target's root
permutation (RootTables.linear), taken once per W0 index, so it does not
lean on the move spaces reflen reads off the root permutation.  The
nullity and dimension oracles are plain exhaustion: all set partitions
via restricted growth strings, and all root subsets of increasing size,
tested by Fraction in_span.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import add, mul

from .errors import BudgetExceeded
from .linalg import in_span, is_zero
from .affgroup import AffineElement, elliptic_rank, linear_move_space, require_group_element
from .genfun import enumerate_w0
from .rootsys import RootSystem

ORACLE_MAX_RANK = 4
ORACLE_MAX_NULLITY_N = 12
DEFAULT_ORACLE_STATE_CAP = 2 * 10**6


@dataclass(frozen=True)
class CertifiedLength:
    """length is None when not reached within the level and depth bounds
    used; certificate is "rank" (length <= e + 1, a proof), "stable" (same
    length at level bound + 1, a heuristic) or None (uncertified)."""

    length: int | None
    certificate: str | None
    level_bound: int
    depth_bound: int

    @property
    def certified(self) -> bool:
        return self.certificate is not None


def _require_oracle_rank(rs: RootSystem) -> None:
    if rs.rank > ORACLE_MAX_RANK:
        raise BudgetExceeded(
            f"brute-force oracle supports rank <= {ORACLE_MAX_RANK}, got {rs.spec}"
        )


@lru_cache(maxsize=None)
def _oracle_tables(rs: RootSystem):
    """Integer transition tables: the index of each element of W0 by its
    root permutation; for each positive root line, the permutation it
    induces on W0 by left multiplication, its matrix on coroot-lattice
    coordinates, and the coordinates of its coroot, all off RootTables:
    s_a(a_j^vee) = a_j^vee - <a_j^vee, a> a^vee gives column j."""
    group = enumerate_w0(rs)
    index = {p: i for i, p in enumerate(group.elements)}
    tables = rs.tables
    lines = []
    for a in [a for a, pos in enumerate(tables.positive) if pos]:
        # s_a m sends root b to s_a(m(b))
        s = tables.reflected[a]
        perm = tuple(index[tuple(s[b] for b in p)] for p in group.elements)
        ca = tables.coroot_coords[a]
        pairing = [tables.cartan[b][a] for b in tables.simple]
        lat = tuple(tuple(int(i == j) - p * c for j, p in enumerate(pairing)) for i, c in enumerate(ca))
        lines.append((perm, lat, ca))
    return index, tuple(lines)


def _neighbours(moves, front):
    """Every state one reflection away from a state of front, with
    repeats: s_(alpha,j) sends (m, c) to (s_alpha m, s_alpha c + j alpha^v)."""
    for idx, c in front:
        for perm, lat, offsets in moves:
            nidx = perm[idx]
            base = [sum(map(mul, row, c)) for row in lat]
            for off in offsets:
                yield nidx, tuple(map(add, base, off))


def _ball(rs: RootSystem, level_bound: int, depth_bound: int, targets):
    """Distance map {(w0 index, lattice coords): length} from the
    identity, generators being all reflections with |level| <= level_bound.

    It holds the forward ball the two-sided search stored, and each
    target state it reached within depth_bound, with its distance; a
    target missing from it lies further away.  DEFAULT_ORACLE_STATE_CAP
    bounds the states stored on both sides together.  A first round that
    is not the last stores every reflection, so one that would pass the
    cap raises before any move is built."""
    _, lines = _oracle_tables(rs)
    start = (0, (0,) * rs.rank)
    # the reverse ball of each unsettled target: its states, and its frontier
    reverse = {t: {t} for t in targets if t != start}
    rfront = {t: [t] for t in reverse}
    first = 1 + len(reverse) + len(lines) * (2 * level_bound + 1)
    if reverse and depth_bound > 1 and first > DEFAULT_ORACLE_STATE_CAP:
        fits = (DEFAULT_ORACLE_STATE_CAP - 1 - len(reverse) - len(lines)) // (2 * len(lines))
        raise BudgetExceeded(
            f"oracle state cap DEFAULT_ORACLE_STATE_CAP = {DEFAULT_ORACLE_STATE_CAP} exceeded: the first round "
            f"would store {first} states at level bound {level_bound}; the largest level bound that fits is {fits}"
        )
    span = range(-level_bound, level_bound + 1)
    moves = [(perm, lat, [tuple(j * x for x in ca) for j in span]) for perm, lat, ca in lines]
    dist = {start: 0}
    front = [start]
    radii = [0, 0]  # forward, reverse
    stored = 1 + len(reverse)

    def store() -> None:
        nonlocal stored
        stored += 1
        if stored > DEFAULT_ORACLE_STATE_CAP:
            raise BudgetExceeded(
                f"oracle state cap DEFAULT_ORACLE_STATE_CAP = {DEFAULT_ORACLE_STATE_CAP} exceeded: "
                f"{stored} states stored with the forward ball at radius {radii[0]} and the reverse "
                f"balls at radius {radii[1]} (level bound {level_bound}, depth bound {depth_bound}); "
                "lower --level-bound or --depth-bound"
            )

    found = {}
    while reverse and sum(radii) < depth_bound:
        last = sum(radii) + 1 == depth_bound
        if len(front) <= sum(map(len, rfront.values())):
            radii[0] += 1
            meet: dict[tuple, list] = {}
            for t, layer in rfront.items():
                for s in layer:
                    meet.setdefault(s, []).append(t)
            nxt = []
            for s in _neighbours(moves, front):
                for t in meet.pop(s, ()):
                    if t in reverse:
                        found[t] = sum(radii)
                        del reverse[t], rfront[t]
                if last or s in dist:
                    continue
                store()
                dist[s] = radii[0]
                nxt.append(s)
            front = nxt
        else:
            radii[1] += 1
            for t in list(reverse):
                ball, nxt = reverse[t], []
                for s in _neighbours(moves, rfront[t]):
                    if s in dist:
                        found[t] = dist[s] + radii[1]
                        del reverse[t], rfront[t]
                        break
                    if not last and s not in ball:
                        store()
                        ball.add(s)
                        nxt.append(s)
                else:
                    rfront[t] = nxt
    dist.update(found)
    return dist


def _pair_lengths(
    rs: RootSystem, pairs, level_bound: int | None, depth_bound: int | None
) -> list[CertifiedLength]:
    """brute_reflection_lengths on (root permutation, lattice coordinates)
    pairs, the form in which require_group_element and the CLI parser
    give an element."""
    _require_oracle_rank(rs)
    index, _ = _oracle_tables(rs)
    targets = [(index[perm], coords) for perm, coords in pairs]
    if level_bound is None:
        widest = max((max(abs(c) for c in t[1]) for t in targets), default=0)
        level_bound = widest + 2
    if depth_bound is None:
        depth_bound = 2 * rs.rank
    dist = _ball(rs, level_bound, depth_bound, targets)
    lengths = [dist.get(t) for t in targets]
    # e is a fact of the linear part alone: one rank per W0 index
    ranks = {index[p]: elliptic_rank(rs.tables.linear(p)) for p in {p for p, _ in pairs}}
    unproved = {t: k for t, k in zip(targets, lengths) if k is not None and k > ranks[t[0]] + 1}
    # more generators never lengthen a factorisation, and every length
    # has the parity of e, so k is stable exactly when level_bound + 1
    # does not reach the target within k - 2 steps
    shorter = _ball(rs, level_bound + 1, max(unproved.values()) - 2, unproved) if unproved else {}
    out = []
    for t, k in zip(targets, lengths):
        if k is None:
            out.append(CertifiedLength(None, None, level_bound, depth_bound))
            continue
        e = ranks[t[0]]
        assert (k - e) % 2 == 0, "determinant parity violated by the search"
        certificate = "rank" if k <= e + 1 else "stable" if shorter.get(t, k) >= k else None
        out.append(CertifiedLength(k, certificate, level_bound, depth_bound))
    return out


def brute_reflection_lengths(
    rs: RootSystem,
    elements,
    level_bound: int | None = None,
    depth_bound: int | None = None,
) -> list[CertifiedLength]:
    """Lengths for many elements from one two-sided search: a forward
    ball from the identity against a reverse ball from each element.  A
    second search at level_bound + 1, only for the elements with k > e + 1
    and only to depth k - 2, decides the stability certificate."""
    return _pair_lengths(rs, [require_group_element(rs, w) for w in elements], level_bound, depth_bound)


def brute_reflection_length(
    rs: RootSystem,
    w: AffineElement,
    level_bound: int | None = None,
    depth_bound: int | None = None,
) -> CertifiedLength:
    return brute_reflection_lengths(rs, [w], level_bound, depth_bound)[0]


def _partitions(n: int):
    """All set partitions of {1..n} via restricted growth strings."""
    rgs = [0] * n
    maxes = [0] * n

    def blocks() -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(max(rgs) + 1)]
        for i, b in enumerate(rgs):
            out[b].append(i + 1)
        return out

    yield blocks()
    while True:
        # advance the RGS odometer: digit i may rise to maxes[i-1] + 1
        i = n - 1
        while i > 0 and rgs[i] == maxes[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        maxes[i] = max(maxes[i - 1], rgs[i])
        for j in range(i + 1, n):
            rgs[j] = 0
            maxes[j] = maxes[i]
        yield blocks()


def brute_nullity(v) -> int:
    """Largest number of blocks in a partition of the positions into
    zero-sum blocks, by exhausting all set partitions."""
    n = len(v)
    if n == 0:
        return 0
    if n > ORACLE_MAX_NULLITY_N:
        raise BudgetExceeded(
            f"nullity oracle supports n <= {ORACLE_MAX_NULLITY_N}, got {n}"
        )
    if sum(v) != 0:
        raise ValueError("nullity needs a zero-sum vector")
    best = 0
    for part in _partitions(n):
        if all(sum(v[i - 1] for i in b) == 0 for b in part):
            best = max(best, len(part))
    assert best >= 1, "the full support is always a zero-sum block"
    return best


def brute_move_dimension(rs: RootSystem, w: AffineElement) -> int:
    """Smallest number of roots whose linear span contains the move set
    of w (both its direction space and the translation part), found by
    trying all root subsets of increasing size."""
    _require_oracle_rank(rs)
    u = linear_move_space(w.linear)
    need = list(u) + ([] if is_zero(w.translation) else [w.translation])
    lines = rs.positive_roots
    if not need:
        return 0
    for k in range(1, rs.rank + 1):
        for subset in combinations(lines, k):
            if all(in_span(subset, x) for x in need):
                return k
    raise AssertionError("roots span the whole space, so some subset works")
