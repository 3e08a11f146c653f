"""Brute-force certifiers, independent of the closed-form machinery.

The length oracle does breadth-first search over the group itself:
states are pairs (index of the linear part in W0, integer coordinates
of the translation part in the simple-coroot basis), and the moves are
left multiplication by the finitely many reflections whose level is at
most a bound J.  Starting from the identity, the distance at which a
state first appears is its reflection length relative to that generator
set.  W0 is genfun.enumerate_w0's list of root permutations, and a
target enters the search through affgroup.require_group_element, which
returns its root permutation and its lattice coordinates; beyond these
the oracle shares nothing with the closed-form machinery.

Finite J can in principle miss shorter factorisations through
higher-level hyperplanes, so results carry a certificate:

  - k <= e + 1 is unconditionally minimal: a product of k reflections
    has elliptic rank at most k, so lengths never go below e, and the
    length parity is forced by the determinant, which rules out e when
    k = e + 1.
  - otherwise the search is repeated with bound J + 1; an unchanged
    distance is reported as certified (a stability heuristic, labelled
    as such).

The search window is exact: along any factorisation with levels at most
J, the translation norm grows by at most J * R per step (linear parts
are orthogonal; R is the largest coroot norm), so every geodesic prefix
of length at most K satisfies |translation|^2 <= (K * J * R)^2.  States
outside that ball are pruned without losing any geodesic.

The nullity and dimension oracles are plain exhaustion: all set
partitions via restricted growth strings, and all root subsets of
increasing size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from itertools import combinations

from .errors import BudgetExceeded
from .linalg import dot, in_span, is_zero, scale_to_ints
from .affgroup import AffineElement, elliptic_rank, linear_move_space, require_group_element
from .genfun import enumerate_w0
from .rootsys import RootSystem, coroot, reflect

ORACLE_MAX_RANK = 4
ORACLE_MAX_NULLITY_N = 12


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
    coordinates, and the coordinates of its coroot; plus the lattice
    Gram matrix and the largest coroot norm, both scaled to integers."""
    group = enumerate_w0(rs)
    index = {p: i for i, p in enumerate(group.elements)}
    basis = rs.coroot_lattice.coroots
    lines = []
    for alpha in rs.positive_roots:
        # s_alpha m sends root b to s_alpha(m(b))
        s = rs.tables.reflected[rs.root_index[alpha]]
        perm = tuple(index[tuple(s[b] for b in p)] for p in group.elements)
        cols = []
        for b in basis:
            c = rs.lattice_coords(reflect(alpha, b))
            assert c is not None, "reflection left the coroot lattice"
            cols.append(c)
        lat = tuple(
            tuple(cols[j][i] for j in range(rs.rank)) for i in range(rs.rank)
        )
        ca = rs.lattice_coords(coroot(alpha))
        assert ca is not None
        lines.append((perm, lat, ca))
    gram = [[dot(a, b) for b in basis] for a in basis]
    denom, rows = scale_to_ints(gram)
    gram_scaled = tuple(map(tuple, rows))
    r2 = max(dot(coroot(a), coroot(a)) for a in rs.roots)
    return index, tuple(lines), gram_scaled, denom, r2


def _ball(rs: RootSystem, level_bound: int, depth_bound: int):
    """Distance map {(w0 index, lattice coords): length} of the ball of
    radius depth_bound around the identity, generators being all
    reflections with |level| <= level_bound, pruned to the exact
    geodesic window."""
    index, lines, gram_scaled, denom, r2 = _oracle_tables(rs)
    n = rs.rank
    cap2 = Q((depth_bound * level_bound) ** 2) * r2 * denom
    start = (0, (0,) * n)
    dist = {start: 0}
    frontier = [start]
    for depth in range(1, depth_bound + 1):
        nxt = []
        for idx, coeffs in frontier:
            for perm, lat, ca in lines:
                nidx = perm[idx]
                base = [
                    sum(lat[i][j] * coeffs[j] for j in range(n)) for i in range(n)
                ]
                for j in range(-level_bound, level_bound + 1):
                    nc = tuple(base[i] + j * ca[i] for i in range(n))
                    state = (nidx, nc)
                    if state in dist:
                        continue
                    q = sum(
                        gram_scaled[a][b] * nc[a] * nc[b]
                        for a in range(n)
                        for b in range(n)
                    )
                    if q > cap2:
                        continue
                    dist[state] = depth
                    nxt.append(state)
        frontier = nxt
    return dist


def _target_state(rs: RootSystem, w: AffineElement):
    perm, coeffs = require_group_element(rs, w)
    index, _, _, _, _ = _oracle_tables(rs)
    if perm not in index:
        raise ValueError("linear part is not an element of W0")
    return index[perm], coeffs


def brute_reflection_lengths(
    rs: RootSystem,
    elements,
    level_bound: int | None = None,
    depth_bound: int | None = None,
) -> list[CertifiedLength]:
    """Lengths for many elements against one shared ball (and a second
    at level_bound + 1 for the stability certificate)."""
    _require_oracle_rank(rs)
    targets = [_target_state(rs, w) for w in elements]
    if level_bound is None:
        widest = max((max(abs(c) for c in t[1]) for t in targets), default=0)
        level_bound = widest + 2
    if depth_bound is None:
        depth_bound = 2 * rs.rank
    dist = _ball(rs, level_bound, depth_bound)
    dist_next = _ball(rs, level_bound + 1, depth_bound)
    out = []
    for (idx, coeffs), w in zip(targets, elements):
        k = dist.get((idx, coeffs))
        k_next = dist_next.get((idx, coeffs))
        if k is None:
            out.append(CertifiedLength(None, None, level_bound, depth_bound))
            continue
        e = elliptic_rank(w.linear)
        assert (k - e) % 2 == 0, "determinant parity violated by the search"
        certificate = "rank" if k <= e + 1 else "stable" if k_next == k else None
        out.append(CertifiedLength(k, certificate, level_bound, depth_bound))
    return out


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
