"""The brute-force length oracle as a one-sided search, for the tests.

coxlen.oracle meets a forward ball from the identity with a reverse ball
from each target.  The reference here grows the whole ball of radius
depth_bound around the identity, pruned to the geodesic window
|translation|^2 <= (K * J * R)^2, once at level bound J and once at
J + 1, and reads every target off it.  It shares the transition tables
and the certificate type with coxlen.oracle, and nothing else.
fraction_oracle_tables builds those tables the way coxlen.oracle did
before it read them off RootTables, in Fractions.
"""

from __future__ import annotations

from fractions import Fraction as Q

from coxlen.affgroup import AffineElement, elliptic_rank, require_group_element
from coxlen.linalg import dot, scale_to_ints
from coxlen.oracle import CertifiedLength, _oracle_tables as _transitions, _require_oracle_rank
from coxlen.genfun import enumerate_w0
from coxlen.rootsys import RootSystem, coroot, reflect


def fraction_oracle_tables(rs: RootSystem):
    """coxlen.oracle's transition tables as it built them before it read
    them off RootTables: each line's lattice matrix from the Fraction
    reflections of the simple coroots and its coroot from the Fraction
    coroot, both through lattice_coords."""
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
    return index, tuple(lines)


def _oracle_tables(rs: RootSystem):
    """coxlen.oracle's transition tables, plus the lattice Gram matrix
    and the largest coroot norm, both scaled to integers."""
    index, lines = _transitions(rs)
    basis = rs.coroot_lattice.coroots
    gram = [[dot(a, b) for b in basis] for a in basis]
    denom, rows = scale_to_ints(gram)
    gram_scaled = tuple(map(tuple, rows))
    r2 = max(dot(coroot(a), coroot(a)) for a in rs.roots)
    return index, lines, gram_scaled, denom, r2


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
