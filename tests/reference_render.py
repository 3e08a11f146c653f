"""render's fundamental alcove and lattice points as they were built
before they were read off the integer tables, for the tests.

fundamental_alcove solves, per simple root, the Fraction system
<x, a_j> = 0 for the other simple roots and <x, theta> = 1 in the span
of the simple coroots; lattice_points turns every point of the
coefficient box into a Fraction vector before it tests the radius.
"""

from __future__ import annotations

from fractions import Fraction as Q

from coxlen.linalg import Vec, dot, solve_combination
from coxlen.rootsys import RootSystem, coroot


def fundamental_alcove(rs: RootSystem) -> tuple[Vec, ...]:
    """Vertices of the fundamental alcove: the origin plus, per simple
    root, the point on the highest-root wall where the other simple
    root vanishes."""
    theta = rs.highest_root
    verts = [tuple(Q(0) for _ in range(rs.ambient_dim))]
    for i in range(rs.rank):
        others = [rs.simple_roots[j] for j in range(rs.rank) if j != i]
        verts.append(alcove_vertex(rs, others, theta))
    return tuple(verts)


def alcove_vertex(rs: RootSystem, zero_against, theta) -> Vec:
    """The point x in the span of the coroots with <x, z> = 0 for each z
    in zero_against and <x, theta> = 1."""
    span = [coroot(a) for a in rs.simple_roots]
    rows = [[dot(s, z) for s in span] for z in zero_against]
    rows.append([dot(s, theta) for s in span])
    rhs = tuple([Q(0)] * len(zero_against) + [Q(1)])
    n = len(span)
    cols = tuple(tuple(rows[i][j] for i in range(len(rows))) for j in range(n))
    sol = solve_combination(cols, rhs)
    assert sol is not None, "fundamental alcove vertex missing"
    return tuple(
        sum(sol[j] * span[j][k] for j in range(n)) for k in range(len(span[0]))
    )


def _norm2(v: Vec) -> Q:
    return dot(v, v)


def lattice_points(rs: RootSystem, radius) -> list[Vec]:
    r2 = Q(radius) * Q(radius)
    bound = int(3 * Q(radius)) + 1
    pts = []
    for i in range(-bound, bound + 1):
        for j in range(-bound, bound + 1):
            lam = rs.from_lattice_coords((i, j))
            if _norm2(lam) <= r2:
                pts.append(lam)
    return sorted(pts)
