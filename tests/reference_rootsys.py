"""The Fraction construction of a root system, for cross-checking the
integer closure of rootsys.build_root_system: the closure of the simple
roots under Fraction reflections, the root-index tables from the direct
pairing of every root with every root, the highest root from a walk over
those tables, the coroot lattice and the fundamental coweights from
Fraction Gauss-Jordan eliminations, and the vector with given
simple-coroot coordinates by Fraction multiply-adds."""

from __future__ import annotations

from fractions import Fraction as Q
from math import lcm

from coxlen.linalg import Mat, Vec, dot, rref, scale_to_ints
from coxlen.rootsys import CorootLattice, RootSystem, RootSystemSpec, RootTables, _simple_roots, coroot, reflect


def reference_roots(spec: RootSystemSpec) -> Mat:
    """Close the simple roots under simple reflections, sorted."""
    simples = _simple_roots(spec)
    seen: set[Vec] = set(simples) | {tuple(-x for x in s) for s in simples}
    frontier = list(seen)
    while frontier:
        nxt = []
        for r in frontier:
            for s in simples:
                img = reflect(s, r)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return tuple(sorted(seen))


def reference_tables(roots: Mat, simple_roots: Mat) -> RootTables:
    scale = lcm(*(x.denominator for r in roots for x in r))
    ints = tuple(tuple(int(x * scale) for x in r) for r in roots)
    index = {r: i for i, r in enumerate(ints)}
    zero = (0,) * len(ints[0])
    reflected, cartan = [], []
    for a in ints:
        norm = sum(x * x for x in a)
        row = [2 * sum(x * y for x, y in zip(a, b)) // norm for b in ints]
        cartan.append(tuple(row))
        reflected.append(
            tuple(index[tuple(y - c * x for x, y in zip(a, b))] for c, b in zip(row, ints))
        )
    simple = [index[tuple(int(x * scale) for x in a)] for a in simple_roots]
    # s_i(b)^vee = b^vee - <b^vee, a_i> a_i^vee, and every root is
    # reached from a simple one by simple reflections
    coords = {a: tuple(int(i == j) for j in range(len(simple))) for i, a in enumerate(simple)}
    queue = list(simple)
    for b in queue:
        for i, a in enumerate(simple):
            c = reflected[a][b]
            if c not in coords:
                coords[c] = tuple(x - cartan[b][a] * (i == j) for j, x in enumerate(coords[b]))
                queue.append(c)
    # the fundamental coweights: the elimination of [P^T | I] leaves
    # (P^T)^-1, and w_k^vee = sum_j (P^T)^-1_kj a_j^vee; sum_k a_k (x) w_k^vee
    # projects onto the root span along its orthogonal complement, and the
    # identity less it onto the complement
    coroots = [coroot(a) for a in simple_roots]
    n, dim = len(simple_roots), len(simple_roots[0])
    reduced, _ = rref([[dot(a, c) for a in simple_roots] + [int(j == k) for k in range(n)] for j, c in enumerate(coroots)])
    coweights = [[sum(x * c[i] for x, c in zip(row[n:], coroots)) for i in range(dim)] for row in reduced]
    fixed = [
        [int(r == c) - sum(a[r] * w[c] for a, w in zip(simple_roots, coweights)) for c in range(dim)]
        for r in range(dim)
    ]
    linear_den, linear_rows = scale_to_ints([[x / scale for x in w] for w in coweights] + fixed)
    return RootTables(
        scale=scale,
        int_roots=ints,
        int_index=index,
        reflected=tuple(reflected),
        cartan=tuple(cartan),
        negated=tuple(index[tuple(-x for x in r)] for r in ints),
        positive=tuple(r > zero for r in ints),
        simple=tuple(simple),
        coroot_coords=tuple(coords[b] for b in range(len(ints))),
        coweights=tuple(map(tuple, linear_rows[:n])),
        fixed=tuple(map(tuple, linear_rows[n:])),
        linear_den=linear_den,
    )


def reference_highest_root(roots: Mat, t: RootTables) -> Vec:
    """The first root, in root order, of maximal height (sum of
    simple-root coordinates), walking s_i(b) = b - <a_i^vee, b> a_i
    from the simple roots."""
    height = dict.fromkeys(t.simple, 1)
    queue = list(t.simple)
    for b in queue:
        for i in t.simple:
            c = t.reflected[i][b]
            if c not in height:
                height[c] = height[b] - t.cartan[i][b]
                queue.append(c)
    return roots[max(range(len(roots)), key=height.__getitem__)]


def reference_coroot_lattice(simple: Mat, ambient_dim: int) -> CorootLattice:
    """The weights from one Gauss-Jordan elimination of [P | I],
    P_ij = <a_i, a_j^vee>, which leaves [I | P^-1]."""
    coroots = tuple(coroot(a) for a in simple)
    n = len(simple)
    reduced, _ = rref(
        [[dot(a, b) for b in coroots] + [int(i == j) for j in range(n)] for i, a in enumerate(simple)]
    )
    weights = [
        [sum(x * a[j] for x, a in zip(row[n:], simple)) for j in range(ambient_dim)]
        for row in reduced
    ]
    den, ints = scale_to_ints(weights + list(coroots))
    return CorootLattice(coroots, den, tuple(map(tuple, ints[:n])), tuple(map(tuple, ints[n:])))


def reference_from_lattice_coords(rs: RootSystem, coeffs) -> Vec:
    """RootSystem.from_lattice_coords as it was before it became one
    integer combination of the simple coroots."""
    out = [Q(0)] * rs.ambient_dim
    for c, av in zip(coeffs, rs.coroot_lattice.coroots, strict=True):
        for j in range(rs.ambient_dim):
            out[j] += c * av[j]
    return tuple(out)
