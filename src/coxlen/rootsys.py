"""Crystallographic root systems for the affine families A-D, G2, F4.

Coordinates follow the usual Bourbaki realisations.  Types B, C, D, F
live in R^n with n = rank.  Type A_n lives in the zero-sum hyperplane of
R^(n+1) so that roots stay integral.  G2 is realised the same way, in
the zero-sum hyperplane of R^3: a rank-2 ambient realisation of G2
cannot have all-rational coordinates (6 is not a sum of two rational
squares), and exactness is non-negotiable here.

B2 and C2 are deliberately distinct objects: their hyperplanes agree but
their coroot lattices, hence their translation subgroups, do not.

build_root_system walks the closure of the simple roots under the simple
reflections once, in integer coordinates: the roots times ``scale``, 2
for F4 (whose roots have half-integer coordinates) and 1 otherwise.  The
walk remembers how it reached each root, and the rest is read off it:
the roots in sorted order, turned into tuples of Fractions once for
RootSystem.roots so every scan is deterministic; the RootTables rows, by
conjugating a parent's row with a simple reflection; the heights that
pick the highest root; and, from the integer Cartan matrix, the coroot
lattice and the fundamental coweights that turn a root permutation into
its matrix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from fractions import Fraction as Q
from functools import cached_property, lru_cache, reduce
from operator import mul, or_
from typing import Iterator, Sequence

from .errors import ParseError, UnsupportedTypeError
from .linalg import Mat, Vec, dot, int_kernel, int_line_rep, primitive_rref, rref_pivots, scale_to_ints, smul

MAX_RANK = 8

# multisets of exponents of the finite Weyl group, ascending
def _exponents(family: str, rank: int) -> tuple[int, ...]:
    if family == "A":
        return tuple(range(1, rank + 1))
    if family in ("B", "C"):
        return tuple(range(1, 2 * rank, 2))
    if family == "D":
        return tuple(sorted(list(range(1, 2 * rank - 2, 2)) + [rank - 1]))
    if family == "G":
        return (1, 5)
    return (1, 5, 7, 11)


@dataclass(frozen=True)
class RootSystemSpec:
    """A type label: family in A-D, G, F plus a rank."""

    family: str
    rank: int

    def __post_init__(self):
        fam = self.family
        if fam not in ("A", "B", "C", "D", "G", "F"):
            raise UnsupportedTypeError(f"unsupported family {fam!r}")
        lo = {"A": 1, "B": 2, "C": 2, "D": 2, "G": 2, "F": 4}[fam]
        hi = {"G": 2, "F": 4}.get(fam, MAX_RANK)
        if not (lo <= self.rank <= hi):
            raise UnsupportedTypeError(f"rank {self.rank} out of range for family {fam}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def parse_type_spec(text: str) -> RootSystemSpec:
    m = re.fullmatch(r"\s*([A-Za-z])\s*(\d+)\s*", text)
    if not m:
        raise ParseError(f"cannot parse type spec {text!r}")
    return RootSystemSpec(m.group(1).upper(), int(m.group(2)))


def _simple_roots(spec: RootSystemSpec) -> tuple[int, list[tuple[int, ...]]]:
    """(scale, the simple roots times scale), in integers: scale is 2 for
    F4, whose roots have half-integer coordinates, and 1 otherwise.  For
    A-D the simple roots are e_i - e_(i+1), and for B, C, D the last is
    e_n, 2 e_n or e_(n-1) + e_n."""
    n, fam = spec.rank, spec.family
    if fam == "G":
        return 1, [(1, -1, 0), (-2, 1, 1)]
    if fam == "F":
        return 2, [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
    dim = n + 1 if fam == "A" else n
    chain = [tuple(int(k == i) - int(k == i + 1) for k in range(dim)) for i in range(dim - 1)]
    if fam == "A":
        return 1, chain
    tail = {"B": (1,), "C": (2,), "D": (1, 1)}[fam]
    return 1, chain + [(0,) * (n - len(tail)) + tail]


def coroot(alpha: Vec) -> Vec:
    """alpha-check = 2 alpha / <alpha, alpha>."""
    return smul(Q(2) / dot(alpha, alpha), alpha)


def reflect(alpha: Vec, v: Vec) -> Vec:
    """Linear reflection of v in the hyperplane orthogonal to alpha."""
    c = dot(v, coroot(alpha))
    return tuple(x - c * a for x, a in zip(v, alpha))


@dataclass(frozen=True)
class RootSystem:
    spec: RootSystemSpec
    ambient_dim: int
    # all roots, sorted; like every field they follow from spec, so the
    # hash (read on every lru_cache lookup keyed by the system) skips them
    roots: Mat = field(hash=False)
    exponents: tuple[int, ...]
    w0_size: int
    # read off the closure that built the roots; not part of the identity
    tables: RootTables = field(compare=False, repr=False)
    highest_root: Vec = field(compare=False, repr=False)
    coroot_lattice: CorootLattice = field(compare=False, repr=False)

    @property
    def rank(self) -> int:
        return self.spec.rank

    @property
    def is_reducible(self) -> bool:
        # components of the Dynkin diagram: simple roots with a nonzero
        # integer Cartan entry are joined
        simple, cartan = self.tables.simple, self.tables.cartan
        seen = [simple[0]]
        for a in seen:
            seen += [b for b in simple if cartan[a][b] and b not in seen]
        return len(seen) < len(simple)

    @cached_property
    def simple_roots(self) -> Mat:
        return tuple(self.roots[a] for a in self.tables.simple)

    @cached_property
    def positive_roots(self) -> Mat:
        return tuple(r for r, pos in zip(self.roots, self.tables.positive) if pos)

    @cached_property
    def root_index(self) -> dict[Vec, int]:
        return {r: i for i, r in enumerate(self.roots)}

    @cached_property
    def root_lines(self) -> dict[tuple[int, ...], Vec]:
        """int_line_rep of each positive integer root -> the root: the lines
        a translation's d search reads (and never writes)."""
        t = self.tables
        return {int_line_rep(a): r for r, a, pos in zip(self.roots, t.int_roots, t.positive) if pos}

    def in_coroot_lattice(self, v: Vec) -> bool:
        return self.lattice_coords(v) is not None

    def lattice_coords(self, v: Vec) -> tuple[int, ...] | None:
        """Integer coordinates of v in the simple-coroot basis, or None
        when v is not in the coroot lattice."""
        vs, (vi,) = scale_to_ints((v,))
        return self.scaled_lattice_coords(vi, vs)

    def scaled_lattice_coords(self, vi: Sequence[int], vs: int) -> tuple[int, ...] | None:
        """lattice_coords of the vector vi / vs, for integers vi and
        vs > 0: the integer core, which builds no Fraction."""
        lat = self.coroot_lattice
        m = lat.den * vs
        coords = []
        for w in lat.weights:
            c, r = divmod(sum(x * y for x, y in zip(vi, w, strict=True)), m)
            if r:
                return None
            coords.append(c)
        if any(vs * x != lat.den * y for x, y in zip(lat.combination(coords), vi)):
            return None
        return tuple(coords)

    def from_lattice_coords(self, coeffs) -> Vec:
        return tuple(Q(x, self.coroot_lattice.den) for x in self.coroot_lattice.combination(coeffs))


@dataclass(frozen=True, eq=False)
class CorootLattice:
    """The coroot lattice in the basis of the simple coroots.

    ``weights`` and ``int_coroots`` are the fundamental weights (in the
    root span) and the simple coroots, both times ``den``, as integers.
    """

    den: int
    weights: tuple[tuple[int, ...], ...]
    int_coroots: tuple[tuple[int, ...], ...]

    def combination(self, coords) -> list[int]:
        """den times the vector sum_i coords[i] a_i^vee, in integers."""
        out = [0] * len(self.int_coroots[0])
        for c, b in zip(coords, self.int_coroots, strict=True):
            if c:
                out = [x + c * y for x, y in zip(out, b)]
        return out


@dataclass(frozen=True, eq=False)
class RootTables:
    """The action of the root reflections on the roots, by index into
    RootSystem.roots, in integer arithmetic.

    Roots times ``scale`` (2 for F4, whose roots have half-integer
    coordinates, 1 otherwise) are the integer vectors ``int_roots``.
    ``reflected[a][b]`` is the index of s_a(b), ``cartan[a][b]`` the
    integer <a^vee, b>, ``negated[a]`` the index of -a,
    ``positive[a]`` whether a is lexicographically positive,
    ``simple`` the indices of the simple roots, in their order, and
    ``coroot_coords[a]`` the simple-coroot coordinates of a^vee.
    For A-D, ``coordinate_roots[k]`` holds the roots whose images under an
    element u of W0 give u e_k = +-e_s(k) (_coordinate_roots,
    reflen._signed_cycles).
    ``coweights[k]`` is the fundamental coweight w_k^vee (<a_j, w_k^vee>
    = delta_jk, in the root span) divided by ``scale``, and ``fixed`` the
    projector onto the complement of the root span (the all-ones line for
    A_n and G2, zero otherwise), both times ``linear_den`` as integers.

    An element u of W0 is the permutation ``perm`` of root indices with
    u(root b) = root perm[b]; s_a u is ``reflected[a]`` composed after it.
    An affine Weyl group element (A, mu) is the pair (perm, coords) of
    the root permutation of A and the simple-coroot coordinates of mu:
    the --element parser folds it, affgroup.require_group_element reads
    it off an AffineElement, and reflen's integer core runs on it.
    """

    scale: int
    int_roots: tuple[tuple[int, ...], ...]
    int_index: dict[tuple[int, ...], int]
    reflected: tuple[tuple[int, ...], ...]
    cartan: tuple[tuple[int, ...], ...]
    negated: tuple[int, ...]
    positive: tuple[bool, ...]
    simple: tuple[int, ...]
    coroot_coords: tuple[tuple[int, ...], ...]
    coweights: tuple[tuple[int, ...], ...]
    fixed: tuple[tuple[int, ...], ...]
    linear_den: int
    # the root subspaces, for G2 and F4 (flat_table); None for A-D
    flats: FlatTable | None = None
    # None for G2 and F4
    coordinate_roots: tuple[tuple[int, ...], ...] | None = None

    def linear(self, perm: tuple[int, ...]) -> Mat:
        """The matrix of the W0 element u with root permutation perm:
        u = sum_k (u a_k) (x) w_k^vee over the simple roots a_k, plus the
        projector onto the complement of the root span, which u fixes;
        u a_k is root perm[a_k].  Integer rows, one Fraction per entry."""
        images = [self.int_roots[perm[a]] for a in self.simple]
        rows = []
        for i, row in enumerate(self.fixed):
            for r, w in zip(images, self.coweights):
                if c := r[i]:
                    row = [y + c * x for y, x in zip(row, w)]
            rows.append(tuple(Q(y, self.linear_den) for y in row))
        return tuple(rows)

    def fold(self, factors, start: tuple[tuple[int, ...], tuple[int, ...]] | None = None):
        """The element (perm, coords) start, the identity by default, times
        s_{a,k} for each (root index, level) pair (a, k) of factors in
        turn: (A, mu) s_{a,k} = (A s_a, mu + k (A a)^vee), and A a is root
        perm[a]."""
        if start is None:
            start = tuple(range(len(self.int_roots))), (0,) * len(self.simple)
        perm, coords = start[0], list(start[1])
        for a, k in factors:
            if k:
                for i, c in enumerate(self.coroot_coords[perm[a]]):
                    coords[i] += k * c
            perm = tuple(map(perm.__getitem__, self.reflected[a]))
        return perm, tuple(coords)

    def conjugate(self, a: int, j: int, b: int, k: int) -> tuple[int, int]:
        """s_{a,j} r_{b,k} s_{a,j} = r_{s_a(b), k - j <a^vee, b>}, as a
        (root index, level) pair normalised to the positive root."""
        c = self.reflected[a][b]
        level = k - j * self.cartan[a][b]
        if self.positive[c]:
            return c, level
        return self.negated[c], -level


@dataclass(frozen=True, eq=False)
class Flat:
    """A root subspace R, the span of the roots it holds: the orthogonal
    complement of a flat of the reflection arrangement.  ``mask`` has bit
    a set for each root index a in R, ``rows`` and ``pivots`` are R's
    primitive_rref rows and their pivots, ``normals`` an integer basis of
    R^perp in the ambient space (for A_n and G2 it holds the line off
    the root span), and ``standard`` the mask of the standard parabolic
    R_J = span Phi_J of R's W0-orbit."""

    mask: int
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]
    normals: tuple[tuple[int, ...], ...]
    standard: int

    @property
    def dim(self) -> int:
        return len(self.rows)

    def holds(self, x) -> bool:
        """Whether the integer vector x lies in R."""
        return not any(sum(map(mul, n, x)) for n in self.normals)


@dataclass(frozen=True, eq=False)
class FlatTable:
    """Every root subspace of a root system: ``layers[k]`` holds those of
    dimension k, orbit by orbit, and ``by_mask`` finds one by its roots."""

    layers: tuple[tuple[Flat, ...], ...]
    by_mask: dict[int, Flat]

    def holding(self, x, above: Flat | None = None) -> Iterator[Flat]:
        """The root subspaces that hold the integer vector x, ascending in
        dimension, lazily: all of them, or only those that contain the
        subspace above.  A proper one lies in one of corank 1, so those are
        tested first, and a lower one only if its roots lie in those that
        held x."""
        mask, low = (above.mask, above.dim) if above else (0, 0)
        *lower, hyper, top = self.layers
        # below the top every subspace has a normal, and the first alone
        # rules out most
        hits = [f for f in hyper if f.mask & mask == mask and not sum(map(mul, f.normals[0], x)) and f.holds(x)]
        if hits:
            covered = reduce(or_, (f.mask for f in hits))
            for layer in lower[low:]:
                yield from (
                    f
                    for f in layer
                    if f.mask & mask == mask
                    and not f.mask & ~covered
                    and not sum(map(mul, f.normals[0], x))
                    and f.holds(x)
                )
            yield from hits
        yield from (f for f in top if f.holds(x))


def flat_table(tables: RootTables) -> FlatTable:
    """The root subspaces, as W0-orbits of the standard parabolic ones
    (Steinberg: every root subspace is the move space of an element of
    W0, so is conjugate to some R_J).  For each subset J of the simple
    roots, Phi_J holds the roots whose coroot_coords vanish off J; unless
    an earlier orbit holds it, its W0-orbit is walked by lookups in
    tables.reflected, each subspace keyed by the set of root indices in it
    and carrying the images of J's simple roots, which span it.  Within a
    layer, orbits come J in binary order, each breadth first."""
    gens = [tables.reflected[i] for i in tables.simple]
    rank, dim = len(tables.simple), len(tables.int_roots[0])
    support = [sum(1 << i for i, x in enumerate(c) if x) for c in tables.coroot_coords]
    seen: set[frozenset[int]] = set()
    layers: list[list[Flat]] = [[] for _ in range(rank + 1)]
    for bits in range(1 << rank):
        inside = frozenset(a for a, s in enumerate(support) if not s & ~bits)
        if inside in seen:
            continue
        seen.add(inside)
        standard = sum(1 << a for a in inside)
        orbit = [(inside, [b for i, b in enumerate(tables.simple) if bits >> i & 1])]
        for roots, images in orbit:
            rows = primitive_rref(tables.int_roots[b] for b in images)
            pivots = rref_pivots(rows)
            normals = int_kernel(rows, pivots, dim)
            layers[len(rows)].append(Flat(sum(1 << a for a in roots), rows, pivots, normals, standard))
            for g in gens:
                image = frozenset(map(g.__getitem__, roots))
                if image not in seen:
                    seen.add(image)
                    orbit.append((image, [g[b] for b in images]))
    return FlatTable(tuple(map(tuple, layers)), {f.mask: f for layer in layers for f in layer})


@lru_cache(maxsize=None)
def build_root_system(spec: RootSystemSpec) -> RootSystem:
    """Close the simple roots under simple reflections, in integers.

    Every root of an irreducible crystallographic system is conjugate to
    a simple root under these reflections, so the closure is all of Phi;
    the counts are pinned in the tests.  Each root c = s_i(b) first
    reached from b gives, with s_c = s_i s_b s_i and c^vee = s_i(b^vee):
    reflected[c] = s_i o reflected[b] o s_i, cartan[c][x] =
    cartan[b][s_i(x)], coroot coordinates those of b less
    <b^vee, a_i> at i, and height that of b less <a_i^vee, b>.
    """
    scale, ints = _simple_roots(spec)
    norms = [sum(x * x for x in a) for a in ints]
    rank = len(ints)
    # pairing[b][i] = <a_i^vee, b>, images[b][i] = s_i(b), and each root c
    # other than a_i was first reached as s_i(b) with parent[c] = (b, i)
    pairing, images, parent = {}, {}, {a: (None, i) for i, a in enumerate(ints)}
    walk = list(ints)
    for b in walk:
        pairing[b] = row = [2 * sum(x * y for x, y in zip(a, b)) // m for a, m in zip(ints, norms)]
        images[b] = imgs = [tuple(y - c * x for x, y in zip(a, b)) if c else b for a, c in zip(ints, row)]
        for i, c in enumerate(imgs):
            if c not in parent:
                parent[c] = b, i
                walk.append(c)

    int_roots = tuple(sorted(walk))
    index = {r: k for k, r in enumerate(int_roots)}
    simple = tuple(index[a] for a in ints)
    sigma = [tuple(index[images[r][i]] for r in int_roots) for i in range(rank)]
    n = len(int_roots)
    reflected, cartan, coords, height = [None] * n, [None] * n, [None] * n, [1] * n
    for r in walk:
        k = index[r]
        b, i = parent[r]
        if b is None:
            reflected[k] = sigma[i]
            cartan[k] = tuple(pairing[x][i] for x in int_roots)
            coords[k] = tuple(int(i == j) for j in range(rank))
            continue
        kb, s = index[b], sigma[i]
        reflected[k] = tuple(map(s.__getitem__, map(reflected[kb].__getitem__, s)))
        cartan[k] = tuple(map(cartan[kb].__getitem__, s))
        c = cartan[kb][simple[i]]
        coords[k] = tuple(x - c if j == i else x for j, x in enumerate(coords[kb]))
        height[k] = height[kb] - pairing[b][i]
    dim = len(ints[0])
    # the fraction-free elimination of [P | I], P_ij = <a_i, a_j^vee> =
    # pairing[a_i][j], leaves rows [p_i e_i | M_i] with P^-1 = M / p row by
    # row; u_i = sum_k M_ik ints_k is then p_i scale times the fundamental
    # weight w_i = sum_k (P^-1)_ik a_k, which has <w_i, a_j^vee> = delta_ij
    inverse = primitive_rref([*pairing[a], *(int(i == j) for j in range(rank))] for i, a in enumerate(ints))
    dual = [(row[i], [sum(m * a[j] for m, a in zip(row[rank:], ints)) for j in range(dim)]) for i, row in enumerate(inverse)]
    # w_k^vee / scale = 2 u_k / (p_k norms_k), as w_k^vee = 2 w_k / <a_k, a_k>
    # and a_k = ints_k / scale; A_n and G2 live in the zero-sum hyperplane,
    # and the projector onto its complement, the all-ones line, is J / dim
    complement = Q(1, dim) if dim > rank else 0
    linear_den, linear_rows = scale_to_ints(
        [[Q(2 * x, p * m) for x in u] for (p, u), m in zip(dual, norms)] + [[complement] * dim] * dim
    )
    zero = (0,) * dim
    tables = RootTables(
        scale=scale,
        int_roots=int_roots,
        int_index=index,
        reflected=tuple(reflected),
        cartan=tuple(cartan),
        negated=tuple(index[tuple(-x for x in r)] for r in int_roots),
        positive=tuple(r > zero for r in int_roots),
        simple=simple,
        coroot_coords=tuple(coords),
        coweights=tuple(map(tuple, linear_rows[:rank])),
        fixed=tuple(map(tuple, linear_rows[rank:])),
        linear_den=linear_den,
        coordinate_roots=None if spec.family in "GF" else _coordinate_roots(spec.family, index, dim),
    )
    if spec.family in "GF":
        tables = replace(tables, flats=flat_table(tables))
    fraction = {x: Q(x, scale) for x in {x for r in int_roots for x in r}}
    roots = tuple(tuple(map(fraction.__getitem__, r)) for r in int_roots)

    exps = _exponents(spec.family, spec.rank)
    order = 1
    for ex in exps:
        order *= ex + 1
    return RootSystem(
        spec=spec,
        ambient_dim=dim,
        roots=roots,
        exponents=exps,
        w0_size=order,
        tables=tables,
        # the first root, in root order, of maximal height; lexicographic and
        # simple-system positivity disagree for G2, so every root is scanned
        highest_root=roots[max(range(n), key=height.__getitem__)],
        coroot_lattice=_coroot_lattice(ints, norms, dual, scale),
    )


def _coordinate_roots(family: str, index: dict[tuple[int, ...], int], dim: int) -> tuple[tuple[int, ...], ...]:
    """RootTables.coordinate_roots of a classical type: per coordinate k,
    the indices of e_k - e_j (A), e_k (B), 2 e_k (C), or e_k - e_j and
    e_k + e_j (D), with j = k + 1, or k - 1 for the last coordinate."""
    signs = {"A": (-1,), "B": (0,), "C": (0,), "D": (-1, 1)}[family]
    out = []
    for k in range(dim):
        j = k + 1 if k + 1 < dim else k - 1
        unit = [0] * dim
        unit[k] = 2 if family == "C" else 1
        out.append(tuple(index[(*unit[:j], sign, *unit[j + 1 :])] for sign in signs))
    return tuple(out)


def _coroot_lattice(ints, norms, dual, scale: int) -> CorootLattice:
    """The coroot lattice Q^vee, whose Z-basis is the simple coroots.

    v lies in Q^vee exactly when its coordinates c_i = <v, w_i> against
    the fundamental weights w_i (<w_i, a_j^vee> = delta_ij) are integers
    and sum c_i a_i^vee = v; the second test rejects vectors off the root
    span in types A and G2.  dual holds the pairs (p_i, u_i) with
    w_i = u_i / (p_i scale); the simple roots are ints / scale, and
    a_i^vee = 2 scale ints_i / norms_i.  The weights and the simple
    coroots are then scaled to integers by one common denominator, so
    lattice_coords runs in integers.
    """
    weights = [[Q(x, p * scale) for x in u] for p, u in dual]
    coroots = [[Q(2 * scale * x, m) for x in a] for a, m in zip(ints, norms)]
    den, scaled = scale_to_ints(weights + coroots)
    n = len(ints)
    return CorootLattice(den, tuple(map(tuple, scaled[:n])), tuple(map(tuple, scaled[n:])))


def root_system(text: str) -> RootSystem:
    """Convenience: build from a textual type spec like 'B3'."""
    return build_root_system(parse_type_spec(text))
