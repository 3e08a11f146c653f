"""Deterministic SVG renderings for rank-2 affine Coxeter groups.

Two pictures:

  - render_alcoves: the alcove tiling out to a Euclidean radius, each
    alcove shaded by the reflection length of the unique group element
    mapping the fundamental alcove onto it, with coroot lattice points
    overlaid.
  - render_classes: coroot lattice points in a coefficient box, coloured
    by their local generating function class, over an uncoloured tiling.

All geometry is exact until the final coordinate formatting (fixed four
decimals), and every scan is sorted, so byte-identical output is
reproducible across runs.  The fundamental alcove and the lattice points
are read off the integer tables; a radius must be finite and >= 0.

Only the irreducible rank-2 types (A2, B2, C2, G2) are supported: the
fundamental alcove of a reducible type is not a simplex, and higher
ranks have no faithful planar picture.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from functools import reduce
from itertools import product
from operator import mul

from .errors import UnsupportedTypeError
from .linalg import Vec, dot, vadd
from .affgroup import AffineElement, AffineReflection, identity_element, times_reflection
from .genfun import classify_coroots
from .reflen import dimension_report
from .rootsys import RootSystem

SCALE = 80.0
NODE_RADIUS = 4.0
MARGIN = 30.0

# grayscale ramp indexed by reflection length 0..4 (light to dark)
LENGTH_FILLS = ("#f7f7f7", "#d9d9d9", "#b5b5b5", "#8a8a8a", "#5c5c5c")

# colour-blind-safe palette for class colouring, reused cyclically
CLASS_COLORS = (
    "#4477aa",
    "#ee6677",
    "#228833",
    "#ccbb44",
    "#66ccee",
    "#aa3377",
    "#bbbbbb",
    "#222255",
)


def _require_planar(rs: RootSystem) -> None:
    if rs.rank != 2 or rs.is_reducible:
        raise UnsupportedTypeError(
            f"SVG rendering supports irreducible rank-2 types, got {rs.spec}"
        )


def _require_radius(name: str, radius) -> None:
    if not (math.isfinite(radius) and radius >= 0):
        raise ValueError(f"{name} must be a finite non-negative number, got {radius}")


def _plane_basis(rs: RootSystem) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Orthonormal basis of the span of the roots, as floats."""
    if rs.ambient_dim == 2:
        return ((1.0, 0.0), (0.0, 1.0))
    # zero-sum plane in R^3
    s2, s6 = math.sqrt(2.0), math.sqrt(6.0)
    return ((1 / s2, -1 / s2, 0.0), (1 / s6, 1 / s6, -2 / s6))


def _to_plane(basis, v: Vec) -> tuple[float, float]:
    fv = tuple(float(x) for x in v)
    return (
        sum(a * b for a, b in zip(basis[0], fv)),
        sum(a * b for a, b in zip(basis[1], fv)),
    )


def _fundamental_alcove(rs: RootSystem) -> tuple[Vec, ...]:
    """Vertices of the fundamental alcove: the origin plus w_i^vee / m_i
    per simple root a_i, with m_i = <theta, w_i^vee> the coefficient of
    a_i in the highest root theta, off RootTables.coweights (w_i^vee /
    scale times linear_den) and theta times scale, both integers."""
    tables = rs.tables
    theta = [int(x * tables.scale) for x in rs.highest_root]
    origin = tuple(Q(0) for _ in range(rs.ambient_dim))
    return (origin, *(tuple(Q(tables.scale * x, sum(map(mul, theta, w))) for x in w) for w in tables.coweights))


def _wall_reflections(rs: RootSystem) -> tuple[AffineReflection, ...]:
    walls = [AffineReflection.make(a, 0) for a in rs.simple_roots]
    walls.append(AffineReflection.make(rs.highest_root, 1))
    return tuple(walls)


def _vertex_sum(verts: tuple[Vec, ...]) -> Vec:
    """The sum of an alcove's vertices, len(verts) times its centroid."""
    return reduce(vadd, verts)


def enumerate_alcoves(rs: RootSystem, radius) -> list[tuple[AffineElement, tuple[Vec, ...]]]:
    """All alcoves w(A0) whose centroid lies within the given Euclidean
    radius of the origin, with the group element that produces them, by
    breadth-first search across shared walls."""
    _require_planar(rs)
    _require_radius("radius", radius)
    a0 = _fundamental_alcove(rs)
    walls = _wall_reflections(rs)
    # the centroid lies within radius iff the vertex sum lies within len(a0) * radius
    r2 = (Q(radius) * len(a0)) ** 2

    def inside(verts):
        total = _vertex_sum(verts)
        return dot(total, total) <= r2

    start = identity_element(rs.ambient_dim)
    out = []
    seen = {(start.linear, start.translation)}
    queue = [start]
    if inside(a0):
        out.append((start, a0))
    else:
        queue = []
    while queue:
        nxt = []
        for w in queue:
            for wall in walls:
                nw = times_reflection(w, wall)
                key = (nw.linear, nw.translation)
                if key in seen:
                    continue
                seen.add(key)
                verts = tuple(nw.apply(v) for v in a0)
                if inside(verts):
                    nxt.append(nw)
                    out.append((nw, verts))
        queue = nxt
    return out


def _lattice_points(rs: RootSystem, radius) -> list[Vec]:
    """The coroot lattice points within the radius, sorted: each point of
    the coefficient box is tested on CorootLattice.combination integers,
    and only the points kept become Fraction vectors."""
    lat, r = rs.coroot_lattice, Q(radius)
    limit = math.floor(r * r * lat.den * lat.den)
    bound = int(3 * r) + 1
    pts = []
    for coords in product(range(-bound, bound + 1), repeat=2):
        v = lat.combination(coords)
        if sum(x * x for x in v) <= limit:
            pts.append(tuple(Q(x, lat.den) for x in v))
    return sorted(pts)


def _fmt(x: float) -> str:
    return f"{x:.4f}"


class _Canvas:
    """Collects SVG shapes in insertion order with a fixed transform
    from plane coordinates to pixel coordinates (y flipped)."""

    def __init__(self, half_extent: float):
        self.size = 2 * (half_extent * SCALE + MARGIN)
        self.mid = self.size / 2
        self.parts: list[str] = []

    def to_px(self, p: tuple[float, float]) -> tuple[float, float]:
        return (self.mid + SCALE * p[0], self.mid - SCALE * p[1])

    def polygon(self, pts, fill: str, stroke: str, width: float) -> None:
        coords = " ".join(
            f"{_fmt(x)},{_fmt(y)}" for x, y in (self.to_px(p) for p in pts)
        )
        self.parts.append(
            f'<polygon points="{coords}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"/>'
        )

    def circle(self, p, r: float, fill: str) -> None:
        x, y = self.to_px(p)
        self.parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{fill}"/>'
        )

    def text(self, px: float, py: float, content: str, size: int = 13) -> None:
        self.parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(py)}" font-family="monospace" '
            f'font-size="{size}" fill="#111">{_escape(content)}</text>'
        )

    def render(self) -> str:
        w = _fmt(self.size)
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{w}" height="{w}" viewBox="0 0 {w} {w}">\n'
        )
        body = "\n".join(self.parts)
        return head + body + "\n</svg>\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_alcoves(rs: RootSystem, radius=3) -> str:
    """SVG of the alcove tiling within the radius, shaded by reflection
    length, with coroot lattice points overlaid in white."""
    _require_planar(rs)
    basis = _plane_basis(rs)
    alcoves = enumerate_alcoves(rs, radius)
    canvas = _Canvas(float(radius) + 0.5)
    lengths = {}
    # sort by centroid for a reproducible paint order
    for w, verts in sorted(alcoves, key=lambda item: _vertex_sum(item[1])):
        ell = dimension_report(rs, w).length
        lengths[ell] = lengths.get(ell, 0) + 1
        fill = LENGTH_FILLS[min(ell, len(LENGTH_FILLS) - 1)]
        canvas.polygon([_to_plane(basis, v) for v in verts], fill, "#555", 0.8)
    for lam in _lattice_points(rs, radius):
        canvas.circle(_to_plane(basis, lam), NODE_RADIUS, "#ffffff")
        canvas.circle(_to_plane(basis, lam), NODE_RADIUS - 1.5, "#111111")
    for i, ell in enumerate(sorted(lengths)):
        canvas.text(
            8.0, 18.0 + 16.0 * i, f"len {ell}: {lengths[ell]} alcoves"
        )
    return canvas.render()


def render_classes(rs: RootSystem, coeff_radius: int = 2, tiling_radius=None) -> str:
    """SVG of the coroot lattice points with coefficients in the box,
    coloured by local generating function class, over an unshaded
    tiling; the legend lists each class polynomial in first-seen
    order."""
    _require_planar(rs)
    # classify_coroots checks coeff_radius; check this one before it runs
    if tiling_radius is not None:
        _require_radius("tiling_radius", tiling_radius)
    basis = _plane_basis(rs)
    classes = classify_coroots(rs, coeff_radius)
    pts_to_color = {}
    legend = []
    for ci, (f, pts) in enumerate(classes.items()):
        color = CLASS_COLORS[ci % len(CLASS_COLORS)]
        legend.append((color, f.format()))
        for p in pts:
            pts_to_color[p] = color
    extent = max(
        (math.hypot(*_to_plane(basis, p)) for p in pts_to_color), default=1.0
    )
    if tiling_radius is None:
        tiling_radius = Q(int(math.ceil(extent))) + Q(1, 2)
    canvas = _Canvas(float(tiling_radius) + 0.5)
    for w, verts in sorted(
        enumerate_alcoves(rs, tiling_radius), key=lambda it: tuple(it[1][0])
    ):
        canvas.polygon(
            [_to_plane(basis, v) for v in verts], "#ffffff", "#bbbbbb", 0.8
        )
    for p in sorted(pts_to_color):
        canvas.circle(_to_plane(basis, p), NODE_RADIUS + 1.0, pts_to_color[p])
    for i, (color, label) in enumerate(legend):
        y = 18.0 + 16.0 * i
        canvas.parts.append(
            f'<circle cx="10.0000" cy="{_fmt(y - 4.0)}" r="5.0000" fill="{color}"/>'
        )
        canvas.text(20.0, y, label)
    return canvas.render()
