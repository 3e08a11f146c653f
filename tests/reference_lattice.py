"""Reference coroot-lattice membership for the tests: a general
rational lattice kept in Hermite normal form, independent of the
simple-coroot coordinates coxlen uses."""

from __future__ import annotations

from fractions import Fraction as Q
from math import lcm
from typing import Sequence

from coxlen.linalg import Vec, vec


def _hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by integer rows."""
    rows = [r[:] for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    basis: list[list[int]] = []
    r = 0
    for c in range(ncols):
        idx = [i for i in range(r, len(rows)) if rows[i][c] != 0]
        if not idx:
            continue
        # reduce all entries in this column to a single gcd pivot row
        while len(idx) > 1:
            idx.sort(key=lambda i: abs(rows[i][c]))
            i0 = idx[0]
            for i in idx[1:]:
                q = rows[i][c] // rows[i0][c]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[i0])]
            idx = [i for i in idx if rows[i][c] != 0]
        i0 = idx[0]
        rows[r], rows[i0] = rows[i0], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-a for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                q = rows[i][c] // rows[r][c]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        r += 1
    del rows[r:]
    return rows


class RationalLattice:
    """Finitely generated subgroup of Q^n, with exact membership tests.

    Internally: scale generators by the common denominator, keep an
    integer Hermite basis, divide back out on the way in and out.
    """

    def __init__(self, generators: Sequence[Vec]):
        gens = [vec(g) for g in generators]
        if not gens:
            raise ValueError("lattice needs at least one generator")
        self.dim = len(gens[0])
        self.scale = lcm(*(x.denominator for g in gens for x in g), 1)
        int_rows = [[int(x * self.scale) for x in g] for g in gens]
        self._rows = _hnf(int_rows)
        self._pivots = [next(j for j, x in enumerate(row) if x != 0) for row in self._rows]

    def contains(self, v: Vec) -> bool:
        return self.coords(v) is not None

    def coords(self, v: Vec) -> tuple[int, ...] | None:
        """Integer coordinates of v in the Hermite basis, or None."""
        scaled = [x * self.scale for x in v]
        if any(x.denominator != 1 for x in scaled):
            return None
        work = [int(x) for x in scaled]
        out = []
        for row, p in zip(self._rows, self._pivots):
            if work[p] % row[p] != 0:
                return None
            q = work[p] // row[p]
            out.append(q)
            work = [a - q * b for a, b in zip(work, row)]
        if any(work):
            return None
        return tuple(out)

    def from_coords(self, coeffs: Sequence[int]) -> Vec:
        out = [Q(0)] * self.dim
        for c, row in zip(coeffs, self._rows, strict=True):
            for j, x in enumerate(row):
                out[j] += Q(c * x, self.scale)
        return tuple(out)
