"""Linear-algebra helpers that only the tests use: the rank of a Fraction
matrix, and the positive root on a given line."""

from __future__ import annotations

from typing import Sequence

from coxlen.linalg import Vec, line_rep, rref
from coxlen.rootsys import RootSystem


def rank(rows: Sequence[Vec]) -> int:
    return len(rref(rows)[0])


def canonical_root(rs: RootSystem, alpha: Vec) -> Vec:
    """The lexicographically positive root on the line through alpha."""
    key = line_rep(alpha)
    for r in rs.positive_roots:
        if line_rep(r) == key:
            return r
    raise ValueError(f"{alpha} does not span a root line of {rs.spec}")
