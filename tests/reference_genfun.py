"""Polynomial factors and the W0 tables as the element loop built them,
which only the tests use."""

from __future__ import annotations

from coxlen.genfun import BivariatePolynomial, enumerate_w0
from coxlen.linalg import rref_pivots
from coxlen.reflen import _quotient_lines


def poly_s_plus(k: int) -> BivariatePolynomial:
    """s + k t."""
    return BivariatePolynomial.from_dict({(1, 0): 1, (0, 1): k})


def reference_genfun_tables(rs):
    """genfun._genfun_tables by enumerating W0 and reading each element's
    move space (RootTables.move_space) off its root permutation, one row
    per distinct space in first-seen order."""
    counts: dict[tuple[tuple[int, ...], ...], int] = {}
    for perm in enumerate_w0(rs).elements:
        key = rs.tables.move_space(perm)
        counts[key] = counts.get(key, 0) + 1
    out = []
    for key, mult in counts.items():
        pivots = rref_pivots(key)
        out.append((len(key), key, pivots, _quotient_lines(rs, key, pivots), mult))
    return tuple(out)
