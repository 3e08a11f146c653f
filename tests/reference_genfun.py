"""Polynomial factors that only the tests use."""

from __future__ import annotations

from coxlen.genfun import BivariatePolynomial


def poly_s_plus(k: int) -> BivariatePolynomial:
    """s + k t."""
    return BivariatePolynomial.from_dict({(1, 0): 1, (0, 1): k})
