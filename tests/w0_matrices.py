"""Matrices of W0 for tests that need them.

genfun.enumerate_w0 holds each element of W0 as its root permutation and
one reduced word; tests that check against matrices rebuild them here
from the words, by Fraction products of simple reflections.
"""

from functools import lru_cache

from coxlen.affgroup import AffineReflection, identity_element, product
from coxlen.genfun import enumerate_w0


def word_matrix(rs, word):
    """The matrix of the product of the simple reflections in word."""
    simple = [AffineReflection.make(a, 0) for a in rs.simple_roots]
    return product([identity_element(rs.ambient_dim)] + [simple[i] for i in word]).linear


@lru_cache(maxsize=None)
def w0_matrices(rs):
    """The matrices of enumerate_w0(rs).elements, in the same order."""
    return tuple(word_matrix(rs, word) for word in enumerate_w0(rs).words)
