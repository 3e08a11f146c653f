"""Exact helpers the benchmark uses to build inputs and check answers.

Nothing here calls coxlen: the checks must not share code with the
program they check.  Vectors are tuples of Fractions.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm
from operator import mul


def dot(a, b) -> Q:
    return sum(map(mul, a, b), Q(0))


@lru_cache(maxsize=None)
def coroot(alpha):
    c = Q(2) / dot(alpha, alpha)
    return tuple(c * x for x in alpha)


def combination(vectors, coeffs):
    """sum of coeffs[i] * vectors[i]."""
    out = [Q(0)] * len(vectors[0])
    for c, v in zip(coeffs, vectors, strict=True):
        for j, x in enumerate(v):
            out[j] += c * x
    return tuple(out)


def fmt_vector(v) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


def parse_vector(entries) -> tuple[Q, ...]:
    """JSON vectors come back as lists of rational strings."""
    return tuple(Q(x) for x in entries)


def _echelon(rows) -> list[tuple[int, list[Q]]]:
    """(pivot, row) pairs of an echelon basis of the row span."""
    basis: list[tuple[int, list[Q]]] = []
    for r in rows:
        w = _reduce(basis, r)
        p = next((i for i, x in enumerate(w) if x != 0), None)
        if p is not None:
            basis.append((p, [x / w[p] for x in w]))
    return basis


def _reduce(basis, v) -> list[Q]:
    w = list(v)
    for p, row in basis:
        if w[p] != 0:
            c = w[p]
            w = [x - c * y for x, y in zip(w, row)]
    return w


def rank(rows) -> int:
    return len(_echelon(rows))


def in_span(rows, v) -> bool:
    """v lies in the row span of rows (Gaussian elimination over Q)."""
    return not any(_reduce(_echelon(rows), v))


def reflect_point(root, level, x):
    """The affine reflection fixing <y, root> = level, applied to x."""
    c = dot(x, root) - level
    return tuple(xi - c * ai for xi, ai in zip(x, coroot(root)))


def apply_element(simple_roots, lam, word, x):
    """t_lam s_{word[0]} ... s_{word[-1]} applied to x (word letters are
    0-based indices of simple roots)."""
    for i in reversed(word):
        x = reflect_point(simple_roots[i], 0, x)
    return tuple(a + b for a, b in zip(x, lam))


def apply_factors(factors, x):
    """The left-to-right product of (root, level) reflections, applied to x."""
    for root, level in reversed(factors):
        x = reflect_point(root, level, x)
    return x


def affine_frame(dim: int):
    """The origin and the unit vectors: an affine map is fixed by its
    values there."""
    zero = (Q(0),) * dim
    units = [tuple(Q(int(i == j)) for j in range(dim)) for i in range(dim)]
    return [zero] + units


def linear_image_basis(simple_roots, word, dim: int):
    """Columns (A - I) e_j of the linear part A of the word."""
    out = []
    for e in affine_frame(dim)[1:]:
        img = apply_element(simple_roots, (Q(0),) * dim, word, e)
        out.append(tuple(a - b for a, b in zip(img, e)))
    return out


@lru_cache(maxsize=None)
def _simple_reflection_permutations(simple_roots, roots):
    """For each simple reflection, the permutation it induces on roots."""
    index = {r: i for i, r in enumerate(roots)}
    return tuple(tuple(index[reflect_point(s, 0, r)] for r in roots) for s in simple_roots)


def elliptic_dimension(simple_roots, roots, word) -> int:
    """e = rank(A - I) for the linear part A of the word; the simple roots
    span the space A moves, so their images under A - I span Im(A - I)."""
    perms = _simple_reflection_permutations(simple_roots, roots)
    index = {r: i for i, r in enumerate(roots)}
    images = []
    for s in simple_roots:
        i = index[s]
        for letter in reversed(word):
            i = perms[letter][i]
        images.append(tuple(a - b for a, b in zip(roots[i], s)))
    return rank(images)


def type_a_window(simple_roots, lam, word) -> tuple[int, ...]:
    """Window of t_lam s_word in the affine symmetric group of period n
    (type A_{n-1} in the zero-sum hyperplane of Q^n): the linear part
    sends e_j to e_sigma(j), and window_j = sigma(j) + n * lam_sigma(j)."""
    n = len(lam)
    zero = (Q(0),) * n
    out = []
    for e in affine_frame(n)[1:]:
        img = apply_element(simple_roots, zero, word, e)
        sigma = next(i for i, x in enumerate(img) if x == 1)
        value = lam[sigma]
        if value.denominator != 1:
            raise ValueError("type A translation must be integral")
        out.append(sigma + 1 + n * int(value))
    return tuple(out)


def window_normal_form(values):
    """(lam, pi) with values_i = pi(i) + n * lam_i and pi(i) in 1..n."""
    n = len(values)
    pi = tuple((v - 1) % n + 1 for v in values)
    lam = tuple((v - p) // n for v, p in zip(values, pi))
    return lam, pi


def window_apply(values, x):
    """The isometry of a window on a point of Q^n:
    w(x)_{pi(j)} = x_j + lam_j."""
    lam, pi = window_normal_form(values)
    out = [Q(0)] * len(values)
    for j, p in enumerate(pi):
        out[p - 1] = x[j] + lam[j]
    return tuple(out)


def cycle_blocks(pi) -> list[list[int]]:
    seen: set[int] = set()
    blocks = []
    for start in range(1, len(pi) + 1):
        if start in seen:
            continue
        block = []
        i = start
        while i not in seen:
            seen.add(i)
            block.append(i)
            i = pi[i - 1]
        blocks.append(sorted(block))
    return blocks


def zero_sum_subsets(v) -> list[frozenset[int]]:
    """All nonempty index sets (1-based) with zero sum."""
    n = len(v)
    return [
        frozenset(i + 1 for i in range(n) if mask >> i & 1)
        for mask in range(1, 2**n)
        if sum(v[i] for i in range(n) if mask >> i & 1) == 0
    ]


def minimal_zero_sum_blocks(v) -> set[frozenset[int]]:
    blocks = zero_sum_subsets(v)
    return {b for b in blocks if not any(c < b for c in blocks)}


def disjoint_pairs(blocks) -> int:
    return sum(1 for a, b in combinations(blocks, 2) if not a & b)


def poly_product(exponents, with_s: bool) -> tuple[tuple[int, int, int], ...]:
    """prod over e of (s + e t) or (1 + e t), as sorted (s-degree,
    t-degree, coefficient) terms."""
    terms = {(0, 0): 1}
    for e in exponents:
        nxt: dict[tuple[int, int], int] = {}
        for (a, b), c in terms.items():
            head = (a + 1, b) if with_s else (a, b)
            nxt[head] = nxt.get(head, 0) + c
            nxt[(a, b + 1)] = nxt.get((a, b + 1), 0) + c * e
        terms = nxt
    return tuple((a, b, c) for (a, b), c in sorted(terms.items()) if c)


def poly1_product(exponents) -> tuple[int, ...]:
    """prod over e of (1 + e t), coefficients ascending in t."""
    out = [1]
    for e in exponents:
        out = [a + e * b for a, b in zip(out + [0], [0] + out)]
    return tuple(out)


def _det(m) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * x * _det([row[:j] + row[j + 1 :] for row in m[1:]]) for j, x in enumerate(m[0]) if x
    )


@lru_cache(maxsize=None)
def root_hyperplane_normals(positive_roots, rank: int) -> set[tuple[int, ...]]:
    """Primitive integer normals (inside the span of the roots) of every
    hyperplane spanned by roots: generalised cross products of rank - 1
    roots, plus the all-ones vector when the roots live in a zero-sum
    hyperplane of a larger ambient space."""
    dim = len(positive_roots[0])
    scale = lcm(*(x.denominator for r in positive_roots for x in r))
    roots = [tuple(int(x * scale) for x in r) for r in positive_roots]
    extra = [(1,) * dim] if dim > rank else []
    normals = set()
    for sub in combinations(roots, rank - 1):
        rows = list(sub) + extra
        n = [(-1) ** j * _det([r[:j] + r[j + 1 :] for r in rows]) for j in range(dim)]
        g = gcd(*n)
        if g:
            n = [x // g for x in n]
            sign = -1 if next(x for x in n if x) < 0 else 1
            normals.add(tuple(sign * x for x in n))
    return normals


def is_generic(family: str, positive_roots, rank: int, lam) -> bool:
    """lam lies in no hyperplane spanned by roots.  Classical types by
    their combinatorics: type A (lam in the zero-sum hyperplane) when no
    proper nonempty subset of coordinates sums to zero; types B and C
    when no nonempty subset has a signed sum of zero; type D likewise,
    except that a subset missing exactly one coordinate does not count
    (the D-type roots on one coordinate span nothing).  Other types by
    the normals of the root hyperplanes."""
    n = len(lam)
    if family not in "ABCD":
        return all(dot(n, lam) for n in root_hyperplane_normals(positive_roots, rank))
    signs = (0, 1) if family == "A" else (-1, 0, 1)
    for s in product(signs, repeat=n):
        size = n - s.count(0)
        if size == 0 or (family == "A" and size == n) or (family == "D" and size == n - 1):
            continue
        if sum(c * x for c, x in zip(s, lam)) == 0:
            return False
    return True


def weyl_group(simple_roots):
    """All elements of W0 as matrices (tuples of rows), by closing the
    simple reflections under multiplication; sorted."""
    dim = len(simple_roots[0])

    def reflection_matrix(alpha):
        av = coroot(alpha)
        return tuple(
            tuple(Q(int(i == j)) - av[i] * alpha[j] for j in range(dim)) for i in range(dim)
        )

    def mul(a, b):
        cols = list(zip(*b))
        return tuple(tuple(dot(row, col) for col in cols) for row in a)

    gens = [reflection_matrix(a) for a in simple_roots]
    ident = tuple(tuple(Q(int(i == j)) for j in range(dim)) for i in range(dim))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = mul(m, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return sorted(seen)
