"""Window-notation helpers that only the tests use: windows from and to
normal forms and elements, a window's value at any integer, window
composition, the dimensions e and d read off a window, the profiles,
basic null blocks and minimal null blocks built from every signed subset
up front, and the good origin found by a depth-first search over the
hyperplanes of the elliptic factors."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import combinations

from coxlen.affgroup import AffineElement
from coxlen.affsym import (
    DEFAULT_PROFILE_SIZE_CAP,
    Window,
    _window_pair,
    cycles,
    relative_nullity,
    window_root_system,
)
from coxlen.errors import BudgetExceeded
from coxlen.linalg import Vec, mat_vec, transpose
from coxlen.reflen import pair_split


def window_from_normal_form(lam, pi) -> Window:
    n = len(pi)
    return Window(tuple(p + n * l for p, l in zip(pi, lam, strict=True)))


def window_value(win: Window, i: int) -> int:
    """The bijection at any integer i, extending the window by periodicity."""
    n = win.n
    i0 = (i - 1) % n + 1
    return win.values[i0 - 1] + (i - i0)


def compose_windows(a: Window, b: Window) -> Window:
    """(a o b)(i) = a(b(i))."""
    if a.n != b.n:
        raise ValueError("windows have different periods")
    return Window(tuple(window_value(a, window_value(b, i)) for i in range(1, a.n + 1)))


def window_of_element(w: AffineElement) -> Window:
    n = w.dim
    pi = tuple(next(i + 1 for i in range(n) if w.linear[i][j] == 1) for j in range(n))
    lam = mat_vec(transpose(w.linear), w.translation)
    if any(x.denominator != 1 for x in lam):
        raise ValueError("element is not an affine permutation")
    return window_from_normal_form(tuple(int(x) for x in lam), pi)


@dataclass(frozen=True)
class Profile:
    """Positive and negative support subsets bucketed by weight."""

    x_set: frozenset[int]
    y_set: frozenset[int]
    z_set: frozenset[int]
    positive_weight: int
    pos: tuple[frozenset[frozenset[int]], ...]  # index w-1 holds weight-w subsets of X
    neg: tuple[frozenset[frozenset[int]], ...]

    def pos_at(self, weight: int) -> frozenset[frozenset[int]]:
        return self.pos[weight - 1] if 1 <= weight <= len(self.pos) else frozenset()

    def neg_at(self, weight: int) -> frozenset[frozenset[int]]:
        return self.neg[weight - 1] if 1 <= weight <= len(self.neg) else frozenset()


def profiles(v) -> Profile:
    if sum(v) != 0:
        raise ValueError("profiles need a zero-sum vector")
    n = len(v)
    xs = [i for i in range(1, n + 1) if v[i - 1] > 0]
    ys = [i for i in range(1, n + 1) if v[i - 1] < 0]
    zs = [i for i in range(1, n + 1) if v[i - 1] == 0]
    if max(len(xs), len(ys)) > DEFAULT_PROFILE_SIZE_CAP:
        raise BudgetExceeded(f"profile enumeration allows DEFAULT_PROFILE_SIZE_CAP = {DEFAULT_PROFILE_SIZE_CAP} "
                             f"entries of each sign; the vector has {len(xs)} positive and {len(ys)} negative")
    vx = sum(v[i - 1] for i in xs)

    def buckets(idx, sign):
        out: list[set[frozenset[int]]] = [set() for _ in range(vx)]
        for k in range(1, len(idx) + 1):
            for c in combinations(idx, k):
                w = sign * sum(v[i - 1] for i in c)
                if 1 <= w <= vx:
                    out[w - 1].add(frozenset(c))
        return tuple(frozenset(s) for s in out)

    return Profile(
        x_set=frozenset(xs),
        y_set=frozenset(ys),
        z_set=frozenset(zs),
        positive_weight=vx,
        pos=buckets(xs, 1),
        neg=buckets(ys, -1),
    )


def _basic_blocks_at(p: Profile, weight: int) -> list[frozenset[int]]:
    """The positive parts of this weight joined with the negative ones:
    the parts lie in the disjoint X and Y, so the unions are distinct."""
    return [a | b for a in p.pos_at(weight) for b in p.neg_at(weight)]


def basic_null_blocks(v) -> tuple[frozenset[frozenset[int]], ...]:
    """Weight-indexed dot product of the profiles: every zero-sum block
    avoiding the zero entries arises once as a positive part joined with
    a negative part of the same weight."""
    p = profiles(v)
    return tuple(frozenset(_basic_blocks_at(p, w)) for w in range(1, p.positive_weight + 1))


def elliptic_dimension_window(win: Window) -> int:
    _, pi = win.normal_form()
    return win.n - len(cycles(pi))


def differential_dimension_window(win: Window) -> int:
    lam, pi = win.normal_form()
    return len(cycles(pi)) - relative_nullity(lam, pi)


def reference_minimal_null_blocks(v, cap: int | None = None) -> tuple[frozenset[int], ...]:
    """Left-to-right sweep over the weight-indexed basic blocks, each
    weight built when the sweep reaches it: blocks of the first nonempty
    weight are minimal, supersets of confirmed minimal blocks are
    deleted from later weights, and every zero entry contributes a
    singleton.  Raises BudgetExceeded as soon as there are more than cap."""
    p = profiles(v)
    singles = [frozenset([i + 1]) for i, x in enumerate(v) if x == 0]
    confirmed: list[frozenset[int]] = []
    for w in range(1, p.positive_weight + 1):
        for b in sorted(_basic_blocks_at(p, w), key=sorted):
            if not any(c < b for c in confirmed):
                confirmed.append(b)
                if cap is not None and len(confirmed) + len(singles) > cap:
                    raise BudgetExceeded(
                        f"{len(confirmed) + len(singles)} minimal null blocks exceed the vertex cap {cap} "
                        f"by weight {w} of {p.positive_weight}"
                    )
    return tuple(sorted(confirmed + singles, key=sorted))


def reference_good_origin_split(lam, pi, budget: int) -> tuple[Vec, tuple[int, ...], tuple[int, ...]]:
    """The origin of good_origin_split for the window with normal form
    (lam, pi), and the simple-coroot coordinates of t and of u.

    The origin is checked in integers on the assignment x it recentres:
    u = (P, mu), P sending e_j to e_pi(j), maps x_j to position pi(j), so
    u fixes x exactly when x_pi(j) = x_j + mu_pi(j) for every j, and
    recentring subtracts a multiple of the all-ones vector, which u fixes."""
    n = len(pi)
    rs = window_root_system(n)
    coords_t, coords_u, _, _, elliptic = pair_split(rs, *_window_pair(rs, lam, pi), budget)
    # constraints x_a - x_b = level form a forest (independent roots),
    # so integer values propagate consistently from any per-tree anchor
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(1, n + 1)}
    for r in elliptic.factors:
        a = next(i for i, c in enumerate(r.root) if c == 1) + 1
        b = next(i for i, c in enumerate(r.root) if c == -1) + 1
        adj[a].append((b, -r.level))
        adj[b].append((a, r.level))
    assign: dict[int, int] = {}
    for start in range(1, n + 1):
        if start in assign:
            continue
        assign[start] = 0
        stack = [start]
        while stack:
            i = stack.pop()
            for j, delta in adj[i]:
                if j not in assign:
                    assign[j] = assign[i] + delta
                    stack.append(j)
                elif assign[j] != assign[i] + delta:
                    raise AssertionError("dependent roots in an elliptic factorisation")
    lattice = rs.coroot_lattice
    mu = lattice.combination(coords_u)  # den times the translation of u
    if any(lattice.den * (assign[p] - assign[j]) != mu[p - 1] for j, p in enumerate(pi, 1)):
        raise AssertionError("constructed origin is not fixed by the elliptic part")
    shift = Q(sum(assign.values()), n)
    return tuple(assign[i] - shift for i in range(1, n + 1)), coords_t, coords_u
