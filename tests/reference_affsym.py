"""Window-notation helpers that only the tests use: windows from and to
normal forms and elements, a window's value at any integer, window
composition, the dimensions e and d read off a window, and the basic
null blocks built in full."""

from __future__ import annotations

from coxlen.affgroup import AffineElement
from coxlen.affsym import Window, _basic_blocks_at, cycles, profiles, relative_nullity
from coxlen.linalg import mat_vec, transpose


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
