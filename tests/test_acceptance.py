"""Acceptance suite: ten end-to-end criteria, one test each.

Each test prints a single PASS line (visible with pytest -s or in the
captured output) containing its runtime; stated runtime limits are
asserted.  Randomized criteria use fixed seeds so the suite is
reproducible.
"""

import itertools
import random
import time
from fractions import Fraction as Q

from coxlen.affgroup import (
    AffineElement,
    AffineReflection,
    AffineSubspace,
    compose,
    fixed_set,
    identity_element,
    inverse,
    is_elliptic,
    linear_move_space,
    product,
    translation_element,
)
from coxlen.affsym import (
    cycles,
    embed_window,
    good_origin_split,
    l_map,
    minimal_null_blocks,
    null_complex,
    nullity,
    perm_matrix,
    proper_basic_null_block_count,
    reflection_length,
    window_root_system,
)
from coxlen.errors import BudgetExceeded
from coxlen.genfun import (
    BivariatePolynomial,
    classify_coroots,
    exponent_product,
    is_generic,
    local_genfun,
    poly_one_plus,
    spherical_genfun,
)
from coxlen.linalg import in_span, is_zero, mat_vec, vec
from coxlen.oracle import brute_nullity, brute_reflection_lengths
from coxlen.reflen import (
    dimension_report,
    hurwitz_move,
    min_factorization,
    translation_elliptic_split,
)
from coxlen.rootsys import root_system
from reference_affgroup import is_translation, move_set, rebased_normal_form
from reference_affsym import basic_null_blocks, window_from_normal_form
from reference_genfun import poly_s_plus
from w0_matrices import w0_matrices

V0 = (-3, -2, -2, -1, 1, 2, 5)


def _report(num: int, detail: str, started: float, limit: float | None) -> None:
    elapsed = time.monotonic() - started
    print(f"PASS criterion {num}: {detail} ({elapsed:.2f}s)")
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, limit {limit}s"


def _random_element(rng, rs, max_len=4, max_level=2):
    k = len(rs.positive_roots)
    factors = [
        AffineReflection.make(
            rs.positive_roots[rng.randrange(k)], rng.randint(-max_level, max_level)
        )
        for _ in range(rng.randint(0, max_len))
    ]
    return product(factors) if factors else identity_element(rs.ambient_dim)


def _random_window(rng, n, bound):
    pi = list(range(1, n + 1))
    rng.shuffle(pi)
    while True:
        head = [rng.randint(-bound, bound) for _ in range(n - 1)]
        tail = -sum(head)
        if abs(tail) <= bound:
            return window_from_normal_form(tuple(head + [tail]), tuple(pi))


def test_criterion_01_rank2_table():
    started = time.monotonic()
    sp, op = poly_s_plus, poly_one_plus
    long_coroot = tuple(Q(c, 3) for c in (-1, -1, 2))
    cases = [
        ("A2", (0, 0, 0), op(1) * op(2)),
        ("A2", (1, -1, 0), sp(1) * op(2)),
        ("A2", (2, -1, -1), sp(1) * sp(2)),
        ("B2", (0, 0), op(1) * op(3)),
        ("B2", (2, 0), sp(1) * op(3)),
        ("B2", (1, 1), sp(1) * op(3)),
        ("B2", (3, 1), sp(1) * sp(3)),
        ("G2", (0, 0, 0), op(1) * op(5)),
        ("G2", (1, -1, 0), sp(1) * op(5)),
        ("G2", long_coroot, sp(1) * op(5)),
        ("G2", (3, -2, -1), sp(1) * sp(5)),
    ]
    for name, lam, expected in cases:
        rs = root_system(name)
        assert local_genfun(rs, vec(list(lam))) == expected, (name, lam)
    _report(1, f"{len(cases)} rank-2 local polynomials exact", started, 10)


def test_criterion_02_a3_table():
    started = time.monotonic()
    rs = root_system("A3")
    sp, op = poly_s_plus, poly_one_plus
    pinned = BivariatePolynomial.from_dict(
        {(0, 2): 2, (0, 3): 6, (1, 1): 4, (1, 2): 9, (2, 0): 1, (2, 1): 2}
    )
    expected = {
        op(1) * op(2) * op(3),
        sp(1) * op(2) * op(3),
        pinned,
        sp(1) * sp(2) * op(3),
        sp(1) * BivariatePolynomial.from_dict({(0, 1): 1, (0, 2): 6, (1, 0): 1, (1, 1): 4}),
        sp(1) * sp(2) * sp(3),
    }
    classes = classify_coroots(rs, 3)
    assert set(classes) == expected
    assert len(classes) == 6
    lam = rs.from_lattice_coords((1, 0, 1))  # alpha_1 check + alpha_3 check
    assert local_genfun(rs, lam) == pinned
    assert lam in classes[pinned]
    _report(2, "A3 radius-3 classes match the six expected polynomials", started, 60)


def test_criterion_03_shephard_todd():
    started = time.monotonic()
    names = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "G2", "F4"]
    for name in names:
        rs = root_system(name)
        assert spherical_genfun(rs) == exponent_product(rs), name
    _report(3, f"length distribution equals exponent product for {len(names)} types", started, 120)


def test_criterion_04_null_pipeline():
    started = time.monotonic()
    expected_minimal = [
        {4, 5}, {2, 6}, {3, 6}, {1, 5, 6}, {1, 2, 7}, {1, 3, 7}, {2, 3, 4, 7},
    ]
    got = [set(b) for b in minimal_null_blocks(V0)]
    assert sorted(got, key=sorted) == sorted(expected_minimal, key=sorted)
    cx = null_complex(V0)
    assert len(cx.vertices) == 7
    assert len(cx.edges) == 7
    triangles = [
        (i, j, k)
        for (i, j) in cx.edges
        for k in range(j + 1, len(cx.vertices))
        if (j, k) in cx.edges and (i, k) in cx.edges
    ]
    assert len(triangles) == 2
    expected_cliques = {
        frozenset({frozenset({1, 2, 7}), frozenset({3, 6}), frozenset({4, 5})}),
        frozenset({frozenset({1, 3, 7}), frozenset({2, 6}), frozenset({4, 5})}),
        frozenset({frozenset({1, 5, 6}), frozenset({2, 3, 4, 7})}),
    }
    assert {frozenset(c) for c in cx.maximal_cliques} == expected_cliques
    assert nullity(V0) == 3
    brute_subsets = sum(
        1
        for mask in range(1, 2 ** 7 - 1)
        if sum(V0[i] for i in range(7) if mask >> i & 1) == 0
    )
    assert proper_basic_null_block_count(V0) == brute_subsets == 12
    _report(4, "v0 pipeline: 7 minimal blocks, 7+7+2 complex, nullity 3, 12 proper", started, 1)


def test_criterion_05_oracle_equivalence():
    started = time.monotonic()
    checked = 0
    for name in ("A2", "B2", "G2"):
        rs = root_system(name)
        elements = []
        reps = []
        for coeffs in itertools.product(range(-2, 3), repeat=rs.rank):
            lam = rs.from_lattice_coords(coeffs)
            for m in w0_matrices(rs):
                w = AffineElement(m, lam)  # t_lam followed by the linear part
                elements.append(w)
                reps.append(dimension_report(rs, w).length)
        results = brute_reflection_lengths(rs, elements)
        mismatches = [
            (i, r.length, reps[i]) for i, r in enumerate(results) if r.length != reps[i]
        ]
        uncertified = [i for i, r in enumerate(results) if not r.certified]
        assert mismatches == [], (name, mismatches[:5])
        assert uncertified == [], (name, len(uncertified))
        checked += len(elements)
    _report(5, f"oracle equals 2d+e on {checked} elements, all certified", started, 600)


def test_criterion_06_window_agreement():
    started = time.monotonic()
    rng = random.Random(20260823)
    bounds = {3: 7, 4: 5, 5: 4}
    mismatch = 0
    for _ in range(500):
        n = rng.choice([3, 4, 5])
        win = _random_window(rng, n, bounds[n])
        assert all(-25 <= v <= 25 for v in win.values)
        rs = window_root_system(n)
        rep = dimension_report(rs, embed_window(win))
        if reflection_length(win) != rep.length:
            mismatch += 1
        lam, pi = win.normal_form()
        v = l_map(cycles(pi), lam)
        if nullity(v) != brute_nullity(v):
            mismatch += 1
    assert mismatch == 0
    _report(6, "500 windows: combinatorial length and nullity agree", started, 120)


def test_criterion_07_splits():
    started = time.monotonic()
    rng = random.Random(4251)
    budget_exceeded = 0
    checked = 0
    for name in ("A2", "B2", "C2", "G2"):
        rs = root_system(name)
        for _ in range(200):
            w = _random_element(rng, rs)
            rep = dimension_report(rs, w)
            try:
                t, u = translation_elliptic_split(rs, w)
            except BudgetExceeded:
                budget_exceeded += 1
                continue
            assert is_translation(t) and is_elliptic(u)
            assert compose(t, u) == w
            assert dimension_report(rs, t).length == 2 * rep.d
            assert dimension_report(rs, u).length == rep.e
            checked += 1
    for _ in range(100):
        win = _random_window(rng, 4, 3)
        rs = window_root_system(4)
        w = embed_window(win)
        rep = dimension_report(rs, w)
        try:
            origin, (t, u) = good_origin_split(win)
        except BudgetExceeded:
            budget_exceeded += 1
            continue
        assert compose(t, u) == w
        mu, u_prime = rebased_normal_form(w, origin)
        assert compose(translation_element(mu), u_prime) == w
        assert (
            dimension_report(rs, translation_element(mu)).length
            + dimension_report(rs, u_prime).length
            == rep.length
        )
        checked += 1
    assert budget_exceeded == 0
    _report(7, f"{checked} splits verified, budget-exceeded rate 0", started, None)


def test_criterion_08_normal_form_insufficiency():
    started = time.monotonic()
    rs = root_system("B2")
    # Coxeter element of the A1 x A1 parabolic fixing (1/2, 1/2): the
    # point symmetry w = (-I, (1,1))
    w = product(
        [
            AffineReflection.make(vec([1, 1]), 1),
            AffineReflection.make(vec([1, -1]), 0),
        ]
    )
    assert w.linear == ((Q(-1), Q(0)), (Q(0), Q(-1)))
    assert w.translation == (1, 1)
    rep = dimension_report(rs, w)
    assert rep.length == 2
    origins = 0
    for a in range(-2, 3):
        for b in range(-2, 3):
            y = rs.from_lattice_coords((a, b))
            mu, u = rebased_normal_form(w, y)
            assert not is_zero(mu), y
            rebased = (
                dimension_report(rs, translation_element(mu)).length
                + dimension_report(rs, u).length
            )
            assert rebased >= 4 > rep.length
            origins += 1
    _report(8, f"all {origins} lattice-origin normal forms have nonzero translation", started, None)


def test_criterion_09_property_suite():
    started = time.monotonic()
    rng = random.Random(997)
    b2 = root_system("B2")
    a2 = root_system("A2")
    cases = 0

    # Hurwitz moves preserve the product
    for _ in range(150):
        rs = rng.choice([a2, b2])
        w = _random_element(rng, rs)
        f = min_factorization(rs, w)
        if len(f) >= 2:
            i = rng.randrange(len(f) - 1)
            g = hurwitz_move(f, i, rng.choice(["left", "right"]))
            assert g.product(w.dim) == w
        cases += 1

    # parity and the 2n bound
    for _ in range(150):
        rs = rng.choice([a2, b2])
        w = _random_element(rng, rs)
        rep = dimension_report(rs, w)
        assert rep.length % 2 == rep.e % 2
        assert rep.e <= rep.length <= 2 * rs.rank
        assert dimension_report(rs, inverse(w)).length == rep.length
        cases += 1

    # conjugacy invariance
    for _ in range(150):
        rs = rng.choice([a2, b2])
        w = _random_element(rng, rs)
        g = _random_element(rng, rs)
        conj = compose(compose(g, w), inverse(g))
        assert dimension_report(rs, conj).length == dimension_report(rs, w).length
        cases += 1

    # triangle inequality
    for _ in range(150):
        rs = rng.choice([a2, b2])
        w, v = _random_element(rng, rs), _random_element(rng, rs)
        assert (
            dimension_report(rs, compose(w, v)).length
            <= dimension_report(rs, w).length + dimension_report(rs, v).length
        )
        cases += 1

    # move-set containment: Mov(wv) inside Mov(w) + Mov(v)
    for _ in range(150):
        rs = rng.choice([a2, b2])
        w, v = _random_element(rng, rs), _random_element(rng, rs)
        mw, mv = move_set(w), move_set(v)
        minkowski = AffineSubspace.from_point_and_directions(
            tuple(x + y for x, y in zip(mw.base, mv.base)),
            tuple(mw.directions) + tuple(mv.directions),
        )
        assert minkowski.contains_subspace(move_set(compose(w, v)))
        cases += 1

    # elliptic recognition: fixed point, translation in Mov(linear),
    # d = 0, and length = e all agree
    for _ in range(150):
        rs = rng.choice([a2, b2])
        w = _random_element(rng, rs)
        rep = dimension_report(rs, w)
        e1 = is_elliptic(w)
        e2 = not fixed_set(rs, w).is_empty
        e3 = rep.d == 0 and in_span(linear_move_space(w.linear), w.translation)
        e4 = rep.length == rep.e
        assert e1 == e2 == e3 == e4, (e1, e2, e3, e4)
        cases += 1

    # the kernel of the block-sum map is the move space of the
    # permutation matrix
    for _ in range(100):
        n = rng.choice([4, 5])
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        u = linear_move_space(perm_matrix(pi))
        part = cycles(tuple(pi))
        v = vec([rng.randint(-3, 3) for _ in range(n)])
        in_kernel = all(x == 0 for x in l_map(part, v))
        assert in_kernel == in_span(u, v)
        cases += 1

    # local generating functions: orbit invariance, ray invariance,
    # and the generic closed form
    w0 = w0_matrices(b2)
    for _ in range(25):
        coeffs = (rng.randint(-2, 2), rng.randint(-2, 2))
        lam = b2.from_lattice_coords(coeffs)
        m = w0[rng.randrange(len(w0))]
        assert local_genfun(b2, mat_vec(m, lam)) == local_genfun(b2, lam)
        cases += 1
    for _ in range(25):
        coeffs = (rng.randint(-2, 2), rng.randint(-2, 2))
        lam = b2.from_lattice_coords(coeffs)
        doubled = vec([2 * x for x in lam])
        assert local_genfun(b2, doubled) == local_genfun(b2, lam)
        cases += 1
    generic_form = poly_s_plus(1) * poly_s_plus(3)
    for _ in range(25):
        coeffs = (rng.randint(-3, 3), rng.randint(-3, 3))
        lam = b2.from_lattice_coords(coeffs)
        if is_generic(b2, lam):
            assert local_genfun(b2, lam) == generic_form
        cases += 1

    assert cases >= 1000
    _report(9, f"{cases} property checks, zero failures", started, None)


def test_criterion_10_zero_subset_detector():
    started = time.monotonic()
    rng = random.Random(1202)
    for _ in range(200):
        m = rng.randint(1, 11)
        v = [rng.randint(-4, 4) for _ in range(m)]
        padded = tuple(v) + (-sum(v),)
        detected = nullity(padded) >= 2
        brute = any(
            sum(v[i] for i in range(m) if mask >> i & 1) == 0
            for mask in range(1, 2 ** m)
        )
        assert detected == brute, v
        # on the padded zero-sum vector, the basic blocks are exactly
        # the zero-sum subsets with no zero entries, and the minimal
        # blocks are the inclusion-minimal zero-sum subsets
        np = len(padded)
        family = {
            frozenset(i + 1 for i in range(np) if mask >> i & 1)
            for mask in range(1, 2 ** np)
            if sum(padded[i] for i in range(np) if mask >> i & 1) == 0
        }
        basics = {b for bucket in basic_null_blocks(padded) for b in bucket}
        assert basics == {
            b for b in family if all(padded[i - 1] != 0 for i in b)
        }
        expected_minimal = {
            b for b in family if not any(c < b for c in family)
        }
        assert set(minimal_null_blocks(padded)) == expected_minimal
    _report(10, "200 multisets: detector agrees with subset exhaustion", started, None)
