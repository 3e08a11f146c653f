"""The three benchmark workloads: seeded inputs, the timed operations and
the check of every answer.

Each workload builds a list of ``Op``.  ``Op.run`` is what the timed
pass calls; it reaches coxlen only through module attributes
(``coxlen.cli.main``, ``coxlen.genfun.local_genfun``, ...) so the
tracer's wrappers see every call.  ``Op.check`` runs after the timed
passes and returns ``None`` for a correct answer or the reason it is
wrong.  Checks lean on ``exact`` (no coxlen code) wherever an
independent check exists; where the check is agreement between two
coxlen paths (factor count against ``dimension_report``, window output
against ``embed_window``), the second path is called from here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Any, Callable

import coxlen.affgroup
import coxlen.affsym
import coxlen.cli
import coxlen.genfun
import coxlen.oracle
import coxlen.reflen
import coxlen.render
import coxlen.rootsys

import exact

HERE = os.path.dirname(os.path.abspath(__file__))

# The lru caches every fresh interpreter starts without.  Root systems
# are built during set-up and stay; these are cleared before each pass.
PASS_CACHES = (
    coxlen.genfun.enumerate_w0,
    coxlen.genfun._genfun_tables,
    coxlen.oracle._oracle_tables,
)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def root_system(name: str):
    return coxlen.rootsys.root_system(name)


def warm_root_system(name: str):
    """Build a root system and every lazy attribute the workloads reach,
    so passes do the same work whichever comes first."""
    rs = root_system(name)
    rs.positive_roots, rs.root_index, rs.coroot_lattice, rs.highest_root
    return rs


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = coxlen.cli.main(argv)
    return code, out.getvalue()


def cli_payload(result) -> dict:
    code, text = result
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(text)


def _lam_from_coeffs(rs, coeffs):
    return exact.combination([exact.coroot(a) for a in rs.simple_roots], coeffs)


def _element_text(lam, word) -> str:
    text = f"lambda={exact.fmt_vector(lam)}"
    if word:
        text += "; word=" + " ".join(f"s{i + 1}" for i in word)
    return text


@dataclass
class Element:
    """t_lam s_word in the affine Weyl group of ``type_name``."""

    type_name: str
    lam: tuple[Q, ...]
    word: tuple[int, ...]

    @property
    def rs(self):
        return root_system(self.type_name)

    @property
    def text(self) -> str:
        return _element_text(self.lam, self.word)

    def argv(self, command: str) -> list[str]:
        return [command, "--type", self.type_name, "--element", self.text, "--json"]

    def apply(self, x):
        return exact.apply_element(self.rs.simple_roots, self.lam, self.word, x)

    def same_map(self, other: Callable) -> bool:
        return all(other(x) == self.apply(x) for x in exact.affine_frame(len(self.lam)))

    def program_report(self):
        rs = self.rs
        return coxlen.reflen.dimension_report(rs, coxlen.cli.parse_element(rs, self.text))


def _roots_ok(rs, roots) -> bool:
    return all(r in rs.root_index for r in roots)


def check_len(el: Element, result, expected_d: int | None = None) -> str | None:
    p = cli_payload(result)
    e, d, dim, length = p["e"], p["d"], p["dim"], p["length"]
    rs = el.rs
    if length != 2 * d + e or dim != d + e:
        return f"length {length} is not 2*{d}+{e}"
    if e % 2 != len(el.word) % 2:
        return "parity of e differs from the determinant of the word"
    if not e <= length <= 2 * rs.rank:
        return f"length {length} outside [e, 2*rank]"
    witness = [exact.parse_vector(r) for r in p["witness_roots"]]
    if len(witness) != d + e or not _roots_ok(rs, witness):
        return "witness is not d+e roots"
    move = exact.linear_image_basis(rs.simple_roots, el.word, rs.ambient_dim) + [el.lam]
    if not all(exact.in_span(witness, v) for v in move):
        return "witness roots do not span the move set"
    if expected_d is not None and d != expected_d:
        return f"d = {d}, expected {expected_d}"
    if rs.spec.family == "A":
        win = exact.type_a_window(rs.simple_roots, el.lam, el.word)
        combinatorial = coxlen.affsym.reflection_length(coxlen.affsym.Window(win))
        if combinatorial != length:
            return f"length {length}, window formula gives {combinatorial}"
    return None


def check_factor(el: Element, result) -> str | None:
    p = cli_payload(result)
    factors = [(exact.parse_vector(f["root"]), f["level"]) for f in p["factors"]]
    length = el.program_report().length
    if p["length"] != length or len(factors) != length:
        return f"{len(factors)} factors, length is {length}"
    if not _roots_ok(el.rs, [r for r, _ in factors]):
        return "factor root is not a root"
    if not el.same_map(lambda x: exact.apply_factors(factors, x)):
        return "product of the factors is not the element"
    return None


def check_split(el: Element, result) -> str | None:
    p = cli_payload(result)
    rep = el.program_report()
    if p["translation_length"] != 2 * rep.d or p["elliptic_length"] != rep.e:
        return f"split lengths {p['translation_length']}+{p['elliptic_length']} vs 2*{rep.d}+{rep.e}"
    factors = [(exact.parse_vector(f["root"]), f["level"]) for f in p["elliptic_factors"]]
    if len(factors) != rep.e:
        return "elliptic factor count differs from e"
    mu = exact.parse_vector(p["translation"])
    if not el.same_map(lambda x: tuple(a + b for a, b in zip(exact.apply_factors(factors, x), mu))):
        return "translation times elliptic factors is not the element"
    return None


def check_window(values, result) -> str | None:
    p = cli_payload(result)
    n = len(values)
    lam, pi = exact.window_normal_form(values)
    blocks = exact.cycle_blocks(pi)
    if p["lambda"] != list(lam) or p["permutation"] != list(pi) or p["cycles"] != blocks:
        return "normal form or cycles differ"
    rs = root_system(f"A{n - 1}")
    w = coxlen.affsym.embed_window(coxlen.affsym.Window(tuple(values)))
    rep = coxlen.reflen.dimension_report(rs, w)
    if p["length"] != rep.length or p["length"] != n - 2 * p["relative_nullity"] + len(blocks):
        return f"window length {p['length']}, dimension_report {rep.length}"
    origin = exact.parse_vector(p["good_origin"])
    mu = exact.parse_vector(p["translation_part"])
    if sum(origin) != 0 or exact.window_apply(values, origin) != tuple(a + b for a, b in zip(origin, mu)):
        return "good origin is not moved by the translation part"
    t_len = coxlen.reflen.dimension_report(rs, coxlen.affgroup.translation_element(mu)).length
    if t_len != 2 * rep.d:
        return f"translation part has length {t_len}, expected {2 * rep.d}"
    return None


def _partition_nullity(v) -> int:
    """Largest number of zero-sum blocks partitioning the indices,
    by a subset DP (3^n)."""
    n = len(v)
    sums = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + v[low.bit_length() - 1]
    best = [-1] * (1 << n)
    best[0] = 0
    for mask in range(1, 1 << n):
        if sums[mask]:
            continue
        low = mask & -mask
        rest = mask ^ low
        sub = rest
        while True:
            block = sub | low
            if sums[block] == 0 and best[mask ^ block] >= 0:
                best[mask] = max(best[mask], best[mask ^ block] + 1)
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return best[(1 << n) - 1]


def check_nullity(v, result) -> str | None:
    p = cli_payload(result)
    n = len(v)
    minimal = exact.minimal_zero_sum_blocks(v)
    got = {frozenset(b) for b in p["minimal_null_blocks"]}
    if got != minimal or len(p["minimal_null_blocks"]) != len(minimal):
        return "minimal null blocks differ"
    support = [x for x in v if x]
    proper = len(exact.zero_sum_subsets(support)) - 1 if support else 0
    if p["proper_basic_null_blocks"] != proper:
        return f"{p['proper_basic_null_blocks']} proper basic blocks, expected {proper}"
    if p["complex_vertices"] != len(minimal) or p["complex_edges"] != exact.disjoint_pairs(minimal):
        return "disjointness complex size differs"
    for clique in p["maximal_cliques"]:
        blocks = [frozenset(b) for b in clique]
        if not all(b in minimal for b in blocks) or sorted(i for b in blocks for i in b) != list(range(1, n + 1)):
            return "a maximal clique is not a partition into minimal null blocks"
    nu = _partition_nullity(v)
    if p["nullity"] != nu or max(len(c) for c in p["maximal_cliques"]) != nu:
        return f"nullity {p['nullity']}, expected {nu}"
    if n <= 8 and coxlen.oracle.brute_nullity(v) != nu:
        return "brute_nullity disagrees"
    return None


# --- interactive -------------------------------------------------------

INTERACTIVE_TYPES = [f"{f}{r}" for f in "ABC" for r in range(2, 6)] + ["D4", "D5", "G2", "F4"]
# Queries per type for element commands, and per size for the others:
# 744 in all, len 3 : factor 1.8 : split 1.8 : window 1.3 : nullity 1.3.
# Split and window costs are heavy-tailed (a Hurwitz search may stop at
# once or explore thousands of states); with fewer queries the seed
# rather than the program would decide the wall time.
ELEMENT_QUERIES = {"len": 15, "factor": 9, "split": 9}
WINDOW_SIZES = {3: 27, 4: 27, 5: 27, 6: 27}
NULLITY_SIZES = {n: 18 for n in range(5, 11)}
STRATA = 8


def _random_zero_sum(rng: random.Random, n: int, bound: int) -> list[int]:
    while True:
        head = [rng.randint(-bound, bound) for _ in range(n - 1)]
        if abs(sum(head)) <= bound:
            return head + [-sum(head)]


def _window_dimensions(values) -> tuple[int, int]:
    """(d, e) of a window from its cycles and the nullity of the cycle
    sums of lam: e = n - #cycles, d = #cycles - nu(lam / pi)."""
    lam, pi = exact.window_normal_form(values)
    blocks = exact.cycle_blocks(pi)
    nu = _partition_nullity([sum(lam[i - 1] for i in b) for b in blocks])
    return len(blocks) - nu, len(values) - len(blocks)


def _stratified_windows(rng: random.Random, n: int, count: int) -> list[list[int]]:
    """``count`` windows at evenly spaced quantiles of (d, e) among
    ``STRATA`` times as many random ones, so every seed gets the same
    spread of search sizes."""
    pool = []
    for _ in range(STRATA * count):
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        values = [p + n * l for p, l in zip(pi, _random_zero_sum(rng, n, 2))]
        pool.append((_window_dimensions(values), values))
    pool.sort()
    return [pool[(2 * i + 1) * len(pool) // (2 * count)][1] for i in range(count)]


def _element_op(kind: str, el: Element) -> Op:
    checks = {"len": check_len, "factor": check_factor, "split": check_split}
    argv = el.argv(kind)
    return Op(f"{kind} {el.type_name} {el.text}", lambda: run_cli(argv), lambda r: checks[kind](el, r))


def _element_with_e(rng: random.Random, rs, e: int) -> Element:
    """t_lam s_word with coroot coordinates in [-3, 3] and a word of
    length at most 2 * rank whose linear part has elliptic dimension e."""
    while True:
        word_len = rng.randrange(e % 2, 2 * rs.rank + 1, 2)
        word = tuple(rng.randrange(rs.rank) for _ in range(word_len))
        lam = _lam_from_coeffs(rs, [rng.randint(-3, 3) for _ in range(rs.rank)])
        if exact.elliptic_dimension(rs.simple_roots, rs.roots, word) != e:
            continue
        return Element(str(rs.spec), lam, word)


def interactive(seed: int) -> list[Op]:
    """The mix is fixed and only values are seeded, so every seed asks
    for about the same work: each type gets the same queries, and a
    type's queries of one kind have elliptic dimensions e spread evenly
    over 1..rank.  Pure translations (e = 0) are left to span-search:
    one generic rank-5 translation costs seconds in split, so how many
    of them a seed drew would decide this workload's wall time."""
    rng = random.Random(f"interactive:{seed}")
    ops = []
    for type_name in INTERACTIVE_TYPES:
        rs = warm_root_system(type_name)
        for kind, count in ELEMENT_QUERIES.items():
            for i in range(count):
                e = 1 + (2 * i + 1) * rs.rank // (2 * count)
                ops.append(_element_op(kind, _element_with_e(rng, rs, e)))
    for n, count in WINDOW_SIZES.items():
        warm_root_system(f"A{n - 1}")
        for values in _stratified_windows(rng, n, count):
            argv = ["window", "--window", "[" + ",".join(map(str, values)) + "]", "--json"]
            ops.append(Op(f"window {values}", lambda a=argv: run_cli(a), lambda r, v=values: check_window(v, r)))
    for n, count in NULLITY_SIZES.items():
        for _ in range(count):
            v = _random_zero_sum(rng, n, 4)
            argv = ["nullity", "--vector", exact.fmt_vector(v), "--json"]
            ops.append(Op(f"nullity {v}", lambda a=argv: run_cli(a), lambda r, v=v: check_nullity(v, r)))
    rng.shuffle(ops)
    return ops


# --- span-search -------------------------------------------------------

# 17 queries: the median latency is then one of the three F4 searches,
# which do the same work, rather than the mean of a rank-4 search and a
# four times longer F4 search.
SPAN_TYPES = {"A4": 2, "B4": 2, "C4": 2, "D4": 2, "F4": 3, "A5": 2, "B5": 1, "C5": 1, "D5": 2}
WIDE_COEFF_BOUND = 40


def _generic_element(rng: random.Random, type_name: str, coeff_bound: int) -> Element:
    """A pure translation by a seeded lattice point in no hyperplane
    spanned by roots, so d = rank."""
    rs = warm_root_system(type_name)
    while True:
        lam = _lam_from_coeffs(rs, [rng.randint(-coeff_bound, coeff_bound) for _ in range(rs.rank)])
        if exact.is_generic(rs.spec.family, rs.positive_roots, rs.rank, lam):
            return Element(type_name, lam, ())


def span_search(seed: int) -> list[Op]:
    """Generic translations: d must be the rank, for every seed."""
    rng = random.Random(f"span-search:{seed}")
    ops = []
    for type_name, count in SPAN_TYPES.items():
        for _ in range(count):
            el = _generic_element(rng, type_name, WIDE_COEFF_BOUND)
            argv = el.argv("len")
            ops.append(Op(f"len {el.type_name} {el.text}", lambda a=argv: run_cli(a),
                          lambda r, el=el: check_len(el, r, expected_d=el.rs.rank)))
    return ops


# --- tables ------------------------------------------------------------

# Exponents of W0, written out here so the closed forms do not come from
# the program under test.
TABLE_EXPONENTS = {"A4": (1, 2, 3, 4), "B4": (1, 3, 5, 7), "D4": (1, 3, 3, 5), "F4": (1, 5, 7, 11)}
ORACLE_TYPES = ("A2", "B2")
ORACLE_BOX = 2


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def classes_text(classes) -> str:
    """Canonical text of a classify_coroots result, for a frozen digest."""
    return "\n".join(
        f"{poly.format()}: " + " ".join(exact.fmt_vector(p) for p in points)
        for poly, points in classes.items()
    )


def _check_equal(expected):
    return lambda got: None if got == expected else f"got {got!r}, expected {expected!r}"


def _check_classes(expected_digest: str):
    def check(classes) -> str | None:
        points = sum(len(pts) for pts in classes.values())
        if points != (2 * 2 + 1) ** 3:
            return f"{points} points classified"
        if any(sum(c for _, _, c in poly.terms) != 24 for poly in classes):
            return "a class polynomial does not count the 24 elements of W0"
        if _digest(classes_text(classes)) != expected_digest:
            return "classification differs from the frozen digest"
        return None

    return check


def _oracle_elements(type_name: str):
    rs = warm_root_system(type_name)
    group = exact.weyl_group(rs.simple_roots)
    box = range(-ORACLE_BOX, ORACLE_BOX + 1)
    return [
        coxlen.affgroup.AffineElement(m, _lam_from_coeffs(rs, c))
        for c in itertools.product(box, repeat=rs.rank)
        for m in group
    ]


def _oracle_sweep(type_name: str, elements):
    rs = root_system(type_name)
    lengths = [coxlen.reflen.dimension_report(rs, w).length for w in elements]
    return lengths, coxlen.oracle.brute_reflection_lengths(rs, elements)


def _check_oracle(result) -> str | None:
    lengths, certified = result
    if len(certified) != len(lengths):
        return f"{len(certified)} oracle results for {len(lengths)} elements"
    bad = [i for i, (k, c) in enumerate(zip(lengths, certified)) if c.length != k or not c.certified]
    return f"{len(bad)} elements disagree with the oracle or are uncertified" if bad else None


def tables(seed: int) -> list[Op]:
    rng = random.Random(f"tables:{seed}")
    ref = load_reference()
    gf = coxlen.genfun
    ops = []
    for name, exps in TABLE_EXPONENTS.items():
        rs = warm_root_system(name)
        ops.append(Op(f"spherical {name}", lambda rs=rs: gf.spherical_genfun(rs), _check_equal(exact.poly1_product(exps))))
    for name, exps in TABLE_EXPONENTS.items():
        rs = root_system(name)
        zero = (Q(0),) * rs.ambient_dim
        generic = _generic_element(rng, name, WIDE_COEFF_BOUND).lam
        ops.append(Op(f"local {name} 0", lambda rs=rs, z=zero: gf.local_genfun(rs, z).terms,
                      _check_equal(exact.poly_product(exps, with_s=False))))
        ops.append(Op(f"local {name} {exact.fmt_vector(generic)}", lambda rs=rs, g=generic: gf.local_genfun(rs, g).terms,
                      _check_equal(exact.poly_product(exps, with_s=True))))
    a3 = warm_root_system("A3")
    ops.append(Op("classify A3 2", lambda: gf.classify_coroots(a3, 2), _check_classes(ref["classify_A3_2_sha256"])))
    for name in ORACLE_TYPES:
        elements = _oracle_elements(name)
        ops.append(Op(f"oracle {name} box {ORACLE_BOX}", lambda n=name, els=elements: _oracle_sweep(n, els), _check_oracle))
    b2 = warm_root_system("B2")
    ops.append(Op("render classes B2 2", lambda: coxlen.render.render_classes(b2, 2),
                  lambda svg: None if _digest(svg) == ref["render_classes_B2_2_sha256"] else "SVG differs from the frozen digest"))
    return ops


WORKLOADS = {"interactive": interactive, "span-search": span_search, "tables": tables}
