"""Command line interface.

Subcommands: len, factor, split, window, nullity, genfun, render-svg,
oracle.  Each returns its JSON payload and its text lines (render-svg
writes its SVG itself), and main prints the payload under --json, else
the lines.  Exit codes: 0 success, 1 the oracle disagrees (the payload's
oracle_agrees is false), 2 bad input, 3 unsupported type, 4 budget exceeded.

Element grammar (for --element):

  "lambda=(1,-1,0); word=s1 s2"   translation by lambda, then the word
                                  in simple reflections (either part
                                  may be omitted, neither repeated)
  "refl(2,0) refl(1,1)"           product of affine reflections, i-th
                                  positive root line (1-based) at the
                                  given integer level

Vectors are comma-separated rationals in parentheses; windows are
comma-separated integers in brackets.  A lambda= or --vector whose
entries are all integers is read by int, straight into the integer
coroot-lattice core, and builds no Fraction; other entries (1/2, 1.5,
2e1) are read by Fraction and scaled to integers.

main parses argv with one parser: the subcommand's, when argv[0] names
one, else the top-level parser, which prints the help or the usage
error for an empty argv, -h or an unknown word.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction as Q
from functools import lru_cache

from .errors import BudgetExceeded, ParseError, UnsupportedTypeError
from .linalg import Vec, scale_to_ints
from .rootsys import RootSystem, root_system
from .affgroup import AffineElement, require_lattice_coords
from .reflen import DEFAULT_HURWITZ_BUDGET, pair_factorization, pair_report, pair_split
from .affsym import (
    Window,
    cycles,
    _good_origin_split,
    l_map,
    null_complex,
    nullity,
    proper_basic_null_block_count,
    window_root_system,
)
from .genfun import classify_coroots, local_genfun
from .oracle import _pair_lengths, brute_nullity
from .render import _require_alcoves_reach, _require_classes_reach, _require_planar, render_alcoves, render_classes


def _default_budget() -> int:
    raw = os.environ.get("COXLEN_BUDGET")
    if raw is None:
        return DEFAULT_HURWITZ_BUDGET
    try:
        budget = int(raw)
    except ValueError as ex:
        raise ParseError(f"COXLEN_BUDGET must be an integer, got {raw!r}") from ex
    if budget < 0:
        raise ParseError(f"COXLEN_BUDGET must be non-negative, got {budget}")
    return budget


def _vector_entries(text: str) -> list[str]:
    """The stripped entries of a vector's text, none of them empty."""
    m = re.fullmatch(r"\s*\(([^()]*)\)\s*", text)
    if not m:
        raise ParseError(f"expected a vector like (1,-1,0), got {text!r}")
    entries = [p.strip() for p in m.group(1).split(",")]
    if "" in entries:
        raise ParseError(f"empty entry in vector {text!r}")
    return entries


def parse_vector(text: str) -> Vec:
    out = []
    for p in _vector_entries(text):
        try:
            out.append(Q(p))
        except (ValueError, ZeroDivisionError) as ex:
            raise ParseError(f"bad vector entry {p!r}") from ex
    return tuple(out)


def _scaled_vector(text: str) -> tuple[tuple[int, ...], int]:
    """(vi, den) with vi / den the vector text names, vi in integers.
    When every entry is a sign and decimal digits, den is 1 and int reads
    the entries, as Fraction would, with no Fraction built; else (1/2,
    1.5, 2e1, 1_0) parse_vector's Fractions are scaled by the lcm of
    their denominators."""
    entries = _vector_entries(text)
    if all((p[1:] if p[0] in "+-" else p).isdecimal() for p in entries):
        return tuple(map(int, entries)), 1
    den, (vi,) = scale_to_ints((parse_vector(text),))
    return tuple(vi), den


def parse_window_text(text: str) -> Window:
    m = re.fullmatch(r"\s*\[([^\[\]]*)\]\s*", text)
    if not m:
        raise ParseError(f"expected a window like [4,2,0], got {text!r}")
    entries = [p.strip() for p in m.group(1).split(",")]
    if "" in entries:
        raise ParseError(f"empty entry in window {text!r}")
    try:
        values = tuple(int(p) for p in entries)
    except ValueError as ex:
        raise ParseError(f"window entries must be integers: {text!r}") from ex
    return Window(values)


def parse_element(rs: RootSystem, text: str) -> AffineElement:
    """The element that text names, as a matrix and a translation, built
    once from its (root permutation, coroot coordinates) pair."""
    perm, coords = _parse(rs, text)
    return AffineElement(rs.tables.linear(perm), rs.from_lattice_coords(coords))


def _parse(rs: RootSystem, text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (root permutation, simple-coroot coordinates) pair of the
    element that text names: the word's letters or the reflections folded
    by lookups in RootTables, and the lambda= vector, if there is one, in
    place of the coordinates; ValueError when lambda is not in the coroot
    lattice."""
    text = text.strip()
    if not text:
        raise ParseError("empty element")
    tables = rs.tables
    if text.startswith("refl"):
        return tables.fold(_reflection_factors(rs, text))
    lam = None
    word: list[int] = []
    seen: set[str] = set()
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        if key in seen:
            raise ParseError(f"element field {key!r} appears twice")
        seen.add(key)
        if key == "lambda":
            lam = _parse_lambda(rs, value)
        elif key == "word":
            for tok in value.split():
                m = re.fullmatch(r"s(\d+)", tok)
                if not m or not 1 <= int(m.group(1)) <= rs.rank:
                    raise ParseError(
                        f"word letters are s1..s{rs.rank}, got {tok!r}"
                    )
                word.append(tables.simple[int(m.group(1)) - 1])
        else:
            raise ParseError(f"unknown element field {key!r}")
    perm, coords = tables.fold((a, 0) for a in word)
    return perm, coords if lam is None else require_lattice_coords(rs, *lam)


def _parse_lambda(rs: RootSystem, text: str) -> tuple[tuple[int, ...], int]:
    """_scaled_vector of text, which must have one coordinate per
    dimension of rs's ambient space."""
    vi, den = _scaled_vector(text)
    if len(vi) != rs.ambient_dim:
        raise ParseError(f"lambda has {len(vi)} coordinates, {rs.spec} lives in dimension {rs.ambient_dim}")
    return vi, den


def _reflection_factors(rs: RootSystem, text: str) -> list[tuple[int, int]]:
    """The (root index, level) pair of each refl(i,j) token: the i-th
    positive root (1-based) at level j.  Tokens split at whitespace outside
    parentheses, so refl(1, 1) is one token."""
    positive = [a for a, p in enumerate(rs.tables.positive) if p]
    factors = []
    for tok in re.findall(r"(?:\([^()]*\)|\S)+", text):
        m = re.fullmatch(r"refl\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)", tok)
        if not m:
            raise ParseError(f"expected refl(i,j), got {tok!r}")
        i, j = int(m.group(1)), int(m.group(2))
        if not 1 <= i <= len(positive):
            raise ParseError(
                f"root index {i} out of range 1..{len(positive)} for {rs.spec}"
            )
        factors.append((positive[i - 1], j))
    return factors


def _vec_json(v: Vec) -> list[str]:
    return [str(x) for x in v]


def _vec_str(entries: list[str]) -> str:
    """A vector's text, from the entries _vec_json gave it."""
    return "(" + ", ".join(entries) + ")"


def _element(args) -> tuple[RootSystem, tuple[int, ...], tuple[int, ...]]:
    """The root system of --type, and _parse's pair for --element in it."""
    rs = root_system(args.type)
    return (rs, *_parse(rs, args.element))


def _factors(factors) -> tuple[list[dict], list[str]]:
    """The JSON entries and the text lines of a list of reflections."""
    entries = [{"root": _vec_json(r.root), "level": r.level} for r in factors]
    return entries, [f"  root={_vec_str(e['root'])} level={e['level']}" for e in entries]


_CERTIFICATE_TEXT = {
    "rank": "rank (length <= e + 1, a proof)",
    "stable": "stable (same length at the next level bound, a heuristic)",
    None: "none",
}


def cmd_len(args) -> tuple[dict, list[str]]:
    rs, perm, coords = _element(args)
    rep = pair_report(rs, perm, coords)
    payload = {
        "type": str(rs.spec),
        "e": rep.e,
        "d": rep.d,
        "dim": rep.dim,
        "length": rep.length,
        "witness_roots": [_vec_json(r) for r in rep.witness_roots],
    }
    lines = [
        f"type {rs.spec}",
        f"e = {rep.e}  d = {rep.d}  dim = {rep.dim}",
        f"reflection length = {rep.length}",
        "witness roots: " + ", ".join(map(_vec_str, payload["witness_roots"])),
    ]
    if args.verify:
        try:
            res = _pair_lengths(rs, [(perm, coords)], None, None)[0]
        except BudgetExceeded as ex:
            raise BudgetExceeded(f"{ex}; the formula gives length {rep.length} (d = {rep.d}, e = {rep.e})") from ex
        agrees = res.length == rep.length
        payload.update(oracle_length=res.length, oracle_certified=res.certified,
                       oracle_certificate=res.certificate, oracle_agrees=agrees)
        cert = "certified" if res.certified else "uncertified"
        lines.append(f"oracle: {res.length} ({cert}, {'agrees' if agrees else 'DISAGREES'})")
        lines.append(f"oracle certificate: {_CERTIFICATE_TEXT[res.certificate]}")
    return payload, lines


def cmd_factor(args) -> tuple[dict, list[str]]:
    rs, perm, coords = _element(args)
    factors = pair_factorization(rs, perm, coords).factors
    entries, lines = _factors(factors)
    payload = {"type": str(rs.spec), "length": len(factors), "factors": entries}
    return payload, [f"type {rs.spec}: {len(factors)} reflections", *lines]


def cmd_split(args) -> tuple[dict, list[str]]:
    rs, perm, coords = _element(args)
    coords_t, _, rep_t, rep_u, elliptic = pair_split(rs, perm, coords, args.budget)
    entries, lines = _factors(elliptic.factors)
    payload = {
        "type": str(rs.spec),
        "translation": _vec_json(rs.from_lattice_coords(coords_t)),
        "translation_length": rep_t.length,
        "elliptic_length": rep_u.length,
        "elliptic_factors": entries,
    }
    return payload, [
        f"type {rs.spec}",
        f"translation part {_vec_str(payload['translation'])} of length {rep_t.length}",
        f"elliptic part of length {rep_u.length}, factors:",
        *lines,
    ]


def cmd_window(args) -> tuple[dict, list[str]]:
    win = parse_window_text(args.window)
    lam, pi = win.normal_form()
    n = len(win.values)
    origin, coords_t, _ = _good_origin_split(lam, pi, args.budget)
    blocks = cycles(pi)
    nu = nullity(l_map(blocks, lam))
    cyc = [sorted(b) for b in blocks.blocks]
    payload = {
        "n": n,
        "lambda": list(lam),
        "permutation": list(pi),
        "cycles": cyc,
        "relative_nullity": nu,
        "length": n - 2 * nu + len(blocks),
        "good_origin": _vec_json(origin),
        "translation_part": _vec_json(window_root_system(n).from_lattice_coords(coords_t)),
    }
    return payload, [
        f"n = {n}",
        f"normal form: lambda = {tuple(lam)}, permutation = {tuple(pi)}",
        f"cycles: {cyc}",
        f"relative nullity = {nu}",
        f"reflection length = {payload['length']}",
        f"good origin = {_vec_str(payload['good_origin'])}",
        f"translation part = {_vec_str(payload['translation_part'])}",
    ]


def cmd_nullity(args) -> tuple[dict, list[str]]:
    iv, den = _scaled_vector(args.vector)
    if den != 1:
        raise ParseError("nullity vectors must have integer entries")
    cx = null_complex(iv)
    payload = {
        "vector": list(iv),
        "minimal_null_blocks": [sorted(b) for b in cx.vertices],
        "proper_basic_null_blocks": proper_basic_null_block_count(iv),
        "complex_vertices": len(cx.vertices),
        "complex_edges": len(cx.edges),
        "maximal_cliques": [
            [sorted(b) for b in c] for c in cx.maximal_cliques
        ],
        "nullity": cx.nullity,
    }
    lines = [
        f"vector {iv}",
        f"minimal null blocks ({len(cx.vertices)}): "
        + " ".join("{" + ",".join(map(str, b)) + "}" for b in payload["minimal_null_blocks"]),
        f"proper basic null blocks: {payload['proper_basic_null_blocks']}",
        f"disjointness complex: {len(cx.vertices)} vertices, {len(cx.edges)} edges",
        f"maximal cliques: {payload['maximal_cliques']}",
        f"nullity = {cx.nullity}",
    ]
    if args.verify:
        oracle = brute_nullity(iv)
        agrees = oracle == cx.nullity
        payload.update(oracle_nullity=oracle, oracle_agrees=agrees)
        lines.append(f"oracle nullity = {oracle} ({'agrees' if agrees else 'DISAGREES'})")
    return payload, lines


def cmd_genfun(args) -> tuple[dict, list[str]]:
    rs = root_system(args.type)
    if args.classify is not None:
        classes = classify_coroots(rs, args.classify)
        entries = [
            {
                "polynomial": f.format(),
                "terms": f.to_json_terms(),
                "points": len(pts),
                "sample": _vec_json(pts[0]),
            }
            for f, pts in classes.items()
        ]
        payload = {"type": str(rs.spec), "radius": args.classify, "classes": entries}
        return payload, [
            f"type {rs.spec}, radius {args.classify}: {len(classes)} classes",
            *(f"  [{entry['points']:4d} points] {entry['polynomial']}" for entry in entries),
        ]
    if args.lam is None:
        raise ParseError("genfun needs either --lambda or --classify")
    vi, den = _parse_lambda(rs, args.lam)
    lam = tuple(Q(x, den) for x in vi)
    f = local_genfun(rs, lam)
    payload = {
        "type": str(rs.spec),
        "lambda": _vec_json(lam),
        "polynomial": f.format(),
        "terms": f.to_json_terms(),
        "specialized": list(f.specialize()),
    }
    return payload, [
        f"f_lambda(s,t) = {payload['polynomial']}",
        f"f_lambda(t^2,t) coefficients: {payload['specialized']}",
    ]


def cmd_render(args) -> tuple[dict, list[str]]:
    rs = root_system(args.type)
    if args.mode == "alcoves":
        render, radius = render_alcoves, args.radius
    elif args.radius.is_integer():
        render, radius = render_classes, int(args.radius)
    else:
        raise ParseError(f"radius must be an integer in classes mode, got {args.radius}")
    # check the type and the caps before --out is opened, so that a failed
    # render leaves the file as it was, and open --out before rendering,
    # so that a bad path fails at once
    _require_planar(rs)
    if args.mode == "classes":
        _require_classes_reach(radius)
    else:
        _require_alcoves_reach(rs, radius)
    if args.out == "-":
        sys.stdout.write(render(rs, radius))
        return {}, []
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render(rs, radius))
    except OSError as ex:
        raise ParseError(f"cannot write {args.out}: {ex.strerror}") from ex
    return {}, [f"wrote {args.out}"]


def cmd_oracle(args) -> tuple[dict, list[str]]:
    rs, perm, coords = _element(args)
    res = _pair_lengths(rs, [(perm, coords)], args.level_bound, args.depth_bound)[0]
    payload = {
        "type": str(rs.spec),
        "length": res.length,
        "certified": res.certified,
        "certificate": res.certificate,
        "level_bound": res.level_bound,
        "depth_bound": res.depth_bound,
    }
    state = "certified" if res.certified else "uncertified"
    return payload, [
        f"oracle length = {res.length} ({state}, levels up to "
        f"{res.level_bound}, depth up to {res.depth_bound})",
        f"certificate: {_CERTIFICATE_TEXT[res.certificate]}",
    ]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coxlen",
        description="Reflection length in affine Coxeter groups: exact "
        "lengths, factorisations, splits, null statistics, generating "
        "functions, renderings, and brute-force certification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, *, typed=True, element=False, report=True):
        """A subparser with the shared options it takes; every report takes --json."""
        p = sub.add_parser(name, help=help)
        if typed:
            p.add_argument("--type", required=True, help="root system, e.g. A2, B3, G2")
        if element:
            p.add_argument("--element", required=True, help="see module docstring")
        if report:
            p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    p = command("len", cmd_len, "reflection length and dimensions", element=True)
    p.add_argument("--verify", action="store_true", help="cross-check with the oracle")

    command("factor", cmd_factor, "minimum-length reflection factorisation", element=True)

    p = command("split", cmd_split, "translation * elliptic splitting", element=True)
    p.add_argument("--budget", type=int, default=None, help="Hurwitz search cap")

    p = command("window", cmd_window, "affine permutation from window notation", typed=False)
    p.add_argument("--window", required=True, help="e.g. [4,2,0]")
    p.add_argument("--budget", type=int, default=None)

    p = command("nullity", cmd_nullity, "null partition statistics of a vector", typed=False)
    p.add_argument("--vector", required=True, help="e.g. (-3,-2,-2,-1,1,2,5)")
    p.add_argument("--verify", action="store_true")

    p = command("genfun", cmd_genfun, "local generating function at lambda")
    at = p.add_mutually_exclusive_group()
    at.add_argument("--lambda", dest="lam", default=None, help="vector in the coroot lattice")
    at.add_argument("--classify", type=int, default=None, metavar="RADIUS",
                    help="classify the whole coefficient box instead")

    p = command("render-svg", cmd_render, "deterministic SVG picture", report=False)
    p.add_argument("--mode", choices=["alcoves", "classes"], default="alcoves")
    p.add_argument("--radius", type=float, default=3.0,
                   help="Euclidean radius (alcoves) or coefficient radius (classes)")
    p.add_argument("--out", required=True, help="output path, or - for stdout")

    p = command("oracle", cmd_oracle, "brute-force certified length", element=True)
    p.add_argument("--level-bound", type=int, default=None)
    p.add_argument("--depth-bound", type=int, default=None)

    return ap


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: parse_args reads the parser and
    puts every value into a new namespace, so calls share nothing."""
    return build_parser()


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed by one parser: the subcommand parser that argv[0]
    names, or the top-level parser when it names none."""
    parser = _parser()
    subcommands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = subcommands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        # a two-level parse reports what the subparser leaves over in the
        # top-level parser's words
        parser.error("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    return _run(_parse_args(sys.argv[1:] if argv is None else list(argv)))


def _run(args: argparse.Namespace) -> int:
    """Run the parsed command and print its output: the exit code."""
    try:
        if hasattr(args, "budget") and args.budget is None:
            args.budget = _default_budget()
        if hasattr(args, "radius") and not math.isfinite(args.radius):
            raise ParseError(f"radius must be a finite number, got {args.radius}")
        if hasattr(args, "radius") and args.radius <= 0:
            raise ParseError("radius must be positive")
        for flag in ("budget", "classify", "level_bound", "depth_bound"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise ParseError(f"--{flag.replace('_', '-')} must be non-negative, got {value}")
        payload, lines = args.func(args)
    except (BudgetExceeded, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 4 if isinstance(ex, BudgetExceeded) else 3 if isinstance(ex, UnsupportedTypeError) else 2
    if getattr(args, "json", False):
        print(json.dumps(payload))
    elif lines:  # render-svg to stdout has written its SVG and has no lines
        print("\n".join(lines))
    return 1 if payload.get("oracle_agrees") is False else 0


if __name__ == "__main__":
    sys.exit(main())
