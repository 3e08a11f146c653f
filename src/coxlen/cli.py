"""Command line interface.

Subcommands: len, factor, split, window, nullity, genfun, render-svg,
oracle.  Exit codes: 0 success, 2 bad input, 3 unsupported type,
4 budget exceeded.

Element grammar (for --element):

  "lambda=(1,-1,0); word=s1 s2"   translation by lambda, then the word
                                  in simple reflections (either part
                                  may be omitted, neither repeated)
  "refl(2,0) refl(1,1)"           product of affine reflections, i-th
                                  positive root line (1-based) at the
                                  given integer level

Vectors are comma-separated rationals in parentheses; windows are
comma-separated integers in brackets.
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
from .linalg import Vec, vec
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
from .oracle import brute_nullity, brute_reflection_length
from .render import render_alcoves, render_classes


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


def parse_vector(text: str) -> Vec:
    m = re.fullmatch(r"\s*\(([^()]*)\)\s*", text)
    if not m:
        raise ParseError(f"expected a vector like (1,-1,0), got {text!r}")
    entries = [p.strip() for p in m.group(1).split(",") if p.strip()]
    if not entries:
        raise ParseError("empty vector")
    out = []
    for p in entries:
        try:
            out.append(Q(p))
        except (ValueError, ZeroDivisionError) as ex:
            raise ParseError(f"bad vector entry {p!r}") from ex
    return vec(out)


def parse_window_text(text: str) -> Window:
    m = re.fullmatch(r"\s*\[([^\[\]]*)\]\s*", text)
    if not m:
        raise ParseError(f"expected a window like [4,2,0], got {text!r}")
    entries = [p.strip() for p in m.group(1).split(",") if p.strip()]
    if not entries:
        raise ParseError("empty window")
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
            lam = parse_vector(value)
            if len(lam) != rs.ambient_dim:
                raise ParseError(
                    f"lambda has {len(lam)} coordinates, {rs.spec} lives in "
                    f"dimension {rs.ambient_dim}"
                )
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
    return perm, coords if lam is None else require_lattice_coords(rs, lam)


def _reflection_factors(rs: RootSystem, text: str) -> list[tuple[int, int]]:
    """The (root index, level) pair of each refl(i,j) token: the i-th
    positive root (1-based) at level j."""
    positive = [a for a, p in enumerate(rs.tables.positive) if p]
    factors = []
    for tok in text.split():
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


def _vec_str(v: Vec) -> str:
    return "(" + ", ".join(map(str, v)) + ")"


def _refl_strs(factors) -> list[str]:
    return [f"root={_vec_str(r.root)} level={r.level}" for r in factors]


_CERTIFICATE_TEXT = {
    "rank": "rank (length <= e + 1, a proof)",
    "stable": "stable (same length at the next level bound, a heuristic)",
    None: "none",
}


def cmd_len(args) -> int:
    rs = root_system(args.type)
    perm, coords = _parse(rs, args.element)
    rep = pair_report(rs, perm, coords)
    payload = {
        "type": str(rs.spec),
        "e": rep.e,
        "d": rep.d,
        "dim": rep.dim,
        "length": rep.length,
        "witness_roots": [_vec_json(r) for r in rep.witness_roots],
    }
    if args.verify:
        res = brute_reflection_length(rs, AffineElement(rs.tables.linear(perm), rs.from_lattice_coords(coords)))
        payload["oracle_length"] = res.length
        payload["oracle_certified"] = res.certified
        payload["oracle_certificate"] = res.certificate
        payload["oracle_agrees"] = res.length == rep.length
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"type {payload['type']}")
        print(f"e = {rep.e}  d = {rep.d}  dim = {rep.dim}")
        print(f"reflection length = {rep.length}")
        print("witness roots: " + ", ".join(_vec_str(r) for r in rep.witness_roots))
        if args.verify:
            tag = "agrees" if payload["oracle_agrees"] else "DISAGREES"
            cert = "certified" if res.certified else "uncertified"
            print(f"oracle: {res.length} ({cert}, {tag})")
            print(f"oracle certificate: {_CERTIFICATE_TEXT[res.certificate]}")
    if args.verify and not payload["oracle_agrees"]:
        return 1
    return 0


def cmd_factor(args) -> int:
    rs = root_system(args.type)
    f = pair_factorization(rs, *_parse(rs, args.element))
    payload = {
        "type": str(rs.spec),
        "length": len(f.factors),
        "factors": [
            {"root": _vec_json(r.root), "level": r.level} for r in f.factors
        ],
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"type {payload['type']}: {len(f.factors)} reflections")
        for line in _refl_strs(f.factors):
            print("  " + line)
    return 0


def cmd_split(args) -> int:
    rs = root_system(args.type)
    coords_t, _, rep_t, rep_u, elliptic = pair_split(rs, *_parse(rs, args.element), args.budget)
    translation, factors = rs.from_lattice_coords(coords_t), elliptic.factors
    payload = {
        "type": str(rs.spec),
        "translation": _vec_json(translation),
        "translation_length": rep_t.length,
        "elliptic_length": rep_u.length,
        "elliptic_factors": [{"root": _vec_json(r.root), "level": r.level} for r in factors],
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"type {payload['type']}")
        print(f"translation part {_vec_str(translation)} of length {rep_t.length}")
        print(f"elliptic part of length {rep_u.length}, factors:")
        for line in _refl_strs(factors):
            print("  " + line)
    return 0


def cmd_window(args) -> int:
    win = parse_window_text(args.window)
    lam, pi = win.normal_form()
    n = len(win.values)
    origin, coords_t, _ = _good_origin_split(lam, pi, args.budget)
    translation = window_root_system(n).from_lattice_coords(coords_t)
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
        "translation_part": _vec_json(translation),
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"n = {n}")
        print(f"normal form: lambda = {tuple(lam)}, permutation = {tuple(pi)}")
        print(f"cycles: {cyc}")
        print(f"relative nullity = {payload['relative_nullity']}")
        print(f"reflection length = {payload['length']}")
        print(f"good origin = {_vec_str(origin)}")
        print(f"translation part = {_vec_str(translation)}")
    return 0


def cmd_nullity(args) -> int:
    v = parse_vector(args.vector)
    if any(x.denominator != 1 for x in v):
        raise ParseError("nullity vectors must have integer entries")
    iv = tuple(int(x) for x in v)
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
    if args.verify:
        payload["oracle_nullity"] = brute_nullity(iv)
        payload["oracle_agrees"] = payload["oracle_nullity"] == payload["nullity"]
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"vector {iv}")
        print(f"minimal null blocks ({len(cx.vertices)}): "
              + " ".join("{" + ",".join(map(str, sorted(b))) + "}" for b in cx.vertices))
        print(f"proper basic null blocks: {payload['proper_basic_null_blocks']}")
        print(f"disjointness complex: {len(cx.vertices)} vertices, {len(cx.edges)} edges")
        print(f"maximal cliques: {payload['maximal_cliques']}")
        print(f"nullity = {payload['nullity']}")
        if args.verify:
            tag = "agrees" if payload["oracle_agrees"] else "DISAGREES"
            print(f"oracle nullity = {payload['oracle_nullity']} ({tag})")
    if args.verify and not payload["oracle_agrees"]:
        return 1
    return 0


def cmd_genfun(args) -> int:
    rs = root_system(args.type)
    if args.classify is not None:
        classes = classify_coroots(rs, args.classify)
        payload = {
            "type": str(rs.spec),
            "radius": args.classify,
            "classes": [
                {
                    "polynomial": f.format(),
                    "terms": f.to_json_terms(),
                    "points": len(pts),
                    "sample": _vec_json(pts[0]),
                }
                for f, pts in classes.items()
            ],
        }
        if args.json:
            print(json.dumps(payload))
        else:
            print(f"type {payload['type']}, radius {args.classify}: "
                  f"{len(classes)} classes")
            for entry in payload["classes"]:
                print(f"  [{entry['points']:4d} points] {entry['polynomial']}")
        return 0
    if args.lam is None:
        raise ParseError("genfun needs either --lambda or --classify")
    lam = parse_vector(args.lam)
    if len(lam) != rs.ambient_dim:
        raise ParseError(
            f"lambda has {len(lam)} coordinates, {rs.spec} lives in "
            f"dimension {rs.ambient_dim}"
        )
    f = local_genfun(rs, lam)
    payload = {
        "type": str(rs.spec),
        "lambda": _vec_json(lam),
        "polynomial": f.format(),
        "terms": f.to_json_terms(),
        "specialized": list(f.specialize()),
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"f_lambda(s,t) = {f.format()}")
        print(f"f_lambda(t^2,t) coefficients: {list(f.specialize())}")
    return 0


def cmd_render(args) -> int:
    rs = root_system(args.type)
    if args.mode == "alcoves":
        render, radius = render_alcoves, args.radius
    elif args.radius.is_integer():
        render, radius = render_classes, int(args.radius)
    else:
        raise ParseError(f"radius must be an integer in classes mode, got {args.radius}")
    if args.out == "-":
        sys.stdout.write(render(rs, radius))
        return 0
    # open --out before rendering, so that a bad path fails at once
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render(rs, radius))
    except OSError as ex:
        raise ParseError(f"cannot write {args.out}: {ex.strerror}") from ex
    print(f"wrote {args.out}")
    return 0


def cmd_oracle(args) -> int:
    rs = root_system(args.type)
    w = parse_element(rs, args.element)
    res = brute_reflection_length(
        rs, w, level_bound=args.level_bound, depth_bound=args.depth_bound
    )
    payload = {
        "type": str(rs.spec),
        "length": res.length,
        "certified": res.certified,
        "certificate": res.certificate,
        "level_bound": res.level_bound,
        "depth_bound": res.depth_bound,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        state = "certified" if res.certified else "uncertified"
        print(f"oracle length = {res.length} ({state}, levels up to "
              f"{res.level_bound}, depth up to {res.depth_bound})")
        print(f"certificate: {_CERTIFICATE_TEXT[res.certificate]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coxlen",
        description="Reflection length in affine Coxeter groups: exact "
        "lengths, factorisations, splits, null statistics, generating "
        "functions, renderings, and brute-force certification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--type", required=True, help="root system, e.g. A2, B3, G2")
        p.add_argument("--element", required=True, help="see module docstring")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("len", help="reflection length and dimensions")
    add_common(p)
    p.add_argument("--verify", action="store_true", help="cross-check with the oracle")
    p.set_defaults(func=cmd_len)

    p = sub.add_parser("factor", help="minimum-length reflection factorisation")
    add_common(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("split", help="translation * elliptic splitting")
    add_common(p)
    p.add_argument("--budget", type=int, default=None, help="Hurwitz search cap")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("window", help="affine permutation from window notation")
    p.add_argument("--window", required=True, help="e.g. [4,2,0]")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_window)

    p = sub.add_parser("nullity", help="null partition statistics of a vector")
    p.add_argument("--vector", required=True, help="e.g. (-3,-2,-2,-1,1,2,5)")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_nullity)

    p = sub.add_parser("genfun", help="local generating function at lambda")
    p.add_argument("--type", required=True)
    at = p.add_mutually_exclusive_group()
    at.add_argument("--lambda", dest="lam", default=None, help="vector in the coroot lattice")
    at.add_argument("--classify", type=int, default=None, metavar="RADIUS",
                    help="classify the whole coefficient box instead")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_genfun)

    p = sub.add_parser("render-svg", help="deterministic SVG picture")
    p.add_argument("--type", required=True)
    p.add_argument("--mode", choices=["alcoves", "classes"], default="alcoves")
    p.add_argument("--radius", type=float, default=3.0,
                   help="Euclidean radius (alcoves) or coefficient radius (classes)")
    p.add_argument("--out", required=True, help="output path, or - for stdout")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("oracle", help="brute-force certified length")
    add_common(p)
    p.add_argument("--level-bound", type=int, default=None)
    p.add_argument("--depth-bound", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    return ap


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: parse_args reads the parser and
    puts every value into a new namespace, so calls share nothing."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
        return args.func(args)
    except ParseError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except UnsupportedTypeError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 3
    except BudgetExceeded as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 4
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
