#!/usr/bin/env python3
"""Regenerate the certified tables: rank-2 local generating functions,
the A3 radius-3 classification, spherical length distributions, and the
null-block statistics of the worked seven-entry example.

Usage: python3 scripts/make_tables.py [--out FILE]
"""

import argparse
import sys
from fractions import Fraction as Q

from coxlen.affsym import null_complex, nullity, proper_basic_null_block_count
from coxlen.genfun import classify_coroots, exponent_product, local_genfun, poly1_format, spherical_genfun
from coxlen.linalg import vec
from coxlen.rootsys import root_system

V0 = (-3, -2, -2, -1, 1, 2, 5)

RANK2_ROWS = [
    ("A2", "zero", (0, 0, 0)),
    ("A2", "simple coroot", (1, -1, 0)),
    ("A2", "generic", (2, -1, -1)),
    ("B2", "zero", (0, 0)),
    ("B2", "short-root coroot", (2, 0)),
    ("B2", "long-root coroot", (1, 1)),
    ("B2", "generic", (3, 1)),
    ("G2", "zero", (0, 0, 0)),
    ("G2", "short-root coroot", (1, -1, 0)),
    ("G2", "long-root coroot", tuple(Q(c, 3) for c in (-1, -1, 2))),
    ("G2", "generic", (3, -2, -1)),
]

SPHERICAL_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "G2", "F4"]


def fmt_vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def rank2_table(out) -> None:
    print("## Local generating functions, rank 2", file=out)
    print(file=out)
    print("| type | lambda | kind | f_lambda(s, t) |", file=out)
    print("|------|--------|------|----------------|", file=out)
    for name, kind, lam in RANK2_ROWS:
        rs = root_system(name)
        f = local_genfun(rs, vec(list(lam)))
        print(f"| {name} | {fmt_vec(lam)} | {kind} | {f.format()} |", file=out)
    print(file=out)


def a3_table(out) -> None:
    rs = root_system("A3")
    classes = classify_coroots(rs, 3)
    print("## A3 coroot classes, radius 3", file=out)
    print(file=out)
    print("| class size | representative | f_lambda(s, t) | f_lambda(t^2, t) |", file=out)
    print("|-----------|----------------|----------------|------------------|", file=out)
    for poly, members in sorted(classes.items(), key=lambda kv: len(kv[1])):
        rep = min(members)
        spec = ", ".join(str(c) for c in poly.specialize())
        print(f"| {len(members)} | {fmt_vec(rep)} | {poly.format()} | [{spec}] |", file=out)
    total = sum(len(m) for m in classes.values())
    print(file=out)
    print(f"{len(classes)} classes covering {total} lattice points.", file=out)
    print(file=out)


def spherical_table(out) -> None:
    print("## Spherical length distributions", file=out)
    print(file=out)
    print("| type | sum over W0 of t^l(w) | product form |", file=out)
    print("|------|----------------------|--------------|", file=out)
    for name in SPHERICAL_TYPES:
        rs = root_system(name)
        f = spherical_genfun(rs)
        g = exponent_product(rs)
        assert f == g, name
        factors = " * ".join(f"(1 + {e}t)" if e != 1 else "(1 + t)" for e in rs.exponents)
        print(f"| {name} | {poly1_format(f)} | {factors} |", file=out)
    print(file=out)


def null_stats(out) -> None:
    print("## Null statistics of v0 =", fmt_vec(V0), file=out)
    print(file=out)
    cx = null_complex(V0)
    print(f"proper basic null blocks: {proper_basic_null_block_count(V0)}", file=out)
    print(f"minimal null blocks ({len(cx.vertices)}):", file=out)
    for b in cx.vertices:
        print("  " + "{" + ", ".join(str(i) for i in sorted(b)) + "}", file=out)
    print(f"disjointness complex: {len(cx.vertices)} vertices, {len(cx.edges)} edges", file=out)
    print(f"maximal cliques ({len(cx.maximal_cliques)}):", file=out)
    for clique in cx.maximal_cliques:
        parts = " | ".join(
            "{" + ", ".join(str(i) for i in sorted(b)) + "}" for b in sorted(clique, key=sorted)
        )
        print("  " + parts, file=out)
    print(f"nullity: {nullity(V0)}", file=out)
    print(file=out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the tables to this file instead of stdout")
    args = ap.parse_args(argv)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        rank2_table(out)
        a3_table(out)
        spherical_table(out)
        null_stats(out)
    finally:
        if args.out:
            out.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
