"""The Fraction parser of --element elements, for cross-checking
cli.parse_element: a word is built one rank-one Fraction update
(affgroup.times_reflection) per letter, and a product of reflections by
affgroup.product.  The Fraction route of lambda= and nullity --vector:
every entry a Fraction and the coroot coordinates found by
RootSystem.lattice_coords, for cross-checking the integer route of
cli._parse and cmd_nullity.  The two-level dispatch of argv, for
cross-checking cli.main's one parse.  And the JSON payloads of len,
factor and split as the commands built them from the public
AffineElement API, for cross-checking the integer core they run on."""

from __future__ import annotations

import re

import coxlen.cli
from coxlen.affgroup import (
    AffineElement,
    AffineReflection,
    identity_element,
    product,
    _w0_permutation,
    require_group_element,
    times_reflection,
)
from coxlen.cli import build_parser, parse_vector
from coxlen.errors import ParseError
from coxlen.linalg import vadd
from coxlen.reflen import dimension_report, min_factorization, translation_elliptic_split
from coxlen.rootsys import RootSystem


def parse_element(rs: RootSystem, text: str) -> AffineElement:
    text = text.strip()
    if not text:
        raise ParseError("empty element")
    if text.startswith("refl"):
        return _parse_reflection_product(rs, text)
    lam = None
    word: list[int] = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip()
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
                word.append(int(m.group(1)) - 1)
        else:
            raise ParseError(f"unknown element field {key!r}")
    el = identity_element(rs.ambient_dim)
    for i in word:
        el = times_reflection(el, AffineReflection.make(rs.simple_roots[i], 0))
    if lam is not None:
        el = AffineElement(el.linear, vadd(lam, el.translation))
    return el


def _parse_reflection_product(rs: RootSystem, text: str) -> AffineElement:
    tokens = re.findall(r"(?:\([^()]*\)|\S)+", text)
    factors = []
    for tok in tokens:
        m = re.fullmatch(r"refl\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)", tok)
        if not m:
            raise ParseError(f"expected refl(i,j), got {tok!r}")
        i, j = int(m.group(1)), int(m.group(2))
        if not 1 <= i <= len(rs.positive_roots):
            raise ParseError(
                f"root index {i} out of range 1..{len(rs.positive_roots)} for {rs.spec}"
            )
        factors.append(AffineReflection.make(rs.positive_roots[i - 1], j))
    return product(factors)


def fraction_pair(rs: RootSystem, text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (root permutation, coroot coordinates) pair of parse_element's
    element: its matrix read back into a permutation, its Fraction
    translation into coordinates by RootSystem.lattice_coords; ValueError
    naming the translation when it is off the coroot lattice."""
    el = parse_element(rs, text)
    coords = rs.lattice_coords(el.translation)
    if coords is None:
        raise ValueError("translation part (" + ", ".join(map(str, el.translation)) + ") is not in the coroot lattice")
    return _w0_permutation(rs, el.linear), coords


def nullity_vector(text: str) -> tuple[int, ...]:
    """The integer vector of nullity --vector text, read as Fractions."""
    v = parse_vector(text)
    if any(x.denominator != 1 for x in v):
        raise ParseError("nullity vectors must have integer entries")
    return tuple(int(x) for x in v)


def main(argv: list[str]) -> int:
    """cli.main with the two-level dispatch: the top-level parser walks
    argv and hands what follows the subcommand to that subcommand's
    parser."""
    return coxlen.cli._run(build_parser().parse_args(argv))


def public_payload(rs: RootSystem, command: str, text: str) -> dict:
    """The --json payload of len (without --verify), factor or split for
    the element text names: cli.parse_element's AffineElement, checked by
    require_group_element and run through dimension_report,
    min_factorization or translation_elliptic_split."""
    w = coxlen.cli.parse_element(rs, text)
    strs = lambda v: [str(x) for x in v]  # noqa: E731
    if command == "len":
        require_group_element(rs, w)
        rep = dimension_report(rs, w)
        return {"type": str(rs.spec), "e": rep.e, "d": rep.d, "dim": rep.dim, "length": rep.length,
                "witness_roots": [strs(r) for r in rep.witness_roots]}
    if command == "factor":
        f = min_factorization(rs, w)
        return {"type": str(rs.spec), "length": len(f.factors),
                "factors": [{"root": strs(r.root), "level": r.level} for r in f.factors]}
    split = translation_elliptic_split(rs, w)
    return {
        "type": str(rs.spec),
        "translation": strs(split.translation.translation),
        "translation_length": split.translation_report.length,
        "elliptic_length": split.elliptic_report.length,
        "elliptic_factors": [{"root": strs(r.root), "level": r.level} for r in split.elliptic_factorization.factors],
    }
