"""SVG rendering: determinism, structure, and frozen tiling counts.

The alcove counts below were sanity-checked against covolume estimates:
the number of alcoves in a disc of radius r is about pi r^2 |W0| divided
by the covolume of the coroot lattice, which predicts ~44 for A2, ~50
for B2, ~100 for C2 at r = 2, in line with the exact values.
"""

import hashlib
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from fractions import Fraction as Q
from itertools import product
from pathlib import Path

import pytest

import coxlen.render
from coxlen.errors import BudgetExceeded, UnsupportedTypeError
from coxlen.genfun import classify_coroots
from coxlen.reflen import dimension_report
from coxlen.render import (
    LENGTH_FILLS,
    _fundamental_alcove,
    _lattice_points,
    enumerate_alcoves,
    render_alcoves,
    render_classes,
)
from coxlen.rootsys import root_system
import reference_render

B2 = root_system("B2")

FROZEN_COUNTS = {
    "A2": (42, {0: 1, 1: 9, 2: 20, 3: 12}),
    "B2": (56, {0: 1, 1: 10, 2: 27, 3: 18}),
    "C2": (104, {0: 1, 1: 14, 2: 49, 3: 38, 4: 2}),
    "G2": (264, {0: 1, 1: 24, 2: 128, 3: 108, 4: 3}),
}


@pytest.mark.parametrize("name", sorted(FROZEN_COUNTS))
def test_alcove_counts_at_radius_two(name):
    rs = root_system(name)
    alcoves = enumerate_alcoves(rs, 2)
    count, hist = FROZEN_COUNTS[name]
    assert len(alcoves) == count
    got = Counter(dimension_report(rs, w).length for w, _ in alcoves)
    assert dict(got) == hist


def test_alcoves_are_distinct_group_elements():
    alcoves = enumerate_alcoves(B2, 2)
    keys = {(w.linear, w.translation) for w, _ in alcoves}
    assert len(keys) == len(alcoves)
    # identity labels the fundamental alcove
    assert alcoves[0][0].is_identity()
    assert len(alcoves[0][1]) == 3  # a triangle


# the largest whole radius whose alcoves render.ALCOVES_CAP allows
ALCOVES_REACH = {"A2": 51, "B2": 47, "C2": 33, "G2": 20}


@pytest.mark.parametrize("name", sorted(ALCOVES_REACH))
def test_alcove_cap_bounds_the_walk(monkeypatch, name):
    rs = root_system(name)
    fits = ALCOVES_REACH[name]
    assert coxlen.render.ALCOVES_CAP == 30_000
    coxlen.render._require_alcoves_reach(rs, fits)
    with pytest.raises(BudgetExceeded, match=f"cap 30000 alcoves exceeded: .* that fits is {fits}$"):
        enumerate_alcoves(rs, fits + 1)
    # a tiling radius past the cap is refused before the classes are computed
    monkeypatch.setattr(coxlen.render, "classify_coroots", None)
    with pytest.raises(BudgetExceeded):
        render_classes(rs, 1, fits + 1)
    monkeypatch.undo()
    # the tiling under the largest box render_classes allows fits too
    lat = rs.coroot_lattice
    extent = max(math.hypot(*lat.combination(c)) / lat.den for c in product(range(-8, 9), repeat=2))
    coxlen.render._require_alcoves_reach(rs, math.ceil(extent) + Q(1, 2))
    # the area bound is an upper bound: a cap one below the walk's count
    # refuses its radius
    monkeypatch.setattr(coxlen.render, "ALCOVES_CAP", FROZEN_COUNTS[name][0] - 1)
    with pytest.raises(BudgetExceeded):
        enumerate_alcoves(rs, 2)


def test_zero_radius_has_no_alcoves():
    assert enumerate_alcoves(B2, 0) == []


def test_unsupported_types_are_rejected():
    for name in ("A1", "A3", "D2", "F4"):
        with pytest.raises(UnsupportedTypeError):
            render_alcoves(root_system(name))
        with pytest.raises(UnsupportedTypeError):
            render_classes(root_system(name))
    with pytest.raises(UnsupportedTypeError):
        enumerate_alcoves(root_system("B3"), 2)


def test_alcove_svg_structure():
    svg = render_alcoves(B2, 2)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    polygons = root.findall("s:polygon", ns)
    circles = root.findall("s:circle", ns)
    texts = root.findall("s:text", ns)
    assert len(polygons) == 56
    # lattice nodes are drawn as white disc + dark core
    assert len(circles) % 2 == 0 and circles
    labels = [t.text for t in texts]
    assert "len 0: 1 alcoves" in labels
    assert "len 2: 27 alcoves" in labels
    fills = {p.get("fill") for p in polygons}
    assert fills <= set(LENGTH_FILLS)


def test_alcove_svg_is_deterministic():
    assert render_alcoves(B2, 2) == render_alcoves(B2, 2)
    assert render_classes(B2, 1) == render_classes(B2, 1)


def test_coordinates_use_fixed_decimals():
    svg = render_alcoves(root_system("A2"), 1)
    for points in re.findall(r'points="([^"]*)"', svg):
        for token in points.replace(",", " ").split():
            assert re.fullmatch(r"-?\d+\.\d{4}", token), token
    for attr in re.findall(r'c[xy]="([^"]*)"', svg):
        assert re.fullmatch(r"-?\d+\.\d{4}", attr), attr


def test_class_svg_structure():
    svg = render_classes(B2, 1)
    root = ET.fromstring(svg)
    ns = {"s": "http://www.w3.org/2000/svg"}
    texts = [t.text for t in root.findall("s:text", ns)]
    # all three class polynomials appear in the legend
    assert "1 + 4*t + 3*t^2" in texts
    assert "t + 3*t^2 + s + 3*s*t" in texts
    assert "3*t^2 + 4*s*t + s^2" in texts
    polygons = root.findall("s:polygon", ns)
    assert {p.get("fill") for p in polygons} == {"#ffffff"}
    # nine box points: 3x3 coefficient grid
    colored = [
        c
        for c in root.findall("s:circle", ns)
        if c.get("fill") not in ("#ffffff", "#111111")
    ]
    # 9 lattice markers plus 3 legend swatches
    assert len(colored) == 12


def test_g2_tiling_renders():
    svg = render_alcoves(root_system("G2"), 2)
    assert svg.count("<polygon") == 264
    ET.fromstring(svg)


RANK2 = ("A2", "B2", "C2", "G2")


@pytest.mark.parametrize("name", RANK2)
def test_fundamental_alcove_matches_the_fraction_solve(name):
    rs = root_system(name)
    assert _fundamental_alcove(rs) == reference_render.fundamental_alcove(rs)


@pytest.mark.parametrize("radius", [Q(1, 2), 2, Q(7, 2), 10])
@pytest.mark.parametrize("name", RANK2)
def test_lattice_points_match_the_fraction_scan(name, radius):
    rs = root_system(name)
    assert _lattice_points(rs, radius) == reference_render.lattice_points(rs, radius)


def test_lattice_points_make_fractions_only_for_the_points_kept(monkeypatch):
    # one Fraction for the radius, then one per coordinate of a kept point
    made = []
    monkeypatch.setattr(coxlen.render, "Q", lambda *args: made.append(args) or Q(*args))
    pts = _lattice_points(root_system("G2"), 10)
    assert len(made) == 1 + 3 * len(pts)


@pytest.mark.parametrize("radius", [Q(1, 2), 2, Q(7, 2)])
@pytest.mark.parametrize("name", RANK2)
def test_alcove_walk_matches_the_reference_alcove(monkeypatch, name, radius):
    # same elements, vertices and order as the walk from the Fraction-solved
    # fundamental alcove
    rs = root_system(name)
    got = enumerate_alcoves(rs, radius)
    monkeypatch.setattr(coxlen.render, "_fundamental_alcove", reference_render.fundamental_alcove)
    assert got == enumerate_alcoves(rs, radius)


def test_bad_radius_is_a_value_error():
    for radius in (-1, -2, Q(-1, 2), float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="radius"):
            enumerate_alcoves(B2, radius)
        with pytest.raises(ValueError, match="radius"):
            render_alcoves(B2, radius)
        with pytest.raises(ValueError, match="tiling_radius"):
            render_classes(B2, 1, radius)
    for classify in (classify_coroots, render_classes):
        with pytest.raises(ValueError, match="radius must be non-negative, got -1"):
            classify(B2, -1)
    assert enumerate_alcoves(B2, 0) == []


# sha256 of each SVG that scripts/render_figures.py --radius 2 writes,
# recorded before the fundamental alcove and the lattice points were read
# off the integer tables
RENDER_FIGURES_SHA256 = {
    "alcoves_A2_r2.svg": "21f1c42eb32dc81cdfadb995d5eeccbdad1f8ae06e90dd2072b2afd85d893084",
    "alcoves_B2_r2.svg": "8d3d9d178636bececaa3da9dd8a4630da56decd4e00a26955e83a4fad9e88060",
    "alcoves_C2_r2.svg": "48c28a21abd9f6e2d272f01f3ab7e4db3c2fe1024938af3cd129283e82323b02",
    "alcoves_G2_r2.svg": "176f44fce3509a2afc8c85bd14d906fa1d54e882e993191bfa4a48ef798cf2f0",
    "classes_A2.svg": "f1f6b5b98e6b4fab4345479a5f86b45134e9981a0d8bfad8099fc3cd00655f07",
    "classes_B2.svg": "996b26cd9cf217524312b6b4df913cd45361bf4462b6da005347756d2f3dfda9",
    "classes_G2.svg": "e97a72eff9614c350e78c5121247f8f0fc869d2ed694ae9102a3655a9b9febe3",
}


def test_render_figures_output_is_frozen(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(coxlen.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
    )
    subprocess.run(
        [sys.executable, str(root / "scripts" / "render_figures.py"), "--radius", "2", "--outdir", str(tmp_path)],
        capture_output=True, check=True, env=env,
    )
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == RENDER_FIGURES_SHA256
