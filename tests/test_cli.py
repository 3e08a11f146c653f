"""Command line interface: parsing, JSON payloads, and exit codes."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coxlen
import coxlen.affgroup
import coxlen.affsym
import coxlen.cli
import coxlen.oracle
import coxlen.reflen
import coxlen.render
import coxlen.rootsys
from coxlen.cli import main, parse_element, parse_vector, parse_window_text
from coxlen.errors import BudgetExceeded, ParseError, UnsupportedTypeError
from coxlen.genfun import BivariatePolynomial
from coxlen.rootsys import root_system
import reference_cli
from reference_cli import fraction_pair, nullity_vector, public_payload
from reference_cli import parse_element as fraction_parse_element
from reference_genfun import poly_s_plus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_parse_vector():
    assert parse_vector("(1,-1,0)") == (1, -1, 0)
    assert parse_vector(" ( 1/2 , -3 ) ")[0].denominator == 2
    for bad in ["1,2", "()", "(a,b)", "(1,2))"]:
        with pytest.raises(ParseError):
            parse_vector(bad)


def test_parse_window_text():
    assert parse_window_text("[4,2,0]").values == (4, 2, 0)
    for bad in ["4,2,0", "[]", "[1.5,2]", "[1,2,4]"]:
        with pytest.raises(ParseError):
            parse_window_text(bad)


def test_parse_element_grammar():
    rs = root_system("B2")
    t = parse_element(rs, "lambda=(1,1)")
    assert t.translation == (1, 1)
    w = parse_element(rs, "word=s1 s2")
    assert not w.is_identity()
    both = parse_element(rs, "lambda=(1,1); word=s1")
    assert both.translation != (0, 0)
    r = parse_element(rs, "refl(1,0) refl(1,0)")
    assert r.is_identity()
    for bad in ["", "word=s3", "word=x1", "foo=1", "refl(9,0)", "refl(1)"]:
        with pytest.raises(ParseError):
            parse_element(rs, bad)


PARSE_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{f}{n}" for f in "BCD" for n in range(2, 9)]
    + ["G2", "F4"]
)


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
BAD_ENTRIES = ["x", "1/0", "+", "--1", "+-1", "1__0", "_1", "0x1", "1/-2"]


@st.composite
def entry_texts(draw, x):
    """The number x as a vector entry, padded with spaces: an integer as
    written, or as +3, -0, 007, 1_0, in Arabic-Indic digits, as 2e1 or as
    4/2; a rational as p/q or, for halves, as 1.5 or 15e-1."""
    x = Q(x)
    sign, digits = "-" if x < 0 else "", str(abs(x.numerator))
    if x.denominator != 1:
        forms = [str(x)]
        if x.denominator == 2:
            forms += [str(float(x)), f"{x * 10}e-1"]
    else:
        forms = [
            str(x),
            "+" + digits if x >= 0 else str(x),
            "-0" if x == 0 else str(x),
            sign + "00" + digits,
            sign + (digits[0] + "_" + digits[1:] if len(digits) > 1 else "0_" + digits),
            str(x).translate(ARABIC_INDIC),
            f"{x}e0",
            f"{2 * x}/2",
        ]
    pad = st.sampled_from(["", " ", "  ", "\t"])
    return draw(pad) + draw(st.sampled_from(forms)) + draw(pad)


@st.composite
def vector_texts(draw, xs):
    """The vector xs as text, each entry drawn by entry_texts; one time in
    eight, one entry is one of BAD_ENTRIES, which no parser reads."""
    entries = [draw(entry_texts(x)) for x in xs]
    if draw(st.sampled_from([False] * 7 + [True])):
        entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(BAD_ENTRIES))
    return "(" + ",".join(entries) + ")"


@st.composite
def element_texts(draw):
    """A root system of PARSE_TYPES and an element of it as --element
    text: a word of up to 2 rank + 2 letters with or without a lambda, in
    either order, or up to rank + 2 refl(i,j), now and then with spaces
    inside the parentheses, a third of the draws each.  The lambda is
    mostly a random lattice point; else a random vector of integers and
    thirds or halves, mostly off the lattice, or a lattice point with one
    entry too few or too many; vector_texts writes it."""
    rs = root_system(draw(st.sampled_from(PARSE_TYPES)))
    shape = draw(st.sampled_from(["refl", "word", "lambda"]))
    if shape == "refl":
        n = len(rs.positive_roots)
        pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(-3, 3)), min_size=1, max_size=rs.rank + 2))
        pad = st.sampled_from(["", "", " ", "  "])
        return rs, " ".join(f"refl({draw(pad)}{i}{draw(pad)},{draw(pad)}{j}{draw(pad)})" for i, j in pairs)
    letters = draw(st.lists(st.integers(1, rs.rank), max_size=2 * rs.rank + 2))
    parts = ["word=" + " ".join(f"s{i}" for i in letters)]
    if shape == "lambda":
        lam = list(rs.from_lattice_coords(draw(st.lists(st.integers(-12, 12), min_size=rs.rank, max_size=rs.rank))))
        kind = draw(st.sampled_from(["lattice", "lattice", "random", "short", "long"]))
        if kind == "random":
            lam = draw(st.lists(st.builds(Q, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3])),
                                min_size=len(lam), max_size=len(lam)))
        elif kind == "short":
            lam.pop()
        elif kind == "long":
            lam.append(draw(st.integers(-4, 4)))
        parts.append("lambda=" + draw(vector_texts(lam)))
    return rs, "; ".join(draw(st.permutations(parts)))


def outcome(f, *args):
    """("ok", what f returns) or (the ValueError's class, its message)."""
    try:
        return "ok", f(*args)
    except ValueError as ex:
        return type(ex).__name__, str(ex)


# nullity --vector texts: zero-sum, now and then with a third or a half
ZERO_SUM_VECTORS = st.lists(
    st.builds(Q, st.integers(-4, 4), st.sampled_from([1] * 8 + [2, 3])), min_size=1, max_size=5
).map(lambda xs: [*xs, -sum(xs)])


@given(element_texts(), ZERO_SUM_VECTORS.flatmap(vector_texts))
@example((root_system("B2"), "lambda=( +3 , -0 ,1); word=s1"), "( 00 ,+3,-3 )")
@example((root_system("C3"), "word=s3; lambda=(1_0,-٣,+0)"), "(1_0,-1_0)")
@example((root_system("F4"), "lambda=(1/2,1.5,-0.5,25e-1)"), "(2e1,-20,4/2,-2)")
@example((root_system("B2"), "lambda=(1,0)"), "(1/2,-1/2)")
@example((root_system("A2"), "lambda=(1/3,-1/3,0); word=s2"), "(1,-1,0")
@example((root_system("G2"), "lambda=(1,-1)"), "()")
@example((root_system("D4"), "lambda=(--1,1,0,0)"), "(+-1,1)")
@example((root_system("A1"), "lambda=(1,-1); word=s2"), "(1,+,-1)")
@example((root_system("B2"), "refl(1, 1) refl( 2 ,0)"), "(0,0)")
@example((root_system("B2"), "refl(1, 1)refl(2,0)"), "(0,0)")
@settings(max_examples=500, deadline=None)
def test_parse_element_matches_the_fraction_parser(typed, vector):
    # words against times_reflection one letter at a time, refl(i,j)
    # products against affgroup.product; lambda= and nullity --vector
    # through the integer route against every entry a Fraction: the same
    # pair or vector, else the same error
    rs, text = typed
    got = outcome(coxlen.cli._parse, rs, text)
    assert got == outcome(fraction_pair, rs, text)
    if got[0] == "ok":
        assert parse_element(rs, text) == fraction_parse_element(rs, text)

    expected = outcome(nullity_vector, vector)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["nullity", "--vector", vector, "--json"])
    if expected[0] == "ok":
        assert (code, err.getvalue()) == (0, "")
        assert json.loads(out.getvalue())["vector"] == list(expected[1])
    else:
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {expected[1]}\n")


def test_element_path_builds_no_fraction_products(capsys, monkeypatch):
    # parse_element builds its one matrix at the end; the commands run on
    # the parser's (root permutation, coroot coordinates) pair and build
    # no matrix at all (len --verify and oracle hand the pair to the
    # oracle, which builds one per W0 index for the certificate)
    def boom(*args):
        raise AssertionError("Fraction product on the --element path")

    for name in ("times_reflection", "product"):
        monkeypatch.setattr(coxlen.affgroup, name, boom)
        monkeypatch.setattr(coxlen.cli, name, boom, raising=False)
    monkeypatch.setattr(coxlen.affgroup.AffineReflection, "make", staticmethod(boom))
    elements = [
        ("G2", "lambda=(1,-1,0); word=s1 s2 s1"),
        ("F4", "word=s4 s3 s2 s1 s2"),
        ("B8", "refl(1,1) refl(64,-2)"),
    ]
    for name, element in elements:
        assert parse_element(root_system(name), element) is not None
    for name in ("_w0_permutation", "linear_move_space"):
        monkeypatch.setattr(coxlen.affgroup, name, boom)
        monkeypatch.setattr(coxlen.reflen, name, boom, raising=False)
    monkeypatch.setattr(coxlen.rootsys.RootTables, "linear", boom)
    for name, element in elements:
        for command in ("len", "factor", "split"):
            code, _, err = run(capsys, command, "--type", name, "--element", element)
            assert code == 0, err
    code, _, err = run(capsys, "window", "--window", "[8,-1,0,12,-4]")
    assert code == 0, err


def record_matrix_work(monkeypatch):
    """The root permutations RootTables.linear builds a matrix for, and
    the matrices _w0_permutation reads back into one."""
    built, linear = [], coxlen.rootsys.RootTables.linear
    scanned, scan = [], coxlen.affgroup._w0_permutation
    monkeypatch.setattr(coxlen.rootsys.RootTables, "linear", lambda self, perm: built.append(perm) or linear(self, perm))
    for module in (coxlen.affgroup, coxlen.reflen):
        monkeypatch.setattr(module, "_w0_permutation", lambda rs, m: scanned.append(m) or scan(rs, m))
    return built, scanned


def test_len_verify_builds_the_matrix_for_the_oracle(capsys, monkeypatch):
    built, scanned = record_matrix_work(monkeypatch)
    argv = ["len", "--type", "B2", "--element", "lambda=(1,1); word=s1", "--json"]
    assert run_json(capsys, *argv)["length"] == 3
    assert built == []
    payload = run_json(capsys, *argv, "--verify")
    assert (payload["oracle_length"], payload["oracle_agrees"]) == (3, True)
    assert len(built) == 1
    assert scanned == []


def test_oracle_command_hands_the_parsed_pair_to_the_oracle(capsys, monkeypatch):
    built, scanned = record_matrix_work(monkeypatch)
    payload = run_json(capsys, "oracle", "--type", "B2", "--element", "lambda=(1,1); word=s1", "--json")
    assert (payload["length"], payload["certified"]) == (3, True)
    assert len(built) == 1
    assert scanned == []


CORE_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{f}{n}" for f in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["G2", "F4"]
)


@st.composite
def core_elements(draw):
    """A root system of CORE_TYPES and an element of it as --element
    text: up to four refl(i,j), or a word of up to 2 rank letters with or
    without a lattice lambda of at most two nonzero simple-coroot
    coordinates.  Then d <= 2, so the span and Hurwitz searches stay
    small at rank 8."""
    rs = root_system(draw(st.sampled_from(CORE_TYPES)))
    if draw(st.booleans()):
        n = len(rs.positive_roots)
        pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(-3, 3)), min_size=1, max_size=4))
        return rs, " ".join(f"refl({i},{j})" for i, j in pairs)
    letters = draw(st.lists(st.integers(1, rs.rank), max_size=2 * rs.rank))
    parts = ["word=" + " ".join(f"s{i}" for i in letters)]
    if draw(st.booleans()):
        coeffs = [0] * rs.rank
        for i in draw(st.lists(st.integers(0, rs.rank - 1), min_size=1, max_size=2)):
            coeffs[i] = draw(st.integers(-4, 4))
        parts.append("lambda=(" + ",".join(map(str, rs.from_lattice_coords(coeffs))) + ")")
    return rs, "; ".join(draw(st.permutations(parts)))


@pytest.mark.parametrize("command", ["len", "factor", "split"])
@given(typed=core_elements())
@settings(max_examples=150, deadline=None)
def test_integer_core_matches_the_public_api(command, typed):
    # the command's JSON, from the parser's pair, against the JSON built
    # from parse_element's AffineElement by the public functions
    rs, text = typed
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command, "--type", str(rs.spec), "--element", text, "--json"]) == 0
    assert out.getvalue() == json.dumps(public_payload(rs, command, text)) + "\n"


@pytest.mark.parametrize(
    "element, field",
    [
        ("lambda=(1,-1,0,0);lambda=(0,0,0,0)", "lambda"),
        ("word=s1 s2; word=s3", "word"),
        ("word=s1; lambda=(1,-1,0,0); word=", "word"),
    ],
)
def test_repeated_element_field_exits_2(capsys, element, field):
    code, out, err = run(capsys, "len", "--type", "A3", "--element", element)
    assert (code, out) == (2, "")
    assert err == f"error: element field {field!r} appears twice\n"
    with pytest.raises(ParseError, match=field):
        parse_element(root_system("A3"), element)


def test_len_command_json(capsys):
    payload = run_json(
        capsys, "len", "--type", "B2", "--element", "lambda=(1,1)", "--json"
    )
    assert payload["type"] == "B2"
    assert (payload["e"], payload["d"]) == (0, 1)
    assert payload["length"] == 2
    assert payload["witness_roots"] == [["1", "1"]]


def test_len_command_verify(capsys):
    payload = run_json(
        capsys,
        "len", "--type", "B2", "--element", "lambda=(2,0); word=s1 s2",
        "--verify", "--json",
    )
    assert payload["oracle_agrees"]
    assert payload["oracle_length"] == payload["length"]


def test_len_command_text_output(capsys):
    code, out, _ = run(capsys, "len", "--type", "A2", "--element", "word=s1")
    assert code == 0
    assert "reflection length = 1" in out


def test_factor_command(capsys):
    payload = run_json(
        capsys, "factor", "--type", "B2", "--element", "lambda=(1,1)", "--json"
    )
    assert payload["length"] == 2
    assert len(payload["factors"]) == 2
    for f in payload["factors"]:
        assert set(f) == {"root", "level"}


def test_split_command(capsys):
    payload = run_json(
        capsys,
        "split", "--type", "B2", "--element", "lambda=(2,0); word=s1",
        "--json",
    )
    assert payload["translation_length"] + payload["elliptic_length"] >= 0
    assert len(payload["elliptic_factors"]) == payload["elliptic_length"]


def test_window_command(capsys):
    payload = run_json(capsys, "window", "--window", "[6,0,7,-1,3]", "--json")
    assert payload["n"] == 5
    assert payload["lambda"] == [1, -1, 1, -1, 0]
    assert payload["permutation"] == [1, 5, 2, 4, 3]
    assert payload["cycles"] == [[1], [2, 3, 5], [4]]
    assert payload["relative_nullity"] == 2
    assert payload["length"] == 4
    assert payload["good_origin"] == ["2/5", "2/5", "-3/5", "2/5", "-3/5"]


def test_nullity_command(capsys):
    payload = run_json(
        capsys, "nullity", "--vector", "(-3,-2,-2,-1,1,2,5)", "--verify", "--json"
    )
    assert payload["nullity"] == 3
    assert payload["oracle_agrees"]
    assert payload["proper_basic_null_blocks"] == 12
    assert payload["complex_vertices"] == 7
    assert payload["complex_edges"] == 7
    assert len(payload["maximal_cliques"]) == 3


def test_genfun_command(capsys):
    payload = run_json(
        capsys, "genfun", "--type", "B2", "--lambda", "(3,1)", "--json"
    )
    assert payload["polynomial"] == "3*t^2 + 4*s*t + s^2"
    assert payload["specialized"] == [0, 0, 3, 4, 1]
    classify = run_json(
        capsys, "genfun", "--type", "B2", "--classify", "1", "--json"
    )
    assert sum(c["points"] for c in classify["classes"]) == 9


def test_genfun_rank_8_without_w0(capsys):
    # a generic B8 point (no signed subset of its coordinates sums to 0):
    # every factor of the exponent product deforms to s + e t
    payload = run_json(
        capsys, "genfun", "--type", "B8", "--lambda", "(38,670,-829,-180,244,-143,368,220)", "--json"
    )
    expected = BivariatePolynomial.monomial(0, 0)
    for e in (1, 3, 5, 7, 9, 11, 13, 15):
        expected = expected * poly_s_plus(e)
    assert payload["terms"] == expected.to_json_terms()


def test_genfun_classify_out_of_reach_fails_fast(capsys):
    code, out, err = run(capsys, "genfun", "--type", "B8", "--classify", "3")
    assert (code, out) == (4, "")
    assert err.startswith("error: classification cap 1000000 exceeded: ")
    assert err.endswith(" of 5764801 lattice points of B8 at radius 3; use a smaller radius\n")


def test_genfun_needs_an_input(capsys):
    code, _, err = run(capsys, "genfun", "--type", "B2")
    assert code == 2
    assert "error" in err


def test_render_command_stdout(capsys):
    code, out, _ = run(
        capsys,
        "render-svg", "--type", "B2", "--mode", "alcoves", "--radius", "1.5",
        "--out", "-",
    )
    assert code == 0
    assert out.startswith("<?xml")
    assert "<svg" in out and "</svg>" in out


def test_render_command_file(tmp_path, capsys):
    target = tmp_path / "b2.svg"
    code, out, _ = run(
        capsys,
        "render-svg", "--type", "B2", "--mode", "classes", "--radius", "1",
        "--out", str(target),
    )
    assert code == 0
    assert "wrote" in out
    assert target.read_text().startswith("<?xml")


def test_render_command_unwritable_path(tmp_path, capsys):
    target = tmp_path / "missing" / "b2.svg"
    code, out, err = run(
        capsys,
        "render-svg", "--type", "B2", "--mode", "classes", "--radius", "1",
        "--out", str(target),
    )
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize("mode", ["alcoves", "classes"])
def test_render_command_checks_the_path_before_rendering(tmp_path, capsys, monkeypatch, mode):
    rendered = []
    for name in ("render_alcoves", "render_classes"):
        monkeypatch.setattr(coxlen.cli, name, lambda rs, radius: rendered.append(radius) or "<svg/>")
    target = tmp_path / "missing" / "b2.svg"
    code, out, err = run(capsys, "render-svg", "--type", "B2", "--mode", mode, "--radius", "1",
                         "--out", str(target))
    assert (code, out, rendered) == (2, "", [])
    assert err == f"error: cannot write {target}: No such file or directory\n"
    target = tmp_path / "b2.svg"
    code, out, _ = run(capsys, "render-svg", "--type", "B2", "--mode", mode, "--radius", "1",
                       "--out", str(target))
    assert (code, out, rendered) == (0, f"wrote {target}\n", [1])
    assert target.read_text() == "<svg/>"


def test_classes_render_beyond_the_cap_exits_4_before_any_work(tmp_path, capsys, monkeypatch):
    def boom(*args):
        raise AssertionError("a classes render beyond the cap did some work")

    monkeypatch.setattr(coxlen.render, "classify_coroots", boom)
    target = tmp_path / "b2.svg"
    target.write_text("kept")
    for radius, points in (("9", 361), ("200", 160801)):
        code, out, err = run(capsys, "render-svg", "--type", "B2", "--mode", "classes", "--radius", radius,
                             "--out", str(target))
        assert (code, out) == (4, "")
        assert err == (
            f"error: classes render cap 289 lattice points exceeded: radius {radius} has {points}; "
            "the largest radius that fits is 8\n"
        )
        assert target.read_text() == "kept"
    with pytest.raises(BudgetExceeded, match="largest radius that fits is 8"):
        coxlen.render.render_classes(root_system("G2"), 9)
    # radius 8, the largest that fits, passes the check
    coxlen.render._require_classes_reach(8)
    assert coxlen.render.CLASSES_POINT_CAP == 17 * 17


def test_alcove_render_beyond_the_cap_exits_4_before_any_work(tmp_path, capsys, monkeypatch):
    def boom(*args):
        raise AssertionError("an alcove render beyond the cap did some work")

    monkeypatch.setattr(coxlen.render, "times_reflection", boom)
    target = tmp_path / "g2.svg"
    target.write_bytes(b"<svg/>\n")
    for spec, radius, fits in (("G2", "1e308", 20), ("G2", "21", 20), ("A2", "52", 51), ("C2", "40", 33)):
        start = time.perf_counter()
        code, out, err = run(capsys, "render-svg", "--type", spec, "--radius", radius, "--out", str(target))
        assert time.perf_counter() - start < 1
        assert (code, out) == (4, "")
        assert err == (
            f"error: alcove render cap 30000 alcoves exceeded: radius {float(radius)} may hold more; "
            f"the largest whole radius that fits is {fits}\n"
        )
        assert target.read_bytes() == b"<svg/>\n"


@pytest.mark.parametrize("radius", ["2.5", "0.5"])
def test_classes_radius_must_be_an_integer(capsys, radius):
    code, out, err = run(capsys, "render-svg", "--type", "B2", "--mode", "classes",
                         "--radius", radius, "--out", "-")
    assert (code, out) == (2, "")
    assert err == f"error: radius must be an integer in classes mode, got {radius}\n"
    code, out, _ = run(capsys, "render-svg", "--type", "B2", "--mode", "classes",
                       "--radius", "1.0", "--out", "-")
    assert code == 0 and out.startswith("<?xml")


def test_oracle_command(capsys):
    payload = run_json(
        capsys, "oracle", "--type", "B2", "--element", "lambda=(1,1)", "--json"
    )
    assert payload["length"] == 2
    assert payload["certified"]


def test_oracle_names_its_certificate(capsys):
    stable = ["oracle", "--type", "B2", "--element", "lambda=(2,4)"]
    payload = run_json(capsys, *stable, "--json")
    assert (payload["length"], payload["certified"], payload["certificate"]) == (4, True, "stable")
    code, out, _ = run(capsys, *stable)
    assert code == 0
    assert out == (
        "oracle length = 4 (certified, levels up to 5, depth up to 4)\n"
        "certificate: stable (same length at the next level bound, a heuristic)\n"
    )
    payload = run_json(capsys, "oracle", "--type", "B2", "--element", "word=s1", "--json")
    assert (payload["length"], payload["certificate"]) == (1, "rank")
    far = ["oracle", "--type", "B2", "--element", "lambda=(9,9)", "--level-bound", "1", "--depth-bound", "1"]
    assert run_json(capsys, *far, "--json")["certificate"] is None
    assert run(capsys, *far)[1].endswith("\ncertificate: none\n")


def test_len_verify_names_the_oracle_certificate(capsys):
    argv = ["len", "--type", "A2", "--element", "lambda=(1,-1,0); word=s1", "--verify"]
    payload = run_json(capsys, *argv, "--json")
    assert (payload["oracle_certified"], payload["oracle_certificate"]) == (True, "rank")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.endswith(
        "oracle: 1 (certified, agrees)\noracle certificate: rank (length <= e + 1, a proof)\n"
    )


def test_split_does_not_check_its_elliptic_part_again(capsys, monkeypatch):
    # the command hands the parser's pair to the integer core, so no
    # AffineElement is checked; the split verifies u and factors it once,
    # and the command only prints it
    checked, split_off = [], coxlen.reflen._split_off
    for module in (coxlen.affgroup, coxlen.reflen):
        monkeypatch.setattr(module, "require_group_element", lambda rs, a: checked.append(a))
    monkeypatch.setattr(coxlen.reflen, "_split_off", lambda *args: checked.append("split") or split_off(*args))
    element = "lambda=(2,1,-1); word=s3 s2"
    payload = run_json(capsys, "split", "--type", "B3", "--element", element, "--json")
    assert (payload["translation_length"], payload["elliptic_length"]) == (2, 2)
    assert checked == ["split"]


def test_window_runs_the_nu_kernel_once(capsys, monkeypatch):
    # the command computes nu once and reads the length off it
    calls, kernel = [], coxlen.affsym.zero_block_count
    monkeypatch.setattr(coxlen.affsym, "zero_block_count", lambda *args: calls.append(args) or kernel(*args))
    payload = run_json(capsys, "window", "--window", "[6,0,7,-1,3]", "--json")
    assert calls == [((1, 0, -1), False)]
    assert payload["length"] == 5 - 2 * payload["relative_nullity"] + len(payload["cycles"])


def test_window_reads_the_normal_form_once(capsys, monkeypatch):
    # the command hands its (lam, pi) to the good-origin split
    calls, normal_form = [], coxlen.affsym.Window.normal_form
    monkeypatch.setattr(coxlen.affsym.Window, "normal_form", lambda win: calls.append(win) or normal_form(win))
    payload = run_json(capsys, "window", "--window", "[6,0,7,-1,3]", "--json")
    assert calls == [coxlen.affsym.Window((6, 0, 7, -1, 3))]
    assert (payload["lambda"], payload["permutation"]) == ([1, -1, 1, -1, 0], [1, 5, 2, 4, 3])


def test_lengths_never_build_minimal_null_blocks(capsys, monkeypatch):
    # nullity, relative nullity, window length and the window command all
    # take nu from reflen.zero_block_count, never from the null complex
    def boom(*args, **kwargs):
        raise AssertionError("minimal null blocks built")

    monkeypatch.setattr(coxlen.affsym, "minimal_null_blocks", boom)
    assert coxlen.affsym.nullity((-3, -2, -2, -1, 1, 2, 5)) == 3
    assert coxlen.affsym.relative_nullity((1, 0, -1), (1, 2, 3)) == 2
    assert coxlen.affsym.reflection_length(coxlen.affsym.Window((6, 0, 7, -1, 3))) == 4
    payload = run_json(capsys, "window", "--window", "[6,0,7,-1,3]", "--json")
    assert payload["length"] == 4
    with pytest.raises(AssertionError, match="minimal null blocks built"):
        main(["nullity", "--vector", "(1,-1)"])


def test_genfun_lambda_and_classify_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as ex:
        main(["genfun", "--type", "G2", "--lambda", "(1,-1,0)", "--classify", "1"])
    assert ex.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_nullity_of_a_vector_off_zero_sum_names_the_command(capsys):
    code, out, err = run(capsys, "nullity", "--vector", "(1,2)")
    assert (code, out, err) == (2, "", "error: nullity needs a zero-sum vector\n")


def test_profile_cap_names_the_cap_and_the_supports(capsys):
    code, _, err = run(capsys, "nullity", "--vector", "(" + "1," * 23 + "-23)")
    assert code == 4
    assert "DEFAULT_PROFILE_SIZE_CAP = 22" in err
    assert "23 positive and 1 negative" in err


def test_nullity_with_distinct_subset_sums_answers_within_the_profile_cap(capsys):
    # 22 positive entries, all 2^22 of their subset sums distinct: only the
    # weight the single negative entry reaches is counted
    vector = "(" + ",".join(str(2**i) for i in range(22)) + f",{-(2**22 - 1)})"
    start = time.perf_counter()
    payload = run_json(capsys, "nullity", "--vector", vector, "--json")
    assert time.perf_counter() - start < 1
    assert (payload["nullity"], payload["proper_basic_null_blocks"]) == (1, 0)
    assert payload["minimal_null_blocks"] == [list(range(1, 24))]


@pytest.mark.parametrize("top", [37, 43])
def test_vertex_cap_trips_before_the_basic_blocks_are_built(capsys, top):
    # (1, -1, 4, -4, ..., top, -top): 10^5 to 10^7 basic blocks, but more
    # than 64 minimal ones by a low weight
    vector = "(" + ",".join(f"{k},{-k}" for k in range(1, top + 1, 3)) + ")"
    started = time.perf_counter()
    code, _, err = run(capsys, "nullity", "--vector", vector)
    assert time.perf_counter() - started < 2
    assert code == 4
    assert "minimal null blocks exceed the vertex cap 256 by weight" in err


def test_nullity_answers_a_vector_past_the_old_vertex_cap(capsys):
    # 86 minimal null blocks, above the old vertex cap of 64, but 87
    # unions tested and 43 cliques
    payload = run_json(capsys, "nullity", "--vector", "(3,-1,3,-4,-4,-1,3,-4,3,2)", "--verify", "--json")
    assert (len(payload["minimal_null_blocks"]), len(payload["maximal_cliques"])) == (86, 43)
    assert (payload["nullity"], payload["oracle_agrees"]) == (2, True)


@pytest.mark.parametrize("k", range(8, 23))
def test_nullity_of_ones_and_minus_ones_exits_4_at_once(capsys, k):
    # (1, -1) x k has k^2 minimal null blocks, C(2k, k) - 1 unions to test
    # and k! cliques: the union cap refuses k <= 16, the vertex cap the rest
    tracemalloc.start()
    started = time.perf_counter()
    try:
        code, out, err = run(capsys, "nullity", "--vector", "(" + ",".join(["1,-1"] * k) + ")")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - started < 2
    assert (code, out) == (4, "")
    assert ("DEFAULT_NULL_UNION_CAP = 10000" if k <= 16 else "the vertex cap 256") in err
    assert peak < 50 * 2**20


@pytest.mark.parametrize("vector,code", [("(" + "1," * 22 + "-22)", 0), ("(" + "1,-1," * 21 + "1,-1)", 4)])
def test_nullity_stays_small_at_the_profile_cap(capsys, vector, code):
    # 22 entries of each sign: (1 x 22, -22) answers and (1, -1) x 22
    # trips the vertex cap, neither building 2^22 signed subsets
    tracemalloc.start()
    try:
        got, _, err = run(capsys, "nullity", "--vector", vector, "--json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == code, err
    assert peak < 50 * 2**20


def test_oracle_state_cap_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(coxlen.oracle, "DEFAULT_ORACLE_STATE_CAP", 1000)
    code, _, err = run(capsys, "oracle", "--type", "B3", "--element", "lambda=(3,2,1)")
    assert code == 4
    assert "oracle state cap DEFAULT_ORACLE_STATE_CAP = 1000 exceeded: 1001 states stored" in err


@pytest.mark.parametrize("argv", [
    ["oracle", "--type", "A2", "--element", "lambda=(1,-1,0)", "--level-bound", "100000000"],
    # the default level bound is the widest coordinate plus 2
    ["len", "--type", "A2", "--element", "lambda=(100000000,-100000000,0)", "--verify"],
])
def test_oracle_refuses_a_first_round_past_the_state_cap_at_once(capsys, argv):
    # the first round would store every reflection of level at most J,
    # 3 (2J + 1) of them in A2, so J above 333332 cannot fit the cap; len
    # --verify appends the formula's answer to the oracle's refusal
    tail = "; the formula gives length 2 (d = 1, e = 0)" if "--verify" in argv else ""
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 2
    assert (code, out) == (4, "")
    assert "DEFAULT_ORACLE_STATE_CAP = 2000000 exceeded: the first round would store 6000000" in err
    assert f"the largest level bound that fits is 333332{tail}\n" in err


@pytest.mark.parametrize("element", [
    "lambda=(100000000,-100000000,0)",
    "lambda=(100000000,-100000000,0); word=s2",
    "lambda=(-7000000,0,7000000); word=s1 s2",
])
def test_len_verify_keeps_the_formula_answer_when_the_oracle_refuses(capsys, element):
    # exit 4 and the oracle's message stay, and the error line ends with
    # what len without --verify prints
    p = run_json(capsys, "len", "--type", "A2", "--element", element, "--json")
    code, out, err = run(capsys, "len", "--type", "A2", "--element", element, "--verify", "--json")
    assert (code, out) == (4, "")
    assert err.startswith("error: oracle state cap DEFAULT_ORACLE_STATE_CAP = 2000000 exceeded: ")
    assert err.endswith(f"; the formula gives length {p['length']} (d = {p['d']}, e = {p['e']})\n")


def test_len_of_wide_coprime_cycle_sums_exits_4_at_once(capsys):
    # the gcd cannot narrow nu's bitsets here, and the DP would need about
    # 1.2e11 bits: it is refused before it starts, naming the cap
    started = time.perf_counter()
    code, out, err = run(
        capsys, "len", "--type", "A8", "--element",
        "lambda=(1000003,-1000003,2000011,-2000011,3000017,-3000017,1,2,-3)",
    )
    assert time.perf_counter() - started < 1
    assert (code, out) == (4, "")
    assert err.startswith(f"error: nullity cap {coxlen.reflen.DEFAULT_NULLITY_BITS_CAP} bits exceeded: 9 sums")
    assert "sum |sums| = 108000612" in err


def test_len_of_a_wide_root_direction_answers_at_once(capsys):
    # nu's bitsets are as wide as the cycle sums over their gcd, here 1
    started = time.perf_counter()
    payload = run_json(capsys, "len", "--type", "A4", "--element", "lambda=(1000000000000,-1000000000000,0,0,0)", "--json")
    assert time.perf_counter() - started < 1
    assert (payload["e"], payload["d"], payload["length"]) == (0, 1, 2)


def test_exit_code_2_on_bad_input(capsys):
    assert run(capsys, "len", "--type", "B2", "--element", "garbage=1")[0] == 2
    assert run(capsys, "len", "--type", "A 2x", "--element", "word=s1")[0] == 2
    assert run(capsys, "window", "--window", "[1,2,4]")[0] == 2
    # group membership failures are bad input as well
    assert run(capsys, "len", "--type", "B2", "--element", "lambda=(1,0)")[0] == 2
    assert run(capsys, "render-svg", "--type", "B2", "--radius", "-1",
               "--out", "-")[0] == 2


def test_window_above_size_9_exits_3_naming_the_size(capsys):
    code, out, err = run(capsys, "window", "--window", "[1,2,3,4,5,6,7,8,9,10]")
    assert (code, out) == (3, "")
    assert err == "error: window size n = 10 out of range: the split runs in A_(n-1), n <= 9\n"


def test_exit_code_3_on_unsupported_type(capsys):
    assert run(capsys, "len", "--type", "E8", "--element", "word=s1")[0] == 3
    assert run(capsys, "len", "--type", "A9", "--element", "word=s1")[0] == 3
    assert run(capsys, "render-svg", "--type", "A3", "--out", "-")[0] == 3


def test_exit_code_4_on_budget(capsys):
    code, _, err = run(
        capsys,
        "split", "--type", "B2", "--element", "lambda=(2,0); word=s1",
        "--budget", "0",
    )
    assert code == 4
    assert "budget" in err.lower()


def test_budget_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("COXLEN_BUDGET", "0")
    code, _, _ = run(
        capsys, "split", "--type", "B2", "--element", "lambda=(2,0); word=s1"
    )
    assert code == 4
    monkeypatch.setenv("COXLEN_BUDGET", "not-a-number")
    code, _, err = run(
        capsys, "split", "--type", "B2", "--element", "lambda=(2,0); word=s1"
    )
    assert code == 2
    assert "COXLEN_BUDGET" in err
    # explicit --budget flag wins over the environment
    monkeypatch.setenv("COXLEN_BUDGET", "0")
    code, _, _ = run(
        capsys,
        "split", "--type", "B2", "--element", "lambda=(2,0); word=s1",
        "--budget", "100000",
    )
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["split", "--type", "B2", "--element", "lambda=(2,0); word=s1"],
    ["window", "--window", "[6,0,7,-1,3]"],
], ids=lambda argv: argv[0])
def test_negative_budget_is_bad_input(capsys, monkeypatch, argv):
    code, out, err = run(capsys, *argv, "--budget", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --budget must be non-negative, got -1\n"
    monkeypatch.setenv("COXLEN_BUDGET", "-1")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: COXLEN_BUDGET must be non-negative, got -1\n"
    # a budget of 0 is valid: the search runs and trips it
    monkeypatch.setenv("COXLEN_BUDGET", "0")
    assert run(capsys, *argv)[0] == 4


def test_budget_message_names_the_cap(capsys):
    code, _, err = run(
        capsys,
        "split", "--type", "B2", "--element", "lambda=(2,0); word=s1",
        "--budget", "0",
    )
    assert code == 4
    assert err == (
        "error: Hurwitz search budget 0 exceeded: 1 states visited by round 1 of 1; "
        "raise it with --budget or COXLEN_BUDGET\n"
    )


def test_lattice_error_prints_the_vector(capsys):
    for command in ("split", "factor"):
        code, _, err = run(capsys, command, "--type", "B2", "--element", "lambda=(1,0)")
        assert code == 2
        assert err == "error: translation part (1, 0) is not in the coroot lattice\n"
    code, _, err = run(capsys, "len", "--type", "F4", "--element", "lambda=(1/2,1/2,1/2,1/2)")
    assert code == 2
    assert err == "error: translation part (1/2, 1/2, 1/2, 1/2) is not in the coroot lattice\n"
    code, _, err = run(capsys, "oracle", "--type", "B2", "--element", "lambda=(1,0)")
    assert code == 2
    assert err == "error: translation part (1, 0) is not in the coroot lattice\n"


def test_oracle_checks_the_lattice_before_the_rank_guard(capsys):
    # the parser reads lambda as coroot coordinates, so an off-lattice
    # lambda exits 2 before the oracle's rank guard can exit 4
    code, _, err = run(capsys, "oracle", "--type", "B5", "--element", "lambda=(1,0,0,0,0)")
    assert (code, err) == (2, "error: translation part (1, 0, 0, 0, 0) is not in the coroot lattice\n")
    code, _, err = run(capsys, "oracle", "--type", "B5", "--element", "lambda=(1,1,0,0,0)")
    assert (code, err) == (4, "error: brute-force oracle supports rank <= 4, got B5\n")


@pytest.mark.parametrize("argv", [["len"], ["len", "--verify"], ["factor"], ["split"]])
def test_off_lattice_element_exits_before_any_search(capsys, monkeypatch, argv):
    def boom(*args):
        raise AssertionError("a search ran on an element outside the coroot lattice")

    for name in ("_report", "_min_span_subset", "_peel_elliptic"):
        monkeypatch.setattr(coxlen.reflen, name, boom)
    monkeypatch.setattr(coxlen.cli, "_pair_lengths", boom)
    code, out, err = run(capsys, *argv, "--type", "B3", "--element", "word=s3 s1; lambda=(1,0,0)")
    assert (code, out) == (2, "")
    assert err == "error: translation part (1, 0, 0) is not in the coroot lattice\n"


# factor, split and window outputs recorded before the root-index kernel
# replaced Fraction matrices in the factorisation layer: two elements per
# family at rank <= 4 (d = 2 for several, so the Hurwitz search runs more
# than one round), G2, F4 and three windows.
FROZEN_OUTPUTS = [
    (['factor', '--type', 'A3', '--element', 'lambda=(2,-1,0,-1); word=s1 s2'],
     '{"type": "A3", "length": 4, "factors": [{"root": ["0", "0", "1", "-1"], "level": 1}, {"root": ["0", "1", "0", "-1"], "level": 1}, {"root": ["1", "0", "0", "-1"], "level": 2}, {"root": ["0", "0", "1", "-1"], "level": 0}]}'),
    (['split', '--type', 'A3', '--element', 'lambda=(2,-1,0,-1); word=s1 s2'],
     '{"type": "A3", "translation": ["1", "0", "0", "-1"], "translation_length": 2, "elliptic_length": 2, "elliptic_factors": [{"root": ["0", "1", "-1", "0"], "level": 0}, {"root": ["1", "0", "-1", "0"], "level": 1}]}'),
    (['factor', '--type', 'A3', '--element', 'lambda=(1,1,-1,-1); word=s2'],
     '{"type": "A3", "length": 3, "factors": [{"root": ["0", "1", "-1", "0"], "level": 1}, {"root": ["1", "0", "0", "-1"], "level": 1}, {"root": ["1", "0", "0", "-1"], "level": 0}]}'),
    (['split', '--type', 'A3', '--element', 'lambda=(1,1,-1,-1); word=s2'],
     '{"type": "A3", "translation": ["1", "0", "0", "-1"], "translation_length": 2, "elliptic_length": 1, "elliptic_factors": [{"root": ["0", "1", "-1", "0"], "level": 1}]}'),
    (['factor', '--type', 'B3', '--element', 'lambda=(2,1,-1); word=s3 s2'],
     '{"type": "B3", "length": 4, "factors": [{"root": ["0", "0", "1"], "level": -2}, {"root": ["0", "1", "-1"], "level": 1}, {"root": ["1", "-1", "0"], "level": 2}, {"root": ["1", "-1", "0"], "level": 0}]}'),
    (['split', '--type', 'B3', '--element', 'lambda=(2,1,-1); word=s3 s2'],
     '{"type": "B3", "translation": ["2", "0", "2"], "translation_length": 2, "elliptic_length": 2, "elliptic_factors": [{"root": ["0", "0", "1"], "level": -2}, {"root": ["0", "1", "-1"], "level": 1}]}'),
    (['factor', '--type', 'B3', '--element', 'lambda=(2,3,-1); word=s1'],
     '{"type": "B3", "length": 5, "factors": [{"root": ["0", "0", "1"], "level": -3}, {"root": ["0", "1", "-1"], "level": 5}, {"root": ["1", "0", "-1"], "level": 2}, {"root": ["0", "1", "-1"], "level": 0}, {"root": ["0", "0", "1"], "level": 0}]}'),
    (['split', '--type', 'B3', '--element', 'lambda=(2,3,-1); word=s1'],
     '{"type": "B3", "translation": ["5", "0", "-1"], "translation_length": 4, "elliptic_length": 1, "elliptic_factors": [{"root": ["1", "-1", "0"], "level": -3}]}'),
    (['factor', '--type', 'C3', '--element', 'lambda=(1,-2,0); word=s3 s1'],
     '{"type": "C3", "length": 4, "factors": [{"root": ["0", "0", "2"], "level": 1}, {"root": ["0", "1", "-1"], "level": -1}, {"root": ["1", "0", "-1"], "level": 1}, {"root": ["0", "1", "-1"], "level": 0}]}'),
    (['split', '--type', 'C3', '--element', 'lambda=(1,-2,0); word=s3 s1'],
     '{"type": "C3", "translation": ["-1", "0", "-1"], "translation_length": 2, "elliptic_length": 2, "elliptic_factors": [{"root": ["0", "0", "2"], "level": 1}, {"root": ["1", "-1", "0"], "level": 2}]}'),
    (['factor', '--type', 'C3', '--element', 'lambda=(3,1,-2); word=s2'],
     '{"type": "C3", "length": 5, "factors": [{"root": ["0", "0", "2"], "level": 2}, {"root": ["0", "1", "1"], "level": 1}, {"root": ["1", "-1", "0"], "level": 3}, {"root": ["1", "-1", "0"], "level": 0}, {"root": ["0", "0", "2"], "level": 0}]}'),
    (['split', '--type', 'C3', '--element', 'lambda=(3,1,-2); word=s2'],
     '{"type": "C3", "translation": ["3", "2", "-3"], "translation_length": 4, "elliptic_length": 1, "elliptic_factors": [{"root": ["0", "1", "-1"], "level": -1}]}'),
    (['factor', '--type', 'D4', '--element', 'lambda=(1,2,-1,0); word=s4 s2'],
     '{"type": "D4", "length": 4, "factors": [{"root": ["0", "0", "1", "1"], "level": -2}, {"root": ["0", "1", "-1", "0"], "level": 2}, {"root": ["1", "0", "0", "-1"], "level": 1}, {"root": ["1", "0", "0", "-1"], "level": 0}]}'),
    (['split', '--type', 'D4', '--element', 'lambda=(1,2,-1,0); word=s4 s2'],
     '{"type": "D4", "translation": ["1", "0", "1", "0"], "translation_length": 2, "elliptic_length": 2, "elliptic_factors": [{"root": ["0", "0", "1", "1"], "level": -2}, {"root": ["0", "1", "-1", "0"], "level": 2}]}'),
    (['factor', '--type', 'D4', '--element', 'lambda=(2,1,1,0); word=s1'],
     '{"type": "D4", "length": 5, "factors": [{"root": ["0", "1", "-1", "0"], "level": 1}, {"root": ["0", "1", "1", "0"], "level": 0}, {"root": ["1", "0", "-1", "0"], "level": 2}, {"root": ["1", "1", "0", "0"], "level": 0}, {"root": ["0", "1", "-1", "0"], "level": 0}]}'),
    (['split', '--type', 'D4', '--element', 'lambda=(2,1,1,0); word=s1'],
     '{"type": "D4", "translation": ["1", "2", "1", "0"], "translation_length": 4, "elliptic_length": 1, "elliptic_factors": [{"root": ["1", "-1", "0", "0"], "level": 1}]}'),
    (['factor', '--type', 'G2', '--element', 'lambda=(1,1,-2); word=s1'],
     '{"type": "G2", "length": 3, "factors": [{"root": ["0", "1", "-1"], "level": 2}, {"root": ["1", "0", "-1"], "level": 1}, {"root": ["0", "1", "-1"], "level": 0}]}'),
    (['split', '--type', 'G2', '--element', 'lambda=(1,1,-2); word=s1'],
     '{"type": "G2", "translation": ["2", "0", "-2"], "translation_length": 2, "elliptic_length": 1, "elliptic_factors": [{"root": ["1", "-1", "0"], "level": -1}]}'),
    (['factor', '--type', 'G2', '--element', 'lambda=(2,-1,-1); word=s2 s1 s2'],
     '{"type": "G2", "length": 3, "factors": [{"root": ["0", "1", "-1"], "level": -1}, {"root": ["1", "-1", "0"], "level": 2}, {"root": ["0", "1", "-1"], "level": 0}]}'),
    (['split', '--type', 'G2', '--element', 'lambda=(2,-1,-1); word=s2 s1 s2'],
     '{"type": "G2", "translation": ["1", "-1", "0"], "translation_length": 2, "elliptic_length": 1, "elliptic_factors": [{"root": ["1", "0", "-1"], "level": 1}]}'),
    (['factor', '--type', 'F4', '--element', 'lambda=(2,1,0,1); word=s3'],
     '{"type": "F4", "length": 5, "factors": [{"root": ["0", "0", "0", "1"], "level": -1}, {"root": ["0", "1", "0", "-1"], "level": 1}, {"root": ["1", "-1", "0", "0"], "level": 2}, {"root": ["1", "-1", "0", "0"], "level": 0}, {"root": ["0", "1", "0", "-1"], "level": 0}]}'),
    (['split', '--type', 'F4', '--element', 'lambda=(2,1,0,1); word=s3'],
     '{"type": "F4", "translation": ["2", "1", "0", "3"], "translation_length": 4, "elliptic_length": 1, "elliptic_factors": [{"root": ["0", "0", "0", "1"], "level": -1}]}'),
    (['factor', '--type', 'F4', '--element', 'lambda=(2,1,-1,0); word=s4 s2'],
     '{"type": "F4", "length": 4, "factors": [{"root": ["0", "0", "1", "-1"], "level": -2}, {"root": ["0", "1", "0", "1"], "level": 3}, {"root": ["1/2", "1/2", "-1/2", "1/2"], "level": 2}, {"root": ["0", "1", "0", "1"], "level": 0}]}'),
    (['split', '--type', 'F4', '--element', 'lambda=(2,1,-1,0); word=s4 s2'],
     '{"type": "F4", "translation": ["3", "0", "0", "-3"], "translation_length": 2, "elliptic_length": 2, "elliptic_factors": [{"root": ["0", "0", "1", "-1"], "level": -2}, {"root": ["1/2", "-1/2", "-1/2", "-1/2"], "level": -1}]}'),
    (['window', '--window', '[5,1,0]'],
     '{"n": 3, "lambda": [1, 0, -1], "permutation": [2, 1, 3], "cycles": [[1, 2], [3]], "relative_nullity": 1, "length": 3, "good_origin": ["-1/3", "2/3", "-1/3"], "translation_part": ["1", "0", "-1"]}'),
    (['window', '--window', '[6,-3,0,7]'],
     '{"n": 4, "lambda": [1, -1, -1, 1], "permutation": [2, 1, 4, 3], "cycles": [[1, 2], [3, 4]], "relative_nullity": 2, "length": 2, "good_origin": ["0", "1", "0", "-1"], "translation_part": ["0", "0", "0", "0"]}'),
    (['window', '--window', '[8,-1,0,12,-4]'],
     '{"n": 5, "lambda": [1, -1, -1, 2, -1], "permutation": [3, 4, 5, 2, 1], "cycles": [[1, 3, 5], [2, 4]], "relative_nullity": 1, "length": 5, "good_origin": ["0", "0", "1", "-1", "0"], "translation_part": ["-1", "1", "0", "0", "0"]}'),
    # n = 9, the largest window, with cycles of sizes 6, 2 and 1, recorded
    # when the origin came from a search over the elliptic factors
    (['window', '--window', '[-1,27,-11,13,21,5,-17,15,-7]'],
     '{"n": 9, "lambda": [-1, 2, -2, 1, 2, 0, -2, 1, -1], "permutation": [8, 9, 7, 4, 3, 5, 1, 6, 2], "cycles": [[1, 3, 5, 6, 7, 8], [2, 9], [4]], "relative_nullity": 1, "length": 10, "good_origin": ["-1", "-1", "3", "-1", "0", "0", "1", "-2", "1"], "translation_part": ["0", "1", "-1", "1", "0", "-1", "0", "0", "0"]}'),
    # V0, as printed before the clique search gave way to the direct
    # enumeration of null partitions; then a vector with zero entries and
    # one whose cliques are now listed by block count, recorded after it
    (['nullity', '--vector', '(-3,-2,-2,-1,1,2,5)'],
     '{"vector": [-3, -2, -2, -1, 1, 2, 5], "minimal_null_blocks": [[1, 2, 7], [1, 3, 7], [1, 5, 6], [2, 3, 4, 7], [2, 6], [3, 6], [4, 5]], "proper_basic_null_blocks": 12, "complex_vertices": 7, "complex_edges": 7, "maximal_cliques": [[[1, 5, 6], [2, 3, 4, 7]], [[1, 2, 7], [3, 6], [4, 5]], [[1, 3, 7], [2, 6], [4, 5]]], "nullity": 3}'),
    (['nullity', '--vector', '(1,0,-1,1,-1)'],
     '{"vector": [1, 0, -1, 1, -1], "minimal_null_blocks": [[1, 3], [1, 5], [2], [3, 4], [4, 5]], "proper_basic_null_blocks": 4, "complex_vertices": 5, "complex_edges": 6, "maximal_cliques": [[[1, 3], [2], [4, 5]], [[1, 5], [2], [3, 4]]], "nullity": 3}'),
    (['nullity', '--vector', '(2,3,-2,-1,1,4,-7)'],
     '{"vector": [2, 3, -2, -1, 1, 4, -7], "minimal_null_blocks": [[1, 3], [1, 5, 6, 7], [2, 3, 4], [2, 6, 7], [4, 5]], "proper_basic_null_blocks": 8, "complex_vertices": 5, "complex_edges": 4, "maximal_cliques": [[[1, 5, 6, 7], [2, 3, 4]], [[1, 3], [2, 6, 7], [4, 5]]], "nullity": 3}'),
    # 22 entries of one sign, the profile cap, recorded when each weight's
    # parts were first built only as the sweep reached it
    (['nullity', '--vector', '(' + '1,' * 22 + '-22)'],
     '{"vector": [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, -22], "minimal_null_blocks": [[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23]], "proper_basic_null_blocks": 0, "complex_vertices": 1, "complex_edges": 0, "maximal_cliques": [[[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23]]], "nullity": 1}'),
]


@pytest.mark.parametrize("argv,expected", FROZEN_OUTPUTS, ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_frozen_outputs(capsys, argv, expected):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    assert out == expected + "\n"


# The text twin of each FROZEN_OUTPUTS argv, then both --verify paths,
# genfun in both modes, oracle and the line render-svg prints for a file,
# recorded before the subcommands handed their text to main to print;
# {out} stands for a file in the test's directory.
FROZEN_TEXT_OUTPUTS = [
    (['factor', '--type', 'A3', '--element', 'lambda=(2,-1,0,-1); word=s1 s2'],
     'type A3: 4 reflections\n  root=(0, 0, 1, -1) level=1\n  root=(0, 1, 0, -1) level=1\n  root=(1, 0, 0, -1) level=2\n  root=(0, 0, 1, -1) level=0\n'),
    (['split', '--type', 'A3', '--element', 'lambda=(2,-1,0,-1); word=s1 s2'],
     'type A3\ntranslation part (1, 0, 0, -1) of length 2\nelliptic part of length 2, factors:\n  root=(0, 1, -1, 0) level=0\n  root=(1, 0, -1, 0) level=1\n'),
    (['factor', '--type', 'A3', '--element', 'lambda=(1,1,-1,-1); word=s2'],
     'type A3: 3 reflections\n  root=(0, 1, -1, 0) level=1\n  root=(1, 0, 0, -1) level=1\n  root=(1, 0, 0, -1) level=0\n'),
    (['split', '--type', 'A3', '--element', 'lambda=(1,1,-1,-1); word=s2'],
     'type A3\ntranslation part (1, 0, 0, -1) of length 2\nelliptic part of length 1, factors:\n  root=(0, 1, -1, 0) level=1\n'),
    (['factor', '--type', 'B3', '--element', 'lambda=(2,1,-1); word=s3 s2'],
     'type B3: 4 reflections\n  root=(0, 0, 1) level=-2\n  root=(0, 1, -1) level=1\n  root=(1, -1, 0) level=2\n  root=(1, -1, 0) level=0\n'),
    (['split', '--type', 'B3', '--element', 'lambda=(2,1,-1); word=s3 s2'],
     'type B3\ntranslation part (2, 0, 2) of length 2\nelliptic part of length 2, factors:\n  root=(0, 0, 1) level=-2\n  root=(0, 1, -1) level=1\n'),
    (['factor', '--type', 'B3', '--element', 'lambda=(2,3,-1); word=s1'],
     'type B3: 5 reflections\n  root=(0, 0, 1) level=-3\n  root=(0, 1, -1) level=5\n  root=(1, 0, -1) level=2\n  root=(0, 1, -1) level=0\n  root=(0, 0, 1) level=0\n'),
    (['split', '--type', 'B3', '--element', 'lambda=(2,3,-1); word=s1'],
     'type B3\ntranslation part (5, 0, -1) of length 4\nelliptic part of length 1, factors:\n  root=(1, -1, 0) level=-3\n'),
    (['factor', '--type', 'C3', '--element', 'lambda=(1,-2,0); word=s3 s1'],
     'type C3: 4 reflections\n  root=(0, 0, 2) level=1\n  root=(0, 1, -1) level=-1\n  root=(1, 0, -1) level=1\n  root=(0, 1, -1) level=0\n'),
    (['split', '--type', 'C3', '--element', 'lambda=(1,-2,0); word=s3 s1'],
     'type C3\ntranslation part (-1, 0, -1) of length 2\nelliptic part of length 2, factors:\n  root=(0, 0, 2) level=1\n  root=(1, -1, 0) level=2\n'),
    (['factor', '--type', 'C3', '--element', 'lambda=(3,1,-2); word=s2'],
     'type C3: 5 reflections\n  root=(0, 0, 2) level=2\n  root=(0, 1, 1) level=1\n  root=(1, -1, 0) level=3\n  root=(1, -1, 0) level=0\n  root=(0, 0, 2) level=0\n'),
    (['split', '--type', 'C3', '--element', 'lambda=(3,1,-2); word=s2'],
     'type C3\ntranslation part (3, 2, -3) of length 4\nelliptic part of length 1, factors:\n  root=(0, 1, -1) level=-1\n'),
    (['factor', '--type', 'D4', '--element', 'lambda=(1,2,-1,0); word=s4 s2'],
     'type D4: 4 reflections\n  root=(0, 0, 1, 1) level=-2\n  root=(0, 1, -1, 0) level=2\n  root=(1, 0, 0, -1) level=1\n  root=(1, 0, 0, -1) level=0\n'),
    (['split', '--type', 'D4', '--element', 'lambda=(1,2,-1,0); word=s4 s2'],
     'type D4\ntranslation part (1, 0, 1, 0) of length 2\nelliptic part of length 2, factors:\n  root=(0, 0, 1, 1) level=-2\n  root=(0, 1, -1, 0) level=2\n'),
    (['factor', '--type', 'D4', '--element', 'lambda=(2,1,1,0); word=s1'],
     'type D4: 5 reflections\n  root=(0, 1, -1, 0) level=1\n  root=(0, 1, 1, 0) level=0\n  root=(1, 0, -1, 0) level=2\n  root=(1, 1, 0, 0) level=0\n  root=(0, 1, -1, 0) level=0\n'),
    (['split', '--type', 'D4', '--element', 'lambda=(2,1,1,0); word=s1'],
     'type D4\ntranslation part (1, 2, 1, 0) of length 4\nelliptic part of length 1, factors:\n  root=(1, -1, 0, 0) level=1\n'),
    (['factor', '--type', 'G2', '--element', 'lambda=(1,1,-2); word=s1'],
     'type G2: 3 reflections\n  root=(0, 1, -1) level=2\n  root=(1, 0, -1) level=1\n  root=(0, 1, -1) level=0\n'),
    (['split', '--type', 'G2', '--element', 'lambda=(1,1,-2); word=s1'],
     'type G2\ntranslation part (2, 0, -2) of length 2\nelliptic part of length 1, factors:\n  root=(1, -1, 0) level=-1\n'),
    (['factor', '--type', 'G2', '--element', 'lambda=(2,-1,-1); word=s2 s1 s2'],
     'type G2: 3 reflections\n  root=(0, 1, -1) level=-1\n  root=(1, -1, 0) level=2\n  root=(0, 1, -1) level=0\n'),
    (['split', '--type', 'G2', '--element', 'lambda=(2,-1,-1); word=s2 s1 s2'],
     'type G2\ntranslation part (1, -1, 0) of length 2\nelliptic part of length 1, factors:\n  root=(1, 0, -1) level=1\n'),
    (['factor', '--type', 'F4', '--element', 'lambda=(2,1,0,1); word=s3'],
     'type F4: 5 reflections\n  root=(0, 0, 0, 1) level=-1\n  root=(0, 1, 0, -1) level=1\n  root=(1, -1, 0, 0) level=2\n  root=(1, -1, 0, 0) level=0\n  root=(0, 1, 0, -1) level=0\n'),
    (['split', '--type', 'F4', '--element', 'lambda=(2,1,0,1); word=s3'],
     'type F4\ntranslation part (2, 1, 0, 3) of length 4\nelliptic part of length 1, factors:\n  root=(0, 0, 0, 1) level=-1\n'),
    (['factor', '--type', 'F4', '--element', 'lambda=(2,1,-1,0); word=s4 s2'],
     'type F4: 4 reflections\n  root=(0, 0, 1, -1) level=-2\n  root=(0, 1, 0, 1) level=3\n  root=(1/2, 1/2, -1/2, 1/2) level=2\n  root=(0, 1, 0, 1) level=0\n'),
    (['split', '--type', 'F4', '--element', 'lambda=(2,1,-1,0); word=s4 s2'],
     'type F4\ntranslation part (3, 0, 0, -3) of length 2\nelliptic part of length 2, factors:\n  root=(0, 0, 1, -1) level=-2\n  root=(1/2, -1/2, -1/2, -1/2) level=-1\n'),
    (['window', '--window', '[5,1,0]'],
     'n = 3\nnormal form: lambda = (1, 0, -1), permutation = (2, 1, 3)\ncycles: [[1, 2], [3]]\nrelative nullity = 1\nreflection length = 3\ngood origin = (-1/3, 2/3, -1/3)\ntranslation part = (1, 0, -1)\n'),
    (['window', '--window', '[6,-3,0,7]'],
     'n = 4\nnormal form: lambda = (1, -1, -1, 1), permutation = (2, 1, 4, 3)\ncycles: [[1, 2], [3, 4]]\nrelative nullity = 2\nreflection length = 2\ngood origin = (0, 1, 0, -1)\ntranslation part = (0, 0, 0, 0)\n'),
    (['window', '--window', '[8,-1,0,12,-4]'],
     'n = 5\nnormal form: lambda = (1, -1, -1, 2, -1), permutation = (3, 4, 5, 2, 1)\ncycles: [[1, 3, 5], [2, 4]]\nrelative nullity = 1\nreflection length = 5\ngood origin = (0, 0, 1, -1, 0)\ntranslation part = (-1, 1, 0, 0, 0)\n'),
    (['window', '--window', '[-1,27,-11,13,21,5,-17,15,-7]'],
     'n = 9\nnormal form: lambda = (-1, 2, -2, 1, 2, 0, -2, 1, -1), permutation = (8, 9, 7, 4, 3, 5, 1, 6, 2)\ncycles: [[1, 3, 5, 6, 7, 8], [2, 9], [4]]\nrelative nullity = 1\nreflection length = 10\ngood origin = (-1, -1, 3, -1, 0, 0, 1, -2, 1)\ntranslation part = (0, 1, -1, 1, 0, -1, 0, 0, 0)\n'),
    (['nullity', '--vector', '(-3,-2,-2,-1,1,2,5)'],
     'vector (-3, -2, -2, -1, 1, 2, 5)\nminimal null blocks (7): {1,2,7} {1,3,7} {1,5,6} {2,3,4,7} {2,6} {3,6} {4,5}\nproper basic null blocks: 12\ndisjointness complex: 7 vertices, 7 edges\nmaximal cliques: [[[1, 5, 6], [2, 3, 4, 7]], [[1, 2, 7], [3, 6], [4, 5]], [[1, 3, 7], [2, 6], [4, 5]]]\nnullity = 3\n'),
    (['nullity', '--vector', '(1,0,-1,1,-1)'],
     'vector (1, 0, -1, 1, -1)\nminimal null blocks (5): {1,3} {1,5} {2} {3,4} {4,5}\nproper basic null blocks: 4\ndisjointness complex: 5 vertices, 6 edges\nmaximal cliques: [[[1, 3], [2], [4, 5]], [[1, 5], [2], [3, 4]]]\nnullity = 3\n'),
    (['nullity', '--vector', '(2,3,-2,-1,1,4,-7)'],
     'vector (2, 3, -2, -1, 1, 4, -7)\nminimal null blocks (5): {1,3} {1,5,6,7} {2,3,4} {2,6,7} {4,5}\nproper basic null blocks: 8\ndisjointness complex: 5 vertices, 4 edges\nmaximal cliques: [[[1, 5, 6, 7], [2, 3, 4]], [[1, 3], [2, 6, 7], [4, 5]]]\nnullity = 3\n'),
    (['nullity', '--vector', '(' + '1,' * 22 + '-22)'],
     'vector (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, -22)\nminimal null blocks (1): {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23}\nproper basic null blocks: 0\ndisjointness complex: 1 vertices, 0 edges\nmaximal cliques: [[[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23]]]\nnullity = 1\n'),
    (['len', '--type', 'B2', '--element', 'lambda=(2,4)', '--verify'],
     'type B2\ne = 0  d = 2  dim = 2\nreflection length = 4\nwitness roots: (0, 1), (1, -1)\noracle: 4 (certified, agrees)\noracle certificate: stable (same length at the next level bound, a heuristic)\n'),
    (['nullity', '--vector', '(-3,-2,-2,-1,1,2,5)', '--verify'],
     'vector (-3, -2, -2, -1, 1, 2, 5)\nminimal null blocks (7): {1,2,7} {1,3,7} {1,5,6} {2,3,4,7} {2,6} {3,6} {4,5}\nproper basic null blocks: 12\ndisjointness complex: 7 vertices, 7 edges\nmaximal cliques: [[[1, 5, 6], [2, 3, 4, 7]], [[1, 2, 7], [3, 6], [4, 5]], [[1, 3, 7], [2, 6], [4, 5]]]\nnullity = 3\noracle nullity = 3 (agrees)\n'),
    (['genfun', '--type', 'A3', '--classify', '1'],
     'type A3, radius 1: 5 classes\n  [  12 points] t + 5*t^2 + 6*t^3 + s + 5*s*t + 6*s*t^2\n  [   8 points] 2*t^2 + 6*t^3 + 3*s*t + 9*s*t^2 + s^2 + 3*s^2*t\n  [   4 points] 2*t^2 + 6*t^3 + 4*s*t + 9*s*t^2 + s^2 + 2*s^2*t\n  [   2 points] t^2 + 6*t^3 + 2*s*t + 10*s*t^2 + s^2 + 4*s^2*t\n  [   1 points] 1 + 6*t + 11*t^2 + 6*t^3\n'),
    (['genfun', '--type', 'B2', '--lambda', '(3,1)'],
     'f_lambda(s,t) = 3*t^2 + 4*s*t + s^2\nf_lambda(t^2,t) coefficients: [0, 0, 3, 4, 1]\n'),
    (['oracle', '--type', 'B2', '--element', 'lambda=(2,4)'],
     'oracle length = 4 (certified, levels up to 5, depth up to 4)\ncertificate: stable (same length at the next level bound, a heuristic)\n'),
    (['render-svg', '--type', 'B2', '--mode', 'classes', '--radius', '1', '--out', '{out}'],
     'wrote {out}\n'),
]


@pytest.mark.parametrize("argv,expected", FROZEN_TEXT_OUTPUTS, ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_frozen_text_outputs(tmp_path, capsys, argv, expected):
    out_path = str(tmp_path / "out.svg")
    code, out, err = run(capsys, *(a.replace("{out}", out_path) for a in argv))
    assert (code, err) == (0, "")
    assert out == expected.replace("{out}", out_path)


# Every option of every subcommand, as (option strings, dest, required,
# default, type, choices, action class), recorded before the shared
# options were declared once; the order within a subcommand is free.
OPTION_TABLE = {
    'coxlen': [
        (('-h', '--help'), 'help', False, '==SUPPRESS==', None, None, '_HelpAction'),
        ((), 'command', True, None, None, ('len', 'factor', 'split', 'window', 'nullity', 'genfun', 'render-svg', 'oracle'), '_SubParsersAction'),
    ],
    'len': [
        (('-h', '--help'), 'help', False, '==SUPPRESS==', None, None, '_HelpAction'),
        (('--type',), 'type', True, None, None, None, '_StoreAction'),
        (('--element',), 'element', True, None, None, None, '_StoreAction'),
        (('--json',), 'json', False, False, None, None, '_StoreTrueAction'),
        (('--verify',), 'verify', False, False, None, None, '_StoreTrueAction'),
    ],
    'factor': [
        (('-h', '--help'), 'help', False, '==SUPPRESS==', None, None, '_HelpAction'),
        (('--type',), 'type', True, None, None, None, '_StoreAction'),
        (('--element',), 'element', True, None, None, None, '_StoreAction'),
        (('--json',), 'json', False, False, None, None, '_StoreTrueAction'),
    ],
    'split': [
        (('-h', '--help'), 'help', False, '==SUPPRESS==', None, None, '_HelpAction'),
        (('--type',), 'type', True, None, None, None, '_StoreAction'),
        (('--element',), 'element', True, None, None, None, '_StoreAction'),
        (('--json',), 'json', False, False, None, None, '_StoreTrueAction'),
        (('--budget',), 'budget', False, None, 'int', None, '_StoreAction'),
    ],
    'window': [
        (('-h', '--help'), 'help', False, '==SUPPRESS==', None, None, '_HelpAction'),
        (('--window',), 'window', True, None, None, None, '_StoreAction'),
        (('--budget',), 'budget', False, None, 'int', None, '_StoreAction'),
        (('--json',), 'json', False, False, None, None, '_StoreTrueAction'),
    ],
    'nullity': [
        (('-h', '--help'), 'help', False, '==SUPPRESS==', None, None, '_HelpAction'),
        (('--vector',), 'vector', True, None, None, None, '_StoreAction'),
        (('--verify',), 'verify', False, False, None, None, '_StoreTrueAction'),
        (('--json',), 'json', False, False, None, None, '_StoreTrueAction'),
    ],
    'genfun': [
        (('-h', '--help'), 'help', False, '==SUPPRESS==', None, None, '_HelpAction'),
        (('--type',), 'type', True, None, None, None, '_StoreAction'),
        (('--lambda',), 'lam', False, None, None, None, '_StoreAction'),
        (('--classify',), 'classify', False, None, 'int', None, '_StoreAction'),
        (('--json',), 'json', False, False, None, None, '_StoreTrueAction'),
    ],
    'render-svg': [
        (('-h', '--help'), 'help', False, '==SUPPRESS==', None, None, '_HelpAction'),
        (('--type',), 'type', True, None, None, None, '_StoreAction'),
        (('--mode',), 'mode', False, 'alcoves', None, ['alcoves', 'classes'], '_StoreAction'),
        (('--radius',), 'radius', False, 3.0, 'float', None, '_StoreAction'),
        (('--out',), 'out', True, None, None, None, '_StoreAction'),
    ],
    'oracle': [
        (('-h', '--help'), 'help', False, '==SUPPRESS==', None, None, '_HelpAction'),
        (('--type',), 'type', True, None, None, None, '_StoreAction'),
        (('--element',), 'element', True, None, None, None, '_StoreAction'),
        (('--json',), 'json', False, False, None, None, '_StoreTrueAction'),
        (('--level-bound',), 'level_bound', False, None, 'int', None, '_StoreAction'),
        (('--depth-bound',), 'depth_bound', False, None, 'int', None, '_StoreAction'),
    ],
}


def _option_rows(parser):
    return {
        a.dest: (tuple(a.option_strings), a.dest, a.required, a.default,
                 getattr(a.type, "__name__", a.type),
                 tuple(a.choices) if isinstance(a.choices, dict) else a.choices,
                 type(a).__name__)
        for a in parser._actions
    }


def test_subcommand_options_are_frozen():
    parser = coxlen.cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsers = {"coxlen": parser, **subparsers.choices}
    assert list(parsers) == list(OPTION_TABLE)
    for name, rows in OPTION_TABLE.items():
        assert _option_rows(parsers[name]) == {row[1]: row for row in rows}, name


@pytest.mark.parametrize("argv", [
    ["len", "--type", "B2", "--element", "lambda=(2,4)", "--verify"],
    ["nullity", "--vector", "(-3,-2,-2,-1,1,2,5)", "--verify"],
], ids=["len", "nullity"])
def test_oracle_disagreement_exits_1(capsys, monkeypatch, argv):
    pair_lengths = coxlen.cli._pair_lengths
    monkeypatch.setattr(coxlen.cli, "_pair_lengths", lambda *args: [
        dataclasses.replace(r, length=r.length + 1) for r in pair_lengths(*args)
    ])
    monkeypatch.setattr(coxlen.cli, "brute_nullity", lambda v: -1)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert "DISAGREES" in out
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (1, "")
    assert '"oracle_agrees": false' in out


@pytest.mark.parametrize("spec", ["D2", "A3"])
def test_failed_render_leaves_out_untouched(tmp_path, capsys, spec):
    old, new = tmp_path / "old.svg", tmp_path / "new.svg"
    old.write_text("<svg>old</svg>\n")
    for target in (old, new):
        code, out, err = run(capsys, "render-svg", "--type", spec, "--out", str(target))
        assert (code, out) == (3, "")
        assert err == f"error: SVG rendering supports irreducible rank-2 types, got {spec}\n"
    assert old.read_text() == "<svg>old</svg>\n"
    assert not new.exists()


def console_script_wrapper(entry_point):
    """The launcher pip writes for a ``[project.scripts]`` entry."""
    module, attr = entry_point.split(":")
    return (
        f"#!{sys.executable}\n"
        "# -*- coding: utf-8 -*-\n"
        "import re\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({attr}())\n"
    )


def test_entry_point_subprocess(tmp_path):
    # Both subprocesses run the coxlen package under test, whatever is
    # installed and whichever directory the suite was started from.
    src = str(Path(coxlen.__file__).resolve().parents[1])
    bin_dir = tmp_path / "bin"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )
    env["PATH"] = os.pathsep.join(
        filter(None, [str(bin_dir), os.environ.get("PATH")])
    )
    out = subprocess.run(
        [sys.executable, "-m", "coxlen.cli", "len", "--type", "B2",
         "--element", "lambda=(1,1)", "--json"],
        capture_output=True, text=True, check=True, env=env,
    )
    assert json.loads(out.stdout)["length"] == 2

    # The console script is built from pyproject.toml the way an install
    # would build it, so the check needs no installed distribution.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["coxlen"] == "coxlen.cli:main"
    bin_dir.mkdir()
    launcher = bin_dir / "coxlen"
    launcher.write_text(console_script_wrapper(scripts["coxlen"]))
    launcher.chmod(0o755)

    script = subprocess.run(
        ["coxlen", "len", "--type", "B2", "--element", "lambda=(1,1)", "--json"],
        capture_output=True, text=True, env=env,
    )
    assert script.returncode == 0, script.stderr
    assert json.loads(script.stdout)["length"] == 2


# Consecutive in-process calls; an option given in one call (--budget 0,
# --json, --verify) must not reach the next.
IN_PROCESS_SEQUENCE = [
    ["split", "--type", "B2", "--element", "lambda=(1,1)", "--budget", "0", "--json"],
    ["split", "--type", "B2", "--element", "lambda=(1,1)", "--json"],
    ["len", "--type", "A2", "--element", "lambda=(1,-1,0); word=s1", "--verify", "--json"],
    ["len", "--type", "A2", "--element", "lambda=(1,-1,0); word=s1"],
    ["genfun", "--type", "B2", "--lambda", "(3,1)", "--json"],
    ["nullity", "--vector", "(-3,-2,-2,-1,1,2,5)"],
    ["window", "--window", "[4,2,0]", "--json"],
    ["split", "--type", "B2", "--element", "lambda=(1,1)"],
]


def test_main_reuses_one_parser_across_calls(capsys, monkeypatch):
    monkeypatch.delenv("COXLEN_BUDGET", raising=False)
    built = []
    original = coxlen.cli.build_parser
    monkeypatch.setattr(coxlen.cli, "build_parser", lambda: built.append(1) or original())
    coxlen.cli._parser.cache_clear()
    try:
        in_process = [run(capsys, *argv) for argv in IN_PROCESS_SEQUENCE]
    finally:
        coxlen.cli._parser.cache_clear()
    assert len(built) == 1

    src = str(Path(coxlen.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "COXLEN_BUDGET"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv, got in zip(IN_PROCESS_SEQUENCE, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "coxlen.cli", *argv], capture_output=True, text=True, env=env
        )
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert in_process[0][0] == 4
    assert [code for code, _, _ in in_process[1:]] == [0] * (len(IN_PROCESS_SEQUENCE) - 1)


def dispatched(route, argv):
    """(exit code, stdout, stderr) of route(argv), argparse's exits
    included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = route(list(argv))
        except SystemExit as ex:
            code = ex.code
    return code, out.getvalue(), err.getvalue()


SUBCOMMANDS = ["len", "factor", "split", "window", "nullity", "genfun", "render-svg", "oracle"]
ELEMENT = ["--type", "B2", "--element", "lambda=(1,1); word=s1"]
DISPATCH_TABLE = [
    [],
    ["frob"],
    ["-h"],
    ["--help"],
    ["-h", "len"],
    ["--json", "len", *ELEMENT],
    *([sub, flag] for sub in SUBCOMMANDS for flag in ("-h", "--help")),
    *([sub, *ELEMENT] for sub in ("len", "factor", "split", "oracle")),
    ["len", *ELEMENT, "--verify", "--json"],
    ["split", *ELEMENT, "--budget", "0"],
    ["window", "--window", "[4,2,0]", "--json"],
    ["nullity", "--vector", "(-3,-2,-2,-1,1,2,5)"],
    ["genfun", "--type", "B2", "--lambda", "(3,1)"],
    ["genfun", "--type", "A2", "--classify", "1", "--json"],
    ["render-svg", "--type", "B2", "--mode", "classes", "--radius", "1", "--out", "-"],
    *([sub] for sub in SUBCOMMANDS),
    ["len", "--type", "A2"],
    ["len", "--typ", "A2", "--element", "lambda=(1,-1,0)"],
    ["len", "--json", "--type", "A2", "--element", "lambda=(1,-1,0)"],
    ["len", "--type", "A2", "--element", "-1"],
    ["len", "--type", "A2", "--element", "-lambda=(1,-1,0)"],
    ["len", "--type", "A2", "--element=-lambda=(1,-1,0)"],
    ["len", "--type", "A2", "--element", "lambda=(1,0,0)"],
    ["len", "--type", "A2", "--element", "lambda=(1,-1,0)", "--foo", "bar"],
    ["len", "--type", "A2", "--element", "lambda=(1,-1,0)", "extra"],
    ["len", "--", "--type", "A2"],
    ["len", "--type", "Z9", "--element", "lambda=(1)"],
    ["factor", "--type", "B2"],
    ["split", *ELEMENT, "--budget", "x"],
    ["split", *ELEMENT, "--budget", "-1"],
    ["window", "--window", "[1,1]"],
    ["nullity", "--vector", "(1/2,-1/2)"],
    ["genfun", "--type", "B2", "--lambda", "(3,1)", "--classify", "1"],
    ["render-svg", "--type", "B2", "--mode", "rings", "--out", "-"],
    ["render-svg", "--type", "B2", "--radius", "nan", "--out", "-"],
    ["oracle", *ELEMENT, "--level-bound", "-2"],
]


@pytest.mark.parametrize("argv", DISPATCH_TABLE, ids=lambda argv: " ".join(argv) or "(empty)")
def test_main_dispatches_as_the_two_level_parse(monkeypatch, argv):
    # main hands argv[1:] to the subcommand's parser alone; the two-level
    # parse walks argv with the top-level parser first
    monkeypatch.delenv("COXLEN_BUDGET", raising=False)
    assert dispatched(main, argv) == dispatched(reference_cli.main, argv)


DISPATCH_WORDS = [
    *SUBCOMMANDS, "frob", "-h", "--help", "--", "--type", "--typ", "-t", "A2", "B2", "Z9",
    "--element", "--element=-1", "lambda=(1,1)", "lambda=(1,-1,0)", "word=s1", "-1",
    "--json", "--verify", "--budget", "0", "x", "--vector", "(1,-1)", "--window", "[2,0]",
    "--lambda", "(3,1)", "--classify", "1", "--mode", "classes", "--radius", "--level-bound",
    "--foo",
]


@given(st.one_of(
    st.lists(st.sampled_from(DISPATCH_WORDS), max_size=8),
    st.tuples(st.sampled_from(SUBCOMMANDS), st.lists(st.sampled_from(DISPATCH_WORDS), max_size=7)).map(
        lambda sub_rest: [sub_rest[0], *sub_rest[1]]
    ),
))
@settings(max_examples=200, deadline=None)
def test_main_dispatches_token_lists_as_the_two_level_parse(argv):
    # half the lists start with a subcommand; no --out among the words,
    # so nothing is written to a file
    assert dispatched(main, argv) == dispatched(reference_cli.main, argv)


@pytest.mark.parametrize("argv, text", [
    (["nullity", "--vector", "(1,,-1)"], "vector '(1,,-1)'"),
    (["window", "--window", "[4,,2,0,]"], "window '[4,,2,0,]'"),
    (["len", "--type", "B2", "--element", "lambda=(1,,1)"], "vector '(1,,1)'"),
    (["genfun", "--type", "B2", "--lambda", "(,3,1,)"], "vector '(,3,1,)'"),
], ids=["nullity", "window", "len", "genfun"])
def test_empty_entry_exits_2_naming_the_text(capsys, argv, text):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: empty entry in {text}\n"


def test_genfun_lattice_error_prints_the_vector(capsys):
    code, _, err = run(capsys, "genfun", "--type", "F4", "--lambda", "(5,3,2,1)")
    assert code == 2
    assert err == "error: (5, 3, 2, 1) is not in the coroot lattice of F4\n"
    code, _, err = run(capsys, "genfun", "--type", "B2", "--lambda", "(1/2,0)", "--json")
    assert code == 2
    assert err == "error: (1/2, 0) is not in the coroot lattice of B2\n"


# sha256 of the stdout of scripts/make_tables.py, recorded before the move
# spaces of reflen and genfun became integer: every table is certified,
# so the bytes must not change.
MAKE_TABLES_SHA256 = "f431ed85623bfac4bf9bfbd2501808f52a797e8438a42f3782011fa1764538fa"


def test_make_tables_output_is_frozen():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(coxlen.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "make_tables.py")],
        capture_output=True, check=True, env=env,
    )
    assert hashlib.sha256(out.stdout).hexdigest() == MAKE_TABLES_SHA256


@pytest.mark.parametrize("mode", ["alcoves", "classes"])
@pytest.mark.parametrize("radius", ["inf", "-inf", "nan"])
def test_non_finite_radius_is_bad_input(capsys, mode, radius):
    code, out, err = run(capsys, "render-svg", "--type", "A2", "--mode", mode,
                         f"--radius={radius}", "--out", "-")
    assert (code, out) == (2, "")
    assert err == f"error: radius must be a finite number, got {float(radius)}\n"


@pytest.mark.parametrize("argv", [
    ["genfun", "--type", "B3", "--classify"],
    ["oracle", "--type", "B2", "--element", "lambda=(1,1); word=s1", "--level-bound"],
    ["oracle", "--type", "B2", "--element", "lambda=(1,1); word=s1", "--depth-bound"],
], ids=lambda argv: argv[-1])
def test_negative_bound_is_bad_input(capsys, argv):
    code, out, err = run(capsys, *argv, "-1")
    assert (code, out) == (2, "")
    assert err == f"error: {argv[-1]} must be non-negative, got -1\n"
    code, _, err = run(capsys, *argv, "0")
    assert (code, err) == (0, "")


NEGATIVE_BOUND_FLAGS = ("--budget", "--classify", "--level-bound", "--depth-bound")


def _negative_int(text: str) -> bool:
    """text is an integer below zero, as argparse's type=int reads it."""
    try:
        return int(text) < 0
    except ValueError:
        return False


# Malformed and random CLI input, small enough that every example is
# fast: valid types have rank <= 3 (random text carries no digit above 3),
# --classify <= 1, oracle bounds <= 2 and radii below 2.  Half of the
# elements, lambdas and windows are well formed, so the commands also
# run to the end.
JUNK = st.text(alphabet=st.characters(blacklist_characters="456789"), max_size=6)
INTS = st.integers(-6, 6).map(str)
VALID_TYPES = st.sampled_from(["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D2", "D3", "G2"])
TYPE_TEXT = st.one_of(
    VALID_TYPES,
    VALID_TYPES,
    st.sampled_from(["", "A0", "B1", "G3", "E6", "A10", "a2", " B2 ", "A 2x", "22"]),
    JUNK,
)


def _listed(items, left, right):
    return st.lists(items, max_size=5).map(lambda xs: left + ",".join(xs) + right)


VECTOR_TEXT = st.one_of(
    _listed(st.one_of(INTS, st.sampled_from(["1/2", "-2/3", "1/0", "x", " "])), "(", ")"),
    JUNK,
)
WORD_TEXT = st.lists(st.integers(0, 4).map(lambda i: f"s{i}"), max_size=4).map(" ".join)
ELEMENT_TEXT = st.one_of(
    st.tuples(VECTOR_TEXT, WORD_TEXT).map(lambda p: f"lambda={p[0]}; word={p[1]}"),
    WORD_TEXT.map(lambda w: f"word={w}"),
    st.lists(st.tuples(st.integers(-1, 8), st.integers(-3, 3)), max_size=4).map(
        lambda fs: " ".join(f"refl({i},{j})" for i, j in fs)
    ),
    st.sampled_from(["refl(1)", "refl(a,b)", "word=t1", "foo=1", ";", "lambda=", "refl"]),
    JUNK,
)
NON_FINITE = st.sampled_from(["inf", "-inf", "nan", "Infinity"])
RADIUS_TEXT = st.one_of(NON_FINITE, st.floats(-1, 1.9).map(repr), st.sampled_from(["1/2", "x", ""]))
BUDGET_TEXT = st.one_of(st.integers(-2, 10**6).map(str), st.sampled_from(["x", "1.5", ""]))
BOUND_TEXT = st.one_of(st.integers(-2, 2).map(str), st.sampled_from(["x", "1.5"]))


@st.composite
def lattice_vector_text(draw, type_text):
    """A coroot-lattice point of type_text when it names a root system,
    else (or at random) a malformed vector."""
    try:
        rs = root_system(type_text)
    except (ParseError, UnsupportedTypeError):
        rs = None
    if rs is None or draw(st.booleans()):
        return draw(VECTOR_TEXT)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=rs.rank, max_size=rs.rank))
    return "(" + ",".join(map(str, rs.from_lattice_coords(coeffs))) + ")"


@st.composite
def window_text(draw):
    """A window of an affine permutation of size 2-4, or malformed text."""
    if draw(st.booleans()):
        return draw(st.one_of(_listed(INTS, "[", "]"), JUNK))
    n = draw(st.integers(2, 4))
    pi = draw(st.permutations(range(1, n + 1)))
    lam = draw(st.lists(st.integers(-1, 1), min_size=n - 1, max_size=n - 1))
    lam.append(-sum(lam))
    return "[" + ",".join(str(p + n * k) for p, k in zip(pi, lam)) + "]"


@st.composite
def cli_argv(draw, command):
    """command with random or malformed option values; a required option
    is sometimes left out."""
    if command == "render-svg":
        type_text = draw(st.one_of(st.sampled_from(["A2", "B2", "C2", "G2"]), TYPE_TEXT))
    else:
        type_text = draw(TYPE_TEXT)
    lam = lattice_vector_text(type_text)
    element = st.one_of(
        st.tuples(lam, st.lists(st.sampled_from(["s1", "s2", "s3"]), max_size=4)).map(
            lambda p: f"lambda={p[0]}; word={' '.join(p[1])}"
        ),
        ELEMENT_TEXT,
    )
    options = {
        "len": [("--element", element)],
        "factor": [("--element", element)],
        "split": [("--element", element), ("--budget", BUDGET_TEXT)],
        "window": [("--window", window_text()), ("--budget", BUDGET_TEXT)],
        "nullity": [("--vector", VECTOR_TEXT)],
        "genfun": [("--lambda", lam), ("--classify", st.one_of(st.integers(-2, 1).map(str), JUNK))],
        "render-svg": [("--mode", st.sampled_from(["alcoves", "classes", "x"])),
                       ("--radius", RADIUS_TEXT), ("--out", st.just("-"))],
        "oracle": [("--element", element), ("--level-bound", BOUND_TEXT), ("--depth-bound", BOUND_TEXT)],
    }[command]
    if command not in ("window", "nullity"):
        options = [("--type", st.just(type_text))] + options
    argv = [command]
    for flag, values in options:
        # the default radius and oracle bounds may run long, so these are
        # always given
        if flag in ("--radius", "--level-bound", "--depth-bound") or draw(st.integers(0, 9)) < 9:
            argv.append(f"{flag}={draw(values)}")
    if command == "nullity" and draw(st.booleans()):
        argv.append("--verify")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@pytest.mark.parametrize(
    "command", ["len", "factor", "split", "window", "nullity", "genfun", "render-svg", "oracle"]
)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_main_never_crashes_on_random_input(command, data):
    argv = data.draw(cli_argv(command))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as ex:
            assert ex.code == 2, argv
            return
    assert code in (0, 2, 3, 4), argv
    if any(
        flag in NEGATIVE_BOUND_FLAGS and _negative_int(value)
        for flag, _, value in (arg.partition("=") for arg in argv)
    ):
        assert code == 2, argv
