"""Tests of the benchmark itself: its independent checks agree with coxlen
where coxlen is right, traced runs repeat their work counts exactly, and
it refuses to run without the source tree.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import exact  # noqa: E402
import workloads  # noqa: E402
from coxlen.affsym import Window, reflection_length  # noqa: E402
from coxlen.cli import parse_element  # noqa: E402
from coxlen.genfun import exponent_product, is_generic, local_genfun, poly_one_plus  # noqa: E402
from coxlen.oracle import brute_nullity  # noqa: E402
from coxlen.reflen import dimension_report  # noqa: E402
from coxlen.rootsys import root_system  # noqa: E402


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "C3", "D3", "D4", "G2", "B4", "F4"])
def test_is_generic_matches_coxlen(name):
    rs = root_system(name)
    rng = random.Random(name)
    for _ in range(40):
        lam = workloads._lam_from_coeffs(rs, [rng.randint(-4, 4) for _ in range(rs.rank)])
        if any(lam):
            assert exact.is_generic(rs.spec.family, rs.positive_roots, rs.rank, lam) == is_generic(rs, lam)


@pytest.mark.parametrize("name", ["A3", "B4", "D4", "G2", "F4"])
def test_elliptic_dimension_and_action_match_coxlen(name):
    rs = root_system(name)
    rng = random.Random(name)
    for _ in range(20):
        el = workloads.Element(name, workloads._lam_from_coeffs(rs, [rng.randint(-3, 3) for _ in range(rs.rank)]),
                               tuple(rng.randrange(rs.rank) for _ in range(rng.randint(0, 2 * rs.rank))))
        w = parse_element(rs, el.text)
        assert exact.elliptic_dimension(rs.simple_roots, rs.roots, el.word) == dimension_report(rs, w).e
        assert el.same_map(w.apply)


def test_type_a_window_length_matches_dimension_report():
    rs = root_system("A3")
    rng = random.Random(1)
    for _ in range(30):
        el = workloads.Element("A3", workloads._lam_from_coeffs(rs, [rng.randint(-3, 3) for _ in range(3)]),
                               tuple(rng.randrange(3) for _ in range(rng.randint(0, 6))))
        win = Window(exact.type_a_window(rs.simple_roots, el.lam, el.word))
        assert reflection_length(win) == el.program_report().length


def test_partition_nullity_matches_brute_force():
    rng = random.Random(2)
    for _ in range(40):
        v = workloads._random_zero_sum(rng, rng.randint(1, 8), 4)
        assert workloads._partition_nullity(v) == brute_nullity(v)


def test_closed_forms_match_coxlen():
    for name, exps in workloads.TABLE_EXPONENTS.items():
        rs = root_system(name)
        assert exact.poly1_product(exps) == exponent_product(rs)
    a2 = root_system("A2")
    expected = poly_one_plus(1) * poly_one_plus(2)
    assert exact.poly_product((1, 2), with_s=False) == local_genfun(a2, (0, 0, 0)).terms == expected.terms


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = run_bench("--workload", "tables", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("workload", ["interactive", "span-search", "tables"])
def test_traced_runs_repeat_work_counts(workload):
    units = {m["name"]: m["unit"] for m in json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["per_layer"]}
    results = []
    for _ in range(2):
        done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(units)
        results.append({k: v["value"] for k, v in result["metrics"].items() if units[k] == "count"})
    assert results[0] == results[1]
