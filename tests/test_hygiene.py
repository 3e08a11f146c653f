"""Source hygiene: every name a coxlen module imports is used in it,
every module-level function or class has a caller outside the tests,
every function the benchmark's span recorder wraps still exists, and
its work counters read the results those functions return.

Names listed in a module's __all__ count as used, so the package
__init__ may import its public API for re-export.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coxlen"


def exported(tree: ast.Module) -> set[str]:
    """The names a module lists in __all__."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out.update(ast.literal_eval(node.value))
    return out


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported(tree)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "from math import gcd, lcm\nimport os.path\n\nx = lcm(2, 3)\n__all__ = ['os']\n"
    assert unused_imports(source) == ["line 1: gcd"]


def mentions(node: ast.AST) -> Counter:
    """How often each name occurs in node as a Name or an Attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def unused_definitions(sources: dict[str, str], external: set[str]) -> list[str]:
    """module.name of each module-level function or class of sources
    (module name -> source) that is used by nothing: no Name or Attribute
    outside its own body mentions it, external does not hold it and no
    module lists it in __all__."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum(map(mentions, trees.values()), Counter())
    used = external.union(*map(exported, trees.values()))
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
        and total[node.name] == mentions(node)[node.name]
    ]


def test_unused_definition_is_reported():
    sources = {
        "a": "def f(n):\n    return f(n - 1)\n\ndef g():\n    pass\n\nclass C:\n    pass\n\n__all__ = ['C']\n",
        "b": "from .a import g\n\ndef h():\n    return g()\n\ndef k():\n    pass\n",
    }
    assert unused_definitions(sources, {"k"}) == ["a.f", "b.h"]


def load_bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_span_targets_exist():
    # bench/run.py --trace 1 wraps these by name and fails with a KeyError
    # on a name that was deleted or renamed
    spans = load_bench_spans()
    missing = [name for name, owner, attr in spans._targets() if attr not in vars(owner)]
    assert missing == []


def test_every_definition_has_a_caller():
    # a function or class that only the tests use belongs in a tests/
    # reference module; bench/spans.py wraps functions by name, so its
    # target strings count as uses
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    external = {attr for _, _, attr in load_bench_spans()._targets()}
    for path in sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        external.update(mentions(ast.parse(path.read_text(encoding="utf-8"))))
    assert unused_definitions(sources, external) == []


def test_work_counters_read_real_results():
    # each WORK_COUNTERS reader runs on what the traced function returns,
    # so a renamed result field fails here, not in bench/run.py --trace 1
    from coxlen.genfun import enumerate_w0
    from coxlen.oracle import _ball
    from coxlen.rootsys import root_system

    spans = load_bench_spans()
    a2 = root_system("A2")
    readers = {name: make for name, (_, make) in spans.WORK_COUNTERS.items()}
    before, after = readers["genfun.enumerate_w0"](enumerate_w0)
    enumerate_w0.cache_clear()
    misses = before()
    assert after(enumerate_w0(a2), misses) == 6
    before, after = readers["oracle.ball"](_ball)
    # the target is the translation by the first simple coroot
    dist = _ball(a2, 1, 2, [(0, (1, 0))])
    assert after(dist, before()) == len(dist) > 1


def test_ball_counter_sees_the_batch_oracle(monkeypatch):
    # bench/run.py --trace 1 counts oracle.ball.states on what _ball
    # returns, so brute_reflection_lengths must reach its states through it
    import coxlen.oracle as oracle
    from coxlen.affgroup import identity_element, translation_element
    from coxlen.linalg import vec
    from coxlen.rootsys import root_system

    spans = load_bench_spans()
    _, make = spans.WORK_COUNTERS["oracle.ball"]
    before, after = make(oracle._ball)
    ball, states = oracle._ball, []

    def counted(*args):
        out = ball(*args)
        states.append(after(out, before()))
        return out

    monkeypatch.setattr(oracle, "_ball", counted)
    a2 = root_system("A2")
    elements = [identity_element(3), translation_element(vec([1, -1, 0])), translation_element(vec([2, -1, -1]))]
    assert [r.length for r in oracle.brute_reflection_lengths(a2, elements)] == [0, 2, 4]
    assert len(states) == 2 and min(states) > 0


# lru caches that may outlive a call: the root systems, built once per
# process, and the CLI parser, which parse_args only reads
LASTING_CACHES = {("rootsys", "build_root_system"), ("cli", "_parser")}


def lru_cached_functions(source: str) -> list[str]:
    """Names of the functions decorated with lru_cache (or cache), called
    or not, by bare name or as functools.<name>."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name in ("lru_cache", "cache"):
                out.append(node.name)
    return out


def pass_caches() -> set[tuple[str, str]]:
    """(module, function) of each coxlen.<module>.<function> in the
    PASS_CACHES tuple of bench/workloads.py, the caches cleared before
    every benchmark pass."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PASS_CACHES" for t in node.targets
        ):
            return {(item.value.attr, item.attr) for item in node.value.elts}
    raise AssertionError("bench/workloads.py defines no PASS_CACHES")


def test_every_lru_cache_is_cleared_between_bench_passes():
    # a cache that outlives a pass would let later passes do less work
    # than a fresh interpreter does
    allowed = LASTING_CACHES | pass_caches()
    found = {
        (path.stem, name)
        for path in SRC.glob("*.py")
        for name in lru_cached_functions(path.read_text(encoding="utf-8"))
    }
    assert found - allowed == set()
    assert ("genfun", "_genfun_tables") in found


def test_lru_cache_finder_sees_every_spelling():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef a(): pass\n@functools.lru_cache\ndef b(): pass\n"
        "@cache\ndef c(): pass\n@staticmethod\ndef d(): pass\n"
    )
    assert lru_cached_functions(source) == ["a", "b", "c"]
