"""Span recorder for the traced benchmark run.

The recorder wraps the functions that coxlen's modules call across
module boundaries.  Modules bind with ``from .x import f``, so a wrapper
replaces the name in every ``coxlen`` namespace that binds the original
object, the defining module included (its internal calls go through the
same global).  Each call records one span: a name id, a parent span id,
a start and an end time.  Spans stay in flat in-memory arrays while the
run lasts; ``summary`` turns them into per-layer metrics, and
``write`` dumps them when the run ends.

Layer of a span = the text before the first dot of its name, which is
the coxlen module it belongs to.  Self time = the span's duration minus
the durations of its child spans (calls nest strictly: one thread).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array

import coxlen.affgroup
import coxlen.affsym
import coxlen.cli
import coxlen.genfun
import coxlen.linalg
import coxlen.oracle
import coxlen.reflen
import coxlen.render
import coxlen.rootsys


def _targets():
    """(span name, owner, attribute) for every wrapped function.

    Only functions at layer granularity are wrapped.  Scalar helpers such
    as ``dot``, ``coroot`` or ``is_zero`` run millions of times per pass;
    their time stays in the self time of the caller."""
    la, rs, ag, rl = coxlen.linalg, coxlen.rootsys, coxlen.affgroup, coxlen.reflen
    sy, gf, orc = coxlen.affsym, coxlen.genfun, coxlen.oracle
    return [
        ("linalg.rref", la, "rref"),
        ("linalg.reduce_against", la, "reduce_against"),
        ("linalg.in_span", la, "in_span"),
        ("linalg.mat_mul", la, "mat_mul"),
        ("linalg.mat_vec", la, "mat_vec"),
        ("linalg.solve_combination", la, "solve_combination"),
        ("linalg.solve_affine", la, "solve_affine"),
        ("linalg.project_off", la, "project_off"),
        ("linalg.line_rep", la, "line_rep"),
        ("rootsys.build", rs, "build_root_system"),
        ("rootsys.lattice_coords", rs.RootSystem, "lattice_coords"),
        ("rootsys.in_coroot_lattice", rs.RootSystem, "in_coroot_lattice"),
        ("rootsys.from_lattice_coords", rs.RootSystem, "from_lattice_coords"),
        ("affgroup.compose", ag, "compose"),
        ("affgroup.product", ag, "product"),
        ("affgroup.linear_move_space", ag, "linear_move_space"),
        ("affgroup.elliptic_rank", ag, "elliptic_rank"),
        ("affgroup.fixed_set", ag, "fixed_set"),
        ("affgroup.is_elliptic", ag, "is_elliptic"),
        ("affgroup.require_group_element", ag, "require_group_element"),
        ("reflen.dimension_report", rl, "dimension_report"),
        ("reflen.quotient_lines", rl, "_quotient_lines"),
        ("reflen.span_search", rl, "_min_span_subset"),
        ("reflen.factor_elliptic", rl, "factor_elliptic"),
        ("reflen.min_factorization", rl, "min_factorization"),
        ("reflen.hurwitz_move", rl, "hurwitz_move"),
        ("reflen.split", rl, "translation_elliptic_split"),
        ("affsym.minimal_null_blocks", sy, "minimal_null_blocks"),
        ("affsym.null_complex", sy, "null_complex"),
        ("affsym.nullity", sy, "nullity"),
        ("affsym.proper_basic_null_block_count", sy, "proper_basic_null_block_count"),
        ("affsym.relative_nullity", sy, "relative_nullity"),
        ("affsym.reflection_length", sy, "reflection_length"),
        ("affsym.good_origin_split", sy, "good_origin_split"),
        ("genfun.enumerate_w0", gf, "enumerate_w0"),
        ("genfun.tables", gf, "_genfun_tables"),
        ("genfun.local_genfun", gf, "local_genfun"),
        ("genfun.spherical_genfun", gf, "spherical_genfun"),
        ("genfun.classify_coroots", gf, "classify_coroots"),
        ("oracle.tables", orc, "_oracle_tables"),
        ("oracle.ball", orc, "_ball"),
        ("oracle.brute_reflection_lengths", orc, "brute_reflection_lengths"),
        ("oracle.brute_nullity", orc, "brute_nullity"),
        ("render.render_classes", coxlen.render, "render_classes"),
        ("render.render_alcoves", coxlen.render, "render_alcoves"),
        ("cli.main", coxlen.cli, "main"),
    ]


def _w0_elements(original):
    """Elements enumerated by calls that missed the W0 cache."""
    before = lambda: original.cache_info().misses  # noqa: E731
    after = lambda out, misses: len(out.elements) if original.cache_info().misses > misses else 0  # noqa: E731
    return before, after


def _ball_states(original):
    """Total size of the distance maps the oracle ball returns."""
    return (lambda: None), (lambda out, _: len(out))


WORK_COUNTERS = {
    "genfun.enumerate_w0": ("genfun.w0_elements", _w0_elements),
    "oracle.ball": ("oracle.ball.states", _ball_states),
}


class Tracer:
    """Records spans while installed; ``uninstall`` restores every name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")  # no enclosing span of the same name
        self.work = {counter: 0 for counter, _ in WORK_COUNTERS.values()}
        self._stack = [-1]
        self._active: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        if name in self.names:
            nid = self.names.index(name)
        else:
            nid = len(self.names)
            self.names.append(name)
            self._active.append(0)
        names, parent, start, end = self.span_name, self.parent, self.start, self.end
        outermost, stack, active, clock = self.outermost, self._stack, self._active, time.perf_counter
        counter = WORK_COUNTERS.get(name)
        before, after = counter[1](fn) if counter else (None, None)
        work = self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parent.append(stack[-1])
            outermost.append(active[nid] == 0)
            end.append(0.0)
            stack.append(sid)
            active[nid] += 1
            token = before() if before else None
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                active[nid] -= 1
                stack.pop()
            if after:
                work[counter[0]] += after(out, token)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target in every coxlen namespace that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "coxlen" or n.startswith("coxlen.")]
        for name, owner, attr in _targets():
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def mark(self) -> int:
        """Span id that the next recorded span will get."""
        return len(self.span_name)

    def totals(self, first: int = 0, last: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans only)
        and self seconds, over the spans with ids in [first, last)."""
        last = len(self.span_name) if last is None else last
        child = [0.0] * (last - first)
        for sid in range(first, last):
            p = self.parent[sid]
            if p >= first:
                child[p - first] += self.end[sid] - self.start[sid]
        out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in self.names}
        for sid in range(first, last):
            row = out[self.names[self.span_name[sid]]]
            dur = self.end[sid] - self.start[sid]
            row["calls"] += 1
            row["self_s"] += dur - child[sid - first]
            if self.outermost[sid]:
                row["s"] += dur
        return out

    def children_named(self, parent_name: str, child_name: str, first: int = 0, last: int | None = None) -> int:
        """Number of child_name spans whose direct parent is a parent_name span."""
        last = len(self.span_name) if last is None else last
        pid = self.names.index(parent_name)
        cid = self.names.index(child_name)
        return sum(
            1
            for sid in range(first, last)
            if self.span_name[sid] == cid and self.parent[sid] >= 0 and self.span_name[self.parent[sid]] == pid
        )

    def write(self, path: str) -> None:
        """Dump the spans: a JSON header with the names and array layout,
        then the raw arrays (machine byte order) in header order."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": [["name", "i"], ["parent", "q"], ["start", "d"], ["end", "d"], ["outermost", "b"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.parent, self.start, self.end, self.outermost):
                arr.tofile(fh)
