#!/usr/bin/env python3
"""coxlen benchmark: one closed-loop client calling coxlen in-process.

    python3 bench/run.py --workload interactive --seed 0 --seconds 12 --trace 0
    python3 bench/run.py --envelope --seconds 20

A run sets up (import, root systems, seeded inputs), then repeats passes
over the workload's ops until ``--seconds`` have gone by; each pass
starts with coxlen's W0 and oracle caches cleared, as in a fresh
interpreter.  Every answer of the first pass is checked after the timed
passes, and every later pass must repeat it exactly.  The last line of
stdout is one JSON object: with ``--trace 0`` the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run.  See
bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
TRACE_DIR = os.path.join(ROOT, ".bench_out")


def import_coxlen() -> None:
    """Import coxlen from this checkout's source tree, never from an
    installed copy."""
    sys.path.insert(0, SRC)
    try:
        import coxlen
    except ImportError as ex:
        sys.exit(f"error: cannot import coxlen from {SRC}: {ex}")
    if not os.path.abspath(coxlen.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: coxlen was imported from {coxlen.__file__}, not from {SRC}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["interactive", "span-search", "tables"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--envelope", action="store_true", help="one-shot probe of generic len up to rank 8; "
                    "--seconds is the deadline per item")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.envelope and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


@dataclass(frozen=True)
class Crash:
    """The output of an op that raised."""

    error: str


class Pass:
    """One timed pass: per-op scaled and raw latencies, outputs, and for a
    traced pass the span id range and work counters it produced."""

    def __init__(self, ops, clock, tracer=None):
        from workloads import PASS_CACHES

        for cache in PASS_CACHES:
            cache.cache_clear()
        self.outputs = []
        self.raw = []
        self.scaled = []
        self.first_span = tracer.mark() if tracer is not None else 0
        work_before = dict(tracer.work) if tracer is not None else {}
        spans = []
        with clock:
            for op in ops:
                start = time.perf_counter()
                try:
                    out = op.run()
                except Exception as ex:  # a crash is a failed op, not a failed run
                    out = Crash(f"{type(ex).__name__}: {ex}")
                end = time.perf_counter()
                spans.append((start, end))
                self.outputs.append(out)
        self.last_span = tracer.mark() if tracer is not None else 0
        self.work = {k: v - work_before[k] for k, v in tracer.work.items()} if tracer is not None else {}
        for start, end in spans:
            self.raw.append(end - start)
            self.scaled.append(clock.scaled(start, end))
        self.wall_s = sum(self.scaled)
        self.scale = self.wall_s / sum(self.raw)


def measure_setup(args) -> float:
    """Median over fresh interpreters of start -> inputs ready.  Each
    child probes the CPU speed while it sets up; its probes and three
    taken here on either side scale its time."""
    from speed import PROBE_REF_S, SpeedClock

    clock = SpeedClock()
    times = []
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_REPEATS):
        for _ in range(3):
            clock.sample()
        started = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        child = json.loads(done.stdout.strip().splitlines()[-1])
        for _ in range(3):
            clock.sample()
        probes = clock.probe_s[-6:] + child["probes"]
        times.append((child["ready"] - started - sum(child["probes"])) * PROBE_REF_S / statistics.fmean(probes))
    return statistics.median(times)


def check_passes(ops, passes) -> tuple[int, list[str]]:
    """Failed op executions: the first pass is checked op by op; later
    passes must reproduce it."""
    failed, reasons = 0, []
    first = passes[0].outputs
    verdicts = []
    for op, out in zip(ops, first):
        if isinstance(out, Crash):
            reason = out.error
        else:
            try:
                reason = op.check(out)
            except Exception as ex:  # a malformed answer is a wrong answer
                reason = f"{type(ex).__name__}: {ex}"
        verdicts.append(reason)
        if reason:
            reasons.append(f"{op.label}: {reason}")
    for p in passes:
        for op, out, ref, reason in zip(ops, p.outputs, first, verdicts):
            if reason or out != ref:
                failed += 1
                if not reason:
                    reasons.append(f"{op.label}: differs from the first pass")
    return failed, reasons


def end_to_end(args, passes) -> dict:
    """Latency percentiles are over the ops, each op's latency being its
    median over the passes, so they do not depend on the pass count."""
    latencies = [statistics.median(times) for times in zip(*(p.scaled for p in passes))]
    q = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "wall_s": metric(statistics.median(p.wall_s for p in passes), "s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1000, "ms"),
        "latency_p90_ms": metric(q[8] * 1000, "ms"),
        "setup_s": metric(measure_setup(args), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, setup_range, setup_scale, untraced, traced) -> dict:
    """Per-layer metrics, per traced pass; seconds are scaled like the
    op latencies.  rootsys.build.s is the root-system construction in
    set-up (passes only hit its cache)."""
    n = len(traced)
    rows: dict[str, dict[str, float]] = {}
    work: dict[str, float] = {}
    subsets = 0
    for p in traced:
        for name, row in tracer.totals(p.first_span, p.last_span).items():
            acc = rows.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            acc["calls"] += row["calls"]
            acc["s"] += row["s"] * p.scale
            acc["self_s"] += row["self_s"] * p.scale
        for k, v in p.work.items():
            work[k] = work.get(k, 0) + v
        subsets += tracer.children_named("reflen.span_search", "linalg.rref", p.first_span, p.last_span)

    def calls(name):
        return metric(rows[name]["calls"] / n, "count")

    def secs(*names):
        return metric(sum(rows[x]["s"] for x in names) / n, "s")

    def self_s(name):
        return metric(rows[name]["self_s"] / n, "s")

    def layer_self(layer):
        return metric(sum(r["self_s"] for k, r in rows.items() if k.split(".")[0] == layer) / n, "s")

    searches = rows["reflen.span_search"]["calls"]
    setup_rows = tracer.totals(*setup_range)
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    traced_wall = statistics.median(p.wall_s for p in traced)
    return {
        "linalg.rref.calls": calls("linalg.rref"),
        "linalg.rref.self_s": self_s("linalg.rref"),
        "linalg.reduce_against.calls": calls("linalg.reduce_against"),
        "linalg.in_span.calls": calls("linalg.in_span"),
        "linalg.mat_mul.calls": calls("linalg.mat_mul"),
        "linalg.mat_mul.self_s": self_s("linalg.mat_mul"),
        "linalg.self_s": layer_self("linalg"),
        "reflen.span_search.calls": calls("reflen.span_search"),
        "reflen.span_search.s": secs("reflen.span_search"),
        "reflen.span_subsets": metric(subsets / n, "count"),
        "reflen.span_useful_ratio": metric(searches / subsets if subsets else 0.0, "ratio"),
        "reflen.dimension_report.calls": calls("reflen.dimension_report"),
        "reflen.factor_elliptic.s": secs("reflen.factor_elliptic"),
        "reflen.hurwitz_moves": metric(rows["reflen.hurwitz_move"]["calls"] / n, "count"),
        "reflen.split.s": secs("reflen.split"),
        "reflen.self_s": layer_self("reflen"),
        "genfun.enumerate_w0.s": secs("genfun.enumerate_w0"),
        "genfun.w0_elements": metric(work["genfun.w0_elements"] / n, "count"),
        "genfun.tables.s": secs("genfun.tables"),
        "genfun.local_genfun.calls": calls("genfun.local_genfun"),
        "genfun.local_genfun.s": secs("genfun.local_genfun"),
        "genfun.self_s": layer_self("genfun"),
        "oracle.tables.s": secs("oracle.tables"),
        "oracle.ball.calls": calls("oracle.ball"),
        "oracle.ball.states": metric(work["oracle.ball.states"] / n, "count"),
        "oracle.ball.s": secs("oracle.ball"),
        "oracle.self_s": layer_self("oracle"),
        "affgroup.compose.calls": calls("affgroup.compose"),
        "affgroup.linear_move_space.calls": calls("affgroup.linear_move_space"),
        "affgroup.require_group_element.calls": calls("affgroup.require_group_element"),
        "affgroup.self_s": layer_self("affgroup"),
        "affsym.nullity.calls": calls("affsym.nullity"),
        "affsym.null_complex.s": secs("affsym.null_complex"),
        "affsym.good_origin_split.s": secs("affsym.good_origin_split"),
        "affsym.self_s": layer_self("affsym"),
        "rootsys.build.s": metric(setup_rows["rootsys.build"]["s"] * setup_scale, "s"),
        "rootsys.lattice_coords.calls": calls("rootsys.lattice_coords"),
        "rootsys.in_coroot_lattice.calls": calls("rootsys.in_coroot_lattice"),
        "rootsys.self_s": layer_self("rootsys"),
        "cli.self_s": layer_self("cli"),
        "render.s": secs("render.render_classes", "render.render_alcoves"),
        "trace.overhead_share": metric((traced_wall - untraced_wall) / untraced_wall, "ratio"),
    }


def pass_counts(tracer, p) -> dict:
    """Exact work of one traced pass: calls per span name and counters."""
    counts = {k: r["calls"] for k, r in tracer.totals(p.first_span, p.last_span).items()}
    counts.update(p.work)
    return counts


def run(args) -> int:
    from speed import SpeedClock

    clock = SpeedClock()
    if args.setup_probe:
        with clock:
            import_coxlen()
            from workloads import WORKLOADS

            WORKLOADS[args.workload](args.seed)
        print(json.dumps({"ready": time.monotonic(), "probes": clock.probe_s}))
        return 0
    import_coxlen()
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        with clock:
            setup_start = time.perf_counter()
            ops = WORKLOADS[args.workload](args.seed)
            setup_end = time.perf_counter()
        setup_range = (0, tracer.mark())
        setup_scale = clock.scaled(setup_start, setup_end) / (setup_end - setup_start)
        tracer.uninstall()
    else:
        ops = WORKLOADS[args.workload](args.seed)
    untraced, traced = [], []
    start = time.perf_counter()
    untraced_until = start + (args.seconds / 2 if tracer is not None else args.seconds)
    while not untraced or time.perf_counter() < untraced_until:
        untraced.append(Pass(ops, clock))
    if tracer is not None:
        tracer.install()
        while not traced or time.perf_counter() < start + args.seconds:
            traced.append(Pass(ops, clock, tracer))
        tracer.uninstall()
    passes = untraced + traced
    if tracer is not None:
        metrics = per_layer(tracer, setup_range, setup_scale, untraced, traced)
    else:
        metrics = end_to_end(args, passes)

    failed, reasons = check_passes(ops, passes)
    attempted = len(ops) * len(passes)
    for line in reasons[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    correct = failed == 0
    if tracer is not None:
        counts = [pass_counts(tracer, p) for p in traced]
        if any(c != counts[0] for c in counts):
            print("WARNING: traced passes did not repeat the same work", file=sys.stderr)
            correct = False
        tracer.write(os.path.join(TRACE_DIR, f"trace-{args.workload}.spans"))
    raw_wall = statistics.median(sum(p.raw) for p in passes)
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes of {len(ops)} ops "
          f"({len(traced)} traced), raw pass wall {raw_wall:.3f} s, failed_share {failed}/{attempted}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("COXLEN_BUDGET", None)
    if args.envelope:
        import_coxlen()
        from envelope import envelope

        return envelope(args.seconds)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
