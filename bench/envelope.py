"""Envelope probe: how far the exact computations reach today.

One-shot, not a gated workload.  For A, B, C and D at ranks 2-8, plus G2
and F4, it runs ``dimension_report`` on the translation by lam = sum of
i * (i-th simple coroot), the element ROADMAP.md timed by hand, and it
enumerates W0 for the types timed there.  Each item has a deadline; an
item that runs past it or raises ``BudgetExceeded`` is recorded as a
failure, never skipped.

    python3 bench/run.py --envelope --seconds 20
"""

from __future__ import annotations

import json
import signal
import time

import coxlen.errors
import coxlen.genfun
import coxlen.reflen
import coxlen.rootsys
from coxlen.affgroup import translation_element

import exact
from speed import SpeedClock

LEN_TYPES = [f"{f}{r}" for f in "ABCD" for r in range(2, 9)] + ["G2", "F4"]
W0_TYPES = ["A5", "B5", "F4", "A6", "B6"]


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline


def _generic_len(rs):
    lam = exact.combination([exact.coroot(a) for a in rs.simple_roots], range(1, rs.rank + 1))
    rep = coxlen.reflen.dimension_report(rs, translation_element(lam))
    if rep.length != 2 * rep.d + rep.e or rep.e != 0:
        raise AssertionError(f"length {rep.length} is not 2d + e for a translation")
    return {"length": rep.length, "d": rep.d}


def _w0(rs):
    coxlen.genfun.enumerate_w0.cache_clear()
    return {"elements": coxlen.genfun.enumerate_w0(rs).order}


def _timed(clock, deadline_s: float, fn, rs) -> dict:
    with clock:
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            row = {"status": "ok", **fn(rs)}
        except Deadline:
            row = {"status": "timeout"}
        except coxlen.errors.BudgetExceeded as ex:
            row = {"status": "BudgetExceeded", "error": str(ex)}
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
    row["s"] = end - start
    row["scaled_s"] = clock.scaled(start, end)
    return row


def envelope(deadline_s: float) -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    clock = SpeedClock()
    rows = []
    for kind, names, fn in (("len", LEN_TYPES, _generic_len), ("w0", W0_TYPES, _w0)):
        for name in names:
            row = {"item": kind, "type": name, **_timed(clock, deadline_s, fn, coxlen.rootsys.root_system(name))}
            rows.append(row)
            print(f"# {kind:3s} {name:3s} {row['status']:14s} {row['s']:8.3f} s", flush=True)
    failed = sum(r["status"] != "ok" for r in rows)
    print(json.dumps({"deadline_s": deadline_s, "attempted": len(rows), "failed": failed, "items": rows}))
    return 0
