"""CPU-speed normalisation of measured times.

On a shared 2-core VM the speed of one core drifts by up to 2x within
seconds (other tenants, SMT siblings), while CPU time tracks wall time:
the drift is speed, not scheduling.  Raw op times over a 10-30 s window
then spread by about 20-25% between identical runs, beyond any useful
bound.

So while ops run, a profiling timer (``ITIMER_PROF``, every
``INTERVAL_S`` of CPU time) runs a fixed probe from a signal handler:
exact-arithmetic Python written here and never changed with the
program.  An op's scaled time is its wall time minus the probes inside
it, times ``PROBE_REF_S`` over the mean probe time from just before to
just after it.  Reported times are thus seconds at the speed where one
probe takes ``PROBE_REF_S``, close to this VM's typical speed.  Probing
costs about 2% of the wall time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction as Q

PROBE_REF_S = 0.0012
INTERVAL_S = 0.05
_ROWS = tuple(tuple(Q((i * 7 + j * 3) % 11 - 5, (i + j) % 3 + 1) for j in range(5)) for i in range(4))


def _probe() -> None:
    for _ in range(2):
        _probe_once()


def _probe_once() -> None:
    rows = [list(r) for r in _ROWS]
    for c in range(4):
        piv = rows[c][c]
        if piv == 0:
            continue
        rows[c] = [x / piv for x in rows[c]]
        for i in range(4):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    seen = {}
    for k in range(300):
        seen[(k * 37) % 101, k % 7] = k * k // 3
    sum(seen.values())


class SpeedClock:
    """Probe samples along a run.  Inside ``with clock:`` the timer
    samples on its own; ``sample`` takes one explicitly."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.probe_s: list[float] = []

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        _probe()
        self.at.append(start)
        self.probe_s.append(time.perf_counter() - start)

    def __enter__(self) -> SpeedClock:
        self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()

    def scaled(self, start: float, end: float) -> float:
        """Wall time of [start, end] without the probes taken inside it,
        at reference speed: the mean covers the probes inside and two on
        either side."""
        i = max(bisect.bisect_left(self.at, start) - 2, 0)
        j = bisect.bisect_left(self.at, end) + 2
        inside = sum(p for t, p in zip(self.at[i:j], self.probe_s[i:j]) if start <= t < end)
        return (end - start - inside) * PROBE_REF_S / statistics.fmean(self.probe_s[i:j])
