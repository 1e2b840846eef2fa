"""Summary statistics used by the benchmark's metrics."""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile that has at least ``TAIL_BEYOND`` samples
    beyond it: ``(value, percentile, sample count)``.

    With ``n`` sorted samples that is the order statistic at index
    ``n - TAIL_BEYOND - 1``, the percentile ``100 * (n - TAIL_BEYOND) / n``.
    With too few samples for any such percentile the maximum is reported
    as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


# One probe: fixed pure-Python work of the kind curvecone does (small
# tuples, dictionary updates, lexicographic minima), about 0.2 ms.
PROBE_ITERS = 300
PROBE_INTERVAL_S = 0.01
# Scaled times are times at the speed where one probe takes this long,
# about its time on an idle host.
PROBE_REF_S = 2e-4


def _probe_work() -> int:
    seen: dict[tuple, int] = {}
    acc = 0
    for i in range(PROBE_ITERS):
        t = (i % 7, i % 11, i % 13)
        seen[t] = seen.get(t, 0) + 1
        acc += min(t[1:] + t[:1], t)[0]
    return acc


class Speedometer:
    """Samples the host's speed while the work runs.

    On a shared host the same work can take 1.8 times as long from one
    minute to the next, and two CPUs can differ as much at the same
    moment.  While ``running()``, a timer interrupts the process every
    ``PROBE_INTERVAL_S`` to time one probe, so probes sample the speed the
    work itself sees (on the same CPU, when the process and its children
    are pinned to one).  ``factor()`` is ``PROBE_REF_S`` over the median
    probe time since the last call; multiplying a time measured over the
    same interval by it gives the time at the reference speed.
    """

    def __init__(self):
        self._probes: list[float] = []

    def _probe(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        _probe_work()
        self._probes.append(time.perf_counter() - t0)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        if not self._probes:
            self._probe()
        f = PROBE_REF_S / statistics.median(self._probes)
        self._probes = []
        return f
