"""Host-speed probe: a fixed pure-Python kernel timed beside the ops.

The benchmark host is shared, and its speed drifts by tens of percent
over seconds to minutes.  Timing this kernel, which does the same kind of
work as the store (tuple building and comparison, list appends, dict
stores), every few tens of milliseconds of op time gives the host's
current speed; each op's latency is scaled by ``REFERENCE_S / probe``, so
reported times read as times on a host where the kernel takes
``REFERENCE_S``.
"""

from __future__ import annotations

import time
from collections import deque

#: Kernel time the scaled latencies are expressed against (seconds).
REFERENCE_S = 0.004
#: Op time between two probes (seconds).
PROBE_EVERY_S = 0.025


def kernel() -> int:
    cells = {}
    inside = []
    for i in range(20000):
        cell = (i & 255, i >> 8)
        if 10 <= cell[0] <= 200 and cell[1] < 50:
            inside.append(cell)
        cells[cell] = i
    return len(inside) + len(cells)


def probe() -> float:
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


class HostSpeed:
    """Running median of the last three probes, refreshed as ops run."""

    def __init__(self) -> None:
        self._recent = deque((probe() for _ in range(3)), maxlen=3)
        self._since = 0.0

    @property
    def factor(self) -> float:
        """``REFERENCE_S / current kernel time``: multiply a latency by it."""
        return REFERENCE_S / sorted(self._recent)[1]

    def spent(self, seconds: float) -> None:
        """Account op time; probe again once enough of it has passed."""
        self._since += seconds
        if self._since >= PROBE_EVERY_S:
            self._recent.append(probe())
            self._since = 0.0
