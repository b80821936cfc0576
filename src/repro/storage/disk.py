"""A simulated disk with seek accounting.

The paper's motivation for the clustering number is the cost of retrieving
a multi-dimensional range from data laid out in SFC order: every contiguous
key run costs one disk *seek* plus cheap sequential page reads.  This
module makes that cost model explicit so the spatial index can report real
seek counts, which the tests then tie back to the clustering number.

The model: pages are identified by consecutive integer ids; reading page
``p`` immediately after page ``p − 1`` is a sequential read, any other
read is a seek.  Costs are configurable (defaults loosely follow the
classic 10 ms seek / 0.1 ms-per-page sequential ratio).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Tuple

from ..costmodel import IOProfile
from ..errors import PageError
from ..obs.metrics import METRICS

__all__ = ["DiskStats", "SimulatedDisk", "PARKED_HEAD", "replay_reads"]

# Read-side counters, ticked once per execution, not per page read:
# every read runs inside the executor's charged pass, whose report
# (Executor._report) adds the execution's seeks and sequential reads.
# A per-page Counter.inc would cost a measurable share of a key-sliced
# scan (see benchmarks/test_bench_obs.py).
DISK_SEEKS = METRICS.counter("repro_disk_seeks_total", "page reads that moved the disk head")
DISK_SEQUENTIAL_READS = METRICS.counter(
    "repro_disk_sequential_reads_total", "page reads that followed the previous page"
)
_WRITES = METRICS.counter("repro_disk_pages_written_total", "pages allocated")

#: Head position whose successor is *not* sequential: a parked head.
PARKED_HEAD = -2


def replay_reads(page_spans: Iterable[Tuple[int, int]]) -> Tuple[int, int]:
    """``(seeks, sequential_reads)`` of reading inclusive ``page_spans``
    in order, starting from a parked head.

    The single statement of the disk's accounting rule — reading page
    ``p`` directly after page ``p − 1`` is sequential, anything else
    seeks — shared by :meth:`SimulatedDisk.read` (measurement) and the
    query planner's ``estimated_seeks`` (prediction), so the two can
    never drift apart.
    """
    seeks = sequential = 0
    head = PARKED_HEAD
    for first, last in page_spans:
        for page in range(first, last + 1):
            if page == head + 1:
                sequential += 1
            else:
                seeks += 1
            head = page
    return seeks, sequential


@dataclass
class DiskStats(IOProfile):
    """Counters accumulated by a :class:`SimulatedDisk`."""

    seeks: int = 0
    sequential_reads: int = 0
    pages_written: int = 0


@dataclass
class SimulatedDisk:
    """An append-only page store that charges seeks for non-sequential reads.

    The disk holds each page through a :class:`weakref.ref`: the
    :class:`~repro.engine.plan.PageLayout` that packed a page owns it.
    A reflush supersedes a layout but frees nothing itself; the
    superseded generation's pages are freed when its last reader — a
    store snapshot, an executor, an open cursor — drops the layout, and
    reading a freed page raises :class:`~repro.errors.PageError`.  Page
    ids are never reused, so a freed page leaves an 80-byte dead weakref
    under its id.
    """

    stats: DiskStats = field(default_factory=DiskStats)
    _pages: List[weakref.ref[Any]] = field(default_factory=list)
    _head: int = PARKED_HEAD

    def allocate(self, payload) -> int:
        """Store ``payload`` in a fresh page and return its page id.

        The disk keeps only a weak reference: the page lives as long as
        the caller (a layout) keeps ``payload``.
        """
        self._pages.append(weakref.ref(payload))
        self.stats.pages_written += 1
        _WRITES.inc()
        return len(self._pages) - 1

    def read(self, page_id: int):
        """Read a page, charging a seek unless it follows the previous read."""
        if not 0 <= page_id < len(self._pages):
            raise PageError(f"page {page_id} out of range [0, {len(self._pages)})")
        payload = self._pages[page_id]()
        if payload is None:
            raise PageError(f"page {page_id} was freed")
        if page_id == self._head + 1:
            self.stats.sequential_reads += 1
        else:
            self.stats.seeks += 1
        self._head = page_id
        return payload

    @property
    def num_pages(self) -> int:
        """Number of pages ever allocated (live and freed)."""
        return len(self._pages)

    @property
    def num_live_pages(self) -> int:
        """Pages not yet freed: those of layouts some reader still holds."""
        return sum(ref() is not None for ref in self._pages)

    def reset_stats(self) -> None:
        """Zero the counters and park the read head."""
        self.stats = DiskStats()
        self._head = PARKED_HEAD
