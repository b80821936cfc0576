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

from dataclasses import dataclass, field

from typing import Iterable, Set, Tuple

from ..costmodel import IOProfile
from ..errors import PageError
from ..obs.metrics import METRICS

__all__ = ["DiskStats", "SimulatedDisk", "PARKED_HEAD", "replay_reads"]

# Bound once at import: the disabled-path cost per read is one flag
# check inside Counter.inc (see benchmarks/test_bench_obs.py).
_SEEKS = METRICS.counter("repro_disk_seeks_total", "page reads that moved the disk head")
_SEQUENTIAL = METRICS.counter(
    "repro_disk_sequential_reads_total", "page reads that followed the previous page"
)
_WRITES = METRICS.counter("repro_disk_pages_written_total", "pages allocated or overwritten")

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
    pages_retired: int = 0


@dataclass
class SimulatedDisk:
    """An append-only page store that charges seeks for non-sequential reads."""

    stats: DiskStats = field(default_factory=DiskStats)
    _pages: list = field(default_factory=list)
    _head: int = PARKED_HEAD
    _dead: Set[int] = field(default_factory=set)
    _reclaimed: Set[int] = field(default_factory=set)

    def allocate(self, payload) -> int:
        """Store ``payload`` in a fresh page and return its page id."""
        self._pages.append(payload)
        self.stats.pages_written += 1
        _WRITES.inc()
        return len(self._pages) - 1

    def write(self, page_id: int, payload) -> None:
        """Overwrite an existing page in place (no read-head movement)."""
        self._check(page_id)
        self._pages[page_id] = payload
        self.stats.pages_written += 1
        _WRITES.inc()

    def read(self, page_id: int):
        """Read a page, charging a seek unless it follows the previous read."""
        self._check(page_id)
        if page_id in self._reclaimed:
            raise PageError(f"page {page_id} was reclaimed")
        if page_id == self._head + 1:
            self.stats.sequential_reads += 1
            _SEQUENTIAL.inc()
        else:
            self.stats.seeks += 1
            _SEEKS.inc()
        self._head = page_id
        return self._pages[page_id]

    def _check(self, page_id: int) -> None:
        if not 0 <= page_id < len(self._pages):
            raise PageError(f"page {page_id} out of range [0, {len(self._pages)})")

    def retire(self, page_ids: Iterable[int]) -> None:
        """Mark pages dead (superseded by a newer layout).

        Retirement is accounting, not destruction: a retired page stays
        readable so an in-flight reader of the previous layout
        generation (a streaming cursor, a sharded scan between per-page
        lock acquisitions) is never yanked out from under.  Dead pages
        stop counting toward :attr:`num_live_pages` immediately and
        their storage is released by the next :meth:`reclaim`.
        """
        for page_id in page_ids:
            self._check(page_id)
            if page_id not in self._dead:
                self._dead.add(page_id)
                self.stats.pages_retired += 1

    def reclaim(self) -> int:
        """Free the storage of every retired page; return how many.

        After reclaim a dead page's payload is gone and reading it
        raises :class:`~repro.errors.PageError` — call only when no
        reader can still hold a plan over a superseded layout.
        """
        freed = 0
        for page_id in self._dead - self._reclaimed:
            self._pages[page_id] = None
            self._reclaimed.add(page_id)
            freed += 1
        return freed

    @property
    def num_pages(self) -> int:
        """Number of pages ever allocated (live and dead)."""
        return len(self._pages)

    @property
    def num_live_pages(self) -> int:
        """Pages belonging to the currently installed layouts."""
        return len(self._pages) - len(self._dead)

    def reset_stats(self) -> None:
        """Zero the counters and park the read head."""
        self.stats = DiskStats()
        self._head = PARKED_HEAD
