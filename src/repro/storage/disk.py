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
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Iterable, List, Tuple

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

    The disk holds each page object through a :class:`weakref.ref`: the
    :class:`~repro.engine.plan.PageLayout` that packed a page owns it.
    A layout's full pages share one page object and a short last page
    has its own, so the disk keeps at most two weakrefs per layout, each
    shared by the ids it stores.  A reflush supersedes a layout but
    frees nothing itself; the superseded generation's pages are freed
    when its last reader — a store snapshot, an executor, an open
    cursor — drops the layout, and reading a freed page raises
    :class:`~repro.errors.PageError`.

    Page ids are never reused, but the id table does not keep them all:
    it holds one slot per id from the oldest allocation that still has
    a live page on.  Each :meth:`allocate` first drops the oldest
    allocations whose pages are all freed, so a store that reflushes
    holds what its live layouts hold.  The table is trimmed only from
    its front: a reader pinning an old layout keeps the slots of every
    allocation after it until it lets go.

    Allocations are serialized by their caller (a store allocates under
    its mutex), but reads of an older layout may run meanwhile.  So an
    allocation appends to the table's slot list in place, which moves no
    held id, and a trim installs a new table: a read takes the first id
    held and the slots in one attribute read, and they agree whatever an
    allocation does next.
    """

    stats: DiskStats = field(default_factory=DiskStats)
    #: ``(first id held, one weakref per id from it on)``; every lower
    #: id was freed.
    _table: Tuple[int, List[weakref.ref[Any]]] = field(default_factory=lambda: (0, []))
    #: Per allocation the table holds, oldest first: its first id and
    #: the weakrefs of its first and last slots.
    _blocks: Deque[Tuple[int, weakref.ref[Any], weakref.ref[Any]]] = field(
        default_factory=deque
    )
    _head: int = PARKED_HEAD

    def allocate(self, payload: Any, count: int = 1, tail: Any = None) -> int:
        """Store ``payload`` under ``count`` fresh, consecutive page ids,
        and ``tail``, when given, under the id after them; return the
        first id.

        One call allocates a whole layout (:func:`~repro.api.store.pack_columns`):
        its full pages share one payload, and a short last page is the
        tail.  The disk keeps only a weak reference per payload, shared
        by its ids: the pages live as long as the caller (a layout)
        keeps the payloads.  The write counters tick once, by the number
        of ids.  An allocation of no ids (an empty layout) returns the
        next id and holds no slot.
        """
        self._trim()
        base, slots = self._table
        first = base + len(slots)
        refs = [weakref.ref(payload)] * count
        if tail is not None:
            refs.append(weakref.ref(tail))
        if refs:
            self._blocks.append((first, refs[0], refs[-1]))
            slots.extend(refs)
        self.stats.pages_written += len(refs)
        _WRITES.inc(len(refs))
        return first

    def _trim(self) -> None:
        """Drop the oldest allocations whose pages are all freed.

        An allocation's first slot holds its full pages' payload (or its
        tail, with no full page) and its last slot its tail (or that
        payload, with no tail), so both dead means every page of it is.
        The new table starts at the first allocation still holding a
        live page, or past the last id when none does.
        """
        blocks = self._blocks
        while blocks and blocks[0][1]() is None and blocks[0][2]() is None:
            blocks.popleft()
        base, slots = self._table
        start = blocks[0][0] if blocks else base + len(slots)
        if start > base:
            self._table = (start, slots[start - base:])

    def read(self, page_id: int):
        """Read a page, charging a seek unless it follows the previous read."""
        base, slots = self._table
        slot = page_id - base
        if not 0 <= slot < len(slots):
            if 0 <= page_id < base:
                raise PageError(f"page {page_id} was freed")
            raise PageError(f"page {page_id} out of range [0, {base + len(slots)})")
        payload = slots[slot]()
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
        base, slots = self._table
        return base + len(slots)

    @property
    def num_live_pages(self) -> int:
        """Pages not yet freed: those of layouts some reader still holds."""
        return sum(ref() is not None for ref in self._table[1])

    def reset_stats(self) -> None:
        """Zero the counters and park the read head."""
        self.stats = DiskStats()
        self._head = PARKED_HEAD
