"""Page lifetime: a superseded layout's pages are freed with its last reader.

Every ``flush()`` packs a fresh copy of all pages onto the append-only
:class:`SimulatedDisk`.  The disk holds each page weakly and the
:class:`~repro.engine.plan.PageLayout` that packed it owns it, so a
superseded generation stays readable for as long as a reader (a store
snapshot, an executor, an open cursor) holds its layout, and is freed
when the last one drops it: repeated flushes cannot grow the store.
"""

import gc
import weakref

import pytest

from repro import Query, Rect, SFCIndex, ShardedSFCIndex, make_curve
from repro.errors import PageError
from repro.storage.disk import SimulatedDisk

SIDE = 8
FULL = Rect.from_origin((0, 0), (SIDE, SIDE))


class Payload(str):
    """A page payload the disk can hold weakly."""


def _build(kind):
    curve = make_curve("onion", SIDE, 2)
    if kind == "single":
        return SFCIndex(curve, page_capacity=4)
    return ShardedSFCIndex(curve, num_shards=2, page_capacity=4)


class TestDiskAccounting:
    def test_a_page_lives_while_its_owner_holds_it(self):
        disk = SimulatedDisk()
        payloads = [Payload(f"page-{i}") for i in range(4)]
        pages = [disk.allocate(payload) for payload in payloads]
        del payloads[:2]
        assert disk.num_pages == 4
        assert disk.num_live_pages == 2
        assert disk.read(pages[2]) == "page-2"

    def test_reclaim_frees_storage_and_poisons_reads(self):
        disk = SimulatedDisk()
        payloads = [Payload(f"page-{i}") for i in range(3)]
        pages = [disk.allocate(payload) for payload in payloads]
        del payloads[0]
        with pytest.raises(PageError, match="freed"):
            disk.read(pages[0])
        assert disk.stats.pages_read == 0  # a failed read charges nothing
        assert disk.read(pages[1]) == "page-1"  # live pages untouched

    def test_retire_validates_page_ids(self):
        """A read checks its id against every id ever allocated: a freed
        id is never reused, and an id past the end is out of range."""
        disk = SimulatedDisk()
        disk.allocate(Payload("dropped at once"))
        kept = Payload("kept")
        assert disk.allocate(kept) == 1
        assert (disk.num_pages, disk.num_live_pages) == (2, 1)
        with pytest.raises(PageError, match="freed"):
            disk.read(0)
        with pytest.raises(PageError, match="out of range"):
            disk.read(2)


@pytest.mark.parametrize("kind", ["single", "sharded"])
class TestStoreLiveness:
    def test_flush_query_cycles_keep_live_pages_constant(self, kind):
        store = _build(kind)
        store.bulk_load([(x, y) for x in range(SIDE) for y in range(SIDE)])
        store.flush()
        live = store.disk.num_live_pages
        assert live == store.page_layout.num_pages > 0
        for cycle in range(5):
            store.insert((1, 1), f"churn-{cycle}")
            store.delete((1, 1), f"churn-{cycle}")
            result = store.range_query(FULL)  # forces a reflush
            assert len(result.records) == SIDE * SIDE
            assert store.disk.num_live_pages == store.page_layout.num_pages == live, (
                f"leak at cycle {cycle}"
            )
        # Every superseded generation was freed, none reused an id.
        assert store.disk.num_pages == 6 * live

    def test_explicit_double_flush_retires_previous_layout(self, kind):
        store = _build(kind)
        store.bulk_load([(x, y) for x in range(SIDE) for y in range(2)])
        store.flush()
        live = store.disk.num_live_pages
        store.flush()  # no writes in between: same content, new copy
        assert store.disk.num_live_pages == live
        assert store.disk.num_pages == 2 * live

    def test_migration_retires_the_old_curve_layout(self, kind):
        store = _build(kind)
        store.bulk_load([(x, y) for x in range(SIDE) for y in range(SIDE)])
        store.flush()
        live = store.disk.num_live_pages
        store.migrate_to(make_curve("hilbert", SIDE, 2))
        assert store.disk.num_live_pages == live

    def test_reclaim_after_quiesce_keeps_queries_working(self, kind):
        store = _build(kind)
        store.bulk_load([(x, y) for x in range(SIDE) for y in range(SIDE)])
        store.range_query(FULL)
        first = store.page_layout
        page = weakref.ref(first.pages[0])
        page_id = first.page_ids[0]
        del first
        store.insert((2, 2), "x")
        store.range_query(FULL)  # reflush: the first layout is superseded
        gc.collect()
        assert page() is None
        with pytest.raises(PageError, match="freed"):
            store.disk.read(page_id)
        result = store.range_query(FULL)
        assert len(result.records) == SIDE * SIDE + 1

    def test_streaming_reader_survives_a_reflush(self, kind):
        """A cursor holds its executor, whose layout owns its pages, so a
        cursor that snapshotted the old generation keeps streaming; the
        generation is freed once the cursor is gone."""
        store = _build(kind)
        store.bulk_load([(x, y) for x in range(SIDE) for y in range(SIDE)])
        cursor = store.cursor(Query.rect(FULL))
        first = next(iter(cursor))
        store.insert((3, 3), "mid-scan")
        store.flush()  # supersedes the generation the cursor is reading
        assert store.disk.num_live_pages > store.page_layout.num_pages
        rows = [first] + list(cursor)
        assert len(rows) == SIDE * SIDE
        del cursor
        gc.collect()
        assert store.disk.num_live_pages == store.page_layout.num_pages
