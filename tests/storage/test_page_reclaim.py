"""Page lifetime: a superseded layout's pages are freed with its last reader.

Every ``flush()`` packs a fresh copy of all pages onto the append-only
:class:`SimulatedDisk`, in one block allocation: its full pages share
one page object, and a short last page has its own.  The disk holds
each page weakly and the :class:`~repro.engine.plan.PageLayout` that
packed it owns it, so a superseded generation stays readable for as
long as a reader (a store snapshot, an executor, an open cursor) holds
its layout, and is freed when the last one drops it: repeated flushes
cannot grow the store.
"""

import gc
import sys
import threading
import time
import weakref

import pytest

from repro import Query, Rect, SFCIndex, ShardedSFCIndex, make_curve
from repro.errors import PageError
from repro.obs import METRICS, disable_metrics, enable_metrics, metrics_enabled
from repro.storage.disk import SimulatedDisk

SIDE = 8
CAPACITY = 4
FULL = Rect.from_origin((0, 0), (SIDE, SIDE))
GRID = [(x, y) for x in range(SIDE) for y in range(SIDE)]


class Payload(str):
    """A page payload the disk can hold weakly."""


def _build(kind):
    curve = make_curve("onion", SIDE, 2)
    if kind == "single":
        return SFCIndex(curve, page_capacity=CAPACITY)
    return ShardedSFCIndex(curve, num_shards=2, page_capacity=CAPACITY)


@pytest.fixture
def pages_written():
    """The ``repro_disk_pages_written_total`` counter, with metrics on
    for the test."""
    was_enabled = metrics_enabled()
    enable_metrics()
    yield METRICS.get("repro_disk_pages_written_total")
    if not was_enabled:
        disable_metrics()


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

    def test_a_block_lives_and_dies_as_one(self, pages_written):
        disk = SimulatedDisk()
        before = Payload("before")
        disk.allocate(before)
        ticks = pages_written.value
        block = Payload("block")
        assert disk.allocate(block, 3) == 1  # the first of 3 consecutive ids
        assert (disk.num_pages, disk.stats.pages_written) == (4, 4)
        assert pages_written.value == ticks + 3
        after = Payload("after")
        assert disk.allocate(after, 2) == 4
        assert [disk.read(page) for page in range(6)] == (
            ["before"] + ["block"] * 3 + ["after"] * 2
        )
        del block
        disk.reset_stats()
        for page in (1, 2, 3):
            with pytest.raises(PageError, match="freed"):
                disk.read(page)
        assert disk.stats.pages_read == 0  # a failed read charges nothing
        assert (disk.num_pages, disk.num_live_pages) == (6, 3)
        assert [disk.read(page) for page in (0, 4, 5)] == ["before", "after", "after"]

    def test_the_id_table_starts_at_the_oldest_live_allocation(self):
        """Each allocation first drops the oldest allocations whose pages
        are all freed; a live allocation keeps every one after it.  Ids
        stay consecutive and are never reused, and a dropped id still
        reads as freed."""
        disk = SimulatedDisk()
        a, b, c = Payload("a"), Payload("b"), Payload("c")
        assert [disk.allocate(a, 2), disk.allocate(b, 3), disk.allocate(c)] == [0, 2, 5]
        del b
        d = Payload("d")
        assert disk.allocate(d) == 6
        assert (disk._table[0], len(disk._table[1])) == (0, 7)  # a pins the freed b
        del a
        e = Payload("e")
        assert disk.allocate(e) == 7
        assert (disk._table[0], len(disk._table[1])) == (5, 3)
        assert (disk.num_pages, disk.num_live_pages) == (8, 3)
        for page in (0, 4):
            with pytest.raises(PageError, match="freed"):
                disk.read(page)
        with pytest.raises(PageError, match="out of range"):
            disk.read(8)
        assert [disk.read(page) for page in (5, 6, 7)] == ["c", "d", "e"]

    def test_a_live_tail_keeps_its_block(self):
        """A block goes only when its full pages and its tail are both
        freed."""
        disk = SimulatedDisk()
        full, tail = Payload("full"), Payload("tail")
        disk.allocate(full, 2, tail)
        del full
        disk.allocate(Payload("next"))
        assert (disk._table[0], disk.num_pages) == (0, 4)
        assert disk.read(2) == "tail"
        with pytest.raises(PageError, match="freed"):
            disk.read(0)

    def test_an_empty_allocation_holds_no_slot(self):
        disk = SimulatedDisk()
        kept = Payload("kept")
        disk.allocate(kept)
        assert disk.allocate(Payload("empty"), 0) == 1
        assert (disk.num_pages, len(disk._table[1]), disk.stats.pages_written) == (1, 1, 1)
        assert disk.allocate(kept) == 1

    def test_a_trim_leaves_the_table_a_read_took(self):
        """A read takes the first id held and the slots together; a trim
        installs a new table, so the one a read took still maps each of
        its held ids to its page."""
        disk = SimulatedDisk()
        dead, held = Payload("dead"), Payload("held")
        disk.allocate(dead, 2)
        first = disk.allocate(held, 2)
        base, slots = disk._table  # what a read takes first
        del dead
        disk.allocate(Payload("next"))
        assert disk._table[0] == first
        assert [slots[page - base]() for page in (first, first + 1)] == [held, held]

    def test_reads_during_allocations_return_the_pages_they_hold(self):
        """Allocations trim the table while reads of a held layout run
        (a store allocates under its mutex, a query of an older layout
        reads under the I/O lock only): every read returns its page."""
        disk = SimulatedDisk()
        io_lock = threading.Lock()
        current = []  # the newest layout: its first id, and its one page
        stop = threading.Event()
        errors = []

        def publish(generation):
            payload = Payload(f"g{generation}")
            current[:] = [(disk.allocate(payload, 8), payload)]

        def allocate():
            generation = 0
            while not stop.is_set():
                generation += 1
                publish(generation)

        def read():
            while not stop.is_set():
                first, payload = current[0]
                for page_id in range(first, first + 8):
                    try:
                        with io_lock:
                            page = disk.read(page_id)
                    except (PageError, IndexError) as exc:
                        errors.append(exc)
                        return
                    if page is not payload:
                        errors.append(f"page {page_id} read {page!r}, not {payload!r}")
                        return

        publish(0)
        threads = [threading.Thread(target=allocate)]
        threads += [threading.Thread(target=read) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.5)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        publish("last")  # trims to the layout it replaces, and itself
        assert disk.num_pages > len(disk._table[1]) == 16

    def test_a_tail_follows_its_block(self, pages_written):
        disk = SimulatedDisk()
        ticks = pages_written.value
        full, tail = Payload("full"), Payload("tail")
        assert disk.allocate(full, 2, tail) == 0
        assert disk.stats.pages_written == 3
        assert pages_written.value == ticks + 3
        assert [disk.read(page) for page in range(3)] == ["full", "full", "tail"]
        del tail
        assert disk.num_live_pages == 2
        with pytest.raises(PageError, match="freed"):
            disk.read(2)
        assert disk.read(1) == "full"


@pytest.mark.parametrize("kind", ["single", "sharded"])
@pytest.mark.parametrize("n", [0, CAPACITY - 1, 2 * CAPACITY + 1, 4 * CAPACITY])
def test_a_layout_is_one_block_of_at_most_two_page_objects(kind, n):
    """A flush takes consecutive ids in one allocation; the full pages
    share one object and a short last page has its own, and a read
    returns an object sized by its page's record count."""
    store = _build(kind)
    store.bulk_load(GRID[:n])
    store.flush()
    layout = store.page_layout
    first = store.disk.num_pages - layout.num_pages
    assert layout.page_ids == list(range(first, store.disk.num_pages))
    assert [len(store.disk.read(page_id)) for page_id in layout.page_ids] == [
        min(CAPACITY, n - start) for start in range(0, n, CAPACITY)
    ]
    assert len({id(page) for page in layout.pages}) <= 2


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

    def test_write_read_cycles_keep_the_id_table_at_the_live_layout(self, kind):
        """The disk's id table holds the live layout's ids, while
        ``num_pages`` keeps counting every id ever allocated."""
        store = _build(kind)
        store.bulk_load(GRID)
        store.flush()
        live = store.page_layout.num_pages
        for cycle in range(5):
            store.insert((1, 1), f"churn-{cycle}")
            store.delete((1, 1), f"churn-{cycle}")
            store.range_query(FULL)  # forces a reflush
            assert len(store.disk._table[1]) == live, f"table grew at cycle {cycle}"
            assert store.disk.num_pages == (cycle + 2) * live

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
        generation is freed once the cursor is gone.  No write changes a
        column after it is built: the streamed generation's key and
        record columns, and a migration snapshot held across the same
        writes, read as they did, record for record."""
        store = _build(kind)
        store.bulk_load([(x, y) for x in range(SIDE) for y in range(SIDE)])
        cursor = store.cursor(Query.rect(FULL))
        first = next(iter(cursor))
        keys, records = store.page_layout.keys, store.page_layout.records
        _, snapshot = store._migration_snapshot()
        keys_then = keys.copy()
        held = [(records, list(records)), (snapshot, list(snapshot))]
        store.insert((3, 3), "mid-scan")
        assert store.delete((0, 0))
        store.bulk_load([(5, 5), (3, 3), (0, 6)], ["b", "c", "d"])
        store.flush()  # supersedes the generation the cursor is reading
        assert len(store.page_layout.records) == SIDE * SIDE + 3
        assert store.disk.num_live_pages > store.page_layout.num_pages
        rows = [first] + list(cursor)
        assert len(rows) == SIDE * SIDE
        assert keys.dtype == keys_then.dtype and keys.tolist() == keys_then.tolist()
        for column, then in held:
            assert len(column) == len(then) == SIDE * SIDE
            assert all(now is was for now, was in zip(column, then))
        del cursor
        gc.collect()
        assert store.disk.num_live_pages == store.page_layout.num_pages
