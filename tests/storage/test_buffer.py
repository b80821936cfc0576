"""The LRU buffer pool."""

import pytest

from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk


class Payload(str):
    """A page payload the disk can hold weakly."""


@pytest.fixture
def disk():
    # The disk holds pages weakly: the fixture keeps them alive.
    payloads = [Payload(f"page-{i}") for i in range(10)]
    d = SimulatedDisk()
    for payload in payloads:
        d.allocate(payload)
    yield d


class TestBasics:
    def test_capacity_guard(self, disk):
        with pytest.raises(StorageError):
            BufferPool(disk, 0)

    def test_miss_then_hit(self, disk):
        pool = BufferPool(disk, capacity=2)
        assert pool.read(3) == "page-3"
        assert pool.stats.misses == 1
        assert pool.read(3) == "page-3"
        assert pool.stats.hits == 1
        assert disk.stats.pages_read == 1  # second read never hit the disk

    def test_eviction_is_lru(self, disk):
        pool = BufferPool(disk, capacity=2)
        pool.read(0)
        pool.read(1)
        pool.read(0)  # refresh 0 -> 1 is now LRU
        pool.read(2)  # evicts 1
        assert pool.stats.evictions == 1
        before = disk.stats.pages_read
        pool.read(0)  # still resident
        assert disk.stats.pages_read == before
        pool.read(1)  # was evicted -> disk read
        assert disk.stats.pages_read == before + 1

    def test_resident_tracks_capacity(self, disk):
        pool = BufferPool(disk, capacity=3)
        for i in range(10):
            pool.read(i)
        assert pool.resident == 3

    def test_invalidate(self, disk):
        pool = BufferPool(disk, capacity=4)
        pool.read(0)
        pool.invalidate()
        assert pool.resident == 0
        pool.read(0)
        assert pool.stats.misses == 2

    def test_hit_rate(self, disk):
        pool = BufferPool(disk, capacity=4)
        assert pool.stats.hit_rate == 0.0
        pool.read(0)
        pool.read(0)
        pool.read(0)
        assert pool.stats.hit_rate == pytest.approx(2 / 3)


class TestSeekInteraction:
    def test_warm_pool_eliminates_repeat_seeks(self, disk):
        """Repeated scans of the same run hit memory: the paper's seek
        story applies to *cold* reads."""
        pool = BufferPool(disk, capacity=10)
        for i in range(5):
            pool.read(i)
        cold_seeks = disk.stats.seeks
        for i in range(5):
            pool.read(i)
        assert disk.stats.seeks == cold_seeks
