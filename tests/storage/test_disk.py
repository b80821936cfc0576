"""The simulated disk's seek accounting."""

import pytest

from repro.errors import PageError
from repro.storage.disk import DiskStats, SimulatedDisk


class Payload(str):
    """A page payload the disk can hold weakly; each test keeps its own."""


def _disk(count):
    """A disk of ``count`` pages, plus the payloads that keep them alive."""
    disk = SimulatedDisk()
    payloads = [Payload(f"p{i}") for i in range(count)]
    for payload in payloads:
        disk.allocate(payload)
    return disk, payloads


class TestAllocation:
    def test_allocate_returns_consecutive_ids(self):
        disk = SimulatedDisk()
        payloads = [Payload(f"p{i}") for i in range(4)]
        assert [disk.allocate(p) for p in payloads] == [0, 1, 2, 3]
        assert disk.num_pages == 4
        assert disk.stats.pages_written == 4

    def test_invalid_page_rejected(self):
        disk, _payloads = _disk(1)
        with pytest.raises(PageError):
            disk.read(1)
        with pytest.raises(PageError):
            disk.read(-1)


class TestSeekAccounting:
    def test_first_read_is_a_seek(self):
        disk, _payloads = _disk(1)
        disk.read(0)
        assert disk.stats.seeks == 1
        assert disk.stats.sequential_reads == 0

    def test_sequential_run_charges_one_seek(self):
        disk, _payloads = _disk(5)
        for i in range(5):
            disk.read(i)
        assert disk.stats.seeks == 1
        assert disk.stats.sequential_reads == 4

    def test_backward_read_is_a_seek(self):
        disk, _payloads = _disk(3)
        disk.read(2)  # seek
        disk.read(1)  # seek (backwards)
        disk.read(2)  # sequential again: follows page 1
        assert disk.stats.seeks == 2
        assert disk.stats.sequential_reads == 1

    def test_rereading_same_page_is_a_seek(self):
        disk, _payloads = _disk(1)
        disk.read(0)
        disk.read(0)
        assert disk.stats.seeks == 2

    def test_two_disjoint_runs(self):
        disk, _payloads = _disk(10)
        for i in (0, 1, 2, 7, 8, 9):
            disk.read(i)
        assert disk.stats.seeks == 2
        assert disk.stats.sequential_reads == 4

    def test_reset_stats_parks_the_head(self):
        disk, _payloads = _disk(2)
        disk.read(0)
        disk.reset_stats()
        disk.read(1)  # would have been sequential without the reset
        assert disk.stats.seeks == 1
        assert disk.stats.sequential_reads == 0


class TestCostModel:
    def test_pages_read(self):
        stats = DiskStats(seeks=2, sequential_reads=5)
        assert stats.pages_read == 7

    def test_cost_defaults(self):
        stats = DiskStats(seeks=1, sequential_reads=10)
        assert stats.cost() == pytest.approx(1 * 10.1 + 10 * 0.1)

    def test_cost_custom_constants(self):
        stats = DiskStats(seeks=2, sequential_reads=0)
        assert stats.cost(seek_cost=5.0, read_cost=1.0) == pytest.approx(12.0)
