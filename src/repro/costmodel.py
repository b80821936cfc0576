"""The I/O cost model shared by estimated and measured costs.

The paper's argument is that the clustering number predicts the dominant
term of a range query's cost — the seeks — before any I/O happens.  For
that prediction to be checkable, the *estimated* cost (from a
:class:`~repro.engine.plan.QueryPlan`) and the *measured* cost (from the
simulated disk counters) must price a seek and a sequential read with the
same numbers.  This module is that single source: the planner and the
executor derive their constants from a :class:`CostModel`, and every
measured I/O profile — disk counters, range-query, cursor and kNN
results — prices itself through the one :class:`IOProfile` mixin.

The default constants loosely follow the classic 10 ms seek / 0.1 ms
sequential-page ratio of spinning disks; SSD-ish or custom models are one
``CostModel(seek_cost=…, read_cost=…)`` away.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostModel", "DEFAULT_COST_MODEL", "IOProfile"]


@dataclass(frozen=True)
class CostModel:
    """Prices one seek and one sequential page read.

    Parameters
    ----------
    seek_cost:
        Time charged for moving the head to a non-successor page
        (excluding the transfer itself), in milliseconds by default.
    read_cost:
        Time charged for transferring one page, sequential or not.
    """

    seek_cost: float = 10.0
    read_cost: float = 0.1

    def io_cost(self, seeks: int, sequential_reads: int) -> float:
        """Total simulated time of ``seeks`` + ``sequential_reads`` pages.

        A seeking read pays ``seek_cost + read_cost`` (head movement plus
        the transfer); a sequential read pays ``read_cost`` alone.
        """
        return seeks * (self.seek_cost + self.read_cost) + sequential_reads * self.read_cost

    @property
    def seek_equivalent_pages(self) -> float:
        """How many sequential page reads one seek is worth."""
        return self.seek_cost / self.read_cost if self.read_cost else float("inf")


#: The model every cost-reporting API defaults to.
DEFAULT_COST_MODEL = CostModel()


class IOProfile:
    """Mixin pricing a measured I/O profile of ``seeks`` seeking reads
    and ``sequential_reads`` sequential ones.

    The one statement of ``pages_read`` and ``cost(seek_cost,
    read_cost)`` for every class that carries those two counts.
    """

    seeks: int
    sequential_reads: int

    @property
    def pages_read(self) -> int:
        """Total pages read, seeking or sequential."""
        return self.seeks + self.sequential_reads

    def cost(
        self,
        seek_cost: float = DEFAULT_COST_MODEL.seek_cost,
        read_cost: float = DEFAULT_COST_MODEL.read_cost,
    ) -> float:
        """Simulated elapsed time of the reads, in milliseconds by default."""
        return CostModel(seek_cost, read_cost).io_cost(self.seeks, self.sequential_reads)
