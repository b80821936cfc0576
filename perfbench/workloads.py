"""The three closed-loop workloads: seeded inputs, set-up, ops and oracles.

Every workload uses the onion curve in 2-d, side 256, uniform points and
page capacity 64 (the store default).  One client drives the public store
API in one thread: each op starts when the previous one returned.  The op
stream is generated from the seed before the store exists, and the store
receives only those inputs; its length is fixed by ``--seconds`` through a
nominal rate, so one seed always runs the same ops and the exact counts
(runs, pages, seeks, WAL bytes, frames replayed) repeat exactly.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

SIDE = 256
DIM = 2
K = 10
CURSOR_LIMIT = 100
PLAN_CACHE = 256
SHARDS = 8
#: Rounds per untraced run; each op's latency is its fastest round.
ROUNDS = 8

Rect2 = Tuple[Tuple[int, int], Tuple[int, int]]
Op = Tuple[Any, ...]


@dataclass
class Inputs:
    """Everything a workload run feeds the store, derived from one seed."""

    points: np.ndarray
    ops: List[Op]
    hot_rects: List[Rect2] = field(default_factory=list)
    hot_centres: List[Tuple[int, int]] = field(default_factory=list)

    def digest(self) -> str:
        """SHA-256 of the points and the op stream (the determinism proof)."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.points, dtype=np.int64).tobytes())
        h.update(json.dumps([self.ops, self.hot_rects, self.hot_centres]).encode())
        return h.hexdigest()


# ----------------------------------------------------------------------
# Input generation
# ----------------------------------------------------------------------
def _square(rng: np.random.Generator, low: int, high: int) -> Rect2:
    """A random square of side in ``[low, high]`` (the paper's Fig. 5 cubes)."""
    return _place(rng, (int(rng.integers(low, high + 1)),) * DIM)


def _place(rng: np.random.Generator, lengths: Sequence[int]) -> Rect2:
    """A rect with side ``lengths`` at a uniform random position."""
    origin = [int(rng.integers(0, SIDE - length + 1)) for length in lengths]
    return (tuple(origin), tuple(o + length - 1 for o, length in zip(origin, lengths)))


def _fig7_shapes(count: int) -> List[Tuple[int, int]]:
    """Side lengths at evenly spaced quantiles of the Fig. 7 distribution
    (the bounding box of two uniform cells: ``|a - b| + 1`` per axis)."""
    return [
        tuple(
            min(SIDE, 1 + int(SIDE * (1.0 - np.sqrt(1.0 - q))))
            for q in ((k + 0.5) / count, ((k * 37) % count + 0.5) / count)
        )
        for k in range(count)
    ]


def _square_shapes(count: int) -> List[Tuple[int, int]]:
    """Square sides evenly spaced over 4..64 (the Fig. 5 lengths)."""
    return [(4 + round(k * 60 / max(1, count - 1)),) * DIM for k in range(count)]


def _scan_rects(rng: np.random.Generator, count: int) -> List[Rect2]:
    """``count`` distinct rects, half Fig. 7 and half Fig. 5 shapes, in a
    seeded order at random positions.  The shapes are stratified rather
    than sampled, so a seed moves where rects fall, not how large they are:
    sampled Fig. 7 areas are heavy-tailed enough to swing a run's totals."""
    shapes = _fig7_shapes(count - count // 2) + _square_shapes(count // 2)
    seen = set()
    rects: List[Rect2] = []
    for index in rng.permutation(len(shapes)):
        rect = _place(rng, shapes[index])
        while rect in seen:
            rect = _place(rng, shapes[index])
        seen.add(rect)
        rects.append(rect)
    return rects


def _cell(rng: np.random.Generator) -> Tuple[int, int]:
    x, y = rng.integers(0, SIDE, size=DIM)
    return (int(x), int(y))


def _blocks(rng: np.random.Generator, count: int, block: Sequence[Any]) -> List[Any]:
    """``count`` items drawn as shuffled copies of ``block``: the mix keeps
    its proportions exactly, so seeds differ in order, not in shares."""
    items: List[Any] = []
    while len(items) < count:
        copy = list(block)
        rng.shuffle(copy)
        items.extend(copy)
    return items[:count]


#: One block of the scan op mix: 70% range, 20% kNN, 10% limited cursor.
SCAN_MIX = ("range",) * 7 + ("knn",) * 2 + ("cursor",)


def scan_cold_inputs(seed: int, n_ops: int, n_points: int) -> Inputs:
    """The scan mix over unique rects, half Fig. 7 corner rects and half
    Fig. 5 squares of side 4 to 64; kNN centres are uniform cells."""
    rng = np.random.default_rng(seed)
    points = rng.integers(0, SIDE, size=(n_points, DIM), dtype=np.int64)
    kinds = _blocks(rng, n_ops, SCAN_MIX)
    rects = iter(_scan_rects(rng, sum(kind != "knn" for kind in kinds)))
    ops: List[Op] = [
        (kind, _cell(rng) if kind == "knn" else next(rects)) for kind in kinds
    ]
    return Inputs(points, ops)


def _zipf_ranks(rng: np.random.Generator, size: int, count: int) -> List[int]:
    """``count`` ranks in ``[0, size)`` with Zipf(0.8) frequencies: each
    rank appears its expected number of times (largest remainders), in a
    seeded order."""
    weights = 1.0 / np.arange(1, size + 1) ** 0.8
    expected = weights / weights.sum() * count
    counts = np.floor(expected).astype(int)
    for rank in np.argsort(counts - expected, kind="stable")[: count - int(counts.sum())]:
        counts[rank] += 1
    ranks = [rank for rank in range(size) for _ in range(counts[rank])]
    rng.shuffle(ranks)
    return ranks


def _by_popularity(rects: List[Rect2]) -> List[Rect2]:
    """Order ``rects`` so that Zipf rank ``r`` takes the rect at area
    quantile ``frac(0.5 + r * 0.618...)``, a fixed low-discrepancy pattern.

    Popularity stays independent of size, yet the heavy hitters sit at the
    same size quantiles for every seed; with random ranks, a seed whose
    top-ranked rect is huge (or tiny) moves every latency percentile.
    """
    by_area = sorted(rects, key=lambda r: (r[1][0] - r[0][0] + 1) * (r[1][1] - r[0][1] + 1))
    n = len(by_area)
    taken: set = set()
    order: List[Rect2] = []
    for rank in range(n):
        slot = int(((0.5 + rank * 0.6180339887498949) % 1.0) * n)
        while slot in taken:
            slot = (slot + 1) % n
        taken.add(slot)
        order.append(by_area[slot])
    return order


def scan_hot_inputs(
    seed: int, n_ops: int, n_points: int, hot_rects: int = 128, hot_centres: int = 24
) -> Inputs:
    """The scan mix drawn Zipf-style from a fixed hot set: rects (half
    Fig. 7, half Fig. 5, sizes stratified) and kNN centres."""
    rng = np.random.default_rng(seed)
    points = rng.integers(0, SIDE, size=(n_points, DIM), dtype=np.int64)
    rects = _by_popularity(_scan_rects(rng, hot_rects))
    centres: List[Tuple[int, int]] = []
    while len(centres) < hot_centres:
        centre = _cell(rng)
        if centre not in centres:
            centres.append(centre)
    kinds = _blocks(rng, n_ops, SCAN_MIX)
    rect_ranks = iter(_zipf_ranks(rng, len(rects), sum(kind != "knn" for kind in kinds)))
    centre_ranks = iter(_zipf_ranks(rng, hot_centres, sum(kind == "knn" for kind in kinds)))
    ops: List[Op] = []
    for kind in kinds:
        if kind == "knn":
            ops.append(("knn", centres[next(centre_ranks)]))
        else:
            ops.append((kind, rects[next(rect_ranks)]))
    return Inputs(points, ops, rects, centres)


def durable_inputs(seed: int, n_writes: int, n_points: int) -> Inputs:
    """~80% insert / 20% delete of a live point; a small-cube read every
    100 writes and a compacting checkpoint every 1,000.

    The write count is rounded to whole thousands plus 500, so the stream
    ends on a read with 500 writes logged after the last checkpoint:
    recovery then replays a real WAL suffix.
    """
    n_writes = 1000 * max(1, round(n_writes / 1000)) + 500
    rng = np.random.default_rng(seed)
    points = rng.integers(0, SIDE, size=(n_points, DIM), dtype=np.int64)
    live = [tuple(int(v) for v in p) for p in points]
    ops: List[Op] = []
    kinds = _blocks(rng, n_writes, ("insert",) * 8 + ("delete",) * 2)
    for i, kind in enumerate(kinds, start=1):
        if kind == "insert":
            cell = _cell(rng)
            live.append(cell)
            ops.append(("insert", cell))
        else:
            j = int(rng.integers(0, len(live)))
            live[j], live[-1] = live[-1], live[j]
            ops.append(("delete", live.pop()))
        if i % 100 == 0:
            ops.append(("read", _square(rng, 4, 16)))
        if i % 1000 == 0:
            ops.append(("checkpoint",))
    return Inputs(points, ops)


# ----------------------------------------------------------------------
# Oracles (numpy brute force, run outside the timed interval)
# ----------------------------------------------------------------------
def _in_rect(points: np.ndarray, rect: Rect2) -> np.ndarray:
    (x0, y0), (x1, y1) = rect
    return (
        (points[:, 0] >= x0) & (points[:, 0] <= x1)
        & (points[:, 1] >= y0) & (points[:, 1] <= y1)
    )


def _cells(records: Sequence) -> np.ndarray:
    return np.asarray([record.point for record in records], dtype=np.int64).reshape(-1, DIM)


class Oracle:
    """Brute-force answers: a per-cell count grid of the live points (kept
    in step with inserts and deletes) plus the initial point array for kNN
    and cursor order on the read-only workloads."""

    def __init__(self, points: np.ndarray, curve) -> None:
        self._curve = curve
        self.points = np.asarray(points, dtype=np.int64).reshape(-1, DIM)
        self.grid = np.zeros((SIDE, SIDE), dtype=np.int64)
        np.add.at(self.grid, (self.points[:, 0], self.points[:, 1]), 1)
        self._keys: Optional[np.ndarray] = None

    def insert(self, cell: Tuple[int, int]) -> None:
        self.grid[cell] += 1

    def delete(self, cell: Tuple[int, int]) -> bool:
        if self.grid[cell] <= 0:
            return False
        self.grid[cell] -= 1
        return True

    def range_ok(self, records: Sequence, rect: Rect2) -> bool:
        """Exactly the live records inside ``rect``, with multiplicity."""
        cells = _cells(records)
        (x0, y0), (x1, y1) = rect
        if not _in_rect(cells, rect).all():
            return False
        got = np.zeros((x1 - x0 + 1, y1 - y0 + 1), dtype=np.int64)
        np.add.at(got, (cells[:, 0] - x0, cells[:, 1] - y0), 1)
        return np.array_equal(got, self.grid[x0 : x1 + 1, y0 : y1 + 1])

    def all_ok(self, records: Sequence) -> bool:
        """``records`` are exactly every live record."""
        return self.range_ok(records, ((0, 0), (SIDE - 1, SIDE - 1)))

    def knn_ok(self, result, centre: Tuple[int, int]) -> bool:
        d2 = ((self.points - np.asarray(centre)) ** 2).sum(axis=1)
        k = min(K, len(d2))
        expected = np.sqrt(np.sort(np.partition(d2, k - 1)[:k]).astype(np.float64))
        return len(result.distances) == k and np.array_equal(
            np.asarray(result.distances, dtype=np.float64), expected
        )

    def cursor_ok(self, rows: Sequence, rect: Rect2) -> bool:
        """The first ``limit`` rows of the key-ordered materialized result."""
        if self._keys is None:
            self._keys = np.asarray(self._curve.index_many(self.points))
        mask = _in_rect(self.points, rect)
        order = np.argsort(self._keys[mask], kind="stable")[:CURSOR_LIMIT]
        return np.array_equal(_cells(rows), self.points[mask][order])


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class Workload:
    """One benchmark workload: inputs, set-up and the op executor."""

    name: str
    #: Ops (writes for ``durable_churn``) per second of ``--seconds``,
    #: summed over the rounds; fixed, so the op count is a function of
    #: ``--seconds`` alone.
    rate: float
    points: int
    make_inputs: Callable[[int, int, int], Inputs]
    durable: bool = False
    sharded: bool = False

    def inputs(self, seed: int, seconds: float) -> Inputs:
        """The op stream of one round (a run makes :data:`ROUNDS` of them)."""
        ops = max(1, round(self.rate * seconds / ROUNDS))
        return self.make_inputs(seed, ops, self.points)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "scan_cold",
            rate=240.0,
            points=50_000,
            make_inputs=scan_cold_inputs,
        ),
        Workload(
            "scan_hot_sharded",
            rate=240.0,
            points=50_000,
            make_inputs=scan_hot_inputs,
            sharded=True,
        ),
        Workload(
            "durable_churn",
            rate=3300.0,
            points=20_000,
            make_inputs=durable_inputs,
            durable=True,
        ),
    )
}


class Session:
    """Builds stores for one workload run and executes its ops."""

    def __init__(self, workload: Workload, inputs: Inputs, work_dir: Path) -> None:
        from repro import make_curve

        self.workload = workload
        self.inputs = inputs
        self.work_dir = work_dir
        self.curve = make_curve("onion", SIDE, DIM)
        self.point_list = [tuple(int(v) for v in p) for p in inputs.points]
        self.plans_distinct: Optional[int] = None
        self.buffer_pages = 0
        if workload.sharded:
            # Large enough for every page, so the hot loop never evicts.
            pages = -(-len(self.point_list) // 64)
            self.buffer_pages = 1 << (pages - 1).bit_length()

    # -- set-up -------------------------------------------------------
    def build(self, file_ops=None):
        """Construct, load and prepare one store (the timed set-up)."""
        from repro import SFCIndex, ShardedSFCIndex

        if self.workload.sharded:
            store = ShardedSFCIndex(
                self.curve, num_shards=SHARDS, buffer_pages=self.buffer_pages
            )
            store.bulk_load(self.point_list)
            store.flush()
            self._warm(store)
            return store
        if self.workload.durable:
            path = Path(tempfile.mkdtemp(prefix="store-", dir=self.work_dir))
            store = SFCIndex(
                self.curve, durable_path=path, durable_sync=True, durable_ops=file_ops
            )
            store.bulk_load(self.point_list)
            store.checkpoint(compact=True)
            return store
        store = SFCIndex(self.curve)
        store.bulk_load(self.point_list)
        store.flush()
        return store

    def _warm(self, store) -> None:
        """Plan and read the hot set once so the timed loop hits both caches."""
        from repro import Query, Rect

        for lo, hi in self.inputs.hot_rects:
            store.execute(Query.rect(Rect(lo, hi)))
        for centre in self.inputs.hot_centres:
            store.knn(centre, K)
        cache = store.plan_cache
        self.plans_distinct = len(cache)
        if cache.stats.evictions or self.plans_distinct > cache.capacity:
            raise RuntimeError(
                f"hot set needs {cache.stats.misses} plans; cache holds {cache.capacity}"
            )

    def discard(self, store) -> None:
        """Release a store: stop its filter pool, close and delete its WAL."""
        if store.executor is not None and hasattr(store.executor, "close"):
            store.executor.close()
        durability = store.durability
        if durability is not None:
            durability.close()
            shutil.rmtree(durability.root, ignore_errors=True)

    # -- ops ----------------------------------------------------------
    def perform(self, store, op: Op):
        """Run one op through the public store API and return its output."""
        from repro import Query, Rect

        kind = op[0]
        if kind == "range" or kind == "read":
            lo, hi = op[1]
            return store.execute(Query.rect(Rect(lo, hi)))
        if kind == "knn":
            return store.knn(op[1], K)
        if kind == "cursor":
            lo, hi = op[1]
            with store.cursor(Query.rect(Rect(lo, hi)).limit(CURSOR_LIMIT)) as cur:
                return cur.fetchall()
        if kind == "insert":
            return store.insert(op[1])
        if kind == "delete":
            return store.delete(op[1])
        if kind == "checkpoint":
            return store.checkpoint(compact=True)
        raise ValueError(f"unknown op {kind!r}")


#: Metric family each op kind's latency belongs to.
FAMILY = {
    "range": "range",
    "read": "range",
    "knn": "knn",
    "cursor": "stream",
    "insert": "write",
    "delete": "write",
    "checkpoint": "checkpoint",
}
