"""Curve-based sharding of spatial data across workers — now served live.

The paper's introduction cites distributed partitioning (WSDM'16) and
parallel simulation load balancing as SFC applications: data is sharded
into contiguous curve-key ranges, and a range query must contact every
shard one of its key runs touches.  Curves with better clustering touch
fewer shards per query, which is fewer network round trips.

Earlier versions of this example only *measured* shards touched; it now
runs the real serving layer: a ``ShardedSFCIndex`` per curve scatters
each query into per-shard fragments, gathers the records in key order,
and proves along the way that sharding is observationally transparent —
the same records, seeks and pages as an unsharded index.

Run with::

    python examples/distributed_partitioning.py
"""

import numpy as np

from repro import Rect, SFCIndex, ShardedSFCIndex, make_curve

SIDE = 128
NUM_SHARDS = 8
QUERIES_PER_SIZE = 30
NUM_POINTS = 4000
SEED = 11


def main() -> None:
    rng = np.random.default_rng(SEED)
    curve_names = ("onion", "hilbert", "zorder", "rowmajor")
    points = [tuple(map(int, p)) for p in rng.integers(0, SIDE, size=(NUM_POINTS, 2))]

    indexes = {}
    for name in curve_names:
        index = ShardedSFCIndex(
            make_curve(name, SIDE, 2), num_shards=NUM_SHARDS, page_capacity=16
        )
        index.bulk_load(points)
        index.flush()
        indexes[name] = index

    print(
        f"{NUM_SHARDS} shards over a {SIDE}x{SIDE} grid, {NUM_POINTS} points; "
        f"average shards contacted per query (measured on the live query path)\n"
    )
    header = f"{'query size':<14}" + "".join(f"{n:>10}" for n in curve_names)
    print(header)
    print("-" * len(header))
    for extent in (4, 16, 48, 96, 120):
        rects = []
        for _ in range(QUERIES_PER_SIZE):
            origin = rng.integers(0, SIDE - extent + 1, size=2)
            rects.append(Rect.from_origin(tuple(origin), (extent, extent)))
        cells = ""
        for name in curve_names:
            batch = indexes[name].range_query_batch(rects)
            cells += f"{batch.total_fan_out / len(rects):>10.2f}"
        print(f"{extent:>3}x{extent:<10}{cells}")

    # Shard-transparency: the sharded layer reads exactly what a single
    # index would — same records, same seeks, same pages.
    onion = indexes["onion"]
    single = SFCIndex(onion.curve, page_capacity=16)
    single.bulk_load(points)
    single.flush()
    query = Rect.from_origin((30, 40), (48, 48))
    a, b = single.range_query(query), onion.range_query(query)
    print(
        f"\ntransparency check on {query}: "
        f"records {len(a.records)} == {len(b.records)}, "
        f"seeks {a.seeks} == {b.seeks}, pages {a.pages_read} == {b.pages_read}"
    )
    assert a.records == b.records and a.seeks == b.seeks

    # The scatter-gather plan, and what the cost model prices parallel
    # shard workers at (a simulated estimate; shards are filtered inline).
    print("\n" + onion.explain(query))
    result = onion.range_query(query)
    print(
        f"\nscattered over {result.fan_out} shards: "
        f"{result.parallel_cost(workers=1):.1f} sim-ms on one worker, "
        f"{result.parallel_cost():.1f} sim-ms with a worker per shard"
    )

    # Balanced sharding on skewed data: rebalance re-cuts at quantiles.
    print("\nbalanced shards on skewed data (onion curve):")
    hotspot = rng.normal(SIDE // 3, SIDE / 16, size=(5000, 2))
    skewed = [
        tuple(map(int, p))
        for p in np.clip(hotspot.round().astype(int), 0, SIDE - 1)
    ]
    skewed_index = ShardedSFCIndex(
        make_curve("onion", SIDE, 2), num_shards=NUM_SHARDS, page_capacity=16
    )
    skewed_index.bulk_load(skewed)
    print(f"  equal-key-range loads:   {list(skewed_index.shard_loads)}")
    skewed_index.rebalance()
    print(f"  rebalanced shard loads:  {list(skewed_index.shard_loads)}")


if __name__ == "__main__":
    main()
