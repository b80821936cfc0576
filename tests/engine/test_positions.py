"""Carried record positions: every plan shape holds what a search finds.

A plan resolved against a layout carries each scan run's record
positions, found by the same search of the key column that found its
page spans (:meth:`~repro.engine.plan.PageLayout.resolve`), and the
executor slices the record column at them without searching again.  So
for every plan shape — a planned plan, a :func:`merge_plans` union,
each fragment :func:`scatter_plan` clips, and a layout-free plan an
executor resolves on the spot — the positions must equal
``layout.bounds(plan.scan_runs)``, which a bisect over the key column
confirms, the page spans must equal ``layout.spans(plan.scan_runs)``,
and the pages the plan reads must be those spans' pages, in order.
"""

import bisect

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import merge_plans
from repro.curves import make_curve
from repro.engine import ExecutionPolicy, Planner, ShardedPlanner
from repro.engine.scatter import scatter_plan
from repro.geometry import Rect
from repro.index import ShardedSFCIndex

#: Every registry curve that builds in 2-d at side 8 (peano needs a
#: power of 3).
CURVE_NAMES = [
    "onion", "onion-nd", "hilbert", "zorder", "gray", "snake", "rowmajor", "columnmajor",
]
SIDE = 8


def _rect(rng):
    lo = rng.integers(0, SIDE, size=2)
    hi = np.minimum(lo + rng.integers(0, SIDE, size=2), SIDE - 1)
    return Rect(tuple(int(v) for v in lo), tuple(int(v) for v in hi))


def _assert_resolved(plan, positions, layout, context):
    """``positions`` of ``plan``'s scan runs, and the spans and pages
    they imply, are the search's, run by run."""
    assert positions.keys is layout.keys, context
    lo, hi = layout.bounds(plan.scan_runs)
    assert (list(positions.lo), list(positions.hi)) == (list(lo), list(hi)), context
    spans = positions.spans()
    assert spans == layout.spans(plan.scan_runs), context
    assert list(positions.pages) == [
        page for first, last in spans for page in range(first, last + 1)
    ], context
    keys = layout.keys.tolist()
    for (start, end), run_lo, run_hi in zip(plan.scan_runs, positions.lo, positions.hi):
        assert run_lo == bisect.bisect_left(keys, start), context
        assert run_hi == bisect.bisect_right(keys, end), context


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(CURVE_NAMES),
    num_shards=st.integers(1, 8),
    page_capacity=st.sampled_from([1, 4, 64]),
    gap=st.sampled_from([0, 2]),
    seed=st.integers(0, 2**31),
)
def test_every_plan_shape_carries_the_searched_positions(
    name, num_shards, page_capacity, gap, seed
):
    rng = np.random.default_rng(seed)
    curve = make_curve(name, SIDE, 2)
    points = [tuple(map(int, p)) for p in rng.integers(0, SIDE, size=(60, 2))]
    store = ShardedSFCIndex(curve, num_shards=num_shards, page_capacity=page_capacity)
    store.bulk_load(points)
    policy = ExecutionPolicy(gap_tolerance=gap)
    rects = [_rect(rng), _rect(rng)]
    splans = [store.plan(rect, policy=policy) for rect in rects]
    layout = store.page_layout
    union = merge_plans([splan.plan for splan in splans], layout)
    layout_free = [
        Planner(curve).plan(rects[0], policy),
        merge_plans([splan.plan for splan in splans]),
    ] + [
        fragment.plan
        for fragment in ShardedPlanner(curve, store.shards).plan(rects[0], policy).fragments
    ]
    assert all(plan.positions is None for plan in layout_free)
    shapes = (
        [("planned", splan.plan) for splan in splans]
        + [("union", union)]
        + [
            (f"fragment {fragment.shard_id}", fragment.plan)
            for splan in splans + [scatter_plan(union, store.shards, layout=layout)]
            for fragment in splan.fragments
        ]
    )
    for shape, plan in shapes:
        context = f"{shape} ({name}, {num_shards} shards, cap {page_capacity}, gap {gap})"
        _assert_resolved(plan, plan.positions, layout, context)
        assert plan.page_spans == plan.positions.spans(), context
        # An executor takes the positions the plan carries, searching nothing.
        assert plan.positions_in(layout) is plan.positions, context
    for plan in layout_free:
        _assert_resolved(plan, plan.positions_in(layout), layout, f"layout-free ({name})")
