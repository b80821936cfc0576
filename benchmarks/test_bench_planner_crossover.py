"""Micro-benchmark justifying the planner's curve-aware vectorize rule.

The planner routes run construction through the O(volume) bulk
``index_many`` path or the curve's structural path (boundary shell /
prefix blocks).  The old rule was a hardcoded ``volume <= 1024``; the
new rule is curve-aware: boundary-capable curves vectorize while
``volume <= VECTORIZE_SURFACE_RATIO × surface_cells``; prefix-contiguous
and exhaustive-only curves vectorize up to a large volume cap, because
their structural alternative (per-block Python recursion, or the same
exhaustive scan) measures slower than one bulk kernel call at every
realistic size.  This file measures both paths across rect sizes and
asserts the heuristic picks the faster side away from the crossover —
the empirical justification for the constants.
"""

import time

import pytest

from repro.core.runs import query_runs, query_runs_vectorized
from repro.curves import make_curve
from repro.engine.planner import VECTORIZE_SURFACE_RATIO, Planner
from repro.geometry import Rect

SIDE = 128


def _time(fn, *args, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _measure(curve, length):
    rect = Rect.from_origin((3, 5), (length, length))
    return (
        _time(query_runs_vectorized, curve, rect),
        _time(query_runs, curve, rect),
    )


@pytest.mark.parametrize("name", ["hilbert", "onion"])
def test_boundary_curves_heuristic_picks_winner_away_from_crossover(name):
    """At the extremes the measured winner matches the heuristic choice."""
    curve = make_curve(name, SIDE, 2)
    planner = Planner(curve)

    small = Rect.from_origin((3, 5), (4, 4))  # volume 16, surface 12
    big = Rect.from_origin((3, 5), (100, 100))  # volume 10000, surface 396
    assert planner._use_vectorized(small)
    assert not planner._use_vectorized(big)

    vec_small, bound_small = _measure(curve, 4)
    vec_big, bound_big = _measure(curve, 100)
    # Generous 3x slack: best-of-5 microsecond timings still jitter on
    # loaded CI runners; locally the winners lead by 2.5-6x.
    assert vec_small <= bound_small * 3, (name, vec_small, bound_small)
    assert bound_big <= vec_big * 3, (name, bound_big, vec_big)


@pytest.mark.parametrize("name", ["zorder", "gray"])
def test_prefix_curves_vectorize_at_all_realistic_sizes(name):
    """The per-block prefix recursion loses to the bulk kernel even on
    large rects, so the heuristic keeps prefix curves on the bulk path."""
    curve = make_curve(name, SIDE, 2)
    planner = Planner(curve)
    big = Rect.from_origin((3, 5), (100, 100))
    assert planner._use_vectorized(big)
    vec_big, prefix_big = _measure(curve, 100)
    # Locally the bulk kernel leads ~9x; 3x slack absorbs runner noise.
    assert vec_big <= prefix_big * 3, (name, vec_big, prefix_big)


def test_ratio_is_conservative_for_square_rects():
    """The measured crossover sits above the heuristic ratio, so the
    heuristic only vectorizes clear wins (never routes a large rect to
    the O(volume) path)."""
    curve = make_curve("hilbert", SIDE, 2)
    measured_crossover = None
    # The sweep runs up to the largest square that fits the grid from
    # origin (3, 5): on some machines the two paths tie near ℓ = 64, so
    # a sweep that stopped there found no crossover about half the time.
    for length in (4, 8, 16, 24, 32, 48, 64, 96, 120):
        vec, bound = _measure(curve, length)
        if vec > bound:
            measured_crossover = length
            break
    if measured_crossover is None:
        pytest.skip("vectorized path never lost on this machine")
    # ratio rule: vectorize while volume <= ratio * surface; for an
    # ℓ×ℓ square that is ℓ² <= ratio · (4ℓ − 4), i.e. ℓ ≲ 4·ratio.
    heuristic_crossover = 4 * VECTORIZE_SURFACE_RATIO
    assert heuristic_crossover <= measured_crossover * 2


def test_bench_vectorized_small(benchmark):
    curve = make_curve("hilbert", SIDE, 2)
    rect = Rect.from_origin((3, 5), (8, 8))
    benchmark(query_runs_vectorized, curve, rect)


def test_bench_boundary_small(benchmark):
    curve = make_curve("hilbert", SIDE, 2)
    rect = Rect.from_origin((3, 5), (8, 8))
    benchmark(query_runs, curve, rect)


def test_bench_vectorized_large(benchmark):
    curve = make_curve("hilbert", SIDE, 2)
    rect = Rect.from_origin((3, 5), (100, 100))
    benchmark(query_runs_vectorized, curve, rect)


def test_bench_boundary_large(benchmark):
    curve = make_curve("hilbert", SIDE, 2)
    rect = Rect.from_origin((3, 5), (100, 100))
    benchmark(query_runs, curve, rect)
