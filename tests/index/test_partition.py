"""Curve-range partitioning."""

import numpy as np
import pytest

from repro.curves import make_curve
from repro.errors import InvalidQueryError
from repro.geometry import Rect
from repro.index import (
    average_shards_touched,
    balanced_shards,
    equal_key_shards,
    shard_of_key,
    shards_touched,
)


class TestEqualKeyShards:
    def test_partition_covers_key_space(self):
        curve = make_curve("onion", 8, 2)
        shards = equal_key_shards(curve, 4)
        assert shards[0][0] == 0
        assert shards[-1][1] == curve.size - 1
        for (_, prev_end), (next_start, _) in zip(shards, shards[1:]):
            assert next_start == prev_end + 1

    def test_near_equal_sizes(self):
        curve = make_curve("onion", 8, 2)
        shards = equal_key_shards(curve, 5)
        sizes = [e - s + 1 for s, e in shards]
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("side", [3_037_000_499, 2**32])
    def test_cuts_are_exact_past_float64(self, side):
        """Shard ``i`` starts at ``size * i // num_shards``, in integers,
        where a float cut would miss the last key or overflow."""
        curve = make_curve("onion", side, 2)
        n = curve.size
        starts = [n * i // 8 for i in range(8)]
        assert equal_key_shards(curve, 8) == list(zip(starts, [s - 1 for s in starts[1:]] + [n - 1]))

    def test_cuts_that_floats_made_do_not_move(self):
        """Up to 13 shards, the integer cuts are the float cuts the store
        made before, at every side up to 128 in dims 1 to 3."""
        for dim in (2, 3):
            for side in range(2, 129, 2 if dim == 3 else 1):
                curve = make_curve("onion", side, dim)
                for shards in range(1, min(14, curve.size + 1)):
                    floats = np.linspace(0, curve.size, shards + 1, dtype=np.int64)
                    assert [lo for lo, _ in equal_key_shards(curve, shards)] == floats[:-1].tolist()

    def test_guards(self):
        curve = make_curve("onion", 8, 2)
        with pytest.raises(InvalidQueryError):
            equal_key_shards(curve, 0)
        with pytest.raises(InvalidQueryError):
            equal_key_shards(curve, curve.size + 1)


class TestBalancedShards:
    def test_balances_skewed_keys(self, rng):
        keys = np.concatenate(
            [rng.integers(0, 100, size=900), rng.integers(100, 4096, size=100)]
        )
        shards = balanced_shards(keys.tolist(), 4, 4096)
        loads = [int(((keys >= s) & (keys <= e)).sum()) for s, e in shards]
        assert max(loads) <= 2 * min(loads) + 1

    def test_covers_key_space(self):
        shards = balanced_shards([5, 10, 20, 30], 2, 64)
        assert shards[0][0] == 0
        assert shards[-1][1] == 63

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidQueryError):
            balanced_shards([], 2, 64)

    def test_small_sample_splits_instead_of_emptying_a_shard(self):
        """Regression: the cut rank used to land *on* the final key, pulling
        the whole sample into the first shard ([(0, 63)] for this input)."""
        assert balanced_shards([0, 63], 2, 64) == [(0, 0), (1, 63)]
        shards = balanced_shards([5, 10, 20, 30], 2, 64)
        loads = [sum(1 for k in (5, 10, 20, 30) if s <= k <= e) for s, e in shards]
        assert loads == [2, 2]

    def test_keys_outside_key_space_rejected(self):
        """Regression: a key >= key_space silently produced a shard map
        extending past the domain (end 100 in a 64-key space)."""
        with pytest.raises(InvalidQueryError):
            balanced_shards([100], 2, 64)
        with pytest.raises(InvalidQueryError):
            balanced_shards([-1, 5], 2, 64)

    def test_more_shards_than_keys_degrades_gracefully(self):
        # One sampled key cannot be split: a single covering shard.
        assert balanced_shards([5], 4, 64) == [(0, 63)]
        # Two keys, five shards: one cut, both shards non-empty.
        shards = balanced_shards([5, 9], 5, 64)
        assert shards == [(0, 5), (6, 63)]
        assert len(shards) <= 5

    def test_more_shards_than_distinct_keys(self):
        shards = balanced_shards([7] * 10, 4, 64)
        assert shards[0][0] == 0 and shards[-1][1] == 63
        for (_, prev_end), (next_start, _) in zip(shards, shards[1:]):
            assert next_start == prev_end + 1

    def test_every_map_covers_and_is_contiguous(self, rng):
        for _ in range(25):
            size = int(rng.integers(1, 40))
            num = int(rng.integers(1, 12))
            keys = rng.integers(0, 256, size=size).tolist()
            shards = balanced_shards(keys, num, 256)
            assert shards[0][0] == 0 and shards[-1][1] == 255
            assert 1 <= len(shards) <= num
            for (_, prev_end), (next_start, _) in zip(shards, shards[1:]):
                assert next_start == prev_end + 1
            for key in keys:  # every sampled key has a home shard
                shard_of_key(shards, key)


class TestShardLookup:
    def test_shard_of_key(self):
        shards = [(0, 9), (10, 19), (20, 63)]
        assert shard_of_key(shards, 0) == 0
        assert shard_of_key(shards, 9) == 0
        assert shard_of_key(shards, 10) == 1
        assert shard_of_key(shards, 63) == 2

    def test_uncovered_key_rejected(self):
        with pytest.raises(InvalidQueryError):
            shard_of_key([(0, 9)], 10)

    def test_every_boundary_key_resolves(self):
        """Both endpoints of every shard resolve to that shard — the edge
        the serving layer routes on."""
        curve = make_curve("hilbert", 8, 2)
        shards = equal_key_shards(curve, 5)
        for shard_id, (lo, hi) in enumerate(shards):
            assert shard_of_key(shards, lo) == shard_id
            assert shard_of_key(shards, hi) == shard_id

    def test_negative_and_past_end_keys_rejected(self):
        shards = [(0, 9), (10, 19)]
        with pytest.raises(InvalidQueryError):
            shard_of_key(shards, -1)
        with pytest.raises(InvalidQueryError):
            shard_of_key(shards, 20)
        with pytest.raises(InvalidQueryError):
            shard_of_key([], 0)


class TestShardsTouched:
    def test_full_universe_touches_everything(self):
        curve = make_curve("onion", 8, 2)
        shards = equal_key_shards(curve, 4)
        rect = Rect((0, 0), (7, 7))
        assert shards_touched(curve, rect, shards) == {0, 1, 2, 3}

    def test_single_cell_touches_one(self):
        curve = make_curve("onion", 8, 2)
        shards = equal_key_shards(curve, 4)
        touched = shards_touched(curve, Rect((3, 3), (3, 3)), shards)
        assert len(touched) == 1

    def test_touched_set_matches_brute_force(self, rng):
        curve = make_curve("hilbert", 16, 2)
        shards = equal_key_shards(curve, 6)
        for _ in range(20):
            lo = rng.integers(0, 16, size=2)
            hi = np.minimum(lo + rng.integers(0, 8, size=2), 15)
            rect = Rect(tuple(lo), tuple(hi))
            keys = curve.index_many(rect.cells_array())
            expected = {shard_of_key(shards, int(k)) for k in keys}
            assert shards_touched(curve, rect, shards) == expected

    def test_runs_ending_exactly_on_shard_boundaries(self):
        """A key run that starts or ends exactly on a shard's boundary key
        must touch that shard and not its neighbour."""
        curve = make_curve("rowmajor", 8, 2)  # key = 8*y + x: runs are rows
        shards = [(0, 7), (8, 23), (24, 63)]
        # Row y=0 is keys [0, 7]: exactly shard 0.
        assert shards_touched(curve, Rect((0, 0), (7, 0)), shards) == {0}
        # Keys {7, 15}: one run ends on shard 0's last key, the other sits
        # in shard 1 — both shards, nothing else.
        assert shards_touched(curve, Rect((7, 0), (7, 1)), shards) == {0, 1}
        # Row y=1 is keys [8, 15], starting on shard 1's first key.
        assert shards_touched(curve, Rect((0, 1), (7, 1)), shards) == {1}
        # Row y=2 ends at key 23, the last key of shard 1.
        assert shards_touched(curve, Rect((0, 2), (7, 2)), shards) == {1}
        # Row y=3 starts at key 24, the first key of shard 2.
        assert shards_touched(curve, Rect((0, 3), (7, 3)), shards) == {2}

    def test_average(self):
        curve = make_curve("onion", 8, 2)
        shards = equal_key_shards(curve, 4)
        rects = [Rect((0, 0), (7, 7)), Rect((3, 3), (3, 3))]
        assert average_shards_touched(curve, rects, shards) == pytest.approx(2.5)

    def test_empty_workload_rejected(self):
        curve = make_curve("onion", 8, 2)
        with pytest.raises(InvalidQueryError):
            average_shards_touched(curve, [], equal_key_shards(curve, 2))
