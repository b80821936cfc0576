"""The immutable ``Query`` builder and the ``RectUnion`` region."""

import pytest

from repro.api import Query, RectUnion
from repro.engine.plan import ExecutionPolicy
from repro.errors import InvalidQueryError
from repro.geometry import Rect

R1 = Rect((0, 0), (3, 3))
R2 = Rect((2, 2), (6, 7))


class TestConstruction:
    def test_rect_from_rect(self):
        q = Query.rect(R1)
        assert q.rects == (R1,)
        assert q.is_plain

    def test_rect_from_corners(self):
        assert Query.rect((0, 0), (3, 3)).rects == (R1,)

    def test_rect_rejects_non_rect(self):
        with pytest.raises(InvalidQueryError):
            Query.rect((0, 0))

    def test_union_of(self):
        q = Query.union_of([R1, R2])
        assert q.rects == (R1, R2)
        assert isinstance(q.region, RectUnion)

    def test_single_rect_region_is_the_rect(self):
        assert Query.rect(R1).region is R1

    def test_empty_union_rejected(self):
        with pytest.raises(InvalidQueryError):
            Query.union_of([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(InvalidQueryError):
            Query.union_of([R1, Rect((0, 0, 0), (1, 1, 1))])

    def test_of_coerces_rect_and_passes_query(self):
        q = Query.rect(R1)
        assert Query.of(q) is q
        assert Query.of(R1).rects == (R1,)
        with pytest.raises(InvalidQueryError):
            Query.of("not a query")


class TestBuilderImmutability:
    def test_each_step_returns_a_new_query(self):
        base = Query.rect(R1)
        limited = base.limit(5)
        filtered = limited.where(lambda r: True)
        projected = filtered.select(lambda r: r.point)
        hinted = projected.hint(gap_tolerance=4)
        assert base.max_rows is None and base.predicate is None
        assert limited.max_rows == 5 and limited is not base
        assert filtered.predicate is not None
        assert projected.projection is not None
        assert hinted.policy == ExecutionPolicy(gap_tolerance=4)
        # the earlier stages kept their hints
        assert projected.policy == ExecutionPolicy()

    def test_where_composes_conjunctively(self):
        class R:
            def __init__(self, point):
                self.point = point

        q = (
            Query.rect(R1)
            .where(lambda r: r.point[0] > 0)
            .where(lambda r: r.point[1] > 1)
        )
        assert q.predicate(R((1, 2)))
        assert not q.predicate(R((0, 2)))
        assert not q.predicate(R((1, 0)))

    def test_policy_hint_wins_over_gap(self):
        policy = ExecutionPolicy(gap_tolerance=9)
        q = Query.rect(R1).hint(gap_tolerance=1, policy=policy)
        assert q.policy is policy

    def test_plainness(self):
        assert Query.union_of([R1, R2]).hint(gap_tolerance=3).is_plain
        assert not Query.rect(R1).limit(1).is_plain
        assert not Query.rect(R1).where(lambda r: True).is_plain
        assert not Query.rect(R1).select(lambda r: r.point).is_plain

    def test_negative_limit_rejected(self):
        with pytest.raises(InvalidQueryError):
            Query.rect(R1).limit(-1)

    def test_row_applies_projection(self):
        class R:
            point = (1, 2)

        q = Query.rect(R1).select(lambda r: r.point)
        assert q.row(R()) == (1, 2)
        assert Query.rect(R1).row("record") == "record"


class TestRectUnion:
    def test_bounding_box_telemetry(self):
        union = RectUnion((R1, R2))
        assert union.lo == (0, 0)
        assert union.hi == (6, 7)
        assert union.lengths == (7, 8)
        assert union.dim == 2

    def test_validation(self):
        with pytest.raises(InvalidQueryError):
            RectUnion(())
        with pytest.raises(InvalidQueryError):
            RectUnion((R1, Rect((0, 0, 0), (1, 1, 1))))

    def test_str_mentions_every_rect(self):
        text = str(RectUnion((R1, R2)))
        assert str(R1) in text and str(R2) in text
