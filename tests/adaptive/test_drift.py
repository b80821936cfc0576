"""DriftDetector: pacing, regret verdicts, incremental re-scoring."""

import pytest

from repro.adaptive import DriftDetector, WorkloadRecorder
from repro.curves import make_curve
from repro.errors import InvalidQueryError

SIDE = 16


@pytest.fixture
def candidates():
    return [make_curve(name, SIDE, 2) for name in ("rowmajor", "onion", "hilbert")]


def feed(recorder, shape, n):
    for _ in range(n):
        recorder.record_executed(shape)


class TestVerdicts:
    def test_row_workload_keeps_rowmajor(self, candidates):
        recorder = WorkloadRecorder()
        feed(recorder, (SIDE, 1), 20)
        detector = DriftDetector(candidates, regret_threshold=0.1)
        report = detector.check(recorder, make_curve("rowmajor", SIDE, 2))
        assert not report.drifted
        assert report.best.curve.name == "rowmajor"
        assert report.regret == pytest.approx(0.0)

    def test_cube_workload_flags_rowmajor(self, candidates):
        recorder = WorkloadRecorder()
        feed(recorder, (10, 10), 20)
        detector = DriftDetector(candidates, regret_threshold=0.1)
        report = detector.check(recorder, make_curve("rowmajor", SIDE, 2))
        assert report.drifted
        assert report.best.curve.name == "onion"
        assert report.regret > 0.1
        assert report.incumbent.expected_seeks == pytest.approx(
            report.best.expected_seeks * (1 + report.regret)
        )

    def test_threshold_suppresses_small_regret(self, candidates):
        recorder = WorkloadRecorder()
        feed(recorder, (10, 10), 20)
        detector = DriftDetector(candidates, regret_threshold=100.0)
        report = detector.check(recorder, make_curve("rowmajor", SIDE, 2))
        assert not report.drifted  # regret real, but below the huge threshold
        assert report.regret > 0

    def test_decayed_mix_shifts_the_verdict(self, candidates):
        """Same event counts; decay makes the recent cubes dominate."""
        recorder = WorkloadRecorder(half_life=4.0)
        feed(recorder, (SIDE, 1), 30)
        feed(recorder, (10, 10), 30)
        detector = DriftDetector(candidates, regret_threshold=0.1)
        report = detector.check(recorder, make_curve("rowmajor", SIDE, 2))
        assert report.drifted

    def test_incumbent_outside_candidates_is_scored(self, candidates):
        recorder = WorkloadRecorder()
        feed(recorder, (4, 4), 10)
        detector = DriftDetector(candidates, regret_threshold=0.05)
        report = detector.check(recorder, make_curve("zorder", SIDE, 2))
        assert report.incumbent.curve.name == "zorder"
        assert any(s.curve.name == "zorder" for s in report.scores)

    def test_render_mentions_curves_and_verdict(self, candidates):
        recorder = WorkloadRecorder()
        feed(recorder, (10, 10), 20)
        detector = DriftDetector(candidates)
        report = detector.check(recorder, make_curve("rowmajor", SIDE, 2))
        text = report.render()
        assert "DRIFT" in text
        assert "incumbent" in text
        assert "rowmajor" in text


class TestPacing:
    def test_waits_for_min_observations(self, candidates):
        recorder = WorkloadRecorder()
        detector = DriftDetector(candidates, min_observations=10, check_interval=1)
        feed(recorder, (4, 4), 9)
        assert not detector.should_check(recorder)
        feed(recorder, (4, 4), 1)
        assert detector.should_check(recorder)

    def test_interval_between_checks(self, candidates):
        recorder = WorkloadRecorder()
        detector = DriftDetector(candidates, min_observations=1, check_interval=5)
        feed(recorder, (4, 4), 5)
        assert detector.should_check(recorder)
        detector.check(recorder, candidates[0])
        assert not detector.should_check(recorder)
        feed(recorder, (4, 4), 4)
        assert not detector.should_check(recorder)
        feed(recorder, (4, 4), 1)
        assert detector.should_check(recorder)

    def test_recorder_clear_resets_pacing(self, candidates):
        recorder = WorkloadRecorder()
        detector = DriftDetector(candidates, min_observations=2, check_interval=2)
        feed(recorder, (4, 4), 4)
        detector.check(recorder, candidates[0])
        recorder.clear()
        feed(recorder, (4, 4), 2)
        assert detector.should_check(recorder)


class TestIncrementalScoring:
    def test_cache_fills_once_then_reuses(self, candidates):
        recorder = WorkloadRecorder()
        feed(recorder, (4, 4), 10)
        feed(recorder, (8, 2), 10)
        detector = DriftDetector(candidates, min_observations=1, check_interval=1)
        incumbent = candidates[0]
        detector.check(recorder, incumbent)
        filled = detector.cache_size
        assert filled == len(candidates) * 2  # every (curve, shape) pair
        feed(recorder, (4, 4), 50)  # same shapes, new weights
        detector.check(recorder, incumbent)
        assert detector.cache_size == filled  # nothing recomputed
        feed(recorder, (2, 6), 10)  # a genuinely new shape
        detector.check(recorder, incumbent)
        assert detector.cache_size == filled + len(candidates)

    def test_cached_rescore_matches_fresh_detector(self, candidates):
        recorder = WorkloadRecorder()
        feed(recorder, (4, 4), 5)
        warm = DriftDetector(candidates)
        warm.check(recorder, candidates[0])
        feed(recorder, (10, 10), 40)
        cold = DriftDetector(candidates)
        a = warm.check(recorder, candidates[0])
        b = cold.check(recorder, candidates[0])
        assert a.drifted == b.drifted
        assert a.regret == pytest.approx(b.regret)


class TestGuards:
    def test_empty_candidates(self):
        with pytest.raises(InvalidQueryError):
            DriftDetector([])

    def test_bad_parameters(self, candidates):
        with pytest.raises(InvalidQueryError):
            DriftDetector(candidates, regret_threshold=-0.1)
        with pytest.raises(InvalidQueryError):
            DriftDetector(candidates, min_observations=0)
        with pytest.raises(InvalidQueryError):
            DriftDetector(candidates, check_interval=0)

    def test_check_with_no_observations(self, candidates):
        detector = DriftDetector(candidates)
        with pytest.raises(InvalidQueryError):
            detector.check(WorkloadRecorder(), candidates[0])
