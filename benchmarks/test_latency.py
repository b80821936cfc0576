"""The ``BENCH_*`` latency columns are nearest-rank order statistics."""

from _latency import summarize_latencies


def test_percentiles_are_samples_at_nearest_rank():
    summary = summarize_latencies([0.003, 0.001, 0.100, 0.002], prefix="q")
    assert summary == {"q_p50_ms": 2.0, "q_p99_ms": 100.0, "q_samples": 4}
