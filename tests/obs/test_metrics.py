"""Unit tests for the metrics plane: registry, primitives, exposition.

The contracts the instrumentation relies on: a disabled registry is a
near-free no-op, quantiles come from log2 buckets with exact
single-value answers, exposition renders both Prometheus text and JSON,
and — CONTRIBUTING invariant 10 — a metric update must *never* raise
into the hot path it observes.
"""

from __future__ import annotations

import json
import threading
import warnings
from functools import partial

import pytest

from repro.obs import METRICS, MetricsRegistry, disable_metrics, enable_metrics
from repro.obs.metrics import _bucket_exponent


@pytest.fixture
def registry():
    return MetricsRegistry(enabled=True)


@pytest.fixture
def global_metrics():
    """Enable the process-wide registry for a test, then restore."""
    enable_metrics()
    METRICS.reset()
    yield METRICS
    METRICS.reset()
    disable_metrics()


# ---------------------------------------------------------------------------
# counters / gauges
# ---------------------------------------------------------------------------


def test_counter_increments(registry):
    c = registry.counter("repro_test_total", "help")
    c.inc()
    c.inc(4)
    assert c.value == 5


def test_counter_reads_without_itertools_pickle_support(registry):
    """Python 3.12 deprecates copy and pickle support for itertools
    objects and 3.14 removes it: a read must not go through it, and
    repeated reads must not count as increments."""
    c = registry.counter("repro_test_total", "help")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        for expected in (1, 2, 3):
            c.inc()
            assert c.value == expected
        assert c.value == 3
        c.reset()
        assert c.value == 0
        c.inc()
        assert c.value == 1


def test_counter_noop_when_disabled():
    registry = MetricsRegistry(enabled=False)
    c = registry.counter("repro_test_total", "help")
    c.inc(100)
    assert c.value == 0
    registry.enabled = True
    c.inc(2)
    assert c.value == 2


def test_counter_rejects_negative_and_nan(registry):
    c = registry.counter("repro_test_total", "help")
    c.inc(-1)
    c.inc(float("nan"))
    assert c.value == 0
    assert registry.errors == 2  # rejected, counted, never raised


def test_gauge_set_inc_dec(registry):
    g = registry.gauge("repro_test_gauge", "help")
    g.set(10)
    g.inc(5)
    g.dec(3)
    assert g.value == 12


def test_register_is_get_or_create(registry):
    a = registry.counter("repro_same_total", "help")
    b = registry.counter("repro_same_total", "help")
    assert a is b
    with pytest.raises(TypeError):
        registry.gauge("repro_same_total", "help")


# ---------------------------------------------------------------------------
# histogram / quantiles
# ---------------------------------------------------------------------------


def test_bucket_exponent_powers_of_two():
    # Exact powers of two land in the *lower* bucket (upper bound 2^e).
    assert _bucket_exponent(1.0) == 0
    assert _bucket_exponent(2.0) == 1
    assert _bucket_exponent(1.5) == 1
    assert _bucket_exponent(0.75) == 0
    assert _bucket_exponent(0.0) == -1074
    assert _bucket_exponent(-3.0) == -1074


def test_histogram_single_value_quantiles_are_exact(registry):
    h = registry.histogram("repro_test_seconds", "help")
    h.observe(0.125)
    snap = h.snapshot()
    assert snap["count"] == 1
    assert snap["p50"] == snap["p99"] == snap["p999"] == 0.125
    assert snap["min"] == snap["max"] == 0.125


def test_histogram_quantiles_bound_by_buckets(registry):
    h = registry.histogram("repro_test_seconds", "help")
    for value in [1.0] * 90 + [100.0] * 10:
        h.observe(value)
    snap = h.snapshot()
    assert snap["count"] == 100
    assert snap["sum"] == pytest.approx(90 + 1000)
    # p50 sits in the 1.0 bucket; its log2 upper bound is exactly 1.0.
    assert snap["p50"] == 1.0
    # p99 reaches the 100.0 bucket: upper bound 128, clamped to max 100.
    assert 100.0 <= snap["p99"] <= 128.0
    assert snap["p99"] == 100.0  # clamped to the observed max


def test_histogram_quantile_monotone(registry):
    h = registry.histogram("repro_test_seconds", "help")
    for i in range(1, 200):
        h.observe(i * 0.001)
    snap = h.snapshot()
    assert snap["p50"] <= snap["p99"] <= snap["p999"] <= snap["max"]
    assert snap["p50"] >= snap["min"]


def test_histogram_noop_when_disabled():
    registry = MetricsRegistry(enabled=False)
    h = registry.histogram("repro_test_seconds", "help")
    h.observe(1.0)
    assert h.snapshot()["count"] == 0


def test_histogram_never_raises_on_garbage(registry):
    h = registry.histogram("repro_test_seconds", "help")
    h.observe(float("nan"))
    h.observe(object())  # type: ignore[arg-type]
    # Garbage is vetted at fold time (any read folds); it must be
    # dropped and tallied, never raised.
    assert h.snapshot()["count"] == 0
    assert registry.errors >= 2


# ---------------------------------------------------------------------------
# exposition
# ---------------------------------------------------------------------------


def test_prometheus_exposition(registry):
    registry.counter("repro_seeks_total", "seeks charged").inc(7)
    registry.histogram("repro_latency_seconds", "wall time").observe(0.5)
    text = registry.render_prometheus()
    assert "# HELP repro_seeks_total seeks charged" in text
    assert "# TYPE repro_seeks_total counter" in text
    assert "repro_seeks_total 7" in text
    assert "# TYPE repro_latency_seconds summary" in text
    assert 'repro_latency_seconds{quantile="0.5"} 0.5' in text
    assert "repro_latency_seconds_count 1" in text


def test_json_exposition_round_trips(registry):
    registry.counter("repro_seeks_total", "seeks charged").inc(3)
    registry.gauge("repro_depth", "tree depth").set(2)
    registry.histogram("repro_latency_seconds", "wall time").observe(0.25)
    payload = json.loads(registry.render_json_text())
    assert payload["counters"]["repro_seeks_total"] == 3
    assert payload["gauges"]["repro_depth"] == 2
    assert payload["histograms"]["repro_latency_seconds"]["count"] == 1
    assert payload["histograms"]["repro_latency_seconds"]["p50"] == 0.25


def test_reset_zeroes_everything(registry):
    c = registry.counter("repro_total", "help")
    h = registry.histogram("repro_seconds", "help")
    c.inc(5)
    h.observe(1.0)
    registry.reset()
    assert c.value == 0
    assert h.snapshot()["count"] == 0


# ---------------------------------------------------------------------------
# thread safety
# ---------------------------------------------------------------------------


def test_concurrent_increments_do_not_lose_updates(registry):
    c = registry.counter("repro_total", "help")
    h = registry.histogram("repro_seconds", "help")
    n, threads = 2000, 8

    def work():
        for i in range(n):
            c.inc()
            h.observe(float(i % 7) + 0.5)

    workers = [threading.Thread(target=work) for _ in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    assert c.value == n * threads
    assert h.snapshot()["count"] == n * threads


def test_global_registry_picks_up_engine_counters(global_metrics):
    """End-to-end: a query through the front door moves the registry."""
    from repro.api import Query
    from repro.curves import make_curve
    from repro.geometry import Rect
    from repro.index import SFCIndex

    index = SFCIndex(make_curve("onion", 8, 2), page_capacity=4)
    index.bulk_load([(x, y) for x in range(8) for y in range(8)])
    index.flush()
    result = index.execute(Query.rect(Rect((0, 0), (5, 5))))

    seeks = global_metrics.get("repro_disk_seeks_total").value
    sequential = global_metrics.get("repro_disk_sequential_reads_total").value
    assert seeks >= result.seeks
    assert sequential >= result.sequential_reads
    assert global_metrics.get("repro_executor_queries_total").value == 1
    latency = global_metrics.get("repro_query_latency_seconds").snapshot()
    assert latency["count"] == 1
    assert latency["sum"] > 0


# ---------------------------------------------------------------------------
# metrics switched on mid-operation
# ---------------------------------------------------------------------------


def _switched_on(fn):
    """``fn``, enabling the global registry before it runs."""

    def switched(*args, **kwargs):
        enable_metrics()
        return fn(*args, **kwargs)

    return switched


def _small_store(shards=1):
    from repro.curves import make_curve
    from repro.index import SFCIndex, ShardedSFCIndex

    curve = make_curve("onion", 8, 2)
    if shards == 1:
        store = SFCIndex(curve, page_capacity=4)
    else:
        store = ShardedSFCIndex(curve, num_shards=shards, page_capacity=4)
    store.bulk_load([(x, y) for x in range(8) for y in range(8)])
    store.flush()
    return store


def _mid_execute(monkeypatch, tmp_path, shards=1, drain_cursor=False):
    """Execute (or drain a cursor) with metrics switched on at the first
    charged read pass, which every execution runs between its start time
    and its report: ``repro_query_latency_seconds``."""
    from repro.api import Query
    from repro.engine.executor import Executor
    from repro.geometry import Rect

    store = _small_store(shards)
    monkeypatch.setattr(Executor, "_read", _switched_on(Executor._read))
    query = Query.rect(Rect((0, 0), (5, 5)))
    if drain_cursor:
        return lambda: store.cursor(query).fetchall()
    return lambda: store.execute(query)


def _mid_plan(monkeypatch, tmp_path):
    """Plan with metrics switched on while the planner computes the key
    runs: ``repro_plan_latency_seconds``."""
    from repro.engine.planner import Planner
    from repro.geometry import Rect

    store = _small_store()
    monkeypatch.setattr(Planner, "key_runs", _switched_on(Planner.key_runs))
    return lambda: store.plan(Rect((1, 1), (6, 4)))


def _mid_knn(monkeypatch, tmp_path):
    """kNN search with metrics switched on at its first box expansion:
    ``repro_knn_latency_seconds``."""
    store = _small_store()
    monkeypatch.setattr(store, "execute", _switched_on(store.execute))
    return lambda: store.knn((3, 3), 4)


def _mid_wal_append(monkeypatch, tmp_path):
    """WAL append with metrics switched on when the frame is written:
    ``repro_wal_append_latency_seconds``."""
    from repro.storage.wal import FileOps, WriteAheadLog

    class SwitchingOps(FileOps):
        def write(self, handle, data):
            enable_metrics()
            super().write(handle, data)

    wal = WriteAheadLog(tmp_path / "ops.wal", ops=SwitchingOps(), sync=False)

    def append():
        try:
            wal.append(("insert", (1, 2), None))
        finally:
            wal.close()

    return append


@pytest.mark.parametrize(
    "operation",
    [
        _mid_execute,
        partial(_mid_execute, shards=3),
        partial(_mid_execute, drain_cursor=True),
        _mid_plan,
        _mid_knn,
        _mid_wal_append,
    ],
    ids=["execute", "execute-sharded", "cursor", "plan", "knn", "wal-append"],
)
def test_switching_metrics_on_mid_operation_records_no_bogus_latency(
    monkeypatch, tmp_path, operation
):
    """An operation that started with metrics off has no start time to
    measure from: it must skip its latency sample rather than record the
    raw clock as a duration."""
    disable_metrics()
    METRICS.reset()
    try:
        operation(monkeypatch, tmp_path)()
        assert METRICS.enabled, "the operation never switched metrics on"
        bogus = {
            name: snap["max"]
            for name, snap in METRICS.render_json()["histograms"].items()
            if snap["count"] and snap["max"] >= 1.0
        }
        assert bogus == {}
    finally:
        METRICS.reset()
        disable_metrics()
