"""Span shims installed from the benchmark around the store's layer entry points.

Nothing under ``src/`` is edited: :func:`install` replaces a fixed list of
public functions and methods with thin wrappers that record a span (name,
parent, duration, self time) into a :class:`Tracer`, and the returned
handle restores every original on ``remove()``.  Self time is a span's
duration minus the durations of its direct children, so the self times of
all spans inside one root add up to the root's duration.

Shims must be installed *before* a store is built: executors bind their
page reader (``disk.read`` / ``pool.read``) when they are constructed.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_MISSING = object()


class Span:
    """One finished span."""

    __slots__ = ("name", "parent", "root", "phase", "dur", "self_time", "extra")

    def __init__(self, name, parent, root, phase, dur, self_time, extra):
        self.name = name
        self.parent = parent
        self.root = root
        self.phase = phase
        self.dur = dur
        self.self_time = self_time
        self.extra = extra


class Tracer:
    """In-memory span recorder with a parent stack (one thread only).

    Spans opened on other threads (the sharded store's filter pool runs
    no shimmed function) would corrupt the stack, so every shimmed entry
    point is one the client thread calls.
    """

    def __init__(self) -> None:
        self.active = False
        self.phase = "setup"
        self.spans: List[Span] = []
        # Each frame: [name, accumulated child duration].
        self._stack: List[list] = []

    def _open(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, dur: float, extra: Any) -> None:
        stack = self._stack
        stack.pop()
        parent = stack[-1][0] if stack else None
        if stack:
            stack[-1][1] += dur
        root = stack[0][0] if stack else frame[0]
        self.spans.append(
            Span(frame[0], parent, root, self.phase, dur, dur - frame[1], extra)
        )

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``note(result)`` supplies span extras."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            started = clock()
            result = _MISSING
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = clock() - started
                extra = note(result) if note is not None and result is not _MISSING else None
                tracer._close(frame, dur, extra)

        return shim

    def span(self, name: str, extra: Any = None) -> "_SpanContext":
        """Context manager recording one span (no-op while inactive)."""
        return _SpanContext(self, name, extra)


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_frame", "_started", "extra")

    def __init__(self, tracer: Tracer, name: str, extra: Any) -> None:
        self._tracer = tracer
        self._name = name
        self._frame = None
        self.extra = extra

    def __enter__(self) -> "_SpanContext":
        if self._tracer.active:
            self._frame = self._tracer._open(self._name)
            self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self._frame is not None:
            dur = time.perf_counter() - self._started
            self._tracer._close(self._frame, dur, self.extra)


class Shims:
    """The installed wrappers; :meth:`remove` puts every original back."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()


def _page_len(page) -> int:
    return len(page)


def _plan_note(plan) -> int:
    return len(plan.runs)


def _execute_note(result) -> Tuple[int, int, int, int]:
    """``(runs, seeks, records, fan_out)`` of one plan execution."""
    return (
        result.runs,
        result.seeks,
        len(result.records),
        len(getattr(result, "per_shard", ())),
    )


def _knn_note(result) -> Tuple[int, int, int]:
    return (result.expansions, result.records_scanned, len(result.neighbors))


def _hit_note(plan) -> bool:
    return plan is not None


def install(tracer: Tracer, curve_type: type) -> Shims:
    """Wrap every traced entry point in a span recorded by ``tracer``."""
    from repro.api import knn as knn_module
    from repro.api.store import SpatialStore
    from repro.engine.cache import PlanCache
    from repro.engine.executor import Executor
    from repro.engine.planner import Planner
    from repro.engine.scatter import ScatterGatherExecutor
    from repro.storage import durable as durable_module
    from repro.storage import wal as wal_module
    from repro.storage.bplustree import BPlusTree
    from repro.storage.buffer import BufferPool
    from repro.storage.disk import SimulatedDisk

    shims = Shims()

    def method(owner, attr, name, note=None):
        shims.patch(owner, attr, tracer.wrap(name, getattr(owner, attr), note))

    method(Planner, "plan", "planner.plan", _plan_note)
    method(PlanCache, "get", "plan_cache.get", _hit_note)
    method(Executor, "execute", "executor.execute", _execute_note)
    method(Executor, "stream", "executor.stream")
    method(ScatterGatherExecutor, "execute", "scatter.execute", _execute_note)
    method(SimulatedDisk, "read", "disk.read", _page_len)
    method(BufferPool, "read", "buffer.read", _page_len)
    method(SpatialStore, "flush", "store.flush")
    method(SpatialStore, "bulk_load", "store.bulk_load")
    method(BPlusTree, "insert", "bplustree.insert")
    method(curve_type, "index", "curves.index")
    method(curve_type, "index_many", "curves.index_many")
    method(knn_module, "knn_search", "knn.search", _knn_note)
    method(wal_module.WriteAheadLog, "append", "wal.append")
    method(wal_module, "encode_op", "wal.encode_op")
    method(durable_module, "scan_wal", "recover.scan_wal")
    method(durable_module, "load_pages", "recover.load_pages")
    return shims


def timing_file_ops(tracer: Tracer):
    """A :class:`~repro.storage.wal.FileOps` whose primitives are spans.

    Passed through the public ``durable_ops=`` / ``recover(ops=)`` seam;
    ``bytes_written`` counts every byte handed to ``write``.
    """
    from repro.storage.wal import FileOps

    class TimingFileOps(FileOps):
        def __init__(self) -> None:
            self.bytes_written = 0

        def open_append(self, path):
            with tracer.span("fileops.open"):
                return super().open_append(path)

        def open_write(self, path):
            with tracer.span("fileops.open"):
                return super().open_write(path)

        def write(self, handle, data) -> None:
            self.bytes_written += len(data)
            with tracer.span("fileops.write", len(data)):
                super().write(handle, data)

        def fsync(self, handle) -> None:
            with tracer.span("fileops.fsync"):
                super().fsync(handle)

        def replace(self, src, dst) -> None:
            with tracer.span("fileops.replace"):
                super().replace(src, dst)

        def unlink(self, path) -> None:
            with tracer.span("fileops.unlink"):
                super().unlink(path)

        def truncate(self, path, size) -> None:
            with tracer.span("fileops.truncate"):
                super().truncate(path, size)

        def fsync_dir(self, path) -> None:
            with tracer.span("fileops.fsync_dir"):
                super().fsync_dir(path)

    return TimingFileOps()


def group(spans: List[Span], **where: Any) -> Dict[str, List[Span]]:
    """Spans matching every ``field=value`` filter, grouped by name."""
    out: Dict[str, List[Span]] = {}
    for span in spans:
        if all(getattr(span, key) == value for key, value in where.items()):
            out.setdefault(span.name, []).append(span)
    return out
