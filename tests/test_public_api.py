"""The public API surface: imports, __all__ integrity, docstrings."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.curves",
    "repro.core",
    "repro.analysis",
    "repro.storage",
    "repro.index",
    "repro.engine",
    "repro.costmodel",
    "repro.engine.cost",
    "repro.engine.plan",
    "repro.engine.planner",
    "repro.engine.cache",
    "repro.engine.executor",
    "repro.engine.scatter",
    "repro.api",
    "repro.api.query",
    "repro.api.store",
    "repro.api.cursor",
    "repro.api.knn",
    "repro.index.partition",
    "repro.index.sharded",
    "repro.experiments",
    "repro.geometry",
    "repro.errors",
    "repro.visualize",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
class TestModuleSurface:
    def test_imports(self, module_name):
        importlib.import_module(module_name)

    def test_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip()

    def test_all_entries_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists {name}"


class TestTopLevelApi:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_quickstart_names_available(self):
        from repro import (  # noqa: F401
            Rect,
            SFCIndex,
            average_clustering,
            clustering_number,
            curve_names,
            make_curve,
            query_runs,
        )

    def test_engine_names_available(self):
        from repro import (  # noqa: F401
            BatchResult,
            CostModel,
            ExecutionPolicy,
            Executor,
            PlanCache,
            Planner,
            QueryPlan,
            RangeQueryResult,
        )

    def test_front_door_names_available(self):
        from repro import (  # noqa: F401
            Cursor,
            CursorStats,
            KNNResult,
            Query,
            QueryResult,
            RectUnion,
            SpatialStore,
        )

    def test_indexes_implement_the_store_protocol(self):
        from repro import SFCIndex, ShardedSFCIndex, SpatialStore

        assert issubclass(SFCIndex, SpatialStore)
        assert issubclass(ShardedSFCIndex, SpatialStore)

    def test_public_callables_have_docstrings(self):
        import repro

        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not isinstance(obj, type):
                assert obj.__doc__, f"repro.{name} lacks a docstring"

    def test_curve_classes_documented(self):
        import repro

        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type):
                assert obj.__doc__, f"repro.{name} lacks a docstring"

    def test_registry_covers_exported_curves(self):
        from repro import curve_names

        names = set(curve_names())
        assert {"onion", "hilbert", "peano", "zorder", "gray", "snake"} <= names

    def test_import_loads_no_lint_machinery(self):
        """Production modules import only ``guarded_by`` from
        ``repro.devtools``; the analyzers, findings and config stay
        unloaded by ``import repro``."""
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import sys, repro; "
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.startswith('repro.devtools'))))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["repro.devtools", "repro.devtools.annotations"]
