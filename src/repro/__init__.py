"""repro — reproduction of "Onion Curve: A Space Filling Curve with
Near-Optimal Clustering" (Xu, Nguyen, Tirthapura; ICDE 2018).

The package provides:

* :mod:`repro.curves` — the onion curve (2-d, 3-d, and the n-d extension)
  plus the Hilbert, Z, Gray-code, row/column-major and snake baselines;
* :mod:`repro.core` — exact clustering-number computation, query
  generators and range-query planning;
* :mod:`repro.analysis` — the paper's closed forms (Theorems 1–6,
  Lemmas 7–8), exact O(n) averages, lower bounds and approximation ratios;
* :mod:`repro.storage` / :mod:`repro.index` — a simulated disk, B+-tree
  and SFC-keyed spatial index that turn clustering numbers into seeks;
* :mod:`repro.engine` — the planner/executor split behind the index:
  immutable :class:`QueryPlan` objects priced by one :class:`CostModel`,
  an LRU :class:`PlanCache`, key-ordered batch execution, and
  the scatter–gather serving half (:class:`ShardedPlanner`,
  :class:`ScatterGatherExecutor`) behind :class:`ShardedSFCIndex`;
* :mod:`repro.api` — the one front door: the :class:`SpatialStore`
  protocol both indexes implement, the immutable :class:`Query`
  builder (multi-rect unions, predicates, limits, projections),
  streaming :class:`Cursor` results with O(page) peak residency, and
  kNN by expanding curve-range search;
* :mod:`repro.adaptive` — the workload-adaptive control plane: live
  query-shape telemetry (:class:`WorkloadRecorder`), drift detection
  against the exact advisor (:class:`DriftDetector`), and online curve
  migration with epoch cutover (:class:`OnlineMigrator`,
  :class:`AdaptiveController`);
* :mod:`repro.experiments` — regeneration of every table and figure.

Quickstart::

    from repro import make_curve, Rect, clustering_number
    onion = make_curve("onion", side=64, dim=2)
    hilbert = make_curve("hilbert", side=64, dim=2)
    query = Rect.from_origin((10, 10), (40, 40))
    clustering_number(onion, query), clustering_number(hilbert, query)

Plan, inspect, execute::

    from repro import SFCIndex
    index = SFCIndex(onion, page_capacity=16)
    index.bulk_load([(x, y) for x in range(64) for y in range(64)])
    index.flush()
    print(index.explain(query))            # estimated seeks == clustering
    result = index.range_query(query)      # measured seeks
    batch = index.range_query_batch([query.translate((1, 0))] * 100)

Shard it (identical records, seeks and pages — proven by the
differential suite — plus per-shard attribution; ``parallel_cost`` is
a simulated cost-model estimate, nothing runs in parallel)::

    from repro import ShardedSFCIndex
    sharded = ShardedSFCIndex(onion, num_shards=8, page_capacity=16)
    sharded.bulk_load([(x, y) for x in range(64) for y in range(64)])
    sharded.flush()
    result = sharded.range_query(query)    # same records/seeks as above
    result.per_shard, result.parallel_cost(workers=4)

One front door (composable queries, streaming, kNN — same surface on
both indexes via the :class:`SpatialStore` protocol)::

    from repro import Query
    q = Query.union_of([query, query.translate((5, 5))]).limit(100)
    with index.cursor(q) as cur:           # O(page) peak memory
        rows = list(cur)
    index.execute(q)                       # materialized
    index.knn((10, 12), k=5)               # expanding range search
"""

from .curves import (
    ColumnMajorCurve,
    GrayCodeCurve,
    HilbertCurve,
    OnionCurve2D,
    OnionCurve3D,
    OnionCurveND,
    RowMajorCurve,
    SnakeCurve,
    SpaceFillingCurve,
    ZOrderCurve,
    curve_names,
    make_curve,
)
from .core import (
    average_clustering,
    clustering_distribution,
    clustering_number,
    query_runs,
    sweep_average_clustering,
    sweep_clustering_grid,
)
from .engine import (
    BatchResult,
    CostModel,
    ExecutionPolicy,
    Executor,
    PlanCache,
    Planner,
    QueryPlan,
    RangeQueryResult,
    ScatterGatherExecutor,
    ShardedPlan,
    ShardedPlanner,
)
from .api import (
    ANY,
    Cursor,
    CursorStats,
    KNNResult,
    Query,
    QueryResult,
    RectUnion,
    SpatialStore,
)
from .storage import CrashInjector, Durability, InjectedCrash, RecoveryReport, recover
from .errors import ReproError
from .geometry import Rect
from .index import SFCIndex, ShardedSFCIndex, advise, advise_histogram
from .adaptive import (
    AdaptiveController,
    DriftDetector,
    MigrationReport,
    OnlineMigrator,
    WorkloadRecorder,
)
from .obs import (
    EVENTS,
    METRICS,
    EventStream,
    MetricsRegistry,
    Span,
    Trace,
    disable_metrics,
    enable_metrics,
    start_trace,
)

__version__ = "1.5.0"

__all__ = [
    "SpaceFillingCurve",
    "OnionCurve2D",
    "OnionCurve3D",
    "OnionCurveND",
    "HilbertCurve",
    "ZOrderCurve",
    "GrayCodeCurve",
    "RowMajorCurve",
    "ColumnMajorCurve",
    "SnakeCurve",
    "make_curve",
    "curve_names",
    "Rect",
    "clustering_number",
    "clustering_distribution",
    "average_clustering",
    "query_runs",
    "sweep_average_clustering",
    "sweep_clustering_grid",
    "SFCIndex",
    "ShardedSFCIndex",
    "SpatialStore",
    "ANY",
    "CrashInjector",
    "Durability",
    "InjectedCrash",
    "RecoveryReport",
    "recover",
    "Query",
    "Cursor",
    "CursorStats",
    "QueryResult",
    "KNNResult",
    "RectUnion",
    "BatchResult",
    "CostModel",
    "ExecutionPolicy",
    "Executor",
    "PlanCache",
    "Planner",
    "QueryPlan",
    "RangeQueryResult",
    "ScatterGatherExecutor",
    "ShardedPlan",
    "ShardedPlanner",
    "advise",
    "advise_histogram",
    "AdaptiveController",
    "DriftDetector",
    "MigrationReport",
    "OnlineMigrator",
    "WorkloadRecorder",
    "EVENTS",
    "METRICS",
    "EventStream",
    "MetricsRegistry",
    "Span",
    "Trace",
    "disable_metrics",
    "enable_metrics",
    "start_trace",
    "ReproError",
    "__version__",
]
