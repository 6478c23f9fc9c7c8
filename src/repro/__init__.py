"""repro: a reproduction of VegaPlus (SIGMOD 2024).

"Optimizing Dataflow Systems for Scalable Interactive Visualization"
(Yang, Joo, Yerramreddy, Moritz, Battle; Proc. ACM Manag. Data 2(1),
Article 21) describes VegaPlus, a system that scales interactive Vega
dashboards by partitioning dataflow execution between the browser and a
backend DBMS using a learned pairwise plan comparator.

This package re-implements the full stack in Python:

* :mod:`repro.sql` - an in-memory columnar SQL engine (the DBMS substrate),
* :mod:`repro.backends` - the pluggable server-side backend seam (the
  embedded engine's :class:`~repro.sql.engine.Database` plus a stdlib
  ``sqlite3`` backend),
* :mod:`repro.dataflow` / :mod:`repro.vega` - a reactive Vega-like dataflow
  runtime and specification layer (the client substrate),
* :mod:`repro.expr` - the Vega expression language and its SQL translation,
* :mod:`repro.rewrite` - query rewriting into VDT operators,
* :mod:`repro.net` - the middleware, caches, codecs and network model,
* :mod:`repro.server` - the concurrent serving runtime (per-client
  sessions, single-flight request scheduler, admission statistics),
* :mod:`repro.ml` - from-scratch RankSVM and Random Forest,
* :mod:`repro.core` - the VegaPlus optimizer (enumeration, encoding,
  pairwise comparators, session consolidation) and the end-to-end system,
* :mod:`repro.baselines` - native Vega and VegaFusion-like baselines,
* :mod:`repro.bench` - the benchmark suite (7 dashboard templates,
  interaction simulation, per-table/figure experiment runners).

Quickstart::

    from repro import VegaPlusSystem, create_backend
    from repro.datasets import generate_dataset
    from repro.bench.templates import interactive_histogram

    rows = generate_dataset("flights", 100_000)
    backend = create_backend("embedded")   # or "sqlite"
    backend.register_rows("flights", rows)
    template = interactive_histogram()
    spec = template.build_spec("flights", {"value": "delay"})
    system = VegaPlusSystem(spec, backend)
    system.optimize()
    print(system.initialize().total_seconds)
"""

from repro.sql import Database
from repro.backends import (
    SQLBackend,
    SqliteBackend,
    backend_names,
    create_backend,
)
from repro.core import (
    VegaPlusSystem,
    VegaPlusOptimizer,
    ExecutionPlan,
    PlanEnumerator,
    PlanEncoder,
    RankSVMComparator,
    RandomForestComparator,
    HeuristicComparator,
    RandomComparator,
)
from repro.server import ClientSession, RequestScheduler, SessionManager
from repro.baselines import VegaNativeSystem, VegaFusionSystem

__version__ = "0.4.0"

__all__ = [
    "Database",
    "SQLBackend",
    "SqliteBackend",
    "backend_names",
    "create_backend",
    "VegaPlusSystem",
    "VegaPlusOptimizer",
    "ExecutionPlan",
    "PlanEnumerator",
    "PlanEncoder",
    "RankSVMComparator",
    "RandomForestComparator",
    "HeuristicComparator",
    "RandomComparator",
    "VegaNativeSystem",
    "VegaFusionSystem",
    "ClientSession",
    "RequestScheduler",
    "SessionManager",
    "__version__",
]
