"""The VegaPlus benchmark suite (Section 6 of the paper).

Contents:

* :mod:`repro.bench.templates` — the seven dashboard templates (two static
  charts, two single-view interactive charts, three interactive
  dashboards), each parameterisable with any of the synthetic datasets;
* :mod:`repro.bench.workload` — interaction simulation: populating a
  template with randomly chosen fields and generating interaction
  sequences ("sessions") from each template's signal types;
* :mod:`repro.bench.harness` — executing candidate plans (initial render +
  interaction sessions) to collect latencies, plan vectors and training
  pairs;
* :mod:`repro.bench.experiments` — one runner per table/figure of the
  paper's evaluation (Tables 1-5, Figures 6-9);
* :mod:`repro.bench.concurrency` — the concurrent multi-session workload
  driver (N users × scenario, latency percentiles, serial-equivalence
  checking) behind the Figure 10 extension benchmark;
* :mod:`repro.bench.ivm` — the sliding-brush trajectory driver behind the
  Figure 13 extension benchmark (incremental view maintenance vs plain
  re-execution, with exact row-identity checking);
* :mod:`repro.bench.resultsdb` — the persistent SQLite results store
  (``runs`` + ``task_results``) and the trajectory-aware comparison
  engine behind ``tools/benchdb.py`` and the CI regression gate;
* :mod:`repro.bench.reporting` — small helpers to format result tables,
  run listings and trajectory comparisons;
* :mod:`repro.bench.reference` — naive row-at-a-time group / sort /
  distinct, the reference the engine's kernels are tested and timed
  against.
"""

from repro.bench.workload import InteractionWorkload, WorkloadGenerator, TemplateInstance
from repro.bench.harness import (
    BenchmarkHarness,
    PlanMeasurement,
    SessionMeasurement,
    run_metadata,
)
from repro.bench.resultsdb import ComparisonReport, ResultsDB
from repro.bench.concurrency import (
    CONCURRENCY_SCENARIOS,
    ConcurrencyResult,
    build_sessions,
    run_scenario,
)
from repro.bench.ivm import (
    IVMPoint,
    IVMRunResult,
    brush_trajectory,
    headline_ivm_point,
    ivm_points,
    run_ivm_trajectory,
)
from repro.bench.templates import all_templates, get_template

__all__ = [
    "InteractionWorkload",
    "WorkloadGenerator",
    "TemplateInstance",
    "BenchmarkHarness",
    "PlanMeasurement",
    "SessionMeasurement",
    "run_metadata",
    "ComparisonReport",
    "ResultsDB",
    "CONCURRENCY_SCENARIOS",
    "ConcurrencyResult",
    "build_sessions",
    "run_scenario",
    "IVMPoint",
    "IVMRunResult",
    "brush_trajectory",
    "headline_ivm_point",
    "ivm_points",
    "run_ivm_trajectory",
    "all_templates",
    "get_template",
]
