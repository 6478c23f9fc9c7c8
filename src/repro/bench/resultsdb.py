"""Persistent benchmark results: a SQLite store with a trajectory gate.

Benchmark output used to live in one committed snapshot
(``benchmarks/results/BENCH_smoke_summary.json``), which answers "what
did the last run measure" but not "is this run *slower than it used to
be*".  Following the run-table design of experiment runners (every run
is a row with config, machine and timestamp; per-task results hang off
it), this module lands every benchmark run in a small SQLite database:

``runs``
    one row per ingested benchmark run — git SHA, timestamp, machine
    fingerprint, python version, backend(s), ``REPRO_BENCH_SCALE``,
    worker/partition configuration, and the source files ingested.

``task_results``
    one row per experiment of a run — the canonical experiment key
    (``<test name>[<backend>]``), scenario label, median/min/mean
    seconds, p50/p95/p99 latency percentiles, row counts, zone-map
    pruning rate, single-flight coalescing rate and speedup-vs-serial,
    plus the raw ``extra_info`` JSON for anything schema-less.

On top of the store sits a **comparison engine**: the latest run is
compared per experiment against the *trajectory* — the median of the
last N runs recorded on the same machine fingerprint — rather than a
single snapshot, so one noisy CI run can neither hide a real regression
nor fake one.  Runs from different machine fingerprints are never
compared.  ``tools/benchdb.py`` exposes ``ingest`` / ``list`` /
``compare`` / ``trend`` verbs over this module, and CI runs the compare
as a regression gate (see ``docs/REPRODUCING.md``).

This module is also the **single source of truth for the benchmark
field names** shared with ``tools/summarize_bench.py``: the percentile
keys, the lifted scalar metrics and the per-experiment summary entry
layout are defined here once (:data:`PERCENTILE_KEYS`,
:data:`LIFTED_RATE_KEYS`, :func:`summary_entry`), so the committed
summary, the raw BENCH json and the results DB always agree on what
``p95`` or ``pruning_rate`` is called.
"""

from __future__ import annotations

import json
import platform
import sqlite3
import statistics
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

# --------------------------------------------------------------------------- #
# Shared benchmark-JSON schema (one source of truth for field names)
# --------------------------------------------------------------------------- #

#: Version tag of the compact summary documents this schema produces.
SUMMARY_SCHEMA = "bench-summary/v1"

#: Latency percentile keys recorded under ``extra_info.latency_percentiles``.
PERCENTILE_KEYS: tuple[str, ...] = ("p50", "p95", "p99")

#: Scalar metrics lifted from ``extra_info`` to the top of a summary entry.
LIFTED_RATE_KEYS: tuple[str, ...] = (
    "coalescing_rate",
    "pruning_rate",
    "speedup_vs_serial",
    "throughput_rps",
    "transport_speedup",
)


def experiment_key(name: str, backend: str | None) -> str:
    """Canonical experiment key: ``<test name>[<backend>]``.

    Backend-independent experiments (the SQL kernel micro-benchmarks)
    keep their bare name.
    """
    return f"{name}[{backend}]" if backend else name


def summary_entry(stats: dict, extra: dict) -> dict:
    """One experiment's compact summary entry from raw benchmark stats.

    This is the layout committed in ``BENCH_smoke_summary.json`` *and*
    the field set :class:`ResultsDB` ingests — change it here and both
    consumers move together.
    """
    entry: dict = {
        "median_seconds": round(float(stats["median"]), 6),
        "min_seconds": round(float(stats["min"]), 6),
        "mean_seconds": round(float(stats["mean"]), 6),
        "rounds": int(stats["rounds"]),
        "extra_info": extra,
    }
    percentiles = extra.get("latency_percentiles")
    if isinstance(percentiles, dict):
        entry["latency_percentiles"] = {
            name: round(float(value), 6) for name, value in sorted(percentiles.items())
        }
    for key in LIFTED_RATE_KEYS:
        if key in extra:
            entry[key] = round(float(extra[key]), 4)
    return entry


def iter_raw_experiments(raw: dict):
    """Yield ``(experiment key, summary entry)`` from a raw pytest-benchmark
    JSON document (the format ``--benchmark-json`` writes)."""
    for benchmark in raw.get("benchmarks", []):
        extra = benchmark.get("extra_info", {})
        key = experiment_key(benchmark["name"], extra.get("backend"))
        yield key, summary_entry(benchmark["stats"], extra)


def iter_summary_experiments(summary: dict):
    """Yield ``(experiment key, summary entry)`` from a compact summary
    document (``schema: bench-summary/v1``)."""
    yield from summary.get("experiments", {}).items()


def is_raw_document(document: dict) -> bool:
    """True for pytest-benchmark raw output, False for our summaries."""
    return "benchmarks" in document


def machine_fingerprint(machine_info: dict | None) -> str:
    """Stable machine-class identifier from pytest-benchmark machine info.

    ``<cpu brand>|<arch>|py<major.minor>`` — coarse on purpose: the same
    CI runner class across runs maps to one fingerprint, while a laptop
    and a CI VM never compare against each other.
    """
    machine_info = machine_info or {}
    cpu = machine_info.get("cpu", {}) or {}
    brand = cpu.get("brand_raw") or machine_info.get("processor") or "unknown-cpu"
    arch = machine_info.get("machine") or platform.machine() or "unknown-arch"
    python = machine_info.get("python_version") or platform.python_version()
    major_minor = ".".join(str(python).split(".")[:2])
    return f"{brand}|{arch}|py{major_minor}"


def local_machine_info() -> dict:
    """Machine info for the current host, shaped like pytest-benchmark's."""
    brand = platform.processor() or None
    if not brand:
        try:
            for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
                if line.lower().startswith("model name"):
                    brand = line.split(":", 1)[1].strip()
                    break
        except OSError:
            brand = None
    return {
        "machine": platform.machine(),
        "python_version": platform.python_version(),
        "cpu": {"brand_raw": brand or "unknown-cpu"},
    }


def current_git_sha(repo_root: Path | None = None) -> str | None:
    """HEAD commit SHA, or ``None`` outside a git checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root or Path(__file__).resolve().parents[3],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


# --------------------------------------------------------------------------- #
# Records
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class RunRecord:
    """One ingested benchmark run (a row of ``runs``)."""

    run_id: int
    ingested_at: str
    run_at: str | None
    git_sha: str | None
    machine: str
    python: str | None
    backends: tuple[str, ...]
    bench_scale: float | None
    source: str
    config: dict
    n_results: int = 0


@dataclass(frozen=True)
class TaskResult:
    """One experiment's metrics within a run (a row of ``task_results``)."""

    run_id: int
    experiment: str
    scenario: str | None
    backend: str | None
    median_seconds: float | None
    min_seconds: float | None
    mean_seconds: float | None
    rounds: int | None
    p50_seconds: float | None
    p95_seconds: float | None
    p99_seconds: float | None
    n_rows: int | None
    pruning_rate: float | None
    coalescing_rate: float | None
    speedup_vs_serial: float | None
    throughput_rps: float | None
    transport_speedup: float | None
    extra: dict = field(default_factory=dict)

    def gate_metric(self) -> tuple[str, float] | None:
        """(metric name, value) the regression gate tracks for this row.

        Tail latency when the experiment records percentiles (the number
        users feel), otherwise the median wall time of the benchmark.
        """
        if self.p95_seconds is not None:
            return ("p95_seconds", self.p95_seconds)
        if self.median_seconds is not None:
            return ("median_seconds", self.median_seconds)
        return None


#: Comparison verdicts, ordered worst-first for reporting.
VERDICT_REGRESSION = "regression"
VERDICT_IMPROVEMENT = "improvement"
VERDICT_OK = "ok"
VERDICT_NEW = "new"


@dataclass(frozen=True)
class ExperimentDelta:
    """One experiment's delta against its stored trajectory."""

    experiment: str
    metric: str
    current: float
    baseline: float | None
    baseline_runs: int
    delta_ratio: float | None
    verdict: str


@dataclass
class ComparisonReport:
    """A run compared against the trajectory on its machine class."""

    run_id: int
    machine: str
    git_sha: str | None
    threshold: float
    baseline_window: int
    min_seconds: float
    deltas: list[ExperimentDelta] = field(default_factory=list)

    @property
    def regressions(self) -> list[ExperimentDelta]:
        return [d for d in self.deltas if d.verdict == VERDICT_REGRESSION]

    @property
    def improvements(self) -> list[ExperimentDelta]:
        return [d for d in self.deltas if d.verdict == VERDICT_IMPROVEMENT]

    @property
    def new_experiments(self) -> list[ExperimentDelta]:
        return [d for d in self.deltas if d.verdict == VERDICT_NEW]

    @property
    def passed(self) -> bool:
        return not self.regressions


@dataclass(frozen=True)
class TrendPoint:
    """One run's value of one experiment metric, in trajectory order."""

    run_id: int
    run_at: str | None
    git_sha: str | None
    machine: str
    value: float


# --------------------------------------------------------------------------- #
# The store
# --------------------------------------------------------------------------- #

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id      INTEGER PRIMARY KEY AUTOINCREMENT,
    ingested_at TEXT NOT NULL,
    run_at      TEXT,
    git_sha     TEXT,
    machine     TEXT NOT NULL,
    python      TEXT,
    backends    TEXT NOT NULL DEFAULT '[]',
    bench_scale REAL,
    source      TEXT NOT NULL DEFAULT '',
    config      TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS task_results (
    result_id         INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id            INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    experiment        TEXT NOT NULL,
    scenario          TEXT,
    backend           TEXT,
    median_seconds    REAL,
    min_seconds       REAL,
    mean_seconds      REAL,
    rounds            INTEGER,
    p50_seconds       REAL,
    p95_seconds       REAL,
    p99_seconds       REAL,
    n_rows            INTEGER,
    pruning_rate      REAL,
    coalescing_rate   REAL,
    speedup_vs_serial REAL,
    throughput_rps    REAL,
    transport_speedup REAL,
    extra             TEXT NOT NULL DEFAULT '{}',
    UNIQUE (run_id, experiment)
);
CREATE INDEX IF NOT EXISTS idx_task_results_experiment
    ON task_results (experiment, run_id);
CREATE INDEX IF NOT EXISTS idx_runs_machine ON runs (machine, run_id);
"""


class ResultsDB:
    """SQLite-backed store of benchmark runs and per-experiment results.

    Parameters
    ----------
    path:
        Database file (created on first use), or ``":memory:"``.
    """

    #: Default on-disk location, next to the committed summary.
    DEFAULT_PATH = Path("benchmarks/results/bench_results.db")

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._connection = sqlite3.connect(self.path)
        self._connection.row_factory = sqlite3.Row
        self._connection.execute("PRAGMA foreign_keys = ON")
        self._connection.executescript(_SCHEMA)
        self._migrate()
        self._connection.commit()

    def _migrate(self) -> None:
        """Bring a pre-existing database up to the current schema.

        ``CREATE TABLE IF NOT EXISTS`` does nothing for databases created
        by older code (CI restores them from cache), so columns added
        since then are patched in with ``ALTER TABLE``; old rows read
        back as NULL for the new metrics, which every consumer accepts.
        """
        existing = {
            row["name"]
            for row in self._connection.execute("PRAGMA table_info(task_results)")
        }
        for column, kind in (
            ("throughput_rps", "REAL"),
            ("transport_speedup", "REAL"),
        ):
            if column not in existing:
                self._connection.execute(
                    f"ALTER TABLE task_results ADD COLUMN {column} {kind}"
                )

    # -- lifecycle ------------------------------------------------------- #
    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "ResultsDB":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- ingest ---------------------------------------------------------- #
    def ingest(
        self,
        documents: list[dict] | dict,
        source: str = "",
        git_sha: str | None = None,
        run_at: str | None = None,
        metadata: dict | None = None,
    ) -> int:
        """Record one benchmark run from parsed BENCH JSON documents.

        ``documents`` may be raw pytest-benchmark output and/or compact
        summaries, in any mix; all experiments land under **one** run
        row (one CI job = one run).  Returns the new ``run_id``.

        ``metadata`` (see :func:`repro.bench.harness.run_metadata`)
        supplies or overrides the run-level fields: ``git_sha``,
        ``machine`` (fingerprint), ``python``, ``bench_scale`` and any
        extra configuration, which is stored verbatim in ``config``.
        """
        if isinstance(documents, dict):
            documents = [documents]
        if not documents:
            raise ValueError("no documents to ingest")
        metadata = dict(metadata or {})

        machine = metadata.pop("machine", None)
        python = metadata.pop("python", None)
        bench_scale = metadata.pop("bench_scale", None)
        git_sha = git_sha or metadata.pop("git_sha", None)
        experiments: dict[str, dict] = {}
        fingerprints: set[str] = set()
        for document in documents:
            if is_raw_document(document):
                machine_info = document.get("machine_info") or {}
                fingerprints.add(machine_fingerprint(machine_info))
                python = python or machine_info.get("python_version")
                git_sha = git_sha or (document.get("commit_info") or {}).get("id")
                run_at = run_at or document.get("datetime")
                entries = iter_raw_experiments(document)
            else:
                for name in document.get("machine", []):
                    fingerprints.add(f"{name}|py{document.get('python', ['?'])[0]}")
                entries = iter_summary_experiments(document)
            for key, entry in entries:
                if key in experiments:
                    continue  # first occurrence wins, matching the summariser
                experiments[key] = entry
        if not experiments:
            raise ValueError(f"no experiments found in {source or 'documents'}")

        if machine is None:
            if len(fingerprints) > 1:
                raise ValueError(
                    f"documents span multiple machine fingerprints: {sorted(fingerprints)}; "
                    "ingest them as separate runs"
                )
            machine = next(iter(fingerprints)) if fingerprints else machine_fingerprint(None)

        backends = sorted(
            {
                str(entry["extra_info"].get("backend"))
                for entry in experiments.values()
                if entry.get("extra_info", {}).get("backend")
            }
        )
        if bench_scale is None:
            scales = {
                float(entry["extra_info"]["scale"])
                for entry in experiments.values()
                if "scale" in entry.get("extra_info", {})
            }
            bench_scale = scales.pop() if len(scales) == 1 else None

        cursor = self._connection.execute(
            "INSERT INTO runs (ingested_at, run_at, git_sha, machine, python,"
            " backends, bench_scale, source, config)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                datetime.now(timezone.utc).isoformat(timespec="seconds"),
                run_at,
                git_sha,
                machine,
                python,
                json.dumps(backends),
                bench_scale,
                source,
                json.dumps(metadata, sort_keys=True, default=str),
            ),
        )
        run_id = int(cursor.lastrowid)
        for key, entry in sorted(experiments.items()):
            self._insert_result(run_id, key, entry)
        self._connection.commit()
        return run_id

    def ingest_files(
        self,
        paths: list[Path] | list[str],
        git_sha: str | None = None,
        metadata: dict | None = None,
    ) -> int:
        """Ingest BENCH JSON files as one run; returns the ``run_id``."""
        documents = [
            json.loads(Path(path).read_text(encoding="utf-8")) for path in paths
        ]
        source = ", ".join(Path(path).name for path in paths)
        return self.ingest(documents, source=source, git_sha=git_sha, metadata=metadata)

    def _insert_result(self, run_id: int, key: str, entry: dict) -> None:
        extra = entry.get("extra_info", {}) or {}
        percentiles = entry.get("latency_percentiles") or {}
        n_rows = extra.get("n_rows")
        self._connection.execute(
            "INSERT INTO task_results (run_id, experiment, scenario, backend,"
            " median_seconds, min_seconds, mean_seconds, rounds,"
            " p50_seconds, p95_seconds, p99_seconds, n_rows,"
            " pruning_rate, coalescing_rate, speedup_vs_serial, throughput_rps,"
            " transport_speedup, extra)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                run_id,
                key,
                extra.get("scenario"),
                extra.get("backend"),
                _opt_float(entry.get("median_seconds")),
                _opt_float(entry.get("min_seconds")),
                _opt_float(entry.get("mean_seconds")),
                entry.get("rounds"),
                _opt_float(percentiles.get("p50")),
                _opt_float(percentiles.get("p95")),
                _opt_float(percentiles.get("p99")),
                int(n_rows) if n_rows is not None else None,
                _opt_float(entry.get("pruning_rate")),
                _opt_float(entry.get("coalescing_rate")),
                _opt_float(entry.get("speedup_vs_serial")),
                _opt_float(entry.get("throughput_rps")),
                _opt_float(entry.get("transport_speedup")),
                json.dumps(extra, sort_keys=True, default=str),
            ),
        )

    # -- queries --------------------------------------------------------- #
    def runs(self, machine: str | None = None) -> list[RunRecord]:
        """All runs, oldest first, optionally restricted to one machine."""
        sql = (
            "SELECT r.*, COUNT(t.result_id) AS n_results FROM runs r"
            " LEFT JOIN task_results t ON t.run_id = r.run_id"
        )
        params: tuple = ()
        if machine is not None:
            sql += " WHERE r.machine = ?"
            params = (machine,)
        sql += " GROUP BY r.run_id ORDER BY r.run_id"
        return [_run_record(row) for row in self._connection.execute(sql, params)]

    def run(self, run_id: int) -> RunRecord:
        row = self._connection.execute(
            "SELECT r.*, COUNT(t.result_id) AS n_results FROM runs r"
            " LEFT JOIN task_results t ON t.run_id = r.run_id"
            " WHERE r.run_id = ? GROUP BY r.run_id",
            (run_id,),
        ).fetchone()
        if row is None or row["run_id"] is None:
            raise KeyError(f"no run {run_id}")
        return _run_record(row)

    def latest_run_id(self, machine: str | None = None) -> int | None:
        sql = "SELECT MAX(run_id) AS latest FROM runs"
        params: tuple = ()
        if machine is not None:
            sql += " WHERE machine = ?"
            params = (machine,)
        row = self._connection.execute(sql, params).fetchone()
        return int(row["latest"]) if row and row["latest"] is not None else None

    def results_for_run(self, run_id: int) -> list[TaskResult]:
        rows = self._connection.execute(
            "SELECT * FROM task_results WHERE run_id = ? ORDER BY experiment",
            (run_id,),
        ).fetchall()
        return [_task_result(row) for row in rows]

    def experiments(self, machine: str | None = None) -> list[str]:
        """Distinct experiment keys, optionally for one machine class."""
        sql = "SELECT DISTINCT t.experiment FROM task_results t"
        params: tuple = ()
        if machine is not None:
            sql += " JOIN runs r ON r.run_id = t.run_id WHERE r.machine = ?"
            params = (machine,)
        sql += " ORDER BY t.experiment"
        return [row["experiment"] for row in self._connection.execute(sql, params)]

    def trajectory(
        self,
        experiment: str,
        machine: str,
        metric: str = "p95_seconds",
        before_run: int | None = None,
        limit: int | None = None,
    ) -> list[tuple[int, float]]:
        """``(run_id, value)`` history of one experiment metric, newest first.

        Only runs recorded on ``machine`` participate — trajectories
        never mix machine classes.
        """
        _check_metric(metric)
        sql = (
            f"SELECT t.run_id, t.{metric} AS value FROM task_results t"
            " JOIN runs r ON r.run_id = t.run_id"
            f" WHERE t.experiment = ? AND r.machine = ? AND t.{metric} IS NOT NULL"
        )
        params: list = [experiment, machine]
        if before_run is not None:
            sql += " AND t.run_id < ?"
            params.append(before_run)
        sql += " ORDER BY t.run_id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        return [
            (int(row["run_id"]), float(row["value"]))
            for row in self._connection.execute(sql, params)
        ]

    def trend(
        self,
        experiment: str,
        metric: str = "p95_seconds",
        machine: str | None = None,
    ) -> list[TrendPoint]:
        """Full history of one experiment metric, oldest first."""
        _check_metric(metric)
        sql = (
            f"SELECT t.run_id, r.run_at, r.git_sha, r.machine, t.{metric} AS value"
            " FROM task_results t JOIN runs r ON r.run_id = t.run_id"
            f" WHERE t.experiment = ? AND t.{metric} IS NOT NULL"
        )
        params: list = [experiment]
        if machine is not None:
            sql += " AND r.machine = ?"
            params.append(machine)
        sql += " ORDER BY t.run_id"
        return [
            TrendPoint(
                run_id=int(row["run_id"]),
                run_at=row["run_at"],
                git_sha=row["git_sha"],
                machine=row["machine"],
                value=float(row["value"]),
            )
            for row in self._connection.execute(sql, params)
        ]

    # -- comparison engine ----------------------------------------------- #
    def compare(
        self,
        run_id: int | None = None,
        baseline_window: int = 5,
        threshold: float = 0.25,
        min_seconds: float = 0.002,
    ) -> ComparisonReport:
        """Compare a run (default: latest) against its stored trajectory.

        For every experiment of the run, the baseline is the **median of
        the last ``baseline_window`` prior values on the same machine
        fingerprint** — robust to a single outlier run in either
        direction.  An experiment regresses when its gate metric (p95
        when recorded, else the median wall time) exceeds the baseline
        by more than ``threshold`` (a ratio: 0.25 = +25 %) *and* by more
        than ``min_seconds`` in absolute terms, which keeps
        microsecond-level jitter from tripping the gate.  Experiments
        with no prior trajectory are reported as ``new`` and never fail
        the comparison.
        """
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if baseline_window < 1:
            raise ValueError(f"baseline_window must be >= 1, got {baseline_window}")
        if run_id is None:
            run_id = self.latest_run_id()
            if run_id is None:
                raise ValueError("results database holds no runs yet")
        run = self.run(run_id)
        report = ComparisonReport(
            run_id=run_id,
            machine=run.machine,
            git_sha=run.git_sha,
            threshold=threshold,
            baseline_window=baseline_window,
            min_seconds=min_seconds,
        )
        for result in self.results_for_run(run_id):
            gate = result.gate_metric()
            if gate is None:
                continue
            metric, current = gate
            history = self.trajectory(
                result.experiment,
                run.machine,
                metric=metric,
                before_run=run_id,
                limit=baseline_window,
            )
            if not history:
                report.deltas.append(
                    ExperimentDelta(
                        experiment=result.experiment,
                        metric=metric,
                        current=current,
                        baseline=None,
                        baseline_runs=0,
                        delta_ratio=None,
                        verdict=VERDICT_NEW,
                    )
                )
                continue
            baseline = float(statistics.median(value for _, value in history))
            delta_ratio = (current - baseline) / baseline if baseline > 0 else 0.0
            exceeds = abs(current - baseline) > min_seconds
            if delta_ratio > threshold and exceeds:
                verdict = VERDICT_REGRESSION
            elif delta_ratio < -threshold and exceeds:
                verdict = VERDICT_IMPROVEMENT
            else:
                verdict = VERDICT_OK
            report.deltas.append(
                ExperimentDelta(
                    experiment=result.experiment,
                    metric=metric,
                    current=current,
                    baseline=baseline,
                    baseline_runs=len(history),
                    delta_ratio=delta_ratio,
                    verdict=verdict,
                )
            )
        _ORDER = {
            VERDICT_REGRESSION: 0,
            VERDICT_IMPROVEMENT: 1,
            VERDICT_OK: 2,
            VERDICT_NEW: 3,
        }
        report.deltas.sort(key=lambda d: (_ORDER[d.verdict], d.experiment))
        return report


# --------------------------------------------------------------------------- #
# Row adapters
# --------------------------------------------------------------------------- #

#: Metric columns :meth:`ResultsDB.trajectory`/:meth:`trend` may query.
METRIC_COLUMNS: tuple[str, ...] = (
    "median_seconds",
    "min_seconds",
    "mean_seconds",
    "p50_seconds",
    "p95_seconds",
    "p99_seconds",
    "pruning_rate",
    "coalescing_rate",
    "speedup_vs_serial",
    "throughput_rps",
    "transport_speedup",
)


def _check_metric(metric: str) -> None:
    if metric not in METRIC_COLUMNS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRIC_COLUMNS}")


def _opt_float(value: object) -> float | None:
    return None if value is None else float(value)


def _run_record(row: sqlite3.Row) -> RunRecord:
    return RunRecord(
        run_id=int(row["run_id"]),
        ingested_at=row["ingested_at"],
        run_at=row["run_at"],
        git_sha=row["git_sha"],
        machine=row["machine"],
        python=row["python"],
        backends=tuple(json.loads(row["backends"])),
        bench_scale=row["bench_scale"],
        source=row["source"],
        config=json.loads(row["config"]),
        n_results=int(row["n_results"]),
    )


def _task_result(row: sqlite3.Row) -> TaskResult:
    return TaskResult(
        run_id=int(row["run_id"]),
        experiment=row["experiment"],
        scenario=row["scenario"],
        backend=row["backend"],
        median_seconds=row["median_seconds"],
        min_seconds=row["min_seconds"],
        mean_seconds=row["mean_seconds"],
        rounds=row["rounds"],
        p50_seconds=row["p50_seconds"],
        p95_seconds=row["p95_seconds"],
        p99_seconds=row["p99_seconds"],
        n_rows=row["n_rows"],
        pruning_rate=row["pruning_rate"],
        coalescing_rate=row["coalescing_rate"],
        speedup_vs_serial=row["speedup_vs_serial"],
        throughput_rps=row["throughput_rps"],
        transport_speedup=row["transport_speedup"],
        extra=json.loads(row["extra"]),
    )
