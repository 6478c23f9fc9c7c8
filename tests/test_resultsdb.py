"""The persistent benchmark results store and its trajectory gate.

Covers the tentpole edges end to end: raw-BENCH-json round-trips (the
ingested row must carry exactly the percentiles/rates the summariser
lifts), verdicts on synthetic regression/improvement/noise trajectories,
machine-fingerprint isolation (a laptop never gates against CI), the
jitter floor, and the CLI exit codes CI's gate relies on
(``ingest && compare`` failing on an injected 2x p95 regression).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.bench.resultsdb import (
    METRIC_COLUMNS,
    ResultsDB,
    experiment_key,
    is_raw_document,
    iter_raw_experiments,
    machine_fingerprint,
    summary_entry,
)

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "tools"))

import benchdb  # noqa: E402

_CI_MACHINE = "Intel(R) Xeon(R) Processor @ 2.10GHz|x86_64|py3.11"
_LAPTOP_MACHINE = "Apple M2|arm64|py3.12"


def _raw_document(p95: float = 0.006, median: float = 0.05) -> dict:
    """A minimal raw pytest-benchmark document, shaped like CI's output."""
    return {
        "machine_info": {
            "machine": "x86_64",
            "python_version": "3.11.7",
            "cpu": {"brand_raw": "Intel(R) Xeon(R) Processor @ 2.10GHz"},
        },
        "commit_info": {"id": "deadbeef"},
        "datetime": "2026-08-08T00:00:00+00:00",
        "benchmarks": [
            {
                "name": "test_figure10_concurrent_sessions[cold_start_burst]",
                "stats": {"median": median, "min": median, "mean": median, "rounds": 1},
                "extra_info": {
                    "backend": "embedded",
                    "scenario": "cold_start_burst",
                    "n_rows": 1250,
                    "latency_percentiles": {"p50": 0.004, "p95": p95, "p99": p95},
                    "coalescing_rate": 0.875,
                },
            },
            {
                "name": "test_bench_groupby_kernel_vectorized",
                "stats": {
                    "median": 0.0077,
                    "min": 0.0069,
                    "mean": 0.0091,
                    "rounds": 134,
                },
                "extra_info": {},
            },
            {
                "name": "test_figure12_partitioned_scale[rows20000-parts16-workers4]",
                "stats": {"median": 0.73, "min": 0.73, "mean": 0.73, "rounds": 1},
                "extra_info": {
                    "backend": "embedded",
                    "n_rows": 20000,
                    "partitions": 16,
                    "workers": 4,
                    "latency_percentiles": {"p50": 0.001, "p95": 0.0024},
                    "pruning_rate": 0.875,
                    "speedup_vs_serial": 0.796,
                },
            },
        ],
    }


def _seed_trajectory(db: ResultsDB, p95s: list[float], machine_suffix: str = "") -> None:
    """One run per p95 value, all on the same machine fingerprint."""
    for p95 in p95s:
        document = _raw_document(p95=p95)
        if machine_suffix:
            document["machine_info"]["cpu"]["brand_raw"] += machine_suffix
        db.ingest(document, source="synthetic")


# --------------------------------------------------------------------------- #
# Shared schema helpers
# --------------------------------------------------------------------------- #


def test_experiment_key_appends_backend_when_present():
    assert experiment_key("test_x", "embedded") == "test_x[embedded]"
    assert experiment_key("test_x", None) == "test_x"


def test_summary_entry_lifts_percentiles_and_rates():
    extra = {
        "latency_percentiles": {"p95": 0.00640199, "p50": 0.004944},
        "coalescing_rate": 0.87512,
    }
    entry = summary_entry(
        {"median": 0.0521504, "min": 0.05, "mean": 0.052, "rounds": 1}, extra
    )
    assert entry["median_seconds"] == 0.05215
    assert entry["latency_percentiles"] == {"p50": 0.004944, "p95": 0.006402}
    assert entry["coalescing_rate"] == 0.8751
    assert "pruning_rate" not in entry


def test_summary_entry_lifts_throughput_rps():
    entry = summary_entry(
        {"median": 3.4, "min": 3.4, "mean": 3.4, "rounds": 1},
        {"throughput_rps": 102.53817, "tier": "sharded"},
    )
    assert entry["throughput_rps"] == 102.5382
    assert entry["extra_info"]["tier"] == "sharded"


def test_throughput_rps_roundtrips_and_feeds_trend():
    document = _raw_document()
    document["benchmarks"].append(
        {
            "name": "test_figure14_serving_tier[sharded]",
            "stats": {"median": 5.58, "min": 5.58, "mean": 5.58, "rounds": 1},
            "extra_info": {
                "backend": "embedded",
                "tier": "sharded",
                "throughput_rps": 102.5,
                "latency_percentiles": {"p50": 0.01, "p95": 0.015, "p99": 0.0161},
            },
        }
    )
    with ResultsDB() as db:
        run_id = db.ingest(document, source="synthetic")
        results = {r.experiment: r for r in db.results_for_run(run_id)}
        fig14 = results["test_figure14_serving_tier[sharded][embedded]"]
        assert fig14.throughput_rps == 102.5
        assert fig14.p99_seconds == 0.0161
        key = "test_figure14_serving_tier[sharded][embedded]"
        points = db.trend(key, metric="throughput_rps")
        assert [p.value for p in points] == [102.5]
        assert "throughput_rps" in METRIC_COLUMNS
        # Rows without the metric read back None, not 0.
        fig10 = results["test_figure10_concurrent_sessions[cold_start_burst][embedded]"]
        assert fig10.throughput_rps is None


def test_schema_migration_adds_throughput_column(tmp_path):
    """Opening a pre-PR-9 DB (no throughput_rps column) upgrades it."""
    import sqlite3

    path = tmp_path / "old.db"
    with ResultsDB(path) as db:
        db.ingest(_raw_document(), source="synthetic")
    with sqlite3.connect(path) as raw:
        raw.execute("ALTER TABLE task_results DROP COLUMN throughput_rps")
    with ResultsDB(path) as db:
        columns = {
            row[1]
            for row in db._connection.execute("PRAGMA table_info(task_results)")
        }
        assert "throughput_rps" in columns
        # Old rows survive the migration and read back None.
        run_id = db.runs()[0].run_id
        for result in db.results_for_run(run_id):
            assert result.throughput_rps is None


def test_schema_migration_adds_transport_speedup_column(tmp_path):
    """Opening a pre-PR-10 DB (no transport_speedup column) upgrades it."""
    import sqlite3

    path = tmp_path / "pr9.db"
    with ResultsDB(path) as db:
        db.ingest(_raw_document(), source="synthetic")
    with sqlite3.connect(path) as raw:
        raw.execute("ALTER TABLE task_results DROP COLUMN transport_speedup")
    with ResultsDB(path) as db:
        columns = {
            row[1]
            for row in db._connection.execute("PRAGMA table_info(task_results)")
        }
        assert "transport_speedup" in columns
        run_id = db.runs()[0].run_id
        for result in db.results_for_run(run_id):
            assert result.transport_speedup is None


def test_transport_speedup_roundtrips_and_feeds_trend():
    document = _raw_document()
    document["benchmarks"].append(
        {
            "name": "test_columnar_vs_rows_transport",
            "stats": {"median": 0.2, "min": 0.19, "mean": 0.2, "rounds": 3},
            "extra_info": {"backend": "embedded", "transport_speedup": 4.27},
        }
    )
    with ResultsDB() as db:
        run_id = db.ingest(document, source="synthetic")
        results = {r.experiment: r for r in db.results_for_run(run_id)}
        cell = results["test_columnar_vs_rows_transport[embedded]"]
        assert cell.transport_speedup == 4.27
        assert "transport_speedup" in METRIC_COLUMNS
        points = db.trend(
            "test_columnar_vs_rows_transport[embedded]", metric="transport_speedup"
        )
        assert [p.value for p in points] == [4.27]


def test_is_raw_document_distinguishes_formats():
    assert is_raw_document(_raw_document())
    assert not is_raw_document({"schema": "bench-summary/v1", "experiments": {}})


def test_machine_fingerprint_is_cpu_arch_python():
    info = _raw_document()["machine_info"]
    assert machine_fingerprint(info) == _CI_MACHINE
    # No info at all still yields a usable (local) fingerprint.
    assert machine_fingerprint(None).count("|") == 2


# --------------------------------------------------------------------------- #
# Ingest round-trip
# --------------------------------------------------------------------------- #


def test_ingest_roundtrips_raw_benchmark_json():
    with ResultsDB() as db:
        run_id = db.ingest(_raw_document(), source="BENCH_smoke_embedded.json")
        run = db.run(run_id)
        assert run.machine == _CI_MACHINE
        assert run.git_sha == "deadbeef"
        assert run.backends == ("embedded",)
        assert run.n_results == 3
        assert run.run_at == "2026-08-08T00:00:00+00:00"

        results = {r.experiment: r for r in db.results_for_run(run_id)}
        fig10 = results["test_figure10_concurrent_sessions[cold_start_burst][embedded]"]
        assert fig10.p50_seconds == 0.004
        assert fig10.p95_seconds == 0.006
        assert fig10.p99_seconds == 0.006
        assert fig10.coalescing_rate == 0.875
        assert fig10.n_rows == 1250
        assert fig10.scenario == "cold_start_burst"
        assert fig10.backend == "embedded"

        kernel = results["test_bench_groupby_kernel_vectorized"]
        assert kernel.median_seconds == 0.0077
        assert kernel.p95_seconds is None
        assert kernel.backend is None

        fig12 = results[
            "test_figure12_partitioned_scale[rows20000-parts16-workers4][embedded]"
        ]
        assert fig12.pruning_rate == 0.875
        assert fig12.speedup_vs_serial == 0.796
        assert fig12.extra["partitions"] == 16


def test_ingest_matches_summariser_field_names():
    """The DB row and the compact summary lift the *same* values."""
    raw = _raw_document()
    entries = dict(iter_raw_experiments(raw))
    with ResultsDB() as db:
        run_id = db.ingest(raw)
        for result in db.results_for_run(run_id):
            entry = entries[result.experiment]
            assert result.median_seconds == entry["median_seconds"]
            if result.p95_seconds is not None:
                assert result.p95_seconds == entry["latency_percentiles"]["p95"]
            if result.coalescing_rate is not None:
                assert result.coalescing_rate == entry["coalescing_rate"]
            if result.pruning_rate is not None:
                assert result.pruning_rate == entry["pruning_rate"]


def test_ingest_summary_document():
    raw = _raw_document()
    summary = {
        "schema": "bench-summary/v1",
        "machine": ["Intel(R) Xeon(R) Processor @ 2.10GHz"],
        "python": ["3.11.7"],
        "experiments": dict(iter_raw_experiments(raw)),
    }
    with ResultsDB() as db:
        run_id = db.ingest(summary, source="BENCH_smoke_summary.json")
        run = db.run(run_id)
        assert run.n_results == 3
        results = {r.experiment: r for r in db.results_for_run(run_id)}
        key = "test_figure10_concurrent_sessions[cold_start_burst][embedded]"
        assert results[key].p95_seconds == 0.006


def test_ingest_rejects_empty_and_mixed_machines():
    with ResultsDB() as db:
        with pytest.raises(ValueError, match="no documents"):
            db.ingest([])
        with pytest.raises(ValueError, match="no experiments"):
            db.ingest({"benchmarks": []})
        other = _raw_document()
        other["machine_info"]["cpu"]["brand_raw"] = "Apple M2"
        with pytest.raises(ValueError, match="multiple machine fingerprints"):
            db.ingest([_raw_document(), other])


def test_metadata_overrides_and_config_storage():
    with ResultsDB() as db:
        run_id = db.ingest(
            _raw_document(),
            metadata={
                "git_sha": "cafe1234",
                "machine": "ci-runner|x86_64|py3.12",
                "bench_scale": 0.25,
                "serving_shards": "2",
            },
        )
        run = db.run(run_id)
        assert run.git_sha == "cafe1234"
        assert run.machine == "ci-runner|x86_64|py3.12"
        assert run.bench_scale == 0.25
        assert run.config == {"serving_shards": "2"}


# --------------------------------------------------------------------------- #
# The comparison engine
# --------------------------------------------------------------------------- #


def test_compare_flags_injected_2x_p95_regression():
    with ResultsDB() as db:
        _seed_trajectory(db, [0.006, 0.0061, 0.0059, 0.006])
        db.ingest(_raw_document(p95=0.012), source="regressed")  # 2x p95
        report = db.compare()
        assert not report.passed
        (delta,) = report.regressions
        assert delta.experiment == (
            "test_figure10_concurrent_sessions[cold_start_burst][embedded]"
        )
        assert delta.metric == "p95_seconds"
        assert delta.baseline == pytest.approx(0.006, abs=1e-6)
        assert delta.delta_ratio == pytest.approx(1.0, abs=0.05)


def test_compare_reports_improvement_and_ok():
    with ResultsDB() as db:
        _seed_trajectory(db, [0.012, 0.0121, 0.0119])
        db.ingest(_raw_document(p95=0.004), source="improved")
        report = db.compare()
        assert report.passed
        assert [d.experiment for d in report.improvements] == [
            "test_figure10_concurrent_sessions[cold_start_burst][embedded]"
        ]
    with ResultsDB() as db:
        # Noise within the threshold is just "ok".
        _seed_trajectory(db, [0.006, 0.0061, 0.0059])
        db.ingest(_raw_document(p95=0.0064), source="noise")
        report = db.compare()
        assert report.passed
        assert not report.regressions and not report.improvements


def test_compare_baseline_is_median_of_window_not_last_run():
    """One outlier run in the trajectory must not mask a regression."""
    with ResultsDB() as db:
        # Four honest runs, then one absurdly slow outlier.
        _seed_trajectory(db, [0.006, 0.006, 0.006, 0.006, 0.060])
        db.ingest(_raw_document(p95=0.012), source="regressed")
        report = db.compare(baseline_window=5)
        # Median of [0.06, 0.006 x4] is 0.006 -> the 2x regression shows.
        assert not report.passed


def test_compare_min_seconds_floor_absorbs_microsecond_jitter():
    with ResultsDB() as db:
        _seed_trajectory(db, [0.0010, 0.0010, 0.0010])
        db.ingest(_raw_document(p95=0.0025), source="jitter")  # +150% but +1.5ms
        report = db.compare(min_seconds=0.002)
        fig10 = [d for d in report.deltas if d.metric == "p95_seconds"]
        assert all(d.verdict == "ok" for d in fig10)
        # Dropping the floor exposes the same delta as a regression.
        report = db.compare(min_seconds=0.0)
        assert not report.passed


def test_compare_fresh_database_passes_with_all_new():
    with ResultsDB() as db:
        db.ingest(_raw_document(), source="first")
        report = db.compare()
        assert report.passed
        assert len(report.new_experiments) == len(report.deltas) == 3


def test_compare_isolates_machine_fingerprints():
    """A fast laptop trajectory must not gate the CI machine (or vice versa)."""
    with ResultsDB() as db:
        _seed_trajectory(db, [0.001, 0.001, 0.001], machine_suffix="")
        # Same experiments, much slower, on a different machine class.
        other = _raw_document(p95=0.012)
        other["machine_info"]["cpu"]["brand_raw"] = "Apple M2"
        run_id = db.ingest(other, source="laptop")
        report = db.compare(run_id=run_id)
        # No shared-machine history: everything is new, nothing regresses.
        assert report.passed
        assert len(report.new_experiments) == len(report.deltas)


def test_compare_validates_arguments():
    with ResultsDB() as db:
        with pytest.raises(ValueError, match="no runs yet"):
            db.compare()
        db.ingest(_raw_document())
        with pytest.raises(ValueError, match="threshold"):
            db.compare(threshold=0.0)
        with pytest.raises(ValueError, match="baseline_window"):
            db.compare(baseline_window=0)


def test_trajectory_and_trend_queries():
    with ResultsDB() as db:
        _seed_trajectory(db, [0.006, 0.007, 0.008])
        key = "test_figure10_concurrent_sessions[cold_start_burst][embedded]"
        history = db.trajectory(key, _CI_MACHINE, metric="p95_seconds")
        assert [value for _, value in history] == [0.008, 0.007, 0.006]  # newest first
        points = db.trend(key, metric="p95_seconds")
        assert [p.value for p in points] == [0.006, 0.007, 0.008]  # oldest first
        assert all(p.machine == _CI_MACHINE for p in points)
        with pytest.raises(ValueError, match="unknown metric"):
            db.trajectory(key, _CI_MACHINE, metric="median_seconds; DROP TABLE runs")
        assert "median_seconds" in METRIC_COLUMNS


def test_gate_metric_prefers_p95_over_median():
    with ResultsDB() as db:
        run_id = db.ingest(_raw_document())
        results = {r.experiment: r for r in db.results_for_run(run_id)}
        fig10 = results["test_figure10_concurrent_sessions[cold_start_burst][embedded]"]
        assert fig10.gate_metric() == ("p95_seconds", 0.006)
        kernel = results["test_bench_groupby_kernel_vectorized"]
        assert kernel.gate_metric() == ("median_seconds", 0.0077)


# --------------------------------------------------------------------------- #
# The CLI gate (what CI actually runs)
# --------------------------------------------------------------------------- #


def _write_raw(tmp_path: Path, name: str, p95: float) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(_raw_document(p95=p95)), encoding="utf-8")
    return path


def test_cli_ingest_then_compare_passes_on_stable_trajectory(tmp_path, capsys):
    db_path = str(tmp_path / "results.db")
    for index, p95 in enumerate([0.006, 0.0061, 0.0059]):
        raw = _write_raw(tmp_path, f"run{index}.json", p95)
        assert benchdb.main(["--db", db_path, "ingest", str(raw)]) == 0
    assert benchdb.main(["--db", db_path, "compare"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_compare_exits_1_on_injected_regression(tmp_path, capsys):
    db_path = str(tmp_path / "results.db")
    for index, p95 in enumerate([0.006, 0.0061, 0.0059]):
        raw = _write_raw(tmp_path, f"run{index}.json", p95)
        benchdb.main(["--db", db_path, "ingest", str(raw)])
    regressed = _write_raw(tmp_path, "regressed.json", 0.012)
    assert benchdb.main(["--db", db_path, "ingest", str(regressed)]) == 0
    assert benchdb.main(["--db", db_path, "compare"]) == 1
    captured = capsys.readouterr()
    assert "REGRESSION" in captured.out
    assert "FAIL" in captured.err


def test_cli_list_and_trend(tmp_path, capsys):
    db_path = str(tmp_path / "results.db")
    raw = _write_raw(tmp_path, "run.json", 0.006)
    benchdb.main(["--db", db_path, "ingest", str(raw)])
    assert benchdb.main(["--db", db_path, "list"]) == 0
    key = "test_figure10_concurrent_sessions[cold_start_burst][embedded]"
    assert benchdb.main(["--db", db_path, "trend", key]) == 0
    # The trend table shows the stored p95 value of the single run.
    assert "0.0060" in capsys.readouterr().out


def test_cli_compare_on_empty_database_is_usage_error(tmp_path, capsys):
    db_path = str(tmp_path / "empty.db")
    assert benchdb.main(["--db", db_path, "compare"]) == 2
    assert "no runs" in capsys.readouterr().err
