"""Smoke: all six workloads, both modes, at ``--scale 0.05`` in a fraction of a second each.

Asserts what the contract in ``BENCHMARK.json`` promises: every
end-to-end metric is printed once by an untraced run and every per-layer
metric once by a traced run, each with its unit and a finite value; every
response matched the oracle; and the workloads' design facts (which layer
a workload exercises, which it bypasses) hold even at toy size.
"""

from __future__ import annotations

import json
import math
import re

import pytest

from benchmarks.e2e import run

CONTRACT = run.load_contract()
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]
SCALE = 0.05
SECONDS = 0.4


def _run(name: str, trace: bool, capsys, **kwargs) -> tuple[dict, str]:
    result = run.run_workload(
        name, seed=11, seconds=SECONDS, trace=trace, scale=SCALE, setup_repeats=1, **kwargs
    )
    return result, capsys.readouterr().out


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_prints_every_metric_once(name, capsys):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, printed = _run(name, trace, capsys)
        assert json.loads(json.dumps(result)) == result
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        expected = {metric["name"]: metric["unit"] for metric in CONTRACT[section]}
        assert set(result["metrics"]) == set(expected)
        for metric, unit in expected.items():
            entry = result["metrics"][metric]
            assert entry["unit"] == unit and math.isfinite(entry["value"]), metric
            lines = re.findall(rf"^\s+{re.escape(metric)}\s+\S+ {re.escape(unit)}$", printed, re.M)
            assert len(lines) == 1, (metric, lines)
        if not trace:
            assert all(result["metrics"][m]["value"] > 0 for m in expected), result["metrics"]
        else:
            _check_design(name, {m: e["value"] for m, e in result["metrics"].items()})


def _check_design(name: str, layer: dict[str, float]) -> None:
    """Each workload does most of its work where it says, and none where it says none."""
    cache_hits = layer["net.cache.client_hit_share"] + layer["net.cache.server_hit_share"]
    on_serving = name == "serving_mix"
    assert (layer["net.frame.encode_ms"] > 0) == on_serving
    assert (layer["net.frame.bytes_per_reply"] > 0) == on_serving
    assert (layer["core.optimize_s"] > 0) == (name == "dash_crossfilter")
    assert (layer["backends.sqlite.native_ms"] > 0) == (name == "scan_sqlite")
    assert layer["trace.overhead_share"] > -1.0
    if not on_serving:
        assert layer["trace.coverage_share"] >= 0.9
    if name == "brush_ivm":
        assert layer["sql.ivm.hit_share"] >= 0.95
        assert cache_hits == 0
    if name in ("scan_embedded", "scan_sqlite"):
        assert layer["sql.ivm.hit_share"] == 0 and cache_hits == 0
        assert (layer["sql.morsel_tasks"] > 0) == (name == "scan_embedded")
    if name == "cache_zipf":
        assert cache_hits >= 0.5
    if name == "dash_crossfilter":
        assert layer["core.optimize_s"] >= 0.7 * layer["core.first_render_s"]
        assert layer["core.plans_enumerated"] == 756
    if on_serving:
        assert layer["server.admission.shed"] == 0
        assert layer["server.shard.imbalance"] < 1.2


def test_selftest_reports_failures(capsys):
    result, _ = _run("cache_zipf", False, capsys, selftest=True)
    assert result["failed"] == 1 and result["correct"] is False
