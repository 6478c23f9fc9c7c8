#!/usr/bin/env python3
"""The end-to-end benchmark: ``python3 benchmarks/e2e/run.py [--workload NAME] ...``.

Without ``--workload`` every workload runs twice, each run in a process of
its own — untraced for the end-to-end metrics, traced for the per-layer
ones — and every metric is printed by name with its unit.  With ``--workload`` one run is made:
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics; the last line of standard output is one JSON object.

The ``__main__`` guard and module-level workload classes matter: the
gateway's ``forkserver`` children re-import this module.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# The system runs on its own defaults: scrub its knobs before importing it.
for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy  # noqa: E402

from benchmarks.e2e.stats import P95_SAMPLES, median, p95  # noqa: E402
from benchmarks.e2e.trace import Tracer  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    TRACE_STRETCHES,
    WORKLOADS,
    DashCrossfilter,
    ScanSqlite,
    ServingMix,
    layer_metrics,
    merge_measured,
    milliseconds,
    serving_metrics,
)
from repro.server.shard import default_start_method  # noqa: E402
from repro.sql.morsel import default_executor, default_workers  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def load_contract() -> dict:
    """``BENCHMARK.json``: the names and units every run must print."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` directly (no subprocess, and
    never a parent directory's repository); ``unknown`` outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    """What the numbers depend on besides the code."""
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "morsel_workers": default_workers(),
        "morsel_executor": default_executor(),
        "shard_start_method": default_start_method(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def stop_multiprocessing_helpers() -> None:
    """Stop and reap the forkserver and resource tracker the gateway started,
    so no process outlives the run (they would otherwise exit on their own
    only once they notice this process is gone)."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


# --------------------------------------------------------------------------- #
def run_untraced(workload, seconds: float, setup_repeats: int) -> tuple[dict, dict]:
    """End-to-end metrics of one workload, tracing off."""
    setups = []
    try:
        for _ in range(setup_repeats):
            workload.close()
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start - workload.oracle_seconds)
        measured = workload.measure(seconds)
    finally:
        workload.close()
    if isinstance(workload, ServingMix):
        stop_multiprocessing_helpers()
    latencies = measured["latencies"]
    metrics = {
        "setup_s": median(setups),
        "latency_p50_ms": 1e3 * measured.get("p50", median(latencies)),
        "throughput_ops_s": measured["throughput"],
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "samples": len(latencies),
        "p95_s": p95(latencies),
        "setups": len(setups),
        "measured_s": measured["busy"],
    }
    if "first_render_s" in measured:
        notes["first_render_s"] = median(measured["first_render_s"])
        notes["sessions"] = len(measured["first_render_s"])
    if "rungs" in measured:
        notes["windows"] = measured["windows"]
        notes["bursts"] = measured["bursts"]
        notes["max_rate_within_slo_rps"] = workload.max_rate_within_slo(measured["rungs"])
        notes["rungs"] = [
            {
                "rate": rung.rate,
                "attempted": rung.attempted,
                "completed": len(rung.sojourns),
                "p50_ms": 1e3 * median(rung.sojourns),
                "p95_s": p95(rung.sojourns),
                "drain_s": rung.drain,
                "completed_per_s": rung.completed_per_second,
            }
            for rung in measured["rungs"]
        ]
    return metrics, notes


def run_traced(workload, seconds: float, per_layer: list[str]) -> tuple[dict, dict, Tracer]:
    """Per-layer metrics of one workload.

    One instrumented stack runs the measured loop in alternating stretches,
    tracing on and off; the traced stretches give the per-layer numbers and
    the difference between the two medians is the cost of tracing.
    """
    tracer = Tracer()
    metrics = dict.fromkeys(per_layer, 0.0)
    try:
        if isinstance(workload, ServingMix):
            workload.setup()
            measured = workload.measure(seconds)
            workload.close()
            traced, untraced = workload.replay(measured["reference_requests"], tracer)
            metrics.update(layer_metrics(workload, traced, tracer.spans))
            metrics.update(
                serving_metrics(workload, measured, median(untraced["latencies"]), traced["frames"])
            )
        else:
            tracer.enabled = False  # set-up's warm-up operations are not measured
            workload.setup(tracer)
            traced, untraced = {}, {}
            for stretch in range(TRACE_STRETCHES):
                tracer.enabled = stretch % 2 == 0
                merge_measured(
                    traced if tracer.enabled else untraced,
                    workload.measure(seconds / TRACE_STRETCHES),
                )
            # The tail needs more operations than half a run of the slower
            # workloads holds: go on untraced until p95 has its samples.
            tracer.enabled = False
            while len(untraced["latencies"]) < P95_SAMPLES:
                merge_measured(untraced, workload.measure(seconds / TRACE_STRETCHES))
            metrics.update(layer_metrics(workload, traced, tracer.spans))
            if isinstance(workload, DashCrossfilter):
                metrics["core.enumerate_s"], metrics["core.plans_enumerated"] = (
                    workload.enumerate_plans()
                )
            if isinstance(workload, ScanSqlite):
                native_ms, convert_ms = workload.native_split(traced["sql_sample"])
                metrics["backends.sqlite.native_ms"] = native_ms
                metrics["storage.sqlite_adapter.convert_ms"] = convert_ms
    finally:
        workload.close()
    if isinstance(workload, ServingMix):
        stop_multiprocessing_helpers()
    # The tail comes from the untraced samples: the gateway's reference rung
    # for the open loop, the untraced stretches for the closed ones.
    tail = measured["latencies"] if isinstance(workload, ServingMix) else untraced["latencies"]
    metrics["latency.p95_ms"] = milliseconds(p95(tail))
    untraced_p50 = median(untraced["latencies"])
    metrics["trace.overhead_share"] = (median(traced["latencies"]) - untraced_p50) / untraced_p50
    notes = {
        "samples": len(traced["latencies"]),
        "spans": len(tracer.spans),
        "tail_samples": len(tail),
    }
    unknown = sorted(set(metrics) - set(per_layer))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json per_layer: {unknown}")
    return metrics, notes, tracer


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    setup_repeats: int = SETUP_REPEATS,
    selftest: bool = False,
    out: str | None = None,
) -> dict:
    """One run: returns the result object whose JSON form ends the output."""
    contract = load_contract()
    env = environment()
    workload = WORKLOADS[name](seed, scale=scale, selftest=selftest)
    if trace:
        names = [metric["name"] for metric in contract["per_layer"]]
        metrics, notes, tracer = run_traced(workload, seconds, names)
        if out:
            tracer.write_jsonl(out + ".spans.jsonl")
        units = {metric["name"]: metric["unit"] for metric in contract["per_layer"]}
    else:
        metrics, notes = run_untraced(workload, seconds, setup_repeats)
        units = {metric["name"]: metric["unit"] for metric in contract["end_to_end"]}
    env["loadavg_1m_end"] = os.getloadavg()[0]
    checker = workload.checker
    result = {
        "correct": checker.failed == 0 and all(math.isfinite(v) for v in metrics.values()),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in metrics.items()
        },
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "failed_share": checker.failed / max(1, checker.attempted),
        "first_failure": checker.first_failure,
        "notes": notes,
        "environment": env,
        **result,
    }
    print_report(report)
    if out:
        Path(out).write_text(json.dumps(report, indent=1), encoding="utf-8")
    return result


def p95_text(seconds: float | None) -> str:
    if seconds is None:
        return f"not reported (fewer than {P95_SAMPLES} samples)"
    return f"{1e3 * seconds:.4f} ms"


def print_report(report: dict) -> None:
    """Every metric by name with its unit, plus what is needed to read it."""
    notes = report["notes"]
    print(f"== {report['workload']}  seed={report['seed']} seconds={report['seconds']} "
          f"trace={report['trace']} scale={report['scale']}")
    print("   environment: " + " ".join(f"{k}={v}" for k, v in report["environment"].items()))
    for name, metric in report["metrics"].items():
        print(f"   {name:38s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"   {'failed_share':38s} {report['failed_share']:>14.6g} share   "
          f"({report['failed']} of {report['attempted']} responses checked)")
    if report["first_failure"]:
        print(f"   first failure: {report['first_failure'][:300]}")
    if "setups" in notes:
        print(f"   latency samples: {notes['samples']} over {notes['measured_s']:.2f} s measured; "
              f"p95 {p95_text(notes['p95_s'])}; setup_s is the median of {notes['setups']}")
    else:
        print(f"   traced samples: {notes['samples']}, spans: {notes['spans']}; "
              f"latency.p95_ms is from {notes['tail_samples']} untraced samples "
              f"(0 = fewer than {P95_SAMPLES}, not reported)")
    if "first_render_s" in notes:
        print(f"   first_render_s {notes['first_render_s']:.4f} s "
              f"(median of {notes['sessions']} sessions: optimize + initialize)")
    for rung in notes.get("rungs", ()):
        print("   rung {rate:6.0f} rps: {completed}/{attempted} completed, p50 {p50_ms:.2f} ms, "
              "p95 {p95}, drain {drain_s:.3f} s, {completed_per_s:.0f} completed/s"
              .format(p95=p95_text(rung["p95_s"]), **rung))
    if "max_rate_within_slo_rps" in notes:
        print(f"   latency_p50_ms is the median of {notes['windows']} window medians "
              f"of the {notes['rungs'][0]['rate']:.0f} rps rung; throughput_ops_s is the median "
              "of the bursts' completed/s: " + " ".join(f"{b:.0f}" for b in notes["bursts"]))
        print(f"   max_rate_within_slo_rps {notes['max_rate_within_slo_rps']:.0f} req/s")


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink tables and sessions (smoke tests)")
    parser.add_argument("--out", help="write the result JSON here (and spans to OUT.spans.jsonl)")
    parser.add_argument("--selftest", action="store_true",
                        help="corrupt one oracle row; the run must report failed_share > 0")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")

    if not args.workload:
        # Every run in a fresh process, as the driver makes them:
        # ``peak_rss_mb`` is a process-lifetime high-water mark.
        status = 0
        for workload in contract["workloads"]:
            for trace in (0, 1):
                command = [
                    sys.executable, __file__, "--workload", workload["name"],
                    "--trace", str(trace), "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--scale", str(args.scale),
                ]
                if args.out:
                    command += ["--out", f"{args.out}.{workload['name']}.trace{trace}.json"]
                if args.selftest:
                    command.append("--selftest")
                status |= subprocess.run(command, check=False).returncode
        return status

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), scale=args.scale,
        selftest=args.selftest, out=args.out,
    )
    print(json.dumps(result))
    if args.selftest and result["failed"] == 0:
        print("selftest: a corrupted oracle row went unnoticed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
