"""Repeatability: ``python -m benchmarks.e2e.repeat --sets N``.

Runs N full sets of the untraced benchmark (each set on another seed, as
the driver does), prints per (workload, metric) the median, quartiles and
spread, and exits non-zero when the interquartile spread of any
end-to-end metric exceeds its bound in ``BENCHMARK.json`` — a metric that
does not repeat within its own bound cannot show a regression of that
size.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e.stats import relative_spread

ROOT = Path(__file__).resolve().parents[2]
#: Seed of the first set; set k runs on ``FIRST_SEED + k``.
FIRST_SEED = 100


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run in a fresh process; returns its result object."""
    command = [
        sys.executable, str(ROOT / "benchmarks/e2e/run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=5)
    args = parser.parse_args(argv)
    if args.sets < 2:
        parser.error("--sets must be at least 2")

    values: dict[tuple[str, str], list[float]] = {}
    failed_runs = 0
    for index in range(args.sets):
        for workload in (entry["name"] for entry in contract["workloads"]):
            result = run_once(workload, FIRST_SEED + index, contract["run_seconds"])
            failed_runs += 0 if result["correct"] else 1
            for metric, entry in result["metrics"].items():
                values.setdefault((workload, metric), []).append(entry["value"])
            print(f"set {index} {workload}: " + " ".join(
                f"{metric}={entry['value']:.5g}" for metric, entry in result["metrics"].items()
            ), flush=True)

    bounds = {metric["name"]: metric["bound"] for metric in contract["end_to_end"]}
    over = []
    print(f"\n{'workload':18s} {'metric':18s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'iqr/med':>8s} {'range/med':>9s} {'bound':>6s}")
    for (workload, metric), samples in values.items():
        first, _, third = statistics.quantiles(samples, n=4)
        middle = statistics.median(samples)
        spread = relative_spread(samples)
        full = (max(samples) - min(samples)) / middle
        flag = ""
        if spread > bounds[metric]:
            over.append((workload, metric))
            flag = "  OVER"
        print(f"{workload:18s} {metric:18s} {middle:11.5g} {first:11.5g} {third:11.5g} "
              f"{spread:8.3f} {full:9.3f} {bounds[metric]:6.2f}{flag}")
    if failed_runs:
        print(f"{failed_runs} runs reported incorrect output")
    if over:
        print("spread over bound: " + ", ".join(f"{w}/{m}" for w, m in over))
    return 1 if over or failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
