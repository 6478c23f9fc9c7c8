#!/usr/bin/env python3
"""Condense pytest-benchmark JSON into a compact reference summary.

The raw ``--benchmark-json`` output weighs in at >1000 lines per run
(full machine info, commit info, every timing sample).  The committed
reference at ``benchmarks/results/BENCH_smoke_summary.json`` keeps only
what trend-tracking needs: one entry per experiment with its median (and
min/mean) seconds plus the recorded ``extra_info`` (backend, scale).

Usage::

    python tools/summarize_bench.py raw1.json [raw2.json ...] -o summary.json

Multiple raw files merge into one summary (e.g. one benchmark run per
backend); an experiment appearing in several files is keyed as
``<name>[<backend>]`` so the axes stay distinguishable.  For
backend-independent experiments that repeat across input files under the
same key (the SQL kernel micro-benchmarks), the first file listed wins
and the duplicates are reported on stderr.

The per-experiment entry layout — which percentiles exist and what the
lifted scalar metrics (``coalescing_rate``, ``pruning_rate``,
``speedup_vs_serial``, ``throughput_rps``, ``transport_speedup``) are
called — is defined **once** in
:mod:`repro.bench.resultsdb` and shared with the persistent results
database, so the committed summary and ``tools/benchdb.py`` always
agree on field names (see ``docs/REPRODUCING.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
# Works on a fresh checkout, no install or PYTHONPATH needed.
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.bench.resultsdb import SUMMARY_SCHEMA, iter_raw_experiments  # noqa: E402


def summarize(raw_paths: list[Path]) -> dict:
    """Build the compact summary dictionary from raw benchmark files."""
    experiments: dict[str, dict] = {}
    machines: set[str] = set()
    pythons: set[str] = set()
    for raw_path in raw_paths:
        raw = json.loads(raw_path.read_text(encoding="utf-8"))
        machine = raw.get("machine_info", {})
        cpu = machine.get("cpu", {})
        if machine:
            machines.add(f"{cpu.get('brand_raw', machine.get('machine', '?'))}")
            pythons.add(machine.get("python_version", "?"))
        for key, entry in iter_raw_experiments(raw):
            if key in experiments:
                print(
                    f"note: {key} already summarised; keeping the first "
                    f"occurrence, ignoring the one in {raw_path}",
                    file=sys.stderr,
                )
                continue
            experiments[key] = entry
    return {
        "schema": SUMMARY_SCHEMA,
        "machine": sorted(machines),
        "python": sorted(pythons),
        "experiments": dict(sorted(experiments.items())),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("raw", nargs="+", type=Path, help="raw pytest-benchmark JSON files")
    parser.add_argument("-o", "--output", type=Path, required=True, help="summary output path")
    arguments = parser.parse_args()
    summary = summarize(arguments.raw)
    arguments.output.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {arguments.output} ({len(summary['experiments'])} experiments)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
