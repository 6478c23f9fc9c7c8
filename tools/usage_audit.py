#!/usr/bin/env python3
"""Usage audit: which ``src/repro`` defs does a run reach, and which only tests?

Usage::

    python tools/usage_audit.py record --into DIR --label NAME -- CMD ...
    python tools/usage_audit.py report --from DIR [--json OUT]
    python tools/usage_audit.py all --into DIR [--json tools/usage_audit.json]
    python tools/usage_audit.py check [--json tools/usage_audit.json]

``record`` runs ``CMD`` with a ``sitecustomize`` profile hook on the
path: ``sys.setprofile`` and ``threading.setprofile`` note the first call
of every code object, and at interpreter exit the ``src/repro`` ones are
written to ``DIR/<NAME>-<pid>.json``.  Child interpreters load the hook
too, and forked children inherit it; those leave through ``os._exit``,
which skips exit handlers, so the hook wraps ``os._exit`` to write its
record first.  Shard workers are covered under every start method.

``report`` reads every record in ``DIR`` and classifies each ``def`` of
``src/repro`` (found with ``ast``; methods and nested functions
included) as reached by a run, reached only by tests (the records
labelled ``tests``) or reached by nothing, and prints each class with its
def and line counts.  A def's lines are its own: the lines of a def
nested in it count for the nested def.  ``--json`` writes the counts,
the last two classes in full and, for every def, the first run (in
record order) that reached it; the ``reasons`` map of a baseline it
overwrites is kept.

``all`` records the run set — the six e2e workloads traced and untraced
at ``--seconds 2 --scale 0.3``, the four ``examples/``, every
``benchmarks/bench_*.py`` on both backends at ``REPRO_BENCH_SCALE=0.25``
with ``--benchmark-disable``, and tier-1 as ``tests`` — then reports.
It takes tens of minutes on two cores.

``check`` runs nothing: it reads the committed baseline and fails when
a def it names (in ``first_run``, ``tests_only`` or ``nothing``) no
longer exists under ``src/repro``, so a deletion cannot leave the
baseline stale; when a def under ``src/repro`` is in none of its classes
(not in ``first_run``), so a new def needs ``all`` re-run; and when a
tests-only or unreached def has no entry in ``reasons``, a map of
``fnmatch`` key patterns to the one-line reason the def stays without a
run reaching it.  So the two classes cannot grow unexplained: a def only
tests reach needs a run, a reason or deletion.  It takes about a second.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
BASELINE = ROOT / "tools" / "usage_audit.json"
TESTS_LABEL = "tests"

_HOOK = '''\
import atexit, json, os, sys, threading

_seen = set()


def _profile(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    defs = sorted(
        {{(c.co_filename, c.co_firstlineno, c.co_name) for c in _seen
          if c.co_filename.startswith({package!r})}}
    )
    path = os.path.join({into!r}, "{label}-%d.json" % os.getpid())
    with open(path, "w") as handle:
        json.dump({{"label": {label!r}, "defs": defs}}, handle)


def _exit(code, _real_exit=os._exit):
    _dump()
    _real_exit(code)


sys.setprofile(_profile)
threading.setprofile(_profile)
atexit.register(_dump)
os._exit = _exit
'''


def record(into: Path, label: str, command: list[str], env: dict[str, str] | None = None) -> int:
    """Run ``command`` under the profile hook; returns its exit code."""
    into.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as hook_dir:
        hook = _HOOK.format(package=str(PACKAGE), into=str(into.resolve()), label=label)
        Path(hook_dir, "sitecustomize.py").write_text(hook)
        child_env = dict(os.environ if env is None else env)
        paths = [hook_dir, str(ROOT / "src"), child_env.get("PYTHONPATH", "")]
        child_env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        return subprocess.call(command, cwd=ROOT, env=child_env)


def _defs() -> list[dict[str, object]]:
    """Every def under ``src/repro``: key, file, first line, own line count."""
    found: list[dict[str, object]] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(ROOT / "src").as_posix()

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    nested = [
                        n for n in ast.walk(child)
                        if n is not child and isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                    ]
                    spans = {
                        line
                        for n in nested
                        for line in range(
                            min([n.lineno] + [d.lineno for d in n.decorator_list]),
                            n.end_lineno + 1,
                        )
                    }
                    found.append(
                        {
                            "key": f"{relative}::{prefix}{child.name}",
                            "file": str(path),
                            "line": first,
                            "name": child.name,
                            "lines": child.end_lineno - first + 1 - len(spans),
                        }
                    )
                    visit(child, f"{prefix}{child.name}.")

        visit(ast.parse(path.read_text(), str(path)), "")
    keys = Counter(entry["key"] for entry in found)
    for entry in found:  # a redefined name (property setter, branch) keeps its line
        if keys[entry["key"]] > 1:
            entry["key"] = f"{entry['key']}@{entry['line']}"
    return found


def _records(into: Path) -> list[tuple[str, set[tuple[str, int, str]]]]:
    """``(label, reached defs)`` per record file, oldest first."""
    files = sorted(into.glob("*.json"), key=lambda p: p.stat().st_mtime)
    records = []
    for path in files:
        data = json.loads(path.read_text())
        records.append((data["label"], {tuple(d) for d in data["defs"]}))
    return records


def report(into: Path, json_out: Path | None = None) -> dict[str, object]:
    """Classify every def against the records in ``into`` and print the classes."""
    records = _records(into)
    first_run: dict[str, str | None] = {}
    classes: dict[str, list[dict[str, object]]] = {"run": [], "tests_only": [], "nothing": []}
    for entry in _defs():
        ident = (entry["file"], entry["line"], entry["name"])
        labels = [label for label, reached in records if ident in reached]
        runs = [label for label in labels if label != TESTS_LABEL]
        first_run[entry["key"]] = runs[0] if runs else (TESTS_LABEL if labels else None)
        name = "run" if runs else "tests_only" if labels else "nothing"
        classes[name].append(entry)
    summary: dict[str, object] = {
        "counts": {
            name: {"defs": len(entries), "lines": sum(e["lines"] for e in entries)}
            for name, entries in classes.items()
        },
        "tests_only": [e["key"] for e in classes["tests_only"]],
        "nothing": [e["key"] for e in classes["nothing"]],
        "first_run": first_run,
    }
    if json_out is not None:
        if json_out.exists():
            summary["reasons"] = json.loads(json_out.read_text()).get("reasons", {})
        json_out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for name, counts in summary["counts"].items():
        print(f"{name:>10}: {counts['defs']:5d} defs {counts['lines']:7d} lines")
    for name in ("tests_only", "nothing"):
        print(f"\n{name}:")
        for key in summary[name]:
            print(f"  {key}")
    return summary


def check(baseline: Path) -> list[str]:
    """What ``baseline`` gets wrong about ``src/repro`` (see the module
    docstring), one message per def; prints each."""
    data = json.loads(baseline.read_text())
    named = set(data["first_run"]) | set(data["tests_only"]) | set(data["nothing"])
    defs = {entry["key"] for entry in _defs()}
    patterns = data.get("reasons", {})
    problems = [f"names {key}, which no longer exists" for key in sorted(named - defs)]
    problems += [
        f"does not classify {key}: re-run `all`" for key in sorted(defs - set(data["first_run"]))
    ]
    problems += [
        f"has no reason for {name} {key}"
        for name in ("tests_only", "nothing")
        for key in data[name]
        if key in defs and not any(fnmatch.fnmatchcase(key, p) for p in patterns)
    ]
    for problem in problems:
        print(f"usage_audit: {baseline.name} {problem}")
    return problems


def run_set() -> list[tuple[str, list[str], dict[str, str]]]:
    """``(label, command, extra env)`` of every run the audit records."""
    python = sys.executable
    runs: list[tuple[str, list[str], dict[str, str]]] = []
    workloads = ("dash_crossfilter", "brush_ivm", "scan_embedded", "scan_sqlite",
                 "cache_zipf", "serving_mix")
    for workload in workloads:
        for trace in ("0", "1"):
            command = [python, "benchmarks/e2e/run.py", "--workload", workload,
                       "--seconds", "2", "--scale", "0.3", "--trace", trace]
            runs.append((f"e2e.{workload}.trace{trace}", command, {}))
    for example in sorted((ROOT / "examples").glob("*.py")):
        runs.append((f"example.{example.stem}", [python, str(example)], {}))
    for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        for backend in ("embedded", "sqlite"):
            command = [python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                       "--benchmark-disable", f"--backend={backend}", str(bench)]
            runs.append((f"bench.{bench.stem}.{backend}", command, {"REPRO_BENCH_SCALE": "0.25"}))
    runs.append((TESTS_LABEL, [python, "-m", "pytest", "-q", "-p", "no:cacheprovider"], {}))
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    rec = commands.add_parser("record", help="run a command under the hook")
    rec.add_argument("--into", type=Path, required=True)
    rec.add_argument("--label", required=True)
    rec.add_argument("argv", nargs=argparse.REMAINDER)
    rep = commands.add_parser("report", help="classify the defs")
    rep.add_argument("--from", dest="into", type=Path, required=True)
    rep.add_argument("--json", type=Path)
    every = commands.add_parser("all", help="record the whole run set, then report")
    every.add_argument("--into", type=Path, required=True)
    every.add_argument("--json", type=Path)
    chk = commands.add_parser("check", help="fail on a stale, incomplete or unexplained baseline")
    chk.add_argument("--json", type=Path, default=BASELINE)
    args = parser.parse_args(argv)

    if args.command == "record":
        command = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return record(args.into, args.label, command)
    if args.command == "report":
        report(args.into, args.json)
        return 0
    if args.command == "check":
        return 1 if check(args.json) else 0
    failed = []
    for label, command, extra in run_set():
        env = {**os.environ, **extra}
        print(f"usage_audit: {label}", flush=True)
        if record(args.into, label, command, env) != 0:
            failed.append(label)
    report(args.into, args.json)
    if failed:
        print(f"\nusage_audit: runs that exited non-zero: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
