"""The usage audit's ``check``: each way a baseline can be wrong fails it.

Every test writes a temporary baseline over the real ``src/repro`` defs,
so ``check`` reads the package exactly as the CI step does.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "tools"))

import usage_audit  # noqa: E402


@pytest.fixture(scope="module")
def keys() -> list[str]:
    return [entry["key"] for entry in usage_audit._defs()]


def baseline(tmp_path, first_run, tests_only=(), nothing=(), reasons=None) -> Path:
    path = tmp_path / "usage_audit.json"
    data = {
        "counts": {},
        "first_run": {key: "run" for key in first_run},
        "tests_only": list(tests_only),
        "nothing": list(nothing),
        "reasons": reasons or {},
    }
    path.write_text(json.dumps(data))
    return path


def test_a_complete_explained_baseline_passes(tmp_path, keys):
    path = baseline(
        tmp_path,
        keys,
        tests_only=[keys[0]],
        nothing=[keys[1]],
        reasons={keys[0]: "a reference the tests compare against", "repro/*": "any"},
    )
    assert usage_audit.check(path) == []


def test_a_def_in_no_class_fails(tmp_path, keys):
    assert usage_audit.check(baseline(tmp_path, keys[1:])) == [
        f"does not classify {keys[0]}: re-run `all`"
    ]


def test_a_tests_only_or_unreached_def_without_a_reason_fails(tmp_path, keys):
    path = baseline(
        tmp_path,
        keys,
        tests_only=[keys[0]],
        nothing=[keys[1]],
        reasons={keys[0] + "?": "matches a longer name only"},
    )
    assert usage_audit.check(path) == [
        f"has no reason for tests_only {keys[0]}",
        f"has no reason for nothing {keys[1]}",
    ]


def test_a_def_that_no_longer_exists_fails(tmp_path, keys):
    path = baseline(tmp_path, [*keys, "repro/gone.py::deleted"])
    assert usage_audit.check(path) == ["names repro/gone.py::deleted, which no longer exists"]
