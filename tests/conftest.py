"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.datasets import generate_dataset
from repro.sql import Database


@pytest.fixture(scope="session", autouse=True)
def no_stray_processes():
    """The suite must not strand worker processes.

    The shard tier (``repro.server.shard``) is the only code that starts
    processes; every gateway a test opens must have joined its workers by
    the time the session ends.  Nothing is excluded: the forkserver
    helper is not a ``multiprocessing.Process`` child of this
    interpreter, so it never shows up in ``active_children()``.
    """
    yield
    stray = multiprocessing.active_children()
    assert stray == [], f"processes left running by the test session: {stray}"


@pytest.fixture(scope="session")
def flights_rows() -> list[dict]:
    """A small, deterministic flights dataset shared across tests."""
    return generate_dataset("flights", 500, seed=7)


@pytest.fixture()
def flights_db(flights_rows) -> Database:
    """A database with the small flights table registered."""
    db = Database()
    db.register_rows("flights", flights_rows)
    return db


@pytest.fixture()
def tiny_table_rows() -> list[dict]:
    """A handful of hand-written rows with known aggregates."""
    return [
        {"category": "a", "value": 10.0, "weight": 1.0},
        {"category": "a", "value": 20.0, "weight": 2.0},
        {"category": "b", "value": 30.0, "weight": 3.0},
        {"category": "b", "value": None, "weight": 4.0},
        {"category": "c", "value": 50.0, "weight": 5.0},
    ]


@pytest.fixture()
def tiny_db(tiny_table_rows) -> Database:
    """A database holding only the tiny hand-written table."""
    db = Database()
    db.register_rows("tiny", tiny_table_rows)
    return db


@pytest.fixture()
def histogram_spec() -> dict:
    """The running-example histogram specification (Figure 1 of the paper)."""
    return {
        "signals": [
            {"name": "maxbins", "value": 10, "bind": {"input": "range", "min": 5, "max": 50}},
            {"name": "min_delay", "value": 0},
        ],
        "data": [
            {"name": "source", "table": "flights"},
            {
                "name": "binned",
                "source": "source",
                "transform": [
                    {"type": "filter", "expr": "datum.delay >= min_delay"},
                    {"type": "extent", "field": "delay", "signal": "delay_extent"},
                    {
                        "type": "bin",
                        "field": "delay",
                        "maxbins": {"signal": "maxbins"},
                        "extent": {"signal": "delay_extent"},
                    },
                    {
                        "type": "aggregate",
                        "groupby": ["bin0", "bin1"],
                        "ops": ["count"],
                        "as": ["count"],
                    },
                ],
            },
        ],
        "scales": [{"name": "x", "domain": {"data": "binned", "field": "bin0"}}],
        "marks": [{"type": "rect", "from": {"data": "binned"}}],
    }
