"""Process-pool morsel execution: differential, shm lifecycle, crash safety.

The shared-memory process executor (``Database(executor="process")``)
must be invisible in results: the full 29-query backend corpus and the
hypothesis-generated partitioned harness run against a serial thread
engine, row for row.  Beyond correctness, the lifecycle contracts are
pinned here: segments are unlinked on drop/replace/close (never leaked
past the session — see the autouse guard in ``conftest.py``), the engine
falls back to threads when shared memory is unavailable or tables sit
under the size floor, and a worker process dying mid-task surfaces a
clean :class:`~repro.errors.ExecutionError` instead of a hang.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_backends_differential import (
    CORPUS,
    _mixed_rows,
    assert_identical_results,
)
from test_partitioned_differential import PARTITION_QUERIES, row_strategy

from repro.backends import EmbeddedBackend
from repro.datasets import generate_dataset
from repro.errors import ExecutionError
from repro.sql import Database
from repro.sql.morsel import MorselPool, ProcessMorselPool
from repro.storage import shared as shared_mod
from repro.storage.shared import (
    SharedTableHandle,
    StaleSegmentError,
    active_segment_names,
    attach_table,
    detach_all,
    shared_memory_available,
)
from repro.storage.table import PartitionedTable, Table

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="multiprocessing.shared_memory unavailable"
)


def _process_database(**kwargs) -> Database:
    """An engine forced onto the process executor (no size floor)."""
    kwargs.setdefault("parallelism", 2)
    return Database(executor="process", process_min_rows=0, **kwargs)


# --------------------------------------------------------------------------- #
# Differential: full corpus + hypothesis harness under the process pool
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def engines():
    """The corpus tables on a serial thread engine vs a process engine."""
    serial = EmbeddedBackend(Database(parallelism=1))
    process = EmbeddedBackend(_process_database())
    for name, (rows, column_order) in {
        "data": (_mixed_rows(), ["g", "v", "w", "b"]),
        "flights": (generate_dataset("flights", 300, seed=5), None),
    }.items():
        serial.register_rows(name, rows, column_order=column_order)
        process.register_rows(name, rows, column_order=column_order)
        process.repartition(name, 40)
    pair = {"serial": serial, "process": process}
    yield pair
    for engine in pair.values():
        engine.close()


@needs_shm
@pytest.mark.parametrize(
    ("name", "builder", "is_ordered"), CORPUS, ids=[c[0] for c in CORPUS]
)
def test_corpus_query_identical_process(engines, name, builder, is_ordered):
    sql_by_engine = {
        engine_name: builder(engine.capabilities)
        for engine_name, engine in engines.items()
    }
    assert_identical_results(sql_by_engine, engines, ordered=is_ordered)


@needs_shm
def test_process_engine_actually_dispatches(engines):
    """The differential is only meaningful if morsels cross processes."""
    process = engines["process"]
    assert process.morsel_executor == "process"
    process.metrics.reset()
    process.query_rows("SELECT g, COUNT(*) AS n FROM data GROUP BY g")
    snapshot = process.stats()
    assert snapshot["morsel_tasks_dispatched"] > 0
    assert snapshot["morsel_bytes_shared"] > 0
    utilization = process.morsel_utilization()
    assert utilization is not None and utilization["tasks"] > 0


@pytest.fixture(scope="module")
def hypothesis_engines():
    """One engine pair reused across hypothesis examples (pool stays warm)."""
    serial = EmbeddedBackend(Database(parallelism=1))
    process = EmbeddedBackend(_process_database())
    pair = {"serial": serial, "process": process}
    yield pair
    for engine in pair.values():
        engine.close()


@needs_shm
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    rows=st.lists(row_strategy, min_size=2, max_size=40),
    target_rows=st.integers(min_value=1, max_value=12),
)
def test_random_tables_identical_process(hypothesis_engines, rows, target_rows):
    for engine in hypothesis_engines.values():
        engine.register_rows("t", rows, replace=True, column_order=["v", "w", "g"])
    hypothesis_engines["process"].repartition("t", target_rows)
    for sql in PARTITION_QUERIES:
        assert_identical_results(
            dict.fromkeys(hypothesis_engines, sql), hypothesis_engines, ordered=False
        )


# --------------------------------------------------------------------------- #
# Shared-memory lifecycle
# --------------------------------------------------------------------------- #


def _partitioned_rows(n: int = 200) -> list[dict]:
    return [{"k": float(i % 5), "v": float(i), "s": f"g{i % 3}"} for i in range(n)]


@needs_shm
def test_segment_unlinked_on_drop():
    # Relative to a baseline: module-scoped engines from other tests may
    # legitimately hold their own live segments while this runs.
    baseline = active_segment_names()
    db = _process_database()
    try:
        db.register_rows("t", _partitioned_rows())
        db.repartition("t", 50)
        db.query_rows("SELECT k, SUM(v) AS s FROM t GROUP BY k")
        assert len(active_segment_names() - baseline) == 1
        db.drop_table("t")
        assert active_segment_names() - baseline == set()
    finally:
        db.close()


@needs_shm
def test_segment_replaced_on_reregister():
    baseline = active_segment_names()
    db = _process_database()
    try:
        db.register_rows("t", _partitioned_rows())
        db.repartition("t", 50)
        db.query_rows("SELECT COUNT(*) AS n FROM t")
        (old_name,) = active_segment_names() - baseline
        db.register_rows("t", _partitioned_rows(100), replace=True)
        # Old segment gone; none rebuilt until the table is partitioned again.
        assert active_segment_names() - baseline == set()
        db.repartition("t", 25)
        rows = db.query_rows("SELECT COUNT(*) AS n FROM t")
        assert rows == [{"n": 100}]
        live = active_segment_names() - baseline
        assert old_name not in live and len(live) == 1
    finally:
        db.close()


@needs_shm
def test_segments_released_on_close():
    baseline = active_segment_names()
    db = _process_database()
    db.register_rows("t", _partitioned_rows())
    db.repartition("t", 50)
    db.query_rows("SELECT MIN(v) AS lo FROM t")
    assert active_segment_names() - baseline
    db.close()
    assert active_segment_names() - baseline == set()


@needs_shm
def test_shared_handle_round_trip():
    """Export → attach rebuilds the identical table, zero-copy and read-only."""
    table = PartitionedTable.from_table(
        Table.from_rows(_partitioned_rows(40), name="t"), target_rows=10
    )
    handle = SharedTableHandle(table)
    try:
        rebuilt = attach_table(handle.descriptor)
        assert rebuilt.to_rows() == table.to_rows()
        assert rebuilt.partition_bounds() == table.partition_bounds()
        assert not rebuilt.column("v").values.flags.writeable
    finally:
        del rebuilt  # release the views so the detach can close the mmap
        detach_all()
        handle.close()


@needs_shm
def test_dictionary_column_crosses_shm_as_codes():
    """A dictionary column exports its raw codes plus one small pickled
    dictionary — never a pickled object array — and a mixed-type string
    column still travels whole."""
    import pickle

    rows = [
        {
            "s": None if i % 7 == 0 else f"name-{i % 5}",
            "m": "x" if i % 2 else float(i),
            "v": float(i),
        }
        for i in range(400)
    ]
    table = PartitionedTable.from_table(Table.from_rows(rows, name="t"), target_rows=100)
    source = table.column("s")
    assert source.codes is not None and table.column("m").codes is None
    handle = SharedTableHandle(table)
    rebuilt = attached = None
    try:
        descriptor = handle.descriptor
        buffers = {name: (count, dtype) for name, _offset, count, dtype in descriptor.buffers}
        blobs = {name: length for name, _offset, length in descriptor.pickled}
        assert buffers["s"] == (400, source.codes.dtype.str)
        assert blobs["s"] == len(pickle.dumps(source.dictionary, pickle.HIGHEST_PROTOCOL))
        assert blobs["s"] < len(pickle.dumps(source.values, pickle.HIGHEST_PROTOCOL)) // 4
        assert "m" not in buffers and "m" in blobs
        assert handle.nbytes_pickled == sum(blobs.values())

        rebuilt = attach_table(descriptor)
        attached = rebuilt.column("s")
        assert attached.codes.dtype == source.codes.dtype
        assert attached.codes.tolist() == source.codes.tolist()
        assert attached.dictionary.tolist() == source.dictionary.tolist()
        assert not attached.codes.flags.writeable
        assert rebuilt.partition(2).column("s").dictionary is attached.dictionary
        assert rebuilt.to_rows() == table.to_rows()
    finally:
        del rebuilt, attached  # release the views so the detach can close the mmap
        detach_all()
        handle.close()


@needs_shm
def test_stale_segment_attach_fails_fast():
    table = PartitionedTable.from_table(
        Table.from_rows(_partitioned_rows(20), name="t"), target_rows=10
    )
    handle = SharedTableHandle(table)
    handle.close()  # unlink before any attach
    with pytest.raises(StaleSegmentError):
        attach_table(handle.descriptor)


def test_fallback_when_shared_memory_unavailable(monkeypatch):
    """No shm on the platform → the engine silently resolves to threads."""
    monkeypatch.setattr(shared_mod, "_shm_module", None)
    assert not shared_memory_available()
    db = Database(executor="process", process_min_rows=0)
    try:
        assert db.morsel_executor == "thread"
        assert db.process_pool is None
        db.register_rows("t", _partitioned_rows())
        db.repartition("t", 50)
        assert db.query_rows("SELECT COUNT(*) AS n FROM t") == [{"n": 200}]
        assert db.catalog.shared_handle("t") is None
    finally:
        db.close()


@needs_shm
def test_small_tables_stay_on_threads():
    """Below the size floor the process engine never exports a segment."""
    baseline = active_segment_names()
    # An explicit floor: the suite may run with REPRO_MORSEL_PROCESS_MIN_ROWS=0
    # (the CI process-differential leg), which overrides the 32768 default.
    db = Database(executor="process", process_min_rows=50_000)
    try:
        db.register_rows("t", _partitioned_rows())
        db.repartition("t", 50)
        db.query_rows("SELECT k, SUM(v) AS s FROM t GROUP BY k")
        assert active_segment_names() - baseline == set()
        assert db.metrics.snapshot()["morsel_bytes_shared"] == 0.0
    finally:
        db.close()


def test_env_default_executor(monkeypatch):
    monkeypatch.setenv("REPRO_MORSEL_EXECUTOR", "process")
    db = Database()
    try:
        expected = "process" if shared_memory_available() else "thread"
        assert db.morsel_executor == expected
    finally:
        db.close()
    monkeypatch.setenv("REPRO_MORSEL_EXECUTOR", "sidecar")
    with pytest.raises(ValueError):
        Database()


# --------------------------------------------------------------------------- #
# Pool lifecycle: crash surfacing, shutdown/map races
# --------------------------------------------------------------------------- #


def _crash_worker(_item: object) -> None:
    os._exit(13)  # simulate a hard worker death (OOM kill, segfault)


def _double(item: int) -> int:
    return item * 2


@needs_shm
def test_worker_crash_surfaces_clean_error():
    pool = ProcessMorselPool(workers=2)
    try:
        with pytest.raises(ExecutionError, match="worker process died"):
            pool.map(_crash_worker, [1, 2, 3])
        # The broken executor was discarded: the next map gets fresh workers.
        assert pool.map(_double, [1, 2, 3]) == [2, 4, 6]
    finally:
        pool.shutdown()


def test_thread_pool_map_survives_shutdown_race():
    pool = MorselPool(workers=4)
    executor = pool._ensure_executor()
    executor.shutdown(wait=True)  # simulate losing the race mid-map
    assert pool.map(_double, [1, 2, 3]) == [2, 4, 6]
    pool.shutdown()


@needs_shm
def test_process_pool_map_survives_shutdown_race():
    pool = ProcessMorselPool(workers=2)
    executor = pool._ensure_executor()
    executor.shutdown(wait=True)
    assert pool.map(_double, [1, 2, 3]) == [2, 4, 6]
    pool.shutdown()


def test_close_is_idempotent_and_shutdown_pools_restart():
    db = _process_database()
    db.register_rows("t", _partitioned_rows())
    db.repartition("t", 50)
    assert db.query_rows("SELECT COUNT(*) AS n FROM t") == [{"n": 200}]
    db.close()
    db.close()  # second close must be a no-op
    # Pools restart lazily: the engine still answers queries after close.
    assert db.query_rows("SELECT COUNT(*) AS n FROM t") == [{"n": 200}]
    db.close()
