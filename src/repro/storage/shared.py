"""Shared-memory export of partitioned tables for process-parallel morsels.

The process-parallel morsel executor (see :mod:`repro.sql.morsel`) must
hand each worker process a partition of a :class:`PartitionedTable`
without pickling the column arrays: at 200k rows the arrays *are* the
workload, and shipping them per task would cost more than the GIL does.

The export path here puts every column of a table into **one**
``multiprocessing.shared_memory`` segment:

* numeric (float64) columns are copied raw, 8-byte aligned — workers
  rebuild them as zero-copy ``np.frombuffer`` views;
* dictionary-encoded string columns travel the same way: their narrow
  ``codes`` array is a raw buffer (also a zero-copy view worker-side)
  and only the small sorted dictionary is pickled, once per column;
* plain object columns (mixed-type strings) have no stable buffer
  representation, so they travel as pickled blobs inside the same
  segment (attached once per worker, not once per task).

A :class:`SharedTableDescriptor` — segment name, partition boundaries,
and per-column buffer/blob entries — is all that crosses the
process boundary per table; task specs then reference partitions by
index.  Workers cache the attached segment *and its numpy views* per
segment name for the life of the process: dropping a ``SharedMemory``
object while ``frombuffer`` views are alive raises ``BufferError``, and
re-attaching per task would re-pay the mmap.

Lifecycle: the catalog (see :mod:`repro.storage.catalog`) owns creator
handles and closes them when a table is replaced or dropped; a module
``atexit`` hook unlinks anything still live so a crashed test run never
leaks ``/dev/shm`` segments.  :func:`active_segment_names` exposes the
live set so the test suite can assert leak-freedom.
"""

from __future__ import annotations

import atexit
import gc
import pickle
from dataclasses import dataclass

import numpy as np

from repro.errors import StorageError
from repro.storage.column import Column, ColumnType
from repro.storage.table import PartitionedTable

try:  # pragma: no cover - import succeeds on every supported platform
    from multiprocessing import shared_memory as _shm_module
except ImportError:  # pragma: no cover - platforms without shm support
    _shm_module = None


def shared_memory_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` is usable here."""
    return _shm_module is not None


class StaleSegmentError(StorageError):
    """A worker tried to attach a segment that was already unlinked.

    Raised worker-side when the creating process replaced or dropped the
    table between task-spec construction and task execution.  The parent
    executor treats it as retryable and re-runs the morsels on threads
    against the current table.
    """


@dataclass(frozen=True)
class SharedTableDescriptor:
    """Compact, picklable recipe to rebuild a table from a shm segment.

    ``buffers`` entries are ``(column, byte_offset, element_count,
    dtype)`` raw arrays: the float64 values of a numeric column, or the
    codes of a dictionary-encoded string column.  ``pickled`` entries
    are ``(column, byte_offset, byte_length)`` pickle blobs: the
    dictionary of an encoded column (one that also has a buffer), or
    the whole object array of a plain string column.  ``column_order``
    restores the original column order, which the executor's merge steps
    rely on.
    """

    shm_name: str
    table_name: str
    boundaries: tuple[int, ...]
    buffers: tuple[tuple[str, int, int, str], ...]
    pickled: tuple[tuple[str, int, int], ...]
    column_order: tuple[str, ...]

    @property
    def num_rows(self) -> int:
        """Row count of the exported table."""
        return self.boundaries[-1] if self.boundaries else 0


#: Creator-side handles that have not been closed yet, by segment name.
_LIVE_SEGMENTS: dict[str, "SharedTableHandle"] = {}


def active_segment_names() -> set[str]:
    """Names of segments this process created and has not yet unlinked."""
    return set(_LIVE_SEGMENTS)


class SharedTableHandle:
    """Creator-side owner of one table's shared-memory segment.

    Building the handle copies every column into a fresh segment and
    records the layout in :attr:`descriptor`.  The creator must keep the
    handle alive while workers may attach and must :meth:`close` it when
    the table contents stop being valid (replace/drop) — ``close``
    unlinks the segment, so later worker attaches fail fast with
    :class:`StaleSegmentError` instead of reading stale rows.
    """

    def __init__(self, table: PartitionedTable) -> None:
        if _shm_module is None:  # pragma: no cover - guarded by callers
            raise StorageError("multiprocessing.shared_memory is unavailable")
        columns = table.columns()
        arrays: dict[str, np.ndarray] = {}
        blobs: dict[str, bytes] = {}
        for col in columns:
            if col.ctype is ColumnType.NUMERIC:
                arrays[col.name] = col.values
            elif col.codes is not None:
                arrays[col.name] = col.codes
                blobs[col.name] = pickle.dumps(
                    col.dictionary, protocol=pickle.HIGHEST_PROTOCOL
                )
            else:
                blobs[col.name] = pickle.dumps(col.values, protocol=pickle.HIGHEST_PROTOCOL)
        # Raw buffers first, each padded to 8 bytes so every view is aligned.
        buffer_bytes = sum(_padded(array.nbytes) for array in arrays.values())
        total = buffer_bytes + sum(len(blob) for blob in blobs.values())
        self._shm = _shm_module.SharedMemory(create=True, size=max(1, total))
        buffer_entries: list[tuple[str, int, int, str]] = []
        pickled_entries: list[tuple[str, int, int]] = []
        offset = 0
        for name, array in arrays.items():
            view = np.frombuffer(
                self._shm.buf, dtype=array.dtype, count=len(array), offset=offset
            )
            view[:] = array
            buffer_entries.append((name, offset, len(array), array.dtype.str))
            offset += _padded(array.nbytes)
        for name, blob in blobs.items():
            self._shm.buf[offset : offset + len(blob)] = blob
            pickled_entries.append((name, offset, len(blob)))
            offset += len(blob)
        self.descriptor = SharedTableDescriptor(
            shm_name=self._shm.name,
            table_name=table.name,
            boundaries=_flatten_bounds(table),
            buffers=tuple(buffer_entries),
            pickled=tuple(pickled_entries),
            column_order=tuple(col.name for col in columns),
        )
        self.nbytes_shared = buffer_bytes
        self.nbytes_pickled = total - buffer_bytes
        self._closed = False
        _LIVE_SEGMENTS[self._shm.name] = self

    @property
    def name(self) -> str:
        """The segment name workers attach by."""
        return self.descriptor.shm_name

    def close(self) -> None:
        """Close and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        _LIVE_SEGMENTS.pop(self._shm.name, None)
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - exported views still alive
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


def _padded(nbytes: int) -> int:
    """``nbytes`` rounded up to the next multiple of 8."""
    return -(-nbytes // 8) * 8


def _flatten_bounds(table: PartitionedTable) -> tuple[int, ...]:
    """Partition boundaries as the flat ``0..n`` sequence."""
    bounds = table.partition_bounds()
    return tuple([bounds[0][0]] + [end for _start, end in bounds])


# --------------------------------------------------------------------------- #
# Worker-side attach
# --------------------------------------------------------------------------- #

#: Per-process cache of attached segments.  Both entries matter: the
#: ``SharedMemory`` object must outlive every numpy view into its buffer
#: (closing it with exported views raises ``BufferError``), and caching
#: the rebuilt table makes repeat tasks over the same table free.
_ATTACHED: dict[str, tuple[object, PartitionedTable]] = {}


def attach_table(descriptor: SharedTableDescriptor) -> PartitionedTable:
    """Rebuild a read-only :class:`PartitionedTable` from ``descriptor``.

    Numeric values and dictionary codes come back as zero-copy views
    into the shared segment (marked non-writeable — the storage layer
    never mutates column arrays, and a worker scribbling on shared pages
    would corrupt every other worker); dictionaries and plain object
    columns are unpickled once per process.
    """
    cached = _ATTACHED.get(descriptor.shm_name)
    if cached is not None:
        return cached[1]
    if _shm_module is None:  # pragma: no cover - guarded by the dispatcher
        raise StorageError("multiprocessing.shared_memory is unavailable")
    try:
        shm = _shm_module.SharedMemory(name=descriptor.shm_name)
    except FileNotFoundError as exc:
        raise StaleSegmentError(
            f"shared segment {descriptor.shm_name!r} for table "
            f"{descriptor.table_name!r} is gone (table replaced or dropped)"
        ) from exc
    buffers = {name: entry for name, *entry in descriptor.buffers}
    pickled = {name: (offset, length) for name, offset, length in descriptor.pickled}
    columns: list[Column] = []
    for name in descriptor.column_order:
        array = blob = None
        if name in buffers:
            offset, count, dtype = buffers[name]
            array = np.frombuffer(shm.buf, dtype=np.dtype(dtype), count=count, offset=offset)
            array.flags.writeable = False
        if name in pickled:
            offset, length = pickled[name]
            blob = pickle.loads(bytes(shm.buf[offset : offset + length]))
        if blob is None:
            columns.append(Column(name, array, ColumnType.NUMERIC))
        elif array is None:
            columns.append(Column(name, blob, ColumnType.STRING))
        else:
            columns.append(Column.from_codes(name, array, blob))
    table = PartitionedTable(
        columns, name=descriptor.table_name, boundaries=descriptor.boundaries
    )
    _ATTACHED[descriptor.shm_name] = (shm, table)
    return table


def detach_all() -> None:
    """Drop this process's attach cache (tests and the atexit sweep).

    The cached tables (and their ``frombuffer`` views) are released
    *before* the segments close — a ``SharedMemory`` with exported views
    refuses to close.  A view that escaped the cache (a live query
    result) keeps its mmap alive until collected; the ``BufferError`` is
    swallowed and the segment simply closes with the process.
    """
    shms = [shm for shm, _table in _ATTACHED.values()]
    _ATTACHED.clear()
    gc.collect()  # free the cached tables' views so close() succeeds
    _detach_shms(shms)


#: Segments whose close failed because a view escaped the cache (a live
#: query result still points into the buffer).  Parking the handle keeps
#: its noisy ``__del__`` from firing; the mapping is released with the
#: process either way, since the escaped view pins it regardless.
_ESCAPED: list[object] = []


def _detach_shms(shms: list[object]) -> None:
    for shm in shms:
        try:
            shm.close()
        except BufferError:
            _ESCAPED.append(shm)


@atexit.register
def _close_leaked_segments() -> None:  # pragma: no cover - interpreter exit
    """Unlink live segments and detach caches so /dev/shm never accumulates."""
    detach_all()
    for handle in list(_LIVE_SEGMENTS.values()):
        handle.close()
