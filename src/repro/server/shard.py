"""Sharded async serving tier: an asyncio gateway over worker processes.

One Python process cannot serve many concurrent dashboard sessions past
the point where query execution saturates the GIL — a thread-pooled
tier (:class:`~repro.bench.load.ThreadedTier`) overlaps *waiting* well
but not *computing*.  This module scales the serving runtime across
processes while keeping the paper's middleware semantics intact:

* an :class:`AsyncGateway` (asyncio, single event loop) owns admission
  control and routing.  Each request is routed by a **stable hash of its
  session id** (:func:`shard_for`, CRC-32 — Python's ``hash`` is salted
  per process and useless across restarts) to one of N shard workers, so
  every session's client cache and latency history live on exactly one
  shard and per-session state never needs cross-process locking,
* each **shard worker** is a separate process owning its slice of the
  session map *plus its own full middleware stack* — backend, server
  cache, single-flight :class:`~repro.server.scheduler.RequestScheduler`
  — so coalescing still happens per shard and identical in-flight
  queries from co-resident sessions collapse to one execution,
* gateway and workers speak the length-prefixed pickle frames of
  :mod:`repro.net.serialize` over a ``socketpair`` — a real byte-stream
  protocol, not a queue handed to ``multiprocessing``, so the asyncio
  side can use plain ``StreamReader``/``StreamWriter``.

Admission control is explicit: at most ``max_inflight`` requests execute
concurrently and at most ``max_queue_depth`` wait; past both limits the
gateway **sheds** with :class:`~repro.errors.OverloadError` instead of
queueing unboundedly.  Overload is therefore a fast, distinct, countable
outcome — never a hang, never a silent drop — and shed counts surface in
``stats()["serving"]``.

A session lives on its home shard for the worker's lifetime — routing
is a pure function of its id, so there is nothing to migrate.  The wire
speaks four operations: ``execute``, ``ping``, ``stats`` and
``shutdown``.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import os
import socket
import threading
import zlib
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.backends import SQLBackend, create_backend
from repro.datasets.generators import generate_dataset
from repro.errors import BenchmarkError, OverloadError, ShardError
from repro.net.channel import NetworkModel
from repro.net.middleware import QueryResponse
from repro.net.serialize import (
    FRAME_HEADER_BYTES,
    WireProtocolError,
    decode_frame_sections,
    encode_frame,
    frame_section_lengths,
    recv_frame,
    send_frame,
)
from repro.server.session import SessionManager

#: Environment override for the shard-worker start method.
START_METHOD_ENV = "REPRO_SHARD_START_METHOD"

#: Seconds the gateway waits for worker control replies (ping/stats/…).
#: Generous because ``spawn`` workers pay a full interpreter boot.
CONTROL_TIMEOUT_SECONDS = 60.0


def default_start_method() -> str:
    """Preferred start method for shard workers (env override respected).

    ``forkserver`` where available — workers fork from a clean
    single-threaded server process instead of inheriting the gateway's
    event loop and threads — with ``spawn`` as the portable fallback.
    """
    env = os.environ.get(START_METHOD_ENV)
    methods = multiprocessing.get_all_start_methods()
    if env is not None:
        if env not in methods:
            raise ValueError(
                f"{START_METHOD_ENV}={env!r} unsupported here; one of {methods}"
            )
        return env
    return "forkserver" if "forkserver" in methods else "spawn"


def shard_for(session_id: str, n_shards: int) -> int:
    """Stable shard index for ``session_id``.

    CRC-32 of the UTF-8 bytes, modulo the shard count: deterministic
    across processes and interpreter restarts (``hash()`` is neither).
    """
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    return zlib.crc32(session_id.encode("utf-8")) % n_shards


# --------------------------------------------------------------------------- #
# Worker-side specification
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TableSpec:
    """One synthetic table a shard worker materialises at boot."""

    dataset: str
    n_rows: int
    seed: int = 0
    #: Table name to register under; defaults to the dataset name.
    table: str | None = None

    @property
    def name(self) -> str:
        return self.table or self.dataset


@dataclass(frozen=True)
class ShardSpec:
    """Everything a shard worker needs to build its serving stack.

    Must stay picklable under ``spawn``/``forkserver``: plain data plus
    at most a module-level ``backend_factory`` callable.  Every worker
    builds an **identical, independent** stack from this spec — identical
    data is what makes sharded results comparable row-for-row with a
    serial baseline, independence is what removes cross-process locking.
    """

    backend: str = "embedded"
    tables: tuple[TableSpec, ...] = ()
    #: Request-handler threads of each worker, which is also its
    #: scheduler's admission bound.
    max_workers: int = 4
    #: Link model applied by each worker's middleware (None = no model).
    network: NetworkModel | None = None
    #: Optional module-level callable returning a ready backend; overrides
    #: ``backend``/``tables`` (used by tests to wire custom data).
    backend_factory: Callable[[], SQLBackend] | None = None

    def build_backend(self) -> SQLBackend:
        if self.backend_factory is not None:
            return self.backend_factory()
        database = create_backend(self.backend)
        for spec in self.tables:
            database.register_rows(
                spec.name, generate_dataset(spec.dataset, spec.n_rows, seed=spec.seed)
            )
        return database


def _shard_worker_main(shard_index: int, spec: ShardSpec, conn: socket.socket) -> None:
    """Entry point of one shard worker process.

    Single reader loop over the gateway socket; ``execute`` requests fan
    out to a thread pool whose threads run their queries themselves (the
    worker's own single-flight scheduler bounds and coalesces them),
    control requests are answered inline.  Every reply carries the
    request id it answers, so the gateway can interleave requests
    freely.  Module-level so it pickles by reference under
    spawn/forkserver.
    """
    database = spec.build_backend()
    manager = SessionManager.for_backend(
        database, max_workers=spec.max_workers, network=spec.network
    )
    handler_pool = ThreadPoolExecutor(
        max_workers=max(1, spec.max_workers),
        thread_name_prefix=f"shard-{shard_index}",
    )
    write_lock = threading.Lock()

    def reply(message: dict) -> None:
        with write_lock:
            send_frame(conn, message)

    def fail(request_id: int, exc: BaseException) -> None:
        reply(
            {
                "request_id": request_id,
                "ok": False,
                "error_type": type(exc).__name__,
                "error": str(exc),
            }
        )

    def handle_execute(request: dict) -> None:
        request_id = request["request_id"]
        try:
            response = manager.execute(str(request["session_id"]), request["sql"])
            # The response crosses the wire as the middleware built it:
            # the columnar result's numeric buffers ride the frame's
            # out-of-band section, so the worker never materialises row
            # dicts for transport.
            reply({"request_id": request_id, "ok": True, "response": response})
        except BaseException as exc:  # must answer or the caller waits forever
            fail(request_id, exc)

    def worker_stats() -> dict[str, object]:
        stats = manager.statistics()
        stats["shard"] = shard_index
        stats["pid"] = os.getpid()
        return stats

    try:
        while True:
            try:
                request = recv_frame(conn)
            except (EOFError, WireProtocolError, OSError):
                break  # gateway went away; drain and exit
            operation = request.get("op")
            if operation == "execute":
                handler_pool.submit(handle_execute, request)
                continue
            request_id = request.get("request_id", -1)
            try:
                if operation == "ping":
                    reply({"request_id": request_id, "ok": True, "pid": os.getpid()})
                elif operation == "stats":
                    reply({"request_id": request_id, "ok": True, "stats": worker_stats()})
                elif operation == "shutdown":
                    handler_pool.shutdown(wait=True)
                    reply({"request_id": request_id, "ok": True, "stats": worker_stats()})
                    break
                else:
                    raise ValueError(f"unknown shard operation {operation!r}")
            except BaseException as exc:
                fail(request_id, exc)
    finally:
        handler_pool.shutdown(wait=True)
        manager.shutdown()
        database.close()
        conn.close()


# --------------------------------------------------------------------------- #
# Admission control (event-loop side)
# --------------------------------------------------------------------------- #
class AdmissionController:
    """Bounded-inflight, bounded-queue admission with explicit shedding.

    Lives on the event loop, so plain counters suffice (no locks).  A
    request either runs immediately (``inflight < max_inflight``), waits
    in a bounded queue, or is **shed** with
    :class:`~repro.errors.OverloadError` when both bounds are hit —
    overload degrades into fast failures rather than unbounded latency.
    The same controller fronts the threaded baseline tier in
    :mod:`repro.bench.load`, so fig14 compares execution models under
    identical admission policy.
    """

    def __init__(self, max_inflight: int, max_queue_depth: int) -> None:
        if max_inflight <= 0 or max_queue_depth < 0:
            raise ValueError("max_inflight must be > 0 and max_queue_depth >= 0")
        self.max_inflight = max_inflight
        self.max_queue_depth = max_queue_depth
        self._semaphore = asyncio.Semaphore(max_inflight)
        self.submitted = 0
        self.admitted = 0
        self.shed = 0
        self.completed = 0
        self.failed = 0
        self.inflight = 0
        self.queued = 0
        self.peak_inflight = 0
        self.peak_queued = 0

    async def acquire(self) -> None:
        """Admit the calling request or raise :class:`OverloadError`."""
        self.submitted += 1
        if self.inflight >= self.max_inflight and self.queued >= self.max_queue_depth:
            self.shed += 1
            raise OverloadError(
                f"request shed: {self.inflight} inflight (max {self.max_inflight}) "
                f"and {self.queued} queued (max {self.max_queue_depth})"
            )
        self.queued += 1
        self.peak_queued = max(self.peak_queued, self.queued)
        try:
            await self._semaphore.acquire()
        finally:
            self.queued -= 1
        self.inflight += 1
        self.peak_inflight = max(self.peak_inflight, self.inflight)
        self.admitted += 1

    def release(self, ok: bool = True) -> None:
        """Retire an admitted request (pair with a successful acquire)."""
        self.inflight -= 1
        if ok:
            self.completed += 1
        else:
            self.failed += 1
        self._semaphore.release()

    def snapshot(self) -> dict[str, float]:
        return {
            "max_inflight": self.max_inflight,
            "max_queue_depth": self.max_queue_depth,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "shed": self.shed,
            "completed": self.completed,
            "failed": self.failed,
            "inflight": self.inflight,
            "queued": self.queued,
            "peak_inflight": self.peak_inflight,
            "peak_queued": self.peak_queued,
            "shed_rate": self.shed / self.submitted if self.submitted else 0.0,
        }


def serving_summary(
    per_shard: Sequence[dict[str, object]], admission: AdmissionController
) -> dict[str, object]:
    """The ``stats()["serving"]`` aggregate of a serving tier.

    ``per_shard`` holds one ``SessionManager.statistics()`` dict per
    serving stack — N for the sharded gateway, one for the threaded tier —
    or ``{"shard": i, "error": ...}`` for a stack that did not answer.
    Sessions/requests/executions are summed over the live stacks, their
    single-flight scheduler counters merged, and the admission snapshot
    (including the shed count) embedded.
    """
    live = [stats for stats in per_shard if "error" not in stats]

    def total(key: str) -> int:
        return int(sum(float(stats.get(key, 0) or 0) for stats in live))

    scheduler: dict[str, float] = {}
    for stats in live:
        for key, value in (stats.get("scheduler") or {}).items():
            scheduler[key] = scheduler.get(key, 0.0) + float(value)
    if scheduler:
        submitted = scheduler.get("submitted", 0.0)
        scheduler["coalescing_rate"] = (
            scheduler.get("coalesced", 0.0) / submitted if submitted else 0.0
        )
    return {
        "n_shards": len(per_shard),
        "live_shards": len(live),
        "sessions": total("sessions"),
        "requests": total("requests"),
        "queries_executed": total("queries_executed"),
        "scheduler": scheduler,
        "admission": admission.snapshot(),
        "shed": admission.shed,
    }


# --------------------------------------------------------------------------- #
# Gateway
# --------------------------------------------------------------------------- #
@dataclass
class _ShardHandle:
    """Gateway-side bookkeeping for one live worker."""

    index: int
    process: multiprocessing.process.BaseProcess
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    pending: dict[int, asyncio.Future] = field(default_factory=dict)
    reader_task: asyncio.Task | None = None
    dead: BaseException | None = None


class AsyncGateway:
    """Asyncio front door of the sharded serving tier.

    Use as an async context manager (or call :meth:`start` / :meth:`close`
    explicitly)::

        spec = ShardSpec(backend="embedded", tables=(TableSpec("flights", 2000),))
        async with AsyncGateway(spec, n_shards=4) as gateway:
            response = await gateway.execute("alice", sql)
            serving = (await gateway.stats())["serving"]

    The gateway is single-loop: all public coroutines must be awaited on
    the loop that ran :meth:`start`.
    """

    def __init__(
        self,
        spec: ShardSpec,
        n_shards: int = 2,
        max_inflight: int = 16,
        max_queue_depth: int = 64,
        start_method: str | None = None,
        request_timeout: float | None = None,
    ) -> None:
        if n_shards <= 0:
            raise BenchmarkError("n_shards must be positive")
        self.spec = spec
        self.n_shards = n_shards
        self.admission = AdmissionController(max_inflight, max_queue_depth)
        self.request_timeout = request_timeout
        self._start_method = start_method
        self._shards: list[_ShardHandle] = []
        self._request_ids = itertools.count()
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------ #
    async def __aenter__(self) -> "AsyncGateway":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def start(self) -> None:
        """Spawn the shard workers and verify each one answers a ping."""
        if self._started:
            return
        self._started = True
        context = multiprocessing.get_context(self._start_method or default_start_method())
        for index in range(self.n_shards):
            parent_sock, child_sock = socket.socketpair()
            process = context.Process(
                target=_shard_worker_main,
                args=(index, self.spec, child_sock),
                name=f"repro-shard-{index}",
                daemon=True,
            )
            process.start()
            child_sock.close()
            reader, writer = await asyncio.open_connection(sock=parent_sock)
            handle = _ShardHandle(index, process, reader, writer)
            handle.reader_task = asyncio.get_running_loop().create_task(
                self._read_replies(handle)
            )
            self._shards.append(handle)
        pings = await asyncio.gather(
            *(self._call(handle.index, {"op": "ping"}) for handle in self._shards),
            return_exceptions=True,
        )
        for ping in pings:
            if isinstance(ping, BaseException):
                await self.close()
                raise ping

    async def _read_replies(self, handle: _ShardHandle) -> None:
        """Per-shard reader: match replies to pending futures by id.

        On any stream failure the shard is marked dead and **every**
        pending future fails with :class:`ShardError` — a crashed worker
        surfaces as errors, never as requests that hang forever.
        """
        try:
            while True:
                header = await handle.reader.readexactly(FRAME_HEADER_BYTES)
                payload_length, section_length = frame_section_lengths(header)
                payload = await handle.reader.readexactly(payload_length)
                section = (
                    await handle.reader.readexactly(section_length)
                    if section_length
                    else b""
                )
                message = decode_frame_sections(payload, section)
                future = handle.pending.pop(message.get("request_id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
        except (asyncio.IncompleteReadError, WireProtocolError, OSError) as exc:
            handle.dead = ShardError(f"shard {handle.index} connection lost: {exc!r}")
        except asyncio.CancelledError:
            handle.dead = ShardError(f"shard {handle.index} is shut down")
            raise
        finally:
            if handle.dead is None:
                handle.dead = ShardError(f"shard {handle.index} reader exited")
            pending, handle.pending = handle.pending, {}
            for future in pending.values():
                if not future.done():
                    future.set_exception(handle.dead)

    async def _call(
        self, shard: int, message: dict, timeout: float | None = CONTROL_TIMEOUT_SECONDS
    ) -> dict:
        """One request/reply round trip with shard ``shard``."""
        handle = self._shards[shard]
        if handle.dead is not None:
            raise handle.dead
        request_id = next(self._request_ids)
        message = dict(message, request_id=request_id)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        handle.pending[request_id] = future
        try:
            try:
                handle.writer.write(encode_frame(message))
                await handle.writer.drain()
            except OSError as exc:
                handle.pending.pop(request_id, None)
                raise ShardError(f"shard {shard} connection lost: {exc!r}") from exc
            reply = await (
                asyncio.wait_for(future, timeout) if timeout is not None else future
            )
        except TimeoutError:
            handle.pending.pop(request_id, None)
            raise ShardError(
                f"shard {shard} did not answer {message.get('op')!r} "
                f"within {timeout:.0f}s"
            ) from None
        finally:
            handle.pending.pop(request_id, None)
        if not reply.get("ok"):
            raise ShardError(
                f"shard {shard} failed {message.get('op')!r}: "
                f"{reply.get('error_type')}: {reply.get('error')}",
                error_type=reply.get("error_type"),
            )
        return reply

    # ------------------------------------------------------------------ #
    def shard_for(self, session_id: str) -> int:
        """The shard that owns ``session_id`` (stable CRC-32 routing)."""
        return shard_for(session_id, self.n_shards)

    async def execute(self, session_id: str, sql: str) -> QueryResponse:
        """Serve ``sql`` for ``session_id`` through its home shard.

        Returns the :class:`QueryResponse` the shard's middleware
        produced, stamped with the serving shard's index.  Raises :class:`~repro.errors.OverloadError` when admission sheds
        the request and :class:`~repro.errors.ShardError` when the owning
        worker fails it or dies mid-flight.
        """
        await self.admission.acquire()
        ok = False
        try:
            shard = self.shard_for(session_id)
            reply = await self._call(
                shard,
                {"op": "execute", "session_id": session_id, "sql": sql},
                timeout=self.request_timeout,
            )
            ok = True
        finally:
            self.admission.release(ok=ok)
        response: QueryResponse = reply["response"]
        response.shard = shard
        return response

    async def stats(self) -> dict[str, object]:
        """Cross-shard aggregate under ``"serving"`` (see
        :func:`serving_summary`) plus per-shard detail under ``"shards"``."""
        replies = await asyncio.gather(
            *(self._call(handle.index, {"op": "stats"}) for handle in self._shards),
            return_exceptions=True,
        )
        per_shard: list[dict[str, object]] = [
            {"shard": handle.index, "error": str(reply)}
            if isinstance(reply, BaseException)
            else reply["stats"]
            for handle, reply in zip(self._shards, replies)
        ]
        return {"serving": serving_summary(per_shard, self.admission), "shards": per_shard}

    # ------------------------------------------------------------------ #
    async def close(self) -> dict[str, object] | None:
        """Drain and stop every worker (idempotent).

        Asks each live worker to shut down (its final stats come back in
        the ack), then closes streams and joins the processes; workers
        that ignore the ask are terminated.  Returns the last ``stats()``
        aggregate, or ``None`` when the gateway never started.
        """
        if self._closed or not self._started:
            self._closed = True
            return None
        self._closed = True
        final = None
        try:
            final = await self.stats()
        except Exception:
            pass
        for handle in self._shards:
            if handle.dead is None:
                try:
                    await self._call(handle.index, {"op": "shutdown"})
                except ShardError:
                    pass
            if handle.reader_task is not None:
                handle.reader_task.cancel()
                try:
                    await handle.reader_task
                except (asyncio.CancelledError, Exception):
                    pass
            handle.writer.close()
            try:
                await handle.writer.wait_closed()
            except Exception:
                pass
        loop = asyncio.get_running_loop()
        for handle in self._shards:
            await loop.run_in_executor(None, handle.process.join, 10.0)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
                await loop.run_in_executor(None, handle.process.join, 5.0)
        return final
