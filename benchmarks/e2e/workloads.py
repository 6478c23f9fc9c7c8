"""The six workloads: set-up, the measured loop, and the per-layer numbers.

Every workload has the same three-step life — ``setup()`` (data
generation, registration, tier boot, warm-up; timed as ``setup_s``),
``measure(seconds)`` (the only timed operations), ``close()`` — and
builds the stack the way a user of ``repro`` would, through public
constructors.  A traced run passes a :class:`~benchmarks.e2e.trace.Tracer`
to ``setup()``; the same loop then records spans around every layer call.

Closed loops time each operation on its own and stop once the *summed*
operation time reaches ``seconds``; each response is checked against the
oracle between operations, outside any timed interval.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import defaultdict
from collections.abc import Iterator

import numpy as np

from benchmarks.e2e import queries
from benchmarks.e2e.openloop import Rung, pooled, run_rung
from benchmarks.e2e.oracle import Oracle, describe_mismatch, rows_match, rows_match_unordered
from benchmarks.e2e.queries import Query
from benchmarks.e2e.stats import median, p95, window_medians
from benchmarks.e2e.trace import NoTrace, Span, Tracer, spans_under, totals_by_name
from repro.backends import create_backend
from repro.baselines import VegaNativeSystem
from repro.bench.workload import WorkloadGenerator
from repro.core.enumerator import PlanEnumerator
from repro.core.system import VegaPlusSystem
from repro.datasets.generators import generate_dataset
from repro.net.middleware import MiddlewareServer
from repro.net.serialize import (
    FRAME_HEADER_BYTES,
    decode_frame_sections,
    encode_frame,
    frame_section_lengths,
)
from repro.server.scheduler import RequestScheduler
from repro.server.session import SessionManager
from repro.server.shard import AsyncGateway, ShardSpec, TableSpec
from repro.storage.sqlite_adapter import table_from_cursor
from repro.vega.spec import parse_spec_dict

clock = time.perf_counter

#: A traced run alternates this many stretches, tracing on for every other one.
TRACE_STRETCHES = 4


class Checker:
    """Counts responses checked against the oracle and how many were wrong."""

    def __init__(self, corrupt_one: bool = False) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None
        #: ``--selftest``: falsify one expected row; the run must notice.
        self._corrupt_one = corrupt_one

    def check(self, label: str, got, want, match=rows_match) -> None:
        if self._corrupt_one and want:
            key = next(iter(want[0]))
            want = [{**want[0], key: "corrupted-by-selftest"}, *want[1:]]
            self._corrupt_one = False
        self.attempted += 1
        if not match(got, want):
            self._fail(f"{label}: {describe_mismatch(got, want)}")

    def error(self, label: str, message: str) -> None:
        self.attempted += 1
        self._fail(f"{label}: {message}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = message


def _engine_span(tracer: Tracer, span: Span, result) -> None:
    """Split a ``backends.execute`` span: the engine's own ``elapsed_seconds``
    becomes an ``sql.exec`` child, leaving parse/plan/bookkeeping as self time."""
    tracer.add("sql.exec", span.end - result.elapsed_seconds, span.end, span)


def instrument_middleware(tracer, middleware: MiddlewareServer, client_caches) -> None:
    """Span every layer boundary of one middleware (not its backend), from outside."""
    tracer.instrument(middleware, "serve", "net.serve")
    for method in ("get", "put", "peek"):
        tracer.instrument(middleware.server_cache, method, "net.cache.server")
    for cache in client_caches:
        for method in ("get", "put"):
            tracer.instrument(cache, method, "net.cache.client")
    if middleware.scheduler is not None:
        tracer.instrument(middleware.scheduler, "run", "server.scheduler")
    tracer.instrument(middleware.codec, "estimate_result", "net.codec.estimate")


def instrument_backend(tracer, backend) -> None:
    tracer.instrument(backend, "execute", "backends.execute", after=_engine_span)


def execute_and_read(tracer: Tracer, session, sql: str):
    """One query through a ``ClientSession``, rows materialised: the part of
    an operation every SQL-level loop times the same way."""
    with tracer.span("server.session"):
        response = session.execute(sql)
    with tracer.span("storage.rows"):
        response.rows
    return response


class Workload:
    """Shared life cycle; subclasses fill in the stack and the loop."""

    name = "abstract"
    #: flights rows at ``--scale 1``.
    n_rows = 0

    def __init__(self, seed: int, scale: float = 1.0, selftest: bool = False) -> None:
        self.seed = seed
        self.scale = scale
        self.size = max(2_000, int(self.n_rows * scale))
        self.checker = Checker(corrupt_one=selftest)
        self.tracer: Tracer = NoTrace()
        #: Wall of each set-up call in the last ``setup()`` (per-layer metrics).
        self.setup_parts: dict[str, float] = {}
        self.oracle: Oracle | None = None
        #: Seconds ``setup()`` spent on the benchmark's own oracle, not the system.
        self.oracle_seconds = 0.0
        self._expected: dict[Query, list[dict]] = {}

    def rng(self, stream: int) -> np.random.Generator:
        """Independent seeded streams: 0 = warm-up, 1 = measured requests."""
        return np.random.default_rng([self.seed, stream])

    def timed(self, part: str, call, *args, **kwargs):
        start = clock()
        result = call(*args, **kwargs)
        self.setup_parts[part] = self.setup_parts.get(part, 0.0) + clock() - start
        return result

    def generate(self, sort_by_date: bool = False) -> list[dict]:
        rows = self.timed("datasets.generate_s", generate_dataset, "flights", self.size, self.seed)
        if sort_by_date:
            rows.sort(key=lambda row: row["date"])
        if self.oracle is None:
            start = clock()
            self.oracle = Oracle(rows)
            self.oracle_seconds = clock() - start
        return rows

    def repeats(self, query: Query) -> bool:
        """Whether ``query`` is issued again and again (its oracle answer is kept)."""
        return False

    def expected(self, query: Query) -> list[dict]:
        if not self.repeats(query):
            return self.oracle.rows(query)
        if query not in self._expected:
            self._expected[query] = self.oracle.rows(query)
        return self._expected[query]

    def setup(self, tracer: Tracer | None = None) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> dict:
        """Run measured operations for ``seconds``; a further call continues
        the same seeded request stream."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# Closed loops over one ClientSession stack
# --------------------------------------------------------------------------- #
class SqlWorkload(Workload):
    """brush_ivm, scan_embedded, scan_sqlite, cache_zipf: SQL through sessions."""

    backend_kind = "embedded"
    partitions = 0
    n_sessions = 1
    warmup_operations = 0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.backend = None
        self.manager: SessionManager | None = None
        self.sessions = []

    def operations(self, rng: np.random.Generator) -> Iterator[list[Query]]:
        """Endless stream of operations; one operation = the queries of one user action."""
        raise NotImplementedError

    def setup(self, tracer: Tracer | None = None) -> None:
        self.setup_parts, self.oracle_seconds = {}, 0.0
        self.tracer = tracer or NoTrace()
        rows = self.generate(sort_by_date=True)
        self.backend = create_backend(self.backend_kind)
        self.timed("storage.register_s", self.backend.register_rows, "flights", rows)
        if self.partitions:
            self.timed(
                "storage.repartition_s",
                self.backend.repartition, "flights", max(1, self.size // self.partitions),
            )
        self.manager = SessionManager.for_backend(self.backend)
        self.sessions = [self.manager.create_session(f"s{i}") for i in range(self.n_sessions)]
        warmup = self.operations(self.rng(0))
        for index in range(self.warmup_operations):
            self.run_operation(index, next(warmup))
        self.stream = self.operations(self.rng(1))
        self.operations_run = 0
        # Instrument after warm-up so the trace holds measured operations only.
        instrument_middleware(
            self.tracer, self.manager.middleware, [session.cache for session in self.sessions]
        )
        instrument_backend(self.tracer, self.backend)

    def run_operation(self, index: int, operation: list[Query]) -> tuple[float, list]:
        """Execute one operation; returns (wall seconds, responses)."""
        tracer = self.tracer
        tracer.request_id = index
        session = self.sessions[index % len(self.sessions)]
        start = clock()
        with tracer.span("operation"):
            responses = [execute_and_read(tracer, session, query.sql) for query in operation]
        return clock() - start, responses

    def measure(self, seconds: float) -> dict:
        before = stack_counters(self.manager.middleware, self.sessions)
        latencies: list[float] = []
        facts: list[tuple] = []
        sql_sample: list[str] = []
        busy = 0.0
        while busy < seconds:
            operation = next(self.stream)
            wall, responses = self.run_operation(self.operations_run, operation)
            self.operations_run += 1
            latencies.append(wall)
            busy += wall
            for query, response in zip(operation, responses):
                self.checker.check(query.sql, response.rows, self.expected(query))
            if self.tracer.enabled:
                facts.extend(map(_response_facts, responses))
                if len(sql_sample) < 40:
                    sql_sample.extend(query.sql for query in operation)
        return {
            "latencies": latencies,
            "busy": busy,
            "throughput": len(latencies) / busy,
            "responses": facts,
            "sql_sample": sql_sample,
            "counters": _delta(before, stack_counters(self.manager.middleware, self.sessions)),
        }

    def close(self) -> None:
        if self.manager is not None:
            self.manager.shutdown()
            self.backend.close()
            self.manager = self.backend = None


def stack_counters(middleware: MiddlewareServer, sessions) -> dict[str, float]:
    """Cumulative counters of one serving stack, read at a measured loop's boundaries."""
    counters = dict(middleware.database.stats())
    scheduler = middleware.scheduler.snapshot()
    counters["scheduler_submitted"] = scheduler["submitted"]
    counters["scheduler_coalesced"] = scheduler["coalesced"]
    caches = [middleware.server_cache, *(session.cache for session in sessions)]
    counters["cache_evictions"] = float(sum(cache.stats.evictions for cache in caches))
    return counters


def _response_facts(response) -> tuple:
    """What the per-layer table needs from one response (read after timing)."""
    return (
        response.cache_level,
        response.num_rows,
        response.result.nbytes,
        response.network_seconds + response.serialization_seconds,
    )


def merge_measured(total: dict, part: dict) -> None:
    """Fold one stretch's ``measure()`` result into a running total."""
    for key, value in part.items():
        if isinstance(value, list):
            total.setdefault(key, []).extend(value)
        elif isinstance(value, dict):
            counters = total.setdefault(key, {})
            for name, count in value.items():
                counters[name] = counters.get(name, 0.0) + count
        else:
            total[key] = total.get(key, 0.0) + value


def _delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {key: after[key] - before.get(key, 0.0) for key in after}


class BrushIvm(SqlWorkload):
    name = "brush_ivm"
    n_rows = 100_000
    partitions = 16
    warmup_operations = 20

    def operations(self, rng):
        for low, high in queries.brush_windows(rng):
            yield queries.brush_step(low, high)


class ScanEmbedded(SqlWorkload):
    name = "scan_embedded"
    n_rows = 100_000
    partitions = 16
    warmup_operations = 3

    def operations(self, rng):
        dates = self.oracle.column_range("date")
        while True:
            yield queries.scan_refresh(rng, dates)


class ScanSqlite(ScanEmbedded):
    """Byte-identical requests to ``scan_embedded`` through the other backend."""

    name = "scan_sqlite"
    backend_kind = "sqlite"
    partitions = 0

    def native_split(self, sample: list[str]) -> tuple[float, float]:
        """``(native ms, convert ms)`` per query: the same SQL straight on the
        sqlite connection, ``fetchall`` timed apart from ``table_from_cursor``."""
        native = convert = 0.0
        for sql in sample:
            start = clock()
            cursor = self.backend.connection.execute(sql)
            fetched = cursor.fetchall()
            middle = clock()
            table_from_cursor(cursor.description, fetched)
            native += middle - start
            convert += clock() - middle
        return 1e3 * native / len(sample), 1e3 * convert / len(sample)


class CacheZipf(SqlWorkload):
    name = "cache_zipf"
    n_rows = 20_000
    n_sessions = 4
    warmup_operations = 40
    #: > client cache (32) + server cache (128); the hot head fits.
    pool_size = 512
    #: One operation refreshes an 8-view dashboard.  A single request is a
    #: 15 microsecond cache hit two times in three: too short to time steadily.
    views = 8

    def repeats(self, query):
        return True

    def operations(self, rng):
        pool = queries.carrier_pool(np.random.default_rng([self.seed, 2]), self.pool_size)
        ranks = queries.zipf_ranks(rng, self.pool_size)
        while True:
            yield [pool[rank] for rank in itertools.islice(ranks, self.views)]


# --------------------------------------------------------------------------- #
# dash_crossfilter
# --------------------------------------------------------------------------- #
class DashCrossfilter(Workload):
    """The paper's crossfilter template from Vega spec to rendered marks."""

    name = "dash_crossfilter"
    n_rows = 50_000
    interactions_per_session = 80
    #: Fixed binding, so the seed varies data and brushes but not the plan space.
    fields = {"field_a": "distance", "field_b": "air_time", "field_c": "dep_delay"}

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.instance = WorkloadGenerator(self.seed).instantiate(
            "crossfilter", "flights", fields=self.fields
        )
        self.spec = self.instance.spec
        self.marks = [mark["from"]["data"] for mark in self.spec["marks"]]
        self.initial_signals = self.instance.template.initial_signals(
            self.instance.schema, self.instance.bound.fields
        )
        self.table_rows: list[dict] = []
        self.backend = None
        self.native: VegaNativeSystem | None = None
        self.native_backend = None

    def setup(self, tracer: Tracer | None = None) -> None:
        self.setup_parts, self.oracle_seconds = {}, 0.0
        self.tracer = tracer or NoTrace()
        self.table_rows = self.generate()
        self.backend = create_backend("embedded")
        self.timed("storage.register_s", self.backend.register_rows, "flights", self.table_rows)
        warm = VegaPlusSystem(self.spec, self.backend)
        warm.optimize()
        warm.initialize()
        rng = self.rng(0)
        for _ in range(5):
            warm.interact(self.instance.sample_interaction(rng))
        instrument_backend(self.tracer, self.backend)
        self.interactions = self.rng(1)
        self.sessions_run = self.operations_run = 0

    def open_session(self) -> VegaPlusSystem:
        system = VegaPlusSystem(self.spec, self.backend)
        instrument_middleware(self.tracer, system.middleware, [system.middleware.client_cache])
        return system

    def read_marks(self, system: VegaPlusSystem) -> dict[str, list[dict]]:
        return {name: system.dataset(name) for name in self.marks}

    def check_marks(self, label: str, got: dict, want: dict) -> None:
        for name in self.marks:
            self.checker.check(f"{label}/{name}", got[name], want[name], rows_match_unordered)

    def build_native(self) -> None:
        """The oracle: plain Vega (every transform client-side) on its own
        backend, initialised once and later moved to each session's final state."""
        self.native_backend = create_backend("embedded")
        self.native_backend.register_rows("flights", self.table_rows)
        self.native = VegaNativeSystem(self.spec, self.native_backend)
        self.native.initialize()
        self.native_initial = self.read_marks(self.native)

    def measure(self, seconds: float) -> dict:
        tracer = self.tracer
        if self.native is None:
            self.build_native()
        before = dict(self.backend.stats())
        latencies: list[float] = []
        optimize_s: list[float] = []
        initialize_s: list[float] = []
        operators: list[int] = []
        facts: list[tuple] = []
        busy = last_session = 0.0
        while not optimize_s or busy + last_session <= seconds:
            system = self.open_session()
            label = f"session {self.sessions_run}"
            tracer.request_id = -1 - self.sessions_run
            start = clock()
            with tracer.span("core.optimize"):
                system.optimize()
            middle = clock()
            with tracer.span("core.initialize"):
                system.initialize()
            end = clock()
            optimize_s.append(middle - start)
            initialize_s.append(end - middle)
            vdts = set(map(id, system.rewritten.vdts))
            for operator in system.rewritten.dataflow.operators():
                name = "rewrite.vdt" if id(operator) in vdts else "dataflow.operator"
                tracer.instrument(operator, "evaluate", name)
            self.check_marks(f"{label} initial", self.read_marks(system), self.native_initial)
            session_wall = end - start
            state = dict(self.initial_signals)
            for _ in range(self.interactions_per_session):
                interaction = self.instance.sample_interaction(self.interactions)
                state.update(interaction)
                tracer.request_id = self.operations_run
                self.operations_run += 1
                start = clock()
                with tracer.span("operation"):
                    with tracer.span("core.interact"):
                        result = system.interact(interaction)
                    with tracer.span("storage.rows"):
                        rendered = self.read_marks(system)
                wall = clock() - start
                latencies.append(wall)
                session_wall += wall
                operators.append(result.evaluated_operators)
                if tracer.enabled:
                    modelled = result.breakdown.network_seconds
                    modelled += result.breakdown.serialization_seconds
                    facts.append((None, sum(map(len, rendered.values())), 0, modelled))
            self.native.interact(state)
            self.check_marks(f"{label} final", rendered, self.read_marks(self.native))
            self.sessions_run += 1
            busy += session_wall
            last_session = session_wall
        return {
            "latencies": latencies,
            "busy": busy,
            "throughput": len(latencies) / busy,
            "optimize_s": optimize_s,
            "initialize_s": initialize_s,
            "first_render_s": [a + b for a, b in zip(optimize_s, initialize_s)],
            "operators": operators,
            "counters": _delta(before, dict(self.backend.stats())),
            "responses": facts,
        }

    def enumerate_plans(self) -> tuple[float, int]:
        """``(seconds, plans)`` of one plan-space enumeration of the spec."""
        spec = parse_spec_dict(self.spec)
        start = clock()
        plans = PlanEnumerator(spec).enumerate()
        return clock() - start, len(plans)

    def close(self) -> None:
        for backend in (self.backend, self.native_backend):
            if backend is not None:
                backend.close()
        self.backend = self.native_backend = self.native = None


# --------------------------------------------------------------------------- #
# serving_mix
# --------------------------------------------------------------------------- #
class ServingMix(Workload):
    """Open-loop traffic through the sharded gateway, a ladder of fixed rates."""

    name = "serving_mix"
    n_rows = 50_000
    n_sessions = 16
    n_shards = 2
    shard_workers = 2
    #: Arrivals per second of the reference rung, the one latency is reported on.
    reference_rate = 200.0
    #: Requests per reference segment, per second of ``--seconds``.  A segment
    #: runs before each rung of ``ladder`` and one ends the run, so the
    #: reference samples span the whole run and not one stretch of it.
    reference_per_second = 40
    #: The rungs above the reference in run order: (arrivals per second,
    #: requests per second of ``--seconds``).  The bursts arrive faster than
    #: the tier completes, so completions per second there is the saturation
    #: throughput; there are several, spread over the run like the reference.
    burst_rate = 1600.0
    ladder = (
        (400.0, 60), (burst_rate, 100), (800.0, 80), (burst_rate, 100), (burst_rate, 100),
        (burst_rate, 100),
    )
    warmup_seconds = 0.5
    #: Reference requests a traced run replays in-process: the first three
    #: segments, enough for the per-layer medians in under half the time.
    replay_requests = 1200
    slo_p95_seconds = 0.050
    slo_drain_seconds = 0.5

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.session_ids = queries.balanced_session_ids(self.n_sessions, self.n_shards)
        self.spec = ShardSpec(
            backend="embedded",
            tables=(TableSpec("flights", self.size, seed=self.seed),),
            max_workers=self.shard_workers,
        )
        self.loop: asyncio.AbstractEventLoop | None = None
        self.gateway: AsyncGateway | None = None

    def setup(self, tracer: Tracer | None = None) -> None:
        self.setup_parts, self.oracle_seconds = {}, 0.0
        self.tracer = tracer or NoTrace()
        if self.oracle is None:
            # Each shard generates its own table while it boots; this copy is
            # the oracle's, so it is the benchmark's time and not set-up's.
            start = clock()
            self.oracle = Oracle(generate_dataset("flights", self.size, self.seed))
            self.oracle_seconds = clock() - start
        self.loop = asyncio.new_event_loop()
        # The admission queue holds a whole rung: overload shows as backlog
        # (sojourn, drain time), never as refusals.
        self.gateway = AsyncGateway(self.spec, n_shards=self.n_shards, max_queue_depth=100_000)
        self.timed("server.shard.boot_s", self.loop.run_until_complete, self.gateway.start())
        warm = itertools.islice(self.requests(0), int(self.reference_rate * self.warmup_seconds))
        self.loop.run_until_complete(
            run_rung(self.gateway.execute, [(sid, q.sql) for sid, q in warm], self.reference_rate)
        )

    def requests(self, stream: int) -> Iterator[tuple[str, Query]]:
        dates = self.oracle.column_range("date")
        return queries.serving_requests(self.rng(stream), self.session_ids, dates)

    def repeats(self, query):
        return query in queries.OVERVIEW_POOL

    def plan(self, seconds: float) -> list[tuple[float, list[tuple[str, Query]]]]:
        """The request list of every rung in run order, cut from one seeded
        stream: reference segments alternate with the rungs of the ladder."""
        stream = self.requests(1)

        def take(per_second: int) -> list[tuple[str, Query]]:
            return list(itertools.islice(stream, max(20, int(per_second * seconds))))

        plan = []
        for rate, per_second in self.ladder:
            plan.append((self.reference_rate, take(self.reference_per_second)))
            plan.append((rate, take(per_second)))
        plan.append((self.reference_rate, take(self.reference_per_second)))
        return plan

    def measure(self, seconds: float) -> dict:
        by_rate: dict[float, list[Rung]] = defaultdict(list)
        reference_requests: list[tuple[str, Query]] = []
        windows: list[float] = []
        for rate, requests in self.plan(seconds):
            rung = self.loop.run_until_complete(
                run_rung(self.gateway.execute, [(sid, q.sql) for sid, q in requests], rate)
            )
            for index, rows in rung.results:
                query = requests[index][1]
                self.checker.check(query.sql, rows, self.expected(query))
            for index, message in rung.errors:
                self.checker.error(requests[index][1].sql, message)
            by_rate[rate].append(rung)
            if rate == self.reference_rate:
                reference_requests.extend(requests)
                # One window is one second of arrivals.
                windows.extend(
                    window_medians(rung.sojourns_in_send_order(), int(self.reference_rate))
                )
        stats = self.loop.run_until_complete(self.gateway.stats())
        rungs = [pooled(by_rate[rate]) for rate in sorted(by_rate)]
        bursts = [rung.completed_per_second for rung in by_rate[self.burst_rate]]
        return {
            "latencies": rungs[0].sojourns,
            # A stall of the shared host falls into a few windows, or one
            # burst, and moves their values; it does not move the medians.
            "p50": median(windows),
            "windows": len(windows),
            "busy": sum(rung.wall for rung in rungs),
            "throughput": median(bursts),
            "bursts": bursts,
            "rungs": rungs,
            "reference_requests": reference_requests,
            "gateway": stats,
        }

    def max_rate_within_slo(self, rungs: list[Rung]) -> float:
        """Highest rung with p95 sojourn, drain time and failures inside the
        SLO; a rung too short to have a p95 does not qualify."""
        best = 0.0
        for rung in rungs:
            tail = p95(rung.sojourns)
            if (
                tail is not None
                and tail <= self.slo_p95_seconds
                and rung.drain <= self.slo_drain_seconds
                and not rung.errors
            ):
                best = max(best, rung.rate)
        return best

    def replay(self, requests: list[tuple[str, Query]], tracer: Tracer) -> tuple[dict, dict]:
        """The start of the reference segments' request list, closed-loop,
        through an in-process stack built like a shard worker builds its own.

        The list runs in consecutive stretches, tracing switched on for
        every other one.  Returns ``(traced, untraced)`` in the form a
        closed-loop ``measure()`` returns; ``traced["frames"]`` holds the
        seconds spent encoding/decoding the frames those requests would
        put on the shard wire."""
        requests = requests[: self.replay_requests]
        backend = self.spec.build_backend()
        scheduler = RequestScheduler(max_workers=self.spec.max_workers)
        middleware = MiddlewareServer(backend, network=self.spec.network, scheduler=scheduler)
        manager = SessionManager(middleware)
        sessions = {sid: manager.create_session(sid) for sid in self.session_ids}
        instrument_middleware(tracer, middleware, [s.cache for s in sessions.values()])
        instrument_backend(tracer, backend)
        frames = {"encode": 0.0, "decode": 0.0, "reply_bytes": 0, "requests": 0}
        halves: tuple[dict, dict] = ({}, {})
        stretch = max(1, len(requests) // TRACE_STRETCHES)
        for first in range(0, len(requests), stretch):
            tracer.enabled = (first // stretch) % 2 == 0
            latencies: list[float] = []
            facts: list[tuple] = []
            before = stack_counters(middleware, sessions.values())
            for index in range(first, min(first + stretch, len(requests))):
                session_id, query = requests[index]
                tracer.request_id = index
                start = clock()
                with tracer.span("operation"):
                    response = execute_and_read(tracer, sessions[session_id], query.sql)
                latencies.append(clock() - start)
                if tracer.enabled:
                    facts.append(_response_facts(response))
                    _time_frames(frames, index, session_id, query.sql, response)
            counters = _delta(before, stack_counters(middleware, sessions.values()))
            merge_measured(
                halves[0 if tracer.enabled else 1],
                {"latencies": latencies, "responses": facts, "counters": counters},
            )
        manager.shutdown()
        backend.close()
        halves[0]["frames"] = frames
        return halves

    def close(self) -> None:
        if self.gateway is not None:
            self.loop.run_until_complete(self.gateway.close())
            self.loop.close()
            self.gateway = self.loop = None


def _time_frames(frames: dict, request_id: int, session_id: str, sql: str, response) -> None:
    """Encode and decode the two messages this request puts on the shard wire."""
    request = {"op": "execute", "session_id": session_id, "sql": sql, "request_id": request_id}
    reply = {
        "request_id": request_id,
        "ok": True,
        "result": response.result,
        "payload_bytes": response.payload_bytes,
        "total_seconds": response.total_seconds,
        "cache_level": response.cache_level,
        "coalesced": response.coalesced,
    }
    start = clock()
    encoded = [encode_frame(request), encode_frame(reply)]
    middle = clock()
    for frame in encoded:
        payload_length, _ = frame_section_lengths(frame[:FRAME_HEADER_BYTES])
        body = memoryview(frame)[FRAME_HEADER_BYTES:]
        decode_frame_sections(body[:payload_length], body[payload_length:])
    frames["encode"] += middle - start
    frames["decode"] += clock() - middle
    frames["reply_bytes"] += len(encoded[1])
    frames["requests"] += 1


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (DashCrossfilter, BrushIvm, ScanEmbedded, ScanSqlite, CacheZipf, ServingMix)
}


# --------------------------------------------------------------------------- #
# Per-layer numbers from a traced measurement
# --------------------------------------------------------------------------- #
def layer_metrics(workload: Workload, measured: dict, spans: list[Span]) -> dict[str, float]:
    """The per-layer table: span self times per query plus counter deltas.

    Only spans inside a measured operation count (a traced dashboard session
    also records its ``optimize``/``initialize``).  Anything a workload's
    path does not touch stays 0.
    """
    total, own, count = (
        defaultdict(float, part) for part in totals_by_name(spans_under(spans, "operation"))
    )
    counters = defaultdict(float, measured.get("counters", {}))
    responses = measured.get("responses", [])
    n_operations = max(1, count["operation"])
    n_queries = max(1, count["net.serve"])
    n_responses = max(1, len(responses))

    def per_query_ms(seconds: float) -> float:
        return 1e3 * seconds / n_queries

    metrics = {
        "server.session_self_ms": per_query_ms(own["server.session"]),
        "net.serve_self_ms": per_query_ms(own["net.serve"]),
        "net.cache.client_hit_share": sum(r[0] == "client" for r in responses) / n_responses,
        "net.cache.server_hit_share": sum(r[0] == "server" for r in responses) / n_responses,
        "net.cache.evictions": counters["cache_evictions"],
        "net.cache.busy_ms": per_query_ms(total["net.cache.client"] + total["net.cache.server"]),
        "net.codec.estimate_ms": per_query_ms(total["net.codec.estimate"]),
        "net.modelled_ms": 1e3 * sum(r[3] for r in responses) / n_responses,
        "server.scheduler.wait_ms": per_query_ms(own["server.scheduler"]),
        "server.scheduler.coalesced_share": _share(
            counters["scheduler_coalesced"], counters["scheduler_submitted"]
        ),
        "backends.execute_ms": per_query_ms(total["backends.execute"]),
        "backends.execute_share": _share(total["backends.execute"], total["operation"]),
        "sql.plan_ms": per_query_ms(own["backends.execute"]),
        "sql.exec_ms": per_query_ms(total["sql.exec"]),
        "sql.template_hit_share": _share(
            counters["plan_template_hits"],
            counters["plan_template_hits"] + counters["plan_template_misses"],
        ),
        "sql.plan_cache_hit_share": _share(
            counters["plan_cache_hits"], counters["plan_cache_hits"] + counters["plan_cache_misses"]
        ),
        "sql.parses": counters["queries_parsed"],
        "sql.partitions_pruned_share": _share(
            counters["partitions_pruned"],
            counters["partitions_pruned"] + counters["partitions_scanned"],
        ),
        "sql.morsel_tasks": counters["morsel_tasks"],
        "sql.morsel_inline_share": _share(counters["morsel_tasks_inline"], counters["morsel_tasks"]),
        "sql.ivm.hit_share": _share(counters["ivm_hits"], counters["queries_executed"]),
        "sql.ivm.delta_rows_per_step": counters["ivm_delta_rows"] / n_operations,
        "sql.ivm.fallbacks": counters["ivm_fallbacks"],
        "sql.ivm.fallback_rows": counters["ivm_fallback_rows"],
        "storage.rows_ms": 1e3 * total["storage.rows"] / max(1, count["storage.rows"]),
        "storage.result_rows": sum(r[1] for r in responses) / n_responses,
        "storage.result_nbytes": sum(r[2] for r in responses) / n_responses,
        "dataflow.client_ops_ms": 1e3 * own["dataflow.operator"] / n_operations,
        "rewrite.vdt_self_ms": 1e3 * own["rewrite.vdt"] / n_operations,
        # Share of operation wall time that lies inside a named layer span.
        "trace.coverage_share": 1.0 - _share(own["operation"], total["operation"]),
    }
    for part in ("datasets.generate_s", "storage.register_s", "storage.repartition_s",
                 "server.shard.boot_s"):
        metrics[part] = workload.setup_parts.get(part, 0.0)
    if "first_render_s" in measured:
        metrics["core.optimize_s"] = median(measured["optimize_s"])
        metrics["core.initialize_s"] = median(measured["initialize_s"])
        metrics["core.first_render_s"] = median(measured["first_render_s"])
        metrics["dataflow.operators_evaluated"] = float(np.mean(measured["operators"]))
        metrics["rewrite.queries_per_interaction"] = count["rewrite.vdt"] / n_operations
    return metrics


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def milliseconds(seconds: float | None) -> float:
    """A metric in ms; like every metric a run has no value for, an
    unsupported percentile (``None``) prints 0."""
    return 0.0 if seconds is None else 1e3 * seconds


def serving_metrics(
    workload: ServingMix, measured: dict, replay_p50: float, frames: dict[str, float]
) -> dict[str, float]:
    """Per-layer numbers only the open loop produces."""
    rungs: list[Rung] = measured["rungs"]
    by_rate = {int(rung.rate): rung for rung in rungs}
    serving = measured["gateway"]["serving"]
    per_shard = [float(shard.get("requests", 0)) for shard in measured["gateway"]["shards"]]
    reference = rungs[0]
    metrics = {
        "serving.max_rate_within_slo_rps": workload.max_rate_within_slo(rungs),
        "serving.p95_ms_r400": milliseconds(p95(by_rate[400].sojourns)),
        "serving.p95_ms_r800": milliseconds(p95(by_rate[800].sojourns)),
        "serving.drain_s_r800": by_rate[800].drain,
        "loadgen.lag_p95_ms": milliseconds(p95(reference.lags)),
        "server.admission.peak_queued": float(serving["admission"]["peak_queued"]),
        "server.admission.shed": float(serving["admission"]["shed"]),
        "server.shard.imbalance": max(per_shard) / (sum(per_shard) / len(per_shard)),
        "server.gateway.overhead_ms": 1e3 * (median(reference.sojourns) - replay_p50),
    }
    n_requests = max(1, frames["requests"])
    metrics["net.frame.encode_ms"] = 1e3 * frames["encode"] / n_requests
    metrics["net.frame.decode_ms"] = 1e3 * frames["decode"] / n_requests
    metrics["net.frame.bytes_per_reply"] = frames["reply_bytes"] / n_requests
    return metrics
