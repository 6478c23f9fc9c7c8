"""Tests for the concurrent serving runtime (repro.server) and the
thread-safety contracts it forces through the lower layers."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.backends import backend_names, create_backend
from repro.bench.concurrency import CONCURRENCY_SCENARIOS, build_sessions, run_scenario
from repro.errors import BenchmarkError, ReproError
from repro.net.channel import NetworkModel
from repro.net.middleware import MiddlewareServer
from repro.server import RequestScheduler, SessionManager
from repro.sql import Database


# --------------------------------------------------------------------------- #
# RequestScheduler: single-flight coalescing
# --------------------------------------------------------------------------- #


def test_single_flight_coalesces_concurrent_identical_requests():
    """N concurrent requests for one key share exactly one execution."""
    scheduler = RequestScheduler(max_workers=2)
    release = threading.Event()
    executions = []

    def slow():
        release.wait(timeout=5)
        executions.append(1)
        return "value"

    outcomes = [None] * 4

    def submit(i):
        outcomes[i] = scheduler.run("k", slow)

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    # Wait until all four submissions are registered, then let the leader run.
    for _ in range(500):
        with scheduler._lock:
            if scheduler.stats.submitted == 4:
                break
        threading.Event().wait(0.005)
    release.set()
    for thread in threads:
        thread.join()

    assert len(executions) == 1
    assert all(outcome.value == "value" for outcome in outcomes)
    assert scheduler.stats.executed == 1
    assert scheduler.stats.coalesced == 3
    assert sum(1 for outcome in outcomes if outcome.coalesced) == 3
    assert scheduler.stats.coalescing_rate == pytest.approx(0.75)
    scheduler.shutdown()


def test_single_flight_distinct_keys_execute_separately():
    scheduler = RequestScheduler(max_workers=4)
    a = scheduler.run("a", lambda: 1)
    b = scheduler.run("b", lambda: 2)
    assert (a.value, b.value) == (1, 2)
    assert not a.coalesced and not b.coalesced
    assert scheduler.stats.executed == 2
    assert scheduler.stats.coalesced == 0
    scheduler.shutdown()


def test_single_flight_retires_key_after_completion():
    """Sequential identical requests re-execute (caching is not its job)."""
    scheduler = RequestScheduler(max_workers=2)
    counter = []
    for _ in range(3):
        scheduler.run("k", lambda: counter.append(1))
    assert len(counter) == 3
    assert scheduler.stats.executed == 3
    assert not scheduler._in_flight
    scheduler.shutdown()


def test_single_flight_propagates_errors_and_recovers():
    scheduler = RequestScheduler(max_workers=2)

    def boom():
        raise ValueError("backend exploded")

    with pytest.raises(ValueError, match="backend exploded"):
        scheduler.run("k", boom)
    assert scheduler.stats.failed == 1
    # The key is retired: a later request executes fresh and succeeds.
    assert scheduler.run("k", lambda: "fine").value == "fine"
    scheduler.shutdown()


def test_scheduler_rejects_after_shutdown_and_bad_config():
    scheduler = RequestScheduler(max_workers=1)
    scheduler.shutdown()
    with pytest.raises(RuntimeError):
        scheduler.run("k", lambda: 1)
    with pytest.raises(ValueError):
        RequestScheduler(max_workers=0)


def test_scheduler_shutdown_is_idempotent_and_freezes_final_stats():
    """Repeated/concurrent shutdowns of an idle scheduler agree on the
    final counters: admission is closed, so nothing can move them."""
    scheduler = RequestScheduler(max_workers=2)
    scheduler.run("a", lambda: 1)
    scheduler.run("b", lambda: 2)
    first = scheduler.shutdown()
    assert first["submitted"] == 2
    assert first["executed"] == 2
    assert scheduler.shutdown() == first
    snapshots = []
    threads = [
        threading.Thread(target=lambda: snapshots.append(scheduler.shutdown()))
        for _ in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(snapshots) == 4
    assert all(snapshot == first for snapshot in snapshots)


def _wait_until(condition, timeout=5.0):
    """Poll ``condition`` until true (fails the test after ``timeout``)."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            pytest.fail("condition not reached in time")
        time.sleep(0.005)


def test_leader_runs_fn_on_the_calling_thread():
    """No hand-off: the leader executes ``fn`` itself and the scheduler
    starts no thread of its own."""
    threads_before = threading.active_count()
    scheduler = RequestScheduler(max_workers=2)
    ran_on = []
    outcome = scheduler.run("k", lambda: ran_on.append(threading.get_ident()) or "v")
    assert outcome.value == "v" and not outcome.coalesced
    assert ran_on == [threading.get_ident()]
    assert threading.active_count() == threads_before
    scheduler.shutdown()


def test_admission_bound_caps_concurrent_executions():
    """Six distinct keys held open never run more than ``max_workers``
    executions at once, and every one completes once released."""
    scheduler = RequestScheduler(max_workers=2)
    release = threading.Event()
    guard = threading.Lock()
    running = [0]
    peak = [0]

    def held(index):
        def fn():
            with guard:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            release.wait(timeout=5)
            with guard:
                running[0] -= 1
            return index

        return fn

    outcomes = [None] * 6

    def submit(index):
        outcomes[index] = scheduler.run(f"k{index}", held(index))

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(6)]
    for thread in threads:
        thread.start()
    _wait_until(lambda: scheduler.stats.submitted == 6 and running[0] == 2)
    time.sleep(0.05)  # give an unbounded scheduler time to overrun
    assert running[0] == 2
    release.set()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert peak[0] == 2
    assert [outcome.value for outcome in outcomes] == list(range(6))
    assert scheduler.stats.executed == 6 and not scheduler._in_flight
    scheduler.shutdown()


def test_leader_exception_reaches_coalesced_followers_as_the_same_object():
    scheduler = RequestScheduler(max_workers=2)
    release = threading.Event()
    error = ValueError("backend exploded")

    def boom():
        release.wait(timeout=5)
        raise error

    raised = [None] * 4

    def submit(index):
        try:
            scheduler.run("k", boom)
        except ValueError as exc:
            raised[index] = exc

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    _wait_until(lambda: scheduler.stats.submitted == 4)
    release.set()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert all(exc is error for exc in raised)
    assert scheduler.stats.executed == 1 and scheduler.stats.coalesced == 3
    assert scheduler.stats.failed == 1
    assert not scheduler._in_flight  # the key retired
    scheduler.shutdown()


# --------------------------------------------------------------------------- #
# SessionManager / ClientSession
# --------------------------------------------------------------------------- #


@pytest.fixture()
def manager(flights_db):
    manager = SessionManager.for_backend(flights_db, max_workers=2)
    yield manager
    manager.shutdown()


SQL = "SELECT carrier, COUNT(*) AS n FROM flights GROUP BY carrier ORDER BY carrier"


def test_sessions_have_isolated_client_caches(manager):
    alice = manager.create_session("alice")
    bob = manager.create_session("bob")

    first = alice.execute(SQL)
    again = alice.execute(SQL)
    other = bob.execute(SQL)

    assert first.cache_level is None
    assert again.cache_level == "client"  # alice's own cache
    assert other.cache_level == "server"  # bob pays the round trip once
    assert other.rows == first.rows
    assert manager.middleware.stats.queries_executed == 1


def test_sessions_carry_their_own_network_profiles(manager):
    lan = manager.create_session("lan", network=NetworkModel.lan())
    wan = manager.create_session("wan", network=NetworkModel.wan())
    lan_seconds = lan.execute(SQL).network_seconds
    manager.middleware.reset_caches()
    lan.cache.clear()
    wan_seconds = wan.execute(SQL).network_seconds
    assert wan_seconds > lan_seconds


def test_session_manager_bookkeeping(manager):
    auto = manager.create_session()
    manager.create_session("named")
    assert manager.snapshot()["sessions"] == 2
    assert manager.get("named").session_id == "named"
    with pytest.raises(ValueError):
        manager.create_session("named")
    with pytest.raises(KeyError):
        manager.get("ghost")
    manager.close_session(auto.session_id)
    assert manager.snapshot()["sessions"] == 1


def test_session_manager_shutdown_returns_final_scheduler_snapshot(flights_db):
    manager = SessionManager.for_backend(flights_db, max_workers=2)
    manager.create_session("alice").execute(SQL)
    final = manager.shutdown()
    assert final is not None and final["submitted"] == 1
    assert manager.shutdown() == final  # idempotent: admission is closed
    assert manager.snapshot()["sessions"] == 0
    # Without a scheduler there is no snapshot to return.
    bare = SessionManager(MiddlewareServer(flights_db))
    assert bare.shutdown() is None


def test_session_manager_statistics(manager):
    session = manager.create_session("s")
    for _ in range(4):
        session.execute(SQL)
    stats = manager.snapshot()
    assert stats["sessions"] == 1
    assert stats["requests"] == 4
    assert stats["client_cache"]["hit_rate"] == pytest.approx(3 / 4)
    assert stats["queries_executed"] == 1
    assert stats["server_cache"]["misses"] == 1
    assert stats["scheduler"]["submitted"] == 1


@pytest.mark.parametrize("backend_name", backend_names())
def test_table_replacement_invalidates_result_caches(backend_name):
    """``register_rows(replace=True)`` must not leave stale rows in any
    result cache: server, built-in client, or a session's own."""
    backend = create_backend(backend_name)
    backend.register_rows("t", [{"v": 1.0}, {"v": 2.0}])
    manager = SessionManager.for_backend(backend, max_workers=2)
    middleware = manager.middleware
    session = manager.create_session("alice")
    sql = "SELECT SUM(v) AS s FROM t"
    try:
        assert middleware.execute(sql).rows == [{"s": 3}]
        assert session.execute(sql).rows == [{"s": 3}]
        assert session.execute(sql).cache_level == "client"

        backend.register_rows("t", [{"v": 10.0}, {"v": 20.0}], replace=True)

        fresh = session.execute(sql)
        assert fresh.cache_level is None and fresh.rows == [{"s": 30}]
        assert middleware.execute(sql).rows == [{"s": 30}]
    finally:
        manager.shutdown()
        backend.close()


class _ListenerRequest:
    """Issues one request from the catalog's invalidation listeners, after
    the middleware's own listener (registered earlier) cleared its caches."""

    def __init__(self, middleware: MiddlewareServer, sql: str) -> None:
        self.middleware = middleware
        self.sql = sql
        self.outcomes: list = []
        middleware.database.catalog.add_invalidation_listener(self.request)

    def request(self, table_name: str) -> None:
        try:
            self.outcomes.append(self.middleware.execute(self.sql).rows)
        except ReproError as exc:
            self.outcomes.append(exc)


@pytest.mark.parametrize("backend_name", backend_names())
def test_request_during_table_swap_reads_the_new_table(backend_name):
    """A request that lands as a table is replaced or dropped must read the
    new rows (or fail on the dropped table), never publish the old rows
    into a result cache that was just cleared."""
    backend = create_backend(backend_name)
    backend.register_rows("t", [{"v": 1.0}, {"v": 2.0}])
    middleware = MiddlewareServer(backend)
    sql = "SELECT COUNT(*) AS n FROM t"
    try:
        assert middleware.execute(sql).rows == [{"n": 2}]
        injected = _ListenerRequest(middleware, sql)

        backend.register_rows("t", [{"v": float(v)} for v in range(5)], replace=True)
        assert injected.outcomes == [[{"n": 5}]]
        assert middleware.execute(sql).rows == [{"n": 5}]

        backend.drop_table("t")
        assert isinstance(injected.outcomes[-1], ReproError)
        with pytest.raises(ReproError):
            middleware.execute(sql)
    finally:
        backend.close()


def test_session_manager_execute_serialises_per_session_id(manager):
    """The shared request handler: one session id never runs two requests
    at once, distinct ids overlap, and an unknown id is created once."""
    inside = threading.Barrier(2)
    active: dict[str, int] = {}
    overlapped: set[str] = set()
    guard = threading.Lock()
    serve = manager.middleware.serve

    def observed_serve(sql, client_cache=None, network=None):
        name = client_cache.name
        with guard:
            active[name] = active.get(name, 0) + 1
            if active[name] > 1:
                overlapped.add(name)
        try:
            if "rendezvous" in sql:  # both sessions must be inside serve at once
                inside.wait(timeout=5)
            return serve("SELECT COUNT(*) AS n FROM flights", client_cache, network)
        finally:
            with guard:
                active[name] -= 1

    manager.middleware.serve = observed_serve

    def run(session_id, sql, repeat):
        for _ in range(repeat):
            manager.execute(session_id, sql)

    same = [threading.Thread(target=run, args=("alice", "same", 50)) for _ in range(2)]
    apart = [
        threading.Thread(target=run, args=(sid, "rendezvous", 1)) for sid in ("bob", "carol")
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # make an unserialised overlap likely
    try:
        for thread in same + apart:
            thread.start()
        for thread in same + apart:
            thread.join(timeout=10)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)

    assert not overlapped  # two threads on "alice" were serialised
    assert not inside.broken  # "bob" and "carol" were in serve() together
    assert sorted(manager._sessions) == ["alice", "bob", "carol"]
    assert manager.get("alice").requests == 100


def test_client_session_works_as_middleware_for_vega_plus_system(manager, histogram_spec):
    from repro.core.system import VegaPlusSystem

    session = manager.create_session("dashboard-user")
    system = VegaPlusSystem(histogram_spec, middleware=session)
    system.optimize()
    result = system.initialize()
    assert result.total_seconds >= 0
    assert session.requests > 0
    assert system.database is manager.middleware.database


def test_vega_plus_system_requires_database_or_middleware(histogram_spec):
    from repro.core.system import VegaPlusSystem
    from repro.errors import OptimizationError

    with pytest.raises(OptimizationError):
        VegaPlusSystem(histogram_spec)


# --------------------------------------------------------------------------- #
# Concurrency stress: results must equal the serial baseline
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", backend_names())
@pytest.mark.parametrize("scenario", CONCURRENCY_SCENARIOS)
def test_concurrent_run_matches_serial_baseline(backend, scenario):
    result = run_scenario(
        scenario,
        backend=backend,
        n_sessions=8,
        queries_per_session=4,
        n_rows=400,
        max_workers=4,
    )
    assert result.matches_serial, result.mismatched_queries
    stats = result.statistics["scheduler"]
    assert stats["submitted"] == stats["executed"] + stats["coalesced"]
    # Single-flight + publish-before-retire: each distinct query reaches
    # the backend at most once while it stays cached.
    assert result.queries_executed <= result.unique_queries


def test_build_sessions_shapes_and_validation():
    burst = build_sessions("cold_start_burst", 3, 10)
    assert len(burst) == 3
    assert burst[0] == burst[1] == burst[2]
    storm = build_sessions("crossfilter_storm", 4, 5, seed=1)
    assert all(len(session) == 5 for session in storm)
    with pytest.raises(BenchmarkError):
        build_sessions("nope", 2, 2)
    with pytest.raises(BenchmarkError):
        build_sessions("crossfilter_storm", 0, 2)


# --------------------------------------------------------------------------- #
# Lower layers under concurrency
# --------------------------------------------------------------------------- #


def test_database_plan_cache_and_metrics_survive_concurrent_execution(flights_rows):
    db = Database()
    db.register_rows("flights", flights_rows)
    queries = [
        "SELECT carrier, COUNT(*) AS n FROM flights GROUP BY carrier ORDER BY carrier",
        "SELECT origin, COUNT(*) AS n FROM flights GROUP BY origin ORDER BY origin",
        "SELECT COUNT(*) AS n FROM flights",
    ]
    n_threads, laps = 8, 5
    serial = {sql: db.execute(sql).to_rows() for sql in queries}
    before = db.metrics.snapshot()
    db.clear_plan_cache()
    errors = []

    def worker():
        try:
            for _ in range(laps):
                for sql in queries:
                    assert db.execute(sql).to_rows() == serial[sql]
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    total = n_threads * laps * len(queries)
    # No lost increments on any counter.
    after = db.metrics.snapshot()
    executed, hits, misses = (
        after[key] - before[key]
        for key in ("queries_executed", "plan_cache_hits", "plan_cache_misses")
    )
    assert executed == total
    assert hits + misses == total
    assert hits >= total - len(queries) * n_threads


def test_sqlite_backend_uses_per_thread_connections(flights_rows):
    backend = create_backend("sqlite")
    backend.register_rows("flights", flights_rows)
    sql = "SELECT carrier, COUNT(*) AS n FROM flights GROUP BY carrier ORDER BY carrier"
    expected = backend.execute(sql).to_rows()
    seen = {}
    errors = []

    def worker(i):
        try:
            connection = backend.connection
            seen[i] = id(connection)
            assert connection is backend.connection  # stable per thread
            assert backend.execute(sql).to_rows() == expected
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    # Six worker threads plus the registering thread: distinct connections.
    assert len(set(seen.values())) == 6
    assert len(backend._connections) >= 7
    backend.close()


def test_sqlite_backend_close_prevents_new_connections(flights_rows):
    backend = create_backend("sqlite")
    backend.register_rows("flights", flights_rows)
    backend.close()
    from repro.errors import ExecutionError

    def use():
        with pytest.raises(ExecutionError):
            backend.connection  # noqa: B018 - property raises

    thread = threading.Thread(target=use)
    thread.start()
    thread.join()


def test_middleware_serve_is_client_state_free(flights_db):
    """serve() with explicit session state never touches the default cache."""
    middleware = MiddlewareServer(flights_db)
    from repro.net.cache import QueryCache

    private = QueryCache(max_entries=4, name="private")
    first = middleware.serve(SQL, client_cache=private, network=NetworkModel.wan())
    assert first.cache_level is None
    assert len(middleware.client_cache) == 0  # default session untouched
    assert private.peek(middleware.cache_key(SQL)) is not None
    again = middleware.serve(SQL, client_cache=private)
    assert again.cache_level == "client"
