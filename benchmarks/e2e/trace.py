"""In-memory spans recorded from outside the system, and self-time arithmetic.

The traced run times calls *into* each layer from the benchmark's own
files: :meth:`Tracer.instrument` shadows one public method of one object
(a backend's ``execute``, a cache's ``get``, the scheduler's ``run``, the
middleware's ``serve``, a dataflow operator's ``evaluate``) with a
wrapper that records a span.  Nothing under ``src/`` is edited; spans
inside the program are a later issue.

Spans nest by time on one shared stack.  That is sound for the closed
loops traced here — one request in flight, and the caller blocked while
the scheduler's worker thread runs the backend — and is why the open
loop is traced by replaying its request list closed-loop.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from contextlib import nullcontext

_NULL = nullcontext()


class Span:
    """One timed call: ``parent`` is the id of the span that caused it.

    A span is its own context manager (a plain class, not a generator:
    entering and leaving costs about a microsecond).
    """

    __slots__ = ("id", "name", "start", "end", "parent", "request_id", "_tracer")

    def __init__(self, id, name, start, end, parent, request_id, tracer=None) -> None:
        self.id, self.name, self.start, self.end = id, name, start, end
        self.parent, self.request_id, self._tracer = parent, request_id, tracer

    def __enter__(self) -> "Span":
        tracer = self._tracer
        tracer._stack.append(self)
        self.start = tracer.clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = self._tracer.clock()
        self._tracer._stack.pop()

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__[:-1]}


class Tracer:
    """Records spans while :attr:`enabled`; switched off, instrumented
    methods call straight through, so one stack can alternate traced and
    untraced stretches and the difference prices the tracing."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = True
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.request_id: int | None = None

    def span(self, name: str) -> Span | nullcontext:
        """A new span under whatever span is open now; use as ``with tracer.span(...)``."""
        if not self.enabled:
            return _NULL
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, 0.0, 0.0, parent, self.request_id, self)
        self.spans.append(span)
        return span

    def add(self, name: str, start: float, end: float, parent: Span) -> None:
        """Record a span whose interval was measured elsewhere (e.g. the
        engine's own ``elapsed_seconds``) as a child of ``parent``."""
        self.spans.append(Span(len(self.spans), name, start, end, parent.id, parent.request_id))

    def instrument(
        self,
        target: object,
        method: str,
        name: str,
        after: Callable[["Tracer", Span, object], None] | None = None,
    ) -> None:
        """Shadow ``target.method`` with a span-recording wrapper.

        ``after(tracer, span, result)`` runs once the span has closed; it
        may attach child spans derived from the call's result.
        """
        original = getattr(target, method)

        def wrapper(*args: object, **kwargs: object) -> object:
            if not self.enabled:
                return original(*args, **kwargs)
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if after is not None:
                after(self, span, result)
            return result

        setattr(target, method, wrapper)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


class NoTrace(Tracer):
    """The tracer of untraced runs: records nothing and instruments nothing."""

    def __init__(self) -> None:
        super().__init__()
        self.enabled = False

    def instrument(self, *args: object, **kwargs: object) -> None:
        pass


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span: its interval minus the union of its children's
    intervals (clipped to the parent), so overlapping children are not
    subtracted twice."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result: dict[int, float] = {}
    for span in spans:
        covered, cursor = 0.0, span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = (span.end - span.start) - covered
    return result


def spans_under(spans: list[Span], root_name: str) -> list[Span]:
    """The spans whose outermost ancestor is a ``root_name`` span (roots included)."""
    by_id = {span.id: span for span in spans}
    kept = []
    for span in spans:
        root = span
        while root.parent is not None:
            root = by_id[root.parent]
        if root.name == root_name:
            kept.append(span)
    return kept


def totals_by_name(spans: list[Span]) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """``(total seconds, self seconds, call count)`` per span name."""
    own = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    count: dict[str, int] = {}
    for span in spans:
        total[span.name] = total.get(span.name, 0.0) + (span.end - span.start)
        self_total[span.name] = self_total.get(span.name, 0.0) + own[span.id]
        count[span.name] = count.get(span.name, 0) + 1
    return total, self_total, count
