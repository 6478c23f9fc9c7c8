"""Exception hierarchy shared across the repro package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can distinguish failures originating in this library from generic
Python errors.  Subsystem-specific errors add context (the offending SQL
text, spec fragment, etc.) where it helps debugging.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SQLError(ReproError):
    """Base class for errors raised by the SQL engine."""


class TokenizeError(SQLError):
    """Raised when SQL text cannot be tokenized."""

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class ParseError(SQLError):
    """Raised when a token stream does not form a valid SQL statement."""


class PlanningError(SQLError):
    """Raised when a parsed statement cannot be turned into a logical plan."""


class ExecutionError(SQLError):
    """Raised when a physical plan fails during execution."""


class CatalogError(SQLError):
    """Raised for missing tables/columns or conflicting registrations."""


class ExpressionError(ReproError):
    """Base class for errors in the Vega expression language."""


class ExpressionParseError(ExpressionError):
    """Raised when a Vega expression string cannot be parsed."""


class ExpressionTranslationError(ExpressionError):
    """Raised when a Vega expression has no SQL equivalent.

    The query rewriter catches this error and falls back to native
    (client-side) execution of the corresponding transform, matching the
    behaviour described in Section 4 of the paper.
    """


class DataflowError(ReproError):
    """Base class for dataflow runtime errors."""


class CycleError(DataflowError):
    """Raised when operator dependencies would form a cycle."""


class SpecError(ReproError):
    """Raised when a Vega specification is malformed."""


class RewriteError(ReproError):
    """Raised when query rewriting fails for a reason other than fallback."""


class OptimizationError(ReproError):
    """Raised when plan enumeration or plan selection cannot proceed."""


class NetworkError(ReproError):
    """Raised by the simulated client/middleware/DBMS channel."""


class ServingError(ReproError):
    """Base class for errors raised by the sharded serving tier."""


class OverloadError(ServingError):
    """Raised when admission control sheds a request.

    The explicit overload signal of the gateway: past the configured
    inflight limit and queue depth, requests fail fast with this error
    instead of queueing unboundedly — callers are expected to back off
    and retry.  Shed counts are reported in
    ``stats()["serving"]["admission"]``.
    """


class ShardError(ServingError):
    """Raised when a shard worker fails a request or dies.

    ``error_type`` carries the worker-side exception class name when the
    worker replied with a structured error (as opposed to crashing).
    """

    def __init__(self, message: str, error_type: str | None = None) -> None:
        super().__init__(message)
        self.error_type = error_type


class ModelError(ReproError):
    """Raised by the from-scratch ML models (e.g. predict before fit)."""


class BenchmarkError(ReproError):
    """Raised by the benchmark harness for invalid configurations."""
