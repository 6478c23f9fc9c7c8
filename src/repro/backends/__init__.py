"""Pluggable server-side SQL backends.

The paper's middleware talks to a real DBMS (PostgreSQL / DuckDB); this
package is the reproduction's equivalent seam.  Every backend implements
:class:`SQLBackend` and describes its dialect with
:class:`BackendCapabilities`, which the rewrite layer consults while
generating SQL (NULL-ordering clauses, window frames, supported
functions).  Two backends ship today:

* ``"embedded"`` — :class:`~repro.sql.engine.Database`, the in-process
  columnar engine (:mod:`repro.sql`), the default and the semantic
  reference,
* ``"sqlite"`` — :class:`SqliteBackend` on stdlib ``sqlite3``, an
  independent SQL implementation used to cross-validate results.

Construct one directly, or by name::

    backend = create_backend("sqlite")
    backend.register_rows("flights", rows)
    system = VegaPlusSystem(spec, backend)
"""

from __future__ import annotations

from repro.backends.base import BackendCapabilities, SQLBackend
from repro.backends.sqlite import SQLITE_CAPABILITIES, SqliteBackend
from repro.sql.engine import EMBEDDED_CAPABILITIES, Database

#: Registry of constructible backends by name.
BACKENDS: dict[str, type[SQLBackend]] = {
    Database.name: Database,
    SqliteBackend.name: SqliteBackend,
}


def backend_names() -> list[str]:
    """Names accepted by :func:`create_backend` (and ``--backend`` flags)."""
    return sorted(BACKENDS)


def create_backend(name: str, **kwargs: object) -> SQLBackend:
    """Construct a backend by registry name."""
    try:
        backend_class = BACKENDS[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown backend {name!r}; available: {backend_names()}"
        ) from exc
    return backend_class(**kwargs)


__all__ = [
    "BACKENDS",
    "BackendCapabilities",
    "EMBEDDED_CAPABILITIES",
    "SQLBackend",
    "SQLITE_CAPABILITIES",
    "SqliteBackend",
    "backend_names",
    "create_backend",
]
