"""Catalog of registered tables and their statistics."""

from __future__ import annotations

import threading
import weakref
from collections.abc import Callable

from repro.errors import CatalogError
from repro.storage.statistics import (
    TableStatistics,
    ZoneMap,
    compute_table_statistics,
    compute_zone_map,
)
from repro.storage.table import PartitionedTable, Table


class Catalog:
    """Name → table registry used by the SQL engine.

    Tables are registered under a unique name; registering under an
    existing name requires ``replace=True`` so tests catch accidental
    clobbering.  Statistics are computed lazily on first request and
    invalidated on re-registration.

    Registry mutations and the lazy statistics computation run under an
    internal lock: the serving runtime executes concurrent queries against
    one shared catalog.
    """

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._statistics: dict[str, TableStatistics] = {}
        self._zone_maps: dict[str, list[ZoneMap]] = {}
        self._listeners: list[weakref.WeakMethod] = []
        self._lock = threading.RLock()

    def add_invalidation_listener(self, listener: Callable[[str], None]) -> None:
        """Subscribe to table invalidation events.

        ``listener(name)`` fires whenever the contents registered under
        ``name`` stop being valid — on re-registration (``replace=True``)
        and on :meth:`drop` — in the same breath as the catalog's own
        statistics/zone-map cache invalidation.  Derived caches (the IVM
        view registry, the serving tier's result caches) hook in here so
        a table swap can never serve results computed from the old rows.

        ``listener`` must be a bound method and is held **weakly**: a
        long-lived backend outlives the middlewares and session managers
        built over it, and must not keep their caches alive.
        """
        with self._lock:
            self._listeners = [ref for ref in self._listeners if ref() is not None]
            self._listeners.append(weakref.WeakMethod(listener))

    def _notify_invalidation(self, name: str) -> None:
        # Called outside the catalog lock: listeners take their own locks
        # and may re-enter the catalog, so nesting would invite deadlock.
        for ref in list(self._listeners):
            listener = ref()
            if listener is not None:
                listener(name)

    def check_register(self, name: str, replace: bool = False) -> None:
        """Raise :class:`CatalogError` if ``register(name, ..., replace)`` would."""
        if not name:
            raise CatalogError("table name must be non-empty")
        with self._lock:
            if name in self._tables and not replace:
                raise CatalogError(f"table {name!r} already registered (pass replace=True)")

    def register(self, name: str, table: Table, replace: bool = False) -> None:
        """Register ``table`` under ``name``.

        A :class:`PartitionedTable` keeps its partition boundaries (and
        gets per-partition zone maps computed lazily); a plain table is
        stored flat.
        """
        with self._lock:
            self.check_register(name, replace)
            replaced = name in self._tables
            self._tables[name] = table.renamed(name)
            self._statistics.pop(name, None)
            self._zone_maps.pop(name, None)
        if replaced:
            self._notify_invalidation(name)

    def drop(self, name: str) -> None:
        """Remove a table from the catalog."""
        with self._lock:
            if name not in self._tables:
                raise CatalogError(f"cannot drop unknown table {name!r}")
            del self._tables[name]
            self._statistics.pop(name, None)
            self._zone_maps.pop(name, None)
        self._notify_invalidation(name)

    def get(self, name: str) -> Table:
        """Look up a table by name."""
        with self._lock:
            try:
                return self._tables[name]
            except KeyError as exc:
                raise CatalogError(
                    f"unknown table {name!r}; registered tables: {self.table_names()}"
                ) from exc

    def has(self, name: str) -> bool:
        """Whether ``name`` is registered."""
        with self._lock:
            return name in self._tables

    def table_names(self) -> list[str]:
        """All registered table names, sorted."""
        with self._lock:
            return sorted(self._tables)

    def statistics(self, name: str) -> TableStatistics:
        """Statistics for a registered table (computed lazily, then cached)."""
        with self._lock:
            if name not in self._statistics:
                self._statistics[name] = compute_table_statistics(self.get(name))
            return self._statistics[name]

    def zone_maps(self, name: str) -> list[ZoneMap] | None:
        """Per-partition zone maps of a partitioned table, or ``None``.

        Plain (unpartitioned) tables have no zone maps.
        """
        table = self.get(name)
        if not isinstance(table, PartitionedTable):
            return None
        return self.zone_maps_of(table)

    def zone_maps_of(self, table: PartitionedTable) -> list[ZoneMap]:
        """Per-partition zone maps of exactly this ``table`` object.

        Computed lazily and cached while ``table`` is the one registered
        under its name; invalidated on re-registration and drop, like
        :meth:`statistics`.  A caller still scanning a table that has
        since been replaced gets maps computed from *its* table, never
        the replacement's — partition index ``i`` of the maps is always
        partition ``i`` of ``table``.
        """
        with self._lock:
            registered = self._tables.get(table.name) is table
            maps = self._zone_maps.get(table.name) if registered else None
            if maps is None:
                maps = [compute_zone_map(partition) for partition in table.partitions()]
                if registered:
                    self._zone_maps[table.name] = maps
            return maps
