"""Signals: named reactive values driven by user interactions.

In Vega, signals capture interaction state (slider positions, drop-down
selections, brush extents) and parameterise transforms and encodings.  The
dataflow re-evaluates only the operators that depend on an updated signal.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from repro.errors import DataflowError


@dataclass
class Signal:
    """A named reactive value.

    Attributes
    ----------
    name:
        Signal name, unique within a dataflow.
    value:
        Current value.
    stamp:
        Monotonically increasing timestamp of the last update; the
        dataflow uses it to decide which operators are stale.
    bind:
        Optional description of the UI widget driving this signal
        (e.g. ``{"input": "range", "min": 1, "max": 100}``); carried along
        so the benchmark's interaction simulator knows what values are
        plausible.
    """

    name: str
    value: object = None
    stamp: int = 0
    bind: dict | None = None

    def update(self, value: object, stamp: int) -> bool:
        """Set a new value; returns True when the value actually changed."""
        changed = value != self.value
        self.value = value
        self.stamp = stamp
        return changed


class SignalRegistry:
    """Collection of signals belonging to one dataflow."""

    def __init__(self) -> None:
        self._signals: dict[str, Signal] = {}
        self._listeners: dict[str, list[Callable[[Signal], None]]] = {}

    def declare(self, name: str, value: object = None, bind: dict | None = None) -> Signal:
        """Create (or return the existing) signal named ``name``."""
        if name in self._signals:
            return self._signals[name]
        signal = Signal(name=name, value=value, bind=bind)
        self._signals[name] = signal
        return signal

    def get(self, name: str) -> Signal:
        """Return the signal named ``name``."""
        try:
            return self._signals[name]
        except KeyError as exc:
            raise DataflowError(
                f"unknown signal {name!r}; declared signals: {sorted(self._signals)}"
            ) from exc

    def value(self, name: str) -> object:
        """Current value of the signal named ``name``."""
        return self.get(name).value

    def values(self) -> dict[str, object]:
        """Snapshot of all current signal values."""
        return {name: signal.value for name, signal in self._signals.items()}

    def names(self) -> list[str]:
        """All declared signal names."""
        return sorted(self._signals)

    def set(self, name: str, value: object, stamp: int) -> bool:
        """Update a signal value; returns True when it changed."""
        signal = self.get(name)
        changed = signal.update(value, stamp)
        if changed:
            for listener in self._listeners.get(name, []):
                listener(signal)
        return changed

    def on_update(self, name: str, listener: Callable[[Signal], None]) -> None:
        """Register a callback fired when the named signal changes."""
        self.get(name)
        self._listeners.setdefault(name, []).append(listener)

    def __iter__(self) -> Iterator[Signal]:
        return iter(self._signals.values())

    def __len__(self) -> int:
        return len(self._signals)
