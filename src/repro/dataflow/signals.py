"""Signals: named reactive values driven by user interactions.

In Vega, signals capture interaction state (slider positions, drop-down
selections, brush extents) and parameterise transforms and encodings.  The
dataflow re-evaluates only the operators that depend on an updated signal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DataflowError


@dataclass
class Signal:
    """A named reactive value: its name, unique within a dataflow, and
    its current value."""

    name: str
    value: object = None


class SignalRegistry:
    """Collection of signals belonging to one dataflow."""

    def __init__(self) -> None:
        self._signals: dict[str, Signal] = {}

    def declare(self, name: str, value: object = None) -> Signal:
        """Create (or return the existing) signal named ``name``."""
        if name in self._signals:
            return self._signals[name]
        signal = Signal(name=name, value=value)
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

    def values(self) -> dict[str, object]:
        """Snapshot of all current signal values."""
        return {name: signal.value for name, signal in self._signals.items()}

    def set(self, name: str, value: object) -> bool:
        """Update a signal value; returns True when it changed."""
        signal = self.get(name)
        changed = value != signal.value
        signal.value = value
        return changed
