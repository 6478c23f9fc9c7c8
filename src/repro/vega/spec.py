"""Vega specification model and validation.

A specification is a plain dictionary in a Vega-like dialect::

    {
      "signals": [
        {"name": "maxbins", "value": 20,
         "bind": {"input": "range", "min": 5, "max": 100}}
      ],
      "data": [
        {"name": "source", "table": "flights"},
        {"name": "binned", "source": "source", "transform": [
          {"type": "extent", "field": "delay", "signal": "delay_extent"},
          {"type": "bin", "field": "delay",
           "maxbins": {"signal": "maxbins"},
           "extent": {"signal": "delay_extent"}},
          {"type": "aggregate", "groupby": ["bin0", "bin1"],
           "ops": ["count"], "as": ["count"]}
        ]}
      ],
      "scales": [{"name": "x", "domain": {"data": "binned", "field": "bin0"}}],
      "marks":  [{"type": "rect", "from": {"data": "binned"}}]
    }

Data entries reference either a DBMS table (``"table"``), inline rows
(``"values"``) or another entry's output (``"source"``).  A transform may
expose its output value as a signal by naming it in its ``"signal"`` key
(Vega's convention, used by ``extent``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SpecError


@dataclass
class SignalSpec:
    """A declared signal with its initial value.  A Vega ``bind`` (the
    widget driving the signal) is accepted and ignored."""

    name: str
    value: object = None


@dataclass
class DataEntry:
    """One entry of the specification's data pipeline."""

    name: str
    table: str | None = None
    values: list[dict] | None = None
    source: str | None = None
    transforms: list[dict] = field(default_factory=list)

    def is_root(self) -> bool:
        """Whether this entry reads raw data (rather than another entry)."""
        return self.source is None

    def output_signals(self) -> list[str]:
        """Signals produced by transforms in this entry (e.g. extent signals)."""
        return [t["signal"] for t in self.transforms if isinstance(t.get("signal"), str)]


@dataclass
class ScaleSpec:
    """A scale; only the data/field reference of its domain matters here."""

    name: str
    domain_data: str | None = None
    domain_field: str | None = None


@dataclass
class MarkSpec:
    """A mark; only the dataset it renders from matters here."""

    mark_type: str
    data: str | None = None


@dataclass
class VegaSpec:
    """A parsed, validated Vega specification."""

    signals: list[SignalSpec] = field(default_factory=list)
    data: list[DataEntry] = field(default_factory=list)
    scales: list[ScaleSpec] = field(default_factory=list)
    marks: list[MarkSpec] = field(default_factory=list)
    description: str = ""

    # -------------------------------------------------------------- #
    def data_entry(self, name: str) -> DataEntry:
        """Look up a data entry by name."""
        for entry in self.data:
            if entry.name == name:
                return entry
        raise SpecError(f"no data entry named {name!r}")

    def data_names(self) -> list[str]:
        """Names of all data entries in pipeline order."""
        return [entry.name for entry in self.data]

    def referenced_datasets(self) -> set[str]:
        """Data entries referenced by scales or marks.

        These are the intermediate results that *must* be preserved on the
        client (Section 5.2's data dependency checking): their final rows
        have to reach the Vega renderer no matter how the plan is split.
        """
        referenced: set[str] = set()
        for scale in self.scales:
            if scale.domain_data:
                referenced.add(scale.domain_data)
        for mark in self.marks:
            if mark.data:
                referenced.add(mark.data)
        return referenced

    def operator_signal_names(self) -> set[str]:
        """Signals produced by transforms (not by interaction widgets)."""
        produced: set[str] = set()
        for entry in self.data:
            produced |= set(entry.output_signals())
        return produced

    def total_transforms(self) -> int:
        """Total number of declared transforms across all data entries."""
        return sum(len(entry.transforms) for entry in self.data)


def parse_spec_dict(raw: dict) -> VegaSpec:
    """Validate a raw specification dictionary into a :class:`VegaSpec`."""
    if not isinstance(raw, dict):
        raise SpecError(f"specification must be a dict, got {type(raw).__name__}")

    signals = [
        SignalSpec(
            name=_require_str(s, "name", "signal"),
            value=s.get("value"),
        )
        for s in raw.get("signals", [])
    ]

    data_entries: list[DataEntry] = []
    seen_names: set[str] = set()
    for entry in raw.get("data", []):
        name = _require_str(entry, "name", "data entry")
        if name in seen_names:
            raise SpecError(f"duplicate data entry name {name!r}")
        seen_names.add(name)
        source = entry.get("source")
        if source is not None and source not in seen_names:
            raise SpecError(
                f"data entry {name!r} sources {source!r}, which is not declared earlier"
            )
        transforms = entry.get("transform", [])
        if not isinstance(transforms, list):
            raise SpecError(f"data entry {name!r}: 'transform' must be a list")
        for transform in transforms:
            if not isinstance(transform, dict) or "type" not in transform:
                raise SpecError(
                    f"data entry {name!r}: malformed transform {transform!r}"
                )
        data_entries.append(
            DataEntry(
                name=name,
                table=entry.get("table") or entry.get("url"),
                values=entry.get("values"),
                source=source,
                transforms=list(transforms),
            )
        )

    scales = []
    for scale in raw.get("scales", []):
        domain = scale.get("domain") or {}
        scales.append(
            ScaleSpec(
                name=_require_str(scale, "name", "scale"),
                domain_data=domain.get("data") if isinstance(domain, dict) else None,
                domain_field=domain.get("field") if isinstance(domain, dict) else None,
            )
        )

    marks = []
    for mark in raw.get("marks", []):
        source = mark.get("from") or {}
        marks.append(
            MarkSpec(
                mark_type=mark.get("type", "rect"),
                data=source.get("data") if isinstance(source, dict) else None,
            )
        )

    spec = VegaSpec(
        signals=signals,
        data=data_entries,
        scales=scales,
        marks=marks,
        description=raw.get("description", ""),
    )
    _validate(spec)
    return spec


def _require_str(mapping: dict, key: str, what: str) -> str:
    value = mapping.get(key)
    if not isinstance(value, str) or not value:
        raise SpecError(f"{what} requires a non-empty string {key!r}: {mapping!r}")
    return value


def _validate(spec: VegaSpec) -> None:
    data_names = set(spec.data_names())
    for scale in spec.scales:
        if scale.domain_data is not None and scale.domain_data not in data_names:
            raise SpecError(
                f"scale {scale.name!r} references unknown data entry {scale.domain_data!r}"
            )
    for mark in spec.marks:
        if mark.data is not None and mark.data not in data_names:
            raise SpecError(
                f"mark {mark.mark_type!r} references unknown data entry {mark.data!r}"
            )
    for entry in spec.data:
        if entry.is_root() and entry.table is None and entry.values is None:
            raise SpecError(
                f"data entry {entry.name!r} must have a 'table', 'values' or 'source'"
            )
