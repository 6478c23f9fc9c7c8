"""Schema descriptions for synthetic benchmark datasets.

A :class:`DatasetSchema` is a list of :class:`FieldSpec` objects plus a
name.  The benchmark templates (Section 6.1 of the paper) are populated by
sampling fields of a required type from a schema, so the schema layer also
provides type-based field lookup.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class FieldType(enum.Enum):
    """Data type of a dataset field, as seen by the benchmark templates."""

    QUANTITATIVE = "quantitative"
    CATEGORICAL = "categorical"
    TEMPORAL = "temporal"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class FieldSpec:
    """Description of a single field in a synthetic dataset.

    Attributes
    ----------
    name:
        Column name.
    ftype:
        One of :class:`FieldType`.
    minimum, maximum:
        Numeric range for quantitative fields or epoch-second range for
        temporal fields.  Ignored for categorical fields.
    categories:
        Candidate values for categorical fields.  Values are sampled with a
        Zipf-like skew so group-by cardinalities resemble real data.
    null_rate:
        Fraction of rows whose value is ``None``; real datasets such as the
        flights data contain missing delays which exercise the engines'
        null handling.
    integer:
        If ``True`` quantitative values are rounded to integers.
    """

    name: str
    ftype: FieldType
    minimum: float = 0.0
    maximum: float = 1.0
    categories: tuple[str, ...] = ()
    null_rate: float = 0.0
    integer: bool = False

    def __post_init__(self) -> None:
        if self.ftype is FieldType.CATEGORICAL and not self.categories:
            raise ValueError(f"categorical field {self.name!r} needs categories")
        if self.null_rate < 0.0 or self.null_rate > 1.0:
            raise ValueError("null_rate must be in [0, 1]")
        if self.ftype is not FieldType.CATEGORICAL and self.maximum < self.minimum:
            raise ValueError(f"field {self.name!r}: maximum < minimum")


@dataclass
class DatasetSchema:
    """A named collection of :class:`FieldSpec` definitions."""

    name: str
    fields: list[FieldSpec] = field(default_factory=list)

    def field(self, name: str) -> FieldSpec:
        """Return the spec for ``name`` or raise ``KeyError``."""
        for spec in self.fields:
            if spec.name == name:
                return spec
        raise KeyError(f"no field named {name!r} in dataset {self.name!r}")

    def fields_of_type(self, ftype: FieldType) -> list[FieldSpec]:
        """Return all fields with the given type."""
        return [f for f in self.fields if f.ftype is ftype]

    def quantitative_fields(self) -> list[str]:
        """Names of quantitative fields."""
        return [f.name for f in self.fields_of_type(FieldType.QUANTITATIVE)]
