"""Execution plans: client/server partitionings of a data pipeline.

A plan records, for every data entry in the specification, how many of its
leading transforms execute on the server (the "split point" of Section
5.2).  Operators before the split run as SQL on the DBMS; operators after
it run in the client-side Vega dataflow.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.vega.spec import VegaSpec


@dataclass(frozen=True)
class ExecutionPlan:
    """One candidate partitioning of a specification's data pipeline.

    Attributes
    ----------
    assignment:
        Mapping of data entry name → number of leading transforms executed
        on the server.
    plan_id:
        Index of this plan within its enumeration (stable for reporting).
    """

    assignment: tuple[tuple[str, int], ...]
    plan_id: int = 0

    # -------------------------------------------------------------- #
    @classmethod
    def from_mapping(cls, assignment: Mapping[str, int], plan_id: int = 0) -> "ExecutionPlan":
        """Build a plan from a plain dict assignment."""
        return cls(
            assignment=tuple(sorted((str(k), int(v)) for k, v in assignment.items())),
            plan_id=plan_id,
        )

    def as_dict(self) -> dict[str, int]:
        """The assignment as a mutable dictionary."""
        return dict(self.assignment)

    def split_for(self, entry_name: str) -> int:
        """Server split point for one data entry (0 when absent)."""
        return self.as_dict().get(entry_name, 0)

    def total_server_transforms(self) -> int:
        """How many transforms this plan pushes to the server."""
        return sum(split for _, split in self.assignment)

    def describe(self, spec: VegaSpec | None = None) -> str:
        """Human-readable description, e.g. ``binned=server[2]/client[2]``."""
        parts = []
        assignment = self.as_dict()
        if spec is not None:
            for entry in spec.data:
                split = assignment.get(entry.name, 0)
                total = len(entry.transforms)
                if total == 0:
                    continue
                parts.append(f"{entry.name}=server[{split}]/client[{total - split}]")
        else:
            parts = [f"{name}={split}" for name, split in self.assignment]
        return f"plan#{self.plan_id}(" + ", ".join(parts) + ")"

    def __str__(self) -> str:
        return self.describe()


@dataclass
class PlanLabel:
    """Ground-truth label attached to a plan during training-data collection."""

    plan: ExecutionPlan
    latency_seconds: float
    breakdown: dict[str, float] = field(default_factory=dict)
