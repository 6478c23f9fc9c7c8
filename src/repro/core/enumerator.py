"""Plan enumeration (Section 5.2).

The enumerator walks the specification's data pipeline and produces every
valid assignment of transforms to the server or the client:

* data flows in one direction (DBMS → client), so along every path from a
  raw data source to a leaf there is exactly one split point; operators
  before it run on the server, operators after it run on the client;
* an operator can be offloaded only if its transform type is rewritable to
  SQL and every ancestor operator on its path is offloaded too;
* a data entry that sources another entry can only offload transforms when
  its parent entry is *fully* offloaded (otherwise its input rows only
  exist on the client);
* entries backed by inline values can never be offloaded.

The theoretical space is ``2^n`` but these constraints shrink it to the
product of (rewritable prefix length + 1) over independent chains, matching
the paper's observation that real templates have far fewer candidates.
"""

from __future__ import annotations

from repro.core.plan import ExecutionPlan
from repro.errors import OptimizationError
from repro.rewrite.templates import rewritable_prefix
from repro.vega.spec import DataEntry, VegaSpec


class PlanEnumerator:
    """Enumerates valid execution plans for a specification.

    Parameters
    ----------
    spec:
        The Vega specification to enumerate plans for.
    max_plans:
        Safety cap on the number of generated plans (the crossfilter
        template already produces >100; runaway specs are rejected rather
        than silently truncated).
    """

    def __init__(self, spec: VegaSpec, max_plans: int = 100_000) -> None:
        self.spec = spec
        self.max_plans = max_plans

    # ------------------------------------------------------------------ #
    def entry_options(self, entry: DataEntry, parent_fully_server: bool) -> list[int]:
        """Valid split points for one entry given its parent's state."""
        if entry.values is not None:
            return [0]
        if entry.source is not None and not parent_fully_server:
            return [0]
        if entry.source is None and entry.table is None:
            return [0]
        return list(range(0, rewritable_prefix(entry.transforms) + 1))

    def enumerate(self) -> list[ExecutionPlan]:
        """All valid execution plans, each with a stable ``plan_id``."""
        assignments: list[dict[str, int]] = [{}]
        fully_server_flags: list[dict[str, bool]] = [{}]

        for entry in self.spec.data:
            next_assignments: list[dict[str, int]] = []
            next_flags: list[dict[str, bool]] = []
            for assignment, flags in zip(assignments, fully_server_flags):
                parent_fully_server = True
                if entry.source is not None:
                    parent_fully_server = flags.get(entry.source, False)
                elif entry.values is not None:
                    parent_fully_server = False
                for split in self.entry_options(entry, parent_fully_server):
                    new_assignment = dict(assignment)
                    new_assignment[entry.name] = split
                    new_flags = dict(flags)
                    source_available = entry.source is None or flags.get(entry.source, False)
                    new_flags[entry.name] = (
                        split == len(entry.transforms)
                        and entry.values is None
                        and source_available
                        and (entry.source is not None or entry.table is not None)
                    )
                    next_assignments.append(new_assignment)
                    next_flags.append(new_flags)
                    if len(next_assignments) > self.max_plans:
                        raise OptimizationError(
                            f"plan enumeration exceeded max_plans={self.max_plans}"
                        )
            assignments = next_assignments
            fully_server_flags = next_flags

        plans = [
            ExecutionPlan.from_mapping(assignment, plan_id=index)
            for index, assignment in enumerate(assignments)
        ]
        return plans

    # ------------------------------------------------------------------ #
    def all_client_plan(self) -> ExecutionPlan:
        """The plan that keeps every transform on the client."""
        return ExecutionPlan.from_mapping(
            {entry.name: 0 for entry in self.spec.data}, plan_id=-1
        )

    def all_server_plan(self) -> ExecutionPlan:
        """The plan that offloads the longest valid prefix everywhere.

        This is the VegaFusion-style strategy: push everything that *can*
        be pushed, with no cost-based selection.
        """
        assignment: dict[str, int] = {}
        fully_server: dict[str, bool] = {}
        for entry in self.spec.data:
            parent_ok = True
            if entry.source is not None:
                parent_ok = fully_server.get(entry.source, False)
            elif entry.values is not None:
                parent_ok = False
            options = self.entry_options(entry, parent_ok)
            split = max(options)
            assignment[entry.name] = split
            source_available = entry.source is None or fully_server.get(entry.source, False)
            fully_server[entry.name] = (
                split == len(entry.transforms)
                and entry.values is None
                and source_available
                and (entry.source is not None or entry.table is not None)
            )
        return ExecutionPlan.from_mapping(assignment, plan_id=-2)
