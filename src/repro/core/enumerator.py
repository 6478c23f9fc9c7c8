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
from repro.rewrite.templates import legal_splits
from repro.vega.spec import VegaSpec

#: Safety cap on the number of generated plans (the crossfilter template
#: already produces >100; runaway specs are rejected rather than silently
#: truncated).
MAX_PLANS = 100_000


class PlanEnumerator:
    """Enumerates valid execution plans for a specification.

    Every entry's legal splits, and whether its output is then on the
    server, come from :func:`~repro.rewrite.templates.legal_splits`, the
    rule the rewriter validates a plan against.
    """

    def __init__(self, spec: VegaSpec) -> None:
        self.spec = spec

    # ------------------------------------------------------------------ #
    def enumerate(self) -> list[ExecutionPlan]:
        """All valid execution plans, each with a stable ``plan_id``."""
        # Each partial plan pairs its assignment with the entries whose
        # output it leaves on the server.
        partial: list[tuple[dict[str, int], frozenset[str]]] = [({}, frozenset())]
        for entry in self.spec.data:
            extended = []
            for assignment, on_server in partial:
                splits, on_server_at = legal_splits(entry, entry.source in on_server)
                for split in splits:
                    extended.append((
                        {**assignment, entry.name: split},
                        on_server | {entry.name} if split == on_server_at else on_server,
                    ))
                    if len(extended) > MAX_PLANS:
                        raise OptimizationError(
                            f"plan enumeration exceeded {MAX_PLANS} plans"
                        )
            partial = extended
        return [
            ExecutionPlan.from_mapping(assignment, plan_id=index)
            for index, (assignment, _) in enumerate(partial)
        ]

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
        on_server: set[str] = set()
        for entry in self.spec.data:
            splits, on_server_at = legal_splits(entry, entry.source in on_server)
            assignment[entry.name] = splits[-1]
            if splits[-1] == on_server_at:
                on_server.add(entry.name)
        return ExecutionPlan.from_mapping(assignment, plan_id=-2)
