"""Template population and interaction workload simulation (Section 6.2).

Workloads are sequences of interactions supported by a dashboard template.
The generator binds a template to a dataset (choosing fields of the right
types at random), then repeatedly samples interactions from the template's
signal types to form sessions — e.g. 10 sessions of 20 interactions each,
as in the paper's experiment setup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.templates import DashboardTemplate, get_template
from repro.bench.templates.base import BoundTemplate
from repro.datasets.generators import get_schema
from repro.datasets.schema import DatasetSchema
from repro.errors import BenchmarkError


@dataclass
class InteractionWorkload:
    """A set of interaction sessions for one bound template."""

    bound: BoundTemplate
    sessions: list[list[dict[str, object]]] = field(default_factory=list)


@dataclass
class TemplateInstance:
    """A template bound to a dataset plus the schema used to sample signals."""

    template: DashboardTemplate
    bound: BoundTemplate
    schema: DatasetSchema

    @property
    def spec(self) -> dict:
        """The populated Vega specification."""
        return self.bound.spec

    def sample_interaction(self, rng: np.random.Generator) -> dict[str, object]:
        """One interaction for this instance's signals."""
        return self.template.sample_interaction(rng, self.schema, self.bound.fields)


class WorkloadGenerator:
    """Generates bound templates and interaction sessions.

    Parameters
    ----------
    seed:
        Base random seed; individual sessions derive their own streams.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    # ------------------------------------------------------------------ #
    def instantiate(
        self,
        template: DashboardTemplate | str,
        dataset: str,
        fields: dict[str, str] | None = None,
    ) -> TemplateInstance:
        """Bind ``template`` to ``dataset``, picking fields at random."""
        if isinstance(template, str):
            template = get_template(template)
        schema = get_schema(dataset)
        rng = np.random.default_rng(self.seed)
        bound = template.bind(dataset, schema, rng=rng, fields=fields)
        return TemplateInstance(template=template, bound=bound, schema=schema)

    def generate_workload(
        self,
        template: DashboardTemplate | str,
        dataset: str,
        n_sessions: int = 10,
        interactions_per_session: int = 20,
        fields: dict[str, str] | None = None,
    ) -> InteractionWorkload:
        """Bind a template and simulate ``n_sessions`` interaction sessions."""
        if n_sessions <= 0:
            raise BenchmarkError("n_sessions must be positive")
        instance = self.instantiate(template, dataset, fields=fields)
        sessions: list[list[dict[str, object]]] = []
        for session_index in range(n_sessions):
            rng = np.random.default_rng(self.seed + 1000 + session_index)
            if not instance.bound.interactive:
                sessions.append([])
                continue
            session = [
                instance.sample_interaction(rng)
                for _ in range(interactions_per_session)
            ]
            sessions.append(session)
        return InteractionWorkload(bound=instance.bound, sessions=sessions)
