"""Native Vega baseline: all computation on the client.

Plain Vega loads the raw data file into the browser and evaluates every
transform in its JavaScript dataflow.  We model this as the all-client
execution plan: the root data entries are fetched in full through the
middleware (the CSV-load cost) and every transform runs in the client-side
dataflow runtime.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.enumerator import PlanEnumerator
from repro.core.system import InteractionResult, VegaPlusSystem
from repro.net.channel import NetworkModel
from repro.net.serialize import Codec, JsonCodec
from repro.backends import SQLBackend
from repro.vega.spec import VegaSpec


class VegaNativeSystem(VegaPlusSystem):
    """Vega as shipped: no offloading, no optimizer.

    Defaults to the JSON codec for data loading (plain Vega parses
    CSV/JSON text) so the browser-load cost matches what the paper
    measures for the Vega baseline.
    """

    def __init__(
        self,
        spec: VegaSpec | dict,
        database: SQLBackend,
        network: NetworkModel | None = None,
        codec: Codec | None = None,
    ) -> None:
        super().__init__(
            spec,
            database,
            comparator=None,
            network=network,
            codec=codec or JsonCodec(),
            enable_cache=False,
        )
        enumerator = PlanEnumerator(self.spec)
        self.use_plan(enumerator.all_client_plan())

    def optimize(
        self,
        anticipated_interactions: Sequence[Mapping[str, object]] | None = None,
        episode_weights: Sequence[float] | None = None,
    ):
        """Native Vega has no optimizer; the all-client plan is already set."""
        return None

    def run_session(
        self, interactions: Sequence[Mapping[str, object]]
    ) -> list[InteractionResult]:
        """Initial render followed by interactions, all client-side."""
        return super().run_session(interactions)
