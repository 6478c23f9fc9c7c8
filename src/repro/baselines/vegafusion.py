"""VegaFusion-like baseline: push everything to the server, always.

VegaFusion moves supported data transformations out of the browser into a
middleware layer unconditionally.  We model this as the all-server plan
(the longest valid rewritable prefix of every data entry is offloaded)
with no cost-based selection and no interaction-aware consolidation.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.enumerator import PlanEnumerator
from repro.core.system import VegaPlusSystem
from repro.net.channel import NetworkModel
from repro.net.serialize import ArrowCodec, Codec
from repro.backends import SQLBackend
from repro.vega.spec import VegaSpec


class VegaFusionSystem(VegaPlusSystem):
    """Server-always execution without plan selection.

    Uses the Arrow codec (VegaFusion transfers Arrow record batches) and
    keeps the result cache enabled, mirroring its memoisation of transform
    outputs.
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
            codec=codec or ArrowCodec(),
            enable_cache=True,
        )
        enumerator = PlanEnumerator(self.spec)
        self.use_plan(enumerator.all_server_plan())

    def optimize(
        self,
        anticipated_interactions: Sequence[Mapping[str, object]] | None = None,
        episode_weights: Sequence[float] | None = None,
    ):
        """VegaFusion always offloads; there is nothing to optimize."""
        return None
