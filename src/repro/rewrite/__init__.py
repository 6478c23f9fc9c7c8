"""Query rewriting: from Vega transforms to SQL executed on the DBMS.

Implements Section 4 of the paper:

* :mod:`~repro.rewrite.templates` — per-transform SQL query builders over a
  composable :class:`QueryFragment` IR, supporting recursive batching of
  adjacent transforms into a single nested query and rule-based flattening
  into readable SQL,
* :mod:`~repro.rewrite.vdt` — the ``VegaDBMSTransform`` (VDT) dataflow
  operator that builds its SQL at evaluation time (filling signal-dependent
  holes), sends it through the middleware and emits the result rows,
* :mod:`~repro.rewrite.rewriter` — builds a rewritten dataflow for a given
  client/server partitioning of a specification.
"""

from repro.rewrite.templates import (
    QueryFragment,
    REWRITABLE_TRANSFORMS,
    legal_splits,
    rewritable_prefix,
)
from repro.rewrite.vdt import VegaDBMSTransform
from repro.rewrite.rewriter import SpecRewriter, RewrittenDataflow

__all__ = [
    "QueryFragment",
    "REWRITABLE_TRANSFORMS",
    "legal_splits",
    "rewritable_prefix",
    "VegaDBMSTransform",
    "SpecRewriter",
    "RewrittenDataflow",
]
