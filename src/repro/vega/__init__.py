"""Vega specification layer.

Provides a declarative, JSON-style specification format modelled after
Vega's (signals, a data pipeline of transforms, scales, marks).  The one
compiler from a specification to a client dataflow is the rewriter
(:mod:`repro.rewrite.rewriter`): its all-client plan is plain Vega.
"""

from repro.vega.spec import (
    VegaSpec,
    DataEntry,
    SignalSpec,
    ScaleSpec,
    MarkSpec,
    parse_spec_dict,
)

__all__ = [
    "VegaSpec",
    "DataEntry",
    "SignalSpec",
    "ScaleSpec",
    "MarkSpec",
    "parse_spec_dict",
]
