"""Simulated client ↔ middleware ↔ DBMS plumbing.

The paper's end-to-end latency combines client compute, server compute and
network transfer (HTTP round trips, JSON vs Apache Arrow serialisation).
This package models the parts that are not Python compute:

* :mod:`~repro.net.serialize` — payload size estimation for a JSON-like
  text codec and an Arrow-like binary columnar codec,
* :mod:`~repro.net.channel` — a network model (round-trip latency +
  bandwidth),
* :mod:`~repro.net.cache` — the two-level LRU query cache of Section 5.5,
* :mod:`~repro.net.middleware` — the middleware server that receives SQL
  from VDT operators, consults the caches, executes on the DBMS and
  returns results with a full cost breakdown.
"""

from repro.net.serialize import JsonCodec, ArrowCodec, Codec
from repro.net.channel import NetworkModel, TransferCost
from repro.net.cache import QueryCache
from repro.net.middleware import MiddlewareServer, QueryResponse

__all__ = [
    "JsonCodec",
    "ArrowCodec",
    "Codec",
    "NetworkModel",
    "TransferCost",
    "QueryCache",
    "MiddlewareServer",
    "QueryResponse",
]
