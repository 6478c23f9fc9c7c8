"""Network model.

End-to-end latency in the paper is wall-clock time on a real deployment.
Here compute time is measured (Python execution) while network time is
*modelled*: each query round trip costs one RTT plus payload size divided
by bandwidth.  Every :class:`~repro.net.middleware.QueryResponse` carries
its modelled seconds, and :class:`~repro.core.system.LatencyBreakdown`
adds them to the measured compute of a pass.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TransferCost:
    """Cost of moving one payload across the client/server boundary."""

    payload_bytes: int
    seconds: float
    round_trips: int = 1


@dataclass
class NetworkModel:
    """Round-trip latency + bandwidth model of the client↔server link.

    Defaults approximate a same-campus deployment (the paper's middleware
    and DBMS run next to each other; the browser talks to them over a fast
    LAN): 4 ms RTT and 500 Mbit/s of usable bandwidth.  A ``localhost``
    profile and a ``wan`` profile are provided for the ablation benches.
    """

    rtt_seconds: float = 0.004
    bandwidth_bytes_per_second: float = 500e6 / 8

    def transfer(self, payload_bytes: int, round_trips: int = 1) -> TransferCost:
        """Cost of transferring ``payload_bytes`` with ``round_trips`` RTTs."""
        seconds = round_trips * self.rtt_seconds + payload_bytes / self.bandwidth_bytes_per_second
        return TransferCost(payload_bytes=payload_bytes, seconds=seconds, round_trips=round_trips)

    @classmethod
    def localhost(cls) -> "NetworkModel":
        """A DBMS running on the client machine (or in the browser)."""
        return cls(rtt_seconds=0.0002, bandwidth_bytes_per_second=5e9)

    @classmethod
    def lan(cls) -> "NetworkModel":
        """Same-site middleware/DBMS (default)."""
        return cls()

    @classmethod
    def wan(cls) -> "NetworkModel":
        """A remote DBMS across the internet."""
        return cls(rtt_seconds=0.05, bandwidth_bytes_per_second=50e6 / 8)
