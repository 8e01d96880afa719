"""Deterministic discrete-event simulation kernel.

The kernel substitutes for the paper's EC2 testbed: simulated time, a
geo-aware network with latency and bandwidth accounting, and metrics.
All higher layers (gossip, store, broker, FOCUS itself) run on top of it.
"""

from repro.sim.events import Deadline, Event, EventQueue, TimerHandle
from repro.sim.loop import Simulator
from repro.sim.metrics import (
    BandwidthMeter,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
    WindowTruncatedError,
)
from repro.sim.network import (
    Endpoint,
    Message,
    Network,
    SizedDict,
    SizedPayload,
    approx_size,
)
from repro.sim.process import Process
from repro.sim.rpc import DEFERRED, RpcMixin
from repro.sim.topology import (
    PAPER_REGIONS,
    Region,
    Site,
    Topology,
    geo_distance_km,
)

__all__ = [
    "BandwidthMeter",
    "Counter",
    "DEFERRED",
    "Deadline",
    "Endpoint",
    "Event",
    "EventQueue",
    "Gauge",
    "Histogram",
    "Message",
    "MetricsRegistry",
    "Network",
    "PAPER_REGIONS",
    "Process",
    "Region",
    "RpcMixin",
    "Simulator",
    "Site",
    "SizedDict",
    "SizedPayload",
    "TimeSeries",
    "TimerHandle",
    "Topology",
    "WindowTruncatedError",
    "approx_size",
    "geo_distance_km",
]
