"""Metrics primitives: counters, histograms, bandwidth meters.

The paper's evaluation reports bandwidth at the query server (Fig. 7a), query
latency percentiles (Fig. 7b/7c/8c), server CPU/RAM (Fig. 8a) and node-agent
bandwidth (Fig. 8b). These primitives are the measurement substrate for all
of those, one implementation each:

* :class:`BandwidthMeter` keeps byte and message totals per endpoint; every
  network send and delivery is charged to the sender's and receiver's meter.
  Bandwidth over a window that starts mid-run is the difference of the
  totals read at the window's two instants (schedule or ``run_until`` the
  reads), so no per-message log is kept.
* :class:`Histogram` keeps every observation and reports exact,
  linearly-interpolated percentiles.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


class Histogram:
    """Raw observations with exact, linearly-interpolated percentiles.

    Sized for benchmark runs (a few hundred thousand samples at most); the
    value list is sorted at most once per batch of observations, so
    ``summary()`` pays a single sort no matter how many percentiles it reads.
    """

    __slots__ = ("name", "_values", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: List[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        self._values.append(value)
        self._sorted = False

    def __len__(self) -> int:
        return len(self._values)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    def mean(self) -> float:
        if not self._values:
            return math.nan
        return self.total / len(self._values)

    def min(self) -> float:
        return min(self._values) if self._values else math.nan

    def max(self) -> float:
        return max(self._values) if self._values else math.nan

    def percentile(self, p: float) -> float:
        """Percentile, ``p`` in [0, 100], interpolated between order
        statistics."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        values = self._values
        if not values:
            return math.nan
        if not self._sorted:
            values.sort()
            self._sorted = True
        rank = (p / 100) * (len(values) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return values[low]
        frac = rank - low
        return values[low] * (1 - frac) + values[high] * frac

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p75": self.percentile(75),
            "p99": self.percentile(99),
            "max": self.max(),
        }


class BandwidthMeter:
    """Byte and message totals for one endpoint.

    ``Network.send`` and the delivery flush charge the counters in place;
    :meth:`on_send_many` and :meth:`on_receive` are the same charges as
    methods, for code outside that hot path.
    """

    __slots__ = ("name", "bytes_sent", "bytes_received", "messages_sent",
                 "messages_received")

    def __init__(self, name: str) -> None:
        self.name = name
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0

    def on_send_many(self, size: int, count: int) -> None:
        """``count`` sends of ``size`` bytes each (one fan-out)."""
        self.bytes_sent += size * count
        self.messages_sent += count

    def on_receive(self, size: int) -> None:
        self.bytes_received += size
        self.messages_received += 1

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received

    def reset(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0


class MetricsRegistry:
    """Named registry so components can share counters."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def names(self) -> Dict[str, Iterable[str]]:
        return {"counters": sorted(self._counters)}

    def get_counter(self, name: str) -> Optional[Counter]:
        return self._counters.get(name)
