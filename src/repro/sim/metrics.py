"""Metrics primitives: counters, gauges, histograms, time series, bandwidth.

The paper's evaluation reports bandwidth at the query server (Fig. 7a), query
latency percentiles (Fig. 7b/7c/8c), server CPU/RAM (Fig. 8a) and node-agent
bandwidth (Fig. 8b). These primitives are the measurement substrate for all
of those: every network send is accounted against the sender's and receiver's
:class:`BandwidthMeter`.

Window queries (``BandwidthMeter.bytes_in_window``, ``TimeSeries.window``)
exploit the fact that the simulator's clock is monotone, so events arrive in
nondecreasing time order: lookups are a ``bisect`` over a parallel time array
plus a prefix-sum cache, O(log n) instead of a scan over every recorded
event. Out-of-order appends are tolerated (a lazy re-sort restores the fast
path) so the primitives stay safe for hand-fed test data.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Tuple


class WindowTruncatedError(ValueError):
    """A window query asked an aggregate-only meter for a partial window.

    A meter built with ``record_events=False`` keeps totals and the observed
    time span, not the per-message log, so a window that does not cover every
    event it has seen would silently undercount; raising makes the missing
    data explicit. Either build the meter (or the ``Network``) with
    ``record_events=True``, or use the totals.
    """


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


class Gauge:
    """A value that can go up and down, with peak tracking.

    ``peak`` is initialised from the first :meth:`set`, so a gauge that only
    ever holds negative values reports its true (negative) peak rather than a
    phantom ``0.0`` that was never set. Before any ``set`` it is ``nan``.
    """

    __slots__ = ("name", "value", "_peak")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._peak: Optional[float] = None

    @property
    def peak(self) -> float:
        return math.nan if self._peak is None else self._peak

    def set(self, value: float) -> None:
        self.value = value
        if self._peak is None or value > self._peak:
            self._peak = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)


#: Geometric growth factor of streaming-histogram buckets. The relative error
#: of a streaming percentile is bounded by ``sqrt(growth) - 1`` (~1%).
STREAMING_BUCKET_GROWTH = 1.02

#: Magnitudes below this collapse into the zero bucket.
_STREAMING_MIN_MAG = 1e-9

_LOG_GROWTH = math.log(STREAMING_BUCKET_GROWTH)
_HALF_BUCKET = math.sqrt(STREAMING_BUCKET_GROWTH)


def _bucket_index(value: float) -> int:
    """Signed geometric bucket index; bucket 0 holds near-zero magnitudes."""
    mag = abs(value)
    if mag < _STREAMING_MIN_MAG:
        return 0
    index = 1 + int(math.log(mag / _STREAMING_MIN_MAG) / _LOG_GROWTH)
    return index if value > 0 else -index


def _bucket_value(index: int) -> float:
    """Geometric midpoint of a bucket, the representative returned to callers."""
    if index == 0:
        return 0.0
    mag = _STREAMING_MIN_MAG * STREAMING_BUCKET_GROWTH ** (abs(index) - 1) * _HALF_BUCKET
    return mag if index > 0 else -mag


class Histogram:
    """Observation store with percentiles, in one of two storage modes.

    * exact (default): raw observations, linear-interpolated percentiles.
      Suits benchmark sweeps (at most a few hundred thousand samples); the
      value list is sorted at most once per batch of observations, so
      ``summary()`` pays a single sort no matter how many percentiles it
      reads.
    * ``streaming=True``: log-bucketed counts (HDR-histogram style) with O(1)
      ``observe`` and O(buckets) ``percentile`` at ~1% relative error. For
      long-running meters that interleave observes with percentile reads,
      where re-sorting raw values on every read would be O(n log n) each.
      ``count``/``total``/``mean``/``min``/``max`` stay exact.
    """

    __slots__ = ("name", "streaming", "_values", "_sorted", "_buckets",
                 "_bucket_order", "_count", "_total", "_min", "_max")

    def __init__(self, name: str, *, streaming: bool = False) -> None:
        self.name = name
        self.streaming = streaming
        self._values: List[float] = []
        self._sorted = True
        self._buckets: Dict[int, int] = {}
        self._bucket_order: Optional[List[int]] = None
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        if self.streaming:
            index = _bucket_index(value)
            buckets = self._buckets
            if index in buckets:
                buckets[index] += 1
            else:
                buckets[index] = 1
                self._bucket_order = None
            self._count += 1
            self._total += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
        else:
            self._values.append(value)
            self._sorted = False

    def __len__(self) -> int:
        return self._count if self.streaming else len(self._values)

    @property
    def count(self) -> int:
        return len(self)

    @property
    def total(self) -> float:
        return self._total if self.streaming else sum(self._values)

    def mean(self) -> float:
        if not len(self):
            return math.nan
        return self.total / len(self)

    def min(self) -> float:
        if self.streaming:
            return self._min if self._count else math.nan
        return min(self._values) if self._values else math.nan

    def max(self) -> float:
        if self.streaming:
            return self._max if self._count else math.nan
        return max(self._values) if self._values else math.nan

    def percentile(self, p: float) -> float:
        """Percentile, ``p`` in [0, 100].

        Exact mode linearly interpolates between order statistics; streaming
        mode returns the nearest-rank bucket representative (clamped to the
        observed min/max, so 0 and 100 are exact).
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.streaming:
            return self._streaming_percentile(p)
        if not self._values:
            return math.nan
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        if len(self._values) == 1:
            return self._values[0]
        rank = (p / 100) * (len(self._values) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return self._values[low]
        frac = rank - low
        return self._values[low] * (1 - frac) + self._values[high] * frac

    def _streaming_percentile(self, p: float) -> float:
        if not self._count:
            return math.nan
        if p == 0:
            return self._min
        if p == 100:
            return self._max
        # Nearest-rank: the k-th smallest observation, k in [1, count].
        k = max(1, math.ceil((p / 100) * self._count))
        if self._bucket_order is None:
            self._bucket_order = sorted(self._buckets)
        cumulative = 0
        for index in self._bucket_order:
            cumulative += self._buckets[index]
            if cumulative >= k:
                return min(max(_bucket_value(index), self._min), self._max)
        return self._max  # pragma: no cover - cumulative always reaches count

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p75": self.percentile(75),
            "p99": self.percentile(99),
            "max": self.max(),
        }


class TimeSeries:
    """Append-only ``(time, value)`` samples with windowed aggregation."""

    __slots__ = ("name", "samples", "_times", "_prefix", "_comp", "_unsorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[Tuple[float, float]] = []
        self._times: List[float] = []
        # Neumaier-compensated prefix sums: _prefix[i] holds the rounded
        # running sum, _comp[i] the accumulated rounding error, so a window
        # sum (prefix[hi]-prefix[lo]) + (comp[hi]-comp[lo]) stays accurate
        # even when a tiny window follows samples many orders of magnitude
        # larger (plain prefix differences cancel catastrophically there).
        self._prefix: List[float] = [0.0]
        self._comp: List[float] = [0.0]
        self._unsorted = False

    def record(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            self._unsorted = True
        self.samples.append((time, value))
        self._times.append(time)

    def values(self) -> List[float]:
        return [v for _, v in self.samples]

    def _bounds(self, start: float, end: float) -> Tuple[int, int]:
        if self._unsorted:
            # Stable sort: samples at equal times keep their record order.
            self.samples.sort(key=lambda sample: sample[0])
            self._times = [t for t, _ in self.samples]
            self._prefix = [0.0]
            self._comp = [0.0]
            self._unsorted = False
        return bisect_left(self._times, start), bisect_right(self._times, end)

    def window(self, start: float, end: float) -> List[Tuple[float, float]]:
        lo, hi = self._bounds(start, end)
        return self.samples[lo:hi]

    def mean_over(self, start: float, end: float) -> float:
        lo, hi = self._bounds(start, end)
        if hi <= lo:
            return math.nan
        prefix = self._prefix
        comp = self._comp
        if len(prefix) <= len(self.samples):
            total = prefix[-1]
            error = comp[-1]
            for _, value in self.samples[len(prefix) - 1:]:
                new_total = total + value
                if abs(total) >= abs(value):
                    error += (total - new_total) + value
                else:
                    error += (value - new_total) + total
                total = new_total
                prefix.append(total)
                comp.append(error)
        return ((prefix[hi] - prefix[lo]) + (comp[hi] - comp[lo])) / (hi - lo)


class _EventLog:
    """Timestamped sizes, kept queryable in O(log n).

    Parallel time/size arrays (appends are nondecreasing in time on the
    simulator's clock) plus a lazily-extended prefix-sum array; a window sum
    is two bisects and one subtraction. An out-of-order append flips a flag
    and the next query re-sorts both arrays (stable, so ties keep append
    order) before rebuilding the cache.
    """

    __slots__ = ("times", "sizes", "_prefix", "_unsorted")

    def __init__(self) -> None:
        self.times: List[float] = []
        self.sizes: List[int] = []
        self._prefix: List[int] = [0]
        self._unsorted = False

    def __len__(self) -> int:
        return len(self.times)

    def append(self, time: float, size: int) -> None:
        if self.times and time < self.times[-1]:
            self._unsorted = True
        self.times.append(time)
        self.sizes.append(size)

    def events(self) -> List[Tuple[float, int]]:
        return list(zip(self.times, self.sizes))

    def _ensure_sorted(self) -> None:
        if self._unsorted:
            order = sorted(range(len(self.times)), key=self.times.__getitem__)
            self.times = [self.times[i] for i in order]
            self.sizes = [self.sizes[i] for i in order]
            self._prefix = [0]
            self._unsorted = False

    def bytes_between(self, start: float, end: float) -> int:
        if not self.times:
            return 0
        self._ensure_sorted()
        prefix = self._prefix
        if len(prefix) <= len(self.sizes):
            total = prefix[-1]
            for size in self.sizes[len(prefix) - 1:]:
                total += size
                prefix.append(total)
        lo = bisect_left(self.times, start)
        hi = bisect_right(self.times, end)
        return prefix[hi] - prefix[lo]

    def clear(self) -> None:
        self.times.clear()
        self.sizes.clear()
        self._prefix = [0]
        self._unsorted = False


class BandwidthMeter:
    """Byte accounting for one endpoint.

    Tracks totals and a per-direction event log so benchmarks can compute
    average KB/s over any measurement window without rescanning the run.
    With ``record_events=False`` it keeps the totals and the observed time
    span only (aggregate mode); see :meth:`bytes_in_window`.
    """

    __slots__ = ("name", "bytes_sent", "bytes_received", "messages_sent",
                 "messages_received", "_sent", "_recv", "record_events",
                 "_oldest", "_newest")

    def __init__(self, name: str, *, record_events: bool = True) -> None:
        self.name = name
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0
        self._sent = _EventLog()
        self._recv = _EventLog()
        self.record_events = record_events
        # Aggregate mode (record_events=False): the observed time span, so
        # window queries that cover every event can still answer exactly
        # from the totals.
        self._oldest = math.inf
        self._newest = -math.inf

    def on_send(self, time: float, size: int) -> None:
        self.bytes_sent += size
        self.messages_sent += 1
        if self.record_events:
            self._sent.append(time, size)
        else:
            if time < self._oldest:
                self._oldest = time
            if time > self._newest:
                self._newest = time

    def on_send_many(self, time: float, size: int, count: int) -> None:
        """``count`` same-sized sends at one instant (fan-out fast path).

        Identical observable state to ``count`` ``on_send`` calls — the event
        log gains ``count`` entries, so window queries are unchanged — and a
        zero-count fan-out, which sent nothing, observes nothing.
        """
        self.bytes_sent += size * count
        self.messages_sent += count
        if self.record_events:
            append = self._sent.append
            for _ in range(count):
                append(time, size)
        elif count:
            if time < self._oldest:
                self._oldest = time
            if time > self._newest:
                self._newest = time

    def on_receive(self, time: float, size: int) -> None:
        self.bytes_received += size
        self.messages_received += 1
        if self.record_events:
            self._recv.append(time, size)
        else:
            if time < self._oldest:
                self._oldest = time
            if time > self._newest:
                self._newest = time

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received

    def sent_events(self) -> List[Tuple[float, int]]:
        """Recorded ``(time, size)`` send events (test/debug helper)."""
        return self._sent.events()

    def received_events(self) -> List[Tuple[float, int]]:
        """Recorded ``(time, size)`` receive events (test/debug helper)."""
        return self._recv.events()

    def bytes_in_window(self, start: float, end: float) -> int:
        """Total bytes (both directions) in ``[start, end]``.

        With ``record_events=True``: O(log n) in the number of recorded
        events.

        With ``record_events=False`` (aggregate mode, the network's
        default): answers exactly — from the running totals — whenever the
        window covers every event the meter has seen, and raises
        :class:`WindowTruncatedError` for partial windows, whose per-event
        breakdown was never recorded.
        """
        if not self.record_events:
            if start <= self._oldest and end >= self._newest:
                return self.bytes_sent + self.bytes_received
            raise WindowTruncatedError(
                f"meter {self.name!r} records aggregates only "
                f"(record_events=False); window [{start}, {end}] does not "
                f"cover the observed span [{self._oldest}, {self._newest}]"
            )
        return self._sent.bytes_between(start, end) + self._recv.bytes_between(
            start, end
        )

    def rate_bps(self, start: float, end: float) -> float:
        """Average bytes/second (both directions) over the window."""
        duration = end - start
        if duration <= 0:
            raise ValueError("window must have positive duration")
        return self.bytes_in_window(start, end) / duration

    def reset(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0
        self._sent.clear()
        self._recv.clear()
        self._oldest = math.inf
        self._newest = -math.inf


class MetricsRegistry:
    """Named registry so components can share metric instances."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str, *, streaming: bool = False) -> Histogram:
        """Get or create a histogram; ``streaming`` only applies on creation."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(name, streaming=streaming)
        return self._histograms[name]

    def timeseries(self, name: str) -> TimeSeries:
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def names(self) -> Dict[str, Iterable[str]]:
        return {
            "counters": sorted(self._counters),
            "gauges": sorted(self._gauges),
            "histograms": sorted(self._histograms),
            "timeseries": sorted(self._series),
        }

    def get_counter(self, name: str) -> Optional[Counter]:
        return self._counters.get(name)
