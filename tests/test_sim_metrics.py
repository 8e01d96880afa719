"""Unit and property tests for metrics primitives."""

import math

# Module scope: paying numpy's first-import cost inside a Hypothesis example
# blows the deadline on loaded machines.
import numpy
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.metrics import BandwidthMeter, Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_increments(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestHistogram:
    def test_empty_stats_are_nan(self):
        h = Histogram("h")
        assert math.isnan(h.mean())
        assert math.isnan(h.percentile(50))

    def test_basic_percentiles(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert h.percentile(50) == pytest.approx(50.5)

    def test_percentile_bounds_checked(self):
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_observe_after_percentile(self):
        h = Histogram("h")
        h.observe(10.0)
        assert h.percentile(50) == 10.0
        h.observe(0.0)
        assert h.percentile(0) == 0.0

    def test_count_total_min_max(self):
        h = Histogram("h")
        assert math.isnan(h.min()) and math.isnan(h.max())
        for v in (3.0, -1.0, 10.0, 0.0):
            h.observe(v)
        assert (h.count, len(h)) == (4, 4)
        assert h.total == pytest.approx(12.0)
        assert h.mean() == pytest.approx(3.0)
        assert (h.min(), h.max()) == (-1.0, 10.0)

    def test_summary_fields(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 3
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["max"] == 3.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    def test_percentiles_monotone_and_bounded(self, values):
        h = Histogram("h")
        for v in values:
            h.observe(v)
        p50, p75, p99 = h.percentile(50), h.percentile(75), h.percentile(99)
        # Linear interpolation can exceed the extremes by float epsilon.
        tolerance = 1e-9 + abs(max(values)) * 1e-12
        assert min(values) - tolerance <= p50 <= p75 + tolerance
        assert p75 <= p99 + tolerance
        assert p99 <= max(values) + tolerance

    @settings(deadline=1000)
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=100))
    def test_percentile_matches_numpy(self, values):
        h = Histogram("h")
        for v in values:
            h.observe(v)
        for p in (25, 50, 90):
            assert h.percentile(p) == pytest.approx(
                float(numpy.percentile(values, p)), rel=1e-6, abs=1e-6
            )


class TestBandwidthMeter:
    def test_totals(self):
        m = BandwidthMeter("m")
        m.on_send_many(100, 1)
        m.on_receive(50)
        assert m.bytes_sent == 100
        assert m.bytes_received == 50
        assert m.total_bytes == 150
        assert m.messages_sent == 1
        assert m.messages_received == 1

    def test_fan_out_charges_every_copy(self):
        m = BandwidthMeter("m")
        m.on_send_many(100, 3)
        m.on_send_many(100, 0)  # a fan-out to nobody sent nothing
        assert (m.bytes_sent, m.messages_sent) == (300, 3)

    def test_reset(self):
        m = BandwidthMeter("m")
        m.on_send_many(100, 1)
        m.on_receive(20)
        m.reset()
        assert m.total_bytes == 0
        assert (m.messages_sent, m.messages_received) == (0, 0)


class TestRegistry:
    def test_same_name_same_instance(self):
        r = MetricsRegistry()
        assert r.counter("x") is r.counter("x")
        assert r.get_counter("x") is r.counter("x")

    def test_names_listing(self):
        r = MetricsRegistry()
        r.counter("b")
        r.counter("a")
        assert r.names() == {"counters": ["a", "b"]}

    def test_get_counter_missing(self):
        assert MetricsRegistry().get_counter("nope") is None
