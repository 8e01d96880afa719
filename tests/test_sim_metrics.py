"""Unit and property tests for metrics primitives."""

import math

# Module scope: paying numpy's first-import cost inside a Hypothesis example
# blows the deadline on loaded machines.
import numpy
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.metrics import (
    BandwidthMeter,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
    WindowTruncatedError,
)


class TestCounter:
    def test_increments(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_and_peak(self):
        g = Gauge("g")
        g.set(5.0)
        g.set(2.0)
        assert g.value == 2.0
        assert g.peak == 5.0

    def test_add(self):
        g = Gauge("g")
        g.add(3.0)
        g.add(-1.0)
        assert g.value == 2.0

    def test_peak_of_negative_only_gauge(self):
        # Regression: peak used to start at 0.0, so a gauge that only ever
        # held negative values reported a peak that was never set.
        g = Gauge("g")
        g.set(-5.0)
        g.set(-2.0)
        g.set(-9.0)
        assert g.peak == -2.0

    def test_peak_unset_is_nan(self):
        assert math.isnan(Gauge("g").peak)


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


class TestStreamingHistogram:
    def test_empty_stats_are_nan(self):
        h = Histogram("h", streaming=True)
        assert math.isnan(h.mean())
        assert math.isnan(h.percentile(50))
        assert math.isnan(h.min())
        assert math.isnan(h.max())

    def test_exact_count_total_min_max(self):
        h = Histogram("h", streaming=True)
        for v in (3.0, -1.0, 10.0, 0.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == pytest.approx(12.0)
        assert h.mean() == pytest.approx(3.0)
        assert h.min() == -1.0
        assert h.max() == 10.0

    def test_extremes_exact(self):
        h = Histogram("h", streaming=True)
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0

    def test_percentile_within_relative_error(self):
        h = Histogram("h", streaming=True)
        values = [1.5 ** i for i in range(40)]
        for v in values:
            h.observe(v)
        values.sort()
        for p in (10, 50, 90, 99):
            k = max(1, math.ceil(p / 100 * len(values)))
            exact = values[k - 1]
            assert h.percentile(p) == pytest.approx(exact, rel=0.02)

    def test_negative_values(self):
        h = Histogram("h", streaming=True)
        for v in (-100.0, -10.0, -1.0):
            h.observe(v)
        assert h.percentile(0) == -100.0
        assert -11.0 < h.percentile(50) < -9.0

    def test_summary_shape_matches_exact_mode(self):
        exact, streaming = Histogram("e"), Histogram("s", streaming=True)
        for v in range(1, 1001):
            exact.observe(float(v))
            streaming.observe(float(v))
        se, ss = exact.summary(), streaming.summary()
        assert set(se) == set(ss)
        assert ss["count"] == se["count"]
        assert ss["p99"] == pytest.approx(se["p99"], rel=0.03)

    def test_bounds_checked(self):
        h = Histogram("h", streaming=True)
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(-1)


class TestTimeSeries:
    def test_window_and_mean(self):
        ts = TimeSeries("t")
        for i in range(10):
            ts.record(float(i), float(i) * 2)
        assert len(ts.window(2.0, 4.0)) == 3
        assert ts.mean_over(0.0, 9.0) == pytest.approx(9.0)

    def test_mean_empty_window_nan(self):
        ts = TimeSeries("t")
        assert math.isnan(ts.mean_over(0, 1))

    def test_out_of_order_records_still_queryable(self):
        ts = TimeSeries("t")
        for t in (5.0, 1.0, 3.0):
            ts.record(t, t * 10)
        assert ts.window(0.0, 3.5) == [(1.0, 10.0), (3.0, 30.0)]
        assert ts.mean_over(0.0, 6.0) == pytest.approx(30.0)

    def test_interleaved_record_and_query(self):
        ts = TimeSeries("t")
        for t in range(100):
            ts.record(float(t), 1.0)
            assert ts.mean_over(0.0, float(t)) == pytest.approx(1.0)


class TestBandwidthMeter:
    def test_totals(self):
        m = BandwidthMeter("m")
        m.on_send(0.0, 100)
        m.on_receive(1.0, 50)
        assert m.bytes_sent == 100
        assert m.bytes_received == 50
        assert m.total_bytes == 150
        assert m.messages_sent == 1
        assert m.messages_received == 1

    def test_windowed_rate(self):
        m = BandwidthMeter("m")
        for t in range(10):
            m.on_send(float(t), 100)
        assert m.bytes_in_window(0.0, 4.0) == 500
        assert m.rate_bps(0.0, 10.0) == pytest.approx(100.0)

    def test_rate_requires_positive_window(self):
        m = BandwidthMeter("m")
        with pytest.raises(ValueError):
            m.rate_bps(1.0, 1.0)

    def test_reset(self):
        m = BandwidthMeter("m")
        m.on_send(0.0, 100)
        m.reset()
        assert m.total_bytes == 0
        assert m.bytes_in_window(0, 10) == 0

    def test_no_event_recording(self):
        m = BandwidthMeter("m", record_events=False)
        m.on_send(0.0, 100)
        m.on_receive(2.0, 50)
        assert m.bytes_sent == 100
        # Aggregate mode: a window covering every observed event answers
        # exactly from the totals ...
        assert m.bytes_in_window(0, 10) == 150
        assert m.bytes_in_window(0.0, 2.0) == 150
        # ... and a partial window raises instead of undercounting (the
        # per-event breakdown was never recorded).
        with pytest.raises(WindowTruncatedError):
            m.bytes_in_window(1.0, 10.0)
        with pytest.raises(WindowTruncatedError):
            m.bytes_in_window(0.0, 1.5)

    def test_no_event_recording_empty_meter(self):
        m = BandwidthMeter("m", record_events=False)
        assert m.bytes_in_window(0, 10) == 0

    def test_no_event_recording_reset_forgets_the_observed_span(self):
        """A window that covers everything since ``reset()`` covers
        everything the meter holds: the span before the reset is gone with
        the bytes it described."""
        m = BandwidthMeter("m", record_events=False)
        m.on_send(1.0, 100)
        m.on_receive(5.0, 50)
        m.reset()
        m.on_send(6.0, 10)
        m.on_receive(9.0, 20)
        assert m.bytes_in_window(5.5, 10.0) == 30
        with pytest.raises(WindowTruncatedError):
            m.bytes_in_window(7.0, 10.0)

    @pytest.mark.parametrize("ops, window", [
        ([("on_send", 1.0, 100), ("on_receive", 2.0, 50)], (0.0, 2.0)),
        ([("on_send_many", 1.0, 100, 3), ("on_receive", 4.0, 10)], (1.0, 4.0)),
        # A zero-count fan-out sent nothing: it must not widen the span.
        ([("on_send", 1.0, 100), ("on_send_many", 5.0, 100, 0)], (0.0, 2.0)),
    ])
    def test_aggregate_meter_agrees_with_event_log(self, ops, window):
        """Fed the same calls, an aggregate meter answers a window covering
        everything that was sent or received with the event log's number."""
        log = BandwidthMeter("log")
        aggregate = BandwidthMeter("aggregate", record_events=False)
        for name, *args in ops:
            getattr(log, name)(*args)
            getattr(aggregate, name)(*args)
        assert aggregate.bytes_in_window(*window) == log.bytes_in_window(*window)
        assert aggregate.total_bytes == log.total_bytes
        assert aggregate.messages_sent == log.messages_sent

    def test_interleaved_record_and_window_query(self):
        m = BandwidthMeter("m")
        for t in range(50):
            m.on_send(float(t), 10)
            assert m.bytes_in_window(0.0, float(t)) == 10 * (t + 1)

    def test_out_of_order_events_still_counted(self):
        m = BandwidthMeter("m")
        for t in (5.0, 1.0, 3.0):
            m.on_send(t, 100)
        assert m.bytes_in_window(0.0, 3.5) == 200
        assert m.bytes_in_window(0.0, 10.0) == 300

    def test_event_accessors(self):
        m = BandwidthMeter("m")
        m.on_send(1.0, 10)
        m.on_receive(2.0, 20)
        assert m.sent_events() == [(1.0, 10)]
        assert m.received_events() == [(2.0, 20)]


class TestBandwidthMeterTruncation:
    def test_window_truncated_error_is_value_error(self):
        # Callers that already guard bytes_in_window with ValueError keep
        # working; the subclass only adds precision.
        assert issubclass(WindowTruncatedError, ValueError)


class TestRegistry:
    def test_same_name_same_instance(self):
        r = MetricsRegistry()
        assert r.counter("x") is r.counter("x")
        assert r.gauge("g") is r.gauge("g")
        assert r.histogram("h") is r.histogram("h")
        assert r.timeseries("t") is r.timeseries("t")

    def test_names_listing(self):
        r = MetricsRegistry()
        r.counter("a")
        r.histogram("b")
        names = r.names()
        assert "a" in names["counters"]
        assert "b" in names["histograms"]

    def test_get_counter_missing(self):
        assert MetricsRegistry().get_counter("nope") is None
