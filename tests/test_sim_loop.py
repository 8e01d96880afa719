"""Unit tests for the Simulator event loop."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator


class TestScheduling:
    def test_schedule_runs_callback(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "x")
        sim.run_until(2.0)
        assert fired == ["x"]

    def test_now_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run_until(5.0)
        assert seen == [1.5]
        assert sim.now == 5.0

    def test_schedule_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute(self, sim):
        fired = []
        sim.schedule_at(3.0, fired.append, 1)
        sim.run_until(3.0)
        assert fired == [1]

    def test_schedule_at_past_rejected(self, sim):
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_run_until_backwards_rejected(self, sim):
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(4.0)

    def test_cancel_prevents_firing(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, 1)
        handle.cancel()
        sim.run_until(2.0)
        assert fired == []

    def test_events_scheduled_during_run_execute(self, sim):
        fired = []

        def outer():
            sim.schedule(0.5, fired.append, "inner")

        sim.schedule(1.0, outer)
        sim.run_until(2.0)
        assert fired == ["inner"]

    def test_run_drains_queue(self, sim):
        fired = []
        for i in range(5):
            sim.schedule(float(i), fired.append, i)
        executed = sim.run()
        assert executed == 5
        assert fired == [0, 1, 2, 3, 4]

    def test_run_max_events(self, sim):
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        assert sim.run(max_events=3) == 3

    def test_events_processed_counter(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run_until(3.0)
        assert sim.events_processed == 2


class TestPeriodicTimers:
    def test_call_every_fires_repeatedly(self, sim):
        fired = []
        sim.call_every(1.0, lambda: fired.append(sim.now))
        sim.run_until(5.5)
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_stop_halts_timer(self, sim):
        fired = []
        timer = sim.call_every(1.0, lambda: fired.append(sim.now))
        sim.run_until(2.5)
        timer.stop()
        sim.run_until(10.0)
        assert fired == [1.0, 2.0]

    def test_jitter_desynchronises(self, sim):
        fired = []
        sim.call_every(1.0, lambda: fired.append(sim.now), jitter=0.5)
        sim.run_until(10.0)
        intervals = [b - a for a, b in zip(fired, fired[1:])]
        assert all(1.0 <= i <= 1.5 + 1e-9 for i in intervals)
        assert len(set(intervals)) > 1  # not a fixed period

    def test_zero_interval_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.call_every(0.0, lambda: None)

    def test_next_firing_is_queued_before_the_callback_runs(self, sim):
        # A callback that schedules at the instant of the next firing ties
        # with it on time; the firing, queued first, has the smaller seq.
        fired = []

        def tick():
            fired.append("tick")
            if len(fired) == 1:
                sim.schedule(1.0, fired.append, "scheduled")

        sim.call_every(1.0, tick)
        sim.run_until(2.0)
        assert fired == ["tick", "tick", "scheduled"]

    def test_restart_after_stop_rejected(self, sim):
        timer = sim.call_every(1.0, lambda: None)
        timer.stop()
        with pytest.raises(SimulationError):
            timer.start()


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        def run(seed):
            sim = Simulator(seed=seed)
            fired = []
            sim.call_every(1.0, lambda: fired.append(sim.now), jitter=0.3)
            sim.run_until(20.0)
            return fired

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_derive_rng_streams_independent(self):
        sim = Simulator(seed=1)
        a = sim.derive_rng("a")
        b = sim.derive_rng("b")
        a2 = Simulator(seed=1).derive_rng("a")
        assert [a.random() for _ in range(5)] == [a2.random() for _ in range(5)]
        assert a.random() != b.random()


class TestJitterDraw:
    """A periodic timer's jitter is ``jitter * rng.random()``: bitwise
    ``rng.uniform(0.0, jitter)``, which computes ``0.0 + (jitter - 0.0) *
    random()``, without its Python frame."""

    jitters = st.one_of(
        st.floats(min_value=0.0, exclude_min=True, max_value=1e300,
                  allow_nan=False, allow_infinity=False),
        st.integers(1, 10**6),
    )

    @given(st.integers(0, 2**64), jitters)
    @settings(max_examples=500)
    def test_is_bitwise_uniform(self, seed, jitter):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert (jitter * ours.random()).hex() == theirs.uniform(0.0, jitter).hex()

    @given(st.integers(0, 2**32), st.floats(0.05, 5.0), jitters.filter(lambda j: j < 10))
    @settings(max_examples=50, deadline=None)
    def test_timer_fires_where_uniform_draws_put_it(self, seed, interval, jitter):
        """The first firing (``RepeatingTimer._next_delay``) and every later
        one (``RepeatingTimer._fire_timer``'s re-queue) land where
        ``uniform`` puts them."""
        sim = Simulator(seed=0)
        fired = []
        sim.call_every(interval, lambda: fired.append(sim.now), jitter=jitter,
                       rng=random.Random(seed))
        sim.run_until(20 * (interval + jitter))
        draws = random.Random(seed)
        expected = [0.0 + (interval + draws.uniform(0.0, jitter))]
        while len(expected) < len(fired):
            expected.append(expected[-1] + interval + draws.uniform(0.0, jitter))
        assert fired and [t.hex() for t in fired] == [t.hex() for t in expected]
