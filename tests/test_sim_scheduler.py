"""Scheduler equivalence and periodic-timer tests.

``RepeatingTimer`` — the kernel's only periodic-timer path, one queued event
re-queued at each firing — must reproduce its oracle in
``tests/oracles/self_timer.py``, a timer that schedules a new event every
firing: the same events in the same order at the same ``sim.now`` (compared
as floats, unrounded), the same RNG draws, the same ``events_processed`` and
the same metrics. These tests pin that on a real seeded SWIM run and on a
synthetic timer storm, check that the one event queue pops strictly in
``(time, seq)`` order on randomized schedule/cancel mixes (Python's sort is
the reference), and cover stopping, replacing and restarting timers.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.loop
from repro.errors import SimulationError
from repro.gossip.swim import SwimAgent, SwimConfig
from repro.sim import Network, Simulator, Topology
from repro.sim.events import EventQueue
from tests.arms import kernel
from tests.oracles.self_timer import SelfReschedulingTimer


def swim_summary(timers: str, seed: int = 7) -> str:
    """Canonical JSON summary of a seeded SWIM run under one timer arm."""
    with kernel(timers=timers):
        sim = Simulator(seed=seed)
        return _swim_summary(sim)


def _swim_summary(sim: Simulator) -> str:
    topology = Topology()
    network = Network(sim, topology)
    regions = [r.name for r in topology.regions]
    agents = []
    for i in range(8):
        agent = SwimAgent(
            sim,
            network,
            f"n{i}",
            f"addr{i}",
            regions[i % len(regions)],
            SwimConfig(sync_interval=5.0),
        )
        agent.start()
        agents.append(agent)
    for agent in agents[1:]:
        agent.join(["addr0"])
    meters = [network.meter(f"addr{i}") for i in range(8)]
    sim.run_until(5.0)
    at_five = [meter.total_bytes for meter in meters]
    sim.run_until(8.0)
    agents[3].stop()  # exercise timer teardown + dead-endpoint deliveries
    sim.run_until(20.0)
    summary = {
        "events_processed": sim.events_processed,
        "counters": {
            name: network.metrics.counter(name).value
            for name in network.metrics.names()["counters"]
        },
        "meters": {
            f"addr{i}": [meter.total_bytes, meter.total_bytes - at_five[i]]
            for i, meter in enumerate(meters)
        },
        "alive_views": sorted(
            (agent.name, sorted(m.name for m in agent.alive_members()))
            for agent in agents
            if agent.running
        ),
    }
    return json.dumps(summary, sort_keys=True)


class TestSchedulerEquivalence:
    """The acceptance gate: the kernel reproduces its oracle's bytes, and
    the queue pops in ``(time, seq)`` order."""

    def test_swim_run_identical_across_all_configs(self):
        assert swim_summary("kernel") == swim_summary("self"), (
            "RepeatingTimer diverged from the self-rescheduling timer oracle"
        )

    def test_oracles_are_actually_substituted(self):
        """Guard the seam itself: a renamed module global would otherwise
        turn every equivalence test into kernel-vs-kernel."""
        with kernel(timers="self"):
            sim = Simulator(seed=0)
            timer = sim.call_every(1.0, lambda: None)
        assert isinstance(timer, SelfReschedulingTimer)
        assert type(sim._queue) is EventQueue
        sim = Simulator(seed=0)
        assert type(sim.call_every(1.0, lambda: None)) is (
            repro.sim.loop.RepeatingTimer
        )

    def test_synthetic_timer_storm_trace_identical(self):
        """Mixed-interval jittered timers: exact (sim.now, timer) traces.
        ``sim.now`` is compared unrounded, so a firing time computed with a
        different float association (``now + (interval + jitter)`` against
        ``(now + interval) + jitter``) fails here."""

        def trace(timers):
            with kernel(timers=timers):
                sim = Simulator(seed=3)
                log = []
                handles = []
                for i, interval in enumerate([0.1, 0.1, 0.25, 0.25, 1.0, 0.1]):
                    handles.append(
                        sim.call_every(
                            interval,
                            (lambda i=i: log.append((sim.now, i))),
                            jitter=interval * 0.1,
                            rng=sim.derive_rng(f"t{i}"),
                        )
                    )
                sim.schedule(2.0, handles[1].stop)
                sim.run_until(6.0)
                return log, sim.events_processed

        assert trace("kernel") == trace("self")

    def test_wide_queue_pops_in_time_seq_order(self):
        """2048+ pending one-shots (the live width the old "auto" backend
        switched at), some cancelled, all at distinct-or-tied stamps, fire
        in the order Python's sort gives their ``(time, seq)`` keys."""
        sim = Simulator(seed=0)
        fired = []
        rng = random.Random(5)
        delays = [rng.random() * 30.0 for _ in range(2048 + 64)]
        handles = [
            sim.schedule(d, lambda i=i: fired.append(i))
            for i, d in enumerate(delays)
        ]
        for i in range(0, 32, 2):
            handles[i].cancel()
        for i in range(20):  # same stamp: ordering is purely by seq
            handles.append(sim.schedule(31.0, lambda i=i: fired.append(("tie", i))))
        labels = list(range(len(delays))) + [("tie", i) for i in range(20)]
        live = sorted(
            (h.time, h._event.seq, label)
            for h, label in zip(handles, labels)
            if not h.cancelled
        )
        sim.run_until(40.0)
        assert fired == [label for _time, _seq, label in live]
        assert sim.events_processed == len(live)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_random_one_shot_workload_order_identical(self, seed):
        """Random schedule/cancel mixes pop in ``sorted((time, seq))`` order
        of the live events, each at its own stamp."""
        rng = random.Random(seed)
        ops = []
        t = 0.0
        for i in range(120):
            t += rng.random() * 2.0
            ops.append((t, rng.random() * 40.0, rng.random() < 0.25))
        sim = Simulator(seed=0)
        fired = []
        scheduled = []  # (handle, label) of every event, cancelled or not

        def record(label):
            fired.append((sim.now, label))

        for i, (at, delay, cancel) in enumerate(ops):
            def arm(i=i, delay=delay, cancel=cancel):
                record(("arm", i))
                handle = sim.schedule(delay, record, i)
                scheduled.append((handle, i))
                if cancel:
                    handle.cancel()
            scheduled.append((sim.schedule_at(at, arm), ("arm", i)))
        sim.run_until(120.0)
        live = sorted(
            (h.time, h._event.seq, label)
            for h, label in scheduled
            if not h.cancelled and h.time <= 120.0
        )
        assert fired == [(time, label) for time, _seq, label in live]
        assert sim.events_processed == len(live)


class TestTimerWheel:
    """Periodic-timer cases first written against the timer wheel, held by
    the one queued event each :class:`RepeatingTimer` owns."""

    def test_same_interval_timers_share_one_class(self):
        sim = Simulator(seed=0)
        fired = []
        for i in range(50):
            sim.call_every(1.0, lambda i=i: fired.append(("slow", i)))
        for i in range(30):
            sim.call_every(0.1, lambda i=i: fired.append(("fast", i)))
        # One queued event per timer.
        assert len(sim._queue) == 80
        sim.run_until(1.0)
        # Ten rounds of the 0.1 s timers (the tenth at 0.9999999999999999),
        # then the 1.0 s timers, each round in start order.
        assert fired == [("fast", i) for _ in range(10) for i in range(30)] + [
            ("slow", i) for i in range(50)
        ]

    def test_set_interval_mid_flight_moves_class(self):
        """``set_interval`` is gone; a new period is a new timer, started
        from the old one's last firing."""
        sim = Simulator(seed=0)
        fired = []

        def tick():
            fired.append(sim.now)
            if sim.now == 3.0:
                timer.stop()
                sim.call_every(0.5, lambda: fired.append(sim.now))

        timer = sim.call_every(1.0, tick)
        assert not hasattr(timer, "set_interval")
        sim.run_until(2.5)
        assert fired == [1.0, 2.0]
        sim.run_until(4.1)
        assert fired == [1.0, 2.0, 3.0, 3.5, 4.0]

    def test_idle_interval_classes_are_reaped(self):
        # A sim churning through many distinct intervals (adaptive probe
        # timers) must not accumulate queue entries.
        sim = Simulator(seed=0)
        for i in range(100):
            timer = sim.call_every(1.0 + i * 0.01, lambda: None)
            timer.stop()
        # Only cancelled events remain queued, skipped as they surface.
        sim.run_until(2.0)
        assert len(sim._queue) == 0

    def test_adaptive_interval_churn_bounds_class_count(self):
        sim = Simulator(seed=0)
        fired = []
        interval = 1.0
        timer = sim.call_every(interval, lambda: fired.append(sim.now))
        # Adapt the interval after every firing by replacing the timer: the
        # queue holds the live timer's event and at most the stopped one's.
        for i in range(50):
            sim.run_until(sim.now + interval + 0.001)
            timer.stop()
            interval *= 1.01
            timer = sim.call_every(interval, lambda: fired.append(sim.now))
            assert len(sim._queue) <= 2
        assert len(fired) >= 50

    def test_reaped_class_is_recreated_on_reuse(self):
        sim = Simulator(seed=0)
        fired = []
        first = sim.call_every(1.0, lambda: fired.append("first"))
        first.stop()
        sim.call_every(1.0, lambda: fired.append("second"))
        sim.run_until(1.0)
        assert fired == ["second"]

    def test_stop_from_own_callback(self):
        sim = Simulator(seed=0)
        fired = []
        timer = sim.call_every(0.5, lambda: (fired.append(sim.now), timer.stop()))
        sim.run_until(5.0)
        assert fired == [0.5]

    def test_stop_head_retargets_sentinel_to_next_member(self):
        sim = Simulator(seed=0)
        fired = []
        first = sim.call_every(1.0, lambda: fired.append("first"))
        second = sim.call_every(1.0, lambda: fired.append("second"))
        first.stop()  # first holds the earlier (time, seq); sentinel re-aims
        sim.run_until(1.0)
        assert fired == ["second"]

    def test_stopped_timer_cannot_restart(self):
        sim = Simulator(seed=0)
        timer = sim.call_every(1.0, lambda: None)
        timer.stop()
        with pytest.raises(SimulationError):
            timer.start()

    def test_wheel_matches_self_timer_oracle_per_timer_state(self):
        """One jittered timer fires at the oracle's unrounded instants."""
        traces = {}
        for timers in ("self", "kernel"):
            with kernel(timers=timers):
                sim = Simulator(seed=5)
                fired = []
                sim.call_every(
                    0.25,
                    lambda: fired.append(sim.now),
                    jitter=0.05,
                    rng=sim.derive_rng("t"),
                )
                sim.run_until(2.0)
            traces[timers] = fired
        assert traces["self"] == traces["kernel"] != []


class TestCalendarQueueEdges:
    """Edge cases first written against the calendar queue, held by the
    binary heap that replaced it."""

    def test_run_until_exact_at_bucket_edge(self):
        """Stamps at multiples of the calendar queue's old bucket width (a
        twentieth of the probe interval, inexact in binary) fire when the
        clock reaches exactly that stamp, and not before."""
        sim = Simulator(seed=0)
        width = SwimConfig().probe_interval / 20
        fired = []
        for k in (1, 2, 3):
            sim.schedule_at(k * width, lambda k=k: fired.append(k))
        sim.run_until(2 * width)
        assert fired == [1, 2]
        assert sim.now == 2 * width
        sim.run_until(3 * width)
        assert fired == [1, 2, 3]

    @pytest.mark.parametrize("knob", [
        dict(scheduler="heap"), dict(coalesce_timers=False),
        dict(bucket_width=0.1), dict(wheel_span=8), dict(workers=2),
        dict(profile="v1"),
    ])
    def test_removed_knobs_are_type_errors(self, knob):
        with pytest.raises(TypeError):
            Simulator(**knob)
