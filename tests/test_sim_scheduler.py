"""Scheduler equivalence and edge-case tests.

The calendar-queue/heap hybrid and the timer wheel — the kernel's only
scheduler and only periodic-timer path — must be *bit-identical* to their
oracles in ``tests/oracles/``: a single binary heap and a timer that
re-schedules itself every firing. Same event order, same RNG draws, same
``events_processed``, same metrics. These tests pin that equivalence on a
real seeded SWIM run and on randomized synthetic workloads, then cover the
edge cases a bucketed scheduler can get wrong: bucket-boundary exactness,
cancellation races, tombstone compaction, overflow migration, and the
timer-wheel interval-class bookkeeping.
"""

import functools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.loop
from repro.errors import SimulationError
from repro.gossip.swim import SwimAgent, SwimConfig
from repro.sim import Network, Simulator, Topology
from repro.sim.events import DEFAULT_BUCKET_WIDTH, EventQueue
from tests.arms import kernel
from tests.oracles.heap_queue import HeapEventQueue
from tests.oracles.self_timer import SelfReschedulingTimer

#: (queue, timers) arms; ``("calendar", "wheel")`` is the kernel as shipped,
#: the others swap in one or both oracles from the test side.
CONFIGS = [
    ("heap", "self"),
    ("heap", "wheel"),
    ("calendar", "self"),
    ("calendar", "wheel"),
]


def swim_summary(queue: str, timers: str, seed: int = 7) -> str:
    """Canonical JSON summary of a seeded SWIM run under one arm."""
    with kernel(queue, timers):
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
    """The acceptance gate: the kernel reproduces its oracles' bytes."""

    def test_swim_run_identical_across_all_configs(self):
        reference = swim_summary("heap", "self")
        for queue, timers in CONFIGS[1:]:
            assert swim_summary(queue, timers) == reference, (
                f"{queue}/{timers} diverged from the heap + self-timer oracle"
            )

    def test_oracles_are_actually_substituted(self):
        """Guard the seam itself: a renamed module global would otherwise
        turn every equivalence test into kernel-vs-kernel."""
        with kernel("heap", "self"):
            sim = Simulator(seed=0)
            timer = sim.call_every(1.0, lambda: None)
        assert isinstance(sim._queue, HeapEventQueue)
        assert isinstance(timer, SelfReschedulingTimer)
        sim = Simulator(seed=0)
        assert type(sim._queue) is EventQueue
        assert type(sim.call_every(1.0, lambda: None)) is (
            repro.sim.loop.RepeatingTimer
        )

    def test_synthetic_timer_storm_trace_identical(self):
        """Mixed-interval repeating timers: exact (time, seq, cb) traces."""

        def trace(queue, timers):
            with kernel(queue, timers):
                sim = Simulator(seed=3)
                log = []
                handles = []
                for i, interval in enumerate([0.1, 0.1, 0.25, 0.25, 1.0, 0.1]):
                    handles.append(
                        sim.call_every(
                            interval,
                            (lambda i=i: log.append((round(sim.now, 9), i))),
                            jitter=interval * 0.1,
                            rng=sim.derive_rng(f"t{i}"),
                        )
                    )
                sim.schedule(2.0, handles[1].stop)
                sim.schedule(3.0, lambda: handles[2].set_interval(0.5))
                sim.run_until(6.0)
                return log, sim.events_processed

        reference = trace("heap", "self")
        for queue, timers in CONFIGS[1:]:
            assert trace(queue, timers) == reference

    def test_wide_queue_matches_heap_oracle(self):
        """2048+ pending one-shots (the live width the old "auto" backend
        switched at), some tombstoned, all at distinct-or-tied stamps."""

        def drive(queue):
            with kernel(queue):
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
                sim.schedule(31.0, lambda i=i: fired.append(("tie", i)))
            sim.run_until(40.0)
            return fired, sim.events_processed

        assert drive("calendar") == drive("heap")

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_random_one_shot_workload_order_identical(self, seed):
        """Random schedule/cancel mixes pop in identical order everywhere."""
        rng = random.Random(seed)
        ops = []
        t = 0.0
        for i in range(120):
            t += rng.random() * 2.0
            # Delays straddle the wheel horizon (0.05 * 512 = 25.6 s) so
            # bucket inserts, front pushes and overflow all get exercised.
            ops.append((t, rng.random() * 40.0, rng.random() < 0.25))

        def run(queue):
            with kernel(queue):
                sim = Simulator(seed=0)
            fired = []
            for i, (at, delay, cancel) in enumerate(ops):
                def arm(i=i, delay=delay, cancel=cancel):
                    handle = sim.schedule(delay, lambda i=i: fired.append((round(sim.now, 9), i)))
                    if cancel:
                        handle.cancel()
                sim.schedule_at(at, arm)
            sim.run_until(120.0)
            return fired, sim.events_processed

        assert run("calendar") == run("heap")


class TestCalendarQueueEdges:
    def test_run_until_exact_at_bucket_edge(self):
        """Events exactly on a bucket boundary fire when the clock reaches it."""
        sim = Simulator(seed=0)
        width = sim._queue.bucket_width
        fired = []
        for k in (1, 2, 3):
            sim.schedule_at(k * width, lambda k=k: fired.append(k))
        sim.run_until(2 * width)
        assert fired == [1, 2]
        assert sim.now == 2 * width
        sim.run_until(3 * width)
        assert fired == [1, 2, 3]

    def test_zero_delay_self_rescheduling(self):
        """Zero-delay chains land in the already-draining front bucket."""
        sim = Simulator(seed=0)
        hits = []

        def chain(n):
            hits.append(n)
            if n < 5:
                sim.schedule(0.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run_until(0.0)
        assert hits == [0, 1, 2, 3, 4, 5]
        assert sim.now == 0.0

    def test_cancel_then_fire_race_across_bucket_boundary(self):
        """Cancelling from an earlier bucket suppresses a later-bucket event."""
        sim = Simulator(seed=0)
        width = sim._queue.bucket_width
        fired = []
        victim = sim.schedule(2.5 * width, lambda: fired.append("victim"))
        sim.schedule(0.5 * width, victim.cancel)
        sim.schedule(2.5 * width, lambda: fired.append("survivor"))
        sim.run_until(5 * width)
        assert fired == ["survivor"]
        assert victim.cancelled

    def test_overflow_migrates_into_wheel(self):
        """Far-future events beyond the horizon still fire, in order."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                repro.sim.loop, "EventQueue",
                functools.partial(EventQueue, wheel_span=8),
            )
            sim = Simulator(seed=0)
        width = sim._queue.bucket_width
        horizon = 8 * width
        fired = []
        # Far beyond the horizon, scheduled out of order.
        for k in (40, 10, 25):
            sim.schedule(horizon * k, lambda k=k: fired.append(k))
        sim.schedule(0.5 * width, lambda: fired.append("near"))
        sim.run_until(horizon * 50)
        assert fired == ["near", 10, 25, 40]

    def test_overflow_only_queue_jumps_window(self):
        """An empty wheel with a distant head jumps instead of spinning."""
        sim = Simulator(seed=0)
        fired = []
        sim.schedule(10_000.0, lambda: fired.append("far"))
        sim.run_until(10_000.0)
        assert fired == ["far"]
        assert sim.events_processed == 1

    def test_compaction_purges_tombstones_preserving_order(self):
        queue = EventQueue()
        handles = []
        for i in range(2000):
            handles.append(queue.push(i * 0.01, lambda: None, (i,)))
        # Cancel 90% of them through the tombstone path; compaction fires
        # whenever >=512 tombstones outnumber the remaining entries, so the
        # queue must end far below its 2000-entry peak (only the tail of
        # cancellations after the last sweep may still linger).
        for i, event in enumerate(handles):
            if i % 10:
                event.cancelled = True
                queue.note_cancelled()
        assert len(queue) < 1000
        fired = []
        while True:
            event = queue.pop()
            if event is None:
                break
            fired.append(event.args[0])
        assert fired == [i for i in range(2000) if i % 10 == 0]

    def test_drained_tombstones_do_not_count_towards_compaction(self, monkeypatch):
        """The count is of tombstones *present*: cancelled entries that pop,
        pop_before and peek_key have already discarded must not make a later
        cancellation re-route the whole queue."""
        queue = EventQueue()
        compactions = []
        compact = queue.compact
        monkeypatch.setattr(
            queue, "compact", lambda: (compactions.append(len(queue)), compact())
        )

        def cancel(event):
            event.cancelled = True
            queue.note_cancelled()

        def push_cancelled():
            for i in range(200):
                cancel(queue.push(i * 0.01, lambda: None, ()))

        live = [queue.push(100.0 + i, lambda: None, ()) for i in range(600)]
        # Each drain path discards its 200 tombstones on the way to the head.
        push_cancelled()
        assert queue.pop() is live[0]
        push_cancelled()
        assert queue.pop_before(50.0) is None
        push_cancelled()
        assert queue.peek_key() == (101.0, live[1].seq)
        assert len(queue) == 599
        assert queue._tombstones == 0
        cancel(live[1])  # the 601st cancellation, but the only tombstone queued
        assert compactions == []

    def test_len_tracks_live_and_cancelled_entries(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None, ()) for i in range(10)]
        assert len(queue) == 10
        for event in events[:3]:
            event.cancelled = True
            queue.note_cancelled()
        # Below the compaction threshold nothing is swept yet.
        assert len(queue) == 10
        for _ in range(7):
            queue.pop()
        assert len(queue) == 0

    @pytest.mark.parametrize("knob", [
        dict(scheduler="heap"), dict(coalesce_timers=False),
        dict(bucket_width=0.1), dict(wheel_span=8), dict(workers=2),
        dict(profile="v1"),
    ])
    def test_removed_knobs_are_type_errors(self, knob):
        with pytest.raises(TypeError):
            Simulator(**knob)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            EventQueue(bucket_width=0.0)
        with pytest.raises(ValueError):
            EventQueue(wheel_span=0)

    def test_default_width_matches_probe_interval_fraction(self):
        assert DEFAULT_BUCKET_WIDTH == pytest.approx(
            SwimConfig().probe_interval / 20
        )


class TestTimerWheel:
    def test_same_interval_timers_share_one_class(self):
        sim = Simulator(seed=0)
        for _ in range(50):
            sim.call_every(1.0, lambda: None)
        for _ in range(30):
            sim.call_every(0.1, lambda: None)
        assert sim._wheel.class_count() == 2
        # 80 timers, but only one queued sentinel per interval class.
        assert len(sim._queue) == 2

    def test_set_interval_mid_flight_moves_class(self):
        sim = Simulator(seed=0)
        fired = []
        timer = sim.call_every(1.0, lambda: fired.append(sim.now))
        sim.run_until(2.5)
        assert fired == [1.0, 2.0]
        timer.set_interval(0.5)
        sim.run_until(4.1)
        # Next firing still honours the old arming (3.0), then 0.5 cadence.
        assert fired == [1.0, 2.0, 3.0, 3.5, 4.0]
        # The abandoned 1.0s class is reaped once its last member migrates.
        assert sim._wheel.class_count() == 1

    def test_idle_interval_classes_are_reaped(self):
        # ROADMAP-noted leak: a sim churning through many distinct intervals
        # (adaptive probe timers) must not accumulate empty classes.
        sim = Simulator(seed=0)
        for i in range(100):
            timer = sim.call_every(1.0 + i * 0.01, lambda: None)
            timer.stop()
        assert sim._wheel.class_count() == 0
        # Only cancelled tombstones remain queued (reclaimed by compaction).
        sim.run_until(2.0)
        assert len(sim._queue) == 0

    def test_adaptive_interval_churn_bounds_class_count(self):
        sim = Simulator(seed=0)
        fired = []
        timer = sim.call_every(1.0, lambda: fired.append(sim.now))
        # Adapt the interval every firing; each migration must reap the
        # class left behind, keeping exactly one live class.
        for i in range(50):
            sim.run_until(sim.now + timer.interval + 0.001)
            timer.set_interval(timer.interval * 1.01)
            assert sim._wheel.class_count() <= 2
        assert len(fired) >= 50
        assert sim._wheel.class_count() == 1

    def test_reaped_class_is_recreated_on_reuse(self):
        sim = Simulator(seed=0)
        fired = []
        first = sim.call_every(1.0, lambda: fired.append("first"))
        first.stop()
        assert sim._wheel.class_count() == 0
        sim.call_every(1.0, lambda: fired.append("second"))
        assert sim._wheel.class_count() == 1
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
        traces = {}
        for timers in ("self", "wheel"):
            with kernel(timers=timers):
                sim = Simulator(seed=5)
                fired = []
                sim.call_every(0.25, lambda: fired.append(round(sim.now, 9)))
                sim.run_until(2.0)
            traces[timers] = fired
        assert traces["self"] == traces["wheel"] != []
