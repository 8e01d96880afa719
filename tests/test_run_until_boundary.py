"""``run_until(t)`` boundary semantics, pinned on the queue and its oracle.

One rule, held by the calendar queue and by the binary-heap oracle it is
tested against (``tests/oracles/heap_queue.py``): the bound is
**inclusive**. An event stamped exactly ``t`` executes inside
``run_until(t)``; a zero-delay event posted by a callback running at
``t`` also executes; only stamps strictly greater than ``t`` carry over.
After the call returns, an event scheduled at exactly ``now`` belongs to
the *next* call, so a driver that schedules between two calls never
re-enters the closed one. The network's delivery flush reads the same
bound to stop draining its in-flight heap.
"""

import pytest

from repro.sim.loop import Simulator
from tests.arms import kernel

BACKENDS = ["heap", "calendar"]


def make_sim(queue: str) -> Simulator:
    with kernel(queue):
        return Simulator(seed=0)


@pytest.mark.parametrize("scheduler", BACKENDS)
def test_event_at_exact_bound_runs_inside_the_call(scheduler):
    sim = make_sim(scheduler)
    fired = []
    sim.schedule_at(1.0, fired.append, "at-bound")
    sim.schedule_at(1.0 + 1e-12, fired.append, "past-bound")
    sim.run_until(1.0)
    assert fired == ["at-bound"]
    assert sim.now == 1.0
    sim.run_until(2.0)
    assert fired == ["at-bound", "past-bound"]


@pytest.mark.parametrize("scheduler", BACKENDS)
def test_zero_delay_post_from_callback_at_bound_runs_inside(scheduler):
    sim = make_sim(scheduler)
    fired = []
    sim.schedule_at(1.0, lambda: sim.post(0.0, fired.append, "chained"))
    sim.run_until(1.0)
    assert fired == ["chained"]


@pytest.mark.parametrize("scheduler", BACKENDS)
def test_event_at_now_after_return_runs_in_next_call(scheduler):
    # After run_until(t) returns, scheduling at exactly t lands in the
    # next call.
    sim = make_sim(scheduler)
    sim.run_until(1.0)
    fired = []
    sim.schedule_at(1.0, fired.append, "injected")
    assert fired == []
    sim.run_until(1.0)
    assert fired == ["injected"]


@pytest.mark.parametrize("scheduler", BACKENDS)
def test_ties_at_bound_run_in_schedule_order(scheduler):
    sim = make_sim(scheduler)
    fired = []
    for i in range(5):
        sim.schedule_at(1.0, fired.append, i)
    sim.run_until(1.0)
    assert fired == [0, 1, 2, 3, 4]


def test_wide_queue_does_not_move_the_boundary():
    # Load the queue past 2048 pending entries (several buckets deep, with
    # a timer sitting exactly at the bound) and compare against the heap
    # oracle: the set of fired timers must be identical on both sides.
    def drive(scheduler):
        sim = make_sim(scheduler)
        fired = []
        for i in range(2048 + 16):
            sim.schedule_at(1.0 + (i % 7) * 0.25, fired.append, i)
        sim.schedule_at(2.0, fired.append, "at-bound")
        sim.run_until(2.0)  # inclusive: 1.0..2.0 fire, 2.25+ carry over
        before = list(fired)
        sim.run_until(3.0)
        return before, fired

    calendar_before, calendar_all = drive("calendar")
    heap_before, heap_all = drive("heap")
    assert calendar_before == heap_before
    assert calendar_all == heap_all
    assert "at-bound" in calendar_before
