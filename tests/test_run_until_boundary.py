"""``run_until(t)`` boundary semantics, pinned on the event queue.

One rule: the bound is **inclusive**. An event stamped exactly ``t``
executes inside ``run_until(t)``; a zero-delay event posted by a callback
running at ``t`` also executes; only stamps strictly greater than ``t``
carry over.
After the call returns, an event scheduled at exactly ``now`` belongs to
the *next* call, so a driver that schedules between two calls never
re-enters the closed one. The network's delivery flush reads the same
bound to stop draining its in-flight heap.

Each rule runs twice, under the ids of the two queues the kernel once had.
``heap`` checks it on an otherwise empty queue. ``calendar`` first files a
backlog of far-future events over a wide span of time, every other one
cancelled (the load the calendar queue spread over its buckets and
overflow heap): the bound must not depend on what else is pending.
"""

import pytest

from repro.sim.loop import Simulator

BACKLOGS = {"heap": 0, "calendar": 4096}


def make_sim(backlog: str) -> Simulator:
    sim = Simulator(seed=0)
    for i in range(BACKLOGS[backlog]):
        handle = sim.schedule_at(10.0 + i * 0.37, lambda: None)
        if i % 2:
            handle.cancel()
    return sim


@pytest.mark.parametrize("backlog", BACKLOGS)
def test_event_at_exact_bound_runs_inside_the_call(backlog):
    sim = make_sim(backlog)
    fired = []
    sim.schedule_at(1.0, fired.append, "at-bound")
    sim.schedule_at(1.0 + 1e-12, fired.append, "past-bound")
    sim.run_until(1.0)
    assert fired == ["at-bound"]
    assert sim.now == 1.0
    sim.run_until(2.0)
    assert fired == ["at-bound", "past-bound"]


@pytest.mark.parametrize("backlog", BACKLOGS)
def test_zero_delay_post_from_callback_at_bound_runs_inside(backlog):
    sim = make_sim(backlog)
    fired = []
    sim.schedule_at(1.0, lambda: sim.post(0.0, fired.append, "chained"))
    sim.run_until(1.0)
    assert fired == ["chained"]


@pytest.mark.parametrize("backlog", BACKLOGS)
def test_event_at_now_after_return_runs_in_next_call(backlog):
    # After run_until(t) returns, scheduling at exactly t lands in the
    # next call.
    sim = make_sim(backlog)
    sim.run_until(1.0)
    fired = []
    sim.schedule_at(1.0, fired.append, "injected")
    assert fired == []
    sim.run_until(1.0)
    assert fired == ["injected"]


@pytest.mark.parametrize("backlog", BACKLOGS)
def test_ties_at_bound_run_in_schedule_order(backlog):
    sim = make_sim(backlog)
    fired = []
    for i in range(5):
        sim.schedule_at(1.0, fired.append, i)
    sim.run_until(1.0)
    assert fired == [0, 1, 2, 3, 4]


def test_wide_queue_does_not_move_the_boundary():
    # Load the queue past 2048 pending entries with a timer sitting exactly
    # at the bound: everything stamped 1.0..2.0 fires inside run_until(2.0),
    # in (time, seq) order, and the 2.25+ stamps carry over to the next call.
    sim = Simulator(seed=0)
    fired = []
    stamps = {}
    for i in range(2048 + 16):
        stamps[i] = 1.0 + (i % 7) * 0.25
        sim.schedule_at(stamps[i], fired.append, i)
    sim.schedule_at(2.0, fired.append, "at-bound")
    stamps["at-bound"] = 2.0
    sim.run_until(2.0)
    # sorted() is stable, so ties keep their scheduling (seq) order.
    in_order = sorted(stamps, key=stamps.__getitem__)
    assert fired == [label for label in in_order if stamps[label] <= 2.0]
    assert "at-bound" in fired
    sim.run_until(3.0)
    assert fired == in_order
