"""Deadlines: one-shot timeouts that wait outside the event queue.

``Simulator.deadline`` must be indistinguishable from ``schedule`` + a
``TimerHandle`` cancel — same firing instants, same order against every other
event, same ``events_processed`` — which is what the oracle in
``tests/oracles/deadlines.py`` does. The property test plays one generated
program on both; the cases below it pin the edges a swept FIFO can get wrong:
a sentinel firing that only sweeps, arming from inside a deadline callback,
the inclusive ``run_until`` bound, an expiry that arrives out of arming order,
and a stopped or paused ``Process``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.events import Deadline
from repro.sim.process import Process
from tests.oracles.deadlines import ScheduledDeadlineSimulator

#: Dyadic values only: sums are exact, so programs are full of genuine ties.
DELAYS = (0.0, 0.25, 0.5, 1.0)
ADVANCES = (0.0, 0.25, 0.5, 0.75, 2.0)

delay_st = st.sampled_from(DELAYS)
index_st = st.integers(min_value=0, max_value=63)
#: What a deadline's callback does besides logging itself.
then_st = st.one_of(
    st.none(),
    st.tuples(st.just("deadline"), delay_st),
    st.tuples(st.just("post"), delay_st),
    st.tuples(st.just("cancel"), index_st),
)
op_st = st.one_of(
    st.tuples(
        st.just("deadline"), delay_st,
        st.one_of(st.none(), st.sampled_from((0.25, 0.5, 1.0))),  # since = now - x
        then_st,
    ),
    st.tuples(st.just("cancel"), index_st),
    st.tuples(st.just("rearm"), index_st, delay_st),
    st.tuples(st.just("post"), delay_st),
    st.tuples(st.just("schedule"), delay_st),
    st.tuples(st.just("cancel_handle"), index_st),
    st.tuples(st.just("run_until"), st.sampled_from(ADVANCES)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), st.integers(min_value=0, max_value=3)),
)


def play(sim, program):
    """Interpret ``program`` on ``sim``; return everything observable."""
    log = []
    deadlines = []  # (entry, label)
    handles = []
    fired = set()  # labels of deadlines that have run (re-armable)
    labels = iter(range(10**6))

    def pick(items, index):
        return items[index % len(items)] if items else None

    def on_deadline(label, then):
        log.append((sim.now, "deadline", label))
        fired.add(label)
        if then is None:
            return
        if then[0] == "deadline":
            arm_new(then[1], None, None)
        elif then[0] == "post":
            sim.post(then[1], on_event, "post", next(labels))
        else:
            cancel(then[1])

    def on_event(kind, label):
        log.append((sim.now, kind, label))

    def arm_new(delay, back, then):
        label = next(labels)
        since = None if back is None else sim.now - back
        entry = sim.deadline(delay, on_deadline, label, then, since=since)
        deadlines.append((entry, label))

    def cancel(index):
        picked = pick(deadlines, index)
        if picked is not None:
            picked[0].cancel()

    for op in program:
        kind = op[0]
        if kind == "deadline":
            arm_new(op[1], op[2], op[3])
        elif kind == "cancel":
            cancel(op[1])
        elif kind == "rearm":
            picked = pick(deadlines, op[1])
            if picked is not None and picked[1] in fired:
                fired.discard(picked[1])
                sim.arm(picked[0], op[2], on_deadline, picked[1], None)
        elif kind == "post":
            sim.post(op[1], on_event, "post", next(labels))
        elif kind == "schedule":
            handles.append(sim.schedule(op[1], on_event, "schedule", next(labels)))
        elif kind == "cancel_handle":
            handle = pick(handles, op[1])
            if handle is not None:
                handle.cancel()
        elif kind == "run_until":
            sim.run_until(sim.now + op[1])
        elif kind == "step":
            log.append(("step", sim.step(), sim.now))
        else:
            log.append(("run", sim.run(max_events=op[1]), sim.now))
        log.append(("events", sim.events_processed))
    log.append(("drained", sim.run(), sim.now, sim.events_processed))
    return log


class TestMatchesScheduleAndCancel:
    @settings(max_examples=300, deadline=None)
    @given(program=st.lists(op_st, max_size=40))
    def test_generated_programs(self, program):
        assert play(Simulator(seed=0), program) == play(
            ScheduledDeadlineSimulator(seed=0), program
        )

    def test_cancelled_deadlines_between_live_events(self):
        # The shape SWIM produces: most deadlines cancelled, a few live, with
        # posted events tied at the very instants the deadlines expire.
        program = []
        for i in range(40):
            program.append(("deadline", 0.5, None, None))
            program.append(("post", 0.5))
            if i % 7:
                program.append(("cancel", i))
            program.append(("run_until", 0.25))
        kernel = play(Simulator(seed=0), program)
        assert kernel == play(ScheduledDeadlineSimulator(seed=0), program)
        assert sum(1 for entry in kernel if entry[1:2] == ("deadline",)) == 6


class TestSweepIsNotAnEvent:
    def test_step_passes_over_a_sweep_and_keeps_the_clock(self, sim):
        sim.deadline(1.0, lambda: None).cancel()
        assert sim.step() is False
        assert sim.events_processed == 0
        assert sim.now == 0.0

    def test_step_after_a_sweep_runs_the_next_real_event(self, sim):
        fired = []
        sim.deadline(1.0, fired.append, "never").cancel()
        sim.post(2.0, fired.append, "posted")
        assert sim.step() is True
        assert fired == ["posted"]
        assert (sim.now, sim.events_processed) == (2.0, 1)

    def test_run_max_events_counts_only_real_events(self, sim):
        fired = []
        for i in range(3):
            sim.deadline(0.5 + i, fired.append, "never").cancel()
            sim.post(1.0 + i, fired.append, i)
        assert sim.run(max_events=2) == 2
        assert fired == [0, 1]
        assert sim.events_processed == 2

    def test_run_until_does_not_count_sweeps(self, sim):
        entries = [sim.deadline(1.0, lambda: None) for _ in range(5)]
        sim.run_until(0.5)
        for entry in entries:
            entry.cancel()
        sim.run_until(5.0)
        assert sim.events_processed == 0

    def test_cancelling_touches_no_queue(self, sim):
        entries = [sim.deadline(1.0, lambda: None) for _ in range(100)]
        queued = len(sim._queue)
        assert queued == 1  # the sentinel, not one entry per deadline
        for entry in entries:
            entry.cancel()
        assert len(sim._queue) == queued
        assert sim._queue._tombstones == 0

    def test_cancelled_entry_releases_its_callback(self, sim):
        held = {"payload": "x" * 1000}
        entry = sim.deadline(1.0, held.get, "payload")
        entry.cancel()
        assert (entry.callback, entry.args) == (None, ())
        sim.run_until(2.0)
        assert sim.events_processed == 0

    def test_drained_fifo_is_forgotten(self, sim):
        for delay in (0.1, 0.2, 0.3):
            sim.deadline(delay, lambda: None)
        sim.deadline(0.4, lambda: None).cancel()
        sim.run_until(1.0)
        assert sim._deadline_fifos == {}
        assert len(sim._queue) == 0


class TestArming:
    def test_fires_at_the_instant_and_order_a_post_would(self, sim):
        fired = []
        sim.post(1.0, fired.append, "post-before")
        sim.deadline(1.0, fired.append, "deadline")
        sim.post(1.0, fired.append, "post-after")
        sim.run_until(1.0)
        assert fired == ["post-before", "deadline", "post-after"]

    def test_armed_from_inside_a_deadline_callback(self, sim):
        fired = []

        def first():
            fired.append(("first", sim.now))
            # Same delay: once into the FIFO that just emptied, once behind
            # an entry already waiting in it.
            sim.deadline(1.0, fired.append, ("second", sim.now + 1.0))
            sim.deadline(1.0, fired.append, ("third", sim.now + 1.0))

        sim.deadline(1.0, first)
        sim.run_until(3.0)
        assert fired == [("first", 1.0), ("second", 2.0), ("third", 2.0)]
        assert sim.events_processed == 3

    def test_bound_equal_to_the_head_stamp_is_inclusive(self, sim):
        fired = []
        sim.deadline(1.0, lambda: sim.deadline(0.0, fired.append, "chained"))
        sim.deadline(1.0 + 2**-40, fired.append, "past-bound")
        sim.run_until(1.0)
        assert fired == ["chained"]
        assert sim.now == 1.0
        # After the call returns, a deadline at exactly now is the next call's.
        sim.deadline(0.0, fired.append, "next-window")
        assert fired == ["chained"]
        sim.run_until(1.0)
        assert fired == ["chained", "next-window"]

    def test_since_counts_from_an_earlier_instant(self, sim):
        fired = []
        sim.run_until(1.0)
        entry = sim.deadline(0.9, fired.append, "late-start", since=0.5)
        assert entry.time == 0.5 + 0.9
        sim.deadline(0.9, fired.append, "already-past", since=0.0)
        sim.run_until(1.0)
        assert fired == ["already-past"]  # clamped to now, not dropped
        sim.run_until(2.0)
        assert fired == ["already-past", "late-start"]

    def test_expiry_out_of_arming_order_takes_the_head(self, sim):
        fired = []
        sim.run_until(1.0)
        sim.deadline(1.0, fired.append, "a")  # expires 2.0
        sim.deadline(1.0, fired.append, "b")  # expires 2.0
        sim.deadline(1.0, fired.append, "early", since=0.25)  # expires 1.25
        sim.post(0.25, fired.append, "post")  # also 1.25, armed later
        sim.run_until(1.5)
        sim.deadline(1.0, fired.append, "c")  # expires 2.5
        sim.deadline(1.0, fired.append, "tied", since=1.0)  # 2.0: behind a and b
        sim.run_until(3.0)
        assert fired == ["early", "post", "a", "b", "tied", "c"]
        assert sim.events_processed == 6

    def test_an_entry_still_filed_cannot_be_armed_again(self, sim):
        entry = sim.deadline(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.arm(entry, 1.0, lambda: None)
        entry.cancel()  # cancelled, but the FIFO still holds it
        with pytest.raises(SimulationError):
            sim.arm(entry, 1.0, lambda: None)
        sim.run_until(2.0)
        sim.arm(entry, 1.0, lambda: None)  # swept: free again

    def test_a_fired_entry_can_be_rearmed_for_its_next_stage(self, sim):
        fired = []
        entry = Deadline()

        def stage_one():
            fired.append(("one", sim.now))
            sim.arm(entry, 1.5, fired.append, "two", since=0.0)

        sim.arm(entry, 0.5, stage_one)
        sim.run_until(1.0)
        assert fired == [("one", 0.5)]
        assert entry.time == 1.5
        entry.cancel()
        sim.run_until(2.0)
        assert fired == [("one", 0.5)]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.deadline(-0.1, lambda: None)


class Waiter(Process):
    def __init__(self, sim, network, region):
        super().__init__(sim, network, "waiter", region)
        self.fired = []


@pytest.fixture
def waiter(sim, network, regions):
    process = Waiter(sim, network, regions[0])
    process.start()
    return process


class TestProcessDeadline:
    def test_fires_while_running(self, sim, waiter):
        waiter.deadline(1.0, waiter.fired.append, "x")
        sim.run_until(1.0)
        assert waiter.fired == ["x"]

    def test_dropped_once_stopped(self, sim, waiter):
        waiter.deadline(1.0, waiter.fired.append, "x")
        waiter.stop()
        sim.run_until(2.0)
        assert waiter.fired == []
        assert sim.events_processed == 1  # it fired, as a post would; nobody home

    def test_deferred_while_paused_and_replayed_in_order(self, sim, waiter):
        waiter.deadline(1.0, waiter.fired.append, "deadline-1")
        waiter.post(1.5, waiter.fired.append, "post")
        waiter.deadline(2.0, waiter.fired.append, "deadline-2")
        cancelled = waiter.deadline(2.0, waiter.fired.append, "cancelled")
        waiter.pause()
        sim.run_until(1.75)
        cancelled.cancel()
        sim.run_until(3.0)
        assert waiter.fired == []
        waiter.resume()
        assert waiter.fired == ["deadline-1", "post", "deadline-2"]

    def test_caller_owned_entry(self, sim, waiter):
        entry = Deadline()
        waiter.arm(entry, 1.0, waiter.fired.append, "x")
        entry.cancel()
        sim.run_until(2.0)
        assert waiter.fired == []
        assert sim.events_processed == 0
