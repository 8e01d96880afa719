"""Unit tests for the event queue primitives."""

import inspect
import weakref

from repro.sim.events import Event, EventQueue, TimerHandle
from repro.sim.loop import Simulator


def make_queue():
    return EventQueue()


class TestEventOrdering:
    def test_pops_in_time_order(self):
        queue = make_queue()
        fired = []
        queue.push(2.0, fired.append, ("b",))
        queue.push(1.0, fired.append, ("a",))
        queue.push(3.0, fired.append, ("c",))
        times = []
        while True:
            event = queue.pop()
            if event is None:
                break
            times.append(event.time)
        assert times == [1.0, 2.0, 3.0]

    def test_same_time_fires_in_schedule_order(self):
        queue = make_queue()
        first = queue.push(1.0, lambda: None, ())
        second = queue.push(1.0, lambda: None, ())
        assert queue.pop() is first
        assert queue.pop() is second

    def test_event_lt_uses_seq_tiebreak(self):
        a = Event(1.0, 0, lambda: None, ())
        b = Event(1.0, 1, lambda: None, ())
        assert a < b
        assert not (b < a)

    def test_requeued_sentinel_beside_its_cancelled_self(self):
        """A sentinel re-aimed away from a key leaves a cancelled entry
        there; queued at that key again, the two heap entries tie on
        ``(time, seq)`` and the live one still pops."""
        queue = make_queue()
        stale = Event(2.0, 7, lambda: None, ())
        queue.push_entry(stale)
        stale.cancelled = True
        live = Event(2.0, 7, lambda: None, ())
        queue.push_entry(live)
        assert queue.pop() is live
        assert queue.pop() is None

    def test_zero_delay_self_rescheduling(self):
        """A zero-delay chain runs inside the call that started it."""
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


class TestCancellation:
    def test_cancelled_event_not_popped(self):
        queue = make_queue()
        event = queue.push(1.0, lambda: None, ())
        event.cancelled = True
        assert queue.pop() is None

    def test_timer_handle_cancel(self):
        queue = make_queue()
        event = queue.push(1.0, lambda: None, ())
        handle = TimerHandle(event)
        assert not handle.cancelled
        handle.cancel()
        assert handle.cancelled
        assert queue.pop() is None

    def test_cancel_before_fire(self):
        """An event cancelled by an earlier one does not fire; one at the
        same stamp still does."""
        sim = Simulator(seed=0)
        fired = []
        victim = sim.schedule(0.125, lambda: fired.append("victim"))
        sim.schedule(0.025, victim.cancel)
        sim.schedule(0.125, lambda: fired.append("survivor"))
        sim.run_until(0.25)
        assert fired == ["survivor"]
        assert victim.cancelled

    def test_cancel_is_idempotent(self):
        queue = make_queue()
        handle = TimerHandle(queue.push(1.0, lambda: None, ()))
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_cancelled_handle_releases_what_its_event_referenced(self):
        """A cancelled entry waits in the queue until it reaches the top;
        what its callback and arguments held must not wait with it."""

        class Payload:
            pass

        payload = Payload()
        alive = weakref.ref(payload)
        queue = make_queue()
        handle = TimerHandle(queue.push(60.0, lambda p: None, (payload,)))
        del payload
        assert alive() is not None
        handle.cancel()
        assert alive() is None
        assert len(queue) == 1  # the cancelled entry itself is still queued
        assert queue.pop() is None

    def test_peek_key_skips_cancelled(self):
        queue = make_queue()
        first = queue.push(1.0, lambda: None, ())
        second = queue.push(2.0, lambda: None, ())
        first.cancelled = True
        assert queue.peek_key() == (2.0, second.seq)
        assert queue.pop() is second

    def test_peek_key_empty(self):
        assert make_queue().peek_key() is None


class TestQueueBasics:
    def test_takes_no_arguments(self):
        assert list(inspect.signature(EventQueue).parameters) == []

    def test_len_counts_entries(self):
        queue = make_queue()
        queue.push(1.0, lambda: None, ())
        queue.push(2.0, lambda: None, ())
        assert len(queue) == 2

    def test_len_counts_cancelled_entries_until_popped(self):
        queue = make_queue()
        events = [queue.push(float(i), lambda: None, ()) for i in range(10)]
        for event in events[:3]:
            event.cancelled = True
        assert len(queue) == 10
        for _ in range(7):
            queue.pop()
        assert len(queue) == 0

    def test_timer_handle_exposes_time(self):
        queue = make_queue()
        handle = TimerHandle(queue.push(4.5, lambda: None, ()))
        assert handle.time == 4.5
