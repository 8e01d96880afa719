"""Unit tests for the event queue primitives."""

import weakref

from repro.sim.events import Event, EventQueue, TimerHandle


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

    def test_cancel_is_idempotent(self):
        queue = make_queue()
        handle = TimerHandle(queue.push(1.0, lambda: None, ()))
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_cancelled_handle_releases_what_its_event_referenced(self):
        """A tombstone waits in the queue until its time comes round; what
        its callback and arguments held must not wait with it."""

        class Payload:
            pass

        payload = Payload()
        alive = weakref.ref(payload)
        queue = make_queue()
        handle = TimerHandle(queue.push(60.0, lambda p: None, (payload,)), queue)
        del payload
        assert alive() is not None
        handle.cancel()
        assert alive() is None
        assert len(queue) == 1  # the tombstone itself is still queued
        assert queue.pop() is None

    def test_peek_time_skips_cancelled(self):
        queue = make_queue()
        first = queue.push(1.0, lambda: None, ())
        queue.push(2.0, lambda: None, ())
        first.cancelled = True
        assert queue.peek_time() == 2.0

    def test_peek_time_empty(self):
        assert make_queue().peek_time() is None


class TestQueueBasics:
    def test_len_counts_entries(self):
        queue = make_queue()
        queue.push(1.0, lambda: None, ())
        queue.push(2.0, lambda: None, ())
        assert len(queue) == 2

    def test_clear(self):
        queue = make_queue()
        queue.push(1.0, lambda: None, ())
        queue.clear()
        assert queue.pop() is None

    def test_timer_handle_exposes_time(self):
        queue = make_queue()
        handle = TimerHandle(queue.push(4.5, lambda: None, ()))
        assert handle.time == 4.5
