"""The single-binary-heap scheduler: the oracle for the calendar queue.

Formerly ``repro.sim.events.HeapEventQueue``, verbatim. Tests substitute it
with ``monkeypatch.setattr(repro.sim.loop, "EventQueue", HeapEventQueue)``.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.events import Event

_Entry = Tuple[float, int, Event]


class HeapEventQueue:
    """A single binary heap of scheduled events with lazy cancellation.

    Heap entries are ``(time, seq, event)`` tuples rather than the events
    themselves: every sift comparison is then a C-level tuple comparison
    instead of a Python ``__lt__`` call that builds two tuples. This was the
    only scheduler before the calendar hybrid landed; it is retained as the
    obviously-correct reference for the equivalence tests.
    """

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._seq = itertools.count()
        #: Total inserts ever; lets batch executors detect that no event was
        #: scheduled between two points and reuse a cached :meth:`peek_key`.
        self.pushes = 0

    def __len__(self) -> int:
        return len(self._heap)

    def alloc_seq(self) -> int:
        """Reserve the next ordering sequence number (for the timer wheel)."""
        return next(self._seq)

    def push(self, time: float, callback: Callable[..., Any], args: tuple) -> Event:
        seq = next(self._seq)
        event = Event(time, seq, callback, args)
        heappush(self._heap, (time, seq, event))
        self.pushes += 1
        return event

    def push_entry(self, event: Event) -> None:
        """Insert an event whose ``time``/``seq`` are already assigned."""
        heappush(self._heap, (event.time, event.seq, event))
        self.pushes += 1

    def pop(self) -> Optional[Event]:
        """Pop the next non-cancelled event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if not event.cancelled:
                return event
        return None

    def pop_before(self, bound: float) -> Optional[Event]:
        """Pop the next live event with ``time <= bound``, else ``None``.

        The bound is **inclusive**: an event stamped exactly ``bound`` pops.
        The calendar queue implements the same rule — it is the queue half
        of :meth:`Simulator.run_until`'s boundary contract.
        """
        heap = self._heap
        while heap:
            if heap[0][0] > bound:
                return None
            event = heappop(heap)[2]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next live event without popping it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        if heap:
            return heap[0][0]
        return None

    def peek_key(self) -> Optional[Tuple[float, int]]:
        """``(time, seq)`` of the next live event without popping it.

        The network's delivery batcher compares this against its own pending
        deliveries to decide how many it may flush back-to-back without
        violating global ``(time, seq)`` order.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        if heap:
            return (heap[0][0], heap[0][1])
        return None

    def note_cancelled(self) -> None:
        """Tombstone accounting hook; the plain heap only skips lazily."""

    def clear(self) -> None:
        self._heap.clear()
