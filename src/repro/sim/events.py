"""Event queue primitives for the simulation kernel.

Events are ordered by ``(time, seq)`` where ``seq`` is a monotonically
increasing tie-breaker, so same-time events fire in scheduling order and runs
are fully deterministic.

There is one scheduler, :class:`EventQueue`: a single binary heap of
``(time, seq, event)`` tuples. A cancelled event stays in the heap, holding
nothing, until it reaches the top, where every drain path skips it.

A :class:`Deadline` is the other kind of timeout: one that is expected to be
cancelled. It never enters the queue — :meth:`Simulator.deadline
<repro.sim.loop.Simulator.deadline>` files it in a per-delay FIFO behind one
sentinel event — so cancelling it leaves no entry behind and an answered
request costs no event at all.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple


class Event:
    """A scheduled callback.

    Instances are created by the :class:`~repro.sim.loop.Simulator`; user code
    normally only sees the :class:`TimerHandle` wrapper. ``time`` and ``seq``
    are mutable so one object can be queued again and again: a
    :class:`~repro.sim.loop.RepeatingTimer` re-queues its event every period,
    and the deadline FIFOs and the delivery batcher recycle their sentinels.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        # Heap entries are ``(time, seq, event)`` tuples, so this runs only
        # on a tie in ``(time, seq)``: a deadline or delivery sentinel
        # cancelled when it was re-aimed earlier, still queued, and a
        # sentinel later queued at that same key again. Either order pops the
        # same live events.
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        name = getattr(self.callback, "__name__", repr(self.callback))
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} seq={self.seq} cb={name}{state}>"


class Deadline:
    """A one-shot timeout that is expected to be cancelled before it fires.

    Armed by :meth:`Simulator.arm <repro.sim.loop.Simulator.arm>` (or created
    and armed by :meth:`~repro.sim.loop.Simulator.deadline`). If it is still
    live at ``time`` it runs ``callback(*args)`` as an ordinary event, at the
    exact ``(time, seq)`` a ``post`` made at the arming moment would have;
    cancelling it is one flag write and costs no event. The owner may
    subclass it, so that the thing waited for *is* its own timeout (a SWIM
    probe is), and may re-arm an entry once it has fired.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self) -> None:
        self.time = 0.0
        #: Ordering tie-breaker while armed, ``-1`` otherwise.
        self.seq = -1
        self.callback: Optional[Callable[..., Any]] = None
        self.args: tuple = ()
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the deadline from firing (a no-op once it has).

        The entry waits in its FIFO until its instant, but holds nothing:
        what the callback and its arguments referenced is released now.
        """
        self.cancelled = True
        self.callback = None
        self.args = ()


class TimerHandle:
    """Cancellation handle returned by ``Simulator.schedule``."""

    __slots__ = ("_event",)

    def __init__(self, event: Event) -> None:
        self._event = event

    @property
    def time(self) -> float:
        """Absolute simulated time at which the event fires."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.

        Cancelling an already-fired or already-cancelled event is a no-op.
        The cancelled entry left in the queue holds nothing: what the
        callback and its arguments referenced (an RPC call's state and
        payload, say) is released now, not when the cancelled time comes
        round.
        """
        event = self._event
        if not event.cancelled:
            event.cancelled = True
            event.callback = None
            event.args = ()


_Entry = Tuple[float, int, Event]


class EventQueue:
    """A single binary heap of scheduled events with lazy cancellation.

    Heap entries are ``(time, seq, event)`` tuples rather than the events
    themselves, so every sift comparison is a C-level tuple comparison. A
    cancelled event is skipped when it reaches the top of the heap.
    """

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        #: The ordering tie-breaker. The simulator (for periodic timers and
        #: deadlines) and the network's delivery batcher draw from it too, at
        #: the moments a ``push`` would, so their events interleave with
        #: plain ones.
        self._seq = itertools.count()
        #: Total inserts ever; lets batch executors detect that no event was
        #: scheduled between two points and reuse a cached :meth:`peek_key`.
        self.pushes = 0

    def __len__(self) -> int:
        """Entries in the heap, cancelled ones not yet skipped included."""
        return len(self._heap)

    def push(self, time: float, callback: Callable[..., Any], args: tuple) -> Event:
        seq = next(self._seq)
        event = Event(time, seq, callback, args)
        heappush(self._heap, (time, seq, event))
        self.pushes += 1
        return event

    def push_entry(self, event: Event) -> None:
        """Insert an event whose ``time``/``seq`` are already assigned.

        Periodic timers re-queue their one event this way, and the deadline
        FIFOs and the delivery batcher their recycled sentinels, at the exact
        ``(time, seq)`` of what each one stands for.
        """
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
        This is the queue half of :meth:`Simulator.run_until`'s boundary
        contract, and it lets ``run_until`` avoid a peek-then-pop pair.
        """
        heap = self._heap
        while heap:
            if heap[0][0] > bound:
                return None
            event = heappop(heap)[2]
            if not event.cancelled:
                return event
        return None

    def peek_key(self) -> Optional[Tuple[float, int]]:
        """``(time, seq)`` of the next live event without popping it.

        The network's delivery batcher compares this against its own pending
        deliveries to decide how many it may flush back-to-back without
        violating global ``(time, seq)`` order. Cancelled entries on top are
        dropped on the way.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        if heap:
            return (heap[0][0], heap[0][1])
        return None
