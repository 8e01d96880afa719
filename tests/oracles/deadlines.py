"""Deadlines as ordinary scheduled events: the oracle for the deadline FIFOs.

What a cancellable one-shot is without ``Simulator.deadline``: one queue
event per deadline from ``schedule_at``, cancelled through its
``TimerHandle`` (a tombstone the queue skips without counting). The kernel's
FIFOs must fire the same ``(time, callback, args)`` sequence, in the same
order against everything else in the queue, with the same
``events_processed``. Tests build a ``ScheduledDeadlineSimulator`` where they
would build a ``Simulator``.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.events import Deadline
from repro.sim.loop import Simulator


class ScheduledDeadline(Deadline):
    __slots__ = ("handle",)

    def cancel(self):
        self.cancelled = True
        self.handle.cancel()


class ScheduledDeadlineSimulator(Simulator):
    def deadline(self, delay, callback, *args, since=None):
        entry = ScheduledDeadline()
        self.arm(entry, delay, callback, *args, since=since)
        return entry

    def arm(self, entry, delay, callback, *args, since=None):
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        time = self.now + delay
        if since is not None:
            time = max(self.now, since + delay)
        entry.time = time
        entry.cancelled = False
        entry.handle = self.schedule_at(time, callback, *args)
