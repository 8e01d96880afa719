"""The self-rescheduling periodic timer: the oracle for the timer wheel.

What ``RepeatingTimer`` did before the wheel: one queue event (and one
``TimerHandle``) per firing. Tests substitute it with
``monkeypatch.setattr(repro.sim.loop, "RepeatingTimer", SelfReschedulingTimer)``.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.loop import RepeatingTimer


class SelfReschedulingTimer(RepeatingTimer):
    _handle = None

    def start(self, start_delay=None):
        if self._stopped:
            raise SimulationError("cannot restart a stopped timer")
        delay = self._next_delay() if start_delay is None else start_delay
        self._handle = self._sim.schedule(delay, self._fire)

    def stop(self):
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()

    def _fire(self):
        if self._stopped:
            return
        self._handle = self._sim.schedule(self._next_delay(), self._fire)
        self._callback()
