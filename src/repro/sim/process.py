"""Process helpers: a network-attached endpoint base class and periodic tasks.

Almost every component in the reproduction (Serf agents, store replicas, the
FOCUS service, baseline servers, node agents) is a :class:`Process` — an
addressable endpoint with a message dispatch table and lifecycle hooks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import Deadline
from repro.sim.loop import RepeatingTimer, Simulator
from repro.sim.network import Message, Network


class Process:
    """A network endpoint with kind-based message dispatch.

    Subclasses register handlers with :meth:`on` (usually in ``__init__``)
    and start periodic work in :meth:`start`. ``stop`` cancels all timers and
    detaches from the network, which models a process crash: in-flight
    messages to it are dropped.
    """

    def __init__(self, sim: Simulator, network: Network, address: str, region: str) -> None:
        self.sim = sim
        self.network = network
        self.address = address
        self.region = region
        self.running = False
        #: A paused process models a GC stall / frozen VM: it receives
        #: nothing, sends nothing, and its expired one-shot timers fire in a
        #: burst on :meth:`resume` (periodic firings are simply skipped).
        self.paused = False
        #: Deliveries and sends swallowed while paused (failure-suite metric).
        self.paused_drops = 0
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        self._timers: List[RepeatingTimer] = []
        self._deferred: List[Tuple[Callable[..., None], tuple]] = []

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Attach to the network and begin periodic work.

        A process that keeps :meth:`handle_message` as it is hands the
        network its handler table, and the network dispatches from it
        directly (see :meth:`Network.register`); one that overrides
        :meth:`handle_message` sees every delivery there.
        """
        if self.running:
            raise SimulationError(f"{self.address} already started")
        plain = type(self).handle_message is Process.handle_message
        self.network.register(self, self._handlers if plain else None)
        self.running = True
        self.on_start()

    def stop(self) -> None:
        """Detach from the network and cancel all periodic work (a crash)."""
        if not self.running:
            return
        # Cleared before unregistering, as start registers before setting
        # it: no event runs in between, so a registered process is running.
        self.running = False
        self.paused = False
        self._deferred.clear()
        for timer in self._timers:
            timer.stop()
        self._timers.clear()
        self.network.unregister(self.address)
        self.on_stop()

    def release(self) -> None:
        """Stop for good: also drop the handler table, whose bound methods
        point back at this process, so that once its owner lets go of it
        reference counting frees it, not the cyclic collector. A crash is
        :meth:`stop`, which keeps the handlers for :meth:`restart`; a
        released process is never started again."""
        self.stop()
        self._handlers.clear()

    def restart(self) -> None:
        """Bring a stopped process back up (crash recovery).

        The base implementation just re-registers and restarts periodic
        work via :meth:`start`; subclasses override to reload durable state
        or re-introduce themselves to peers (the node agent re-registers
        with the FOCUS service, the service reloads the store).
        """
        if self.running:
            raise SimulationError(f"{self.address} is already running")
        self.start()

    def pause(self) -> None:
        """Freeze the process (GC-stall style) until :meth:`resume`.

        While paused the process stays registered on the network but drops
        every delivery and send, skips periodic timer firings, and defers
        expired one-shot (:meth:`after`/:meth:`post`/:meth:`deadline`)
        callbacks. Peers see an unresponsive node — SWIM suspects it — yet
        its state survives, so on resume it refutes suspicion instead of
        rejoining from scratch.
        """
        if not self.running:
            raise SimulationError(f"cannot pause stopped process {self.address}")
        self.paused = True

    def resume(self) -> None:
        """Unfreeze: replay deferred one-shot callbacks in expiry order.

        Replaying (rather than dropping) matches what a real stall does —
        every timer that expired during the freeze fires late, in order, the
        moment the process thaws.
        """
        if not self.paused:
            return
        self.paused = False
        deferred, self._deferred = self._deferred, []
        for callback, args in deferred:
            if self.running and not self.paused:
                callback(*args)

    def on_start(self) -> None:
        """Subclass hook; schedule periodic tasks here."""

    def on_stop(self) -> None:
        """Subclass hook; release resources here."""

    # -------------------------------------------------------------- messaging
    def on(self, kind: str, handler: Callable[[Message], None]) -> None:
        """Register ``handler`` for messages of ``kind``."""
        if kind in self._handlers:
            raise SimulationError(f"{self.address}: duplicate handler for {kind!r}")
        self._handlers[kind] = handler

    def handle_message(self, message: Message) -> None:
        """Dispatch ``message`` by kind. The network does the same from the
        table :meth:`start` handed it, without calling this; it is what an
        override extends and what a direct caller gets."""
        if not self.running:
            return
        if self.paused:
            self.paused_drops += 1
            return
        handler = self._handlers.get(message.kind)
        if handler is None:
            self.on_unhandled(message)
            return
        handler(message)

    def on_unhandled(self, message: Message) -> None:
        """Called for messages with no registered handler; default drops."""

    def send(self, dst: str, kind: str, payload: object, *, size: Optional[int] = None) -> None:
        if not self.running:
            return
        if self.paused:
            self.paused_drops += 1
            return
        self.network.send_fanout(self.address, (dst,), kind, payload, size=size)

    # ----------------------------------------------------------------- timers
    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        jitter: float = 0.0,
        start_delay: Optional[float] = None,
    ) -> RepeatingTimer:
        """Run ``callback`` periodically until the process stops.

        Firings are skipped (not deferred) while the process is paused: a
        thawed process picks its periodic work back up at the next interval
        rather than replaying a burst of stale ticks.
        """

        def fire() -> None:
            if not self.paused:
                callback()

        timer = self.sim.call_every(
            interval,
            fire,
            jitter=jitter,
            rng=self.sim.derive_rng(f"{self.address}/timer/{len(self._timers)}"),
            start_delay=start_delay,
        )
        self._timers.append(timer)
        return timer

    def after(self, delay: float, callback: Callable[..., None], *args: object):
        """One-shot timer; fires only while the process is running.

        Returns a :class:`~repro.sim.events.TimerHandle` for cancellation.
        Protocol hot paths that never cancel should prefer :meth:`post`.
        """

        def guarded(*call_args: object) -> None:
            if not self.running:
                return
            if self.paused:
                self._deferred.append((callback, call_args))
                return
            callback(*call_args)

        return self.sim.schedule(delay, guarded, *args)

    def post(self, delay: float, callback: Callable[..., None], *args: object) -> None:
        """Fire-and-forget :meth:`after`: no handle, no closure.

        The callback still only fires while the process is running (the
        running check rides along as event arguments instead of a captured
        closure), so it is safe for timeouts that may outlive a crash.
        Scheduling order — and therefore the whole run — is identical to
        :meth:`after`; only the per-call allocations disappear.
        """
        self.sim.post(delay, self._post_fire, callback, args)

    def deadline(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: object,
        since: Optional[float] = None,
    ) -> Deadline:
        """:meth:`post` for a timeout that is usually cancelled: the returned
        :class:`~repro.sim.events.Deadline` costs no event if it is. Fires
        under :meth:`post`'s rules (dropped once stopped, deferred while
        paused); see :meth:`Simulator.deadline`."""
        entry = Deadline()
        self.sim.arm(entry, delay, self._post_fire, callback, args, since=since)
        return entry

    def arm(
        self,
        entry: Deadline,
        delay: float,
        callback: Callable[..., None],
        *args: object,
        since: Optional[float] = None,
    ) -> None:
        """:meth:`deadline` on a caller-owned entry; see :meth:`Simulator.arm`.

        Each entry holds a bound :meth:`_post_fire` and a ``(callback,
        args)`` tuple until it fires or is cancelled. A timeout armed every
        round (a SWIM probe's) arms on the simulator directly with a bound
        method made once, and calls :meth:`_post_fire` only when it cannot
        run.
        """
        self.sim.arm(entry, delay, self._post_fire, callback, args, since=since)

    def _post_fire(self, callback: Callable[..., None], args: tuple) -> None:
        if not self.running:
            return
        if self.paused:
            self._deferred.append((callback, args))
            return
        callback(*args)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "paused" if self.paused else ("up" if self.running else "down")
        return f"<{type(self).__name__} {self.address} ({self.region}) {state}>"

