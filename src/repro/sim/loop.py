"""The simulator event loop.

A :class:`Simulator` owns simulated time, the event queue and the root random
number generator. Everything in a run — gossip timers, network deliveries,
workload arrivals — is an event on this single loop, which makes runs
reproducible from a single seed.

Scheduling: events live in the binary heap of :mod:`repro.sim.events`. A
:class:`RepeatingTimer` owns one event and re-queues it at each firing, so the
queue holds one entry per live timer. Its oracle, a timer that schedules a new
event every firing, lives in ``tests/oracles/self_timer.py``.

Deadlines (:meth:`Simulator.deadline`) sit beside the timers for the opposite
case: one-shot timeouts that are nearly always cancelled (a SWIM probe's ack
window). What is FIFO: all deadlines armed with one ``delay`` share a deque,
and because the clock and the sequence counter only move forward, arming order
*is* ``(time, seq)`` order, so arming is an append and the head is always the
next to expire. One recycled sentinel event per delay sits in the queue at the
head's exact key. Cancelling is a flag write that touches neither structure.
When the sentinel fires it takes the head off, drops the cancelled entries
behind it, re-aims at the first live one, and runs the head's callback if it
was still live — at the ``(time, seq)`` a ``post`` at the arming moment would
have had. Why a sweep is not an event: a firing that finds its head cancelled
runs nobody's code, and how many such firings happen depends on how deadlines
are stored, not on what the simulation did. ``events_processed`` feeds every
digest, so the sentinel takes its count back and the count stays the
oracle's, where a cancelled deadline is never an event. Oracle:
``tests/oracles/deadlines.py`` (every deadline a ``schedule`` + ``cancel``).

Determinism: every random draw comes from a per-component ``random.Random``
stream that :meth:`Simulator.derive_rng` keys by a label and the seed, so a
run is a pure function of its seed and adding a component never perturbs the
draws an unrelated one sees. The seeded kernel checksum is pinned in
``BENCH_kernel.json``.

Long-lived state (membership tables, the node directory, interning pools)
can be pinned out of the cyclic collector's reach after warmup via
:meth:`Simulator.freeze_hot_state` — see that method's docstring.
"""

from __future__ import annotations

import gc
import math
import random
from collections import deque
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import Deadline, Event, EventQueue, TimerHandle

#: Collection thresholds :meth:`Simulator.freeze_hot_state` applies: a much
#: larger gen0 allocation budget (protocol traffic allocates heavily but
#: almost everything dies young) and gen1/gen2 promotion factors high enough
#: that full collections essentially never run inside a timed region.
FROZEN_GC_THRESHOLD = (50_000, 50, 50)


class Simulator:
    """Discrete-event simulator with deterministic ordering.

    Parameters
    ----------
    seed:
        Seed for the root RNG. Child components should derive their own
        streams via :meth:`derive_rng` so that adding a component does not
        perturb the randomness seen by unrelated components.
    strict_rng_labels:
        When ``True``, :meth:`derive_rng` raises on a duplicate label
        instead of silently handing out the *same* stream twice (two
        components drawing from one sequence — the classic determinism
        leak). Off by default because crash/restart scenarios legitimately
        re-derive a restarted process's timer labels; collisions are always
        recorded and queryable via :meth:`rng_label_collisions`.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        strict_rng_labels: bool = False,
    ) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.strict_rng_labels = strict_rng_labels
        #: label -> times derived; >1 entries are collisions.
        self._derived_labels: Dict[str, int] = {}
        #: key -> the one object this simulation's components share under it.
        self._shared: Dict[Any, Any] = {}
        #: The interpreter's thresholds while :meth:`freeze_hot_state` is in
        #: effect (``None`` otherwise), for :meth:`unfreeze_hot_state`.
        self._gc_prev_threshold: Optional[Tuple[int, int, int]] = None
        self._queue = EventQueue()
        self._alloc_seq = self._queue._seq.__next__
        #: delay -> the FIFO of deadlines armed with it; a FIFO is listed
        #: exactly while it holds entries, and its sentinel is queued then.
        self._deadline_fifos: Dict[float, _DeadlineFifo] = {}
        self._now = 0.0
        self._running = False
        self._events_processed = 0
        #: Upper time bound of the innermost active :meth:`run_until`, or
        #: +inf outside one. Batch executors (the network's delivery classes)
        #: consult it so a flush never runs past the caller's stop time.
        self._run_bound = math.inf

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far (for performance tuning)."""
        return self._events_processed

    # ------------------------------------------------------------- scheduling
    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> TimerHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        event = self._queue.push(self._now + delay, callback, args)
        return TimerHandle(event)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> TimerHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} (now={self._now:.6f})"
            )
        event = self._queue.push(time, callback, args)
        return TimerHandle(event)

    def post(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`TimerHandle`.

        For hot paths (network deliveries, protocol timeouts) that never
        cancel: it skips the handle allocation entirely. Ordering is
        identical to :meth:`schedule`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        self._queue.push(self._now + delay, callback, args)

    def deadline(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        since: Optional[float] = None,
    ) -> Deadline:
        """A cancellable one-shot for timeouts that are usually cancelled.

        Same firing instant, order and event count as :meth:`schedule` —
        ``callback(*args)`` runs ``delay`` seconds from now unless the
        returned :class:`~repro.sim.events.Deadline` is cancelled first — but
        the entry waits in a per-``delay`` FIFO instead of the event queue,
        so a cancelled one costs a flag write: no event, no queue entry. See
        the module docstring. ``since`` counts the delay from an earlier
        instant (a timeout that started before it could be armed); an
        instant already past fires now.
        """
        entry = Deadline()
        self.arm(entry, delay, callback, *args, since=since)
        return entry

    def arm(
        self,
        entry: Deadline,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        since: Optional[float] = None,
    ) -> None:
        """:meth:`deadline` on a caller-owned entry — a ``Deadline`` subclass
        carrying the waiter's own state, or one that has fired, re-armed for
        its next stage. An entry that may still be filed (armed and not yet
        fired, cancelled or not) cannot be armed again."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        if entry.seq >= 0:
            raise SimulationError("deadline is still armed; arm a fresh one")
        time = self._now + delay
        if since is not None:
            time = max(self._now, since + delay)
        entry.time = time
        # The tie-breaker a post() made here would get.
        entry.seq = self._alloc_seq()
        entry.callback = callback
        entry.args = args
        entry.cancelled = False
        fifo = self._deadline_fifos.get(delay)
        if fifo is not None and fifo[-1].time <= time:
            fifo.append(entry)
        else:
            self._file_deadline(fifo, delay, entry)

    def _file_deadline(
        self, fifo: Optional["_DeadlineFifo"], delay: float, entry: Deadline
    ) -> None:
        """Slow path of :meth:`arm`: the first entry of its delay, or one
        that expires before the tail (possible only with ``since``)."""
        if fifo is None:
            fifo = self._deadline_fifos[delay] = _DeadlineFifo(delay)
            fifo.append(entry)
        else:
            # Keep (time, seq) order; the newcomer has the largest seq, so it
            # goes behind every entry that does not expire strictly later.
            index = len(fifo)
            while index and fifo[index - 1].time > entry.time:
                index -= 1
            fifo.insert(index, entry)
            if index:
                return
            # New head: the queued sentinel is aimed at the old one. It stays
            # behind cancelled and a fresh one is queued at the new head.
            fifo.event.cancelled = True
        fifo.event = Event(entry.time, entry.seq, self._fire_deadlines, (fifo,))
        self._queue.push_entry(fifo.event)

    def _fire_deadlines(self, fifo: "_DeadlineFifo") -> None:
        """Sentinel callback: the head of ``fifo`` is due.

        The sentinel is re-aimed before the head's callback runs, so a
        callback that arms into the same FIFO finds it consistent.
        """
        entry = fifo.popleft()
        entry.seq = -1
        while fifo and fifo[0].cancelled:
            fifo.popleft().seq = -1
        if fifo:
            head = fifo[0]
            event = fifo.event  # just fired: free to recycle
            event.time = head.time
            event.seq = head.seq
            self._queue.push_entry(event)
        else:
            del self._deadline_fifos[fifo.delay]
            # The sentinel's args hold the FIFO: let go of it, or the two
            # become cyclic garbage.
            fifo.event = None
        if entry.cancelled:
            # Nothing ran: a sweep is not an event (see the module docstring).
            self._events_processed -= 1
        else:
            entry.callback(*entry.args)

    def call_every(
        self,
        interval: float,
        callback: Callable[[], Any],
        *,
        jitter: float = 0.0,
        rng: Optional[random.Random] = None,
        start_delay: Optional[float] = None,
    ) -> "RepeatingTimer":
        """Run ``callback()`` every ``interval`` seconds until cancelled.

        ``jitter`` adds a uniform offset in ``[0, jitter)`` to each firing,
        which desynchronises periodic protocols the way real deployments are
        desynchronised by clock drift.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        timer = RepeatingTimer(self, interval, callback, jitter, rng or self.rng)
        timer.start(start_delay)
        return timer

    # ---------------------------------------------------------------- running
    def step(self) -> bool:
        """Execute the next event. Returns ``False`` when the queue is empty.

        A deadline sentinel that only sweeps cancelled entries is not an
        event: it is passed over, and if nothing else is queued the clock
        stays where it was.
        """
        start = self._now
        processed = self._events_processed
        while self._events_processed == processed:
            event = self._queue.pop()
            if event is None:
                self._now = start
                return False
            if event.time < self._now:  # pragma: no cover - queue invariant
                raise SimulationError("event queue returned an event from the past")
            self._now = event.time
            self._events_processed += 1
            event.callback(*event.args)
        return True

    def run_until(self, time: float) -> None:
        """Run events until simulated time reaches ``time``.

        The clock is advanced to exactly ``time`` even if the queue drains
        early, so back-to-back ``run_until`` calls behave like a wall clock.

        **Boundary rule** (load-bearing for the network's delivery flush,
        which reads the bound to stop draining its in-flight heap; pinned
        in ``tests/test_run_until_boundary.py``):
        the bound is *inclusive*.
        An event stamped exactly ``time`` executes inside this call, in
        ``(time, seq)`` order with everything else at that instant. An event
        pushed *during* the call with a stamp equal to the bound (e.g. a
        zero-delay post from a callback running at ``t == time``) also
        executes in this call; only stamps strictly greater than ``time``
        carry over. After the call returns, ``now == time``, and an event
        then scheduled at exactly ``now`` (delay 0) runs in the *next* call,
        so a caller that schedules at ``t`` between two calls never re-enters
        the closed one.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot run backwards to t={time:.6f} (now={self._now:.6f})"
            )
        # Hot loop: one bounded pop per event instead of peek + pop, with the
        # bound check done against the queue head inside the queue.
        pop_before = self._queue.pop_before
        previous_bound = self._run_bound
        self._run_bound = time
        try:
            while True:
                event = pop_before(time)
                if event is None:
                    break
                self._now = event.time
                self._events_processed += 1
                event.callback(*event.args)
        finally:
            self._run_bound = previous_bound
        self._now = time

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` is hit).

        Returns the number of events executed. Note that systems with
        repeating timers never drain; prefer :meth:`run_until` for those.
        """
        executed = 0
        while max_events is None or executed < max_events:
            if not self.step():
                break
            executed += 1
        return executed

    # ------------------------------------------------------------------ rng
    def _note_label(self, label: str) -> None:
        """Record a stream derivation; a duplicate is a shared-stream hazard:
        deriving one label twice hands two components the same sequence,
        which silently couples their draws."""
        count = self._derived_labels.get(label, 0) + 1
        self._derived_labels[label] = count
        if count > 1 and self.strict_rng_labels:
            raise SimulationError(
                f"RNG label {label!r} derived {count} times on one simulator "
                f"— two components would share one stream. Disambiguate the "
                f"label (or drop strict_rng_labels if this is a deliberate "
                f"crash-restart re-derivation)."
            )

    def rng_label_collisions(self) -> Dict[str, int]:
        """``label -> derivation count`` for labels derived more than once.
        Empty in a well-labelled simulation; crash-restart scenarios
        legitimately re-derive restarted processes' timer labels."""
        return {k: n for k, n in self._derived_labels.items() if n > 1}

    def derive_rng(self, label: str) -> random.Random:
        """Create an independent RNG stream keyed by ``label`` and the seed."""
        self._note_label(label)
        return random.Random(f"{self.seed}/{label}")

    # ---------------------------------------------------------------- shared
    def shared(self, key: Any, factory: Callable[[], Any]) -> Any:
        """The one object this simulation's components share under ``key``,
        made by ``factory`` the first time it is asked for.

        State that several processes of one run want a single copy of — the
        per-group :class:`~repro.gossip.membership.NodeDirectory` every p2p
        agent of a group indexes its table by — lives here rather than in a
        module global, so it dies with the simulator and two simulations in
        one interpreter never see each other's.
        """
        try:
            return self._shared[key]
        except KeyError:
            made = self._shared[key] = factory()
            return made

    # ------------------------------------------------------------------- gc
    def freeze_hot_state(self) -> Dict[str, object]:
        """Pin all currently-live objects out of the cyclic collector.

        Intended to run once, after warmup (topology built, agents started,
        membership pre-seeded): a full collection sweeps the construction
        garbage, ``gc.freeze`` moves every survivor — membership tables, the
        node directory, interning pools, the event queue — to the permanent
        generation, and the collection thresholds are raised to
        :data:`FROZEN_GC_THRESHOLD` so the young generations stop
        promoting protocol traffic into gen2 scans. This changes *no* event
        ordering or RNG draw — it is purely an allocator/GC lever.

        Both ``gc.freeze`` and ``gc.set_threshold`` are process-global;
        :meth:`unfreeze_hot_state` undoes both (benchmarks that build several
        simulators back to back must call it, or each frozen population
        leaks into the next run's heap). Returns a stats dict — frozen-object
        count, per-generation ``gc.get_stats()`` before/after — which the
        kernel benchmark records in ``BENCH_kernel.json`` so GC-pressure
        regressions stay visible in PRs.
        """
        stats_before = gc.get_stats()
        collected = gc.collect()
        gc.freeze()
        if self._gc_prev_threshold is None:
            self._gc_prev_threshold = gc.get_threshold()
            gc.set_threshold(*FROZEN_GC_THRESHOLD)
        return {
            "collected": collected,
            "frozen": gc.get_freeze_count(),
            "thresholds": list(gc.get_threshold()),
            "stats_before": stats_before,
            "stats_after": gc.get_stats(),
        }

    def unfreeze_hot_state(self) -> None:
        """Undo :meth:`freeze_hot_state`: thaw the permanent generation and
        restore the interpreter's previous collection thresholds."""
        if self._gc_prev_threshold is None:
            return
        gc.unfreeze()
        gc.set_threshold(*self._gc_prev_threshold)
        self._gc_prev_threshold = None


class _DeadlineFifo(deque):
    """The deadlines armed with one ``delay``, in ``(time, seq)`` order, with
    the sentinel :class:`Event` queued at the head's key."""

    __slots__ = ("delay", "event")

    def __init__(self, delay: float) -> None:
        super().__init__()
        self.delay = delay
        self.event: Optional[Event] = None


class RepeatingTimer:
    """A periodic timer created by :meth:`Simulator.call_every`.

    It owns one :class:`~repro.sim.events.Event`, queued at its next firing.
    Each firing re-queues that event at ``(time + interval) + jitter * r``
    with a fresh seq *before* the callback runs, so a callback that stops the
    timer, or schedules at the same instant, sees the next firing already
    queued. The oracle, a timer that schedules a new event every firing, is
    ``tests/oracles/self_timer.py``.
    """

    __slots__ = (
        "_sim",
        "_interval",
        "_callback",
        "_jitter",
        "_rng",
        "_stopped",
        "_event",
    )

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], Any],
        jitter: float,
        rng: random.Random,
    ) -> None:
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._jitter = jitter
        self._rng = rng
        self._stopped = False
        self._event: Optional[Event] = None

    def start(self, start_delay: Optional[float] = None) -> None:
        if self._stopped:
            raise SimulationError("cannot restart a stopped timer")
        delay = self._next_delay() if start_delay is None else start_delay
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        sim = self._sim
        self._event = Event(sim.now + delay, sim._alloc_seq(), self._fire_timer, ())
        sim._queue.push_entry(self._event)

    def stop(self) -> None:
        self._stopped = True
        # The callback goes too: an owner that holds its stopped timer (a
        # closure over the owner, say) would otherwise be a cycle.
        self._callback = None
        event = self._event
        if event is not None:
            # Queued until its time comes round, but holding nothing, as
            # ``TimerHandle.cancel`` leaves it: the bound method would keep
            # the timer, in a cycle, and what its callback holds alive.
            event.cancelled = True
            event.callback = None

    def _fire_timer(self) -> None:
        """The event's callback: re-queue the event, then run the timer's."""
        event = self._event
        jitter = self._jitter
        if jitter > 0.0:
            # Bitwise ``uniform(0.0, jitter)`` without its Python frame, added
            # to ``time + interval``: ``+=`` would round differently.
            event.time = event.time + self._interval + jitter * self._rng.random()
        else:
            event.time = event.time + self._interval
        sim = self._sim
        event.seq = sim._alloc_seq()
        sim._queue.push_entry(event)
        self._callback()

    def _next_delay(self) -> float:
        if self._jitter > 0:
            # Bitwise ``uniform(0.0, jitter)``: ``0.0 + jitter * random()``.
            return self._interval + self._jitter * self._rng.random()
        return self._interval
