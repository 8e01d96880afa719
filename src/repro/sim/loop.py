"""The simulator event loop.

A :class:`Simulator` owns simulated time, the event queue and the root random
number generator. Everything in a run — gossip timers, network deliveries,
workload arrivals — is an event on this single loop, which makes runs
reproducible from a single seed.

Scheduling: events live in the binary heap of :mod:`repro.sim.events`, and
every :class:`RepeatingTimer` fires through the :class:`TimerWheel`, which
coalesces same-interval timer storms (1600 nodes' probe ticks) into one
recycled sentinel entry per interval class. The wheel's oracle, a timer that
re-schedules itself every firing, lives in ``tests/oracles/self_timer.py``.

Deadlines (:meth:`Simulator.deadline`) sit beside the wheel for the opposite
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
from heapq import heappop, heappush, heapreplace
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
        self._wheel = TimerWheel(self)
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
            # behind cancelled, like a re-aimed timer-wheel sentinel.
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
        against the heap oracle in ``tests/test_run_until_boundary.py``):
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


class _IntervalClass:
    """All wheel-registered timers sharing one interval value.

    ``heap`` orders members by their next ``(fire_time, seq)``; ``event`` is
    the single recycled sentinel scheduled at the head member's exact key;
    ``target`` is that key while ``scheduled`` is true.
    """

    __slots__ = ("interval", "heap", "event", "target", "scheduled")

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.heap: list = []
        self.event: Optional[Event] = None
        self.target: Optional[Tuple[float, int]] = None
        self.scheduled = False


class TimerWheel:
    """Coalesces same-interval periodic timers into shared queue slots.

    N nodes' probe timers at the same interval keep N entries in one small
    per-class heap but only **one** entry — a recycled sentinel — in the
    event queue. Each firing pops exactly one due member, re-arms it (drawing
    its jitter from its own RNG, same as self-scheduling would), and re-aims
    the sentinel at the new head. The sentinel always adopts the head
    member's exact ``(time, seq)`` key, with seq numbers allocated from the
    queue's shared counter at the same moments per-timer scheduling would
    allocate them — so event order, RNG draws and ``events_processed`` are
    bit-identical to a timer that re-schedules itself every firing (the
    ``tests/oracles/self_timer.py`` oracle, asserted by
    ``tests/test_sim_scheduler.py``), while each firing costs two small heap
    operations and zero allocations instead of an ``Event`` + ``TimerHandle``
    pair per period.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._queue = sim._queue
        # Bound seq allocator: one C call per re-arm instead of a method hop.
        self._alloc = sim._alloc_seq
        self._classes: Dict[float, _IntervalClass] = {}

    def class_count(self) -> int:
        """Number of distinct interval classes seen (test/debug helper)."""
        return len(self._classes)

    def add(self, timer: "RepeatingTimer", fire_time: float) -> None:
        """Register ``timer``'s next firing at absolute ``fire_time``."""
        seq = self._alloc()
        interval = timer._interval
        cls = self._classes.get(interval)
        if cls is None:
            cls = _IntervalClass(interval)
            self._classes[interval] = cls
        key = (fire_time, seq)
        timer._pending = key
        timer._pending_class = cls
        heappush(cls.heap, (fire_time, seq, timer))
        if not cls.scheduled or key < cls.target:
            self._retarget(cls)

    def discard(self, timer: "RepeatingTimer") -> None:
        """Forget a stopped timer.

        Its heap entry is tombstoned lazily; the sentinel is re-aimed only if
        it was pointing at this very timer.
        """
        cls = timer._pending_class
        if cls is not None and cls.scheduled and cls.target == timer._pending:
            self._retarget(cls)

    def _reap(self, cls: _IntervalClass) -> None:
        """Drop an emptied interval class so churning intervals don't leak.

        Called wherever a class's member heap drains (all timers stopped or
        migrated away via ``set_interval``). A later ``add`` for the same
        interval simply recreates the class, so reaping is invisible to
        timers — it only bounds ``_classes`` by the number of *live* distinct
        intervals instead of every interval ever seen.
        """
        if not cls.heap:
            current = self._classes.get(cls.interval)
            if current is cls:
                del self._classes[cls.interval]

    def _fire_class(self, cls: _IntervalClass) -> None:
        """Sentinel callback: fire the one due member, re-arm, re-aim.

        This is the per-event hot path of a coalesced timer storm, so the
        common case (member stays in its class, sentinel reusable, head
        live) is fully inlined: two small-heap operations, one jitter draw,
        one seq allocation, one queue insert — zero allocations.
        """
        heap = cls.heap
        while True:
            time, seq, timer = heap[0]
            pending = timer._pending
            if not timer._stopped and pending[0] == time and pending[1] == seq:
                break
            heappop(heap)  # tombstoned (stopped or superseded) member
            if not heap:  # pragma: no cover - sentinel is re-aimed on head stop
                cls.scheduled = False
                cls.target = None
                self._reap(cls)
                return
        # Re-arm before the callback, exactly like a self-rescheduling timer:
        # the jitter draw and seq allocation happen at the same moments they
        # would under per-timer scheduling. The sentinel fired *at* the
        # member's key, so the member's own ``time`` is the current clock.
        interval = timer._interval
        jitter = timer._jitter
        if jitter > 0.0:
            # Bitwise ``uniform(0.0, jitter)`` without its Python frame.
            next_time = time + interval + jitter * timer._rng.random()
        else:
            next_time = time + interval
        next_seq = self._alloc()
        timer._pending = (next_time, next_seq)
        if interval == cls.interval:
            # next_time > time, so replacing the heap top keeps the invariant
            # with a single sift instead of a pop + push pair.
            heapreplace(heap, (next_time, next_seq, timer))
        else:
            # set_interval moved the timer to a different class mid-flight.
            heappop(heap)
            self._rearm_into_new_class(timer, next_time, next_seq)
        # Re-aim the sentinel at the class's live head.
        while heap:
            head_time, head_seq, head_timer = heap[0]
            pending = head_timer._pending
            if (
                head_timer._stopped
                or pending[0] != head_time
                or pending[1] != head_seq
            ):
                heappop(heap)  # tombstoned (stopped or superseded) member
                continue
            event = cls.event  # the just-fired sentinel: free to recycle
            event.time = head_time
            event.seq = head_seq
            cls.target = (head_time, head_seq)
            self._queue.push_entry(event)  # cls.scheduled stays True
            timer._callback()
            return
        cls.scheduled = False
        cls.target = None
        self._reap(cls)
        timer._callback()

    def _rearm_into_new_class(
        self, timer: "RepeatingTimer", next_time: float, next_seq: int
    ) -> None:
        """Slow path of :meth:`_fire_class`: the timer changed interval."""
        interval = timer._interval
        target_cls = self._classes.get(interval)
        if target_cls is None:
            target_cls = _IntervalClass(interval)
            self._classes[interval] = target_cls
        timer._pending_class = target_cls
        key = (next_time, next_seq)
        heappush(target_cls.heap, (next_time, next_seq, timer))
        if not target_cls.scheduled or key < target_cls.target:
            self._retarget(target_cls)

    def _retarget(self, cls: _IntervalClass) -> None:
        """Schedule the sentinel at the head member's exact ``(time, seq)``."""
        heap = cls.heap
        while heap:
            time, seq, timer = heap[0]
            if timer._stopped or timer._pending != (time, seq):
                heappop(heap)  # tombstoned (stopped or superseded) member
                continue
            break
        if not heap:
            if cls.scheduled:
                cls.event.cancelled = True
                cls.event = None
                cls.scheduled = False
            cls.target = None
            self._reap(cls)
            return
        key = (time, seq)
        if cls.scheduled:
            if cls.target == key:
                return
            # The queued sentinel entry is stale; cancel it and use a fresh
            # Event (the old object stays behind in the queue, cancelled).
            cls.event.cancelled = True
            cls.event = None
        event = cls.event
        if event is None:
            event = Event(time, seq, self._fire_class, (cls,))
            cls.event = event
        else:
            event.time = time
            event.seq = seq
        self._queue.push_entry(event)
        cls.scheduled = True
        cls.target = key


class RepeatingTimer:
    """A periodic timer created by :meth:`Simulator.call_every`; its firings
    are scheduled by the simulator's :class:`TimerWheel`."""

    __slots__ = (
        "_sim",
        "_interval",
        "_callback",
        "_jitter",
        "_rng",
        "_stopped",
        "_pending",
        "_pending_class",
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
        self._pending: Optional[Tuple[float, int]] = None
        self._pending_class: Optional[_IntervalClass] = None

    @property
    def stopped(self) -> bool:
        return self._stopped

    @property
    def interval(self) -> float:
        return self._interval

    def set_interval(self, interval: float) -> None:
        """Change the period; takes effect from the next (re)scheduling."""
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        self._interval = interval

    def start(self, start_delay: Optional[float] = None) -> None:
        if self._stopped:
            raise SimulationError("cannot restart a stopped timer")
        delay = self._next_delay() if start_delay is None else start_delay
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        self._sim._wheel.add(self, self._sim.now + delay)

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        if self._pending_class is not None:
            self._sim._wheel.discard(self)
            self._pending_class = None

    def _next_delay(self) -> float:
        if self._jitter > 0:
            # Bitwise ``uniform(0.0, jitter)``: ``0.0 + jitter * random()``.
            return self._interval + self._jitter * self._rng.random()
        return self._interval
