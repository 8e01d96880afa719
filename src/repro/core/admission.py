"""Overload defenses for the serving plane: throttling, queueing, breakers.

Once the FOCUS servers model CPU service time (:mod:`repro.core.cpumodel`),
they can saturate the way the paper's Fig. 3 shows RabbitMQ saturating —
and then the interesting question is what stands between offered load and
collapse. This module is that defense layer. Everything here is config-gated
through :class:`OverloadConfig` and **off by default**, so the pinned kernel
checksum and the shard-plane run digest stay byte-identical.

Patterns (each independently switchable):

* **Token-bucket throttling** (:class:`TokenBucket`) — reject excess
  requests at the door, one bucket per client so one greedy client cannot
  exhaust anyone else's budget (per-client fairness).
* **Queue-based load leveling** (:class:`AdmissionQueue`) — a bounded
  FIFO/LIFO admission queue in front of each CPU lane, shedding on
  capacity and on deadline (a request that has already waited past its
  deadline is dropped instead of wasting service time on a reply nobody
  is waiting for).
* **Bulkhead isolation** — wired in :mod:`repro.core.service`: the query
  and registration paths get separate :class:`~repro.core.cpumodel.ServerCpuModel`
  lanes carved out of the same physical cores, so a thundering-herd
  re-registration storm cannot starve reads (and vice versa).
* **Circuit breaker** (:class:`CircuitBreaker`) — per-shard
  closed → open → half-open state machine driven by failure rate and
  latency over a sliding outcome window. While open, the router falls
  back to stale router-cache reads stamped with the existing
  ``staleness_ms`` bound instead of queueing more work onto a drowning
  shard.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.errors import ConfigError

_QUEUE_DISCIPLINES = ("fifo", "lifo")


@dataclass
class OverloadConfig:
    """All overload-model and defense knobs, off by default.

    ``FocusConfig.server_queue_enabled`` is the master switch: no lane or
    defense takes effect unless it is on (enforced by
    :meth:`repro.core.config.FocusConfig.validate`), and with everything
    here at its default the serving plane behaves exactly as before.
    """

    # ----------------------------------------------------------- CPU model
    #: Charge queries/registrations/reports real CPU service time on a
    #: busy-until :class:`~repro.core.cpumodel.ServerCpuModel` per server
    #: (per shard). Off = the legacy fixed
    #: :data:`~repro.core.service.SERVER_PROCESSING_DELAY` serial queue.
    #: The Fig. 8a meter (:class:`~repro.core.service.ServerResourceModel`)
    #: reads ``cores`` and the three costs below either way.
    cpu_model_enabled: bool = False
    #: Cores per serving-plane server (each shard gets its own machine).
    cores: float = 4.0
    #: Core-seconds to parse/route/answer one query.
    per_query_cpu: float = 0.002
    #: Core-seconds to process one registration (table + group placement).
    per_registration_cpu: float = 0.005
    #: Core-seconds to ingest one representative report.
    per_report_cpu: float = 0.002

    # ----------------------------------------------------------- throttling
    throttle_enabled: bool = False
    #: Sustained admitted request rate per client (requests/second).
    throttle_rate: float = 200.0
    #: Burst capacity per client (requests).
    throttle_burst: float = 50.0

    # ------------------------------------------------------ admission queue
    queue_enabled: bool = False
    #: Pending requests beyond this are shed on arrival (None = unbounded).
    queue_capacity: Optional[int] = 256
    #: "fifo" or "lifo" (LIFO favours fresh requests under sustained
    #: overload: the newest arrival is the one whose client is still there).
    queue_discipline: str = "fifo"
    #: Requests that waited longer than this are shed at dequeue time
    #: instead of being served dead (None disables deadline shedding).
    queue_deadline: Optional[float] = 2.0

    # -------------------------------------------------------------- bulkhead
    bulkhead_enabled: bool = False
    #: Fraction of each server's cores reserved for the query path; the
    #: remainder serves registrations and reports.
    bulkhead_query_share: float = 0.75

    # -------------------------------------------------------- circuit breaker
    breaker_enabled: bool = False
    #: Trip when the failure fraction over the window reaches this...
    breaker_failure_threshold: float = 0.5
    #: ...but only once the window holds at least this many outcomes.
    breaker_min_volume: int = 8
    #: Successes slower than this count as failures (None = rate-only).
    breaker_latency_threshold: Optional[float] = None
    #: Sliding outcome window length.
    breaker_window: int = 32
    #: Seconds an open breaker waits before probing (half-open).
    breaker_cooldown: float = 5.0
    #: Probes admitted while half-open; all must succeed to close.
    breaker_half_open_probes: int = 2

    def any_defense_enabled(self) -> bool:
        return (
            self.throttle_enabled
            or self.queue_enabled
            or self.bulkhead_enabled
            or self.breaker_enabled
        )

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` on nonsense combinations."""
        if self.cores <= 0:
            raise ConfigError(f"overload.cores must be positive, got {self.cores}")
        for name in ("per_query_cpu", "per_registration_cpu", "per_report_cpu"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"overload.{name} must be >= 0, got {value}")
        if self.any_defense_enabled() and not self.cpu_model_enabled:
            raise ConfigError(
                "overload defenses (throttle/queue/bulkhead/breaker) require "
                "overload.cpu_model_enabled — without a CPU model there is no "
                "overload to defend against"
            )
        if self.throttle_enabled:
            if self.throttle_rate <= 0:
                raise ConfigError(
                    f"overload.throttle_rate must be positive, got {self.throttle_rate}"
                )
            if self.throttle_burst < 1:
                raise ConfigError(
                    f"overload.throttle_burst must be >= 1, got {self.throttle_burst}"
                )
        if self.queue_enabled:
            if self.queue_discipline not in _QUEUE_DISCIPLINES:
                raise ConfigError(
                    f"overload.queue_discipline must be one of {_QUEUE_DISCIPLINES}, "
                    f"got {self.queue_discipline!r}"
                )
            if self.queue_capacity is not None and self.queue_capacity < 1:
                raise ConfigError(
                    "overload.queue_capacity must be >= 1 or None, "
                    f"got {self.queue_capacity}"
                )
            if self.queue_deadline is not None and self.queue_deadline <= 0:
                raise ConfigError(
                    "overload.queue_deadline must be positive or None, "
                    f"got {self.queue_deadline}"
                )
        if self.bulkhead_enabled and not 0.0 < self.bulkhead_query_share < 1.0:
            raise ConfigError(
                "overload.bulkhead_query_share must be in (0, 1) so both "
                f"bulkheads keep capacity, got {self.bulkhead_query_share}"
            )
        if self.breaker_enabled:
            if not 0.0 < self.breaker_failure_threshold <= 1.0:
                raise ConfigError(
                    "overload.breaker_failure_threshold must be in (0, 1], "
                    f"got {self.breaker_failure_threshold}"
                )
            if self.breaker_min_volume < 1:
                raise ConfigError(
                    "overload.breaker_min_volume must be >= 1, "
                    f"got {self.breaker_min_volume}"
                )
            if self.breaker_window < self.breaker_min_volume:
                raise ConfigError(
                    "overload.breaker_window must be >= breaker_min_volume, "
                    f"got {self.breaker_window} < {self.breaker_min_volume}"
                )
            if self.breaker_cooldown <= 0:
                raise ConfigError(
                    "overload.breaker_cooldown must be positive, "
                    f"got {self.breaker_cooldown}"
                )
            if self.breaker_half_open_probes < 1:
                raise ConfigError(
                    "overload.breaker_half_open_probes must be >= 1, "
                    f"got {self.breaker_half_open_probes}"
                )


class TokenBucket:
    """Deterministic token-bucket rate limiter, one bucket per client.

    Tokens refill continuously at ``rate`` per second up to ``burst``; each
    admitted request spends one token. Every client address gets its own
    bucket, so fairness is structural: a flash crowd from one client
    exhausts only that client's budget. Calls that name no client share
    one bucket.
    """

    __slots__ = ("rate", "burst", "_buckets", "allowed", "throttled")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        # client -> (tokens, refilled_at)
        self._buckets: Dict[Optional[str], Tuple[float, float]] = {}
        self.allowed = 0
        self.throttled = 0

    def allow(self, now: float, client: Optional[str] = None) -> bool:
        tokens, refilled_at = self._buckets.get(client, (self.burst, now))
        tokens = min(self.burst, tokens + (now - refilled_at) * self.rate)
        if tokens >= 1.0:
            self._buckets[client] = (tokens - 1.0, now)
            self.allowed += 1
            return True
        self._buckets[client] = (tokens, now)
        self.throttled += 1
        return False


class AdmissionQueue:
    """Bounded FIFO/LIFO admission queue in front of one CPU lane.

    Queue-based load leveling: the lane serves one request at a time off
    its :class:`~repro.core.cpumodel.ServerCpuModel`; arrivals while busy
    wait in an explicit queue. Arrivals past ``capacity`` are shed
    immediately; entries that waited past ``deadline`` are shed at dequeue
    time (their caller has long since timed out — serving them is pure
    waste). ``discipline`` picks which waiting entry runs next: ``"fifo"``
    preserves order, ``"lifo"`` serves the freshest request first, which
    keeps *some* answers fast under sustained overload.

    ``run(delay)`` is invoked when the entry completes service, with the
    total sojourn time (wait + service) it experienced; ``shed(reason)``
    when it is dropped (``"queue-full"`` or ``"deadline"``).
    """

    def __init__(
        self,
        sim,
        model,
        *,
        capacity: Optional[int] = 256,
        discipline: str = "fifo",
        deadline: Optional[float] = 2.0,
    ) -> None:
        if discipline not in _QUEUE_DISCIPLINES:
            raise ConfigError(f"unknown queue discipline {discipline!r}")
        self._sim = sim
        self.model = model
        self.capacity = capacity
        self.discipline = discipline
        self.deadline = deadline
        self._pending: Deque[Tuple[float, float, Callable, Callable]] = deque()
        self._busy = False
        self.admitted = 0
        self.shed_capacity = 0
        self.shed_deadline = 0

    def __len__(self) -> int:
        return len(self._pending)

    def submit(
        self,
        service_time: float,
        run: Callable[[float], None],
        shed: Callable[[str], None],
    ) -> bool:
        """Admit, queue, or shed one request; returns False iff shed."""
        now = self._sim.now
        if not self._busy:
            self._begin(now, now, service_time, run)
            return True
        if self.capacity is not None and len(self._pending) >= self.capacity:
            self.shed_capacity += 1
            shed("queue-full")
            return False
        self._pending.append((now, service_time, run, shed))
        return True

    def _begin(
        self, now: float, arrived_at: float, service_time: float, run: Callable
    ) -> None:
        self._busy = True
        self.admitted += 1
        delay = self.model.occupy(now, service_time)
        self._sim.schedule(delay, self._complete, arrived_at, run)

    def _complete(self, arrived_at: float, run: Callable) -> None:
        now = self._sim.now
        run(now - arrived_at)
        while self._pending:
            if self.discipline == "lifo":
                entry = self._pending.pop()
            else:
                entry = self._pending.popleft()
            arrived, service_time, next_run, shed = entry
            if self.deadline is not None and now - arrived > self.deadline:
                self.shed_deadline += 1
                shed("deadline")
                continue
            self._begin(now, arrived, service_time, next_run)
            return
        self._busy = False

    def reset(self) -> None:
        """Crash-restart semantics: the in-memory queue does not survive."""
        self._pending.clear()
        self._busy = False
        self.model.reset()


class CircuitBreaker:
    """Closed → open → half-open breaker over a sliding outcome window.

    A pure, simulator-free state machine (unit- and Hypothesis-testable):
    callers feed it wall-clock ``now`` explicitly. Trips open when, with at
    least ``min_volume`` outcomes in the window, the failure fraction
    reaches ``failure_threshold``; successes slower than
    ``latency_threshold`` count as failures (a shard that answers in 8 s is
    as good as down). After ``cooldown`` seconds the next :meth:`allow`
    moves it to half-open, which admits exactly ``half_open_probes``
    probes: all must succeed to re-close; any failure re-opens. The cooldown
    transition happens in :meth:`allow` unconditionally, so an open breaker
    can never wedge — time alone always gets it back to half-open.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        *,
        failure_threshold: float = 0.5,
        min_volume: int = 8,
        latency_threshold: Optional[float] = None,
        window: int = 32,
        cooldown: float = 5.0,
        half_open_probes: int = 2,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.min_volume = min_volume
        self.latency_threshold = latency_threshold
        self.cooldown = cooldown
        self.half_open_probes = half_open_probes
        self._window: Deque[bool] = deque(maxlen=window)
        self.state = self.CLOSED
        self._reopen_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self.opened_count = 0
        self.rejected = 0

    # ------------------------------------------------------------- admission
    def _tick(self, now: float) -> None:
        """Time-based transition: an elapsed cooldown opens the probe window."""
        if self.state == self.OPEN and now >= self._reopen_at:
            self.state = self.HALF_OPEN
            self._probes_in_flight = 0
            self._probe_successes = 0

    def peek(self, now: float) -> bool:
        """Whether :meth:`allow` would admit, without consuming a probe slot.

        Applies the cooldown transition (it is driven by time, not by
        traffic) but never claims a half-open probe — callers that gate a
        multi-shard plan check every breaker with ``peek`` first, then
        claim probes with :meth:`allow` only on the branches they take.
        """
        self._tick(now)
        if self.state == self.CLOSED:
            return True
        if self.state == self.HALF_OPEN:
            return self._probes_in_flight < self.half_open_probes
        return False

    def allow(self, now: float) -> bool:
        """May a request proceed to the protected resource right now?"""
        self._tick(now)
        if self.state == self.CLOSED:
            return True
        if self.state == self.HALF_OPEN:
            if self._probes_in_flight < self.half_open_probes:
                self._probes_in_flight += 1
                return True
            self.rejected += 1
            return False
        self.rejected += 1
        return False

    # --------------------------------------------------------------- outcomes
    def record_success(self, now: float, latency: float = 0.0) -> None:
        if (
            self.latency_threshold is not None
            and latency > self.latency_threshold
        ):
            self.record_failure(now)
            return
        if self.state == self.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.half_open_probes:
                self._close()
        elif self.state == self.CLOSED:
            self._window.append(True)

    def record_failure(self, now: float) -> None:
        if self.state == self.HALF_OPEN:
            self._trip(now)
        elif self.state == self.CLOSED:
            self._window.append(False)
            if len(self._window) >= self.min_volume:
                failures = self._window.count(False)
                if failures / len(self._window) >= self.failure_threshold:
                    self._trip(now)

    # ------------------------------------------------------------ transitions
    def _trip(self, now: float) -> None:
        self.state = self.OPEN
        self.opened_count += 1
        self._reopen_at = now + self.cooldown
        self._window.clear()
        self._probes_in_flight = 0
        self._probe_successes = 0

    def _close(self) -> None:
        self.state = self.CLOSED
        self._window.clear()
        self._probes_in_flight = 0
        self._probe_successes = 0
