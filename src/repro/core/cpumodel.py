"""Reusable server CPU service-time model (busy-until tracking).

§III of the paper measures RabbitMQ's CPU climbing with producer count until
latency explodes near 6k producers; ``repro.mq.broker`` reproduces that
collapse with an explicit M/D/c service-time model approximated by its
equivalent fast single server. This module extracts that model so the FOCUS
serving plane — the shards and the legacy single server — can saturate the
same way instead of processing every request for free.

The model is a single logical server of capacity ``cores`` running at some
number of core-seconds per request, plus an optional standing
``per_connection_cpu`` core-seconds/second per open connection (heartbeats,
channel bookkeeping). A request arriving at time ``t`` starts service at
``max(t, busy_until)`` and occupies the server for ``service`` seconds;
below capacity the backlog stays near zero, past capacity it — and
therefore latency — grows without bound. That knee is the saturation
behaviour ``benchmarks/bench_overload.py`` measures and the admission layer
(:mod:`repro.core.admission`) defends.
"""

from __future__ import annotations

from typing import Optional

#: Never model fewer cores than this, no matter how much connection upkeep
#: eats capacity (matches the broker's historical floor).
MIN_EFFECTIVE_CORES = 0.1


class ServerCpuModel:
    """Busy-until CPU accounting for one logical server (or one bulkhead lane).

    The model is deliberately tiny and deterministic: a float pointer
    ``busy_until`` plus busy-time accumulators for utilization sampling.
    Callers either compute the service time themselves (the broker preserves
    its historical float-op order this way) and use :meth:`try_occupy` /
    :meth:`occupy`, or hand a core-seconds cost to :meth:`admit`.
    """

    __slots__ = (
        "cores",
        "per_request_cpu",
        "per_connection_cpu",
        "max_backlog_seconds",
        "busy_until",
        "busy_accum",
        "window_busy",
        "requests_served",
        "requests_shed",
    )

    def __init__(
        self,
        cores: float = 4.0,
        *,
        per_request_cpu: float = 0.002,
        per_connection_cpu: float = 0.0,
        max_backlog_seconds: Optional[float] = None,
    ) -> None:
        if cores <= 0:
            raise ValueError(f"cores must be positive, got {cores}")
        self.cores = cores
        self.per_request_cpu = per_request_cpu
        self.per_connection_cpu = per_connection_cpu
        #: Requests whose queue wait would exceed this are shed instead of
        #: occupying the server (the MQ broker's bound); ``None`` queues
        #: without bound (the pure saturation knee, as every FOCUS lane does).
        self.max_backlog_seconds = max_backlog_seconds
        self.busy_until = 0.0
        self.busy_accum = 0.0
        self.window_busy = 0.0
        self.requests_served = 0
        self.requests_shed = 0

    # ------------------------------------------------------------ service time
    def effective_cores(self, connections: int = 0) -> float:
        """Cores left for request work after connection upkeep."""
        upkeep = connections * self.per_connection_cpu
        return max(MIN_EFFECTIVE_CORES, self.cores - upkeep)

    def service_time(self, cost: Optional[float] = None, connections: int = 0) -> float:
        """Seconds of server occupancy for ``cost`` core-seconds of work."""
        if cost is None:
            cost = self.per_request_cpu
        return cost / self.effective_cores(connections)

    # --------------------------------------------------------------- occupancy
    def backlog_seconds(self, now: float) -> float:
        """Queueing delay a newly arrived request would see."""
        return max(0.0, self.busy_until - now)

    def occupy(self, now: float, service: float) -> float:
        """Occupy the server for ``service`` seconds; unbounded backlog.

        Returns the total delay (queue wait + service) until the request
        leaves the server. This is the serial-queue arithmetic the shard
        sweep's pinned digest was produced with — do not reorder the float
        operations.
        """
        start = max(now, self.busy_until)
        self.busy_until = start + service
        self.busy_accum += service
        self.window_busy += service
        self.requests_served += 1
        return self.busy_until - now

    def try_occupy(self, now: float, service: float) -> Optional[float]:
        """Like :meth:`occupy`, but shed when the backlog bound is exceeded.

        Returns the total delay, or ``None`` if the request was shed (the
        server is left untouched — a shed request costs nothing).
        """
        start = max(now, self.busy_until)
        wait = start - now
        if self.max_backlog_seconds is not None and wait > self.max_backlog_seconds:
            self.requests_shed += 1
            return None
        self.busy_until = start + service
        self.busy_accum += service
        self.window_busy += service
        self.requests_served += 1
        return self.busy_until - now

    def admit(
        self, now: float, cost: Optional[float] = None, connections: int = 0
    ) -> Optional[float]:
        """Convert ``cost`` core-seconds to service time and occupy."""
        return self.try_occupy(now, self.service_time(cost, connections))

    # ------------------------------------------------------------- utilization
    def take_window_busy(self) -> float:
        """Busy-time accumulated since the last call (for 1 Hz sampling)."""
        busy = self.window_busy
        self.window_busy = 0.0
        return busy

    def utilization(self, window: float, connections: int = 0) -> float:
        """Fraction of the machine busy over ``window``, counting upkeep.

        Consumes the busy window (see :meth:`take_window_busy`); mirrors the
        broker's historical sampling arithmetic: connection upkeep claims its
        share of the machine first, request work is scaled by the remainder.
        """
        connection_fraction = min(
            1.0, connections * self.per_connection_cpu / self.cores
        )
        message_fraction = min(1.0, self.take_window_busy() / window) * (
            1.0 - connection_fraction
        )
        return min(1.0, connection_fraction + message_fraction)

    def reset(self) -> None:
        """Crash-restart semantics: a rebooted server has an empty queue."""
        self.busy_until = 0.0
        self.window_busy = 0.0
