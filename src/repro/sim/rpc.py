"""Request/response layer on top of the raw network.

FOCUS exposes REST APIs (Jetty in the paper); the store coordinator issues
quorum reads/writes; baselines pull node state on demand. All of these are
request/response exchanges with timeouts, implemented here once.

A process mixes in :class:`RpcMixin` (after :class:`~repro.sim.process.Process`
in the MRO) and then:

* serves calls by registering ``self.serve("focus.query", fn)`` where ``fn``
  takes the request payload and either returns a response payload or calls
  ``responder(payload)`` later for asynchronous completion;
* issues calls with ``self.call(dst, "focus.query", payload, on_reply=...,
  on_timeout=..., timeout=...)``.

Failure handling (opt-in per call / per server):

* ``retries=N`` retransmits a timed-out request up to ``N`` times with
  exponential backoff and full jitter (the AWS architecture-blog scheme:
  ``sleep = uniform(0, base * 2**attempt)``), reusing the same call id so
  the reply paths dedupe naturally;
* :meth:`RpcMixin.enable_rpc_idempotency` adds a bounded reply cache on the
  server side, so a retransmitted request is answered from the cache instead
  of executing its handler twice;
* every timeout and every reply that arrives after its call already timed
  out is counted (``rpc.timeouts`` / ``rpc.late_replies`` on the network's
  metrics registry) instead of vanishing silently.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Callable, Dict, Optional

from repro.sim.network import Message, approx_size

REQUEST_KIND = "rpc.request"
RESPONSE_KIND = "rpc.response"

#: Sentinel returned by an RPC server function that will respond later.
DEFERRED = object()

#: Reply-cache marker for a request whose (deferred) handler is still
#: executing; duplicates arriving meanwhile are dropped, not re-executed.
_IN_FLIGHT = object()

#: Precomputed envelope cost of the fixed-shape RPC wrapper dicts.
#:
#: Both ``{"id", "method", "params"}`` and ``{"id", "method", "result"}``
#: have three fixed keys (JSON sizes 4/8/8 — "params" and "result" tie at 8)
#: and two string values whose quote framing is 2 bytes each, so only the
#: string lengths and the variable third member need computing per message.
#: Registered with the network's wire-size table so the generic
#: ``approx_size`` walk never touches the envelope; asserted byte-identical
#: to the walk in ``tests/test_sim_network.py``.
_ENVELOPE_SIZE = (
    2 + 3 * 2  # braces + per-entry separators
    + approx_size("id") + approx_size("method") + approx_size("params")  # keys
    + 2 + 2  # quote framing of the two string values
)


def _request_size(payload: Dict[str, object]) -> int:
    return (
        _ENVELOPE_SIZE
        + len(payload["id"])
        + len(payload["method"])
        + approx_size(payload["params"])
    )


def _response_size(payload: Dict[str, object]) -> int:
    return (
        _ENVELOPE_SIZE
        + len(payload["id"])
        + len(payload["method"])
        + approx_size(payload["result"])
    )


class PendingCall:
    """Everything one outstanding outbound call needs until it completes.

    The caller's ``_rpc_pending`` is its only owner: the timers that act on
    the call are bound methods keyed by its id, not closures over it, so
    popping the entry frees the call and all it holds by reference counting.
    ``timer`` is the attempt's timeout :class:`~repro.sim.events.Deadline`,
    or during a retry backoff the resend's
    :class:`~repro.sim.events.TimerHandle`; either stage cancels the same way.
    """

    __slots__ = (
        "dst", "request", "on_reply", "on_timeout", "timeout", "retries",
        "retry_backoff", "timer", "attempt",
    )

    def __init__(
        self, dst, request, on_reply, on_timeout, timeout, retries,
        retry_backoff, timer,
    ) -> None:
        self.dst = dst
        #: The wire request, re-sent as is by every retransmission.
        self.request = request
        self.on_reply = on_reply
        self.on_timeout = on_timeout
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.timer = timer
        #: Retransmissions performed so far (0 = first send still pending).
        self.attempt = 0


class RpcMixin:
    """Adds call/serve semantics to a :class:`~repro.sim.process.Process`."""

    def init_rpc(self) -> None:
        """Must be called from the subclass ``__init__`` after ``Process.__init__``."""
        # Per-instance, not per-class: call ids appear in wire messages, so a
        # process-global counter would make byte counts depend on how many
        # simulations ran earlier in the same interpreter.
        self._rpc_counter = itertools.count()
        self._rpc_pending: Dict[str, PendingCall] = {}
        self._rpc_methods: Dict[str, Callable] = {}
        #: Backoff jitter draws live on their own stream: a call that never
        #: retries never draws, so fault-free runs keep their event order.
        self._rpc_retry_rng = self.sim.derive_rng(f"{self.address}/rpc-retry")
        self._rpc_reply_cache: Optional[OrderedDict] = None
        self._rpc_reply_cache_capacity = 0
        # Timeout/late-reply counters are created on first use so runs that
        # never time out keep their metrics registry (and its determinism
        # checksum) byte-identical to before this layer existed.
        self._rpc_timeouts_counter = None
        self._rpc_late_counter = None
        self.on(REQUEST_KIND, self._rpc_on_request)
        self.on(RESPONSE_KIND, self._rpc_on_response)
        # Idempotent: every RPC endpoint registers the same two entries.
        self.network.register_message_size(REQUEST_KIND, _request_size)
        self.network.register_message_size(RESPONSE_KIND, _response_size)

    def enable_rpc_idempotency(self, capacity: int = 1024) -> None:
        """Answer duplicate requests from a bounded reply cache.

        Retransmitted requests reuse their call id, so the cache key is the
        id itself. Evicted entries fall back to re-execution, which is safe
        for the timestamped (last-write-wins) operations this repo retries.
        """
        self._rpc_reply_cache = OrderedDict()
        self._rpc_reply_cache_capacity = capacity

    def reset_rpc(self) -> None:
        """Forget every outstanding outbound call (crash cleanup).

        Cancels the timeout timers so neither ``on_reply`` nor ``on_timeout``
        fires for calls issued before a crash; replies that still arrive are
        counted as late.
        """
        for pending in self._rpc_pending.values():
            pending.timer.cancel()
        self._rpc_pending.clear()

    def _rpc_count_timeout(self) -> None:
        counter = self._rpc_timeouts_counter
        if counter is None:
            counter = self.network.metrics.counter("rpc.timeouts")
            self._rpc_timeouts_counter = counter
        counter.inc()

    def _rpc_count_late_reply(self) -> None:
        counter = self._rpc_late_counter
        if counter is None:
            counter = self.network.metrics.counter("rpc.late_replies")
            self._rpc_late_counter = counter
        counter.inc()

    # ---------------------------------------------------------------- server
    def serve(self, method: str, fn: Callable) -> None:
        """Register ``fn(payload, respond, message)`` for ``method``.

        ``fn`` may return a payload (sent immediately), or return
        :data:`DEFERRED` and invoke ``respond(payload)`` at any later time.
        """
        self._rpc_methods[method] = fn

    def _rpc_on_request(self, message: Message) -> None:
        payload = message.payload
        method = payload["method"]
        call_id = payload["id"]
        reply_to = message.src
        cache = self._rpc_reply_cache
        if cache is not None:
            if call_id in cache:
                cached = cache[call_id]
                if cached is not _IN_FLIGHT:
                    # Duplicate of an answered request: replay the response
                    # without re-executing the handler.
                    self.send(
                        reply_to,
                        RESPONSE_KIND,
                        {"id": call_id, "method": method, "result": cached},
                    )
                return  # in-flight duplicate: the original will respond
            cache[call_id] = _IN_FLIGHT
            if len(cache) > self._rpc_reply_cache_capacity:
                cache.popitem(last=False)
        fn = self._rpc_methods.get(method)

        def respond(result: object) -> None:
            if cache is not None and call_id in cache:
                cache[call_id] = result
            self.send(
                reply_to,
                RESPONSE_KIND,
                {"id": call_id, "method": method, "result": result},
            )

        if fn is None:
            respond({"error": f"unknown method {method!r}"})
            return
        result = fn(payload["params"], respond, message)
        if result is not DEFERRED:
            respond(result)

    # ---------------------------------------------------------------- client
    def call(
        self,
        dst: str,
        method: str,
        params: object,
        *,
        on_reply: Callable[[object], None],
        timeout: float = 5.0,
        on_timeout: Optional[Callable[[], None]] = None,
        retries: int = 0,
        retry_backoff: float = 0.5,
    ) -> str:
        """Issue a call; exactly one of ``on_reply``/``on_timeout`` fires.

        Each attempt's timeout is a :meth:`Simulator.deadline
        <repro.sim.loop.Simulator.deadline>`: a reply cancels it with a flag
        write, and a cancelled one costs no event.

        With ``retries > 0`` a timed-out request is retransmitted up to that
        many times, waiting ``uniform(0, retry_backoff * 2**attempt)`` before
        each resend (exponential backoff, full jitter — uncoordinated
        retries, no synchronized storms). Every attempt reuses the same call
        id: a late reply to an earlier attempt completes the call, and
        servers with the idempotency cache enabled never double-execute.
        ``on_timeout`` fires only after the final attempt times out.
        """
        call_id = f"{self.address}#{next(self._rpc_counter)}"
        request = {"id": call_id, "method": method, "params": params}
        timer = self.sim.deadline(timeout, self._rpc_timed_out, call_id)
        self._rpc_pending[call_id] = PendingCall(
            dst, request, on_reply, on_timeout, timeout, retries, retry_backoff,
            timer,
        )
        self.send(dst, REQUEST_KIND, request)
        return call_id

    def _rpc_timed_out(self, call_id: str) -> None:
        """An attempt's deadline expired: back off and resend, or give up.

        Every path that drops a call cancels its timer first, so the call is
        still pending here.
        """
        pending = self._rpc_pending[call_id]
        self._rpc_count_timeout()
        if pending.attempt < pending.retries:
            pending.attempt += 1
            delay = self._rpc_retry_rng.uniform(
                0.0, pending.retry_backoff * (2 ** (pending.attempt - 1))
            )
            # Backoff stays a queued event: a random delay would give each
            # backoff its own deadline FIFO.
            pending.timer = self.sim.schedule(delay, self._rpc_resend, call_id)
            return
        del self._rpc_pending[call_id]
        if pending.on_timeout is not None:
            pending.on_timeout()

    def _rpc_resend(self, call_id: str) -> None:
        """A backoff ended: retransmit under a fresh deadline (a late reply
        during the backoff cancelled this timer with the call)."""
        pending = self._rpc_pending[call_id]
        if not self.running:
            # The caller crashed while backing off; abandon the call without
            # firing either callback (crash semantics).
            del self._rpc_pending[call_id]
            return
        pending.timer = self.sim.deadline(
            pending.timeout, self._rpc_timed_out, call_id
        )
        self.send(pending.dst, REQUEST_KIND, pending.request)

    def cancel_call(self, call_id: str) -> None:
        pending = self._rpc_pending.pop(call_id, None)
        if pending is not None:
            pending.timer.cancel()

    def _rpc_on_response(self, message: Message) -> None:
        payload = message.payload
        pending = self._rpc_pending.pop(payload["id"], None)
        if pending is None:
            # Reply after the call already timed out (or was reset by a
            # crash): drop it, but leave a trace for the failure suite.
            self._rpc_count_late_reply()
            return
        pending.timer.cancel()
        pending.on_reply(payload["result"])
