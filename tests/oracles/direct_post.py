"""One posted event per message: the oracle for the network's in-flight heap.

What ``Network`` did before every message waited in one heap behind one
sentinel event: each message is posted to the event queue as its own
delivery event, whose callback re-checks blocks and partitions, charges the
receiver's meter (``on_receive``) and the delivered counter, runs the taps
and hands the message to ``handle_message`` — where the shipped flush charges
meter totals in place and calls a plain ``Process``'s handler from the
table bound at registration. It also decides "fault-free" per message, from
the fault containers themselves rather than from the flags the fault setters
keep.
``Network`` must replay it exactly: same event order, RNG draws, counters,
meters and delivery trace. Tests build a ``DirectPostNetwork`` where they
would build a ``Network``.
"""

from __future__ import annotations

from repro.errors import NetworkError
from repro.sim.network import (
    MESSAGE_OVERHEAD_BYTES,
    Message,
    Network,
    SizedPayload,
    approx_size,
)


class DirectPostNetwork(Network):
    def send_fanout(self, src, dsts, kind, payload, *, size=None):
        binding = self._bindings.get(src)
        if binding is None:
            raise NetworkError(f"send from unregistered endpoint {src!r}")
        sender = binding[0]
        if isinstance(payload, SizedPayload):
            if size is None:
                size = payload.size
            payload = payload.payload
        if size is None:
            entry = self._wire_sizes.get(kind)
            if entry is None:
                size = approx_size(payload)
            elif callable(entry):
                size = entry(payload)
            else:
                size = entry
        wire_size = size + MESSAGE_OVERHEAD_BYTES
        now = self.sim.now
        count = len(dsts)
        self.meter(src).on_send_many(wire_size, count)
        self._messages_sent.inc(count)
        self._bytes_sent.inc(wire_size * count)
        src_region = sender.region
        latency_table = self.topology.latency_map()
        for dst in dsts:
            binding = self._bindings.get(dst)
            if binding is not None:
                dst_region = binding[0].region
            else:
                dst_region = self._last_region.get(dst)
            if not (
                self._blocked
                or self._blocked_directed
                or self._blocked_regions
                or self._degraded
                or self.loss_rate > 0
            ):
                if dst_region is None:
                    self._count_drop("unknown_destination")
                    continue
            else:
                drop_reason = self._drop_reason(src, dst, sender, dst_region)
                if drop_reason is not None:
                    self._count_drop(drop_reason)
                    continue
            base = latency_table[(src_region, dst_region)]
            if self._degraded:
                entry = self._degraded.get(frozenset((src, dst)))
                if entry is not None:
                    base *= entry[0]
            if self.jitter_fraction > 0.0:
                latency = base * (1.0 + self._uniform() * self.jitter_fraction)
            else:
                latency = base
            if latency < 0.0:
                latency = 0.0
            self.sim.post(
                latency, self._deliver,
                Message(kind, payload, src, dst, wire_size, now),
            )

    def _deliver(self, message):
        binding = self._bindings.get(message.dst)
        if binding is None:
            # Endpoint died while the message was in flight.
            self._count_drop("dead_endpoint")
            return
        receiver = binding[0]
        if self._blocked or self._blocked_directed or self._blocked_regions:
            reason = self._in_flight_drop_reason(message, receiver)
            if reason is not None:
                self._count_drop(reason)
                return
        self.meter(message.dst).on_receive(message.size)
        self._messages_delivered.inc()
        for tap in self._delivery_taps:
            tap(message)
        receiver.handle_message(message)
