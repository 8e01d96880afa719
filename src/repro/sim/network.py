"""Simulated network: message delivery with latency, loss and accounting.

Endpoints register under a string address. :meth:`Network.send_fanout`
estimates the wire size of a payload once (JSON-oriented, matching the
paper's JSON REST API and Serf's UDP messages), accounts it against both
endpoints' bandwidth meters, and schedules each delivery after the
topology-derived one-way latency plus jitter. :meth:`Network.send` is a
fan-out of one.

Wire sizes: :func:`approx_size` walks a payload once per send, and three
things keep it from walking the same bytes twice. A message kind may register
a sizer (the RPC envelope does, see :meth:`Network.register_message_size`); a
sender may state the size (``size=``, as the SWIM gossip round and probes do,
or a :class:`SizedPayload` around the payload); and a :class:`SizedDict` — a
dict measured once when it is built and immutable from then on — is charged
the size it carries wherever it appears. Whatever a message travels through more than once is a
:class:`SizedDict`: a Serf wire, a query's JSON, a node's attribute snapshot
and every match record built around it. An answer relayed by a group member,
a shard, the front router and a cache is measured once, where it was built,
and costs one step per record at every hop after that.

One per-message path: every send resolves the sender, the size, the
sender's meter, the counters and the source region's latency row once, then
runs one loop per destination — destination region, drop decision,
degraded-link multiplier, jitter draw, ``(time, seq)`` allocation. Every
message then waits in one shared heap ordered by that key, and exactly
**one** recycled sentinel event sits in the main queue, aimed at the head
message's exact key (the same sentinel-recycling discipline as the
simulator's deadline FIFOs). When the sentinel fires, the flush delivers every
consecutive message whose key beats the main queue's head — advancing the
clock and event count itself — so a burst of gossip and acks lands in one
tight loop with one queue entry instead of dozens. Delivery keys are
allocated at *send* time from the queue's shared sequence counter and every
RNG draw (degradation, loss, jitter) stays in the send path, so event order,
RNG streams and all metrics are byte-identical to posting one event per
message; that per-message path is the oracle in
``tests/oracles/direct_post.py``.

Endpoints are bound once, at :meth:`Network.register`: one record per
address holds the endpoint, its handler table and its meter. A send resolves
its sender and a delivery its receiver with one lookup, meter totals are
charged in place, and a message to a plain
:class:`~repro.sim.process.Process` costs one handler call.

Failure injection: per-pair and one-way blocks, region partitions, degraded
links and a network-wide loss rate. Whether any exist is decided when one
changes, not per message: every fault setter, and the ``loss_rate``
property, recomputes two flags. ``_faults`` says a send must run the full
drop decision (any fault at all); ``_in_flight_faults`` says a delivery
must re-check blocks and partitions (a fault injected while a message is in
flight still stops it, counted under ``messages_dropped.blocked_in_flight``
/ ``.partitioned_in_flight``). A fault-free send tests one flag and keeps
only the unknown-destination check; a fault-free delivery tests one flag.

Randomness: every loss/jitter draw comes one at a time from the network's
``random.Random`` stream, in send order. An in-flight message is one
:class:`Message` object, so a handler or delivery tap may keep the object it
was handed.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Callable, Dict, FrozenSet, List, Optional, Protocol, Sequence, Set, Tuple

from repro.errors import NetworkError
from repro.sim.events import Event
from repro.sim.loop import Simulator
from repro.sim.metrics import BandwidthMeter, MetricsRegistry
from repro.sim.topology import Topology

#: Fixed per-message framing overhead (UDP/IP or minimal HTTP), bytes.
MESSAGE_OVERHEAD_BYTES = 60


class SizedPayload:
    """A payload bundled with a wire size its sender states.

    The wrapper form of :meth:`Network.send_fanout`'s ``size=``: a payload
    measured once can be handed on, to the network or to a
    :class:`~repro.gossip.broadcast.BroadcastQueue`, with its size.
    :meth:`Network.send_fanout` unwraps it before delivery, so message
    handlers always see the raw payload.

    Unlike a :class:`SizedDict`, the size need not be what :func:`approx_size`
    would walk to: a stated size may be a *modelled* one, as a SWIM gossip
    packet ``{"u": updates}`` is charged the updates' sizes plus 8 where the
    walk would give ``9 + len(updates)`` plus the same sum. Omitting ``size``
    measures the payload with the walk.
    """

    __slots__ = ("payload", "size")

    def __init__(self, payload: object, size: Optional[int] = None) -> None:
        self.payload = payload
        self.size = approx_size(payload) if size is None else size

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<SizedPayload {self.size}B {self.payload!r}>"


class SizedDict(dict):
    """A ``dict`` that carries its own wire size.

    ``size`` is what :func:`approx_size` walks the items to, measured once,
    when the dict is built. Instances are immutable by contract: they are
    shared by every hop, queue and cache that carries them, and nobody
    mutates a payload it was handed, so the size cannot go stale.
    :func:`approx_size` charges an instance its ``size`` — at the top level
    and nested in a list or dict alike — so a list of N sized records costs
    N steps however many items each record holds. In every other respect it
    is a ``dict``: what handlers read and what ``pickle`` ships (the slots
    travel with the items).

    Building one from parts that are sized already walks only its own keys:
    a match record ``{node, attrs, region}`` around a sized attribute
    snapshot costs three steps. Subclasses add what else rides along:
    :class:`~repro.gossip.broadcast.SizedWire` a dedupe id,
    :class:`~repro.core.query.DecodedQueryJson` the decoded query.
    """

    __slots__ = ("size",)

    def __init__(self, fields: Dict[str, object]) -> None:
        super().__init__(fields)
        self.size = approx_size(fields)


def approx_size(payload: object) -> int:
    """Approximate the JSON-encoded size of ``payload`` in bytes.

    This intentionally avoids actually serialising every message (the
    simulator sends millions); the estimate matches ``len(json.dumps(...))``
    within a few percent for the dict/list/str/number payloads used here.

    The walk is iterative (an explicit stack) rather than recursive: deeply
    nested payloads cost no Python frames, and the flat loop is measurably
    faster on the wide-but-shallow dicts that dominate SWIM/RPC traffic.
    Container framing (braces plus per-item separators) is added when the
    container is visited; only nested containers and the rare leaf that is
    not a plain ``str``/``float``/``int`` go onto the stack.

    Dispatch is on the exact type first — nearly every value on the wire is
    a plain ``str``, ``float``, ``int``, ``dict`` or ``list`` — and the
    ``isinstance`` chain below handles the rest (``None``, ``bool``,
    :class:`SizedDict`, other subclasses, sets, ``bytes``,
    :class:`SizedPayload`, anything else by its ``repr``). A
    :class:`SizedDict` is charged the size it carries, which is what walking
    it as a plain ``dict`` gives, so the result does not depend on which
    route sized a value; ``tests/oracles/approx_size.py`` is the chain-only
    reference, walking every dict, that the property tests compare against.
    """
    total = 0
    stack = [payload]
    pop = stack.pop
    push = stack.append
    while stack:
        value = pop()
        kind = type(value)
        if kind is dict:
            total += 2 + 2 * len(value)
            for key, item in value.items():
                if type(key) is str:
                    total += len(key) + 2
                else:
                    push(key)
                kind = type(item)
                if kind is str:
                    total += len(item) + 2
                elif kind is float or kind is int:
                    total += 8
                else:
                    push(item)
        elif kind is list or kind is tuple:
            total += 2 + len(value)
            for item in value:
                kind = type(item)
                if kind is str:
                    total += len(item) + 2
                elif kind is float or kind is int:
                    total += 8
                else:
                    push(item)
        elif kind is str:
            total += len(value) + 2
        elif kind is float or kind is int:
            total += 8
        elif value is None:
            total += 4
        elif value is True or value is False:
            total += 5
        elif isinstance(value, SizedDict):
            total += value.size
        elif isinstance(value, (int, float)):
            total += 8
        elif isinstance(value, str):
            total += len(value) + 2
        elif isinstance(value, SizedPayload):
            total += value.size
        elif isinstance(value, bytes):
            total += len(value)
        elif isinstance(value, (list, tuple, set, frozenset)):
            total += 2 + len(value)
            stack.extend(value)
        elif isinstance(value, dict):
            total += 2 + 2 * len(value)
            stack.extend(value.keys())
            stack.extend(value.values())
        else:
            # Fallback for unexpected objects: size of their repr.
            total += len(repr(value))
    return total


class Message:
    """A message in flight. ``payload`` should be JSON-able."""

    __slots__ = ("kind", "payload", "src", "dst", "size", "sent_at")

    def __init__(self, kind: str, payload: object, src: str, dst: str,
                 size: int, sent_at: float) -> None:
        self.kind = kind
        self.payload = payload
        self.src = src
        self.dst = dst
        self.size = size
        self.sent_at = sent_at

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Message {self.kind} {self.src}->{self.dst} {self.size}B>"


class Endpoint(Protocol):
    """Anything that can be attached to the network.

    An endpoint registered with a handler table (see :meth:`Network.register`)
    is dispatched from that table instead of through :meth:`handle_message`,
    so it must also carry ``paused``, ``paused_drops`` and ``on_unhandled``:
    :class:`~repro.sim.process.Process` does.
    """

    address: str
    region: str

    def handle_message(self, message: Message) -> None:
        """Called on delivery of each message addressed to this endpoint."""


#: An endpoint's message kind -> handler table.
Handlers = Dict[str, Callable[[Message], None]]
#: What :meth:`Network.register` binds per address: the endpoint, its handler
#: table (``None``: deliver through ``handle_message``) and its meter.
Binding = Tuple[Endpoint, Optional[Handlers], BandwidthMeter]


#: ``target_time`` of a batch with no sentinel queued: every send beats it.
_IDLE = math.inf

#: ``target_time`` of a batch whose sentinel just fired and is being drained:
#: no send beats it, so a handler sending mid-flush never queues a second
#: sentinel.
_DRAINING = -1.0


class _DeliveryBatch:
    """The network's in-flight messages, sharing one queue sentinel.

    ``heap`` orders pending deliveries by their ``(time, seq)`` key, which is
    allocated at send time; ``event`` is the single recycled sentinel entry
    the batch keeps in the main event queue, aimed at the head's exact key.
    ``target_time`` is that key's time while the sentinel is queued,
    :data:`_IDLE` or :data:`_DRAINING` otherwise. A new message's seq is
    larger than every queued one, so it beats the sentinel's key exactly
    when ``time < target_time``: one float compare per send. Messages are
    never cancelled, so the heap holds no tombstones.
    """

    __slots__ = ("heap", "event", "target_time")

    def __init__(self) -> None:
        #: Entries are ``(time, seq, Message)``.
        self.heap: List[Tuple[float, int, Message]] = []
        self.event: Optional[Event] = None
        self.target_time = _IDLE


class Network:
    """Latency- and bandwidth-accounted message fabric.

    Every message takes one path: :meth:`send_fanout` accounts and parks it
    in the in-flight heap (:attr:`in_flight` counts it), and the sentinel's
    flush delivers it. The fault setters are the only place the fault-free
    decision is made (see the module docstring's two flags).

    Parameters
    ----------
    sim:
        The simulator whose clock drives deliveries.
    topology:
        Region latency model.
    loss_rate:
        Probability that any message is silently dropped (failure injection);
        must lie in ``[0, 1]``.
    jitter_fraction:
        Per-message latency jitter: delivery latency is the topology-derived
        base times ``1 + uniform(0, jitter_fraction)``. Must be ``>= 0`` — a
        negative fraction could otherwise schedule delivery in the simulated
        past.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Optional[Topology] = None,
        *,
        loss_rate: float = 0.0,
        jitter_fraction: float = 0.1,
    ) -> None:
        if jitter_fraction < 0.0:
            raise NetworkError(
                f"jitter fraction must be >= 0, got {jitter_fraction}"
            )
        self.sim = sim
        self.topology = topology if topology is not None else Topology()
        #: ``src_region -> {dst_region: latency}``: one row per send.
        self._latency_rows: Dict[str, Dict[str, float]] = {}
        for (src_region, dst_region), latency in self.topology.latency_map().items():
            self._latency_rows.setdefault(src_region, {})[dst_region] = latency
        self.jitter_fraction = jitter_fraction
        self.metrics = MetricsRegistry()
        #: Registered address -> its :data:`Binding`, resolved once at
        #: :meth:`register` for every send and delivery.
        self._bindings: Dict[str, Binding] = {}
        #: Region per address, written at :meth:`register` and kept after
        #: unregister so messages racing a death still pay the dead node's
        #: real latency.
        self._last_region: Dict[str, str] = {}
        self._meters: Dict[str, BandwidthMeter] = {}
        self._blocked: Set[FrozenSet[str]] = set()
        self._blocked_regions: Set[FrozenSet[str]] = set()
        #: One-directional blocks: ``(src, dst)`` pairs (asymmetric failures).
        self._blocked_directed: Set[Tuple[str, str]] = set()
        #: Per-link degradation overrides: pair -> (latency multiplier, loss).
        self._degraded: Dict[FrozenSet[str], Tuple[float, float]] = {}
        # The setter validates and sets the fault flags from the containers.
        self.loss_rate = loss_rate
        self._rng = sim.derive_rng("network")
        # Degraded-link loss draws come from their own stream so layering a
        # degradation onto one link never shifts the base ``_rng`` sequence
        # (loss + jitter draws) seen by the rest of the run.
        self._degrade_rng = sim.derive_rng("network/degrade")
        # ``_uniform`` is the single tap every loss and jitter draw goes
        # through.
        self._uniform: Callable[[], float] = self._rng.random
        self._delivery_taps: list[Callable[[Message], None]] = []
        #: Wire-size table: message kind -> fixed size or callable(payload).
        self._wire_sizes: Dict[str, object] = {}
        # The per-message counters are resolved once here instead of through
        # a registry dict lookup per send/delivery (the two hottest counter
        # paths in the kernel); ``messages_dropped.<reason>`` counters are
        # cached on first use since the reason set is tiny.
        self._messages_sent = self.metrics.counter("messages_sent")
        self._bytes_sent = self.metrics.counter("bytes_sent")
        self._messages_delivered = self.metrics.counter("messages_delivered")
        # Drop counters stay lazily created: a loss-free run's registry should
        # not grow a zero-valued "messages_dropped" it never had before.
        self._messages_dropped = None
        self._drop_reason_counters: Dict[str, object] = {}
        # Delivery state. Sequence numbers come from the simulator queue's
        # shared counter — allocated at the moments ``sim.post`` would
        # allocate them, so deliveries interleave with timers exactly as one
        # posted event per message would.
        self._in_flight = _DeliveryBatch()
        self._queue = sim._queue
        self._alloc_seq = sim._queue._seq.__next__

    @property
    def in_flight(self) -> int:
        """Messages sent and not yet delivered or dropped.

        Every send waits in the in-flight heap, so ``messages_sent ==
        messages_delivered + messages_dropped + in_flight`` holds between any
        two events, no drain needed.
        """
        return len(self._in_flight.heap)

    # ------------------------------------------------------------ membership
    def register(
        self, endpoint: Endpoint, handlers: Optional[Handlers] = None
    ) -> None:
        """Attach ``endpoint`` and bind what every message to or from it
        needs: the endpoint, ``handlers`` and its meter (:meth:`meter`'s
        object, which :meth:`BandwidthMeter.reset` keeps).

        With ``handlers`` — the kind -> handler table of an endpoint whose
        ``handle_message`` is the plain lookup, handed over by
        :meth:`Process.start <repro.sim.process.Process.start>` — a delivery
        skips ``handle_message``: a paused receiver counts one
        ``paused_drops`` and runs nothing, an unknown kind goes to
        ``on_unhandled``, anything else to its handler. The table is held,
        not copied. An endpoint is registered only while it runs, so the
        flush does not test ``running``.
        """
        address = endpoint.address
        if address in self._bindings:
            raise NetworkError(f"address {address!r} already registered")
        if endpoint.region not in {r.name for r in self.topology.regions}:
            raise NetworkError(
                f"endpoint {address!r} placed in unknown region "
                f"{endpoint.region!r}"
            )
        self._bindings[address] = (endpoint, handlers, self.meter(address))
        self._last_region[address] = endpoint.region

    def unregister(self, address: str) -> None:
        self._bindings.pop(address, None)

    def is_registered(self, address: str) -> bool:
        return address in self._bindings

    def endpoint(self, address: str) -> Endpoint:
        try:
            return self._bindings[address][0]
        except KeyError:
            raise NetworkError(f"unknown endpoint {address!r}") from None

    def meter(self, address: str) -> BandwidthMeter:
        meter = self._meters.get(address)
        if meter is None:
            meter = BandwidthMeter(address)
            self._meters[address] = meter
        return meter

    # ------------------------------------------------------------- wire sizes
    def register_message_size(self, kind: str, size) -> None:
        """Register a precomputed wire size for a message ``kind``.

        ``size`` is either an ``int`` (fixed-shape messages) or a callable
        ``payload -> int``. It is consulted by :meth:`send` when the caller
        passes no explicit size, replacing the generic :func:`approx_size`
        walk for known message shapes. Re-registering a kind overwrites the
        previous entry; the size must match what ``approx_size`` would have
        returned if deterministic byte accounting across runs matters.
        """
        self._wire_sizes[kind] = size

    # ------------------------------------------------------- failure control
    @property
    def loss_rate(self) -> float:
        """Probability that any message is silently dropped, in ``[0, 1]``."""
        return self._loss_rate

    @loss_rate.setter
    def loss_rate(self, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise NetworkError(f"loss rate must be in [0, 1], got {value}")
        self._loss_rate = value
        self._refresh_faults()

    def _refresh_faults(self) -> None:
        """Recompute the two fault flags; every fault setter ends here."""
        self._in_flight_faults = bool(
            self._blocked or self._blocked_directed or self._blocked_regions
        )
        self._faults = (
            self._in_flight_faults or bool(self._degraded) or self._loss_rate > 0
        )

    def block(self, address_a: str, address_b: str) -> None:
        """Drop all traffic between two addresses (both directions)."""
        self._blocked.add(frozenset((address_a, address_b)))
        self._refresh_faults()

    def unblock(self, address_a: str, address_b: str) -> None:
        self._blocked.discard(frozenset((address_a, address_b)))
        self._refresh_faults()

    def block_directed(self, src: str, dst: str) -> None:
        """Drop traffic from ``src`` to ``dst`` only (asymmetric failure).

        The reverse direction keeps flowing, which is how NAT/firewall
        misconfigurations and one-way routing failures present: ``dst`` can
        still ping ``src``, but never hears an ack back.
        """
        self._blocked_directed.add((src, dst))
        self._refresh_faults()

    def unblock_directed(self, src: str, dst: str) -> None:
        self._blocked_directed.discard((src, dst))
        self._refresh_faults()

    def partition_regions(self, region_a: str, region_b: str) -> None:
        """Drop all traffic between two regions (both directions)."""
        self._blocked_regions.add(frozenset((region_a, region_b)))
        self._refresh_faults()

    def heal_regions(self, region_a: str, region_b: str) -> None:
        self._blocked_regions.discard(frozenset((region_a, region_b)))
        self._refresh_faults()

    def degrade_link(self, address_a: str, address_b: str, *,
                     latency_multiplier: float = 1.0,
                     loss_rate: float = 0.0) -> None:
        """Degrade one link (both directions): slower and/or lossier.

        ``latency_multiplier`` scales the topology-derived one-way latency;
        ``loss_rate`` is an *additional* drop probability applied on top of
        the network-wide one. Loss draws come from a dedicated RNG stream so
        degrading a link never perturbs the seeded event order of undegraded
        traffic. Re-degrading a pair overwrites the previous override.
        """
        if latency_multiplier <= 0:
            raise NetworkError(
                f"latency multiplier must be positive, got {latency_multiplier}"
            )
        if not 0.0 <= loss_rate <= 1.0:
            raise NetworkError(f"loss rate must be in [0, 1], got {loss_rate}")
        self._degraded[frozenset((address_a, address_b))] = (
            latency_multiplier,
            loss_rate,
        )
        self._refresh_faults()

    def clear_link_degradation(self, address_a: str, address_b: str) -> None:
        self._degraded.pop(frozenset((address_a, address_b)), None)
        self._refresh_faults()

    def link_degradation(
        self, address_a: str, address_b: str
    ) -> Optional[Tuple[float, float]]:
        """Current ``(latency_multiplier, loss_rate)`` override, if any."""
        return self._degraded.get(frozenset((address_a, address_b)))

    def heal_all(self) -> None:
        """Clear every injected failure: pair and directed blocks, region
        partitions, and per-link degradation overrides."""
        self._blocked.clear()
        self._blocked_regions.clear()
        self._blocked_directed.clear()
        self._degraded.clear()
        self._refresh_faults()

    def add_delivery_tap(self, tap: Callable[[Message], None]) -> None:
        """Register a callback invoked on every successful delivery."""
        self._delivery_taps.append(tap)

    # ---------------------------------------------------------------- sending
    def send(self, src: str, dst: str, kind: str, payload: object, *,
             size: Optional[int] = None) -> None:
        """Send a message: :meth:`send_fanout` to one destination."""
        self.send_fanout(src, (dst,), kind, payload, size=size)

    def send_fanout(self, src: str, dsts: Sequence[str], kind: str,
                    payload: object, *, size: Optional[int] = None) -> None:
        """Send one payload to each of ``dsts``, in order; delivery is
        scheduled, never synchronous.

        The payload is sized, and the sender's meter and the sent counters
        charged, once per call. Per destination, in order: its region (a
        recently dead endpoint routes toward where it actually lived), the
        drop decision, the degraded-link multiplier, the jitter draw and the
        delivery key.
        Unknown destinations and blocked/partitioned pairs silently drop the
        message (that is what the real network does); every loss is counted
        once in ``messages_dropped`` and once under
        ``messages_dropped.<reason>``.

        ``payload`` may be a :class:`SizedPayload`, in which case its
        stated size is used and the wrapped payload is what gets delivered.
        """
        binding = self._bindings.get(src)
        if binding is None:
            raise NetworkError(f"send from unregistered endpoint {src!r}")
        sender, _handlers, meter = binding
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
        now = self.sim._now
        count = len(dsts)
        # BandwidthMeter.on_send_many, in place.
        meter.bytes_sent += wire_size * count
        meter.messages_sent += count
        self._messages_sent.value += count
        self._bytes_sent.value += wire_size * count
        latency_row = self._latency_rows[sender.region]
        uniform = self._uniform
        # A registered destination's region is its ``_last_region`` entry.
        regions_get = self._last_region.get
        faults = self._faults
        degraded = self._degraded
        jitter_fraction = self.jitter_fraction
        batch = self._in_flight
        heap = batch.heap
        alloc_seq = self._alloc_seq
        for dst in dsts:
            dst_region = regions_get(dst)
            if faults:
                drop_reason = self._drop_reason(src, dst, sender, dst_region)
                if drop_reason is not None:
                    self._count_drop(drop_reason)
                    continue
                latency = latency_row[dst_region]
                if degraded:
                    entry = degraded.get(frozenset((src, dst)))
                    if entry is not None:
                        latency *= entry[0]
            elif dst_region is None:
                # Fault-free, only this drop can apply, and _drop_reason
                # would make no RNG draw: skipping it is byte-exact.
                self._count_drop("unknown_destination")
                continue
            else:
                latency = latency_row[dst_region]
            if jitter_fraction > 0.0:
                latency *= 1.0 + uniform() * jitter_fraction
            if latency < 0.0:
                # Degenerate topologies (negative configured latency) must
                # never schedule a delivery in the simulated past.
                latency = 0.0
            time = now + latency
            heappush(
                heap,
                (time, alloc_seq(), Message(kind, payload, src, dst, wire_size, now)),
            )
            if time < batch.target_time:
                self._retarget_deliveries(batch)

    def _drop_reason(
        self, src: str, dst: str, sender: Endpoint, dst_region: Optional[str]
    ) -> Optional[str]:
        """Send-time drop decision; RNG draws happen here and only here.

        Degraded-link loss draws come from the ``network/degrade`` stream,
        network-wide loss from ``network``, each in send order.

        Only called while ``_faults`` is set. Each container check is still
        guarded by a truthiness test, so a run with loss alone never builds a
        frozenset per message. The region-partition check routes through the
        resolved ``dst_region`` (which falls back to the last known region),
        so traffic toward a recently dead endpoint across a partition counts
        as ``partitioned`` rather than surviving until the ``dead_endpoint``
        check.
        """
        if self._blocked and frozenset((src, dst)) in self._blocked:
            return "blocked"
        if self._blocked_directed and (src, dst) in self._blocked_directed:
            return "blocked_directed"
        if dst_region is None:
            # Never-registered destination: there is no region to route
            # toward, so drop at send time instead of inventing a latency.
            return "unknown_destination"
        if (
            self._blocked_regions
            and frozenset((sender.region, dst_region)) in self._blocked_regions
        ):
            return "partitioned"
        if self._degraded:
            entry = self._degraded.get(frozenset((src, dst)))
            if (
                entry is not None
                and entry[1] > 0.0
                and self._degrade_rng.random() < entry[1]
            ):
                return "degraded"
        if self._loss_rate > 0 and self._uniform() < self._loss_rate:
            return "loss"
        return None

    # -------------------------------------------------------------- delivery
    def _retarget_deliveries(self, batch: _DeliveryBatch) -> None:
        """Aim the batch sentinel at the head message's exact ``(time, seq)``.

        Called when a new message beats the queued sentinel's key, or when
        the batch is idle. Mirrors a deadline FIFO's sentinel recycling: a
        sentinel queued at a now-stale key is cancelled (the old object
        stays behind in the queue) and a fresh event takes its place; a
        sentinel that just fired is reused in place, costing no allocation.
        """
        if batch.target_time != _IDLE:
            batch.event.cancelled = True
            batch.event = None
        heap = batch.heap
        if not heap:
            batch.target_time = _IDLE
            return
        time, seq, _message = heap[0]
        event = batch.event
        if event is None:
            event = batch.event = Event(time, seq, self._fire_deliveries, (batch,))
        else:
            event.time = time
            event.seq = seq
        self._queue.push_entry(event)
        batch.target_time = time

    def _fire_deliveries(self, batch: _DeliveryBatch) -> None:
        """Sentinel callback: flush every consecutively-due delivery.

        The sentinel fired at the head message's exact key, so the first
        delivery is "paid for" by the event the loop just popped. After each
        delivery the batch keeps draining as long as its next message's key
        still beats the main queue's head and stays within the caller's
        ``run_until`` bound — each extra delivery advances the clock and the
        event count itself, exactly as if it had been queued individually.
        The queue head is peeked once and then only re-peeked after an
        iteration that actually pushed an event (tracked by the queue's
        ``pushes`` counter): handler-scheduled events always carry a fresh
        sequence number, so a stale cached key can only ever end the drain
        early (the sentinel re-aims and the flush resumes), never late. Seqs
        are unique across the queue and the heap, so comparing that
        ``(time, seq)`` key with a heap entry is decided by its first two
        items.

        Each delivery is one lookup of the receiver's :data:`Binding`, the
        meter charged in place, and one call: the handler from the bound
        table, or ``handle_message`` (see :meth:`register`). The delivered-messages counter is charged
        once per flush (nothing in the stack reads it mid-flush);
        ``tests/oracles/direct_post.py``, one posted event per message
        through ``on_receive`` and ``handle_message``, is what this loop must
        replay exactly.
        """
        sim = self.sim
        heap = batch.heap
        queue = self._queue
        bindings_get = self._bindings.get
        taps = self._delivery_taps
        bound = sim._run_bound
        batch.target_time = _DRAINING
        next_key = queue.peek_key()
        pushes = queue.pushes
        delivered = 0
        time, _seq, message = heappop(heap)
        while True:
            binding = bindings_get(message.dst)
            if binding is None:
                # Endpoint died while the message was in flight.
                self._count_drop("dead_endpoint")
            elif (
                self._in_flight_faults
                and (reason := self._in_flight_drop_reason(message, binding[0]))
                is not None
            ):
                self._count_drop(reason)
            else:
                receiver, handlers, meter = binding
                # BandwidthMeter.on_receive, in place.
                meter.bytes_received += message.size
                meter.messages_received += 1
                delivered += 1
                if taps:
                    for tap in taps:
                        tap(message)
                if handlers is None:
                    receiver.handle_message(message)
                elif receiver.paused:
                    receiver.paused_drops += 1
                else:
                    handler = handlers.get(message.kind)
                    if handler is None:
                        receiver.on_unhandled(message)
                    else:
                        handler(message)
            if not heap:
                break
            head = heap[0]
            if head[0] > bound:
                break
            if queue.pushes != pushes:
                next_key = queue.peek_key()
                pushes = queue.pushes
            if next_key is not None and next_key < head:
                break
            time, _seq, message = heappop(heap)
            sim._now = time
            sim._events_processed += 1
        if delivered:
            self._messages_delivered.value += delivered
        batch.target_time = _IDLE
        self._retarget_deliveries(batch)

    def _count_drop(self, reason: str) -> None:
        dropped = self._messages_dropped
        if dropped is None:
            dropped = self.metrics.counter("messages_dropped")
            self._messages_dropped = dropped
        dropped.value += 1
        counter = self._drop_reason_counters.get(reason)
        if counter is None:
            counter = self.metrics.counter(f"messages_dropped.{reason}")
            self._drop_reason_counters[reason] = counter
        counter.value += 1

    def _in_flight_drop_reason(
        self, message: Message, receiver: Endpoint
    ) -> Optional[str]:
        """Delivery-time fault re-check: blocks/partitions injected while the
        message was in flight still stop it.

        Only consulted while ``_in_flight_faults`` is set, so fault-free runs
        pay one flag test per delivery. The sender's region comes from
        ``_last_region`` — the sender may itself have died mid-flight.
        """
        src = message.src
        dst = message.dst
        if self._blocked and frozenset((src, dst)) in self._blocked:
            return "blocked_in_flight"
        if self._blocked_directed and (src, dst) in self._blocked_directed:
            return "blocked_in_flight"
        if self._blocked_regions:
            src_region = self._last_region.get(src)
            if (
                src_region is not None
                and frozenset((src_region, receiver.region)) in self._blocked_regions
            ):
                return "partitioned_in_flight"
        return None
