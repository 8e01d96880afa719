"""Piggyback broadcast queue.

SWIM disseminates membership updates (and, in Serf, user events) by
piggybacking them on gossip and probe messages. Each broadcast is retransmitted
a bounded number of times — ``retransmit_mult * ceil(log2(n + 1))`` — which
gives epidemic dissemination with high probability while bounding bandwidth.

Broadcasts carry a ``key``: queueing a new broadcast with the same key
invalidates the old one (e.g. a newer state for the same member replaces the
older state still awaiting retransmission).

Every member of a group forwards the custom (Serf event/query) updates it
hears, so such a wire is a :class:`SizedWire`, a
:class:`~repro.sim.network.SizedDict`: it carries the size its originator
measured, and each forwarder queues the same object at that size instead of
walking a copy of it again. It also carries its dedupe key, because
forwarding is what makes nearly every delivery of it a re-delivery.
"""

from __future__ import annotations

import math
import operator
from typing import Dict, List, Optional, Tuple

from repro.sim.network import SizedDict, SizedPayload, approx_size

_TRANSMITS_LEFT = operator.attrgetter("transmits_left")


class SizedWire(SizedDict):
    """A Serf event/query wire: a :class:`~repro.sim.network.SizedDict` that
    also carries its dedupe id.

    The originator builds it and every member that hears it re-gossips the
    same object, so each queue it passes through charges ``size`` without
    re-walking it. ``id`` is ``fields["id"]``, the key members deduplicate on:
    epidemic dissemination re-delivers a wire tens of times per member, and
    ``SwimAgent._on_gossip`` (a packet of nothing else) and the update loop
    (``SwimAgent._apply_updates``, one wire at a time) reject a re-delivery by
    asking ``wire.id in seen`` of a wire they recognise by this exact type —
    no call, no subscript.
    """

    __slots__ = ("id",)

    def __init__(self, fields: Dict[str, object]) -> None:
        super().__init__(fields)
        self.id = fields["id"]


class Broadcast:
    """One item awaiting epidemic retransmission.

    ``size`` is the estimated wire size of the payload, computed once at
    enqueue time so the gossip hot path never re-measures payloads.
    """

    __slots__ = ("key", "payload", "transmits_left", "size")

    def __init__(
        self,
        key: Tuple[str, str],
        payload: Dict[str, object],
        transmits_left: int,
        size: int,
    ) -> None:
        self.key = key
        self.payload = payload
        self.transmits_left = transmits_left
        self.size = size


def retransmit_limit(retransmit_mult: int, group_size: int) -> int:
    """Number of times each broadcast is retransmitted."""
    return retransmit_mult * int(math.ceil(math.log2(max(group_size, 1) + 1)))


class BroadcastQueue:
    """Bounded-retransmission broadcast queue.

    ``take(k)`` returns up to ``k`` payloads, preferring the least-transmitted
    broadcasts (so new information spreads fastest), and decrements their
    remaining transmit budget.
    """

    def __init__(self, retransmit_mult: int = 4) -> None:
        self.retransmit_mult = retransmit_mult
        self._queue: Dict[Tuple[str, str], Broadcast] = {}

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def empty(self) -> bool:
        return not self._queue

    def enqueue(
        self,
        key: Tuple[str, str],
        payload: Dict[str, object],
        group_size: int,
        *,
        transmits: Optional[int] = None,
        size: Optional[int] = None,
    ) -> None:
        limit = (
            transmits
            if transmits is not None
            else retransmit_limit(self.retransmit_mult, group_size)
        )
        if isinstance(payload, SizedPayload):
            # A caller that already sized the payload (e.g. for a direct
            # send) shares that measurement with the retransmission queue.
            if size is None:
                size = payload.size
            payload = payload.payload
        if size is None:
            # Only a hand-built wire still needs measuring here.
            size = payload.size if type(payload) is SizedWire else approx_size(payload)
        self._queue[key] = Broadcast(key, payload, max(limit, 1), size)

    def invalidate(self, key: Tuple[str, str]) -> None:
        self._queue.pop(key, None)

    def take(self, max_items: int) -> List[Dict[str, object]]:
        """Pop up to ``max_items`` payloads for one outgoing message."""
        payloads, _ = self.take_with_size(max_items)
        return payloads

    def take_with_size(self, max_items: int) -> Tuple[List[Dict[str, object]], int]:
        """Like :meth:`take` but also returns the summed payload size."""
        queue = self._queue
        if not queue or max_items <= 0:
            return [], 0
        payloads = []
        total_size = 0
        if len(queue) <= max_items:
            # Everything goes, in queue order (what the stable sort below
            # would give too). The dict is walked in place, without a copy,
            # so spent broadcasts are deleted after the walk. A tuple: most
            # takes spend none, and ``()`` allocates nothing.
            spent = ()
            for broadcast in queue.values():
                payloads.append(broadcast.payload)
                total_size += broadcast.size
                broadcast.transmits_left -= 1
                if broadcast.transmits_left <= 0:
                    spent += (broadcast.key,)
            for key in spent:
                del queue[key]
            return payloads, total_size
        # Least-transmitted first, so fresh information spreads fastest;
        # ties go to the broadcast queued first (the sort is stable, also
        # under ``reverse``). A full C-level sort beats a Python-level
        # partial selection at the tens to hundreds of broadcasts held here.
        selected = sorted(
            queue.values(), key=_TRANSMITS_LEFT, reverse=True
        )[:max_items]
        for broadcast in selected:
            payloads.append(broadcast.payload)
            total_size += broadcast.size
            broadcast.transmits_left -= 1
            if broadcast.transmits_left <= 0:
                del queue[broadcast.key]
        return payloads, total_size

    def peek_keys(self) -> List[Tuple[str, str]]:
        return list(self._queue.keys())

    def clear(self) -> None:
        self._queue.clear()
