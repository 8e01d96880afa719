"""Piggyback broadcast queue.

SWIM disseminates membership updates (and, in Serf, user events) by
piggybacking them on gossip and probe messages. Each broadcast is retransmitted
a bounded number of times — ``retransmit_mult * ceil(log10(n + 1))``, the
limit memberlist's ``TransmitLimitedQueue`` (and so Serf) applies — which
gives epidemic dissemination with high probability while bounding bandwidth:
a member sends each broadcast 12 times in a 400-member group, each
transmission one packet to one peer, whatever the gossip fan-out.

Broadcasts carry a ``key``: queueing a new broadcast with the same key
invalidates the old one (e.g. a newer state for the same member replaces the
older state still awaiting retransmission).

Which broadcasts a packet carries follows memberlist's ``limitedBroadcast``
order: fewest transmissions first and, among equal transmits left, the
newest first (memberlist's ``id`` tie-break), so a fresh wire does not wait
behind older ones of its tier. memberlist's middle tier, the larger message
first, is left out: it serves packing under a byte budget, and these packets
are capped by item count (``piggyback_max``). Two other differences: a
replacement keeps the age of the broadcast it replaces, where memberlist
gives it a new ``id``; and a queue that fits in one packet goes out whole in
queue order, where memberlist walks it in its order.

Every member of a group forwards the custom (Serf event/query) updates it
hears, so such a wire is a :class:`SizedWire`, a
:class:`~repro.sim.network.SizedDict`: it carries the size its originator
measured, and each forwarder queues the same object at that size instead of
walking a copy of it again. It also carries its dedupe key, because
forwarding is what makes nearly every delivery of it a re-delivery.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Tuple

from repro.sim.network import SizedDict, SizedPayload, approx_size

_TRANSMITS_LEFT = operator.attrgetter("transmits_left")
_SEQ = operator.attrgetter("seq")


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
    enqueue time so the gossip hot path never re-measures payloads. ``seq``
    is the broadcast's place in its queue's order, the tie-break among equal
    budgets (the higher, newer one goes first): a replacement keeps the
    place of the broadcast it replaces, as a dict keeps a re-assigned key's.
    """

    __slots__ = ("key", "payload", "transmits_left", "size", "seq")

    def __init__(
        self,
        key: Tuple[str, str],
        payload: Dict[str, object],
        transmits_left: int,
        size: int,
        seq: int,
    ) -> None:
        self.key = key
        self.payload = payload
        self.transmits_left = transmits_left
        self.size = size
        self.seq = seq


def retransmit_limit(retransmit_mult: int, group_size: int) -> int:
    """Number of times each broadcast is retransmitted:
    ``retransmit_mult * ceil(log10(n + 1))``, memberlist's
    ``retransmitLimit``. ``ceil(log10(n + 1))`` is exactly the number of
    decimal digits of ``n`` for ``n >= 1``; smaller groups count as 1."""
    return retransmit_mult * len(str(max(group_size, 1)))


class BroadcastQueue:
    """Bounded-retransmission broadcast queue.

    A take fills one packet for one peer with up to ``max_items`` payloads,
    preferring the least-transmitted broadcasts and, among those, the newest
    (so new information spreads fastest), and spends one transmission of
    each. :meth:`take_batches`
    fills the packets of a gossip round, one per peer, exactly as that many
    one-peer takes in turn would; :meth:`take_with_size` is its one-peer
    case.
    """

    def __init__(self, retransmit_mult: int = 4) -> None:
        self.retransmit_mult = retransmit_mult
        self._queue: Dict[Tuple[str, str], Broadcast] = {}
        self._next_seq = 0

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
        queue = self._queue
        replaced = queue.get(key)
        if replaced is not None:
            seq = replaced.seq
        else:
            seq = self._next_seq
            self._next_seq = seq + 1
        queue[key] = Broadcast(key, payload, max(limit, 1), size, seq)

    def invalidate(self, key: Tuple[str, str]) -> None:
        self._queue.pop(key, None)

    def take(self, max_items: int) -> List[Dict[str, object]]:
        """Pop up to ``max_items`` payloads for one outgoing message."""
        payloads, _ = self.take_with_size(max_items)
        return payloads

    def take_with_size(self, max_items: int) -> Tuple[List[Dict[str, object]], int]:
        """Like :meth:`take` but also returns the summed payload size."""
        if not self._queue or max_items <= 0:
            return [], 0
        ((payloads, size, _),) = self.take_batches(max_items, 1)
        return payloads, size

    def take_batches(
        self, max_items: int, peers: int
    ) -> List[Tuple[List[Dict[str, object]], int, int]]:
        """The packets of one gossip round to ``peers`` peers: what
        ``peers`` one-peer takes of up to ``max_items`` payloads each would
        return in turn, as runs ``(payloads, summed size, peers)`` of
        consecutive peers that get the same batch. The runs cover fewer
        than ``peers`` peers when the queue runs dry first, as memberlist's
        ``gossip()`` stops at the first empty batch.

        A queue that fits in one packet goes out whole, in queue order, to
        as many peers in a row as its smallest budget allows. A deeper one
        is sorted once, least-transmitted first with ties newest first;
        each take spends one transmission of its ``max_items`` and so moves
        at most that many broadcasts behind, so this round's takes all come
        from the first ``max_items * peers`` of that order, and only those
        are re-sorted between takes.
        """
        queue = self._queue
        runs: List[Tuple[List[Dict[str, object]], int, int]] = []
        if max_items <= 0 or not queue:
            return runs
        previous = None
        if len(queue) > max_items:
            # Least-transmitted first; ties go to the broadcast queued last
            # (the sort is stable, also under ``reverse``, and walks the
            # queue newest first). A full C-level sort beats a Python-level
            # partial selection at the tens to hundreds of broadcasts held
            # here.
            order = sorted(
                reversed(queue.values()), key=_TRANSMITS_LEFT, reverse=True
            )
            if peers > 1:
                del order[max_items * peers:]
            while True:
                selected = order[:max_items]
                if previous is not None and selected == previous:
                    payloads, size, count = runs[-1]
                    runs[-1] = (payloads, size, count + 1)
                else:
                    payloads = []
                    size = 0
                    for broadcast in selected:
                        payloads.append(broadcast.payload)
                        size += broadcast.size
                    runs.append((payloads, size, 1))
                spent = False
                for broadcast in selected:
                    broadcast.transmits_left -= 1
                    if broadcast.transmits_left <= 0:
                        del queue[broadcast.key]
                        spent = True
                previous = selected
                peers -= 1
                if not peers or len(queue) <= max_items:
                    break
                if spent:
                    order = [b for b in order if b.transmits_left > 0]
                # The taken broadcasts fell behind: re-sort the candidates
                # newest first, then stably by budget.
                order.sort(key=_SEQ, reverse=True)
                order.sort(key=_TRANSMITS_LEFT, reverse=True)
            if not peers:
                return runs
            # The queue shrank to one packet's worth, so one of the batch
            # was spent: the next batch differs from it.
        while True:
            # Everything goes, in queue order. That is not the order the
            # sort above would give once budgets differ (it puts a later
            # broadcast with more transmissions left first), and the order
            # is the packet's bytes: keep the walk. The dict is walked in
            # place, so spent broadcasts are deleted after the walk; a
            # tuple, as most takes spend none and ``()`` allocates nothing.
            # Every peer up to the smallest budget gets the same batch, and
            # then one at least is spent.
            count = 1 if peers == 1 else min(
                peers, min(map(_TRANSMITS_LEFT, queue.values()))
            )
            payloads = []
            size = 0
            spent = ()
            for broadcast in queue.values():
                payloads.append(broadcast.payload)
                size += broadcast.size
                broadcast.transmits_left -= count
                if broadcast.transmits_left <= 0:
                    spent += (broadcast.key,)
            for key in spent:
                del queue[key]
            runs.append((payloads, size, count))
            peers -= count
            if not peers or not queue:
                return runs

    def peek_keys(self) -> List[Tuple[str, str]]:
        return list(self._queue.keys())

    def clear(self) -> None:
        self._queue.clear()
