"""Serf-style agent: user events and queries over the SWIM gossip channel.

The paper's node agents run one Serf client per attribute group (§VIII-B).
Two Serf features matter for FOCUS:

* **user events** — fire-and-forget broadcasts disseminated epidemically;
* **queries** — a member gossips a question to the whole group and every
  member sends its answer *directly* to the originating member (§VII,
  "Load-balanced Query Routing"), which aggregates and can finish early once
  every member in its local view has answered, or died or left since the
  query started.

A query's caller can also close it early, as a Serf caller reads
``QueryResponse.ResponseCh()`` and calls ``Close()`` once it has what it
needs: ``on_response`` sees each member's first answer as it arrives, and a
true return finishes the query there (a FOCUS aggregator closes at the
query's ``limit`` matches). A query that reaches its timeout instead is
``short`` when a member that has not answered is still alive in this
member's view; a member that left or died meanwhile has nothing to add, and
the query finishes as soon as only such members are missing.

Event and query wires are immutable and carry their size and their id: the
originator builds one :class:`~repro.gossip.broadcast.SizedWire`, and every
member that hears it re-gossips that same object at the size the originator
measured — the cost of a dissemination is one walk per wire, not one per
member. A hand-built plain ``dict`` wire still works; it is measured where it
is queued.

Who rejects a re-delivery: every member sends every wire
``retransmit_mult * ceil(log10(n + 1))`` times (memberlist's limit), each
time to one peer, so a member hears each wire about that many times and all
but one of those deliveries are repeats (11 of 12, 91.7%, in a 400-member
group). :meth:`SwimAgent._on_gossip
<repro.gossip.swim.SwimAgent._on_gossip>` turns away a gossip packet whose
every wire is a ``SizedWire`` with an ``id`` in this agent's seen set without
entering the update loop, as most packets are such whole repeats; any other
packet goes whole to :meth:`SwimAgent._apply_updates
<repro.gossip.swim.SwimAgent._apply_updates>`, which drops each seen
``SizedWire`` in its loop. Either way a repeat never reaches
:meth:`SerfAgent.handle_custom_update`, which therefore runs once per wire per
member. The hook keeps its own check for the wires the loop cannot recognise
by type (a plain ``dict``). Member updates are the same story one layer down:
each is an interned :class:`~repro.gossip.membership.MemberWire` that every
gossiping member queues, the table remembers the one it last rejected per
member, and a repeat of that object never reaches
:meth:`~repro.gossip.membership.MembershipTable.can_change`. A plain-dict
member wire (a probe's sender record) is judged by ``can_change`` each time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, Iterator, List, Optional

from repro.sim.loop import Simulator
from repro.sim.network import Message, Network, SizedDict
from repro.gossip.broadcast import SizedWire
from repro.gossip.member import Member
from repro.gossip.membership import NodeDirectory
from repro.gossip.swim import SwimAgent, SwimConfig

QUERY_RESPONSE = "serf.query-resp"

#: Number of distinct event/query ids remembered for deduplication.
SEEN_BUFFER = 4096


@dataclass
class SerfConfig(SwimConfig):
    """SWIM knobs plus Serf query timing."""

    query_timeout: float = 1.0


class QueryResponses(dict):
    """What a query's ``on_complete`` receives: ``member name -> response``,
    and ``short``, true when the query reached its timeout while a member
    that had not answered was still alive in the originator's view."""

    __slots__ = ("short",)


class QueryCollector:
    """Aggregates direct responses for one in-flight group query."""

    __slots__ = (
        "query_id",
        "expected",
        "missing",
        "responses",
        "on_complete",
        "on_response",
        "closed",
        "short",
        "finished",
        "started_at",
    )

    def __init__(
        self,
        query_id: str,
        expected: List[str],
        on_complete: Callable[[QueryResponses], None],
        started_at: float,
        on_response: Optional[Callable[[str, object], bool]] = None,
    ) -> None:
        self.query_id = query_id
        self.expected = set(expected)
        self.missing = set(self.expected)
        self.responses: Dict[str, object] = {}
        self.on_complete = on_complete
        self.on_response = on_response
        #: The caller closed the query before every member answered.
        self.closed = False
        self.short = False
        self.finished = False
        self.started_at = started_at

    def add(self, member_name: str, payload: object) -> bool:
        """Record one answer; true once the query is done: every expected
        member has answered, or ``on_response`` closed it. ``on_response``
        sees only a member's first answer, so a repeat never counts twice."""
        responses = self.responses
        first = member_name not in responses
        responses[member_name] = payload
        # Tracked incrementally: a subset check per response would make a
        # full-group query O(n^2) in the group size.
        self.missing.discard(member_name)
        on_response = self.on_response
        if first and on_response is not None and on_response(member_name, payload):
            self.closed = True
        return self.closed or not self.missing

    def finish(self) -> None:
        if self.finished:
            return
        self.finished = True
        responses = QueryResponses(self.responses)
        responses.short = self.short
        self.on_complete(responses)


class SerfAgent(SwimAgent):
    """A SWIM member that can originate and answer group events/queries."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        address: str,
        region: str,
        config: Optional[SerfConfig] = None,
        *,
        directory: Optional[NodeDirectory] = None,
    ) -> None:
        super().__init__(
            sim,
            network,
            name,
            address,
            region,
            config or SerfConfig(),
            directory=directory,
        )
        self.event_handlers: Dict[str, Callable[[object, str], None]] = {}
        self.query_handlers: Dict[str, Callable[[object, str], object]] = {}
        #: Sequence numbers of the event/query ids this agent originates. Ids
        #: must never repeat at one address, or a late answer to an old
        #: query is merged into a new one: whoever replaces this agent with
        #: another at the same address hands the successor this iterator.
        self.event_ids: Iterator[int] = count(1)
        # Eviction order of ``_seen`` (the set the update loop probes).
        self._seen_order: deque = deque()
        self._collectors: Dict[str, QueryCollector] = {}
        self.on(QUERY_RESPONSE, self._on_query_response)

    # --------------------------------------------------------------- handlers
    def on_event(self, name: str, handler: Callable[[object, str], None]) -> None:
        """Register a handler for user events named ``name``.

        ``handler(payload, origin_member_name)`` is called once per event.
        """
        self.event_handlers[name] = handler

    def on_query(self, name: str, handler: Callable[[object, str], object]) -> None:
        """Register a handler for group queries named ``name``.

        ``handler(payload, origin_member_name)`` must return the response
        payload to send back to the originator, or ``None`` to stay silent.
        """
        self.query_handlers[name] = handler

    # ------------------------------------------------------------ user events
    def user_event(self, name: str, payload: object) -> str:
        """Originate a user event; returns its id."""
        event_id = f"{self.name}:e{next(self.event_ids)}"
        wire = SizedWire(
            {"t": "e", "id": event_id, "en": name, "ep": payload, "o": self.name}
        )
        self._remember(event_id)
        self._deliver_event(wire)
        self.broadcast_payload("event", event_id, wire)
        return event_id

    # ---------------------------------------------------------------- queries
    def query(
        self,
        name: str,
        payload: object,
        on_complete: Callable[[QueryResponses], None],
        *,
        timeout: Optional[float] = None,
        on_response: Optional[Callable[[str, object], bool]] = None,
    ) -> str:
        """Originate a group query from this member.

        Every member (including this one) runs its query handler and sends
        the answer directly back here. ``on_complete`` fires exactly once,
        with a :class:`QueryResponses` dict of ``member name -> response
        payload``: when all members in the local alive view have answered
        (or died or left since), when ``on_response(member name,
        response)``, called on each member's first answer, returns true
        (Serf's ``Close()``), or at the timeout, when the responses say
        whether they are ``short``.
        """
        query_id = f"{self.name}:q{next(self.event_ids)}"
        wire = SizedWire(
            {
                "t": "q",
                "id": query_id,
                "qn": name,
                "qp": payload,
                "o": self.name,
                "ra": self.address,
            }
        )
        expected = self.members.alive_names()
        collector = QueryCollector(
            query_id, expected, on_complete, self.sim.now, on_response
        )
        self._collectors[query_id] = collector
        self._remember(query_id)
        # Answer locally first (we are a member too).
        self._answer_query(wire)
        self.broadcast_payload("query", query_id, wire)
        query_timeout = timeout if timeout is not None else self.config.query_timeout  # type: ignore[attr-defined]
        self.post(query_timeout, self._query_deadline, query_id)
        return query_id

    def _query_deadline(self, query_id: str) -> None:
        collector = self._collectors.pop(query_id, None)
        if collector is not None:
            alive_address = self.members.alive_address
            collector.short = any(
                alive_address(name) is not None for name in collector.missing
            )
            collector.finish()

    def _notify_dead(self, member: Member) -> None:
        """A member that died or left has nothing to add to a query: stop
        waiting for it, and finish a query it was the last one missing from
        (not ``short``: every member still alive has answered)."""
        super()._notify_dead(member)
        name = member.name
        for query_id, collector in list(self._collectors.items()):
            missing = collector.missing
            if name in missing:
                missing.discard(name)
                if not missing:
                    del self._collectors[query_id]
                    collector.finish()

    def _on_query_response(self, message: Message) -> None:
        payload = message.payload
        query_id = payload["id"]
        collector = self._collectors.get(query_id)
        if collector is not None and collector.add(payload["from"], payload["r"]):
            del self._collectors[query_id]
            collector.finish()

    # ------------------------------------------------------------ gossip hook
    def handle_custom_update(self, wire: Dict[str, object]) -> None:
        # The update loop has already turned away a re-delivered SizedWire;
        # this check is for the plain-dict wire it cannot recognise by type.
        # Every event/query wire carries an "id" — plain subscripts.
        kind = wire["t"]
        event_id = wire["id"]
        if event_id in self._seen:
            return
        self._remember(event_id)
        if kind == "e":
            self._deliver_event(wire)
            self.broadcast_payload("event", event_id, wire)
        elif kind == "q":
            self._answer_query(wire)
            self.broadcast_payload("query", event_id, wire)

    def _deliver_event(self, wire: Dict[str, object]) -> None:
        handler = self.event_handlers.get(wire["en"])
        if handler is not None:
            handler(wire["ep"], wire["o"])

    def _answer_query(self, wire: Dict[str, object]) -> None:
        handler = self.query_handlers.get(wire["qn"])
        if handler is None:
            return
        response = handler(wire["qp"], wire["o"])
        if response is None:
            return
        query_id = wire["id"]
        if wire["ra"] == self.address:
            # Local shortcut: we are the originator.
            collector = self._collectors.get(query_id)
            if collector is not None and collector.add(self.name, response):
                del self._collectors[query_id]
                collector.finish()
            return
        reply = {"id": query_id, "from": self.name, "r": response}
        size = None
        if isinstance(response, SizedDict) and type(query_id) is str:
            # approx_size's walk of the reply, by arithmetic: braces and
            # separators 8, the three keys 13, two strings' quotes 4.
            size = 25 + len(query_id) + len(self.name) + response.size
        self.send(wire["ra"], QUERY_RESPONSE, reply, size=size)

    def _remember(self, event_id: object) -> None:
        self._seen.add(event_id)
        self._seen_order.append(event_id)
        while len(self._seen_order) > SEEN_BUFFER:
            self._seen.discard(self._seen_order.popleft())
