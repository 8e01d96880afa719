"""SWIM membership agent.

Implements the protocol from "SWIM: Scalable Weakly-consistent Infection-style
Process Group Membership Protocol" (Das et al., DSN 2002) as deployed by
HashiCorp memberlist/Serf, which the paper uses as its p2p fabric:

* round-robin randomised probing with direct ping, indirect ping-req relays,
  and a suspicion period before declaring a member dead;
* incarnation numbers with self-refutation of suspicion, except by a member
  that has left, which stays gone;
* piggyback dissemination of membership updates over probe and gossip
  messages with bounded retransmissions;
* push-pull anti-entropy state sync on join and periodically thereafter.

The gossip round is memberlist's ``gossip()``: every ``gossip_interval``, on
a grid whose phase is drawn once per start, a member draws up to
``gossip_fanout`` alive or suspect peers and fills one packet per peer from
its broadcast queue, each packet one transmission of what it carries. Like
memberlist, the round only *sends* when there are pending broadcasts, so an
idle group's background traffic is the probe traffic — which is what Fig. 8b
of the paper measures as "normal operation" (<2 KB/s even for 400-member
groups). One deliberate optimisation: an idle member's ticks are not events.
The first tick after a wire reaches an empty queue is posted at the next
instant of the grid, and the chain stops again when the queue empties.
One deliberate omission: memberlist also gossips to a member dead for less
than ``GossipToTheDeadTime``, so that a member wrongly declared dead hears
it. Our round draws no dead member; such a member learns of its death from
push-pull sync and refutes it then (ROADMAP item 15(d)).

Membership bookkeeping lives in the vectorized
:class:`~repro.gossip.membership.MembershipTable`; its oracle, the original
dict-of-``Member`` list, is ``tests/oracles/member_list.py``. Probe timers are
ordinary :meth:`~repro.sim.process.Process.every` timers, each one queued
event re-queued at every firing, and an outstanding probe is its own timeout —
a :class:`~repro.sim.events.Deadline` the ack cancels — so an acked probe
costs three events (tick, ping, ack) and leaves nothing in the event queue.
Nothing a probe round allocates outlives its ack: the timeout is armed with a
bound method the agent made once, and the ack's ``cancel()`` drops its
arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.sim.events import Deadline
from repro.sim.loop import Simulator
from repro.sim.network import Message, Network
from repro.sim.process import Process
from repro.gossip.broadcast import BroadcastQueue, SizedWire
from repro.gossip.member import STATE_BY_VALUE, Member, MemberState
from repro.gossip.membership import MembershipTable, MemberWire, NodeDirectory

PING = "swim.ping"
ACK = "swim.ack"
PING_REQ = "swim.ping-req"
GOSSIP = "swim.gossip"
SYNC_REQ = "swim.sync-req"
SYNC_RESP = "swim.sync-resp"

#: Wire state of a live member, read once per probe tick: Enum.value is a
#: descriptor hop, a module constant isn't.
_ALIVE_VALUE = MemberState.ALIVE.value
_LEFT_VALUE = MemberState.LEFT.value

#: Updates piggybacked on one probe message (ping or ack).
_PROBE_PIGGYBACK = 3


@dataclass
class SwimConfig:
    """Protocol timing knobs.

    ``gossip_interval`` and ``gossip_fanout`` default to the paper's node
    agent settings (§VIII-B): 100 ms and 4.
    """

    probe_interval: float = 1.0
    probe_timeout: float = 0.3
    indirect_probes: int = 3
    suspicion_mult: float = 4.0
    gossip_interval: float = 0.1
    gossip_fanout: int = 4
    piggyback_max: int = 8
    retransmit_mult: int = 4
    sync_interval: float = 30.0
    dead_reclaim_time: float = 60.0

    def suspicion_timeout(self, group_size: int) -> float:
        """memberlist-style suspicion window, scales with log of group size."""
        scale = math.log10(max(group_size, 1) + 1)
        return self.suspicion_mult * scale * self.probe_interval


class _PendingProbe(Deadline):
    """An outstanding probe, which is also its own timeout: armed for the
    direct ack window at the tick, re-armed for the indirect window if that
    one expires, cancelled by the ack."""

    __slots__ = ("target", "tick_time")

    def __init__(self, target: str, tick_time: float) -> None:
        super().__init__()
        self.target = target  # member name
        self.tick_time = tick_time


@dataclass
class _RelayedPing:
    origin_addr: str
    origin_seq: int


class SwimAgent(Process):
    """One SWIM group member.

    Subclassed by :class:`~repro.gossip.agent.SerfAgent`, which adds
    Serf-style user events and queries on the same gossip channel.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        address: str,
        region: str,
        config: Optional[SwimConfig] = None,
        *,
        directory: Optional[NodeDirectory] = None,
    ) -> None:
        super().__init__(sim, network, address, region)
        self.name = name
        self.config = config or SwimConfig()
        self.members = MembershipTable(name, directory)
        self._self_wire_size = 48 + len(name) + len(address) + len(region)
        self.incarnation = 0
        self.broadcasts = BroadcastQueue(self.config.retransmit_mult)
        self.on_member_alive: List[Callable[[Member], None]] = []
        self.on_member_dead: List[Callable[[Member], None]] = []
        self._rng = sim.derive_rng(f"swim/{address}")
        self._seq = 0
        self._pending_probes: Dict[int, _PendingProbe] = {}
        self._relayed: Dict[int, _RelayedPing] = {}
        #: This pass's probe order: ``[:_probe_index]`` is what the pass has
        #: drawn, the rest is what it has not, in no particular order.
        #: ``_probe_size`` is its length and ``_probe_bits`` the bit length of
        #: the last draw's bound, kept so a tick makes no ``len`` or
        #: ``bit_length`` call.
        self._probe_order: List[str] = []
        self._probe_index = 0
        self._probe_size = 0
        self._probe_bits = 0
        #: The address of the member the walk last returned.
        self._probe_address: Optional[str] = None
        #: Whether this life's gossip tick is queued, and which life (one
        #: per start) a queued tick belongs to: a tick queued before a crash
        #: finds a newer life when it fires and does nothing.
        self._gossip_scheduled = False
        self._gossip_life = 0
        #: An instant of this life's gossip grid: ticks fall on it plus
        #: whole intervals. Drawn at start, moved to the last tick when a
        #: chain ends.
        self._gossip_origin = 0.0
        #: Bound once, not per probe or per tick: every probe's direct
        #: timeout is armed with the first and every gossip tick re-posted
        #: with the second. Both keep :meth:`Process.post`'s rules.
        self._direct_timeout = self._direct_probe_timeout
        self._next_gossip_tick = self._gossip_tick
        #: Ids of the custom wires already handled. The update loop rejects a
        #: re-delivered :class:`SizedWire` against it; only a subclass that
        #: handles custom wires (Serf) ever adds one.
        self._seen: set = set()
        self.members.upsert(self._self_member())

        self.on(PING, self._on_ping)
        self.on(ACK, self._on_ack)
        self.on(PING_REQ, self._on_ping_req)
        self.on(GOSSIP, self._on_gossip)
        self.on(SYNC_REQ, self._on_sync_req)
        self.on(SYNC_RESP, self._on_sync_resp)

    # ------------------------------------------------------------- lifecycle
    def on_start(self) -> None:
        self._gossip_life += 1
        self._gossip_scheduled = False
        # memberlist staggers its gossip ticker by a random fraction of an
        # interval at start; the ticks keep that phase.
        self._gossip_origin = (
            self.sim.now + self._rng.random() * self.config.gossip_interval
        )
        self.every(
            self.config.probe_interval,
            self._probe_tick,
            jitter=self.config.probe_interval * 0.1,
        )
        self.every(
            self.config.sync_interval,
            self._sync_tick,
            jitter=self.config.sync_interval * 0.2,
        )
        # A node that starts with a pre-seeded view (the converged steady
        # state every sweep begins from) materializes its membership caches
        # now, not lazily on the first in-run tick.
        self.members.prewarm()

    def join(self, entry_points: List[str]) -> None:
        """Join via push-pull sync with the given entry addresses."""
        self._broadcast_member(self._self_member())
        for entry in entry_points:
            if entry != self.address:
                self.send(
                    entry,
                    SYNC_REQ,
                    {"state": self.members.snapshot_wire()},
                    size=10 + self.members.snapshot_size(),
                )

    def leave(self) -> None:
        """Gracefully announce departure, let it flush for a few gossip
        rounds, then :meth:`release` this agent: a node that leaves a group
        never starts its agent for that group again."""
        me = self._self_member()
        me.state = MemberState.LEFT
        self.members.upsert(me)
        self._broadcast_member(me)
        self.after(self.config.gossip_interval * 5, self.release)

    def release(self) -> None:
        super().release()
        # What points back at the agent: its two bound methods, and each
        # probe still pending, armed with the first. An armed probe still
        # fires (and is dropped, the agent being stopped): no event moves.
        self._direct_timeout = self._next_gossip_tick = None
        self._pending_probes.clear()

    # -------------------------------------------------------------- self info
    def _self_member(self) -> Member:
        return Member(
            self.name,
            self.address,
            self.region,
            incarnation=self.incarnation,
            state=MemberState.ALIVE,
            state_time=self.sim.now,
        )

    @property
    def incarnation(self) -> int:
        """This member's incarnation number.

        Setting it rebuilds ``_self_wire``, ``_self_member().to_wire()``: what
        probe traffic says about this member. Probes always advertise *alive*
        (a probing node is alive by definition), so the dict only changes
        with the incarnation, and a probe reads it without a check.
        Receivers never mutate payloads, so the dict is shared by every
        message that carries it; a refutation builds a new one.
        """
        return self._incarnation

    @incarnation.setter
    def incarnation(self, value: int) -> None:
        self._incarnation = value
        self._self_wire = {
            "n": self.name,
            "a": self.address,
            "r": self.region,
            "i": value,
            "s": _ALIVE_VALUE,
        }

    def alive_members(self, *, exclude_self: bool = False) -> List[Member]:
        return self.members.alive(exclude_self=exclude_self)

    def group_size(self) -> int:
        return self.members.alive_count

    # ------------------------------------------------------------- broadcast
    def _broadcast_member(self, member: Member) -> None:
        # The interned wire of this fact, shared with every other agent that
        # gossips it. It carries no "t" (receivers read a missing one as a
        # member wire); the 8 bytes over the record model that type tag.
        self.broadcasts.enqueue(
            ("member", member.name),
            self.members.wire_of(member),
            self.group_size(),
            size=member.wire_size() + 8,
        )
        self._ensure_gossip_scheduled()

    def broadcast_payload(self, key_kind: str, key_id: str, payload: Dict[str, object]) -> None:
        """Queue an arbitrary payload for epidemic dissemination (used by Serf)."""
        self.broadcasts.enqueue((key_kind, key_id), payload, self.group_size())
        self._ensure_gossip_scheduled()

    def _ensure_gossip_scheduled(self) -> None:
        """Queue this life's next gossip tick, at the first instant of its
        grid after now, unless one is queued already."""
        if self._gossip_scheduled or not self.running:
            return
        self._gossip_scheduled = True
        interval = self.config.gossip_interval
        # In (0, interval]: a chain that ended at this very instant ticks
        # next one interval on, not twice now.
        wait = interval - (self.sim.now - self._gossip_origin) % interval
        self.sim.post(wait, self._next_gossip_tick, self._gossip_life)

    def _gossip_tick(self, life: int) -> None:
        """One gossip round, memberlist's ``gossip()``: up to
        ``gossip_fanout`` alive or suspect peers, one packet each, each
        packet one take from the broadcast queue. Peers whose takes come
        out the same share one fan-out send; the packet's modelled size is
        the updates' sizes plus 8.

        Posted on the simulator directly, it keeps :meth:`Process.post`'s
        rules itself (dropped once stopped, deferred while paused), so it
        sends through the network without re-checking them."""
        if life != self._gossip_life or not self.running:
            return
        if self.paused:
            self._deferred.append((self._gossip_tick, (life,)))
            return
        broadcasts = self.broadcasts
        if broadcasts._queue:
            targets = self.members.gossip_targets(
                self._rng, self.config.gossip_fanout
            )
            if targets:
                first = 0
                for updates, size, count in broadcasts.take_batches(
                    self.config.piggyback_max, len(targets)
                ):
                    self.network.send_fanout(
                        self.address,
                        targets[first:first + count],
                        GOSSIP,
                        {"u": updates},
                        size=size + 8,
                    )
                    first += count
        if broadcasts._queue:
            # The chain goes on: the next tick is this life's, still queued.
            self.sim.post(self.config.gossip_interval, self._next_gossip_tick, life)
        else:
            self._gossip_scheduled = False
            self._gossip_origin = self.sim.now

    # ---------------------------------------------------------------- probing
    def _probe_tick(self) -> None:
        target_name = self._next_probe_target()
        if target_name is None:
            return
        self._seq += 1
        seq = self._seq
        probe = _PendingProbe(target_name, self.sim.now)
        self._pending_probes[seq] = probe
        updates, usize = self.broadcasts.take_with_size(_PROBE_PIGGYBACK)
        self.send(
            self._probe_address,
            PING,
            {"seq": seq, "from": self._self_wire, "u": updates},
            size=24 + self._self_wire_size + usize,
        )
        # On the simulator directly, with no per-probe bound method or
        # (callback, args) tuple: _direct_probe_timeout keeps post's rules.
        self.sim.arm(probe, self.config.probe_timeout, self._direct_timeout, seq)

    def _next_probe_target(self) -> Optional[str]:
        """The next member of this pass's random probe order.

        An incremental Fisher-Yates shuffle: each tick swaps one name, drawn
        uniformly from the pass's not-yet-probed suffix, into the next slot,
        so every member of the pass is probed once, in a uniformly random
        order, at O(1) per probe and nothing drawn up front. The draw is
        ``i + rng._randbelow(n - i)`` inlined against ``getrandbits`` — the
        same bits, without a Python call per draw. A pass's order is the
        alive view when it wraps: a member drawn after it stopped being
        alive is skipped, and one that joined mid-pass waits for the next.
        The walk that shuffled the whole pass on wrap is the oracle,
        ``tests/oracles/probe_order.py``.
        """
        order = self._probe_order
        i = self._probe_index
        n = self._probe_size
        k = self._probe_bits
        alive_address = self.members.alive_address
        getrandbits = self._rng.getrandbits
        while True:
            if i >= n:
                # alive_names returns a fresh list: the pass owns it.
                order = self._probe_order = self.members.alive_names(
                    exclude_self=True
                )
                n = self._probe_size = len(order)
                i = 0
                if not n:
                    self._probe_index = 0
                    return None
                k = n.bit_length()
            m = n - i
            # The bound shrinks by one per draw, so its bit length by at
            # most one.
            if m < 1 << (k - 1):
                k -= 1
            r = getrandbits(k)
            while r >= m:
                r = getrandbits(k)
            j = i + r
            name = order[j]
            order[j] = order[i]
            order[i] = name
            i += 1
            address = alive_address(name)
            if address is not None:
                self._probe_index = i
                self._probe_bits = k
                self._probe_address = address
                return name

    def _direct_probe_timeout(self, seq: int) -> None:
        """The direct ack window expired. Armed on the simulator directly, it
        hands itself to :meth:`Process._post_fire` when it cannot run now,
        which drops it once stopped and defers it while paused."""
        if self.paused or not self.running:
            self._post_fire(self._direct_timeout, (seq,))
            return
        probe = self._pending_probes.get(seq)
        if probe is None:
            return
        # No direct ack. Whatever happens next, the probe is given up on at
        # the instant a timeout armed at the tick would have fired.
        self.arm(
            probe,
            self.config.probe_timeout * 3,
            self._final_probe_timeout,
            seq,
            since=probe.tick_time,
        )
        self._send_ping_reqs(seq, probe.target)

    def _send_ping_reqs(self, seq: int, target_name: str) -> None:
        target = self.members.get(target_name)
        if target is None:
            return
        relays = self.members.relay_sample(
            self._rng, self.config.indirect_probes, target_name
        )
        if not relays:
            return
        target_wire = target.to_wire()
        me_wire = self._self_wire
        wire_size = 24 + target.wire_size() + self._self_wire_size
        for relay_address in relays:
            self.send(
                relay_address,
                PING_REQ,
                {"seq": seq, "target": target_wire, "from": me_wire},
                size=wire_size,
            )

    def _final_probe_timeout(self, seq: int) -> None:
        probe = self._pending_probes.pop(seq, None)
        if probe is None:
            return
        member = self.members.get(probe.target)
        if member is not None and member.state == MemberState.ALIVE:
            self._suspect(member)

    def _on_ping(self, message: Message) -> None:
        payload = message.payload
        updates = payload.get("u")
        if updates:
            self._apply_updates(updates)
        sender = payload["from"]
        if self.members.can_change(sender):
            self._apply_member_update(sender)
        updates, usize = self.broadcasts.take_with_size(_PROBE_PIGGYBACK)
        self.send(
            message.src,
            ACK,
            {"seq": payload["seq"], "from": self._self_wire, "u": updates},
            size=24 + self._self_wire_size + usize,
        )

    def _on_ack(self, message: Message) -> None:
        payload = message.payload
        updates = payload.get("u")
        if updates:
            self._apply_updates(updates)
        sender = payload["from"]
        if self.members.can_change(sender):
            self._apply_member_update(sender)
        seq = payload["seq"]
        relay = self._relayed.pop(seq, None)
        if relay is not None:
            # We pinged on someone's behalf; forward the good news.
            self.send(
                relay.origin_addr,
                ACK,
                {"seq": relay.origin_seq, "from": payload["from"], "u": []},
                size=90,
            )
            return
        probe = self._pending_probes.pop(seq, None)
        if probe is not None:
            # cancel(), not the flag: the entry waits in its FIFO until its
            # instant, and cancel() lets go of the callback and arguments.
            probe.cancel()

    def _on_ping_req(self, message: Message) -> None:
        payload = message.payload
        sender = payload["from"]
        if self.members.can_change(sender):
            self._apply_member_update(sender)
        self._seq += 1
        relay_seq = self._seq
        self._relayed[relay_seq] = _RelayedPing(message.src, payload["seq"])
        updates, usize = self.broadcasts.take_with_size(_PROBE_PIGGYBACK)
        self.send(
            payload["target"]["a"],
            PING,
            {"seq": relay_seq, "from": self._self_wire, "u": updates},
            size=24 + self._self_wire_size + usize,
        )
        # Forget the relay if no ack arrives in time.
        self.post(self.config.probe_timeout * 2, self._relayed.pop, relay_seq, None)

    # -------------------------------------------------------------- suspicion
    def _suspect(self, member: Member) -> None:
        suspect = Member(
            member.name,
            member.address,
            member.region,
            incarnation=member.incarnation,
            state=MemberState.SUSPECT,
            state_time=self.sim.now,
        )
        if self.members.apply(suspect):
            self._broadcast_member(suspect)
            self._schedule_suspicion_timeout(suspect)

    def _schedule_suspicion_timeout(self, member: Member) -> None:
        deadline = self.sim.now + self.config.suspicion_timeout(self.group_size())
        self.members.set_suspicion_deadline(member.name, deadline)
        self.post(
            deadline - self.sim.now,
            self._suspicion_expired,
            member.name,
            member.incarnation,
        )

    def _suspicion_expired(self, name: str, incarnation: int) -> None:
        member = self.members.get(name)
        if (
            member is None
            or member.state != MemberState.SUSPECT
            or member.incarnation != incarnation
        ):
            return
        dead = Member(
            member.name,
            member.address,
            member.region,
            incarnation=member.incarnation,
            state=MemberState.DEAD,
            state_time=self.sim.now,
        )
        if self.members.apply(dead):
            self._broadcast_member(dead)
            self._notify_dead(dead)

    # ---------------------------------------------------------------- updates
    def _apply_updates(self, updates) -> None:
        """Apply a batch of piggybacked updates.

        Epidemic dissemination makes nearly every wire here a re-delivery, so
        the loop settles those inline, recognising a wire by its type: a
        custom wire whose id was seen costs one set probe, an interned member
        wire the table has already rejected one identity test against the
        table's rejection memo. Any other member wire costs one call into the
        table that owns the stale rule. Custom wires are tested first: a
        queried group delivers them millions of times a run, member wires
        mostly under churn.
        """
        seen = self._seen
        rejected = self.members.rejected
        can_change = self.members.can_change
        for wire in updates:
            kind = type(wire)
            if kind is SizedWire:
                if wire.id not in seen:
                    self.handle_custom_update(wire)
            elif kind is MemberWire:
                if rejected.get(wire.slot) is not wire and can_change(wire):
                    self._apply_member_update(wire)
            elif wire.get("t", "m") != "m":
                # A hand-built plain-dict custom wire; the hook dedupes it.
                self.handle_custom_update(wire)
            elif can_change(wire):
                self._apply_member_update(wire)

    def _apply_member_update(self, wire: Dict[str, object]) -> None:
        """Apply a member wire the table said can change the view."""
        update = Member.from_wire(wire, self.sim.now)
        if update.name == self.name:
            self._handle_update_about_self(update)
            return
        previous = self.members.peek(update.name)
        previous_state = STATE_BY_VALUE[previous[1]] if previous is not None else None
        if self.members.apply(update):
            # Re-broadcast: epidemic dissemination requires forwarding
            # any update that changed our view.
            self._broadcast_member(update)
            if update.state == MemberState.SUSPECT:
                self._schedule_suspicion_timeout(update)
            if update.state == MemberState.ALIVE and previous_state != MemberState.ALIVE:
                self._notify_alive(update)
            if (
                update.state in (MemberState.DEAD, MemberState.LEFT)
                and previous_state not in (MemberState.DEAD, MemberState.LEFT)
            ):
                self._notify_dead(update)

    def handle_custom_update(self, wire: Dict[str, object]) -> None:
        """Hook for subclasses (Serf user events); default ignores."""

    def _handle_update_about_self(self, update: Member) -> None:
        if update.state == MemberState.ALIVE:
            return
        own = self.members.peek(self.name)
        if own is not None and own[1] == _LEFT_VALUE:
            # A member that has left refutes nothing (memberlist refutes only
            # if it has not left): the accusation is its own leave echoing
            # back, or a peer's verdict on a node about to stop, and a
            # refutation would re-announce it alive to peers that would then
            # wait for it until suspicion declared it dead.
            return
        if update.incarnation >= self.incarnation:
            # Refute: I am alive. Bump incarnation past the accusation.
            self.incarnation = update.incarnation + 1
            me = self._self_member()
            self.members.upsert(me)
            self._broadcast_member(me)

    def _notify_alive(self, member: Member) -> None:
        for callback in self.on_member_alive:
            callback(member)

    def _notify_dead(self, member: Member) -> None:
        for callback in self.on_member_dead:
            callback(member)

    # -------------------------------------------------------------- anti-entropy
    def _sync_tick(self) -> None:
        self._reclaim_dead()
        peer_address = self.members.sync_peer(self._rng)
        if peer_address is None:
            return
        self.send(
            peer_address,
            SYNC_REQ,
            {"state": self.members.snapshot_wire()},
            size=10 + self.members.snapshot_size(),
        )

    def _reclaim_dead(self) -> None:
        self.members.expire_dead(self.sim.now - self.config.dead_reclaim_time)

    def _on_sync_req(self, message: Message) -> None:
        self.send(
            message.src,
            SYNC_RESP,
            {"state": self.members.snapshot_wire()},
            size=10 + self.members.snapshot_size(),
        )
        self._merge_state(message.payload["state"])

    def _on_sync_resp(self, message: Message) -> None:
        self._merge_state(message.payload["state"])

    def _merge_state(self, state) -> None:
        # Anti-entropy snapshots are mostly re-delivery of known state; the
        # table drops the stale bulk in one vectorized pass.
        self._apply_updates(self.members.filter_superseding(state))

    def _on_gossip(self, message: Message) -> None:
        """Hand a gossip packet's updates to the update loop, unless every
        one is a custom wire already seen: most packets a queried group
        delivers are whole repeats, and this turns one away without the
        loop's frame. At the first wire that is not, the whole list goes to
        the loop unchanged; re-reading the seen prefix is a no-op there."""
        updates = message.payload.get("u", ())
        seen = self._seen
        for wire in updates:
            if type(wire) is not SizedWire or wire.id not in seen:
                self._apply_updates(updates)
                return
