"""The dict-of-``Member`` membership view: the oracle for ``MembershipTable``.

Formerly ``repro.gossip.member.MemberList``, minus the v2-profile twins, so
it reproduces the **v1** byte stream only. Tests substitute it with
``monkeypatch.setattr(repro.gossip.swim, "MembershipTable", MemberList)``.
It gossips plain wires and never remembers a rejection, so agents built on
it judge every delivery with :meth:`MemberList.can_change`: the arm that
holds the table's interned wires and rejection memo to the plain rule.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.gossip.member import RANK_BY_VALUE, Member, MemberState, supersedes


class MemberList:
    """An agent's local view of the group."""

    def __init__(self, self_name: str, directory: object = None) -> None:
        # ``directory`` is ignored: it only mirrors MembershipTable's signature.
        self.self_name = self_name
        self._members: Dict[str, Member] = {}
        self._alive_cache: Optional[List[Member]] = None
        self._alive_count = 0
        self._suspicion_deadlines: Dict[str, float] = {}
        #: The table's rejection memo, never filled: every wire the agent
        #: hears reaches :meth:`can_change`.
        self.rejected: Dict[int, Dict[str, object]] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[Member]:
        return iter(self._members.values())

    def get(self, name: str) -> Optional[Member]:
        return self._members.get(name)

    def _count_delta(self, old: Optional[Member], new: Optional[Member]) -> None:
        if old is not None and old.state == MemberState.ALIVE:
            self._alive_count -= 1
        if new is not None and new.state == MemberState.ALIVE:
            self._alive_count += 1

    def upsert(self, member: Member) -> None:
        """Insert or unconditionally replace a member record."""
        self._count_delta(self._members.get(member.name), member)
        self._members[member.name] = member
        self._alive_cache = None

    def remove(self, name: str) -> None:
        old = self._members.pop(name, None)
        self._count_delta(old, None)
        self._suspicion_deadlines.pop(name, None)
        self._alive_cache = None

    def apply(self, update: Member) -> bool:
        """Apply an update if it supersedes the current record.

        Returns True if the view changed (the caller should re-broadcast).
        """
        current = self._members.get(update.name)
        if current is None:
            self._count_delta(None, update)
            self._members[update.name] = update
            self._alive_cache = None
            return True
        if supersedes(update.state, update.incarnation, current.state, current.incarnation):
            self._count_delta(current, update)
            self._members[update.name] = update
            self._alive_cache = None
            return True
        return False

    @property
    def alive_count(self) -> int:
        """Number of alive members, maintained incrementally (O(1))."""
        return self._alive_count

    def prewarm(self) -> None:
        """Build the lazy alive view now; pure caching."""
        self.alive()

    def alive(self, *, exclude_self: bool = False) -> List[Member]:
        if self._alive_cache is None:
            self._alive_cache = [
                m for m in self._members.values() if m.state == MemberState.ALIVE
            ]
        if exclude_self:
            return [m for m in self._alive_cache if m.name != self.self_name]
        return list(self._alive_cache)

    def alive_names(self, *, exclude_self: bool = False) -> List[str]:
        return [m.name for m in self.alive(exclude_self=exclude_self)]

    def suspects(self) -> List[Member]:
        return [m for m in self._members.values() if m.state == MemberState.SUSPECT]

    def snapshot_wire(self) -> List[Dict[str, object]]:
        """Full state for push-pull anti-entropy sync."""
        return [m.to_wire() for m in self._members.values()]

    def snapshot_size(self) -> int:
        """Estimated wire size of :meth:`snapshot_wire`."""
        return 2 + sum(m.wire_size() + 1 for m in self._members.values())

    # ----------------------------------------------------- selection helpers
    # Shared backend API with repro.gossip.membership.MembershipTable: the
    # SWIM agent only ever selects peers through these, so swapping the
    # backend cannot perturb the RNG draw sequence. Each helper makes at
    # most one rng draw, over the insertion-ordered alive view.
    def peek(self, name: str) -> Optional[Tuple[int, str]]:
        """``(incarnation, state value)`` or None, without a Member copy."""
        member = self._members.get(name)
        if member is None:
            return None
        return member.incarnation, member.state.value

    def alive_address(self, name: str) -> Optional[str]:
        """``name``'s address if this view holds it alive, else ``None``."""
        member = self._members.get(name)
        if member is None or member.state != MemberState.ALIVE:
            return None
        return member.address

    def wire_of(self, member: Member) -> Dict[str, object]:
        """A plain, uninterned wire: what the agent gossips about ``member``."""
        return member.to_wire()

    def can_change(self, wire: Dict[str, object]) -> bool:
        """Whether the member update ``wire`` can change this view: the
        stale-update rule as ``SwimAgent._apply_updates`` once spelled it."""
        previous = self.peek(wire["n"])
        if previous is None:
            return wire["s"] not in (MemberState.DEAD.value, MemberState.LEFT.value)
        if wire["n"] == self.self_name:
            return True
        if wire["i"] != previous[0]:
            return wire["i"] > previous[0]
        return RANK_BY_VALUE[wire["s"]] > RANK_BY_VALUE[previous[1]]

    def gossip_targets(self, rng: random.Random, max_fanout: int) -> List[str]:
        """Addresses of up to ``max_fanout`` random alive or suspect peers."""
        peers = [
            m for m in self._members.values()
            if m.state in (MemberState.ALIVE, MemberState.SUSPECT)
            and m.name != self.self_name
        ]
        if not peers:
            return []
        sampled = rng.sample(peers, min(max_fanout, len(peers)))
        return [member.address for member in sampled]

    def sync_peer(self, rng: random.Random) -> Optional[str]:
        """Address of one random alive peer for push-pull anti-entropy."""
        peers = self.alive(exclude_self=True)
        if not peers:
            return None
        return rng.choice(peers).address

    def relay_sample(
        self, rng: random.Random, count: int, exclude_name: str
    ) -> List[str]:
        """Addresses of up to ``count`` relays for an indirect probe."""
        relays = [
            member
            for member in self.alive(exclude_self=True)
            if member.name != exclude_name
        ]
        if not relays:
            return []
        sampled = rng.sample(relays, min(count, len(relays)))
        return [member.address for member in sampled]

    def filter_superseding(
        self, updates: Sequence[Dict[str, object]]
    ) -> Sequence[Dict[str, object]]:
        """Reference backend: no prefilter, the apply loop drops stale ones."""
        return updates

    def expire_dead(self, cutoff: float) -> int:
        """Reclaim dead/left records older than ``cutoff``; returns count."""
        stale = [
            member.name
            for member in self._members.values()
            if member.state in (MemberState.DEAD, MemberState.LEFT)
            and member.state_time < cutoff
        ]
        for name in stale:
            self.remove(name)
        return len(stale)

    def set_suspicion_deadline(self, name: str, deadline: float) -> None:
        self._suspicion_deadlines[name] = deadline

    def due_suspects(self, now: float) -> List[str]:
        """Names of suspects whose suspicion deadline has passed."""
        deadlines = self._suspicion_deadlines
        return [
            member.name
            for member in self._members.values()
            if member.state == MemberState.SUSPECT
            and deadlines.get(member.name, float("inf")) <= now
        ]
