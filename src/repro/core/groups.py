"""Group metadata, fork-on-size, and geographic splits (§VII).

A *group family* is the set of group instances that share one
``(attribute, base)`` range — one instance normally, more after forks
(size cap) or a geo split (one instance per region). The
:class:`GroupTable` is the DGM's primary in-memory structure; it is
periodically synchronised to the store and can be rebuilt from
representative reports after a DGM failure (§VIII-A2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import GroupError
from repro.core.naming import group_base, group_name


def serf_address(node_id: str, group: str) -> str:
    """Convention: the p2p agent a node runs for a group has this address.

    Being deterministic, entry points can be computed from node ids alone —
    no address exchange is needed when suggesting groups.
    """
    return f"{node_id}/serf/{group}"


@dataclass
class GroupMember:
    """One node's membership in a group, as known to the DGM."""

    node_id: str
    region: str
    #: The report that first listed the node here: a later report that
    #: lists it in the same region keeps the row.
    joined_at: float


class GroupInfo:
    """One group instance."""

    def __init__(
        self,
        name: str,
        attribute: str,
        base: float,
        cutoff: float,
        *,
        region: Optional[str] = None,
        created_at: float = 0.0,
    ) -> None:
        self.name = name
        self.attribute = attribute
        self.base = base
        self.cutoff = cutoff
        self.region = region
        self.created_at = created_at
        self.updated_at = created_at
        #: Accepting new suggestions? Cleared when the group forks.
        self.open = True
        self.members: Dict[str, GroupMember] = {}
        #: Nodes suggested into this group but not yet seen in a report.
        self.pending: Dict[str, GroupMember] = {}
        self.representatives: Set[str] = set()

    @property
    def range(self) -> Tuple[float, float]:
        return self.base, self.base + self.cutoff

    def size_estimate(self) -> int:
        """Known members plus suggested-but-unreported nodes."""
        if not self.pending:
            return len(self.members)
        return len(self.members.keys() | self.pending.keys())

    def contains_value(self, value: float) -> bool:
        low, high = self.range
        return low <= value < high

    def all_node_ids(self) -> List[str]:
        # Sorted so downstream random *sampling* is reproducible: sets
        # iterate in hash order, which varies across interpreter runs.
        return sorted(self.members.keys() | self.pending.keys())

    def entry_points(self, limit: int = 3) -> List[str]:
        """Serf addresses a joining node can sync with."""
        node_ids = list(self.members.keys()) + list(self.pending.keys())
        return [serf_address(n, self.name) for n in node_ids[:limit]]

    def record_report(self, node_ids: List[str], regions: Dict[str, str], time: float) -> None:
        """Replace the member list from a representative upload.

        A node listed before in the same region keeps its row: the upload
        repeats the same members every report interval.
        """
        previous = self.members
        members = {}
        for node_id in node_ids:
            region = regions.get(node_id, "")
            member = previous.get(node_id)
            if member is None or member.region != region:
                member = GroupMember(node_id, region, time)
            members[node_id] = member
        self.members = members
        for node_id in node_ids:
            self.pending.pop(node_id, None)
        # Pending entries eventually expire via the DGM's transition sweep.
        self.updated_at = time
        self.representatives &= set(node_ids)

    def regions_spanned(self) -> Set[str]:
        regions = {m.region for m in self.members.values() if m.region}
        regions |= {m.region for m in self.pending.values() if m.region}
        return regions

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Group {self.name} size~{self.size_estimate()} open={self.open}>"


class GroupFamily:
    """All instances covering one (attribute, base) range."""

    def __init__(self, attribute: str, base: float, cutoff: float) -> None:
        self.attribute = attribute
        self.base = base
        self.cutoff = cutoff
        self.family_name = group_name(attribute, base, cutoff)
        #: When geo-split, new suggestions are region-qualified.
        self.geo_split = False
        self.instances: Dict[str, GroupInfo] = {}
        self._fork_counter = 0

    def all_instances(self) -> List[GroupInfo]:
        return list(self.instances.values())

    def open_instance_for(self, region: str, max_size: int, time: float) -> GroupInfo:
        """The instance a new node in ``region`` should join, forking if full."""
        candidates = [
            g
            for g in self.instances.values()
            if g.open
            and g.size_estimate() < max_size
            and (not self.geo_split or g.region == region)
        ]
        if candidates:
            # Fill the fullest non-full group first so forks stay rare.
            return max(candidates, key=GroupInfo.size_estimate)
        return self._new_instance(region if self.geo_split else None, time)

    def _new_instance(self, region: Optional[str], time: float) -> GroupInfo:
        name = self.family_name
        if region is not None:
            name = f"{name}@{region}"
        if any(g.name == name for g in self.instances.values()):
            self._fork_counter += 1
            name = f"{name}#{self._fork_counter}"
        group = GroupInfo(
            name,
            self.attribute,
            self.base,
            self.cutoff,
            region=region,
            created_at=time,
        )
        self.instances[group.name] = group
        return group

    def mark_forked(self, group: GroupInfo) -> None:
        """Stop suggesting ``group``; future nodes get a fresh instance."""
        group.open = False

    def enable_geo_split(self) -> None:
        """Switch the family to one-group-per-region for new suggestions."""
        self.geo_split = True


class GroupTable:
    """The DGM's view of every group family, keyed by (attribute, base)."""

    def __init__(self) -> None:
        self._families: Dict[Tuple[str, float], GroupFamily] = {}
        self._by_name: Dict[str, GroupInfo] = {}

    def __len__(self) -> int:
        return len(self._by_name)

    def family(self, attribute: str, base: float, cutoff: float) -> GroupFamily:
        key = (attribute, base)
        if key not in self._families:
            self._families[key] = GroupFamily(attribute, base, cutoff)
        return self._families[key]

    def family_for_value(self, attribute: str, value: float, cutoff: float) -> GroupFamily:
        return self.family(attribute, group_base(value, cutoff), cutoff)

    def get(self, name: str) -> Optional[GroupInfo]:
        return self._by_name.get(name)

    def require(self, name: str) -> GroupInfo:
        group = self._by_name.get(name)
        if group is None:
            raise GroupError(f"unknown group {name!r}")
        return group

    def index(self, group: GroupInfo) -> None:
        self._by_name[group.name] = group

    def all_groups(self) -> List[GroupInfo]:
        return list(self._by_name.values())

    def instances_covering(
        self,
        attribute: str,
        lower: Optional[float],
        upper: Optional[float],
    ) -> List[GroupInfo]:
        """Every existing instance whose range intersects ``[lower, upper]``.

        Intersecting existing instances (rather than enumerating names) keeps
        open-ended bounds cheap and naturally includes forked and geo-split
        instances.
        """
        matches = []
        for family in self._families.values():
            if family.attribute != attribute:
                continue
            low, high = family.base, family.base + family.cutoff
            # Intersect [low, high) with the query interval. A group also
            # matches an upper-bounded query if its range *starts* below the
            # bound (some members may qualify).
            if lower is not None and high <= lower:
                continue
            if upper is not None and low > upper:
                continue
            matches.extend(family.instances.values())
        return matches

    def groups_of_node(self, node_id: str) -> List[GroupInfo]:
        return [
            g
            for g in self._by_name.values()
            if node_id in g.members or node_id in g.pending
        ]
