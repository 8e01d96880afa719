"""The Dynamic Groups Manager (§VIII-A2).

Responsibilities:

* **suggestions** — map a (node, attribute, value) to a group via the
  deterministic naming function, handing back entry points (or "start a new
  group" for the first node);
* **group tables** — the primary in-memory :class:`~repro.core.groups.GroupTable`,
  periodically synchronised to the store and rebuilt from representative
  reports after a failure;
* **transition table** — nodes between groups are tracked so the router can
  pull those joining a group its query plans (§VII);
* **representatives** — a small random subset of each group uploads the
  member list periodically; the DGM (re)appoints them as membership churns;
* **forks** — groups exceeding the size cap stop receiving new nodes;
* **geo splits** — families spanning too much geography switch to per-region
  instances and existing members are asked to move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.groups import GroupInfo, GroupMember, GroupTable
from repro.core.registrar import NodeRecord

#: Representatives per group uploading member lists (§VII). The paper's
#: evaluation averaged ~16 representatives in total (fn. 4), i.e. about one
#: per occupied group.
REPRESENTATIVES_PER_GROUP = 1
#: How long a node may sit in the transition table before being swept.
TRANSITION_TTL = 30.0


@dataclass
class Transition:
    """A node that asked for a group but has not yet shown up in a report."""

    node_id: str
    attribute: str
    group: str
    since: float


class DynamicGroupsManager:
    """Group lifecycle component of the FOCUS service.

    The transition table is keyed by ``(node_id, attribute)``: a node moving
    between ram groups is only *missing* from ram-group coverage, so the
    router only needs to direct-query it for ram-routed queries — its other
    attribute groups still cover it (§VII) — and only when it is joining a
    group the query could pull (:meth:`transitions_to_pull`).
    """

    def __init__(self, service) -> None:
        self.service = service
        self.groups = GroupTable()
        self.transitions: Dict[tuple, Transition] = {}

    # ------------------------------------------------------------ suggestions
    def suggest_for_registration(self, record: NodeRecord) -> List[Dict[str, object]]:
        """Group suggestions for every dynamic attribute of a new node.

        On a sharded plane, registrations are replicated to every shard and
        each shard only suggests for the group families it owns — the
        router merges the per-shard suggestion lists back into one reply.
        """
        return [
            self.suggest(record.node_id, record.region, attribute, value)
            for attribute, value in sorted(record.last_dynamic.items())
            if self.service.owns_family(attribute, value)
        ]

    def suggest(
        self,
        node_id: str,
        region: str,
        attribute: str,
        value: float,
    ) -> Dict[str, object]:
        """Suggest the group for one attribute value (registration or move)."""
        config = self.service.config
        cutoff = config.cutoff_for(attribute)
        family = self.groups.family_for_value(attribute, float(value), cutoff)
        group = family.open_instance_for(region, config.max_group_size, self.service.sim.now)
        self.groups.index(group)
        entry_points = group.entry_points()
        start_new = not entry_points
        # Entry points are captured before adding this node, so a node is
        # never told to bootstrap from itself.
        group.pending[node_id] = GroupMember(node_id, region, self.service.sim.now)
        self.transitions[(node_id, attribute)] = Transition(
            node_id, attribute, group.name, self.service.sim.now
        )
        representative = self.maybe_appoint_representative(group, node_id)
        if group.size_estimate() >= config.max_group_size:
            family.mark_forked(group)
        record = self.service.registrar.get(node_id)
        if record is not None:
            record.last_dynamic[attribute] = float(value)
        self.service.metrics.counter("suggestions").inc()
        return {
            "name": group.name,
            "attribute": attribute,
            "range": list(group.range),
            "entry_points": entry_points,
            "start_new": start_new,
            "representative": representative,
            "report_interval": config.report_interval,
            "fanout": config.fanout_for(attribute),
        }

    def maybe_appoint_representative(self, group: GroupInfo, node_id: str) -> bool:
        """Make ``node_id`` a representative of ``group`` if it is short of
        :data:`REPRESENTATIVES_PER_GROUP`; whether it did."""
        if len(group.representatives) < REPRESENTATIVES_PER_GROUP:
            group.representatives.add(node_id)
            return True
        return False

    def node_left_group(self, node_id: str, group_name: str) -> None:
        """A node announced it is leaving ``group_name`` (attribute moved)."""
        group = self.groups.get(group_name)
        if group is None:
            return
        group.members.pop(node_id, None)
        group.pending.pop(node_id, None)
        group.representatives.discard(node_id)

    def forget_node(self, node_id: str) -> None:
        for group in self.groups.groups_of_node(node_id):
            self.node_left_group(node_id, group.name)
        for key in [k for k in self.transitions if k[0] == node_id]:
            del self.transitions[key]

    def transitions_to_pull(self, attribute: str, plan: List[GroupInfo]) -> List[str]:
        """Nodes in transition for ``attribute`` that a query whose candidate
        groups are ``plan`` (every wave) pulls directly: those joining a
        group of the plan, which may not have them in its Serf view yet, and
        those whose target group has left the group table, which no group
        pull reaches. A node joining any other group is skipped for the
        reason that group is: its range misses the query's term.

        The target is the group the DGM suggested when the move began. A
        node whose value re-enters the term's range while that move is in
        flight keeps a non-candidate target until its next move request
        reaches the DGM, and is not asked in that window: inclusiveness
        during an in-flight value change is traded for the pulls saved."""
        planned = {group.name for group in plan}
        groups = self.groups
        return [
            t.node_id
            for (node_id, attr), t in self.transitions.items()
            if attr == attribute
            and (t.group in planned or groups.get(t.group) is None)
        ]

    # ---------------------------------------------------------------- reports
    def handle_report(self, params: Dict[str, object]) -> Dict[str, object]:
        """A representative uploaded its group member list."""
        group_name = str(params["group"])
        reporter = str(params["reporter"])
        members = list(params.get("members") or ())
        group = self.groups.get(group_name)
        if group is None:
            # DGM restarted and lost its tables: rebuild from the report
            # (§VIII-A2, failure recovery "comes naturally").
            group = self._rebuild_group(group_name)
            if group is None:
                return {"ok": False, "representative": False}
        # Reports carry bare node ids; regions come from the registration
        # records (saves most of the upload bandwidth).
        node_ids = [str(m) for m in members]
        regions = {}
        for node_id in node_ids:
            record = self.service.registrar.get(node_id)
            regions[node_id] = record.region if record is not None else ""
        group.record_report(node_ids, regions, self.service.sim.now)
        for node_id in node_ids:
            key = (node_id, group.attribute)
            transition = self.transitions.get(key)
            if transition is not None and transition.group == group_name:
                del self.transitions[key]
        still_representative = self._refresh_representatives(group, reporter)
        self._check_fork(group)
        self._check_geo_split(group)
        self.service.metrics.counter("group_reports").inc()
        return {"ok": True, "representative": still_representative}

    def _rebuild_group(self, group_name: str) -> Optional[GroupInfo]:
        from repro.core.naming import parse_group_name

        try:
            parsed = parse_group_name(group_name.split("#")[0])
            cutoff = self.service.config.cutoff_for(parsed.attribute)
        except Exception:
            return None
        family = self.groups.family(parsed.attribute, parsed.base, cutoff)
        group = GroupInfo(
            group_name,
            parsed.attribute,
            parsed.base,
            cutoff,
            region=parsed.region,
            created_at=self.service.sim.now,
        )
        family.instances[group_name] = group
        self.groups.index(group)
        return group

    def _refresh_representatives(self, group: GroupInfo, reporter: str) -> bool:
        """Maintain exactly :data:`REPRESENTATIVES_PER_GROUP` live reps.

        Dead reps (absent from the reported member list) are dropped, new
        ones are appointed from the membership, and excess reps are trimmed
        deterministically (so concurrent reporters converge instead of
        demoting each other forever). The return value tells the reporter
        whether to keep reporting.
        """
        target = REPRESENTATIVES_PER_GROUP
        live = {n for n in group.representatives if n in group.members}
        if reporter not in live and len(live) < target and reporter in group.members:
            live.add(reporter)
        if len(live) < target:
            candidates = [n for n in group.members if n not in live]
            rng = self.service.rng
            for node_id in rng.sample(candidates, min(target - len(live), len(candidates))):
                live.add(node_id)
                self._send_appointment(group, node_id)
        elif len(live) > target:
            for node_id in sorted(live, reverse=True)[: len(live) - target]:
                live.discard(node_id)
        group.representatives = live
        return reporter in live

    def _send_appointment(self, group: GroupInfo, node_id: str) -> None:
        self.service.call(
            node_id,
            "node.be-representative",
            {"group": group.name, "interval": self.service.config.report_interval},
            on_reply=lambda result: None,
            timeout=self.service.config.query_timeout,
        )

    def _check_fork(self, group: GroupInfo) -> None:
        if group.open and group.size_estimate() >= self.service.config.max_group_size:
            family = self.groups.family(group.attribute, group.base, group.cutoff)
            family.mark_forked(group)
            self.service.metrics.counter("group_forks").inc()

    def _check_geo_split(self, group: GroupInfo) -> None:
        threshold_km = self.service.config.geo_split_km
        if threshold_km is None or group.region is not None:
            return
        regions = group.regions_spanned()
        if len(regions) < 2:
            return
        topology = self.service.network.topology
        known = [r for r in regions if any(r == reg.name for reg in topology.regions)]
        if len(known) < 2 or topology.max_distance_km(known) <= threshold_km:
            return
        family = self.groups.family(group.attribute, group.base, group.cutoff)
        if not family.geo_split:
            family.enable_geo_split()
            self.service.metrics.counter("geo_splits").inc()
            self._migrate_after_geo_split(group)

    def _migrate_after_geo_split(self, group: GroupInfo) -> None:
        """Ask each member to re-request a (now region-qualified) group.

        Moves are staggered to avoid a reconfiguration storm.
        """
        rng = self.service.rng
        for node_id in group.all_node_ids():
            delay = rng.uniform(0.0, self.service.config.report_interval)

            def move(node_id=node_id) -> None:
                self.service.call(
                    node_id,
                    "node.move-group",
                    {"attribute": group.attribute, "from_group": group.name},
                    on_reply=lambda result: None,
                )

            self.service.after(delay, move)

    # ------------------------------------------------------------ maintenance
    def check_stale_groups(self) -> None:
        """Re-appoint reporting duty for groups that went silent.

        If every representative of a group crashed, nobody uploads its member
        list any more; after a few missed report intervals the DGM appoints a
        fresh random member. The next report then prunes the dead reps.
        """
        interval = self.service.config.report_interval
        stale_cutoff = self.service.sim.now - 3 * interval
        for group in self.groups.all_groups():
            if group.members and group.updated_at < stale_cutoff:
                rng = self.service.rng
                node_id = rng.choice(sorted(group.members))
                group.representatives.add(node_id)
                self._send_appointment(group, node_id)

    @staticmethod
    def sweep_interval() -> float:
        """Period of :meth:`sweep_transitions`: half the TTL, at least 1 s."""
        return max(TRANSITION_TTL / 2, 1.0)

    def sweep_transitions(self) -> None:
        """Expire transition entries older than :data:`TRANSITION_TTL`."""
        cutoff = self.service.sim.now - TRANSITION_TTL
        expired = [key for key, t in self.transitions.items() if t.since < cutoff]
        for key in expired:
            del self.transitions[key]

    def sync_to_store(self) -> None:
        """Persist the primary group table (async, off the query path)."""
        store = self.service.store_client
        if store is None:
            return
        for group in self.groups.all_groups():
            store.put(
                "groups",
                group.name,
                {
                    "attribute": group.attribute,
                    "range": list(group.range),
                    "members": sorted(group.members.keys()),
                    "representatives": sorted(group.representatives),
                },
            )
