"""Materialized views — the paper's §XII extension, implemented.

    "we wish to explore materialized views in FOCUS by creating specific
    p2p groups representing frequently issued queries. We wish to extend
    this concept by supporting event triggers — change in node state will
    automatically update the materialized view."

A *view* is a standing query materialised as its own p2p group:

* creating a view pushes its definition to every registered node (and to
  nodes that register later);
* each node evaluates the view predicate locally and joins/leaves the view
  group **whenever its own attributes change** — the event trigger;
* the query router answers a query that matches a view definition by pulling
  the view group directly: every member matches by construction, so the pull
  is maximally directed (no range over-approximation at all);
* view groups reuse the whole group machinery — entry points, pending
  tracking, representatives uploading member lists, stale-group recovery.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.groups import GroupInfo, GroupMember
from repro.core.query import Query, decode_query
from repro.errors import FocusError


def view_group_name(view_id: str) -> str:
    """The p2p group name backing a materialized view."""
    return f"view::{view_id}"


def is_view_group(group_name: str) -> bool:
    """Whether a group name denotes a materialized-view group."""
    return group_name.startswith("view::")


class View:
    """One registered materialized view."""

    __slots__ = ("view_id", "query", "group", "created_at")

    def __init__(self, view_id: str, query: Query, group: GroupInfo, created_at: float) -> None:
        self.view_id = view_id
        self.query = query
        self.group = group
        self.created_at = created_at


class ViewManager:
    """Service-side view registry and membership bookkeeping."""

    def __init__(self, service) -> None:
        self.service = service
        self.views: Dict[str, View] = {}
        self._counter = 0

    # ----------------------------------------------------------- definition
    def create_view(self, query_json: Dict[str, object],
                    view_id: Optional[str] = None) -> View:
        """Register a view and push its definition to every node."""
        query = decode_query(query_json)
        if query.limit is not None:
            raise FocusError("views materialise full result sets; drop the limit")
        if view_id is None:
            self._counter += 1
            view_id = f"v{self._counter}"
        if view_id in self.views:
            raise FocusError(f"view {view_id!r} already exists")
        group = GroupInfo(
            view_group_name(view_id),
            attribute="__view__",
            base=0.0,
            cutoff=float("inf"),
            created_at=self.service.sim.now,
        )
        view = View(view_id, query, group, self.service.sim.now)
        self.views[view_id] = view
        for node_id in list(self.service.registrar.nodes):
            self._push_definition(node_id, view)
        self.service.metrics.counter("views_created").inc()
        return view

    def drop_view(self, view_id: str) -> None:
        view = self.views.pop(view_id, None)
        if view is None:
            return
        for node_id in view.group.all_node_ids():
            self.service.call(
                node_id,
                "node.drop-view",
                {"view_id": view_id},
                on_reply=lambda result: None,
            )

    def definitions_for_registration(self) -> List[Dict[str, object]]:
        """View definitions handed to newly registering nodes."""
        return [
            {"view_id": v.view_id, "query": v.query.to_json()}
            for v in self.views.values()
        ]

    def _push_definition(self, node_id: str, view: View) -> None:
        self.service.call(
            node_id,
            "node.view-def",
            {"view_id": view.view_id, "query": view.query.to_json()},
            on_reply=lambda result: None,
        )

    # ----------------------------------------------------------- membership
    def handle_join(self, params: Dict[str, object]) -> Dict[str, object]:
        """A node whose state matches asks to join the view group."""
        view = self.views.get(str(params["view_id"]))
        if view is None:
            return {"error": "unknown view"}
        node_id = str(params["node_id"])
        region = str(params.get("region", ""))
        group = view.group
        entry_points = group.entry_points()
        start_new = not entry_points
        group.pending[node_id] = GroupMember(node_id, region, self.service.sim.now)
        representative = self.service.dgm.maybe_appoint_representative(
            group, node_id
        )
        return {
            "name": group.name,
            "entry_points": entry_points,
            "start_new": start_new,
            "representative": representative,
            "report_interval": self.service.config.report_interval,
        }

    def handle_leave(self, params: Dict[str, object]) -> Dict[str, object]:
        view = self.views.get(str(params["view_id"]))
        if view is None:
            return {"ok": False}
        node_id = str(params["node_id"])
        view.group.members.pop(node_id, None)
        view.group.pending.pop(node_id, None)
        view.group.representatives.discard(node_id)
        return {"ok": True}

    def handle_report(self, params: Dict[str, object]) -> Dict[str, object]:
        """Representative upload for a view group (same wire as DGM reports)."""
        group_name = str(params["group"])
        view = self.view_for_group(group_name)
        if view is None:
            return {"ok": False, "representative": False}
        node_ids = [str(m) for m in params.get("members") or ()]
        regions = {}
        for node_id in node_ids:
            record = self.service.registrar.get(node_id)
            regions[node_id] = record.region if record is not None else ""
        view.group.record_report(node_ids, regions, self.service.sim.now)
        still = self.service.dgm._refresh_representatives(
            view.group, str(params["reporter"])
        )
        return {"ok": True, "representative": still}

    def forget_node(self, node_id: str) -> None:
        """Remove a deregistered node from every view group."""
        for view in self.views.values():
            view.group.members.pop(node_id, None)
            view.group.pending.pop(node_id, None)
            view.group.representatives.discard(node_id)

    def view_for_group(self, group_name: str) -> Optional[View]:
        if not is_view_group(group_name):
            return None
        return self.views.get(group_name.split("::", 1)[1])

    # -------------------------------------------------------------- routing
    def match_query(self, query: Query) -> Optional[View]:
        """A view whose definition matches this query's constraints exactly.

        Limit and freshness are delivery parameters, not constraints, so
        they are ignored for matching.
        """
        wanted = _constraint_key(query)
        for view in self.views.values():
            if _constraint_key(view.query) == wanted:
                return view
        return None

    def check_stale_view_groups(self) -> None:
        """Mirror of the DGM's stale-group recovery for view groups."""
        interval = self.service.config.report_interval
        cutoff = self.service.sim.now - 3 * interval
        for view in self.views.values():
            group = view.group
            if group.members and group.updated_at < cutoff:
                node_id = self.service.rng.choice(sorted(group.members))
                group.representatives.add(node_id)
                self.service.call(
                    node_id,
                    "node.be-representative",
                    {"group": group.name, "interval": interval},
                    on_reply=lambda result: None,
                )


def _constraint_key(query: Query) -> tuple:
    """The query's terms in name order: :meth:`Query.cache_key` without the
    limit, which a view ignores."""
    return tuple(sorted((t.name, t.lower, t.upper, t.equals) for t in query.terms))
