"""The Query Router (§VIII-A3) — directed pulling (§VI).

Processing order for a query:

1. **cache** — first step; a hit answers immediately if it satisfies the
   query's freshness bound.
2. **static path** — queries touching only static attributes are answered
   from the store: one scan of the smallest static-attribute table, whose
   replicas return only the rows matching the query's terms, at most its
   limit (a key the replicas disagree on sends the coordinator back to an
   unfiltered read; see :meth:`repro.store.cluster.StoreClient.scan`).
   Without a store, from the registry.
3. **directed pull** — otherwise the router picks the dynamic term whose
   candidate groups contain the fewest nodes (the "smallest group"
   optimisation for multi-constraint queries), sends the query to one random
   member per candidate group (load-balanced routing), includes for
   inclusiveness the nodes of the transition table that are joining a
   candidate group (any wave) or a group gone from the group table, pulled
   directly (a node joining any other group cannot match, as that group's
   range misses the term), aggregates, and answers. With a limit, groups
   are pulled in waves that cover twice what is still missing,
   densest first: by the share of a group's members that also sit in a
   candidate group of every other dynamic term (the DGM's member lists), so
   the first wave can meet the limit instead of waiting out a group where
   few can match. Ties, and a one-term query, go smallest first. Member
   lists can be a report interval stale, so no group is ever left out.
4. **delegation** — under heavy load the router returns the group candidate
   lists instead of fanning out itself, and the application pulls directly;
   delegated responses are not cached (§VI).

A configured timeout bounds the whole operation (§VIII-A3). A group that
answers ``short`` (a member alive in its aggregator's view never answered)
or stays silent through its retry leaves the answer incomplete: it is
flagged ``timed_out`` and not cached, unless the query's limit was met
anyway. Each path ends
by calling the ``respond`` it was handed; when that reply leaves the server
(fixed processing time, serial queue or CPU lane) is the service's decision.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Set

from repro.core.groups import GroupInfo
from repro.core.query import (
    DecodedQueryJson,
    Query,
    answer_payload,
    decode_query,
    match_record,
)
from repro.core.registrar import static_table_name
from repro.errors import QueryError
from repro.sim.rpc import DEFERRED


class ActiveQuery:
    """State of one in-flight dynamic query."""

    def __init__(self, query: Query, respond, started_at: float) -> None:
        self.query = query
        #: What every pull of this query ships: built once, shared by the
        #: group and transition pulls, gone with this state.
        self.wire = DecodedQueryJson.of(query)
        self.respond = respond
        self.started_at = started_at
        self.matches: Dict[str, dict] = {}
        self.source = "groups"
        self.pending_groups: Set[str] = set()
        self.remaining_plan: List[GroupInfo] = []
        self.pending_transitions = 0
        self.groups_queried = 0
        self.finished = False
        self.retried: Set[str] = set()
        #: A group answered short or never answered: the matches may be
        #: incomplete.
        self.short = False

    @property
    def limit_reached(self) -> bool:
        return self.query.limit is not None and len(self.matches) >= self.query.limit

    def trimmed_matches(self) -> List[dict]:
        matches = list(self.matches.values())
        if self.query.limit is not None:
            matches = matches[: self.query.limit]
        return matches


class QueryRouter:
    """Query-processing component of the FOCUS service."""

    def __init__(self, service) -> None:
        self.service = service
        self.outstanding = 0

    # ----------------------------------------------------------------- entry
    def handle(self, params: Dict[str, object], respond) -> object:
        query = decode_query(params["query"])  # type: ignore[arg-type]
        service = self.service
        service.metrics.counter("queries").inc()
        service.resources.charge_query()

        if service.config.cache_enabled:
            entry = service.cache.lookup_entry(query, service.sim.now)
            if entry is not None:
                respond(entry.answer(query, service.sim.now, "cache"))
                return DEFERRED

        view = service.views.match_query(query)
        if view is not None and self._view_usable(view):
            self._view_pull(query, view, respond)
            return DEFERRED

        static_terms, dynamic_terms = self._split_terms(query)
        if not dynamic_terms:
            self._static_query(query, static_terms, respond)
            return DEFERRED

        # A shard-plane sub-query pins the attribute the front router chose,
        # so every shard of the scatter set pulls the same term's groups and
        # the merged answer has exactly one over-approximated range.
        routed = params.get("routed_attribute")
        if routed is not None:
            pinned = [t for t in dynamic_terms if t.name == routed]
            if pinned:
                dynamic_terms = pinned

        attribute, plan = self._plan_groups(query, dynamic_terms)
        if (
            service.config.delegation_enabled
            and self.outstanding >= service.config.delegation_threshold
        ):
            self._delegate(query, attribute, plan, respond)
            return DEFERRED

        self._directed_pull(query, attribute, plan, respond)
        return DEFERRED

    # ----------------------------------------------------- materialized views
    def _view_usable(self, view) -> bool:
        """A view answers queries once populated (or once it has had time to
        populate and is genuinely empty)."""
        settle = self.service.config.report_interval
        return (
            view.group.size_estimate() > 0
            or view.created_at + settle <= self.service.sim.now
        )

    def _view_pull(self, query: Query, view, respond) -> None:
        """Answer from the view's dedicated group: maximally directed —
        every member matches the standing query by construction."""
        self.service.metrics.counter("view_queries").inc()
        state = ActiveQuery(query, respond, self.service.sim.now)
        state.source = "view"
        self.outstanding += 1
        if view.group.size_estimate() == 0:
            self._finish(state, timed_out=False)
            return
        self._query_group(state, view.group)
        self.service.post(self.service.config.query_timeout, self._timeout, state)

    def _split_terms(self, query: Query):
        schema = self.service.config.schema
        static_terms, dynamic_terms = [], []
        for term in query.terms:
            spec = schema.maybe_get(term.name)
            if spec is not None and spec.is_dynamic:
                dynamic_terms.append(term)
            else:
                static_terms.append(term)
        return static_terms, dynamic_terms

    # ------------------------------------------------------------ static path
    def _static_query(self, query: Query, static_terms, respond) -> None:
        registrar = self.service.registrar
        store = self.service.store_client

        def finish(matches: List[dict]) -> None:
            self._maybe_cache(query, matches)
            respond(answer_payload(matches, "static"))

        if store is None:
            # No store deployed: answer from the in-memory registry.
            matching = (r for r in registrar.nodes.values() if query.matches(r.static))
            finish([
                match_record(r.node_id, dict(r.static), r.region)
                for r in islice(matching, query.limit)
            ])
            return
        smallest = min(
            static_terms, key=lambda t: registrar_table_size(registrar, t.name)
        )
        # The replicas filter: every row the scan returns matches.
        store.scan(
            static_table_name(smallest.name),
            lambda rows: finish([
                match_record(
                    row.key,
                    dict(row.value.get("attributes") or {}),
                    row.value.get("region", ""),
                )
                for row in rows
            ]),
            where=[term.to_json() for term in static_terms],
            limit=query.limit,
            on_error=lambda exc: respond(
                answer_payload([], "static", error=str(exc))
            ),
        )

    # --------------------------------------------------------- directed pull
    def _plan_groups(self, query: Query, dynamic_terms):
        """Candidate groups for the term with the fewest total nodes, densest
        first: the share of a group's members that sit in a candidate group
        of every other term, ties smallest first."""
        groups_table = self.service.dgm.groups
        covering: List[List[GroupInfo]] = []
        for term in dynamic_terms:
            if term.equals is not None:
                raise QueryError(
                    f"dynamic attribute {term.name!r} requires numeric bounds"
                )
            covering.append(
                groups_table.instances_covering(term.name, term.lower, term.upper)
            )
        totals = [sum(g.size_estimate() for g in groups) for groups in covering]
        pick = min if self.service.config.smallest_group_routing else max
        chosen = pick(range(len(covering)), key=totals.__getitem__)
        plan = covering[chosen]
        attribute = dynamic_terms[chosen].name
        if len(covering) == 1:
            # Smallest groups first: cheapest way to satisfy a limit.
            return attribute, sorted(plan, key=GroupInfo.size_estimate)
        # A member outside some other term's candidate groups cannot match.
        # Member lists can be a report interval stale, so this only orders
        # the plan: a group where none can match is still pulled last.
        eligible = set.intersection(*(
            {node for group in groups for node in (*group.members, *group.pending)}
            for index, groups in enumerate(covering)
            if index != chosen
        ))

        def rank(group: GroupInfo):
            nodes = group.members.keys() | group.pending.keys()
            if not nodes:
                # First: a later wave of empty groups alone would start no
                # pull, and nothing would advance the query to its end.
                return (-1.0, 0)
            return (-len(nodes & eligible) / len(nodes), len(nodes))

        return attribute, sorted(plan, key=rank)

    def _directed_pull(
        self, query: Query, attribute: str, plan: List[GroupInfo], respond
    ) -> None:
        service = self.service
        state = ActiveQuery(query, respond, service.sim.now)
        self.outstanding += 1

        # Only nodes joining a candidate group of the routed attribute (or a
        # group gone from the table) can be missed by the group fan-out and
        # still match; everyone else is covered or out of range.
        transitions = service.dgm.transitions_to_pull(attribute, plan)
        state.pending_transitions = len(transitions)
        for node_id in transitions:
            self._query_transitioning(state, node_id)

        if query.limit is None:
            first_wave, state.remaining_plan = plan, []
        else:
            first_wave, state.remaining_plan = self._take_wave(plan, query.limit)
        if not first_wave and state.pending_transitions == 0:
            self._finish(state, timed_out=False)
            return
        for group in first_wave:
            self._query_group(state, group)
        # Empty group instances produce no RPCs; if the whole wave was empty
        # advance now (launching the next wave or finishing) instead of
        # hanging until the timeout. Replies cannot have arrived yet —
        # delivery is asynchronous — so this cannot double-finish.
        if not state.pending_groups:
            self._advance(state)
        if not state.finished:
            service.post(service.config.query_timeout, self._timeout, state)

    @staticmethod
    def _take_wave(plan: List[GroupInfo], limit: int):
        """Prefix of groups whose estimated population covers 2x the limit."""
        wave: List[GroupInfo] = []
        covered = 0
        index = 0
        while index < len(plan) and covered < 2 * limit:
            wave.append(plan[index])
            covered += plan[index].size_estimate()
            index += 1
        return wave, plan[index:]

    def _query_group(self, state: ActiveQuery, group: GroupInfo) -> None:
        service = self.service
        candidates = group.all_node_ids()
        if not candidates:
            return
        # Load-balanced routing: a different random member each time (§VII).
        member = service.rng.choice(candidates)
        state.pending_groups.add(group.name)
        state.groups_queried += 1
        service.metrics.counter("group_queries").inc()
        service.resources.charge_fanout()

        def on_reply(result, group=group) -> None:
            self._group_answered(state, group, result)

        def on_timeout(group=group, member=member) -> None:
            self._group_timed_out(state, group, member)

        service.call(
            member,
            "node.group-query",
            {"group": group.name, "query": state.wire},
            on_reply=on_reply,
            on_timeout=on_timeout,
            timeout=service.config.query_timeout,
        )

    def _group_answered(self, state: ActiveQuery, group: GroupInfo, result) -> None:
        state.pending_groups.discard(group.name)
        if state.finished:
            return
        result = result or {}
        if result.get("short"):
            state.short = True
        for record in result.get("matches", ()):
            state.matches[str(record["node"])] = record
        self._advance(state)

    def _group_timed_out(self, state: ActiveQuery, group: GroupInfo, member: str) -> None:
        """Retry once via a different member (resilience to node failure);
        a group that stays silent after that is missing from the answer."""
        state.pending_groups.discard(group.name)
        if state.finished:
            return
        others = [n for n in group.all_node_ids() if n != member]
        if others and group.name not in state.retried:
            state.retried.add(group.name)
            substitute = self.service.rng.choice(others)
            state.pending_groups.add(group.name)

            def on_reply(result, group=group) -> None:
                self._group_answered(state, group, result)

            self.service.call(
                substitute,
                "node.group-query",
                {"group": group.name, "query": state.wire},
                on_reply=on_reply,
                on_timeout=lambda: self._group_timed_out(state, group, substitute),
                timeout=self.service.config.query_timeout,
            )
            return
        state.short = True
        self._advance(state)

    def _query_transitioning(self, state: ActiveQuery, node_id: str) -> None:
        """Directly query a node that is between groups (§VII)."""
        self.service.resources.charge_fanout()

        def on_reply(result) -> None:
            state.pending_transitions -= 1
            if state.finished:
                return
            if result and result.get("match"):
                state.matches[str(result["node"])] = match_record(
                    result["node"], result.get("attrs", {}), result.get("region", "")
                )
            self._advance(state)

        def on_timeout() -> None:
            state.pending_transitions -= 1
            self._advance(state)

        self.service.call(
            node_id,
            "node.query",
            {"query": state.wire},
            on_reply=on_reply,
            on_timeout=on_timeout,
            timeout=self.service.config.query_timeout,
        )

    def _advance(self, state: ActiveQuery) -> None:
        if state.finished:
            return
        if state.limit_reached:
            self._finish(state, timed_out=False)
            return
        if not state.pending_groups and state.remaining_plan:
            assert state.query.limit is not None
            shortfall = state.query.limit - len(state.matches)
            wave, state.remaining_plan = self._take_wave(
                state.remaining_plan, max(shortfall, 1)
            )
            for group in wave:
                self._query_group(state, group)
            return
        if not state.pending_groups and state.pending_transitions <= 0:
            self._finish(state, timed_out=False)

    def _timeout(self, state: ActiveQuery) -> None:
        if not state.finished:
            self.service.metrics.counter("query_timeouts").inc()
            self._finish(state, timed_out=True)

    def _finish(self, state: ActiveQuery, *, timed_out: bool) -> None:
        state.finished = True
        self.outstanding -= 1
        matches = state.trimmed_matches()
        timed_out = timed_out or (state.short and not state.limit_reached)
        if not timed_out:
            self._maybe_cache(state.query, list(state.matches.values()))
        state.respond(answer_payload(
            matches,
            state.source,
            timed_out=timed_out,
            groups_queried=state.groups_queried,
        ))

    # ------------------------------------------------------------- delegation
    def _delegate(
        self, query: Query, attribute: str, plan: List[GroupInfo], respond
    ) -> None:
        self.service.metrics.counter("delegated_queries").inc()
        payload = {
            "matches": [],
            "source": "delegated",
            "delegated": {
                "groups": [
                    {"name": g.name, "candidates": g.all_node_ids()} for g in plan
                ],
                "transitions": self.service.dgm.transitions_to_pull(attribute, plan),
            },
        }
        respond(payload)

    # -------------------------------------------------------------- responses
    def _maybe_cache(self, query: Query, matches: List[dict]) -> None:
        if self.service.config.cache_enabled:
            self.service.cache.store(query, matches, self.service.sim.now)


def registrar_table_size(registrar, attribute: str) -> int:
    """Number of nodes carrying a static attribute (smallest-table choice)."""
    return registrar.static_counts.get(attribute, 0)
