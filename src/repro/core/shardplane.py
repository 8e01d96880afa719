"""The partitioned FOCUS serving plane: shards, one routing table, replicas.

The single ``FocusService`` is the scaling wall for large fleets — every
registration, report and query funnels through one process. This module
splits it N ways while keeping every wire protocol intact:

* **sharding** — the attribute/group tables are partitioned by *group
  family* over a consistent-hash ring (:class:`FamilyShardMap`, built on
  :class:`~repro.store.hashring.ConsistentHashRing`). A family key is the
  region- and fork-agnostic part of a group name (``ram_mb.2048``), so all
  geo-split and forked instances of a family live on one shard and a family
  never straddles shards. A view's group (``view::<id>``) is a family of
  its own.
* **one routing rule** — a front :class:`ShardRouter` owns the public
  ``focus`` address and sends each call to the shards it concerns.
  Registrations and deregistrations go to every shard
  (:data:`BROADCAST_CALLS`): each shard registers the node but suggests
  groups only for the families it owns, and the router merges the replies
  in shard order. A call about one group — a report, a view's join, leave
  or drop (:data:`OWNED_CALLS`), a suggestion, a view's creation — goes to
  ``shard_map.owner_of_group(group)``. A query goes to the owners of its
  routed attribute's covering families, pins that attribute in the
  sub-query, and the replies are merged in shard order; a one-shard plan is
  a scatter of one.
* **CQRS read replicas** — with ``replica_reads`` on, one
  :class:`RegionReadReplica` per region answers bounded-staleness queries
  from a region-local read-through cache, refreshed by materialized-view
  pushes from the router (``replica.view-update``) every
  :data:`REPLICA_REFRESH_INTERVAL` seconds.

Every answer that did not come straight from the groups carries an explicit
``staleness_ms`` bound, and re-cached answers backdate their cache entries
(see :meth:`~repro.core.cache.QueryCache.store`), so staleness compounds
honestly across cache → replica → cache hops.

Nothing here re-decodes or re-measures what passes through: a query is
forwarded as the :class:`~repro.core.query.DecodedQueryJson` it arrived as,
and a merged or cached answer re-ships the shards' match records themselves,
each charged the size it carries.

``shards=1`` (the default, with ``replica_reads`` off) bypasses all of this
and returns the legacy single :class:`~repro.core.service.FocusService` —
byte-identical to the pre-sharding code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.core.admission import CircuitBreaker
from repro.core.cache import QueryCache
from repro.core.config import FocusConfig
from repro.core.naming import groups_covering
from repro.core.query import DecodedQueryJson, Query, answer_payload, decode_query
from repro.core.service import FocusService
from repro.core.views import view_group_name, _constraint_key
from repro.errors import FocusError
from repro.sim.loop import Simulator
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.rpc import DEFERRED, RpcMixin
from repro.store.cluster import StoreCluster
from repro.store.hashring import ConsistentHashRing

#: Virtual nodes per shard on the family hash ring (balance smoothness).
SHARD_VIRTUAL_NODES = 64
#: How often the router re-materializes view results to region replicas.
REPLICA_REFRESH_INTERVAL = 5.0


def family_key_of_group(group: str) -> str:
    """The shard-ownership key of a group name.

    Strips the fork suffix (``#2``) and geo-split region qualifier
    (``@us-west-2``): every instance of a family shares one owner.
    """
    return group.split("#", 1)[0].partition("@")[0]


class FamilyShardMap:
    """Consistent-hash assignment of group families to shard addresses."""

    def __init__(self, shard_addresses: List[str]) -> None:
        self.ring = ConsistentHashRing(SHARD_VIRTUAL_NODES)
        for address in shard_addresses:
            self.ring.add_node(address)

    def owner(self, family_key: str) -> str:
        """The shard owning a family key (``attribute.base``)."""
        return self.ring.primary_for(family_key)

    def owner_of_group(self, group: str) -> str:
        """The shard owning a group: its family's owner."""
        return self.owner(family_key_of_group(group))


def _merge_registrations(replies: List[Optional[dict]]) -> dict:
    """The shards' registration replies as one: the union of their group
    suggestions and view definitions, or the error if none suggested any."""
    groups: List[dict] = []
    views: Dict[str, dict] = {}
    error = None
    for result in replies:
        if result:
            error = result.get("error") or error
            groups.extend(result.get("groups") or ())
            for definition in result.get("views") or ():
                views[str(definition["view_id"])] = definition
    if error is not None and not groups:
        return {"error": error}
    groups.sort(key=lambda s: str(s.get("attribute", "")))
    return {"groups": groups, "views": [views[vid] for vid in sorted(views)]}


#: Calls every shard must see: method -> merge of the replies, in shard
#: order, ``None`` for a shard that timed out.
BROADCAST_CALLS: Dict[str, Callable[[List[Optional[dict]]], dict]] = {
    "focus.register": _merge_registrations,
    "focus.deregister": lambda replies: {"ok": True},
}


def _view_group(params) -> str:
    return view_group_name(str(params["view_id"]))


#: Calls one shard owns: method -> (the group the call is about, from its
#: params; the reply when the owner does not answer). A representative
#: whose shard is down keeps its duty, so its next report lands after
#: failover.
OWNED_CALLS: Dict[str, tuple] = {
    "focus.group-report": (
        lambda params: str(params.get("group", "")),
        {"ok": False, "representative": True},
    ),
    "focus.join-view": (_view_group, {"error": "view shard unavailable"}),
    "focus.leave-view": (_view_group, {"ok": False}),
    "focus.drop-view": (_view_group, {"ok": False}),
}


class ShardRouter(Process, RpcMixin):
    """Front door of the sharded serving plane.

    Owns the public FOCUS address, so node agents and applications are
    oblivious to the partitioning. Stateless with respect to group
    membership — it holds only the family map, a read-through response
    cache, and the view registry (a query matching a view goes to the view
    group's owner).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        shard_map: FamilyShardMap,
        shard_addresses: List[str],
        *,
        address: str = "focus",
        region: str,
        config: FocusConfig,
    ) -> None:
        Process.__init__(self, sim, network, address, region)
        self.init_rpc()
        self.enable_rpc_idempotency()
        self.config = config
        self.shard_map = shard_map
        self.shard_addresses = shard_addresses
        self.metrics = MetricsRegistry()
        #: Router-level read-through cache for hot queries: a hit answers
        #: without touching any shard. Entries inherit the merged answer's
        #: staleness (backdated fetch time), so freshness bounds hold
        #: end-to-end.
        self.cache = QueryCache()
        #: view_id -> {"query_json", "key"}; a query whose constraints match
        #: a view's key goes to the view group's owner.
        self.views: Dict[str, Dict[str, object]] = {}
        self._view_counter = 0
        #: Region read replicas fed by the materialization loop.
        self.replicas: List["RegionReadReplica"] = []
        #: Per-shard circuit breakers on the query path (None unless
        #: ``config.overload.breaker_enabled``). A breaker that opens takes
        #: its shard out of the scatter set; matching queries degrade to
        #: stale cache reads (stamped with their true ``staleness_ms``)
        #: instead of queueing onto a drowning shard.
        self.breakers: Optional[Dict[str, CircuitBreaker]] = None
        overload = config.overload
        if overload.breaker_enabled:
            self.breakers = {
                shard: CircuitBreaker(
                    failure_threshold=overload.breaker_failure_threshold,
                    min_volume=overload.breaker_min_volume,
                    latency_threshold=overload.breaker_latency_threshold,
                    window=overload.breaker_window,
                    cooldown=overload.breaker_cooldown,
                    half_open_probes=overload.breaker_half_open_probes,
                )
                for shard in shard_addresses
            }

        for method in BROADCAST_CALLS:
            self.serve(method, partial(self._rpc_broadcast, method))
        for method in OWNED_CALLS:
            self.serve(method, partial(self._rpc_owned, method))
        self.serve("focus.suggest", self._rpc_suggest)
        self.serve("focus.query", self._rpc_query)
        self.serve("focus.create-view", self._rpc_create_view)
        # Replaces the plain row: the view leaves the router's registry too.
        self.serve("focus.drop-view", self._rpc_drop_view)

    # ------------------------------------------------------------- lifecycle
    def on_start(self) -> None:
        if self.replicas:
            self.every(REPLICA_REFRESH_INTERVAL, self._refresh_replicas)

    def on_stop(self) -> None:
        self.reset_rpc()

    # -------------------------------------------------------------- helpers
    def _shard_timeout(self) -> float:
        # The shard enforces config.query_timeout internally and answers
        # with a timed_out payload; the router's own RPC timeout sits above
        # it so shard-side timeouts surface as data, and only a crashed (or
        # saturated) shard trips the router-level timeout.
        return self.config.query_timeout + 1.0

    def _forward(self, shard: str, method: str, params, respond, *, fallback) -> None:
        """Proxy one call to a shard; answer a copy of ``fallback`` if it is
        down."""
        self.call(
            shard,
            method,
            params,
            on_reply=respond,
            on_timeout=lambda: respond(dict(fallback)),
            timeout=self._shard_timeout(),
        )

    def _gather(self, shards: List[str], method: str, params, done, *, each=None) -> None:
        """Call ``method`` on every shard in ``shards``; once each has
        answered or timed out, hand ``done`` the replies in shard order (not
        arrival order, so everything built from them is deterministic),
        ``None`` for a shard that timed out. ``each(shard, reply)`` sees
        every outcome as it lands."""
        replies: List[Optional[dict]] = [None] * len(shards)
        pending = [len(shards)]

        def answered(index: int, result=None) -> None:
            replies[index] = result
            if each is not None:
                each(shards[index], result)
            pending[0] -= 1
            if pending[0] == 0:
                done(replies)

        for index, shard in enumerate(shards):
            self.call(
                shard,
                method,
                params,
                on_reply=partial(answered, index),
                on_timeout=partial(answered, index),
                timeout=self._shard_timeout(),
            )

    # --------------------------------------------------------- control calls
    def _rpc_broadcast(self, method, params, respond, message):
        merge = BROADCAST_CALLS[method]
        self._gather(
            self.shard_addresses, method, params,
            lambda replies: respond(merge(replies)),
        )
        return DEFERRED

    def _rpc_owned(self, method, params, respond, message):
        group_of, fallback = OWNED_CALLS[method]
        owner = self.shard_map.owner_of_group(group_of(params))
        self._forward(owner, method, params, respond, fallback=fallback)
        return DEFERRED

    def _rpc_suggest(self, params, respond, message):
        """Route a suggestion to the owner of the target value's family.

        A move between families owned by different shards is split: the old
        family's owner gets a ``focus.leave-group`` so its membership and
        representative bookkeeping stay accurate, and the new owner gets the
        suggest (without the leave, which it could not serve).
        """
        try:
            family = self.config.family_of(
                str(params["attribute"]), float(params["value"])
            )
        except (FocusError, ValueError) as exc:  # unknown or static attribute
            return {"error": str(exc)}
        target = self.shard_map.owner_of_group(family)
        forward = dict(params)
        leaving = forward.get("leaving")
        if leaving:
            old_owner = self.shard_map.owner_of_group(str(leaving))
            if old_owner != target:
                forward.pop("leaving")
                self.call(
                    old_owner,
                    "focus.leave-group",
                    {"node_id": params["node_id"], "group": leaving},
                    on_reply=lambda result: None,
                    timeout=self._shard_timeout(),
                )
        self._forward(
            target, "focus.suggest", forward, respond,
            fallback={"error": f"shard {target} unavailable"},
        )
        return DEFERRED

    def _rpc_create_view(self, params, respond, message):
        view_id = params.get("view_id")
        if view_id is None:
            self._view_counter += 1
            view_id = f"v{self._view_counter}"
        view_id = str(view_id)
        if view_id in self.views:
            return {"error": f"view {view_id!r} already exists"}
        owner = self.shard_map.owner_of_group(view_group_name(view_id))
        forward = dict(params)
        forward["view_id"] = view_id

        def on_reply(result) -> None:
            if result and not result.get("error"):
                query = decode_query(params["query"])
                self.views[view_id] = {
                    "query_json": DecodedQueryJson.of(query),
                    "key": _constraint_key(query),
                }
            respond(result)

        self._forward(
            owner, "focus.create-view", forward, on_reply,
            fallback={"error": f"shard {owner} unavailable"},
        )
        return DEFERRED

    def _rpc_drop_view(self, params, respond, message):
        self.views.pop(str(params["view_id"]), None)
        return self._rpc_owned("focus.drop-view", params, respond, message)

    # ---------------------------------------------------------------- queries
    def _rpc_query(self, params, respond, message):
        query = decode_query(params["query"])
        self.metrics.counter("queries").inc()

        if self.config.cache_enabled:
            entry = self.cache.lookup_entry(query, self.sim.now)
            if entry is not None:
                return entry.answer(query, self.sim.now, "cache")

        view_id = self._match_view(query)
        if view_id is None:
            attribute, owners = self._scatter_plan(query)
        else:
            attribute = None
            owners = [self.shard_map.owner_of_group(view_group_name(view_id))]
        self._scatter_gather(params, query, attribute, owners, respond)
        return DEFERRED

    def _match_view(self, query: Query) -> Optional[str]:
        wanted = _constraint_key(query)
        for view_id in sorted(self.views):
            if self.views[view_id]["key"] == wanted:
                return view_id
        return None

    def _scatter_plan(self, query: Query):
        """Routed attribute + owning shards for a query.

        The router has no group tables, so the single server's smallest-group
        routing is approximated by the *fewest enumerated covering families*
        — the same tables-free signal both sides can compute. Bounds are
        clamped to the schema's declared value range before enumeration. A
        static-only query has no routed attribute and goes to the statics
        shard: every shard holds the full registry, and that one also owns
        the store tables.
        """
        schema = self.config.schema
        best_attribute: Optional[str] = None
        best_families: Optional[List[str]] = None
        for term in query.terms:
            spec = schema.maybe_get(term.name)
            if spec is None or not spec.is_dynamic:
                continue
            families = groups_covering(
                term.name,
                term.lower if term.equals is None else None,
                term.upper if term.equals is None else None,
                spec.cutoff,
                value_min=spec.min_value,
                value_max=spec.max_value,
            )
            prefer_smallest = self.config.smallest_group_routing
            better = best_families is None or (
                len(families) < len(best_families)
                if prefer_smallest
                else len(families) > len(best_families)
            )
            if better:
                best_attribute, best_families = term.name, families
        if best_attribute is None:
            return None, self.shard_addresses[:1]
        owner_set = {self.shard_map.owner(key) for key in best_families}
        owners = [a for a in self.shard_addresses if a in owner_set]
        return best_attribute, owners

    # --------------------------------------------------------- circuit breaker
    def _breaker_blocks(self, owners: List[str]) -> bool:
        """Whether any targeted shard's breaker refuses this query.

        Checked with :meth:`~repro.core.admission.CircuitBreaker.peek` so a
        plan that ends up degraded never consumes half-open probe slots on
        the shards that would have allowed it.
        """
        if self.breakers is None:
            return False
        now = self.sim.now
        return any(not self.breakers[owner].peek(now) for owner in owners)

    def _breaker_record(self, sent_at: float, shard: str, result) -> None:
        """Feed one shard outcome to its breaker (latency counts)."""
        if self.breakers is None:
            return
        breaker = self.breakers.get(shard)
        if breaker is None:
            return
        now = self.sim.now
        if result is None or result.get("error") or result.get("timed_out"):
            breaker.record_failure(now)
        else:
            breaker.record_success(now, now - sent_at)

    def _respond_degraded(self, query: Query, respond) -> None:
        """Breaker-open fallback: a stale cached answer beats a timeout.

        Freshness bounds are knowingly violated — that is the graceful-
        degradation contract — but never silently: the answer's true age is
        stamped in ``staleness_ms`` and the source says ``breaker-stale``.
        With nothing cached the client gets an immediate ``breaker-open``
        error instead of waiting out a doomed timeout.
        """
        self.metrics.counter("breaker_degraded").inc()
        entry = self.cache.lookup_stale(query) if self.config.cache_enabled else None
        if entry is not None:
            respond(entry.answer(query, self.sim.now, "breaker-stale"))
            return
        respond(answer_payload([], "breaker-open", error="breaker-open"))

    def _scatter_gather(self, params, query, attribute, owners, respond) -> None:
        """Send a query to the shards of its plan and merge their answers.

        ``attribute`` (the routed one, if any) is pinned in the sub-query.
        With breakers on, a plan touching any open shard degrades whole
        (stale cache or breaker-open) rather than returning a silently
        partial merge missing the hot shard's matches.
        """
        if self._breaker_blocks(owners):
            self._respond_degraded(query, respond)
            return
        if self.breakers is not None:
            now = self.sim.now
            for owner in owners:
                self.breakers[owner].allow(now)
        if len(owners) > 1:
            self.metrics.counter("scatter_queries").inc()
        if attribute is not None:
            params = dict(params)
            params["routed_attribute"] = attribute
        self._gather(
            owners, "focus.query", params,
            lambda replies: self._absorb_and_respond(query, owners, replies, respond),
            each=partial(self._breaker_record, self.sim.now),
        )

    def _absorb_and_respond(self, query: Query, owners, partials, respond) -> None:
        """Merge shard answers, cache the result, respond to the caller.

        ``partials[i]`` is ``owners[i]``'s reply (``None`` if it timed out).
        A shard that shed or throttled the query answers with ``error`` and
        no matches, so the merge lacks its share: the reply then says so
        with ``partial: true`` and the refusing shards in ``refused_shards``
        (a complete reply carries neither key).
        """
        matches: Dict[str, dict] = {}
        staleness = 0.0
        groups_queried = 0
        timed_out = False
        delegated_groups: List[dict] = []
        delegated_transitions: List[str] = []
        seen_any = False
        for partial_reply in partials:
            if not partial_reply:
                timed_out = True  # a shard never answered (crash/saturation)
                continue
            seen_any = True
            for record in partial_reply.get("matches") or ():
                matches.setdefault(str(record["node"]), record)
            staleness = max(staleness, float(partial_reply.get("staleness_ms", 0.0)))
            groups_queried += int(partial_reply.get("groups_queried", 0))
            timed_out = timed_out or bool(partial_reply.get("timed_out", False))
            delegated = partial_reply.get("delegated")
            if delegated:
                delegated_groups.extend(delegated.get("groups") or ())
                delegated_transitions.extend(delegated.get("transitions") or ())
        if delegated_groups or delegated_transitions:
            # Delegated shards returned candidates instead of results; hand
            # the merged candidate set to the client, which pulls directly.
            respond({
                "matches": [],
                "source": "delegated",
                "delegated": {
                    "groups": delegated_groups,
                    "transitions": delegated_transitions,
                },
            })
            return
        merged = list(matches.values())
        refused = [
            owner for owner, partial_reply in zip(owners, partials)
            if partial_reply and partial_reply.get("error")
        ]
        if not timed_out and not refused and seen_any and self.config.cache_enabled:
            self.cache.store(query, merged, self.sim.now, staleness_ms=staleness)
        if query.limit is not None:
            merged = merged[: query.limit]
        if not seen_any:
            source = "shard-timeout"
        elif len(partials) == 1 and partials[0]:
            source = str(partials[0].get("source", "groups"))
        else:
            source = "groups"
        payload = answer_payload(
            merged, source,
            timed_out=timed_out, groups_queried=groups_queried,
            staleness_ms=staleness,
            error=partials[0]["error"] if refused and len(partials) == 1 else None,
        )
        if refused:
            payload["partial"] = True
            payload["refused_shards"] = refused
        respond(payload)

    # ----------------------------------------------------- view materialization
    def _refresh_replicas(self) -> None:
        """CQRS write side → read side: re-materialize every view's result
        set and push it to each region replica with its staleness bound."""
        for view_id in sorted(self.views):
            info = self.views[view_id]

            def on_reply(result, info=info) -> None:
                if not result or result.get("timed_out") or result.get("error"):
                    return
                payload = {
                    "query": info["query_json"],
                    "matches": list(result.get("matches") or ()),
                    "staleness_ms": float(result.get("staleness_ms", 0.0)),
                }
                for replica in self.replicas:
                    self.call(
                        replica.address,
                        "replica.view-update",
                        payload,
                        on_reply=lambda r: None,
                        timeout=self._shard_timeout(),
                    )

            self.call(
                self.shard_map.owner_of_group(view_group_name(view_id)),
                "focus.query",
                {"query": info["query_json"]},
                on_reply=on_reply,
                timeout=self._shard_timeout(),
            )


class RegionReadReplica(Process, RpcMixin):
    """A per-region read-only FOCUS endpoint (the CQRS read side).

    Applications in the region query it with a freshness bound; it answers
    from its local cache (materialized views pushed by the router, plus
    read-through fills) whenever the cached answer is fresh enough, and
    forwards to the router otherwise. Every local answer reports its age as
    ``staleness_ms``; read-through fills inherit and compound the upstream
    staleness via the cache's backdated fetch time.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        router_address: str,
        *,
        region: str,
        config: FocusConfig,
    ) -> None:
        Process.__init__(self, sim, network, replica_address(region), region)
        self.init_rpc()
        self.router_address = router_address
        self.config = config
        self.cache = QueryCache()
        self.metrics = MetricsRegistry()
        self.serve("focus.query", self._rpc_query)
        self.serve("replica.view-update", self._rpc_view_update)

    def _rpc_query(self, params, respond, message):
        query = decode_query(params["query"])
        entry = self.cache.lookup_entry(query, self.sim.now)
        if entry is not None:
            self.metrics.counter("replica_hits").inc()
            return entry.answer(query, self.sim.now, "replica")
        self.metrics.counter("replica_misses").inc()

        def on_reply(result) -> None:
            if result and not result.get("timed_out") and not result.get("error") \
                    and not result.get("delegated"):
                self.cache.store(
                    query,
                    list(result.get("matches") or ()),
                    self.sim.now,
                    staleness_ms=float(result.get("staleness_ms", 0.0)),
                )
            respond(result)

        self.call(
            self.router_address,
            "focus.query",
            params,
            on_reply=on_reply,
            on_timeout=lambda: respond(answer_payload([], "timeout", timed_out=True)),
            timeout=self.config.query_timeout * 3,
        )
        return DEFERRED

    def _rpc_view_update(self, params, respond, message):
        query = decode_query(params["query"])
        self.cache.store(
            query,
            list(params.get("matches") or ()),
            self.sim.now,
            staleness_ms=float(params.get("staleness_ms", 0.0)),
        )
        self.metrics.counter("view_updates").inc()
        return {"ok": True}


def replica_address(region: str) -> str:
    """Network address of a region's read replica."""
    return f"focus-replica@{region}"


@dataclass
class ShardPlane:
    """A deployed serving plane: 1..N shards, optional router and replicas."""

    shards: List[FocusService]
    router: Optional[ShardRouter] = None
    replicas: List[RegionReadReplica] = field(default_factory=list)

    @property
    def entry_address(self) -> str:
        """Where node agents and applications send ``focus.*`` calls."""
        return self.router.address if self.router is not None else self.shards[0].address

    @property
    def primary(self) -> FocusService:
        """The statics shard (and, legacy, the only server)."""
        return self.shards[0]

    def server_addresses(self) -> List[str]:
        """Every serving-plane address, for bandwidth accounting."""
        addresses = [s.address for s in self.shards]
        if self.router is not None:
            addresses.append(self.router.address)
        addresses.extend(r.address for r in self.replicas)
        return addresses

    def start(self) -> None:
        for shard in self.shards:
            shard.start()
        if self.router is not None:
            self.router.start()
        for replica in self.replicas:
            replica.start()

    def all_groups(self):
        """Union of every shard's group table (disjoint by construction)."""
        for shard in self.shards:
            yield from shard.dgm.groups.all_groups()


def shard_address(base: str, index: int) -> str:
    """Network address of shard ``index`` behind public address ``base``."""
    return f"{base}-shard{index}"


def build_shard_plane(
    sim: Simulator,
    network: Network,
    *,
    address: str = "focus",
    region: str,
    regions: Optional[List[str]] = None,
    config: FocusConfig,
    store_cluster: Optional[StoreCluster] = None,
) -> ShardPlane:
    """Construct (but do not start) a serving plane per ``config``.

    ``shards=1`` without ``replica_reads`` returns the legacy single
    server under the public address — no router, no extra processes, no
    extra RNG streams: byte-identical to the pre-sharding deployment.

    The config is validated first (:meth:`FocusConfig.validate`): knob
    combinations that would silently do nothing — overload defenses with
    the master ``server_queue_enabled`` switch off, a breaker on an
    unsharded plane — fail fast here instead of lying quietly.
    """
    config.validate()
    if config.shards <= 1 and not config.replica_reads:
        service = FocusService(
            sim,
            network,
            address=address,
            region=region,
            config=config,
            store_cluster=store_cluster,
        )
        return ShardPlane(shards=[service])

    regions = regions or [region]
    addresses = [shard_address(address, i) for i in range(max(config.shards, 1))]
    shard_map = FamilyShardMap(addresses)
    shards = [
        FocusService(
            sim,
            network,
            address=addr,
            region=regions[index % len(regions)],
            config=config,
            store_cluster=store_cluster,
            family_owner=shard_map.owner,
            persist_statics=(index == 0),
        )
        for index, addr in enumerate(addresses)
    ]
    router = ShardRouter(
        sim, network, shard_map, addresses,
        address=address, region=region, config=config,
    )
    replicas: List[RegionReadReplica] = []
    if config.replica_reads:
        replicas = [
            RegionReadReplica(
                sim, network, router.address, region=r, config=config
            )
            for r in regions
        ]
        router.replicas = replicas
    return ShardPlane(shards=shards, router=router, replicas=replicas)
