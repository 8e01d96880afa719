"""The FOCUS server process.

Composes the Registrar, the Dynamic Groups Manager and the Query Router
behind RPC endpoints (the paper hosts them as REST APIs on one Jetty server,
with the Query Router bound to a separate port to split northbound and
southbound load — here the method namespace plays the port's role):

southbound (consumed by node agents)
    ``focus.register``, ``focus.deregister``, ``focus.suggest``,
    ``focus.group-report``

northbound (consumed by applications)
    ``focus.query``

The service also carries a resource model reproducing Fig. 8a's server
CPU/RAM measurements (the paper's server VM: 4 vCPUs, 16 GB RAM).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Tuple

from repro.core.admission import AdmissionQueue, TokenBucket
from repro.core.cache import QueryCache
from repro.core.config import FocusConfig
from repro.core.cpumodel import ServerCpuModel
from repro.core.dgm import DynamicGroupsManager
from repro.core.query import answer_payload
from repro.core.registrar import Registrar
from repro.core.router import QueryRouter
from repro.core.views import ViewManager, is_view_group
from repro.errors import FocusError
from repro.sim.loop import Simulator
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.rpc import DEFERRED, RpcMixin
from repro.store.cluster import StoreClient, StoreCluster


#: Modelled per-query server processing time with no CPU lane (request
#: parsing, cache and table lookups, response encoding). Fig. 8c's ~45 ms
#: cache-hit latency is dominated by it.
SERVER_PROCESSING_DELAY = 0.04
#: How often the DGM syncs its primary tables to the store.
STORE_SYNC_INTERVAL = 10.0


class ServerResourceModel:
    """Accumulates modelled CPU work and samples utilisation and RAM.

    The Fig. 8a meter. Its cores and its query, report and registration
    costs are the service's ``config.overload`` table, the one the CPU lanes
    charge; the fan-out cost and the RAM constants are its own.
    """

    #: Issuing one group/transition RPC and merging its response. This is
    #: the work delegation (§VI) offloads to the application.
    PER_FANOUT_CPU = 0.004
    SAMPLE_INTERVAL = 1.0
    BASE_RAM_MB = 450.0
    RAM_PER_NODE_MB = 0.12
    RAM_PER_GROUP_MB = 0.06
    RAM_PER_CACHE_ENTRY_MB = 0.01

    def __init__(self, service: "FocusService") -> None:
        self.service = service
        self.costs = service.config.overload
        self._window_cpu = 0.0
        self.cpu_series: List[Tuple[float, float]] = []
        self.ram_series: List[Tuple[float, float]] = []

    def charge_query(self) -> None:
        self._window_cpu += self.costs.per_query_cpu

    def charge_fanout(self) -> None:
        self._window_cpu += self.PER_FANOUT_CPU

    def charge_report(self) -> None:
        self._window_cpu += self.costs.per_report_cpu

    def charge_registration(self) -> None:
        self._window_cpu += self.costs.per_registration_cpu

    def sample(self) -> None:
        utilization = min(
            1.0, self._window_cpu / self.SAMPLE_INTERVAL / self.costs.cores
        )
        self._window_cpu = 0.0
        ram_mb = (
            self.BASE_RAM_MB
            + self.RAM_PER_NODE_MB * len(self.service.registrar.nodes)
            + self.RAM_PER_GROUP_MB * len(self.service.dgm.groups)
            + self.RAM_PER_CACHE_ENTRY_MB * len(self.service.cache)
        )
        now = self.service.sim.now
        self.cpu_series.append((now, utilization))
        self.ram_series.append((now, ram_mb))

    def mean_cpu_over(self, start: float, end: float) -> float:
        samples = [u for t, u in self.cpu_series if start <= t <= end]
        return sum(samples) / len(samples) if samples else float("nan")

    def mean_ram_over(self, start: float, end: float) -> float:
        samples = [r for t, r in self.ram_series if start <= t <= end]
        return sum(samples) / len(samples) if samples else float("nan")


class FocusService(Process, RpcMixin):
    """The FOCUS server."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        *,
        address: str = "focus",
        region: str,
        config: Optional[FocusConfig] = None,
        store_cluster: Optional[StoreCluster] = None,
        family_owner: Optional[Callable[[str], str]] = None,
        persist_statics: bool = True,
    ) -> None:
        Process.__init__(self, sim, network, address, region)
        self.init_rpc()
        # Node agents may retransmit registrations/reports under retries;
        # dedupe them server-side instead of double-executing.
        self.enable_rpc_idempotency()
        self.config = config or FocusConfig()
        self.metrics = MetricsRegistry()
        self.rng = sim.derive_rng(f"focus/{address}")
        #: Shard-plane partitioning: maps a group-family key to the shard
        #: address owning it. ``None`` (the legacy single server) owns every
        #: family; a shard only suggests/tracks groups whose family it owns.
        self.family_owner = family_owner
        #: Whether this server writes the static-attribute store tables.
        #: Registrations are replicated to every shard, so exactly one shard
        #: persists them (the rest would duplicate every row N ways).
        self.persist_statics = persist_statics
        #: Serial queue for the modelled query processor (see
        #: :meth:`_reply_after_processing`); only advances under
        #: ``config.server_queue_enabled`` with no CPU model. It is handed
        #: the service time directly, so its own per-request cost never
        #: applies.
        self._legacy_queue = ServerCpuModel(1.0)
        # ---- overload subsystem (all off by default; see core/admission.py)
        overload = self.config.overload
        #: CPU lane serving queries; with the bulkhead on it owns only
        #: ``bulkhead_query_share`` of the cores, otherwise it is the whole
        #: machine (and aliases :attr:`register_cpu`).
        self.query_cpu: Optional[ServerCpuModel] = None
        #: CPU lane serving registrations and reports.
        self.register_cpu: Optional[ServerCpuModel] = None
        self.admission: Optional[AdmissionQueue] = None
        self.throttle: Optional[TokenBucket] = None
        self.queries_throttled = 0
        self.queries_shed = 0
        if overload.cpu_model_enabled:
            if overload.bulkhead_enabled:
                query_cores = overload.cores * overload.bulkhead_query_share
                self.query_cpu = ServerCpuModel(
                    query_cores, per_request_cpu=overload.per_query_cpu
                )
                self.register_cpu = ServerCpuModel(
                    overload.cores - query_cores,
                    per_request_cpu=overload.per_registration_cpu,
                )
            else:
                shared = ServerCpuModel(
                    overload.cores, per_request_cpu=overload.per_query_cpu
                )
                self.query_cpu = shared
                self.register_cpu = shared
            if overload.queue_enabled:
                self.admission = AdmissionQueue(
                    sim,
                    self.query_cpu,
                    capacity=overload.queue_capacity,
                    discipline=overload.queue_discipline,
                    deadline=overload.queue_deadline,
                )
            if overload.throttle_enabled:
                self.throttle = TokenBucket(
                    overload.throttle_rate, overload.throttle_burst
                )
        self.cache = QueryCache()
        self.store_client: Optional[StoreClient] = (
            store_cluster.client_for(self) if store_cluster is not None else None
        )
        self.registrar = Registrar(self)
        self.dgm = DynamicGroupsManager(self)
        self.router = QueryRouter(self)
        self.views = ViewManager(self)
        self.resources = ServerResourceModel(self)

        self.serve("focus.register", self._rpc_register)
        self.serve("focus.deregister", self._rpc_deregister)
        self.serve("focus.suggest", self._rpc_suggest)
        self.serve("focus.leave-group", self._rpc_leave_group)
        self.serve("focus.group-report", self._rpc_report)
        self.serve("focus.query", self._rpc_query)
        self.serve("focus.create-view", self._rpc_create_view)
        self.serve("focus.drop-view", self._rpc_drop_view)
        self.serve("focus.join-view", self._rpc_join_view)
        self.serve("focus.leave-view", self._rpc_leave_view)

    # ------------------------------------------------------------- lifecycle
    def on_start(self) -> None:
        self.every(self.dgm.sweep_interval(), self.dgm.sweep_transitions)
        self.every(self.config.report_interval, self.dgm.check_stale_groups)
        self.every(self.config.report_interval, self.views.check_stale_view_groups)
        if self.store_client is not None:
            self.every(STORE_SYNC_INTERVAL, self.dgm.sync_to_store)
        self.every(self.resources.SAMPLE_INTERVAL, self.resources.sample)

    def on_stop(self) -> None:
        # Crash semantics: calls issued by the previous incarnation must not
        # resolve after the restart.
        self.reset_rpc()

    def restart(self) -> None:
        """Crash recovery: restart and reload registrations from the store.

        Group records come back on their own — representatives keep
        uploading member lists and ``handle_report`` recreates missing
        groups (see :meth:`recover_from_store`).
        """
        super().restart()
        self._legacy_queue.reset()
        if self.admission is not None:
            self.admission.reset()  # the query lane with its queue
        elif self.query_cpu is not None:
            self.query_cpu.reset()
        if self.register_cpu is not self.query_cpu:
            self.register_cpu.reset()
        if self.store_client is not None:
            self.recover_from_store()

    # -------------------------------------------------------------- sharding
    def owns_family(self, attribute: str, value: float) -> bool:
        """Whether this server owns the group family covering ``value``.

        The legacy single server owns everything. A shard owns the family iff
        the plane's consistent-hash ring maps the family key to this shard's
        address. Geo-split region qualifiers and fork suffixes are not part
        of the key, so ownership is stable across splits and forks.
        """
        if self.family_owner is None:
            return True
        return self.family_owner(self.config.family_of(attribute, value)) == self.address

    # --------------------------------------------------------- overload entry
    def _admit_query(self, params, respond, message):
        """Admission pipeline in front of the query path (CPU model on).

        Order matters: the throttle rejects at the door (costs nothing),
        then the admission queue levels what got through onto the query CPU
        lane; without the queue, arrivals stack up on the lane's busy-until
        pointer directly — the undefended Fig. 3 collapse. The lane charge
        covers the whole query (parse, lookups, fan-out bookkeeping,
        encoding), so the router gets ``respond`` itself: its reply leaves
        at once, with no fixed processing delay on top.
        """
        overload = self.config.overload
        if self.throttle is not None and not self.throttle.allow(
            self.sim.now, message.src
        ):
            self.queries_throttled += 1
            return answer_payload([], "throttled", error="throttled")
        service_time = self.query_cpu.service_time(overload.per_query_cpu)

        def run(_sojourn: float = 0.0) -> None:
            try:
                result = self.router.handle(params, respond)
            except FocusError as exc:
                result = {"error": str(exc), "matches": [], "source": "error"}
            if result is not DEFERRED:
                respond(result)

        if self.admission is not None:
            def shed(reason: str) -> None:
                self.queries_shed += 1
                respond(answer_payload([], f"shed-{reason}", error=f"shed-{reason}"))

            self.admission.submit(service_time, run, shed)
            return DEFERRED
        self.sim.schedule(self.query_cpu.occupy(self.sim.now, service_time), run)
        return DEFERRED

    # ------------------------------------------------------------ southbound
    def _register_lane(self, step, params, respond, cost: float):
        """Answer ``step(params)`` once the registration CPU lane has served
        ``cost`` core-seconds of it; at once when there is no CPU model."""
        if self.register_cpu is None:
            respond(step(params))
        else:
            delay = self.register_cpu.admit(self.sim.now, cost)
            self.sim.schedule(delay, lambda: respond(step(params)))
        return DEFERRED

    def _rpc_register(self, params, respond, message):
        cost = self.config.overload.per_registration_cpu
        return self._register_lane(self._register, params, respond, cost)

    def _register(self, params):
        try:
            result = self.registrar.register(params)
        except FocusError as exc:
            return {"error": str(exc)}
        self.resources.charge_registration()
        result["views"] = self.views.definitions_for_registration()
        return result

    def _rpc_deregister(self, params, respond, message):
        self.registrar.deregister(str(params["node_id"]))
        return {"ok": True}

    def _rpc_suggest(self, params, respond, message):
        leaving = params.get("leaving")
        if leaving:
            self.dgm.node_left_group(str(params["node_id"]), str(leaving))
        try:
            suggestion = self.dgm.suggest(
                str(params["node_id"]),
                str(params["region"]),
                str(params["attribute"]),
                float(params["value"]),
            )
        except FocusError as exc:
            return {"error": str(exc)}
        return {"group": suggestion}

    def _rpc_leave_group(self, params, respond, message):
        """A node is leaving a group owned by this shard.

        On the single server, leave+suggest travel together in one
        ``focus.suggest`` call; across shards the old family's owner can be a
        different server than the new one's, so the router splits the leave
        out into this endpoint.
        """
        self.dgm.node_left_group(str(params["node_id"]), str(params["group"]))
        return {"ok": True}

    def _rpc_report(self, params, respond, message):
        cost = self.config.overload.per_report_cpu
        return self._register_lane(self._report, params, respond, cost)

    def _report(self, params):
        self.resources.charge_report()
        if is_view_group(str(params.get("group", ""))):
            return self.views.handle_report(params)
        return self.dgm.handle_report(params)

    def _rpc_create_view(self, params, respond, message):
        try:
            view = self.views.create_view(
                params["query"], view_id=params.get("view_id")
            )
        except FocusError as exc:
            return {"error": str(exc)}
        return {"view_id": view.view_id, "group": view.group.name}

    def _rpc_drop_view(self, params, respond, message):
        self.views.drop_view(str(params["view_id"]))
        return {"ok": True}

    def _rpc_join_view(self, params, respond, message):
        return self.views.handle_join(params)

    def _rpc_leave_view(self, params, respond, message):
        return self.views.handle_leave(params)

    # ------------------------------------------------------------ northbound
    def _rpc_query(self, params, respond, message):
        if self.query_cpu is not None:
            return self._admit_query(params, respond, message)
        try:
            return self.router.handle(
                params, partial(self._reply_after_processing, respond)
            )
        except FocusError as exc:
            return {"error": str(exc), "matches": [], "source": "error"}

    def _reply_after_processing(self, respond, payload) -> None:
        """Send a query's reply once the server has processed it (no CPU
        model): the router calls this at each of its exits.

        Processing is the fixed :data:`SERVER_PROCESSING_DELAY`. With
        ``server_queue_enabled`` the server is a serial queue: each reply
        occupies it for that delay, so replies queue behind each other and an
        overloaded server's latency grows without bound — the saturation
        knee the shard sweep measures.
        """
        delay = SERVER_PROCESSING_DELAY
        if self.config.server_queue_enabled:
            delay = self._legacy_queue.occupy(self.sim.now, delay)
        self.sim.schedule(delay, respond, payload)

    # ---------------------------------------------------------------- recovery
    def recover_from_store(
        self,
        on_done: Optional[Callable[[], None]] = None,
        on_error: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        """Rebuild service state after a crash-restart (§VIII-A).

        Two sources, matching the paper's failure story:

        * the **store** holds the registration records (and static tables),
          which are reloaded here;
        * the **groups** repopulate themselves: representatives keep
          uploading member lists, and :meth:`DynamicGroupsManager.handle_report`
          recreates missing group records from the first report it sees.

        A store read that fails (a scan needs every replica) restores
        nothing, counts under ``recoveries_failed`` and hands the error to
        ``on_error``.
        """
        if self.store_client is None:
            raise FocusError("recovery requires a store-backed deployment")

        def loaded(rows) -> None:
            for row in rows:
                self.registrar.restore_record(row.key, row.value)
            self.metrics.counter("recoveries").inc()
            if on_done is not None:
                on_done()

        def failed(error: Exception) -> None:
            self.metrics.counter("recoveries_failed").inc()
            if on_error is not None:
                on_error(error)

        self.store_client.scan("nodes", loaded, on_error=failed)
