"""Canned cluster builders.

:func:`build_focus_cluster` assembles the full FOCUS deployment the paper
evaluates (§X-A): a service (optionally backed by a replicated store), node
agents spread round-robin across the four EC2 regions, each reporting the
four evaluation attributes with randomised initial values (the paper's
"randomness factor"), and an application process for issuing queries.

Two bring-up modes:

* **protocol bring-up** (default) — agents register over the network and
  join groups via gossip sync; realistic, but a simultaneous-join storm is
  quadratic in group size, so registrations are staggered.
* **warm start** (``warm_start=True``) — registrations are applied directly
  and serf member lists are pre-seeded to the converged state, modelling a
  long-running deployment without paying the bring-up cost. Steady-state
  behaviour (probing, reports, queries, moves) is identical from t=0. Large
  benchmark sweeps use this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.agent import NodeAgent
from repro.core.config import FocusConfig
from repro.core.groups import serf_address
from repro.core.rest import Application
from repro.core.service import FocusService
from repro.core.shardplane import ShardPlane, build_shard_plane
from repro.gossip.membership import MembershipTable, seed_converged
from repro.sim.loop import Simulator
from repro.sim.network import Network
from repro.sim.topology import Topology
from repro.store.cluster import StoreCluster


@dataclass
class FocusScenario:
    """A fully wired FOCUS deployment inside one simulator."""

    sim: Simulator
    network: Network
    service: FocusService
    agents: List[NodeAgent]
    app: Application
    config: FocusConfig
    store: Optional[StoreCluster] = None
    #: The serving plane (``shards=1`` wraps the legacy single server).
    plane: Optional[ShardPlane] = None

    def agent(self, node_id: str) -> NodeAgent:
        for agent in self.agents:
            if agent.node_id == node_id:
                return agent
        raise KeyError(node_id)

    @property
    def services(self) -> List[FocusService]:
        """Every shard service (legacy deployments have exactly one)."""
        return self.plane.shards if self.plane is not None else [self.service]

    def _server_addresses(self) -> List[str]:
        if self.plane is not None:
            return self.plane.server_addresses()
        return [self.service.address]

    def server_bandwidth_bytes(self) -> int:
        """Bytes sent+received at the serving plane (the Fig. 7a metric);
        sums shards, router and replicas on a sharded deployment."""
        return sum(
            self.network.meter(address).total_bytes
            for address in self._server_addresses()
        )

    def reset_bandwidth(self) -> None:
        for agent in self.agents:
            for address in agent.endpoint_addresses():
                self.network.meter(address).reset()
        for address in self._server_addresses():
            self.network.meter(address).reset()
        self.network.meter(self.app.address).reset()


def default_static_attributes(index: int, site: str) -> Dict[str, object]:
    """Static attributes for node ``index`` (arch/cores/service/project)."""
    return {
        "arch": "x86" if index % 8 else "arm64",
        "cores": 8 if index % 3 else 16,
        "service_type": "compute" if index % 5 else "scheduler",
        "project_id": f"project-{index % 10}",
        "site": site,
    }


def random_dynamic_attributes(config: FocusConfig, rng) -> Dict[str, float]:
    """The paper's randomness factor: each agent reports values drawn from
    the attribute's full range so co-hosted agents differ (§X-A, fn. 3)."""
    values = {}
    for name, spec in config.schema.dynamic().items():
        high = spec.max_value if spec.max_value != float("inf") else 100.0
        value = rng.uniform(spec.min_value, high)
        if name == "vcpus":
            value = float(int(value))
        values[name] = value
    return values


def build_focus_cluster(
    num_nodes: int,
    *,
    seed: int = 0,
    config: Optional[FocusConfig] = None,
    with_store: bool = True,
    warm_start: bool = False,
    registration_window: float = 5.0,
    topology: Optional[Topology] = None,
    collector_factory: Optional[Callable[[NodeAgent], Callable[[], Dict[str, float]]]] = None,
    record_bandwidth_events: bool = False,
    node_factory: Optional[Callable[[int, str], Dict[str, object]]] = None,
) -> FocusScenario:
    """Build the paper's evaluation deployment with ``num_nodes`` agents.

    Pass the same ``node_factory`` used for a baseline deployment to compare
    systems over an identical node population (Fig. 7a requires this).

    Bandwidth meters keep totals only (``record_bandwidth_events`` is off):
    ``total_bytes``, :meth:`FocusScenario.server_bandwidth_bytes` and any
    window that covers everything since the last
    :meth:`FocusScenario.reset_bandwidth` answer exactly, and a run pays for
    no per-message log. Pass ``record_bandwidth_events=True`` to measure a
    window that starts mid-run (``meter.bytes_in_window``); without the log
    such a window raises ``WindowTruncatedError`` rather than under-count.

    Cost of a population: a node's p2p agents index their membership tables
    by one node directory per group, so an entry of a table costs its numpy
    cells (~50 B) and nothing per string, and ``warm_start=True`` fills all
    Σ(group size)² entries in bulk (~775k at the paper's 1600 agents;
    EXPERIMENTS.md, "Set-up and memory", has the build time and RSS).
    """
    config = config or FocusConfig()
    sim = Simulator(seed=seed)
    network = Network(
        sim,
        topology or Topology(),
        record_bandwidth_events=record_bandwidth_events,
    )
    regions = [r.name for r in network.topology.regions]
    store = StoreCluster(sim, network, num_replicas=3) if with_store else None
    plane = build_shard_plane(
        sim,
        network,
        region=regions[0],
        regions=regions,
        config=config,
        store_cluster=store,
    )
    plane.start()
    service = plane.primary
    app = Application(sim, network, "app", regions[0], focus_address=plane.entry_address)
    app.start()

    rng = sim.derive_rng("scenario")
    agents: List[NodeAgent] = []
    for index in range(num_nodes):
        region = regions[index % len(regions)]
        if node_factory is not None:
            spec = node_factory(index, region)
            node_id = str(spec["node_id"])
            static = dict(spec.get("static") or {})
            dynamic = dict(spec.get("dynamic") or {})
        else:
            node_id = f"node-{index:05d}"
            static = default_static_attributes(index, site=f"site-{region}")
            dynamic = random_dynamic_attributes(config, rng)
        agent = NodeAgent(
            sim,
            network,
            node_id,
            region,
            plane.entry_address,
            static=static,
            dynamic=dynamic,
            config=config,
        )
        if collector_factory is not None:
            agent.collector = collector_factory(agent)
        agents.append(agent)

    scenario = FocusScenario(
        sim=sim,
        network=network,
        service=service,
        agents=agents,
        app=app,
        config=config,
        store=store,
        plane=plane,
    )
    if warm_start:
        _warm_start(scenario)
    else:
        _protocol_bring_up(scenario, registration_window, rng)
    return scenario


def build_single_group_cluster(
    group_size: int,
    *,
    seed: int = 0,
    serf_config=None,
    record_bandwidth_events: bool = False,
) -> FocusScenario:
    """A deployment whose nodes all share ONE attribute group.

    Used by the microbenchmarks (Fig. 8b / 8c): a single dynamic attribute
    whose cutoff spans its whole value range puts every node in the same
    group, so the group size equals the fleet size.
    """
    from repro.core.attributes import AttributeKind, AttributeSchema, AttributeSpec

    schema = AttributeSchema()
    schema.add(
        AttributeSpec("load", AttributeKind.DYNAMIC, cutoff=100.0,
                      min_value=0.0, max_value=100.0)
    )
    config = FocusConfig(
        schema=schema,
        max_group_size=group_size + 1,  # never fork: we want one big group
    )
    if serf_config is not None:
        config.serf = serf_config

    def factory(index: int, region: str):
        import random as _random

        rng = _random.Random(f"{seed}/single/{index}")
        return {
            "node_id": f"node-{index:05d}",
            "static": {},
            "dynamic": {"load": rng.uniform(0.0, 100.0)},
        }

    return build_focus_cluster(
        group_size,
        seed=seed,
        config=config,
        with_store=False,
        warm_start=True,
        record_bandwidth_events=record_bandwidth_events,
        node_factory=factory,
    )


def _protocol_bring_up(scenario: FocusScenario, window: float, rng) -> None:
    """Start agents with registrations staggered over ``window`` seconds."""
    for agent in scenario.agents:
        delay = rng.uniform(0.0, window)
        scenario.sim.schedule(delay, agent.start)


def _warm_start(scenario: FocusScenario) -> None:
    """Bring the cluster up in its converged state (see module docstring).

    On a sharded plane the registration is applied to every shard (as the
    router would replicate it); each shard suggests only the group families
    it owns, so concatenating the per-shard suggestion lists reproduces the
    single server's suggestion set exactly.

    Member lists are seeded group by group through
    :func:`~repro.gossip.membership.seed_converged`: the agents of a group
    share one node directory (``NodeAgent._start_serf``), the group's members
    are interned into it once, and every member's table takes the slot array
    in bulk — each table reads self first, then its peers in sorted node-id
    order, all alive at incarnation 0 since ``sim.now``, exactly what one
    ``upsert`` per (agent, peer) pair produced. Every member of a
    warm-started group is one of the scenario's agents (asserted).
    """
    sim = scenario.sim
    services = scenario.services
    for agent in scenario.agents:
        # Register directly (same code path as the RPC handler, minus the
        # network round trip).
        request = {
            "node_id": agent.node_id,
            "region": agent.region,
            "static": agent.static,
            "dynamic": agent.dynamic,
        }
        suggestions: List[Dict[str, object]] = []
        for service in services:
            suggestions.extend(service.registrar.register(request)["groups"])
        suggestions.sort(key=lambda s: str(s.get("attribute", "")))
        agent.start_without_registration()
        agent.registered = True
        for suggestion in suggestions:
            # Suppress join traffic: memberships are seeded below.
            suggestion = dict(suggestion)
            suggestion["entry_points"] = []
            agent._join_group(suggestion)
    # Seed every serf agent's member list with its full group and promote
    # the DGM's pending entries to confirmed members.
    joined: Dict[str, List[Tuple[NodeAgent, MembershipTable]]] = {}
    for agent in scenario.agents:
        for membership in agent.memberships.values():
            joined.setdefault(membership.group, []).append(
                (agent, membership.serf.members)
            )
    for service in services:
        for group in service.dgm.groups.all_groups():
            node_ids = group.all_node_ids()
            members = joined.get(group.name, ())
            regions = {agent.node_id: agent.region for agent, _ in members}
            assert sorted(regions) == node_ids, (
                f"{group.name}: the DGM's members are not the agents that joined"
            )
            seed_converged(
                [table for _, table in members],
                [
                    (node_id, serf_address(node_id, group.name), regions[node_id])
                    for node_id in node_ids
                ],
                sim.now,
            )
            group.record_report(node_ids, regions, sim.now)
        service.dgm.transitions.clear()
