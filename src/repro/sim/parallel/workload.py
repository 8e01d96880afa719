"""The canonical region-sharded SWIM/Serf workload.

One builder, three consumers: the ``swim_full_parallel`` benchmark point,
the ``focus-repro swarm`` CLI subcommand, and the serial<->parallel
equivalence tests all drive *this* workload, so "the parallel kernel
reproduces the serial run byte-for-byte" is asserted against a single
definition rather than three drifting copies.

The workload mirrors the frozen ``_swim_full_run`` sweep in
``benchmarks/bench_kernel.py`` — same agent naming, same full-mesh
pre-seed, same sweep-query schedule — with exactly one deliberate
difference: the network runs with ``region_rng=True``, because per-region
RNG streams are the precondition for sharding (see
:class:`~repro.sim.network.Network`). That makes this a *different* seeded
byte stream from the pinned ``swim_full`` checksums; its own serial arm
(``run_serial``) is the reference the parallel arm must match.

Equivalence contract: with ``jitter_fraction > 0`` (the default), serial
and parallel runs produce identical summaries — same events processed,
same query completions, same counters, same bytes on agent a0's meter.
Exact float-time ties between a cross-region delivery and an unrelated
local event are the only possible divergence; jittered latencies make such
ties measure-zero, and the seeded equivalence tests pin the checksums.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

from repro.faults.engine import ChaosEngine
from repro.faults.plan import FaultPlan, PartitionRegions
from repro.gossip.agent import SerfAgent, SerfConfig
from repro.gossip.membership import NodeDirectory, seed_converged
from repro.sim.loop import Simulator
from repro.sim.network import Network
from repro.sim.parallel.coordinator import ParallelSimulation
from repro.sim.parallel.worker import WorkerShard
from repro.sim.topology import Topology

#: Times at which the sweep's group-wide queries fire (simulated seconds);
#: identical to the kernel benchmark's ``_SWEEP_QUERY_TIMES``.
QUERY_TIMES = (0.5, 1.5, 2.5)

#: Seed shared by every arm; matches the kernel benchmark's sweep seed.
SEED = 13


def _build_shard(
    worker_index: int,
    owned_regions: Tuple[str, ...],
    *,
    nodes: int,
    duration: float,
    plan: Optional[FaultPlan],
) -> WorkerShard:
    """Build one worker's shard: agents of the owned regions only.

    Every RNG stream is label-keyed (``swim/<address>``,
    ``network@<region>``, per-agent timer labels), so a shard hosting a
    subset of the agents derives exactly the streams the serial run derives
    for those agents — construction order across shards cannot matter.
    """
    sim = Simulator(seed=SEED)
    topology = Topology()
    network = Network(sim, topology, region_rng=True)
    regions = [r.name for r in topology.regions]
    owned = set(owned_regions)
    config = SerfConfig(sync_interval=30.0)
    directory = NodeDirectory()

    address_regions = {
        f"a{i}": regions[i % len(regions)] for i in range(nodes)
    }
    agents: List[SerfAgent] = []
    local_index: Dict[int, SerfAgent] = {}
    for i in range(nodes):
        region = regions[i % len(regions)]
        if region not in owned:
            continue
        agent = SerfAgent(
            sim, network, f"n{i}", f"a{i}", region, config,
            directory=directory,
        )
        agents.append(agent)
        local_index[i] = agent
    seed_converged(
        [agent.members for agent in agents],
        [(f"n{i}", f"a{i}", regions[i % len(regions)]) for i in range(nodes)],
        0.0,
    )
    completions: Dict[int, int] = {}
    for agent in agents:
        agent.on_query(
            "sweep.load", lambda payload, origin, a=agent: {"n": a.name}
        )
        agent.start()
    for qi, at in enumerate(QUERY_TIMES):
        if at >= duration:
            break
        origin = local_index.get((qi * 997) % nodes)
        if origin is None:
            continue  # the query's origin lives in another worker
        sim.schedule_at(
            at,
            lambda o=origin, qi=qi: o.query(
                "sweep.load", {"q": qi},
                lambda r, qi=qi: completions.__setitem__(qi, len(r)),
            ),
        )

    def summary() -> dict:
        return {
            "events": sim.events_processed,
            "completions": {str(k): v for k, v in sorted(completions.items())},
            "counters": {
                name: network.metrics.counter(name).value
                for name in network.metrics.names()["counters"]
            },
            "meter0": (
                network.meter("a0").bytes_in_window(0.0, duration)
                if 0 in local_index else None
            ),
        }

    return WorkerShard(
        sim=sim,
        network=network,
        address_regions=address_regions,
        summary=summary,
        plan=plan,
        chaos_targets={agent.address: agent for agent in agents},
    )


def merge_summaries(summaries: List[dict], surplus: int = 0) -> dict:
    """Combine per-worker summaries into the serial-comparable form.

    Events sum (minus the replicated-chaos ``surplus``), counters sum per
    name, completions union (query indices are globally unique), and
    ``meter0`` comes from whichever worker owns agent a0.
    """
    merged: dict = {"events": -surplus, "completions": {}, "counters": {},
                    "meter0": None}
    for summary in summaries:
        merged["events"] += summary["events"]
        merged["completions"].update(summary["completions"])
        for name, value in summary["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        if summary["meter0"] is not None:
            merged["meter0"] = summary["meter0"]
    merged["completions"] = dict(sorted(merged["completions"].items()))
    merged["counters"] = dict(sorted(merged["counters"].items()))
    return merged


def summary_checksum(summary: dict) -> str:
    """Stable digest of a (merged or serial) run summary."""
    return hashlib.sha256(
        json.dumps(summary, sort_keys=True).encode()
    ).hexdigest()


def run_serial(
    nodes: int,
    duration: float,
    *,
    plan: Optional[FaultPlan] = None,
) -> dict:
    """The reference arm: the same shard builder, every region owned, run
    on the ordinary serial loop in-process. This is what ``workers=N`` must
    reproduce byte-for-byte."""
    topology = Topology()
    all_regions = tuple(r.name for r in topology.regions)
    shard = _build_shard(
        0, all_regions, nodes=nodes, duration=duration, plan=plan
    )
    if plan is not None and not plan.empty:
        engine = ChaosEngine(
            shard.sim, shard.network, targets=shard.chaos_targets
        )
        engine.execute(plan)
    shard.sim.run_until(duration)
    return shard.summary()


def run_parallel(
    nodes: int,
    duration: float,
    *,
    workers: int,
    plan: Optional[FaultPlan] = None,
) -> Tuple[dict, ParallelSimulation]:
    """The sharded arm: ``workers`` forked region workers under the
    conservative-window coordinator. Returns the merged summary plus the
    coordinator (exposing windows_run / messages_exchanged)."""
    topology = Topology()
    regions = [r.name for r in topology.regions]
    address_regions = {
        f"a{i}": regions[i % len(regions)] for i in range(nodes)
    }

    def builder(worker_index: int, owned_regions: Tuple[str, ...]) -> WorkerShard:
        return _build_shard(
            worker_index, owned_regions, nodes=nodes, duration=duration,
            plan=plan,
        )

    coordinator = ParallelSimulation(
        builder,
        topology=topology,
        workers=workers,
        plan=plan,
        region_of_address=address_regions if plan is not None else None,
    )
    summaries = coordinator.run(duration)
    merged = merge_summaries(summaries, coordinator.event_surplus())
    return merged, coordinator


def barrier_spanning_plan(duration: float) -> FaultPlan:
    """The chaos plan the equivalence tests run: a WAN partition whose
    start and heal both land strictly inside the run and span many window
    barriers (the window is ~6 ms; the fault is injected at one third of
    the run and heals at two thirds)."""
    start = duration / 3.0
    return FaultPlan().add(
        PartitionRegions(
            at=start,
            side_a=("us-east-2",),
            side_b=("us-west-2", "us-west-1"),
            heal_after=duration / 3.0,
        )
    )
