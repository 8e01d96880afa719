"""System-comparison helpers shared by the benchmarks and the CLI.

Builds any of the six node-finding systems over an identical population and
measures central-site bandwidth under a fixed query stream — the Fig. 7a
methodology as a reusable function.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.core.config import FocusConfig
from repro.sim import Network, Simulator
from repro.workloads import node_spec_factory

#: Seed shared by comparison runs so populations are identical across systems.
DEFAULT_SEED = 1234


def build_finder(system: str, num_nodes: int, *, seed: int = DEFAULT_SEED,
                 config: Optional[FocusConfig] = None):
    """Build one node-finding system over the standard population."""
    from repro.baselines import (
        FocusFinder,
        HierarchyFinder,
        NaivePullFinder,
        NaivePushFinder,
        RabbitPubFinder,
        RabbitSubFinder,
    )
    from repro.harness.scenarios import build_focus_cluster

    factory = node_spec_factory(seed=seed)
    if system == "focus":
        scenario = build_focus_cluster(
            num_nodes,
            seed=seed,
            config=config,
            warm_start=True,
            with_store=False,
            node_factory=factory,
        )
        return FocusFinder(scenario)
    sim = Simulator(seed=seed)
    network = Network(sim)
    builders: Dict[str, Callable] = {
        "naive-push": lambda: NaivePushFinder(
            sim, network, num_nodes=num_nodes, node_factory=factory),
        "naive-pull": lambda: NaivePullFinder(
            sim, network, num_nodes=num_nodes, node_factory=factory),
        "hierarchy": lambda: HierarchyFinder(
            sim, network, num_nodes=num_nodes, node_factory=factory),
        "rabbitmq-pub": lambda: RabbitPubFinder(
            sim, network, num_nodes=num_nodes, node_factory=factory),
        "rabbitmq-sub": lambda: RabbitSubFinder(
            sim, network, num_nodes=num_nodes, node_factory=factory),
    }
    try:
        return builders[system]()
    except KeyError:
        raise ValueError(f"unknown system {system!r}") from None


def measure_bandwidth(
    finder,
    queries,
    *,
    warmup: float = 5.0,
    query_interval: float = 1.0,
    settle: float = 5.0,
) -> Dict[str, float]:
    """Drive queries at a fixed rate; return server bandwidth and responses."""
    sim = finder.sim
    sim.run_until(sim.now + warmup)
    finder.reset_server_bandwidth()
    start = sim.now
    responses: List[dict] = []
    for index, query in enumerate(queries):
        sim.schedule_at(start + index * query_interval, finder.query, query,
                        responses.append)
    end = start + len(queries) * query_interval + settle
    sim.run_until(end)
    window = end - start
    return {
        "bandwidth_kbps": finder.server_bandwidth_bytes() / window / 1024.0,
        "responses": len(responses),
        "matches": sum(len(r.get("matches", ())) for r in responses),
    }


def comparison_queries(count: int, *, seed: int = 2, limit=None):
    """The standard grouped placement query mix used for comparisons."""
    from repro.workloads.querygen import grouped_placement_query

    rng = random.Random(seed)
    return [grouped_placement_query(rng, limit=limit) for _ in range(count)]
