"""Determinism of a fixed-seed simulation: byte-identical metric summaries
run to run, and different ones for a different seed.
"""

import json

from repro.gossip.swim import SwimAgent, SwimConfig
from repro.sim import Network, Simulator, Topology


def run_seeded_gossip(seed: int = 7) -> str:
    """A fixed-seed SWIM run; returns a canonical JSON metrics summary."""
    sim = Simulator(seed=seed)
    topology = Topology()
    network = Network(sim, topology)
    regions = [r.name for r in topology.regions]
    agents = []
    for i in range(8):
        agent = SwimAgent(
            sim,
            network,
            f"n{i}",
            f"addr{i}",
            regions[i % len(regions)],
            SwimConfig(sync_interval=5.0),
        )
        agent.start()
        agents.append(agent)
    for agent in agents[1:]:
        agent.join(["addr0"])
    meters = [network.meter(f"addr{i}") for i in range(8)]
    sim.run_until(5.0)
    at_five = [meter.total_bytes for meter in meters]
    sim.run_until(8.0)
    agents[3].stop()  # in-flight messages to it exercise the dead-endpoint path
    sim.run_until(10.0)
    at_ten = [meter.total_bytes for meter in meters]
    sim.run_until(20.0)

    summary = {
        "events_processed": sim.events_processed,
        "counters": {
            name: network.metrics.counter(name).value
            for name in network.metrics.names()["counters"]
        },
        "meters": {
            f"addr{i}": [
                meter.total_bytes,
                at_ten[i],
                meter.total_bytes - at_five[i],
            ]
            for i, meter in enumerate(meters)
        },
        "alive_views": sorted(
            (agent.name, sorted(m.name for m in agent.alive_members()))
            for agent in agents
            if agent.running
        ),
    }
    return json.dumps(summary, sort_keys=True)


class TestSeededDeterminism:
    def test_same_seed_byte_identical_summaries(self):
        assert run_seeded_gossip(7) == run_seeded_gossip(7)

    def test_different_seed_differs(self):
        assert run_seeded_gossip(7) != run_seeded_gossip(8)
