"""Tests for the baseline node-finders: correctness and accounting."""

import pytest

from repro.baselines import (
    HierarchyFinder,
    NaivePullFinder,
    NaivePushFinder,
    RabbitPubFinder,
    RabbitSubFinder,
)
from repro.core.query import Query, QueryTerm
from repro.sim import Network, Simulator
from repro.workloads import node_spec_factory

NUM_NODES = 40


def ground_truth(factory, query, regions):
    matches = set()
    for index in range(NUM_NODES):
        spec = factory(index, regions[index % len(regions)])
        attrs = dict(spec["static"])
        attrs.update(spec["dynamic"])
        attrs["region"] = regions[index % len(regions)]
        if query.matches(attrs):
            matches.add(spec["node_id"])
    return matches


def run_query_against(finder, sim, query, settle=10.0):
    out = []
    finder.query(query, out.append)
    sim.run_until(sim.now + settle)
    assert len(out) == 1
    return out[0]


@pytest.fixture
def factory():
    return node_spec_factory(seed=77)


def build(sim, kind, factory):
    network = Network(sim)
    builders = {
        "push": lambda: NaivePushFinder(sim, network, num_nodes=NUM_NODES, node_factory=factory),
        "pull": lambda: NaivePullFinder(sim, network, num_nodes=NUM_NODES, node_factory=factory),
        "hier": lambda: HierarchyFinder(sim, network, num_nodes=NUM_NODES, node_factory=factory),
        "hier-agg": lambda: HierarchyFinder(
            sim, network, num_nodes=NUM_NODES, node_factory=factory, mode="aggregate"
        ),
        "hier-pred": lambda: HierarchyFinder(
            sim, network, num_nodes=NUM_NODES, node_factory=factory,
            manager_mode="predicate",
        ),
        "mq-pub": lambda: RabbitPubFinder(sim, network, num_nodes=NUM_NODES, node_factory=factory),
        "mq-sub": lambda: RabbitSubFinder(sim, network, num_nodes=NUM_NODES, node_factory=factory),
    }
    finder = builders[kind]()
    regions = [r.name for r in network.topology.regions]
    return finder, regions


QUERY = Query(
    [QueryTerm.at_least("ram_mb", 4096.0), QueryTerm.at_least("disk_gb", 20.0)],
    freshness_ms=0.0,
)


@pytest.mark.parametrize(
    "kind", ["push", "pull", "hier", "hier-agg", "hier-pred", "mq-pub", "mq-sub"]
)
class TestCorrectness:
    def test_matches_ground_truth(self, kind, factory):
        sim = Simulator(seed=99)
        finder, regions = build(sim, kind, factory)
        sim.run_until(5.0)  # pushes propagate
        result = run_query_against(finder, sim, QUERY)
        assert {m["node"] for m in result["matches"]} == ground_truth(
            factory, QUERY, regions
        )

    def test_limit_respected(self, kind, factory):
        sim = Simulator(seed=100)
        finder, _ = build(sim, kind, factory)
        sim.run_until(5.0)
        limited = Query([QueryTerm.at_least("ram_mb", 0.0)], limit=5, freshness_ms=0.0)
        result = run_query_against(finder, sim, limited)
        assert len(result["matches"]) == 5


class TestAccounting:
    def test_push_bandwidth_grows_with_nodes(self, factory):
        def bandwidth(num_nodes):
            sim = Simulator(seed=5)
            network = Network(sim)
            finder = NaivePushFinder(
                sim, network, num_nodes=num_nodes, node_factory=factory
            )
            sim.run_until(5.0)
            finder.reset_server_bandwidth()
            sim.run_until(15.0)
            return finder.server_bandwidth_bytes()

        assert bandwidth(60) > 2.5 * bandwidth(20)

    def test_pull_bandwidth_mostly_query_driven(self, factory):
        sim = Simulator(seed=6)
        network = Network(sim)
        finder = NaivePullFinder(sim, network, num_nodes=30, node_factory=factory)
        sim.run_until(5.0)
        finder.reset_server_bandwidth()
        sim.run_until(10.0)
        idle = finder.server_bandwidth_bytes()
        run_query_against(finder, sim, QUERY)
        assert finder.server_bandwidth_bytes() > max(idle * 5, 1000)

    def test_accounting_must_be_installed(self, sim, network):
        from repro.baselines.base import NodeFinder

        class Incomplete(NodeFinder):
            def server_addresses(self):
                return []

        finder = Incomplete(sim, network)
        with pytest.raises(RuntimeError):
            finder.server_bandwidth_bytes()


class TestHierarchyModes:
    def test_invalid_mode_rejected(self, factory):
        sim = Simulator(seed=7)
        network = Network(sim)
        with pytest.raises(ValueError):
            HierarchyFinder(
                sim, network, num_nodes=4, node_factory=factory, mode="bogus"
            )

    def test_invalid_manager_mode_rejected(self, factory):
        sim = Simulator(seed=8)
        network = Network(sim)
        with pytest.raises(ValueError):
            HierarchyFinder(
                sim, network, num_nodes=4, node_factory=factory,
                manager_mode="bogus",
            )

    def test_projection_ships_more_bytes_than_predicate(self, factory):
        """For a selective query, a predicate-pushdown manager ships almost
        nothing while a projection-only manager still ships every row."""
        selective = Query(
            [QueryTerm.at_least("ram_mb", 15500.0)], freshness_ms=0.0
        )

        def bytes_for(manager_mode):
            sim = Simulator(seed=9)
            network = Network(sim)
            finder = HierarchyFinder(
                sim, network, num_nodes=NUM_NODES, node_factory=factory,
                manager_mode=manager_mode,
            )
            sim.run_until(5.0)
            finder.reset_server_bandwidth()
            run_query_against(finder, sim, selective)
            return finder.server_bandwidth_bytes()

        assert bytes_for("projection") > bytes_for("predicate")
