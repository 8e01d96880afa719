"""Tests for the harness: scenario builders, runners, report formatting."""

import gc
import tracemalloc

import pytest

from repro.core.query import Query, QueryTerm
from repro.errors import SimulationError
from repro.faults import ChaosEngine, CrashNode, FaultPlan
from repro.harness import (
    build_focus_cluster,
    drain,
    format_table,
    run_queries,
    run_query,
)
from repro.harness.scenarios import build_single_group_cluster
from repro.workloads import ChurnController, node_spec_factory
from tests.oracles.warm_start import warm_start_tables


class TestWarmStart:
    def test_warm_start_equivalent_to_protocol_bring_up(self):
        """Warm start must land in the same structural state a protocol
        bring-up converges to: same groups, same members."""
        factory = node_spec_factory(seed=9)
        warm = build_focus_cluster(
            24, seed=9, warm_start=True, with_store=False, node_factory=factory
        )
        drain(warm, 1.0)
        cold = build_focus_cluster(
            24, seed=9, warm_start=False, with_store=False, node_factory=factory
        )
        drain(cold, 20.0)

        def group_map(scenario):
            return {
                g.name: set(g.all_node_ids())
                for g in scenario.service.dgm.groups.all_groups()
                if g.size_estimate() > 0
            }

        assert group_map(warm) == group_map(cold)

    def test_warm_start_serf_views_populated(self):
        scenario = build_focus_cluster(16, seed=10, warm_start=True, with_store=False)
        for agent in scenario.agents:
            for membership in agent.memberships.values():
                group = scenario.service.dgm.groups.get(membership.group)
                assert membership.serf.group_size() == group.size_estimate()

    def test_warm_start_answers_queries_immediately(self):
        scenario = build_focus_cluster(16, seed=11, warm_start=True, with_store=False)
        response = run_query(
            scenario, Query([QueryTerm.at_least("ram_mb", 0.0)], freshness_ms=0.0)
        )
        assert len(response.matches) == 16


def serf_tables(scenario):
    """``(node_id, group) -> table`` of every running p2p agent."""
    return {
        (agent.node_id, membership.group): membership.serf.members
        for agent in scenario.agents
        if agent.running
        for membership in agent.memberships.values()
    }


def assert_one_directory_per_group(scenario):
    by_group = {}
    for (_, group), table in serf_tables(scenario).items():
        by_group.setdefault(group, set()).add(id(table.directory))
    assert by_group
    assert all(len(ids) == 1 for ids in by_group.values()), by_group
    # ... and no two groups on the same one.
    assert len(set.union(*by_group.values())) == len(by_group)


class TestWarmStartTables:
    """Bulk seeding on shared directories fills every table exactly as the
    per-pair loop on private ones did (``tests/oracles/warm_start.py``)."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_focus_cluster(64, warm_start=True, with_store=False),
            lambda: build_single_group_cluster(48),
        ],
        ids=["focus-64", "single-group-48"],
    )
    def test_every_table_equals_the_per_pair_oracle(self, build):
        def records(table):
            return [
                (m.name, m.address, m.region, m.incarnation, m.state, m.state_time)
                for m in table
            ]

        scenario = build()
        tables = serf_tables(scenario)
        oracle = warm_start_tables(scenario)
        assert tables.keys() == oracle.keys()
        assert sum(len(table) for table in tables.values()) > len(tables)
        for key, table in tables.items():
            assert records(table) == records(oracle[key]), key
            assert table.alive_count == oracle[key].alive_count
        assert_one_directory_per_group(scenario)

    def test_one_directory_per_group_survives_churn_and_a_wiped_restart(self):
        scenario = build_focus_cluster(32, seed=19, warm_start=True, with_store=False)
        before = {
            group: table.directory
            for (_, group), table in serf_tables(scenario).items()
        }
        engine = ChaosEngine(scenario.sim, scenario.network)
        victim = scenario.agents[5]
        engine.track(victim.node_id, victim)
        ChurnController(scenario).burst(joins=4, leaves=4, spacing=0.2)
        engine.execute(
            FaultPlan().add(
                CrashNode(
                    at=2.0, target=victim.node_id, restart_after=3.0, lose_state=True
                )
            )
        )
        drain(scenario, 15.0)
        assert victim.running and victim.memberships
        assert len(scenario.agents) == 36
        assert_one_directory_per_group(scenario)
        # The newcomers and the restarted node were handed the directories
        # their groups already had, not fresh ones.
        tables = serf_tables(scenario)
        for (_, group), table in tables.items():
            assert group not in before or table.directory is before[group]
        assert any(
            node_id == victim.node_id and group in before for node_id, group in tables
        )

    def test_marginal_memory_per_table_entry(self):
        """What one more (agent, member) pair costs a warm single group, in
        traced bytes: ``(B(256)/256 - B(128)/128) / 128``. The table's own
        arrays are ~50 B of it; a private directory per agent (a copy of the
        peer's address string, a wire-dict cache, the index entries) made it
        ~250."""

        def traced_bytes(size):
            gc.collect()
            tracemalloc.start()
            try:
                scenario = build_single_group_cluster(size)
                gc.collect()
                assert len(scenario.agents) == size  # alive: its tables are measured
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        build_single_group_cluster(8)  # lazy imports are not the table's cost
        assert (traced_bytes(256) / 256 - traced_bytes(128) / 128) / 128 <= 100


class TestSingleGroupBuilder:
    def test_all_nodes_in_one_group(self):
        scenario = build_single_group_cluster(30, seed=12)
        groups = [
            g for g in scenario.service.dgm.groups.all_groups()
            if g.size_estimate() > 0
        ]
        assert len(groups) == 1
        assert groups[0].size_estimate() == 30

    def test_group_never_forks(self):
        scenario = build_single_group_cluster(30, seed=13)
        drain(scenario, 20.0)
        groups = [
            g for g in scenario.service.dgm.groups.all_groups()
            if g.size_estimate() > 0
        ]
        assert len(groups) == 1


class TestRunners:
    def test_run_query_raises_without_response(self):
        scenario = build_focus_cluster(4, seed=14, warm_start=True, with_store=False)
        scenario.service.stop()  # nobody will answer
        with pytest.raises(SimulationError):
            run_query(
                scenario,
                Query([QueryTerm.at_least("ram_mb", 0.0)], freshness_ms=0.0),
                max_wait=2.0,
            )

    def test_run_queries_rate(self):
        scenario = build_focus_cluster(8, seed=15, warm_start=True, with_store=False)
        queries = [
            Query([QueryTerm.at_least("ram_mb", 0.0)], limit=2, freshness_ms=0.0)
            for _ in range(5)
        ]
        start = scenario.sim.now
        responses = run_queries(scenario, queries, rate=2.0)
        assert len(responses) == 5
        # 5 queries at 2/s -> 2.5 s of arrivals plus the settle window.
        assert scenario.sim.now == pytest.approx(start + 2.5 + 5.0)

    def test_reset_bandwidth(self):
        scenario = build_focus_cluster(8, seed=16, warm_start=True, with_store=False)
        drain(scenario, 10.0)
        assert scenario.server_bandwidth_bytes() > 0
        scenario.reset_bandwidth()
        assert scenario.server_bandwidth_bytes() == 0

    def test_agent_lookup(self):
        scenario = build_focus_cluster(4, seed=17, warm_start=True, with_store=False)
        assert scenario.agent(scenario.agents[2].node_id) is scenario.agents[2]
        with pytest.raises(KeyError):
            scenario.agent("nope")


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [("a", 1.5), ("long-name", 20000.0)])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "long-name" in lines[3]
        assert "20,000" in lines[3]

    def test_format_table_small_floats(self):
        text = format_table(["v"], [(0.1234567,)])
        assert "0.1235" in text

    def test_format_table_zero(self):
        assert "0" in format_table(["v"], [(0.0,)])


class TestDeterminism:
    def test_identical_builds_identical_traces(self):
        def fingerprint():
            scenario = build_focus_cluster(16, seed=18, with_store=False)
            drain(scenario, 15.0)
            run_query(
                scenario,
                Query([QueryTerm.at_least("ram_mb", 1000.0)], freshness_ms=0.0),
            )
            return (
                scenario.sim.events_processed,
                scenario.network.metrics.counter("messages_sent").value,
                scenario.server_bandwidth_bytes(),
            )

        assert fingerprint() == fingerprint()
