"""Deeper DGM tests: forks, geo splits, transitions, store sync, recovery."""

import repro.core.dgm
from repro.core.config import FocusConfig
from repro.harness import build_focus_cluster, drain


def build(num_nodes=24, seed=81, **config_kwargs):
    config = FocusConfig(**config_kwargs)
    scenario = build_focus_cluster(num_nodes, seed=seed, with_store=False,
                                  config=config)
    drain(scenario, 15.0)
    return scenario


class TestForks:
    def test_fork_keeps_groups_under_cap(self):
        scenario = build(num_nodes=48, seed=82, max_group_size=8)
        drain(scenario, 15.0)
        for group in scenario.service.dgm.groups.all_groups():
            assert group.size_estimate() <= 10  # cap + report slack

    def test_forked_instances_share_family_range(self):
        scenario = build(num_nodes=48, seed=83, max_group_size=8)
        from collections import defaultdict

        by_range = defaultdict(list)
        for group in scenario.service.dgm.groups.all_groups():
            if group.size_estimate() > 0:
                by_range[(group.attribute, group.base)].append(group)
        forked = [groups for groups in by_range.values() if len(groups) > 1]
        assert forked, "expected at least one family to fork at cap 8"
        for groups in forked:
            assert len({g.range for g in groups}) == 1

    def test_queries_cover_forked_instances(self):
        from repro.core.query import Query, QueryTerm
        from repro.harness import run_query

        scenario = build(num_nodes=48, seed=84, max_group_size=8)
        drain(scenario, 10.0)
        response = run_query(
            scenario, Query([QueryTerm.at_least("ram_mb", 0.0)], freshness_ms=0.0)
        )
        assert len(response.matches) == 48


class TestGeoSplit:
    def test_split_creates_region_groups(self):
        scenario = build(num_nodes=32, seed=85, geo_split_km=1500.0)
        drain(scenario, 30.0)
        groups = [g for g in scenario.service.dgm.groups.all_groups()
                  if g.size_estimate() > 0]
        regions = {g.region for g in groups if g.region}
        assert len(regions) >= 3  # nodes span four regions

    def test_split_groups_contain_only_their_region(self):
        scenario = build(num_nodes=32, seed=86, geo_split_km=1500.0)
        drain(scenario, 40.0)
        for group in scenario.service.dgm.groups.all_groups():
            if group.region is None:
                continue
            for node_id in group.members:
                agent = scenario.agent(node_id)
                assert agent.region == group.region

    def test_no_split_when_disabled(self):
        scenario = build(num_nodes=32, seed=87, geo_split_km=None)
        drain(scenario, 30.0)
        assert all(
            g.region is None for g in scenario.service.dgm.groups.all_groups()
        )

    def test_nearby_regions_not_split(self):
        """A threshold above the deployment's maximum span never splits."""
        scenario = build(num_nodes=32, seed=88, geo_split_km=50000.0)
        drain(scenario, 30.0)
        metric = scenario.service.metrics.get_counter("geo_splits")
        assert metric is None or metric.value == 0


class TestTransitions:
    def test_transitions_cleared_by_reports(self):
        scenario = build(num_nodes=16, seed=89)
        drain(scenario, 20.0)
        assert len(scenario.service.dgm.transitions) == 0

    def test_transition_created_on_move(self):
        scenario = build(num_nodes=16, seed=90)
        agent = scenario.agents[0]
        membership = agent.memberships["ram_mb"]
        new_value = membership.high + 2000 if membership.high + 2000 < 16384 \
            else membership.low - 2000
        agent.set_attribute("ram_mb", new_value)
        drain(scenario, 0.5)
        assert (agent.node_id, "ram_mb") in scenario.service.dgm.transitions

    def test_sweep_expires_stuck_transitions(self, monkeypatch):
        monkeypatch.setattr(repro.core.dgm, "TRANSITION_TTL", 5.0)
        scenario = build(num_nodes=8, seed=91)
        dgm = scenario.service.dgm
        from repro.core.dgm import Transition

        dgm.transitions[("ghost", "ram_mb")] = Transition(
            "ghost", "ram_mb", "ram_mb.0", scenario.sim.now
        )
        drain(scenario, 15.0)
        assert ("ghost", "ram_mb") not in dgm.transitions

    def test_transitions_to_pull_filters_by_attribute(self):
        scenario = build(num_nodes=8, seed=92)
        from repro.core.dgm import Transition

        dgm = scenario.service.dgm
        now = scenario.sim.now
        dgm.transitions[("a", "ram_mb")] = Transition("a", "ram_mb", "ram_mb.0", now)
        dgm.transitions[("b", "disk_gb")] = Transition("b", "disk_gb", "disk_gb.0", now)

        def every_group(attribute):
            return dgm.groups.instances_covering(attribute, None, None)

        # Each target is a candidate of an unbounded query, or not a group.
        assert dgm.transitions_to_pull("ram_mb", every_group("ram_mb")) == ["a"]
        assert dgm.transitions_to_pull("disk_gb", every_group("disk_gb")) == ["b"]
        assert dgm.transitions_to_pull("vcpus", every_group("vcpus")) == []


class TestStoreSync:
    def test_group_tables_persisted(self):
        scenario = build_focus_cluster(12, seed=93, with_store=True)
        drain(scenario, 25.0)  # past a STORE_SYNC_INTERVAL
        rows = []
        scenario.service.store_client.scan("groups", rows.extend)
        drain(scenario, 2.0)
        populated = [
            g for g in scenario.service.dgm.groups.all_groups()
            if g.size_estimate() > 0
        ]
        names = {row.key for row in rows}
        assert {g.name for g in populated} <= names
        sample = next(iter(rows))
        assert "members" in sample.value
        assert "range" in sample.value


class TestSuggestDeterminism:
    def test_same_value_same_group(self):
        scenario = build(num_nodes=8, seed=94)
        dgm = scenario.service.dgm
        a = dgm.suggest("x1", "us-east-2", "ram_mb", 5000.0)
        b = dgm.suggest("x2", "us-west-2", "ram_mb", 5500.0)
        assert a["name"] == b["name"]  # same family instance
        assert a["range"] == b["range"] == [4096.0, 6144.0]

    def test_entry_points_exclude_self(self):
        scenario = build(num_nodes=8, seed=95)
        dgm = scenario.service.dgm
        suggestion = dgm.suggest("fresh-node", "us-east-2", "ram_mb", 5000.0)
        from repro.core.groups import serf_address

        assert serf_address("fresh-node", suggestion["name"]) not in (
            suggestion["entry_points"]
        )
