"""FOCUS server crash-restart recovery (§VIII-A failure story).

The paper's claim: "failure recovery of the DGM comes naturally — when the
DGM fails and a new one is instantiated, group representatives will send
their corresponding group information, which the new DGM uses to populate
its primary group tables." Registration records live in the store.
"""

import pytest

from repro.core.query import Query, QueryTerm
from repro.core.service import FocusService
from repro.errors import FocusError, QuorumError
from repro.harness import build_focus_cluster, drain, run_query


def crash_and_restart(scenario):
    """Kill the service process and start a brand-new one at its address."""
    old = scenario.service
    old.stop()
    drain(scenario, 2.0)
    replacement = FocusService(
        scenario.sim,
        scenario.network,
        region=old.region,
        config=scenario.config,
        store_cluster=scenario.store,
    )
    replacement.start()
    scenario.service = replacement
    return replacement


@pytest.fixture
def recovered():
    scenario = build_focus_cluster(24, seed=111, with_store=True)
    drain(scenario, 20.0)
    replacement = crash_and_restart(scenario)
    done = []
    replacement.recover_from_store(lambda: done.append(True))
    drain(scenario, 3.0)
    assert done == [True]
    # Representatives repopulate the group tables over the next intervals.
    drain(scenario, scenario.config.report_interval * 3)
    return scenario


class TestRecovery:
    def test_registrations_restored_from_store(self, recovered):
        assert len(recovered.service.registrar.nodes) == 24
        record = next(iter(recovered.service.registrar.nodes.values()))
        assert record.region
        assert record.static

    def test_groups_rebuilt_from_reports(self, recovered):
        groups = [
            g for g in recovered.service.dgm.groups.all_groups() if g.members
        ]
        assert groups
        total = sum(len(g.members) for g in groups)
        assert total >= 0.8 * 24 * 4

    def test_dynamic_queries_work_after_recovery(self, recovered):
        query = Query([QueryTerm.at_least("ram_mb", 2048.0)], freshness_ms=0.0)
        response = run_query(recovered, query)
        expected = {
            a.node_id for a in recovered.agents
            if a.dynamic["ram_mb"] >= 2048.0
        }
        assert set(response.node_ids) == expected

    def test_static_queries_work_after_recovery(self, recovered):
        query = Query([QueryTerm.exact("service_type", "scheduler")])
        response = run_query(recovered, query)
        expected = {
            a.node_id for a in recovered.agents
            if a.static["service_type"] == "scheduler"
        }
        assert set(response.node_ids) == expected

    def test_group_regions_recovered_for_reports(self, recovered):
        """Report handling looks regions up in the registrar; after
        recovery those lookups must succeed again."""
        for group in recovered.service.dgm.groups.all_groups():
            for member in group.members.values():
                if member.region:
                    assert member.region in {
                        r.name for r in recovered.network.topology.regions
                    }

    def test_recovery_requires_store(self):
        scenario = build_focus_cluster(4, seed=112, with_store=False)
        drain(scenario, 10.0)
        with pytest.raises(FocusError):
            scenario.service.recover_from_store()


class TestRecoveryWithAStoreReplicaDown:
    def test_a_recovery_that_cannot_read_the_store_reports_the_error(self):
        scenario = build_focus_cluster(8, seed=114, with_store=True)
        drain(scenario, 10.0)
        replacement = crash_and_restart(scenario)
        scenario.store.replicas[1].stop()
        done, errors = [], []
        start = scenario.sim.now
        replacement.recover_from_store(
            lambda: done.append(True),
            lambda error: errors.append((scenario.sim.now - start, error)),
        )
        drain(scenario, 5.0)
        assert done == []
        ((elapsed, error),) = errors
        assert isinstance(error, QuorumError)
        assert elapsed == pytest.approx(replacement.store_client.timeout)
        assert replacement.metrics.get_counter("recoveries_failed").value == 1
        assert replacement.metrics.get_counter("recoveries") is None


class TestAvailabilityDuringOutage:
    def test_agents_keep_gossiping_through_server_outage(self):
        scenario = build_focus_cluster(16, seed=113, with_store=True)
        drain(scenario, 20.0)
        scenario.service.stop()
        drain(scenario, 20.0)  # server gone; groups keep running
        for agent in scenario.agents:
            for membership in agent.memberships.values():
                assert membership.serf.running
                assert membership.serf.group_size() >= 1
