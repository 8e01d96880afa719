"""ChaosEngine: each fault kind detects, degrades, and recovers on schedule."""

import pytest

from repro.faults import (
    ChaosEngine,
    ChurnBurst,
    CrashNode,
    DegradeLink,
    FaultPlan,
    PartitionRegions,
    PauseProcess,
    crash_storm,
)
from repro.harness import build_focus_cluster, drain, run_query
from repro.core.query import Query, QueryTerm
from repro.workloads.churn import ChurnController


def small_cluster(num_nodes=8, seed=11, **kwargs):
    scenario = build_focus_cluster(
        num_nodes, seed=seed, warm_start=True, **kwargs
    )
    engine = ChaosEngine(
        scenario.sim,
        scenario.network,
        targets={scenario.service.address: scenario.service},
        churn=ChurnController(scenario),
    )
    for agent in scenario.agents:
        engine.track(agent.node_id, agent)
    drain(scenario, 3.0)
    return scenario, engine


def probe(scenario):
    return run_query(
        scenario,
        Query([QueryTerm.at_least("ram_mb", 0.0)], limit=None, freshness_ms=0.0),
    )


class TestPlanValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().add(CrashNode(at=-1.0, target="x"))

    def test_pause_needs_positive_resume(self):
        with pytest.raises(ValueError):
            FaultPlan().add(PauseProcess(at=1.0, target="x", resume_after=0.0))

    def test_events_sort_by_time(self):
        plan = (
            FaultPlan()
            .add(CrashNode(at=9.0, target="b"))
            .add(CrashNode(at=1.0, target="a"))
        )
        assert [e.target for e in plan] == ["a", "b"]

    def test_crash_storm_builder(self):
        plan = crash_storm(["a", "b"], start=2.0, spacing=1.0, restart_after=5.0)
        assert len(plan) == 2
        assert [e.at for e in plan] == [2.0, 3.0]
        assert all(e.restart_after == 5.0 for e in plan)

    def test_empty_plan_is_inert(self):
        scenario, engine = small_cluster(4)
        before = scenario.sim.events_processed
        engine.execute(FaultPlan())
        drain(scenario, 5.0)
        assert engine.log == [] and engine.skipped == []
        # No chaos-originated events entered the run (protocol events only;
        # exact equality with a chaos-free run is held by the smoke gate).
        assert scenario.sim.events_processed > before


class TestCrashRestart:
    def test_node_crash_detected_then_recovers(self):
        scenario, engine = small_cluster()
        victim = scenario.agents[3]
        now = scenario.sim.now
        engine.execute(
            FaultPlan().add(
                CrashNode(at=now + 1.0, target=victim.node_id, restart_after=8.0)
            )
        )
        drain(scenario, 3.0)
        assert not victim.running  # crashed
        response = probe(scenario)
        assert victim.node_id not in response.node_ids  # detect: gone
        drain(scenario, 12.0)
        assert victim.running and victim.registered  # recovered + re-registered
        response = probe(scenario)
        assert victim.node_id in response.node_ids  # recover: visible again
        assert [a for _, a in engine.log] == [
            f"crash {victim.node_id}@{now + 1:g} restart+8",
            f"restart {victim.node_id}",
        ]

    def test_restart_reregisters_serf_endpoints(self):
        scenario, engine = small_cluster()
        victim = scenario.agents[2]
        addresses_before = set(victim.endpoint_addresses())
        assert len(addresses_before) > 1  # manager + at least one serf agent
        now = scenario.sim.now
        engine.execute(
            FaultPlan().add(
                CrashNode(at=now + 1.0, target=victim.node_id, restart_after=4.0)
            )
        )
        drain(scenario, 2.0)
        assert not any(
            scenario.network.is_registered(a) for a in addresses_before
        )
        drain(scenario, 15.0)
        for address in victim.endpoint_addresses():
            assert scenario.network.is_registered(address)
        assert len(victim.memberships) > 0  # rejoined its groups

    def test_server_crash_recovers_from_store(self):
        scenario, engine = small_cluster(with_store=True)
        service = scenario.service
        nodes_before = set(service.registrar.nodes)
        now = scenario.sim.now
        engine.execute(
            FaultPlan().add(
                CrashNode(at=now + 1.0, target=service.address, restart_after=5.0)
            )
        )
        drain(scenario, 3.0)
        assert not service.running
        drain(scenario, 10.0)
        assert service.running
        assert set(service.registrar.nodes) == nodes_before  # store recovery
        assert service.metrics.counter("recoveries").value == 1

    def test_replica_lose_state_wipes_tables(self):
        scenario, engine = small_cluster(with_store=True)
        replica = scenario.store.replicas[0]
        engine.track(replica.address, replica)
        assert replica.tables  # registrations were persisted
        now = scenario.sim.now
        engine.execute(
            FaultPlan().add(
                CrashNode(at=now + 1.0, target=replica.address,
                          restart_after=2.0, lose_state=True)
            )
        )
        drain(scenario, 2.0)
        assert replica.tables == {}
        drain(scenario, 3.0)
        assert replica.running

    def test_crashing_a_dead_target_is_logged_not_fatal(self):
        scenario, engine = small_cluster(4)
        now = scenario.sim.now
        engine.execute(FaultPlan().add(CrashNode(at=now + 1.0, target="nope")))
        drain(scenario, 2.0)
        assert engine.log == []
        assert len(engine.skipped) == 1


class TestPartitionAndDegrade:
    def test_partition_applied_and_healed_on_schedule(self):
        scenario, engine = small_cluster()
        regions = [r.name for r in scenario.network.topology.regions]
        now = scenario.sim.now
        engine.execute(
            FaultPlan().add(
                PartitionRegions(at=now + 1.0, side_a=(regions[0],),
                                 side_b=(regions[1], regions[2]), heal_after=4.0)
            )
        )
        drain(scenario, 2.0)
        blocked = scenario.network._blocked_regions
        assert frozenset((regions[0], regions[1])) in blocked
        assert frozenset((regions[0], regions[2])) in blocked
        drain(scenario, 5.0)
        assert scenario.network._blocked_regions == set()
        assert [a for _, a in engine.log][-1].startswith("heal ")

    def test_degrade_link_applied_and_cleared(self):
        scenario, engine = small_cluster(4)
        a = scenario.agents[0].node_id
        now = scenario.sim.now
        engine.execute(
            FaultPlan().add(
                DegradeLink(at=now + 1.0, src=a, dst="focus",
                            latency_multiplier=5.0, loss_rate=0.25,
                            clear_after=3.0)
            )
        )
        drain(scenario, 2.0)
        assert scenario.network.link_degradation(a, "focus") == (5.0, 0.25)
        drain(scenario, 4.0)
        assert scenario.network.link_degradation(a, "focus") is None


class TestPauseAndChurn:
    def test_pause_freezes_whole_node_then_resumes(self):
        scenario, engine = small_cluster()
        victim = scenario.agents[1]
        now = scenario.sim.now
        engine.execute(
            FaultPlan().add(
                PauseProcess(at=now + 1.0, target=victim.node_id, resume_after=3.0)
            )
        )
        drain(scenario, 2.0)
        assert victim.paused
        for membership in victim.memberships.values():
            assert membership.serf.paused  # the stall freezes serf agents too
        drain(scenario, 4.0)
        assert not victim.paused
        assert not any(m.serf.paused for m in victim.memberships.values())
        # The node never deregistered: it is still queryable after the thaw.
        drain(scenario, 5.0)
        assert victim.node_id in probe(scenario).node_ids

    def test_churn_burst_grows_and_shrinks_the_fleet(self):
        scenario, engine = small_cluster()
        before = {a.node_id for a in scenario.agents if a.running}
        now = scenario.sim.now
        engine.execute(
            FaultPlan().add(ChurnBurst(at=now + 1.0, joins=2, leaves=2,
                                       spacing=0.5))
        )
        drain(scenario, 20.0)
        after = {a.node_id for a in scenario.agents if a.running}
        joined = after - before
        left = before - after
        assert len(joined) == 2 and len(left) == 2
        # Joiners registered with the service like any organic node.
        for node_id in joined:
            assert scenario.agent(node_id).registered

    def test_churn_without_controller_is_skipped(self, sim, network):
        engine = ChaosEngine(sim, network)
        engine.execute(FaultPlan().add(ChurnBurst(at=1.0, joins=1)))
        sim.run_until(5.0)
        assert engine.log == []
        assert len(engine.skipped) == 1
