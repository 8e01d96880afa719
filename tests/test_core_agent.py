"""Tests for node-agent behaviours: moves, representatives, collectors."""


import repro.sim.network
from repro.core.config import FocusConfig
from repro.core.dgm import REPRESENTATIVES_PER_GROUP
from repro.core.query import DecodedQueryJson, MatchAnswer, Query, QueryTerm
from repro.gossip.agent import QUERY_RESPONSE
from repro.harness import build_focus_cluster, drain, run_query
from repro.harness.scenarios import build_single_group_cluster


class TestGroupMoves:
    def test_attribute_change_moves_group(self):
        scenario = build_focus_cluster(16, seed=3, with_store=False)
        drain(scenario, 12.0)
        agent = scenario.agents[0]
        old_group = agent.memberships["ram_mb"].group
        # Push the value far outside the current group's range.
        low, high = agent.memberships["ram_mb"].low, agent.memberships["ram_mb"].high
        new_value = high + 3000.0 if high + 3000.0 < 16384 else low - 3000.0
        agent.set_attribute("ram_mb", new_value)
        drain(scenario, 10.0)
        membership = agent.memberships["ram_mb"]
        assert membership.group != old_group
        assert membership.contains(new_value)

    def test_move_updates_service_view(self):
        scenario = build_focus_cluster(16, seed=4, with_store=False)
        drain(scenario, 12.0)
        agent = scenario.agents[1]
        agent.set_attribute("cpu_percent", (agent.dynamic["cpu_percent"] + 50) % 100)
        drain(scenario, 12.0)
        service_groups = scenario.service.dgm.groups.groups_of_node(agent.node_id)
        agent_groups = {m.group for m in agent.memberships.values()}
        assert {g.name for g in service_groups} == agent_groups

    def test_within_range_change_does_not_move(self):
        scenario = build_focus_cluster(8, seed=5, with_store=False)
        drain(scenario, 10.0)
        agent = scenario.agents[0]
        membership = agent.memberships["disk_gb"]
        group = membership.group
        middle = (membership.low + membership.high) / 2
        agent.set_attribute("disk_gb", middle)
        drain(scenario, 5.0)
        assert agent.memberships["disk_gb"].group == group

    def test_value_changing_mid_move_is_chased(self):
        """If the attribute changes again while a suggestion is in flight,
        the agent keeps moving until its group contains the current value."""
        scenario = build_focus_cluster(16, seed=45, with_store=False)
        drain(scenario, 12.0)
        agent = scenario.agents[3]
        # Two immediate updates: the second lands while the first move's
        # suggestion RPC is still in flight.
        agent.set_attribute("ram_mb", 500.0)
        agent.set_attribute("ram_mb", 15000.0)
        drain(scenario, 15.0)
        membership = agent.memberships["ram_mb"]
        assert membership.contains(15000.0), membership.group

    def test_moved_node_still_queryable(self):
        scenario = build_focus_cluster(16, seed=6, with_store=False)
        drain(scenario, 12.0)
        agent = scenario.agents[2]
        agent.set_attribute("ram_mb", 15000.0)
        drain(scenario, 1.0)  # mid-transition: covered by transition table
        query = Query([QueryTerm.at_least("ram_mb", 14000.0)], freshness_ms=0.0)
        response = run_query(scenario, query)
        assert agent.node_id in response.node_ids


class TestGroupReentry:
    def test_late_answer_to_a_previous_incarnations_query_is_dropped(self):
        """Leave a group, re-enter it, and an answer to the first stay's
        ``q1`` arrives late: the new serf agent at the old address must not
        have a ``q1`` of its own to merge it into."""
        scenario = build_focus_cluster(16, seed=3, with_store=False, warm_start=True)
        drain(scenario, 5.0)
        agent = scenario.agents[0]
        home = agent.memberships["ram_mb"]
        home_value = agent.dynamic["ram_mb"]
        everyone = Query([QueryTerm.at_least("ram_mb", 0.0)]).to_json()

        first_serf = home.serf
        old_id = first_serf.query("fq", everyone, lambda responses: None, timeout=1.0)
        drain(scenario, 3.0)
        away = home.high + 3000.0 if home.high + 3000.0 < 16384 else home.low - 3000.0
        agent.set_attribute("ram_mb", away)
        drain(scenario, 10.0)
        assert agent.memberships["ram_mb"].group != home.group
        agent.set_attribute("ram_mb", home_value)
        drain(scenario, 10.0)
        back = agent.memberships["ram_mb"]
        assert back.group == home.group
        assert back.serf is not first_serf
        assert back.serf.address == first_serf.address

        answers = []
        new_id = back.serf.query("fq", everyone, answers.append, timeout=1.0)
        assert new_id != old_id
        peer = next(
            a for a in scenario.agents
            if a is not agent and a.memberships["ram_mb"].group == back.group
        )
        peer.memberships["ram_mb"].serf.send(
            back.serf.address,
            QUERY_RESPONSE,
            {"id": old_id, "from": "ghost", "r": {"node": "ghost", "match": True}},
        )
        drain(scenario, 3.0)
        (responses,) = answers
        assert "ghost" not in responses
        assert set(responses) == {m.name for m in back.serf.alive_members()}

    def test_first_pull_after_a_crash_restart_is_answered(self):
        """Peers remember the crashed incarnation's ``q1``; the restarted
        node must not number its first query ``q1`` again, or they all take
        it for a re-delivery and nobody answers."""
        scenario = build_focus_cluster(16, seed=3, with_store=False, warm_start=True)
        drain(scenario, 5.0)
        agent = scenario.agents[0]
        home = agent.memberships["ram_mb"]
        everyone = Query([QueryTerm.at_least("ram_mb", 0.0)]).to_json()
        old_id = home.serf.query("fq", everyone, lambda responses: None, timeout=1.0)
        drain(scenario, 3.0)

        agent.stop()
        agent.restart()
        drain(scenario, 10.0)
        back = agent.memberships["ram_mb"]
        assert back.group == home.group
        assert back.serf is not home.serf
        assert back.serf.address == home.serf.address

        answers = []
        new_id = back.serf.query("fq", everyone, answers.append, timeout=1.0)
        drain(scenario, 3.0)
        (responses,) = answers
        assert len(responses) > 1
        assert set(responses) == {m.name for m in back.serf.alive_members()}
        assert new_id != old_id


class TestGroupQueryCost:
    def test_one_pull_measures_and_decodes_its_query_once_for_the_group(
        self, monkeypatch
    ):
        """A pull costs one walk of the query wire for the whole group, not
        one per member, and no decode at all: the query travels decoded."""
        scenario = build_single_group_cluster(32, seed=5)
        scenario.sim.run_until(5.0)
        walks = []
        measure = repro.sim.network.approx_size

        def counting_measure(payload):
            if isinstance(payload, dict) and payload.get("t") == "q":
                walks.append(payload["id"])
            return measure(payload)

        monkeypatch.setattr(repro.sim.network, "approx_size", counting_measure)
        decodes = []
        decode = Query.from_json.__func__

        def counting_decode(cls, data):
            decodes.append(data)
            return decode(cls, data)

        monkeypatch.setattr(Query, "from_json", classmethod(counting_decode))
        response = run_query(
            scenario, Query([QueryTerm.at_least("load", 0.0)], freshness_ms=0.0)
        )
        assert len(response.matches) == 32  # every member answered
        assert len(walks) == 1
        assert decodes == []


class TestGroupQueryLimit:
    def test_a_pull_with_limit_3_replies_at_its_third_match(self):
        """The aggregating member closes its Serf query at the query's
        limit: the reply leaves when the third matching answer arrives, not
        when the whole group has answered."""
        scenario = build_single_group_cluster(32, seed=5)
        scenario.sim.run_until(5.0)
        aggregator = scenario.agents[0]
        membership = aggregator.memberships["load"]
        matched_at = []
        scenario.network.add_delivery_tap(
            lambda m: matched_at.append(scenario.sim.now)
            if m.kind == QUERY_RESPONSE and m.dst == membership.serf.address
            and type(m.payload["r"]) is MatchAnswer else None
        )
        query = Query([QueryTerm.at_least("load", 50.0)], limit=3, freshness_ms=0.0)
        replies = []
        aggregator._rpc_group_query(
            {"group": membership.group, "query": DecodedQueryJson.of(query)},
            lambda reply: replies.append((scenario.sim.now, reply)),
            None,
        )
        scenario.sim.run_until(8.0)
        local_match = query.matches(aggregator.dynamic)
        assert len(replies) == 1
        replied_at, reply = replies[0]
        assert len(reply["matches"]) == 3
        assert "short" not in reply
        assert replied_at == matched_at[2 - local_match]
        assert reply["respondents"] < 32


class TestCollector:
    def test_collector_feeds_attributes(self):
        ticks = []

        def collector_factory(agent):
            def collect():
                ticks.append(agent.node_id)
                return {"cpu_percent": 55.5}

            return collect

        scenario = build_focus_cluster(
            4, seed=7, with_store=False, collector_factory=collector_factory
        )
        drain(scenario, 10.0)
        assert ticks
        assert all(a.dynamic["cpu_percent"] == 55.5 for a in scenario.agents)


class TestRepresentatives:
    def test_representative_uploads_member_list(self):
        scenario = build_focus_cluster(12, seed=8, with_store=False)
        drain(scenario, 15.0)
        reports = scenario.service.metrics.get_counter("group_reports")
        assert reports is not None and reports.value > 0

    def test_excess_representatives_trimmed_and_demoted(self):
        """Appoint one rep too many; the DGM trims back to the target and
        the demoted agent stops its report timer after the next reply."""
        scenario = build_focus_cluster(12, seed=9, with_store=False)
        drain(scenario, 15.0)
        service = scenario.service
        group = next(g for g in service.dgm.groups.all_groups() if len(g.members) > 2)
        extra_id = next(n for n in sorted(group.members) if n not in group.representatives)
        group.representatives.add(extra_id)
        service.dgm._send_appointment(group, extra_id)
        drain(scenario, scenario.config.report_interval * 3 + 2.0)
        target = REPRESENTATIVES_PER_GROUP
        group_after = service.dgm.groups.get(group.name)
        assert len(group_after.representatives) == target
        reporting = 0
        for node_id in group.members:
            agent = scenario.agent(node_id)
            for membership in agent.memberships.values():
                if membership.group == group.name and membership.report_timer is not None:
                    reporting += 1
        assert reporting == target

    def test_new_representative_appointed_after_crash(self):
        scenario = build_focus_cluster(12, seed=10, with_store=False)
        drain(scenario, 15.0)
        service = scenario.service
        group = next(g for g in service.dgm.groups.all_groups() if len(g.members) >= 3)
        rep_id = next(iter(group.representatives))
        scenario.agent(rep_id).stop()
        drain(scenario, 40.0)  # failure detection + next reports
        group_after = service.dgm.groups.get(group.name)
        assert group_after.representatives
        assert rep_id not in group_after.representatives


class TestRegistrationRetry:
    def test_agent_retries_until_service_up(self, sim, network, regions):
        from repro.core.agent import NodeAgent
        from repro.core.service import FocusService

        agent = NodeAgent(
            sim, network, "n1", regions[0], "focus",
            dynamic={"ram_mb": 1000.0}, config=FocusConfig(),
        )
        agent.start()
        sim.run_until(5.0)
        assert not agent.registered
        service = FocusService(sim, network, region=regions[0], config=agent.config)
        service.start()
        sim.run_until(20.0)
        assert agent.registered
