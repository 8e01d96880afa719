"""Router-specific tests: smallest-group planning, waves, timeout, delegation."""

import pytest

import repro.core.agent
from repro.core.config import FocusConfig
from repro.core.query import DecodedQueryJson, Query, QueryTerm
from repro.core.router import QueryRouter
from repro.core.service import SERVER_PROCESSING_DELAY
from repro.harness import build_focus_cluster, drain, run_query


class TestPlanning:
    def test_smallest_term_selected(self):
        """With an exact cpu group term and a broad ram term, the router must
        fan out over the (smaller) cpu candidates."""
        scenario = build_focus_cluster(40, seed=21, with_store=False)
        drain(scenario, 12.0)
        before = scenario.service.metrics.counter("group_queries").value
        query = Query(
            [
                QueryTerm("cpu_percent", lower=0.0, upper=24.9),
                QueryTerm("ram_mb", lower=0.0, upper=16384.0),
            ],
            freshness_ms=0.0,
        )
        response = run_query(scenario, query)
        fanout = scenario.service.metrics.counter("group_queries").value - before
        cpu_instances = scenario.service.dgm.groups.instances_covering(
            "cpu_percent", 0.0, 24.9
        )
        assert fanout <= len(cpu_instances) + 1
        for match in response.matches:
            assert match["attrs"]["cpu_percent"] <= 24.9

    def test_limit_prunes_fanout(self):
        scenario = build_focus_cluster(64, seed=22, with_store=False)
        drain(scenario, 15.0)
        before = scenario.service.metrics.counter("group_queries").value
        query = Query([QueryTerm.at_least("ram_mb", 0.0)], limit=3, freshness_ms=0.0)
        response = run_query(scenario, query)
        fanout = scenario.service.metrics.counter("group_queries").value - before
        all_instances = scenario.service.dgm.groups.instances_covering("ram_mb", 0.0, None)
        assert len(response.matches) == 3
        assert fanout < len(all_instances)


def density_population(index, region):
    """30 nodes: three ``disk_gb`` groups of unequal match density for
    ``ram_mb >= 8192``, and 12 high-``ram_mb`` nodes outside the disk range
    that make the ``ram_mb`` term the larger one."""
    if index < 8:
        disk, ram = 72.0, 10000.0  # disk_gb.70: all 8 match
    elif index < 14:
        disk, ram = 77.0, 10000.0 if index == 8 else 1000.0  # disk_gb.75: 1 of 6
    elif index < 18:
        disk, ram = 67.0, 1000.0  # disk_gb.65: none of 4
    else:
        disk, ram = 10.0, 12000.0
    return {
        "node_id": f"node-{index:05d}",
        "static": {"arch": "x86"},
        "dynamic": {"disk_gb": disk, "ram_mb": ram, "vcpus": 4.0,
                    "cpu_percent": 50.0},
    }


def pulled_groups(monkeypatch):
    """The names of the groups the router pulls, in the order it pulls them."""
    pulled = []
    query_group = QueryRouter._query_group

    def recording(self, state, group):
        pulled.append(group.name)
        query_group(self, state, group)

    monkeypatch.setattr(QueryRouter, "_query_group", recording)
    return pulled


class TestMatchDensity:
    """The routed term's groups are pulled densest first: the share of a
    group's members that sit in a candidate group of every other term."""

    @pytest.fixture
    def scenario(self):
        scenario = build_focus_cluster(
            30, seed=31, warm_start=True, with_store=False,
            node_factory=density_population,
        )
        drain(scenario, 2.0)
        return scenario

    @staticmethod
    def disk_group(scenario, base):
        (group,) = [g for g in scenario.service.dgm.groups.all_groups()
                    if g.attribute == "disk_gb" and g.base == base]
        return group.name

    def test_the_dense_group_is_pulled_first_and_answers_in_one_wave(
        self, scenario, monkeypatch
    ):
        """``disk_gb.75`` is smaller and covers the wave's 2 x limit alone,
        but only 1 of its 6 members can match: smallest-first would wait for
        all 6 answers before a second wave."""
        pulled = pulled_groups(monkeypatch)
        query = Query(
            [QueryTerm("disk_gb", lower=70.0, upper=79.9),
             QueryTerm.at_least("ram_mb", 8192.0)],
            limit=3, freshness_ms=0.0,
        )
        response = run_query(scenario, query)
        assert pulled == [self.disk_group(scenario, 70.0)]
        assert len(response.matches) == 3 and not response.timed_out
        assert response.groups_queried == 1

    def test_a_one_term_query_keeps_smallest_first(self, scenario, monkeypatch):
        pulled = pulled_groups(monkeypatch)
        query = Query([QueryTerm("disk_gb", lower=70.0, upper=79.9)], limit=3,
                      freshness_ms=0.0)
        _, plan = scenario.service.router._plan_groups(query, list(query.terms))
        assert [g.name for g in plan] == [
            self.disk_group(scenario, 75.0), self.disk_group(scenario, 70.0)
        ]
        response = run_query(scenario, query)
        assert pulled == [self.disk_group(scenario, 75.0)]
        assert len(response.matches) == 3

    def test_a_limit_never_met_pulls_every_group_density_zero_last(
        self, scenario, monkeypatch
    ):
        pulled = pulled_groups(monkeypatch)
        query = Query(
            [QueryTerm("disk_gb", lower=65.0, upper=79.9),
             QueryTerm.at_least("ram_mb", 8192.0)],
            limit=50, freshness_ms=0.0,
        )
        response = run_query(scenario, query)
        assert pulled == [self.disk_group(scenario, base) for base in (70.0, 75.0, 65.0)]
        assert sorted(response.node_ids) == [f"node-{i:05d}" for i in range(9)]
        assert not response.timed_out

    def test_empty_groups_go_in_the_first_wave(self, scenario):
        """An empty group starts no pull: were it ranked by its density (0),
        a later wave of empty groups alone would leave the query waiting
        for its timeout."""
        for base in (65.0, 70.0):
            group = scenario.service.dgm.groups.require(
                self.disk_group(scenario, base)
            )
            group.members.clear()
            group.pending.clear()
        query = Query(
            [QueryTerm("disk_gb", lower=65.0, upper=79.9),
             QueryTerm.at_least("ram_mb", 8192.0)],
            limit=3, freshness_ms=0.0,
        )
        response = run_query(scenario, query)
        assert response.node_ids == ["node-00008"]
        assert not response.timed_out
        assert response.elapsed < scenario.config.query_timeout / 2


class TestTransitionPulls:
    """A node in transition for the routed attribute is pulled directly only
    if it is joining a candidate group of the query (any wave) or a group
    gone from the group table; the delegated reply names the same nodes."""

    QUERY = Query(
        [QueryTerm("disk_gb", lower=65.0, upper=79.9),
         QueryTerm.at_least("ram_mb", 8192.0)],
        limit=3, freshness_ms=0.0,
    )

    @pytest.fixture
    def scenario(self):
        scenario = build_focus_cluster(
            30, seed=31, warm_start=True, with_store=False,
            node_factory=density_population,
        )
        drain(scenario, 2.0)
        return scenario

    @staticmethod
    def joining(scenario, node, base):
        """Put ``node`` in transition into the ``disk_gb`` group at
        ``base``, or into a group name the table does not hold."""
        from repro.core.dgm import Transition

        groups = [g.name for g in scenario.service.dgm.groups.all_groups()
                  if g.attribute == "disk_gb" and g.base == base]
        group = groups[0] if groups else f"disk_gb.{base:g}-gone"
        scenario.service.dgm.transitions[(node, "disk_gb")] = Transition(
            node, "disk_gb", group, scenario.sim.now
        )
        return group

    @staticmethod
    def pulls(monkeypatch):
        """Every direct and group pull the router starts, in order."""
        pulled = []
        query_group = QueryRouter._query_group
        query_node = QueryRouter._query_transitioning

        def group_pull(self, state, group):
            pulled.append(("group", group.name))
            query_group(self, state, group)

        def node_pull(self, state, node_id):
            pulled.append(("node", node_id))
            query_node(self, state, node_id)

        monkeypatch.setattr(QueryRouter, "_query_group", group_pull)
        monkeypatch.setattr(QueryRouter, "_query_transitioning", node_pull)
        return pulled

    def test_a_node_joining_a_candidate_group_is_pulled(self, scenario, monkeypatch):
        first = self.joining(scenario, "node-00001", 70.0)
        pulled = self.pulls(monkeypatch)
        response = run_query(scenario, self.QUERY)
        assert pulled == [("node", "node-00001"), ("group", first)]
        assert len(response.matches) == 3 and not response.timed_out

    def test_a_node_joining_a_non_candidate_group_is_not_pulled(
        self, scenario, monkeypatch
    ):
        self.joining(scenario, "node-00020", 10.0)
        pulled = self.pulls(monkeypatch)
        response = run_query(scenario, self.QUERY)
        assert [kind for kind, _ in pulled] == ["group"]
        assert len(response.matches) == 3 and not response.timed_out

    def test_a_node_whose_target_group_is_gone_is_pulled(self, scenario, monkeypatch):
        gone = self.joining(scenario, "node-00021", 80.0)
        assert scenario.service.dgm.groups.get(gone) is None
        pulled = self.pulls(monkeypatch)
        run_query(scenario, self.QUERY)
        assert pulled[0] == ("node", "node-00021")

    def test_a_node_joining_a_later_wave_group_is_pulled_at_the_start(
        self, scenario, monkeypatch
    ):
        later = self.joining(scenario, "node-00015", 65.0)
        pulled = self.pulls(monkeypatch)
        response = run_query(scenario, self.QUERY)
        assert pulled[0] == ("node", "node-00015")
        assert ("group", later) not in pulled  # the first wave met the limit
        assert len(response.matches) == 3

    def test_the_delegated_reply_names_the_nodes_a_directed_pull_pulls(
        self, scenario, monkeypatch
    ):
        for node, base in (("node-00001", 70.0), ("node-00015", 65.0),
                           ("node-00020", 10.0), ("node-00021", 80.0)):
            self.joining(scenario, node, base)
        pulled = self.pulls(monkeypatch)
        run_query(scenario, self.QUERY)
        directed = [node for kind, node in pulled if kind == "node"]
        assert directed == ["node-00001", "node-00015", "node-00021"]
        router = scenario.service.router
        attribute, plan = router._plan_groups(self.QUERY, list(self.QUERY.terms))
        replies = []
        router._delegate(self.QUERY, attribute, plan, replies.append)
        (reply,) = replies
        assert reply["delegated"]["transitions"] == directed


class TestEmptyGroups:
    def test_wave_of_empty_groups_finishes_immediately(self):
        """Group instances whose members all left produce no RPCs; the
        router must finish (or move to the next wave) without waiting for
        the query timeout."""
        scenario = build_focus_cluster(12, seed=20, with_store=False)
        drain(scenario, 12.0)
        dgm = scenario.service.dgm
        # Empty every ram group server-side (as if all members moved away
        # moments ago and reports confirmed it).
        for group in dgm.groups.instances_covering("ram_mb", None, None):
            group.members.clear()
            group.pending.clear()
        query = Query([QueryTerm.at_least("ram_mb", 0.0)], limit=3, freshness_ms=0.0)
        response = run_query(scenario, query)
        assert response.matches == []
        assert not response.timed_out
        assert response.elapsed < scenario.config.query_timeout / 2


class TestTimeout:
    def test_unresponsive_group_times_out_with_partial_results(self, monkeypatch):
        monkeypatch.setattr(repro.core.agent, "GROUP_QUERY_TIMEOUT", 1.0)
        config = FocusConfig(query_timeout=1.5)
        scenario = build_focus_cluster(24, seed=23, with_store=False, config=config)
        drain(scenario, 12.0)
        # Partition one group's members from the service after reports, so
        # the service still believes the group is reachable.
        groups = scenario.service.dgm.groups.instances_covering("ram_mb", 0.0, None)
        victims = groups[0].all_node_ids()
        for node_id in victims:
            scenario.network.block(scenario.service.address, node_id)
        query = Query([QueryTerm.at_least("ram_mb", 0.0)], freshness_ms=0.0)
        response = run_query(scenario, query)
        assert response.timed_out or set(response.node_ids).isdisjoint(victims)

    def test_retry_uses_second_member(self):
        """If the randomly chosen member is dead, the router retries another."""
        scenario = build_focus_cluster(24, seed=24, with_store=False)
        drain(scenario, 12.0)
        group = next(
            g
            for g in scenario.service.dgm.groups.all_groups()
            if len(g.members) >= 3
        )
        # Kill one member; the service's member list is still stale.
        victim = sorted(group.members)[0]
        scenario.agent(victim).stop()
        low, high = group.range
        query = Query(
            [QueryTerm(group.attribute, lower=low, upper=high - 0.001)],
            freshness_ms=0.0,
        )
        response = run_query(scenario, query)
        # The surviving members still answer (directly or via retry).
        alive_expected = {
            a.node_id
            for a in scenario.agents
            if a.running and low <= a.dynamic[group.attribute] < high
        }
        assert alive_expected.issubset(set(response.node_ids) | {victim})


def short_group_replies(monkeypatch):
    """Make every aggregating member flag its group answer ``short``, as
    one does when a member it holds alive never answered by the deadline."""
    group_query = repro.core.agent.NodeAgent._rpc_group_query

    def flagging(self, params, respond, message):
        return group_query(
            self, params, lambda reply: respond({**reply, "short": True}), message
        )

    monkeypatch.setattr(repro.core.agent.NodeAgent, "_rpc_group_query", flagging)


class TestShortGroups:
    """A group answer that may lack matches makes the whole answer
    ``timed_out``, which is never cached, unless the limit was met anyway."""

    def test_a_short_reply_times_the_answer_out_and_is_not_cached(self, monkeypatch):
        short_group_replies(monkeypatch)
        scenario = build_focus_cluster(24, seed=32, with_store=False)
        drain(scenario, 12.0)
        query = Query([QueryTerm.at_least("ram_mb", 0.0)], freshness_ms=60_000.0)
        first = run_query(scenario, query)
        assert first.source == "groups" and first.timed_out
        assert len(first.matches) == 24
        assert len(scenario.service.cache) == 0
        second = run_query(scenario, query)
        assert second.source == "groups" and second.timed_out
        assert scenario.service.metrics.counter("query_timeouts").value == 0

    def test_a_short_reply_that_met_the_limit_stays_complete(self, monkeypatch):
        short_group_replies(monkeypatch)
        scenario = build_focus_cluster(24, seed=32, with_store=False)
        drain(scenario, 12.0)
        query = Query([QueryTerm.at_least("ram_mb", 0.0)], limit=3,
                      freshness_ms=60_000.0)
        first = run_query(scenario, query)
        assert len(first.matches) == 3 and not first.timed_out
        second = run_query(scenario, query)
        assert second.source == "cache" and len(second.matches) == 3

    def test_a_group_silent_through_its_retry_times_the_answer_out(
        self, monkeypatch
    ):
        """With the router's own deadline out of the way, a group whose
        member and substitute both stay silent still flags the answer."""
        monkeypatch.setattr(QueryRouter, "_timeout", lambda self, state: None)
        scenario = build_focus_cluster(24, seed=23, with_store=False)
        drain(scenario, 12.0)
        groups = scenario.service.dgm.groups.instances_covering("ram_mb", 0.0, None)
        victims = groups[0].all_node_ids()
        assert len(victims) >= 2
        for node_id in victims:
            scenario.network.block(scenario.service.address, node_id)
        query = Query([QueryTerm.at_least("ram_mb", 0.0)], freshness_ms=60_000.0)
        response = run_query(scenario, query)
        assert response.timed_out
        assert set(response.node_ids).isdisjoint(victims)
        assert len(scenario.service.cache) == 0

    def test_a_delegated_pull_flags_a_short_group(self, monkeypatch):
        short_group_replies(monkeypatch)
        config = FocusConfig(delegation_enabled=True, delegation_threshold=0)
        scenario = build_focus_cluster(24, seed=25, with_store=False, config=config)
        drain(scenario, 12.0)
        complete = run_query(
            scenario, Query([QueryTerm.at_least("ram_mb", 0.0)], freshness_ms=0.0)
        )
        limited = run_query(
            scenario,
            Query([QueryTerm.at_least("ram_mb", 0.0)], limit=4, freshness_ms=0.0),
        )
        assert complete.source == "delegated" and complete.timed_out
        assert len(limited.matches) == 4 and not limited.timed_out


class TestDelegation:
    def test_delegated_response_contains_candidates(self):
        config = FocusConfig(delegation_enabled=True, delegation_threshold=0)
        scenario = build_focus_cluster(24, seed=25, with_store=False, config=config)
        drain(scenario, 12.0)
        query = Query([QueryTerm.at_least("ram_mb", 0.0)], freshness_ms=0.0)
        response = run_query(scenario, query)
        # The client transparently performed the pull itself.
        assert response.source == "delegated"
        expected = {a.node_id for a in scenario.agents}
        assert set(response.node_ids) == expected

    def test_delegated_queries_not_cached(self):
        config = FocusConfig(delegation_enabled=True, delegation_threshold=0)
        scenario = build_focus_cluster(12, seed=26, with_store=False, config=config)
        drain(scenario, 12.0)
        query = Query([QueryTerm.at_least("ram_mb", 0.0)], freshness_ms=60_000.0)
        first = run_query(scenario, query)
        second = run_query(scenario, query)
        assert first.source == "delegated"
        assert second.source == "delegated"  # never served from cache
        assert scenario.service.cache.hits == 0

    def test_delegation_respects_limit(self):
        config = FocusConfig(delegation_enabled=True, delegation_threshold=0)
        scenario = build_focus_cluster(24, seed=27, with_store=False, config=config)
        drain(scenario, 12.0)
        query = Query([QueryTerm.at_least("ram_mb", 0.0)], limit=4, freshness_ms=0.0)
        response = run_query(scenario, query)
        assert len(response.matches) == 4


class TestCachePath:
    def test_cache_disabled_config(self):
        config = FocusConfig(cache_enabled=False)
        scenario = build_focus_cluster(12, seed=28, with_store=False, config=config)
        drain(scenario, 12.0)
        query = Query([QueryTerm.at_least("ram_mb", 0.0)], freshness_ms=60_000.0)
        first = run_query(scenario, query)
        second = run_query(scenario, query)
        assert first.source == "groups"
        assert second.source == "groups"

    def test_cache_hit_faster_than_group_pull(self):
        scenario = build_focus_cluster(24, seed=29, with_store=False)
        drain(scenario, 12.0)
        query = Query([QueryTerm.at_least("ram_mb", 1000.0)], freshness_ms=120_000.0)
        miss = run_query(scenario, query)
        hit = run_query(scenario, query)
        assert hit.source == "cache"
        assert hit.elapsed < miss.elapsed
        # Fig. 8c: the cache path is dominated by server processing (~45 ms).
        assert hit.elapsed == pytest.approx(SERVER_PROCESSING_DELAY, rel=0.5)


class TestReplyTiming:
    """When a query's reply leaves a server with no CPU model."""

    @staticmethod
    def _cache_hits(config, count, seed):
        """Offsets after their common arrival at which ``count`` cache hits,
        handed to the service at one instant, leave it."""
        scenario = build_focus_cluster(12, seed=seed, with_store=False,
                                       config=config)
        drain(scenario, 12.0)
        query = Query([QueryTerm.at_least("ram_mb", 1000.0)],
                      freshness_ms=120_000.0)
        run_query(scenario, query)  # fills the cache
        drain(scenario, 1.0)
        arrived = scenario.sim.now
        left = []

        def respond(payload):
            assert payload["source"] == "cache"
            left.append(scenario.sim.now - arrived)

        for _ in range(count):
            scenario.service._rpc_query(
                {"query": DecodedQueryJson.of(query)}, respond, None
            )
        drain(scenario, 1.0)
        return left

    def test_reply_leaves_after_the_fixed_delay(self):
        left = self._cache_hits(FocusConfig(), 1, seed=30)
        assert left == [pytest.approx(SERVER_PROCESSING_DELAY, abs=1e-9)]

    def test_serial_queue_serves_replies_one_at_a_time(self):
        left = self._cache_hits(FocusConfig(server_queue_enabled=True), 3,
                                seed=31)
        d = SERVER_PROCESSING_DELAY
        assert left == [pytest.approx(k * d, abs=1e-9) for k in (1, 2, 3)]
