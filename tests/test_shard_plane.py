"""Sharded serving plane: ring ownership, legacy equivalence, scatter-gather,
staleness bounds, replicas, shard failover, and every control call of a
cold-started plane."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import FocusConfig
from repro.core.query import Query, QueryTerm, answer_payload
from repro.core.rest import Application
from repro.core.shardplane import (
    FamilyShardMap,
    family_key_of_group,
    replica_address,
    shard_address,
)
from repro.core.views import view_group_name
from repro.harness import build_focus_cluster, drain, run_query
from repro.harness.failure_suite import run_shard_failover
from repro.sim.rpc import RESPONSE_KIND
from repro.workloads.querygen import QueryWorkload

#: Digest of the seeded ``shards=1`` run in :func:`_seeded_run_digest`.
#: Pinned so any future change to the legacy serving path (which a
#: single-shard deployment must reproduce byte-for-byte) is caught here.
SHARDS1_RUN_DIGEST = (
    "908616c7f36542759c6be35fbc4b4c53eff3cda3eca0588a8859f8abff7f434b"
)

# ------------------------------------------------------------ ring ownership

_attrs = st.sampled_from(["ram_mb", "disk_gb", "cpu_percent", "vcpus", "load"])
_keys = st.builds(
    lambda a, b: f"{a}.{b}", _attrs, st.integers(min_value=0, max_value=16384)
)
_key_lists = st.lists(_keys, min_size=1, max_size=40, unique=True)
_shard_counts = st.integers(min_value=1, max_value=9)


class TestRingOwnership:
    @settings(max_examples=100, deadline=None)
    @given(keys=_key_lists, count=_shard_counts)
    def test_every_family_owned_by_exactly_one_shard(self, keys, count):
        addresses = [shard_address("focus", i) for i in range(count)]
        shard_map = FamilyShardMap(addresses)
        assignment = {key: shard_map.owner(key) for key in keys}
        assert set(assignment) == set(keys)
        for key, owner in assignment.items():
            assert owner in addresses
            # Ownership is a pure function of the key and the shard set.
            assert FamilyShardMap(list(reversed(addresses))).owner(key) == owner


class TestFamilyKey:
    def test_strips_region_qualifier_and_fork_suffix(self):
        assert family_key_of_group("ram_mb.2048") == "ram_mb.2048"
        assert family_key_of_group("ram_mb.2048@us-east") == "ram_mb.2048"
        assert family_key_of_group("ram_mb.2048@us-east#2") == "ram_mb.2048"
        assert family_key_of_group("ram_mb.2048#3") == "ram_mb.2048"


# ------------------------------------------------- seeded runs and equality

def _drain_queries(scenario, queries, *, app=None):
    """Issue ``queries`` one at a time, waiting each one out; return the
    (source, timed_out, staleness_ms, sorted node ids) tuple per query."""
    app = app or scenario.app
    outcomes = []
    for query in queries:
        box = []
        app.query(query, box.append)
        deadline = scenario.sim.now + 30.0
        while not box and scenario.sim.now < deadline:
            scenario.sim.run_until(scenario.sim.now + 0.25)
        response = box[0]
        outcomes.append((
            response.source,
            response.timed_out,
            round(response.staleness_ms, 3),
            sorted(str(m["node"]) for m in response.matches),
        ))
    return outcomes


def _workload_queries(count=6):
    workload = QueryWorkload(seed=9, limit=10, freshness_ms=0.0)
    return workload.batch(count)


def _seeded_run_digest(config):
    """Run a fixed seeded deployment + query mix; digest what it produced."""
    scenario = build_focus_cluster(
        24, seed=3, config=config, warm_start=True, with_store=False,
    )
    scenario.sim.run_until(2.0)
    outcomes = _drain_queries(scenario, _workload_queries())
    scenario.sim.run_until(20.0)
    summary = {
        "outcomes": outcomes,
        "groups": {
            group.name: sorted(group.all_node_ids())
            for group in scenario.plane.all_groups()
        },
        "bandwidth": scenario.server_bandwidth_bytes(),
        "now": scenario.sim.now,
    }
    blob = json.dumps(summary, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class TestSingleShardIsLegacy:
    def test_plane_with_one_shard_has_no_router_or_replicas(self):
        scenario = build_focus_cluster(8, seed=1, warm_start=True,
                                       with_store=False)
        plane = scenario.plane
        assert plane.router is None
        assert plane.replicas == []
        assert plane.primary.address == "focus"
        assert plane.entry_address == "focus"
        assert scenario.service is plane.primary

    def test_seeded_single_shard_run_matches_pinned_digest(self):
        digest = _seeded_run_digest(FocusConfig())
        assert digest == _seeded_run_digest(FocusConfig())  # stable
        assert digest == SHARDS1_RUN_DIGEST

    def test_explicit_defenses_off_config_is_byte_identical(self):
        """An OverloadConfig with every gate at its default must reproduce
        the pinned digest exactly — the defense layer being wired in but
        switched off cannot perturb a single float."""
        from repro.core.admission import OverloadConfig

        config = FocusConfig(overload=OverloadConfig(
            cpu_model_enabled=False,
            throttle_enabled=False,
            queue_enabled=False,
            bulkhead_enabled=False,
            breaker_enabled=False,
        ))
        assert _seeded_run_digest(config) == SHARDS1_RUN_DIGEST


class TestScatterGatherEquivalence:
    def test_sharded_answers_match_single_server(self):
        probes = [
            # Single family: lands on exactly one shard.
            Query([QueryTerm("ram_mb", lower=4096.0, upper=6143.0)], limit=None),
            # Multi-attribute: the routed term's families span shards.
            Query([
                QueryTerm("ram_mb", lower=2048.0, upper=10240.0),
                QueryTerm.at_least("vcpus", 2.0),
            ], limit=None),
            # Static-only: served by the statics shard via the router.
            Query([QueryTerm.exact("service_type", "scheduler")], limit=None),
            Query([QueryTerm.at_most("cpu_percent", 25.0)], limit=None),
        ]
        results = {}
        for shards in (1, 4):
            scenario = build_focus_cluster(
                40, seed=6, config=FocusConfig(shards=shards),
                warm_start=True, with_store=False,
            )
            scenario.sim.run_until(2.0)
            results[shards] = _drain_queries(scenario, probes)
        for single, sharded in zip(results[1], results[4]):
            assert single[3] == sharded[3]  # identical node sets
            assert not single[1] and not sharded[1]  # neither timed out

    def test_sharded_group_tables_partition_the_families(self):
        scenario = build_focus_cluster(
            40, seed=6, config=FocusConfig(shards=4),
            warm_start=True, with_store=False,
        )
        shard_map = scenario.plane.router.shard_map
        for shard in scenario.plane.shards:
            for group in shard.dgm.groups.all_groups():
                assert shard_map.owner_of_group(group.name) == shard.address


class TestStalenessBounds:
    def test_cached_answer_reports_bounded_staleness(self):
        scenario = build_focus_cluster(
            24, seed=5, config=FocusConfig(shards=4),
            warm_start=True, with_store=False,
        )
        scenario.sim.run_until(2.0)
        query = Query([QueryTerm("ram_mb", lower=4096.0, upper=6143.0)],
                      limit=None, freshness_ms=2000.0)
        first, second = _drain_queries(scenario, [query, query])
        assert first[0] == "groups"
        assert first[2] == 0.0
        assert second[0] == "cache"
        assert 0.0 < second[2] <= 2000.0

    def test_replica_serves_repeat_queries_locally(self):
        config = FocusConfig(shards=2, replica_reads=True)
        scenario = build_focus_cluster(
            24, seed=5, config=config, warm_start=True, with_store=False,
        )
        region = scenario.network.topology.regions[1].name
        app = Application(
            scenario.sim, scenario.network, f"app-{region}", region,
            focus_address=replica_address(region),
        )
        app.start()
        scenario.sim.run_until(2.0)
        query = Query([QueryTerm("ram_mb", lower=4096.0, upper=6143.0)],
                      limit=None, freshness_ms=3000.0)
        first, second = _drain_queries(scenario, [query, query], app=app)
        assert not first[1] and not second[1]
        assert second[0] == "replica"
        assert 0.0 < second[2] <= 3000.0
        # The replica's cached answer matched the live pull's node set.
        assert second[3] == first[3]


class TestShardFailover:
    def test_failover_report_shape(self):
        report = run_shard_failover(seed=1, num_nodes=24)
        assert report["scenario"] == "shard-failover"
        assert report["shards"] == 4
        assert report["victim_shard"] in {
            shard_address("focus", i) for i in range(4)
        }
        assert report["fault_window"]["polls"] > 0
        actions = [entry["action"] for entry in report["fault_log"]]
        assert any("crash" in action for action in actions)
        assert any("restart" in action for action in actions)
        # The plane kept answering during the outage (timeouts surface as
        # timed-out partials, not lost queries) and recovered by the end.
        assert report["reconvergence_s"] is not None


class TestShedShardMergeIsNotCached:
    """A multi-shard merge in which one shard shed or throttled the query
    (its reply carries ``error``) is missing that shard's matches: the
    router must not cache it, so a repeat of the query is pulled again."""

    QUERY = Query([QueryTerm("ram_mb", lower=2048.0, upper=10240.0)],
                  limit=None, freshness_ms=3000.0)

    def repeat(self, shed: bool):
        scenario = build_focus_cluster(
            40, seed=6, config=FocusConfig(shards=4),
            warm_start=True, with_store=False,
        )
        router = scenario.plane.router
        _, owners = router._scatter_plan(self.QUERY)
        assert len(owners) >= 2  # a scatter-gather, not a forward
        if shed:
            (victim,) = [s for s in scenario.plane.shards if s.address == owners[0]]
            victim.router.handle = (
                lambda params, respond: answer_payload(
                    [], "shed-backlog", error="shed-backlog"
                )
            )
        scenario.sim.run_until(2.0)
        first, second = _drain_queries(scenario, [self.QUERY, self.QUERY])
        return first, second, router.cache.lookup(self.QUERY, scenario.sim.now)

    def test_a_merge_without_a_shed_shard_is_cached(self):
        first, second, cached = self.repeat(shed=False)
        assert first[0] == "groups" and second[0] == "cache"
        assert cached is not None

    def test_a_merge_with_a_shed_shard_misses_the_cache(self):
        first, second, cached = self.repeat(shed=True)
        assert first[0] == second[0] == "groups"
        assert not first[1]  # not timed out: the shard answered, with an error
        assert first[3] == second[3]
        assert cached is None


class TestShedShardMergeIsFlaggedPartial:
    """A 2-shard query in which one shard sheds: the merged reply carries the
    other shard's matches and says it is partial, naming the shard that
    refused. A complete merge carries neither key."""

    QUERY = TestShedShardMergeIsNotCached.QUERY

    def answer(self, shed: bool):
        scenario = build_focus_cluster(
            40, seed=6, config=FocusConfig(shards=2),
            warm_start=True, with_store=False,
        )
        _, owners = scenario.plane.router._scatter_plan(self.QUERY)
        assert len(owners) == 2
        if shed:
            (victim,) = [s for s in scenario.plane.shards if s.address == owners[1]]
            victim.router.handle = (
                lambda params, respond: answer_payload(
                    [], "shed-backlog", error="shed-backlog"
                )
            )
        replies = []  # the result of every RPC response the application gets
        scenario.network.add_delivery_tap(
            lambda message: replies.append(message.payload["result"])
            if message.dst == scenario.app.address and message.kind == RESPONSE_KIND
            else None
        )
        scenario.sim.run_until(2.0)
        box = []
        scenario.app.query(self.QUERY, box.append)
        while not box:
            scenario.sim.run_until(scenario.sim.now + 0.25)
        return box[0], replies[-1], owners

    def test_a_complete_merge_has_no_partial_keys(self):
        response, result, _ = self.answer(shed=False)
        assert not response.partial and response.refused_shards == ()
        assert "partial" not in result and "refused_shards" not in result

    def test_a_merge_with_a_shed_shard_says_partial(self):
        complete, _, _ = self.answer(shed=False)
        response, _, owners = self.answer(shed=True)
        assert response.partial
        assert response.refused_shards == (owners[1],)
        assert not response.timed_out and response.error is None
        assert response.matches  # the answering shard's share is kept
        assert set(response.node_ids) < set(complete.node_ids)


# --------------------------------------------------- cold-start control path

class TestColdStartShardedPlane:
    """A sharded plane brought up by the protocol, not warm-started.

    Every other ``shards>1`` scenario warm-starts, so none of them sends a
    registration, a suggestion, a report or a view call through the router.
    This one does: 40 agents register through the router, half of them move
    their ``ram_mb`` to a family another shard owns, an application creates
    a materialized view, a member leaves it, the view is dropped and an
    agent shuts down. One run, recorded once; each test checks one step.
    """

    SEED = 6
    NODES = 40
    PROBES = [
        Query([QueryTerm("ram_mb", lower=4096.0, upper=6143.0)], limit=None),
        Query([
            QueryTerm("ram_mb", lower=2048.0, upper=10240.0),
            QueryTerm.at_least("vcpus", 2.0),
        ], limit=None),
        Query([QueryTerm.exact("service_type", "scheduler")], limit=None),
        Query([QueryTerm.at_most("cpu_percent", 25.0)], limit=None),
    ]
    VIEW = Query([QueryTerm.at_most("cpu_percent", 25.0)], limit=None)
    ROUTER_METHODS = {
        "focus.register", "focus.deregister", "focus.suggest",
        "focus.group-report", "focus.query", "focus.create-view",
        "focus.drop-view", "focus.join-view", "focus.leave-view",
    }

    @classmethod
    def build(cls, shards):
        return build_focus_cluster(
            cls.NODES, seed=cls.SEED,
            config=FocusConfig(shards=shards, replica_reads=shards > 1),
            warm_start=False, with_store=True,
        )

    @staticmethod
    def truth(scenario, query):
        return sorted(
            a.node_id for a in scenario.agents if query.matches(a.attributes())
        )

    @pytest.fixture(scope="class")
    def run(self):
        """Drive the plane through every control call; record what it did."""
        from repro.core.naming import group_name
        from repro.sim.rpc import REQUEST_KIND

        single = self.build(1)
        drain(single, 15.0)
        record = {"single": [sorted(run_query(single, q).node_ids) for q in self.PROBES]}
        scenario = self.build(4)
        plane, router = scenario.plane, scenario.plane.router
        shard_map = router.shard_map
        shards = {shard.address: shard for shard in plane.shards}
        requests = {}  # (destination, method) -> [params]
        scenario.network.add_delivery_tap(
            lambda m: requests.setdefault(
                (m.dst, m.payload["method"]), []
            ).append(m.payload["params"]) if m.kind == REQUEST_KIND else None
        )
        drain(scenario, 15.0)  # registrations staggered over 5 s, then joins
        record["registered"] = {a: set(s.registrar.nodes) for a, s in shards.items()}
        record["placement"] = [
            (address, group.name, shard_map.owner_of_group(group.name))
            for address, shard in shards.items()
            for group in shard.dgm.groups.all_groups()
        ]
        record["memberships"] = sum(
            len(group.all_node_ids()) for group in plane.all_groups()
        )
        record["probes"] = [
            (sorted(run_query(scenario, q).node_ids), self.truth(scenario, q))
            for q in self.PROBES
        ]

        # Move half the agents' ram_mb to a family another shard owns. A
        # representative may re-list itself in one last report before its
        # move completes, so what the old owner holds is read as it handles
        # the leave.
        after_leave = {}  # (shard, node, group) -> still a member
        for shard in plane.shards:
            def node_left_group(node_id, group, shard=shard,
                                inner=shard.dgm.node_left_group):
                inner(node_id, group)
                info = shard.dgm.groups.get(group)
                after_leave[(shard.address, node_id, group)] = (
                    info is not None and node_id in info.all_node_ids()
                )
            shard.dgm.node_left_group = node_left_group
        cutoff = scenario.config.cutoff_for("ram_mb")
        moves = []
        for agent in scenario.agents[::2]:
            old_group = agent.memberships["ram_mb"].group
            old_owner = shard_map.owner_of_group(old_group)
            value = next(
                base + cutoff / 2
                for base in range(0, 16384, int(cutoff))
                if shard_map.owner(group_name("ram_mb", base + cutoff / 2, cutoff))
                != old_owner
            )
            moves.append((agent.node_id, old_group, old_owner))
            agent.set_attribute("ram_mb", value)
        drain(scenario, 2.0)
        record["moves"] = [
            (
                node_id,
                {"node_id": node_id, "group": old_group}
                in requests.get((old_owner, "focus.leave-group"), []),
                after_leave.get((old_owner, node_id, old_group)),
            )
            for node_id, old_group, old_owner in moves
        ]

        # A view, answered from its group and then from a region replica.
        created = []
        scenario.app.client.create_view(self.VIEW, created.append)
        drain(scenario, 12.0)
        view_id = created[0]["view_id"]
        record["view"] = (run_query(scenario, self.VIEW), self.truth(scenario, self.VIEW))
        region = scenario.network.topology.regions[1].name
        app = Application(
            scenario.sim, scenario.network, f"app-{region}", region,
            focus_address=replica_address(region),
        )
        app.start()
        drain(scenario, 6.0)  # one replica refresh
        fresh = Query(self.VIEW.terms, limit=None, freshness_ms=10000.0)
        record["replica"] = _drain_queries(scenario, [fresh], app=app)[0]

        # A member whose state stops matching leaves the view.
        view_group = view_group_name(view_id)
        owner = shards[shard_map.owner_of_group(view_group)]
        leaver = next(
            a for a in scenario.agents if view_id in a.view_memberships
        )
        leaver.set_attribute("cpu_percent", 90.0)
        drain(scenario, 2.0)
        record["left_view"] = (
            requests.get((router.address, "focus.leave-view"), []),
            leaver.node_id,
            leaver.node_id in owner.views.views[view_id].group.all_node_ids(),
        )

        # Dropping the view sends the next answer back to the groups.
        scenario.app.client.drop_view(view_id)
        drain(scenario, 2.0)
        record["dropped"] = run_query(scenario, self.VIEW).source

        # A graceful shutdown deregisters the node on every shard.
        gone = scenario.agents[1]
        gone.shutdown()
        drain(scenario, 2.0)
        record["deregistered"] = [
            gone.node_id in shard.registrar.nodes for shard in plane.shards
        ]
        record["router_methods"] = {
            method for (dst, method) in requests if dst == router.address
        }
        return record

    def test_every_shard_registers_every_node(self, run):
        expected = {f"node-{i:05d}" for i in range(self.NODES)}
        assert all(nodes == expected for nodes in run["registered"].values())

    def test_each_group_lives_on_its_owner(self, run):
        assert run["placement"]
        assert all(address == owner for address, _, owner in run["placement"])
        assert run["memberships"] == self.NODES * 4  # one group per dynamic attribute

    def test_probes_match_single_server_and_ground_truth(self, run):
        for (sharded, truth), single in zip(run["probes"], run["single"]):
            assert sharded == truth == single

    def test_cross_shard_move_sends_leave_to_old_owner(self, run):
        assert len(run["moves"]) == self.NODES // 2
        for node_id, left, still_member in run["moves"]:
            assert left, node_id
            assert still_member is False, node_id

    def test_view_answers_from_its_group_then_the_replica(self, run):
        response, truth = run["view"]
        assert response.source == "view"
        assert sorted(response.node_ids) == truth
        source, timed_out, staleness_ms, node_ids = run["replica"]
        assert source == "replica" and not timed_out
        assert 0.0 < staleness_ms <= 10000.0
        assert node_ids == truth

    def test_member_that_stops_matching_leaves_the_view(self, run):
        leaves, node_id, still_member = run["left_view"]
        assert [p["node_id"] for p in leaves] == [node_id]
        assert not still_member

    def test_dropped_view_answers_from_the_groups(self, run):
        assert run["dropped"] == "groups"

    def test_shutdown_deregisters_on_every_shard(self, run):
        assert run["deregistered"] == [False] * 4

    def test_router_serves_all_nine_request_methods(self, run):
        assert run["router_methods"] >= self.ROUTER_METHODS
