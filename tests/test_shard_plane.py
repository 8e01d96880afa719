"""Sharded serving plane: ring ownership, legacy equivalence, scatter-gather,
staleness bounds, replicas, and shard failover."""

import hashlib
import json

from hypothesis import given, settings, strategies as st

from repro.core.config import FocusConfig
from repro.core.query import Query, QueryTerm
from repro.core.rest import Application
from repro.core.shardplane import (
    FamilyShardMap,
    family_key_of_group,
    replica_address,
    shard_address,
)
from repro.harness import build_focus_cluster
from repro.harness.failure_suite import run_shard_failover
from repro.sim.rpc import RESPONSE_KIND
from repro.workloads.querygen import QueryWorkload

#: Digest of the seeded ``shards=1`` run in :func:`_seeded_run_digest`.
#: Pinned so any future change to the legacy serving path (which a
#: single-shard deployment must reproduce byte-for-byte) is caught here.
SHARDS1_RUN_DIGEST = (
    "ac98736b157cf4f98ff8527f017a5333b25e50bae7134be4b226cd61ad068439"
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
        assignment = shard_map.assignment(keys)
        assert set(assignment) == set(keys)
        for key, owner in assignment.items():
            assert owner in addresses
            # Ownership is a pure function of the key and the shard set.
            assert FamilyShardMap(list(reversed(addresses))).owner(key) == owner

    @settings(max_examples=100, deadline=None)
    @given(keys=_key_lists, count=st.integers(min_value=2, max_value=9),
           data=st.data())
    def test_removing_a_shard_moves_only_its_keys(self, keys, count, data):
        addresses = [shard_address("focus", i) for i in range(count)]
        shard_map = FamilyShardMap(addresses)
        before = shard_map.assignment(keys)
        victim = data.draw(st.sampled_from(addresses))
        shard_map.remove_shard(victim)
        after = shard_map.assignment(keys)
        for key in keys:
            if before[key] != victim:
                assert after[key] == before[key]
            else:
                assert after[key] != victim

    @settings(max_examples=100, deadline=None)
    @given(keys=_key_lists, count=st.integers(min_value=1, max_value=8))
    def test_adding_a_shard_moves_keys_only_to_it(self, keys, count):
        addresses = [shard_address("focus", i) for i in range(count)]
        shard_map = FamilyShardMap(addresses)
        before = shard_map.assignment(keys)
        newcomer = shard_address("focus", count)
        shard_map.add_shard(newcomer)
        after = shard_map.assignment(keys)
        for key in keys:
            assert after[key] in (before[key], newcomer)


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
                lambda params, respond: victim._overload_payload("shed-backlog")
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
                lambda params, respond: victim._overload_payload("shed-backlog")
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
