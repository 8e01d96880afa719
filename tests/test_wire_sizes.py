"""The size contract of dicts that carry their own wire size.

A :class:`~repro.sim.network.SizedDict` is measured once, when it is built,
and every hop after that charges the size it carries. That is only honest if
the carried size is what walking the dict gives and nobody mutates it later.
These tests hold both: generated payloads against the chain-walk oracle
(which walks a sized dict as the plain dict it is), every RPC and group-query
reply of two end-to-end runs at delivery, and every record a cache and every
row wire a store replica holds once the run is over.
"""

import hashlib
import json
import pickle

import pytest
from hypothesis import given, strategies as st

from benchmarks.focusbench.workloads import WORKLOADS
from repro.core.query import (
    DecodedQueryJson,
    MatchAnswer,
    Query,
    QueryTerm,
    match_record,
)
from repro.gossip.agent import QUERY_RESPONSE
from repro.gossip.broadcast import SizedWire
from repro.harness import run_query
from repro.harness.scenarios import build_single_group_cluster
from repro.sim.network import MESSAGE_OVERHEAD_BYTES, SizedDict, approx_size
from repro.sim.process import Process
from repro.sim.rpc import REQUEST_KIND, RESPONSE_KIND, RpcMixin
from repro.store import StoreCluster
from repro.store.table import Row, RowWire, rows_digest
from tests.oracles.approx_size import approx_size as walk

_ascii = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=12
)
_leaf = (
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False) | _ascii
)
_terms = st.lists(
    st.builds(QueryTerm.at_least, _ascii.filter(bool), st.floats(-1e6, 1e6))
    | st.builds(QueryTerm.exact, _ascii.filter(bool), _ascii),
    min_size=1, max_size=3, unique_by=lambda term: term.name,
)
_queries = st.builds(
    Query, _terms,
    limit=st.none() | st.integers(1, 50),
    freshness_ms=st.floats(0.0, 1e4),
)
#: A node's attributes as ``NodeAgent`` snapshots them.
_snapshots = st.dictionaries(_ascii, _leaf | _ascii, max_size=6).map(SizedDict)


def _sized(children):
    """Every sized dict the serving path builds, around generated parts."""
    return (
        st.dictionaries(_ascii, children, max_size=4).map(SizedDict)
        | st.builds(
            lambda rest, wire_id: SizedWire({**rest, "id": wire_id}),
            st.dictionaries(_ascii, children, max_size=3), _ascii,
        )
        | _queries.map(DecodedQueryJson.of)
        | st.builds(match_record, _ascii, _snapshots | st.dictionaries(_ascii, _leaf),
                    _ascii)
        | st.builds(MatchAnswer, _ascii, _snapshots, _ascii)
    )


_payloads = st.recursive(
    _leaf | _snapshots,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_ascii, children, max_size=4)
    | _sized(children),
    max_leaves=20,
)


class TestSizeContract:
    @given(_payloads)
    def test_a_carried_size_is_what_the_walk_gives(self, payload):
        """Charged at the top level or nested in lists and dicts, a sized
        dict costs exactly what walking it as a plain dict costs."""
        assert approx_size(payload) == walk(payload)

    def test_nested_sized_records_are_charged_without_a_walk(self):
        record = match_record("n1", SizedDict({"ram_mb": 4096.0}), "us-east-1")
        record["node"] = "a much longer node name"  # what the contract forbids
        assert approx_size([record]) == 2 + 1 + record.size != walk([record])

    @given(_payloads)
    def test_pickle_keeps_size_id_and_query(self, payload):
        """Payloads are plain data: a pickled copy keeps what it carries."""
        shipped = pickle.loads(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        assert approx_size(shipped) == approx_size(payload)
        if isinstance(payload, SizedDict):
            assert type(shipped) is type(payload) and shipped == payload
            assert shipped.size == payload.size
        if isinstance(payload, SizedWire):
            assert shipped.id == payload.id
        if isinstance(payload, DecodedQueryJson):
            assert shipped.query.to_json() == payload.query.to_json()
            assert shipped.query.cache_key() == payload.query.cache_key()
        if isinstance(payload, MatchAnswer):
            assert type(shipped.record) is SizedDict
            assert shipped.record == payload.record
            assert shipped.record.size == payload.record.size

    @given(_ascii, _snapshots, _ascii)
    def test_a_match_answer_carries_the_record_of_itself(self, node, attrs, region):
        answer = MatchAnswer(node, attrs, region)
        assert answer == {"node": node, "match": True, "attrs": attrs, "region": region}
        assert answer.size == walk(answer)
        record = match_record(answer["node"], answer["attrs"], answer.get("region", ""))
        assert answer.record == record and answer.record.size == record.size
        assert answer.record["attrs"] is attrs


class TestStoredRows:
    @given(_ascii, st.dictionaries(_ascii, _leaf | _snapshots, max_size=6),
           st.floats(0.0, 1e6))
    def test_a_row_wire_carries_what_the_walk_gives(self, key, value, ts):
        row = Row(key, value, ts)
        wire = row.to_wire()
        plain = {"k": key, "v": value, "ts": ts}
        assert type(wire) is RowWire and wire == plain
        assert wire.size == walk(plain)
        assert row.to_wire() is wire  # built and measured once
        # Its digest share is the row's canonical JSON, and travels with it.
        assert json.loads(wire.share) == [key, ts, value]
        assert rows_digest([wire]) == hashlib.md5(wire.share).hexdigest()
        shipped = pickle.loads(pickle.dumps(wire, pickle.HIGHEST_PROTOCOL))
        assert shipped.share == wire.share and shipped.size == wire.size

    def test_a_scan_reply_is_charged_what_plain_rows_cost(self, sim, network):
        store = StoreCluster(sim, network, num_replicas=3)
        host = _RpcHost(sim, network, network.topology.regions[0].name)
        host.start()
        client = store.client_for(host)
        for i in range(6):
            client.put("t", f"k{i}", {"value": i, "attributes": {"cores": 8.0 * i}})
        sim.run_until(sim.now + 3.0)
        replies = []
        network.add_delivery_tap(
            lambda m: replies.append(m)
            if m.kind == RESPONSE_KIND and m.payload["method"] == "store.scan"
            else None
        )
        scanned = []
        client.scan("t", scanned.append)
        sim.run_until(sim.now + 3.0)
        assert len(replies) == 3 and [len(rows) for rows in scanned] == [6]
        for reply in replies:
            rows = reply.payload["result"]["rows"]
            assert rows and all(type(row) is RowWire for row in rows)
            plain = {**reply.payload, "result": {"rows": [dict(r) for r in rows]}}
            assert reply.size == MESSAGE_OVERHEAD_BYTES + walk(plain)


class _RpcHost(Process, RpcMixin):
    def __init__(self, sim, network, region):
        Process.__init__(self, sim, network, "host", region)
        self.init_rpc()


# ------------------------------------------------------------ end to end
_TAPPED = (REQUEST_KIND, RESPONSE_KIND, QUERY_RESPONSE)


def _caches(scenario):
    plane = scenario.plane
    servers = [*plane.shards, plane.router, *plane.replicas]
    return [server.cache for server in servers if server is not None]


@pytest.mark.parametrize("name", ["serve_ramp", "churn_moves"])
def test_no_hop_mutates_a_shared_record(name):
    """Every reply arrives at the size it was charged when it was sent, and
    every record a cache still holds afterwards measures its carried size —
    through ``churn_moves``' attribute writes too, which must replace an
    agent's snapshot, never edit it."""
    workload = WORKLOADS[name]
    sizes = workload.sizes["smoke"]
    scenario = workload.build(42, sizes)
    checked = []

    def tap(message):
        if message.kind in _TAPPED:
            assert message.size == MESSAGE_OVERHEAD_BYTES + walk(message.payload), (
                message.kind, message.payload
            )
            checked.append(message.kind)

    scenario.network.add_delivery_tap(tap)
    workload.warm_up(scenario, 42, sizes)
    plan = workload.generate(scenario, 42, sizes)
    scenario.sim.run_until(plan.end_time)
    assert set(checked) == set(_TAPPED)
    records = [
        record
        for cache in _caches(scenario)
        for entry in cache._entries.values()
        for record in entry.matches
    ]
    assert records
    for record in records:
        assert type(record) is SizedDict
        assert record.size == walk(record)
    # A stored row's wire is measured when first sent: nothing may edit the
    # row's value after the put, or every later reply carrying it lies.
    replicas = scenario.store.replicas if scenario.store is not None else []
    row_wires = [
        row._wire
        for replica in replicas
        for table in replica.tables.values()
        for row in table
        if row._wire is not None
    ]
    assert row_wires or not replicas
    for wire in row_wires:
        assert wire.size == walk(wire)


# --------------------------------------------------------- agent answers
class TestAgentAnswers:
    @staticmethod
    def _record(scenario, node_id):
        everyone = Query([QueryTerm.at_least("load", 0.0)], freshness_ms=0.0)
        (record,) = [
            m for m in run_query(scenario, everyone).matches if m["node"] == node_id
        ]
        return record

    def test_set_attribute_between_two_queries_is_answered_at_its_new_size(self):
        scenario = build_single_group_cluster(8, seed=5)
        scenario.sim.run_until(3.0)
        agent = scenario.agents[3]
        before = self._record(scenario, agent.node_id)["attrs"]
        assert self._record(scenario, agent.node_id)["attrs"] is before  # shared

        agent.set_attribute("load", 12.25)
        agent.set_attribute("temperature_c", 41.0)
        after = self._record(scenario, agent.node_id)["attrs"]
        assert after is not before
        assert after["load"] == 12.25 and after["temperature_c"] == 41.0
        assert before["load"] != 12.25 and "temperature_c" not in before
        assert after.size == walk(after) == before.size + approx_size(
            {"temperature_c": 41.0}
        ) - 2
        assert before.size == walk(before)  # the old snapshot was left alone

    def test_a_direct_pull_it_does_not_match_is_a_bare_no(self):
        scenario = build_single_group_cluster(4, seed=5)
        scenario.sim.run_until(2.0)
        agent = scenario.agents[0]

        def pull(query):
            params = {"query": DecodedQueryJson.of(query)}
            return agent._rpc_node_query(params, None, None)

        nobody = Query([QueryTerm.at_least("load", 1e9)], freshness_ms=0.0)
        everyone = Query([QueryTerm.at_least("load", 0.0)], freshness_ms=0.0)
        answer = pull(nobody)
        assert answer == {"node": agent.node_id, "match": False}
        assert answer is agent._answer_group_query(DecodedQueryJson.of(nobody), "")
        assert answer.size == walk(answer)
        assert type(pull(everyone)) is MatchAnswer

    def test_attributes_returns_a_fresh_dict_every_call(self):
        scenario = build_single_group_cluster(4, seed=5)
        scenario.sim.run_until(2.0)
        agent = scenario.agents[0]
        snapshot = self._record(scenario, agent.node_id)["attrs"]
        first, second = agent.attributes(), agent.attributes()
        assert first == second == snapshot
        assert first is not second
        assert type(first) is dict and first is not snapshot
        first["scribble"] = 1.0
        assert "scribble" not in agent.attributes()
        assert "scribble" not in snapshot
