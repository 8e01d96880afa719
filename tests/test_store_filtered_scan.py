"""A scan with a ``where`` filters at the replicas, as a digest read.

Each replica takes only the rows whose local newest version matches, at most
``limit``. The first replica in ring order returns them; the others return
only their digest. The coordinator answers with the data replica's rows only
when every digest equals theirs, and otherwise reads the table again
unfiltered and filters the newest versions itself. A delete leaves a
tombstone that wins over an older copy a replica kept.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.query import QueryTerm
from repro.errors import QuorumError
from repro.sim import Network, Simulator, Topology
from repro.sim.process import Process
from repro.sim.rpc import RESPONSE_KIND, RpcMixin
from repro.store import StoreCluster
from repro.store.cluster import StoreClient
from repro.store.table import Row, Table, Term, row_matches, rows_digest

MANY_CORES = [QueryTerm.at_least("cores", 10).to_json()]


class Host(Process, RpcMixin):
    def __init__(self, sim, network, region):
        Process.__init__(self, sim, network, "host", region)
        self.init_rpc()


@pytest.fixture
def cluster(sim, network):
    return StoreCluster(sim, network, num_replicas=3)


@pytest.fixture
def client(sim, network, regions, cluster):
    host = Host(sim, network, regions[0])
    host.start()
    return cluster.client_for(host)


def value(cores, arch="x86"):
    """A static-table row value: the node's attributes ride in one map."""
    return {"value": cores, "attributes": {"cores": cores, "arch": arch}, "region": "r"}


def put_everywhere(cluster, key, row_value, ts, table="t"):
    for replica in cluster.replicas:
        replica.table(table).put(key, row_value, ts)


def scan_replies(network):
    """Every ``store.scan`` reply delivered from now on, as ``(replica,
    result)``."""
    replies = []
    network.add_delivery_tap(
        lambda m: replies.append((m.src, m.payload["result"]))
        if m.kind == RESPONSE_KIND and m.payload["method"] == "store.scan"
        else None
    )
    return replies


def is_digest(text):
    return isinstance(text, str) and re.fullmatch("[0-9a-f]{32}", text) is not None


def run_scan(sim, client, **kwargs):
    box = []
    client.scan("t", box.append, on_error=box.append, **kwargs)
    sim.run_until(sim.now + 3.0)
    (rows,) = box
    return rows


def fallbacks(network):
    counter = network.metrics.get_counter("store.scan_fallbacks")
    return 0 if counter is None else counter.value


class TestMatchingRule:
    @pytest.mark.parametrize(
        "term, attribute, expected",
        [
            (QueryTerm.at_least("cores", 10), 16, True),
            (QueryTerm.at_least("cores", 10), 8, False),
            (QueryTerm("cores", lower=8, upper=8), 8.0, True),
            (QueryTerm.exact("arch", "x86"), "x86", True),
            (QueryTerm.exact("arch", "x86"), "arm64", False),
            (QueryTerm.at_most("cores", 10), None, False),
            (QueryTerm.at_most("cores", 10), "many", False),
        ],
    )
    def test_store_term_is_the_query_term_rule(self, term, attribute, expected):
        store_term = Term.from_json(term.to_json())
        assert type(store_term) is Term
        assert store_term.matches(attribute) is term.matches(attribute) is expected

    def test_row_matches_every_term_against_the_attributes_map(self):
        terms = [Term("cores", lower=10), Term("arch", equals="x86")]
        assert row_matches(value(16), terms)
        assert not row_matches(value(16, arch="arm64"), terms)
        assert not row_matches(value(8), terms)
        assert not row_matches({"value": 16}, terms)


class TestReplicaWhere:
    def scan(self, replica, **params):
        return replica._rpc_scan({"table": "t", **params}, None, None)["rows"]

    def test_returns_only_rows_whose_newest_version_matches(self, cluster):
        replica = cluster.replicas[0]
        table = replica.table("t")
        table.put("a", value(8), 1.0)
        table.put("b", value(16), 1.0)
        table.put("c", value(16), 1.0)
        table.put("c", value(4), 2.0)  # the newer version no longer matches
        table.put("d", value(4), 1.0)
        table.put("d", value(32), 2.0)  # ... and this one now does
        rows = self.scan(replica, where=MANY_CORES, limit=None)
        assert [(w["k"], w["ts"]) for w in rows] == [("b", 1.0), ("d", 2.0)]

    def test_limit_caps_the_matching_rows(self, cluster):
        replica = cluster.replicas[0]
        for i in range(10):
            replica.table("t").put(f"k{i}", value(8 if i % 2 else 16), 1.0)
        rows = self.scan(replica, where=MANY_CORES, limit=3)
        assert [w["k"] for w in rows] == ["k0", "k2", "k4"]

    def test_without_where_every_row_up_to_limit(self, cluster):
        replica = cluster.replicas[0]
        for i in range(5):
            replica.table("t").put(f"k{i}", value(8), 1.0)
        assert len(self.scan(replica, limit=None)) == 5
        assert len(self.scan(replica, where=None, limit=2)) == 2


class TestCoordinator:
    def test_agreeing_replicas_answer_from_the_filtered_merge(
        self, sim, network, client, cluster
    ):
        # The answer is what merging every replica's filtered rows gives:
        # each replica's own filtered rows, as they all agree.
        for i in range(8):
            put_everywhere(cluster, f"k{i}", value(16 if i < 5 else 8), 1.0)
        replies = scan_replies(network)
        rows = run_scan(sim, client, where=MANY_CORES, limit=3)
        assert [row.key for row in rows] == ["k0", "k1", "k2"]
        assert len(replies) == 3
        assert all(len(result.get("rows", [])) <= 3 for _, result in replies)
        for replica in cluster.replicas:
            local = replica._rpc_scan(
                {"table": "t", "where": MANY_CORES, "limit": 3}, None, None
            )["rows"]
            assert [(w["k"], w["ts"], w["v"]) for w in local] == [
                (row.key, row.timestamp, row.value) for row in rows
            ]
        assert fallbacks(network) == 0

    def test_agreeing_replicas_answer_from_the_data_replica(
        self, sim, network, client, cluster
    ):
        for i in range(8):
            put_everywhere(cluster, f"k{i}", value(16 if i < 5 else 8), 1.0)
        replies = scan_replies(network)
        rows = run_scan(sim, client, where=MANY_CORES, limit=3)
        assert [row.key for row in rows] == ["k0", "k1", "k2"]
        assert len(replies) == 3
        data = cluster.replicas[0].address  # the first in ring order
        (wires,) = [result["rows"] for src, result in replies if src == data]
        assert [wire["k"] for wire in wires] == ["k0", "k1", "k2"]
        digests = [result for src, result in replies if src != data]
        assert len(digests) == 2
        for result in digests:
            assert list(result) == ["digest"] and is_digest(result["digest"])
            assert result["digest"] == rows_digest(wires)
        assert fallbacks(network) == 0

    def test_stale_matching_version_is_not_answered(
        self, sim, network, client, cluster
    ):
        # Replicas 0 and 2 still hold a version that matches; replica 1 holds
        # a newer one that does not. The first two return the key, the third
        # does not: a merge of the filtered replies would answer the stale
        # version.
        put_everywhere(cluster, "k", value(16), 1.0)
        cluster.replicas[1].table("t").put("k", value(4), 2.0)
        put_everywhere(cluster, "other", value(32), 1.0)
        replies = scan_replies(network)
        rows = run_scan(sim, client, where=MANY_CORES)
        assert [row.key for row in rows] == ["other"]
        assert fallbacks(network) == 1
        assert len(replies) == 6  # three in the digest round, three unfiltered

    @pytest.mark.parametrize("newer", [0, 1, 2])
    def test_same_keys_at_different_versions_fall_back_to_the_newest(
        self, sim, network, client, cluster, newer
    ):
        # Every replica returns the same keys, all matching, but one holds a
        # newer version of "k": the digests differ whichever replica it is.
        put_everywhere(cluster, "k", value(16), 1.0)
        put_everywhere(cluster, "j", value(12), 1.0)
        cluster.replicas[newer].table("t").put("k", value(32), 2.0)
        rows = run_scan(sim, client, where=MANY_CORES)
        assert sorted((row.key, row.timestamp) for row in rows) == [
            ("j", 1.0), ("k", 2.0)
        ]
        assert {row.key: row.value for row in rows}["k"] == value(32)
        assert fallbacks(network) == 1

    def test_same_rows_in_another_order_answer_without_a_fallback(
        self, sim, network, client, cluster
    ):
        # Replica 1 received the writes in another order. Every replica
        # still returns the same rows at the same versions, so the digests
        # agree and the data replica's rows are the answer.
        for index, replica in enumerate(cluster.replicas):
            for key in ["b", "a"] if index == 1 else ["a", "b"]:
                replica.table("t").put(key, value(16), 1.0 if key == "a" else 2.0)
        put_everywhere(cluster, "low", value(2), 1.0)
        replies = scan_replies(network)
        rows = run_scan(sim, client, where=MANY_CORES, limit=2)
        assert [(row.key, row.timestamp) for row in rows] == [("a", 1.0), ("b", 2.0)]
        assert fallbacks(network) == 0
        assert len(replies) == 3

    def test_another_order_under_limit_takes_another_set_and_falls_back(
        self, sim, network, client, cluster
    ):
        # Under the limit, replica 1's order makes it take {c, a} where the
        # others take {a, b}: the digests differ.
        for index, replica in enumerate(cluster.replicas):
            for key in ["c", "a", "b"] if index == 1 else ["a", "b", "c"]:
                replica.table("t").put(key, value(16), 1.0)
        replies = scan_replies(network)
        rows = run_scan(sim, client, where=MANY_CORES, limit=2)
        assert fallbacks(network) == 1
        assert len(replies) == 6
        assert len(rows) == 2 and len({row.key for row in rows}) == 2
        assert all(row.key in "abc" and row.timestamp == 1.0 for row in rows)

    def test_disputed_key_whose_newest_version_matches_is_answered(
        self, sim, network, client, cluster
    ):
        put_everywhere(cluster, "k", value(4), 1.0)
        for replica in cluster.replicas[1:]:
            replica.table("t").put("k", value(16), 2.0)
        put_everywhere(cluster, "low", value(2), 1.0)
        rows = run_scan(sim, client, where=MANY_CORES, limit=5)
        assert [(row.key, row.timestamp) for row in rows] == [("k", 2.0)]
        assert rows[0].value == value(16)
        assert fallbacks(network) == 1

    def test_fallback_applies_the_limit_after_filtering(
        self, sim, network, client, cluster
    ):
        for i in range(6):
            for index, replica in enumerate(cluster.replicas):
                if i or index != 2:  # a replica missed k0
                    replica.table("t").put(f"k{i}", value(8 if i % 2 else 16), 1.0)
        rows = run_scan(sim, client, where=MANY_CORES, limit=2)
        assert fallbacks(network) == 1
        assert [row.key for row in rows] == ["k0", "k2"]
        assert all(row_matches(row.value, [Term("cores", lower=10)]) for row in rows)

    def test_unfiltered_scan_is_unchanged(self, sim, network, client, cluster):
        # Replicas that differ in versions and in keys: a plain scan reads
        # every row anyway, so it merges them once, with no second read.
        put_everywhere(cluster, "k", value(16), 1.0)
        cluster.replicas[1].table("t").put("k", value(4), 2.0)
        cluster.replicas[2].table("t").put("j", value(8), 1.0)
        replies = scan_replies(network)
        rows = run_scan(sim, client)
        assert [(row.key, row.timestamp) for row in rows] == [("k", 2.0), ("j", 1.0)]
        assert len(replies) == 3
        assert fallbacks(network) == 0
        assert [row.key for row in run_scan(sim, client, limit=1)] == ["k"]


class TestFailures:
    """A replica that does not answer the digest round: a strict scan fails
    once, at the RPC timeout; a partial one reads again unfiltered."""

    @pytest.mark.parametrize("down", [0, 1])  # the data replica, a digest one
    def test_a_stopped_replica_fails_the_scan_once_at_the_timeout(
        self, sim, network, client, cluster, down
    ):
        put_everywhere(cluster, "k", value(16), 1.0)
        cluster.replicas[down].stop()
        outcomes = []
        start = sim.now

        def record(outcome):
            outcomes.append((sim.now - start, outcome))

        client.scan("t", record, on_error=record, where=MANY_CORES)
        sim.run_until(sim.now + 10.0)
        ((elapsed, error),) = outcomes
        assert isinstance(error, QuorumError)
        assert elapsed == pytest.approx(client.timeout)
        assert fallbacks(network) == 0

    @pytest.mark.parametrize("down", [0, 1])
    def test_a_partial_scan_missing_a_replica_reads_again_unfiltered(
        self, sim, network, client, cluster, down
    ):
        put_everywhere(cluster, "k", value(16), 1.0)
        put_everywhere(cluster, "low", value(2), 1.0)
        for index, replica in enumerate(cluster.replicas):
            if index != down:  # the stopped replica missed the newer version
                replica.table("t").put("j", value(12), 2.0)
        cluster.replicas[down].stop()
        outcomes = []
        client.scan(
            "t", outcomes.append, on_error=outcomes.append, where=MANY_CORES,
            allow_partial=True,
        )
        sim.run_until(sim.now + 10.0)
        (rows,) = outcomes
        assert sorted((row.key, row.timestamp) for row in rows) == [
            ("j", 2.0), ("k", 1.0)
        ]
        assert fallbacks(network) == 1
        # Both reads, the digest round and the unfiltered one, degraded.
        assert network.metrics.counter("store.partial_scans").value == 2


#: A row version's content is fixed by its key and timestamp, so two
#: replicas holding the same version hold the same value.
def version_value(key, ts):
    return value((ts * 5 + ord(key)) % 24)


_ops = st.lists(
    st.tuples(st.sampled_from("abcd"), st.booleans(), st.integers(1, 6)),
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(
    _ops,
    st.lists(_ops.map(lambda ops: ops[:3]), min_size=3, max_size=3),
    st.integers(0, 24),
    st.none() | st.integers(1, 4),
)
def test_a_filtered_scan_answers_each_matching_key_at_its_newest_version(
    shared_ops, replica_ops, threshold, limit
):
    sim = Simulator(seed=7)
    network = Network(sim, Topology())
    cluster = StoreCluster(sim, network, num_replicas=3)
    host = Host(sim, network, network.topology.regions[0].name)
    host.start()
    client = cluster.client_for(host)
    # Puts, deletes and so tombstones: writes every replica took, then a
    # few of its own, at arbitrary timestamps.
    for replica, ops in zip(cluster.replicas, replica_ops):
        table = replica.table("t")
        for key, delete, ts in shared_ops + ops:
            if delete:
                table.delete(key, float(ts))
            else:
                table.put(key, version_value(key, ts), float(ts))
    newest = {}
    for replica in cluster.replicas:
        for key in "abcd":
            row = replica.table("t").version(key)
            current = newest.get(key)
            if row is not None and (
                current is None
                or row.timestamp > current.timestamp
                or (row.timestamp == current.timestamp and row.value is None)
            ):
                newest[key] = row
    terms = [Term("cores", lower=threshold)]
    matches = {
        key: row.timestamp
        for key, row in newest.items()
        if row.value is not None and row_matches(row.value, terms)
    }
    outcomes = []
    client.scan(
        "t", outcomes.append, on_error=outcomes.append,
        where=[term.to_json() for term in terms], limit=limit,
    )
    sim.run_until(sim.now + 6.0)
    (rows,) = outcomes
    keys = [row.key for row in rows]
    assert len(set(keys)) == len(keys)
    assert all(matches.get(row.key) == row.timestamp for row in rows)
    assert all(row.value == version_value(row.key, int(row.timestamp)) for row in rows)
    expected = len(matches) if limit is None else min(limit, len(matches))
    assert len(rows) == expected


class TestTombstones:
    """A delete acknowledged by a write quorum stays deleted, whichever
    replica missed it."""

    @pytest.mark.parametrize("stale", [0, 1, 2])
    def test_a_scan_after_a_quorum_delete_does_not_return_the_row(
        self, sim, network, client, cluster, stale
    ):
        put_everywhere(cluster, "n2", value(16), 1.0)
        put_everywhere(cluster, "n1", value(16), 1.0)
        for index, replica in enumerate(cluster.replicas):
            if index != stale:
                replica.table("t").delete("n1", 2.0)
        assert [row.key for row in run_scan(sim, client, where=MANY_CORES)] == ["n2"]
        assert [row.key for row in run_scan(sim, client)] == ["n2"]

    @pytest.mark.parametrize("stale", [0, 1, 2])
    def test_a_get_after_a_quorum_delete_repairs_the_delete(
        self, sim, network, client, cluster, stale
    ):
        put_everywhere(cluster, "k", value(16), 1.0)
        for index, replica in enumerate(cluster.replicas):
            if index != stale:
                replica.table("t").delete("k", 2.0)
        box = []
        client.get("t", "k", box.append, on_error=box.append)
        sim.run_until(sim.now + 3.0)
        assert box == [None]
        tables = [replica.tables["t"] for replica in cluster.replicas]
        assert [table.get("k") for table in tables] == [None, None, None]
        assert [table.version("k").timestamp for table in tables] == [2.0] * 3

    def test_a_tombstone_wins_a_timestamp_tie_in_the_merge(self):
        live = Row("k", value(16), 1.0).to_wire()
        tombstone = Row("k", None, 1.0).to_wire()
        for results in ([{"rows": [live]}, {"rows": [tombstone]}],
                        [{"rows": [tombstone]}, {"rows": [live]}]):
            assert StoreClient._merge(results, None) == []


def test_merge_decodes_only_the_winners(monkeypatch):
    decoded = []
    from_wire = Row.from_wire.__func__
    monkeypatch.setattr(
        Row, "from_wire",
        classmethod(lambda cls, data: decoded.append(data) or from_wire(cls, data)),
    )
    table = Table("t")
    for i in range(6):
        table.put(f"k{i}", value(8 if i % 2 else 16), 1.0)
    results = [{"rows": [row.to_wire() for row in table]}] * 3
    rows = StoreClient._merge(results, 2, [Term("cores", lower=10)])
    assert [row.key for row in rows] == ["k0", "k2"]
    assert len(decoded) == 2
