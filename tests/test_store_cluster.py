"""Integration tests for quorum reads/writes against the replica cluster."""

import pytest

from repro.errors import QuorumError
from repro.sim.process import Process
from repro.sim.rpc import RESPONSE_KIND, RpcMixin
from repro.store import StoreCluster
from repro.store.cluster import StoreClient
from repro.store.table import Row


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


def run_put(sim, client, table, key, value):
    done = []
    client.put(table, key, value, on_done=lambda: done.append(True),
               on_error=lambda e: done.append(e))
    sim.run_until(sim.now + 3.0)
    assert done == [True], done


def run_get(sim, client, table, key):
    box = []
    client.get(table, key, box.append, on_error=box.append)
    sim.run_until(sim.now + 3.0)
    assert len(box) == 1
    return box[0]


class TestReadWrite:
    def test_put_then_get(self, sim, client):
        run_put(sim, client, "t", "k", {"v": 1})
        row = run_get(sim, client, "t", "k")
        assert row.value == {"v": 1}

    def test_get_missing_returns_none(self, sim, client):
        assert run_get(sim, client, "t", "nope") is None

    def test_overwrite_returns_newest(self, sim, client):
        run_put(sim, client, "t", "k", {"v": 1})
        run_put(sim, client, "t", "k", {"v": 2})
        assert run_get(sim, client, "t", "k").value == {"v": 2}

    def test_delete(self, sim, client):
        run_put(sim, client, "t", "k", {"v": 1})
        done = []
        client.delete("t", "k", on_done=lambda: done.append(True))
        sim.run_until(sim.now + 3.0)
        assert done == [True]
        assert run_get(sim, client, "t", "k") is None

    def test_scan_merges_replicas(self, sim, client):
        for i in range(10):
            run_put(sim, client, "t", f"k{i}", {"i": i})
        rows = []
        client.scan("t", rows.extend)
        sim.run_until(sim.now + 3.0)
        assert len(rows) == 10

    def test_scan_limit(self, sim, client):
        for i in range(10):
            run_put(sim, client, "t", f"k{i}", {"i": i})
        box = []
        client.scan("t", box.append, limit=4)
        sim.run_until(sim.now + 3.0)
        assert len(box[0]) == 4


class TestFaultTolerance:
    def test_survives_one_replica_crash(self, sim, client, cluster):
        run_put(sim, client, "t", "k", {"v": 1})
        cluster.replicas[0].stop()
        run_put(sim, client, "t", "k2", {"v": 2})
        assert run_get(sim, client, "t", "k2").value == {"v": 2}

    def test_quorum_error_with_two_crashes(self, sim, client, cluster):
        cluster.replicas[0].stop()
        cluster.replicas[1].stop()
        errors = []
        client.put("t", "k", {"v": 1}, on_done=lambda: errors.append("done"),
                   on_error=errors.append)
        sim.run_until(sim.now + 5.0)
        assert len(errors) == 1
        assert isinstance(errors[0], QuorumError)

    def test_read_repair_heals_stale_replica(self, sim, network, client, cluster):
        run_put(sim, client, "t", "k", {"v": 1})
        # Knock a replica out while the value is updated, then revive it.
        lagging = cluster.replicas[2]
        lagging.stop()
        run_put(sim, client, "t", "k", {"v": 2})
        # Restart: the replica kept its tables (process object retained).
        lagging.running = False
        lagging.start()
        # A read reconciles and repairs.
        row = run_get(sim, client, "t", "k")
        assert row.value == {"v": 2}
        sim.run_until(sim.now + 3.0)
        local = lagging.tables["t"].get("k")
        assert local is not None and local.value == {"v": 2}

    def test_quorum_config_validation(self, sim, network, regions, cluster):
        host = Host(sim, network, regions[1])
        host.address = "host2"
        host.start()
        with pytest.raises(ValueError):
            cluster.client_for(host, replication_factor=2, write_quorum=3)


def merge_decoding_everything(results):
    """The scan merge as it was: decode every version, newest per key wins,
    ties to the first seen, keys in first-seen order."""
    merged = {}
    for result in results:
        for wire in result.get("rows", ()):
            row = Row.from_wire(wire)
            current = merged.get(row.key)
            if current is None or row.timestamp > current.timestamp:
                merged[row.key] = row
    return list(merged.values())


def facts(rows):
    return [(row.key, row.value, row.timestamp) for row in rows]


class TestMerge:
    """Versions are compared on the wire; only the winners are decoded."""

    @staticmethod
    def count_decodes(monkeypatch):
        decoded = []
        from_wire = Row.from_wire.__func__
        monkeypatch.setattr(
            Row, "from_wire",
            classmethod(lambda cls, data: decoded.append(data) or from_wire(cls, data)),
        )
        return decoded

    def test_get_decodes_the_first_strictly_newest_reply_only(self, monkeypatch):
        older = Row("k", {"v": 1}, 1.0).to_wire()
        newest = Row("k", {"v": 2}, 2.0).to_wire()
        tie = Row("k", {"v": 3}, 2.0).to_wire()
        decoded = self.count_decodes(monkeypatch)
        results = [{"row": older}, {"row": None}, {"row": newest}, {"row": tie}, None]
        row = StoreClient._newest_row(results)
        assert (row.key, row.value, row.timestamp) == ("k", {"v": 2}, 2.0)
        assert decoded == [newest]
        assert StoreClient._newest_row([{"row": None}]) is None

    @pytest.mark.parametrize("limit", [None, 2])
    def test_scan_matches_decoding_every_version(
        self, sim, network, client, cluster, monkeypatch, limit
    ):
        # Diverged replicas: one behind on k1, a tie on k2 with two values.
        versions = (
            [("k0", 1, 1.0), ("k1", 1, 1.0), ("k2", 1, 2.0)],
            [("k1", 2, 3.0), ("k0", 1, 1.0)],
            [("k2", 2, 2.0), ("k3", 1, 1.0)],
        )
        for replica, rows in zip(cluster.replicas, versions):
            for key, v, ts in rows:
                replica.table("t").put(key, {"v": v}, ts)
        results = []
        network.add_delivery_tap(
            lambda m: results.append(m.payload["result"])
            if m.kind == RESPONSE_KIND and m.payload["method"] == "store.scan"
            else None
        )
        decoded = self.count_decodes(monkeypatch)
        box = []
        client.scan("t", box.append, limit=limit)
        sim.run_until(sim.now + 3.0)
        (rows,) = box
        assert len(decoded) == len(rows) == (4 if limit is None else 2)
        monkeypatch.undo()
        assert len(results) == 3
        assert facts(rows) == facts(merge_decoding_everything(results)[:limit])


class TestClusterFactory:
    def test_replicas_spread_across_regions(self, sim, network):
        cluster = StoreCluster(sim, network, num_replicas=4, name="s2")
        regions = {r.region for r in cluster.replicas}
        assert len(regions) == 4

    def test_stop_all(self, sim, network):
        cluster = StoreCluster(sim, network, num_replicas=2, name="s3")
        cluster.stop()
        assert all(not r.running for r in cluster.replicas)
