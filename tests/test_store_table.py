"""Unit tests for the table/row model (last-write-wins)."""

from repro.store.table import Row, Table


class TestPut:
    def test_put_and_get(self):
        t = Table("t")
        assert t.put("k", {"v": 1}, timestamp=1.0)
        assert t.get("k").value == {"v": 1}

    def test_newer_write_wins(self):
        t = Table("t")
        t.put("k", {"v": 1}, timestamp=1.0)
        assert t.put("k", {"v": 2}, timestamp=2.0)
        assert t.get("k").value == {"v": 2}

    def test_stale_write_rejected(self):
        t = Table("t")
        t.put("k", {"v": 2}, timestamp=2.0)
        assert not t.put("k", {"v": 1}, timestamp=1.0)
        assert t.get("k").value == {"v": 2}

    def test_equal_timestamp_applies(self):
        t = Table("t")
        t.put("k", {"v": 1}, timestamp=1.0)
        assert t.put("k", {"v": 2}, timestamp=1.0)


class TestDelete:
    def test_delete_existing(self):
        t = Table("t")
        t.put("k", {"v": 1}, timestamp=1.0)
        assert t.delete("k", timestamp=2.0)
        assert t.get("k") is None

    def test_delete_missing_returns_false(self):
        assert not Table("t").delete("k", timestamp=1.0)

    def test_stale_delete_rejected(self):
        t = Table("t")
        t.put("k", {"v": 1}, timestamp=5.0)
        assert not t.delete("k", timestamp=1.0)
        assert "k" in t


class TestTombstones:
    def test_a_delete_leaves_a_tombstone_the_live_views_skip(self):
        t = Table("t")
        t.put("k", {"v": 1}, timestamp=1.0)
        t.put("j", {"v": 2}, timestamp=1.0)
        t.delete("k", timestamp=2.0)
        assert "k" not in t and len(t) == 1
        assert [r.key for r in t] == [r.key for r in t.scan()] == t.keys() == ["j"]
        tombstone = t.version("k")
        assert (tombstone.key, tombstone.value, tombstone.timestamp) == ("k", None, 2.0)
        assert [r.key for r in t.tombstones()] == ["k"]

    def test_a_put_no_newer_than_the_delete_is_refused(self):
        t = Table("t")
        t.put("k", {"v": 1}, timestamp=1.0)
        t.delete("k", timestamp=2.0)
        assert not t.put("k", {"v": 1}, timestamp=1.0)  # a replayed old write
        assert not t.put("k", {"v": 3}, timestamp=2.0)  # a tie: the delete wins
        assert t.get("k") is None
        assert t.put("k", {"v": 4}, timestamp=3.0)
        assert t.get("k").value == {"v": 4} and t.tombstones() == []

    def test_a_delete_of_a_missing_key_still_leaves_a_tombstone(self):
        t = Table("t")
        assert not t.delete("k", timestamp=2.0)
        assert not t.put("k", {"v": 1}, timestamp=1.0)  # the put it overtook
        assert t.version("k").value is None

    def test_a_tombstone_travels_on_the_wire(self):
        row = Row.from_wire(Row("k", None, 2.0).to_wire())
        assert (row.key, row.value, row.timestamp) == ("k", None, 2.0)


class TestScan:
    def test_scan_all(self):
        t = Table("t")
        for i in range(5):
            t.put(f"k{i}", {"i": i}, timestamp=1.0)
        assert len(t.scan()) == 5

    def test_scan_predicate(self):
        t = Table("t")
        for i in range(10):
            t.put(f"k{i}", {"i": i}, timestamp=1.0)
        rows = t.scan(predicate=lambda r: r.value["i"] >= 7)
        assert sorted(r.value["i"] for r in rows) == [7, 8, 9]

    def test_scan_limit(self):
        t = Table("t")
        for i in range(10):
            t.put(f"k{i}", {"i": i}, timestamp=1.0)
        assert len(t.scan(limit=3)) == 3


class TestRowWire:
    def test_roundtrip(self):
        row = Row("k", {"a": 1}, 3.5)
        restored = Row.from_wire(row.to_wire())
        assert restored.key == "k"
        assert restored.value == {"a": 1}
        assert restored.timestamp == 3.5

    def test_iteration_and_keys(self):
        t = Table("t")
        t.put("a", {}, 1.0)
        t.put("b", {}, 1.0)
        assert sorted(t.keys()) == ["a", "b"]
        assert len(list(t)) == 2
        assert len(t.items()) == 2
