"""Unit tests for group metadata, forks and geo splits."""

from hypothesis import given, strategies as st

from repro.core.groups import GroupInfo, GroupMember, GroupTable, serf_address

_node_ids = st.lists(st.sampled_from([f"n{i}" for i in range(8)]), max_size=8)


def make_table():
    return GroupTable()


class TestGroupInfo:
    def test_range_and_contains(self):
        g = GroupInfo("ram_mb.4096", "ram_mb", 4096.0, 2048.0)
        assert g.range == (4096.0, 6144.0)
        assert g.contains_value(4096.0)
        assert g.contains_value(6143.9)
        assert not g.contains_value(6144.0)

    def test_size_estimate_counts_pending_and_members(self):
        from repro.core.groups import GroupMember

        g = GroupInfo("g", "a", 0.0, 1.0)
        g.pending["n1"] = GroupMember("n1", "r", 0.0)
        g.members["n2"] = GroupMember("n2", "r", 0.0)
        g.members["n1"] = GroupMember("n1", "r", 0.0)  # overlap counted once
        assert g.size_estimate() == 2

    @given(_node_ids, _node_ids)
    def test_size_estimate_is_the_union(self, members, pending):
        g = GroupInfo("g", "a", 0.0, 1.0)
        g.members = {n: GroupMember(n, "r", 0.0) for n in members}
        g.pending = {n: GroupMember(n, "r", 0.0) for n in pending}
        assert g.size_estimate() == len(g.members.keys() | g.pending.keys())

    def test_record_report_keeps_a_row_whose_region_is_unchanged(self):
        g = GroupInfo("g", "a", 0.0, 1.0)
        g.record_report(["n1", "n2", "n3"], {"n1": "r1", "n2": "r2"}, time=5.0)
        first = dict(g.members)
        g.record_report(["n3", "n2", "n1", "n4"],
                        {"n1": "r1", "n2": "moved", "n4": "r4"}, time=9.0)
        assert list(g.members) == ["n3", "n2", "n1", "n4"]
        assert g.members["n1"] is first["n1"]
        assert g.members["n3"] is first["n3"]  # no region either time
        assert g.members["n2"] == GroupMember("n2", "moved", 9.0)
        assert g.members["n4"] == GroupMember("n4", "r4", 9.0)
        assert {n: m.region for n, m in g.members.items()} == {
            "n1": "r1", "n2": "moved", "n3": "", "n4": "r4"
        }
        g.record_report(["n4"], {"n4": "r4"}, time=12.0)
        assert list(g.members) == ["n4"]

    def test_entry_points_use_serf_addresses(self):
        from repro.core.groups import GroupMember

        g = GroupInfo("g", "a", 0.0, 1.0)
        g.members["n1"] = GroupMember("n1", "r", 0.0)
        assert g.entry_points() == [serf_address("n1", "g")]

    def test_record_report_replaces_members(self):
        from repro.core.groups import GroupMember

        g = GroupInfo("g", "a", 0.0, 1.0)
        g.pending["n1"] = GroupMember("n1", "r", 0.0)
        g.representatives.add("gone")
        g.record_report(["n1", "n2"], {"n1": "r1", "n2": "r2"}, time=5.0)
        assert set(g.members) == {"n1", "n2"}
        assert g.pending == {}
        assert g.representatives == set()  # 'gone' is not a member
        assert g.updated_at == 5.0

    def test_regions_spanned(self):
        from repro.core.groups import GroupMember

        g = GroupInfo("g", "a", 0.0, 1.0)
        g.members["n1"] = GroupMember("n1", "us-east-2", 0.0)
        g.pending["n2"] = GroupMember("n2", "us-west-2", 0.0)
        assert g.regions_spanned() == {"us-east-2", "us-west-2"}


class TestFamily:
    def test_first_instance_uses_family_name(self):
        table = make_table()
        family = table.family("ram_mb", 4096.0, 2048.0)
        group = family.open_instance_for("us-east-2", max_size=100, time=0.0)
        assert group.name == "ram_mb.4096"

    def test_fork_creates_suffixed_instance(self):
        table = make_table()
        family = table.family("ram_mb", 4096.0, 2048.0)
        first = family.open_instance_for("r", 100, 0.0)
        family.mark_forked(first)
        second = family.open_instance_for("r", 100, 1.0)
        assert second is not first
        assert second.name == "ram_mb.4096#1"

    def test_full_instance_not_suggested(self):
        from repro.core.groups import GroupMember

        table = make_table()
        family = table.family("a", 0.0, 1.0)
        first = family.open_instance_for("r", max_size=2, time=0.0)
        first.pending["n1"] = GroupMember("n1", "r", 0.0)
        first.pending["n2"] = GroupMember("n2", "r", 0.0)
        second = family.open_instance_for("r", max_size=2, time=1.0)
        assert second is not first

    def test_fullest_nonfull_instance_preferred(self):
        from repro.core.groups import GroupMember

        table = make_table()
        family = table.family("a", 0.0, 1.0)
        first = family.open_instance_for("r", max_size=10, time=0.0)
        first.pending["n1"] = GroupMember("n1", "r", 0.0)
        family.mark_forked(first)
        first.open = True  # reopen artificially with 1 member
        second = family._new_instance(None, 1.0)
        chosen = family.open_instance_for("r", max_size=10, time=2.0)
        assert chosen is first  # fuller of the two

    def test_geo_split_names_by_region(self):
        table = make_table()
        family = table.family("a", 0.0, 1.0)
        family.enable_geo_split()
        east = family.open_instance_for("us-east-2", 100, 0.0)
        west = family.open_instance_for("us-west-2", 100, 0.0)
        assert east.name == "a.0@us-east-2"
        assert west.name == "a.0@us-west-2"
        assert east.region == "us-east-2"


class TestGroupTable:
    def test_instances_covering_interval(self):
        table = make_table()
        for base in (0.0, 2048.0, 4096.0):
            family = table.family("ram_mb", base, 2048.0)
            table.index(family.open_instance_for("r", 100, 0.0))
        covering = table.instances_covering("ram_mb", 2048.0, 4000.0)
        assert [g.name for g in covering] == ["ram_mb.2048"]
        covering = table.instances_covering("ram_mb", 2048.0, None)
        assert {g.name for g in covering} == {"ram_mb.2048", "ram_mb.4096"}

    def test_instances_covering_other_attribute_excluded(self):
        table = make_table()
        family = table.family("disk", 0.0, 5.0)
        table.index(family.open_instance_for("r", 100, 0.0))
        assert table.instances_covering("ram_mb", None, None) == []

    def test_upper_bound_mid_group(self):
        table = make_table()
        family = table.family("ram_mb", 4096.0, 2048.0)
        table.index(family.open_instance_for("r", 100, 0.0))
        # Query upper bound falls inside the group's range: still a candidate.
        covering = table.instances_covering("ram_mb", None, 5000.0)
        assert len(covering) == 1

    def test_groups_of_node(self):
        from repro.core.groups import GroupMember

        table = make_table()
        family = table.family("a", 0.0, 1.0)
        group = family.open_instance_for("r", 100, 0.0)
        table.index(group)
        group.pending["n1"] = GroupMember("n1", "r", 0.0)
        assert [g.name for g in table.groups_of_node("n1")] == [group.name]
        assert table.groups_of_node("ghost") == []

    def test_require_unknown_raises(self):
        import pytest

        from repro.errors import GroupError

        with pytest.raises(GroupError):
            make_table().require("nope")
