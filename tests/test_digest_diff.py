"""``benchmarks/digest_diff.py`` names what moved, not only that something did."""

from benchmarks.digest_diff import differing_leaves, render


def rep(events, latency):
    return {
        "counts": {"events": events, "messages_sent": 10.0},
        "sim": {"sim_query_p50_ms": 1.5},
        "spans": [{"id": 0, "latency_ms": 2.0}, {"id": 1, "latency_ms": latency}],
    }


def test_names_each_differing_leaf_by_path():
    assert list(differing_leaves(rep(5, 3.0), rep(5, 3.0))) == []
    assert list(differing_leaves(rep(5, 3.0), rep(4, 3.0))) == ["counts.events"]
    assert list(differing_leaves(rep(5, 3.0), rep(4, 9.0))) == [
        "counts.events", "spans[1].latency_ms",
    ]


def test_a_missing_key_or_a_resized_list_is_one_leaf():
    theirs, ours = rep(5, 3.0), rep(5, 3.0)
    del ours["sim"]["sim_query_p50_ms"]
    ours["spans"].pop()
    assert list(differing_leaves(theirs, ours)) == ["sim.sim_query_p50_ms", "spans"]


def test_table_says_where_the_digests_differ():
    table = render("abc123", [
        ("group_mesh", 42, "a" * 64, "a" * 64, []),
        ("trace_replay", 42, "a" * 64, "b" * 64, ["counts.events"]),
    ])
    assert "| `group_mesh` | 42 | `aaaaaaaaaaaa` | `aaaaaaaaaaaa` | same |" in table
    assert "**DIFFERENT** in `counts.events` |" in table
    assert table.endswith("1 of 2 smoke digests differ from `abc123`, only in `counts.events`")
