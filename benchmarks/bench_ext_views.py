"""Extension benchmark — materialized views for hot queries (§XII).

The paper's future-work proposal, implemented and measured: registering a
frequently issued multi-constraint query as a materialized view creates a
dedicated p2p group holding exactly the matching nodes, kept current by
event triggers on node state. A directed pull for the same query must fan
out over every group covering its smallest attribute and collect answers
from many non-matching members; the view pull touches only true matches.
"""

import pytest

from benchmarks.conftest import BENCH_SEED
from repro.core.query import Query, QueryTerm
from repro.harness import build_focus_cluster, drain, run_query
from repro.workloads import node_spec_factory

NUM_NODES = 400
REPEATS = 10

HOT_QUERY = Query(
    [
        QueryTerm.at_most("cpu_percent", 25.0),
        QueryTerm.at_least("ram_mb", 8192.0),
        QueryTerm.at_least("disk_gb", 50.0),
    ],
    freshness_ms=0.0,
)


def build():
    scenario = build_focus_cluster(
        NUM_NODES,
        seed=BENCH_SEED,
        warm_start=True,
        with_store=False,
        node_factory=node_spec_factory(seed=BENCH_SEED),
    )
    scenario.sim.run_until(3.0)
    return scenario


def measure(scenario) -> dict:
    server_meter = scenario.network.meter(scenario.service.address)
    before_bytes = server_meter.total_bytes
    before_fanout = scenario.service.metrics.counter("group_queries").value
    latencies = []
    sources = set()
    for _ in range(REPEATS):
        response = run_query(scenario, HOT_QUERY)
        latencies.append(response.elapsed)
        sources.add(response.source)
    return {
        "mean_ms": sum(latencies) / len(latencies) * 1000.0,
        "kb_per_query": (server_meter.total_bytes - before_bytes) / REPEATS / 1024.0,
        "fanout_per_query": (
            scenario.service.metrics.counter("group_queries").value - before_fanout
        ) / REPEATS,
        "matches": len(run_query(scenario, HOT_QUERY).matches),
        "sources": sources,
    }


@pytest.mark.benchmark(group="ext-views")
def test_ext_materialized_views(benchmark, record_rows):
    def run():
        # Without a view: plain directed pulls.
        plain = measure(build())
        # With a view: register, let nodes join, then the same queries.
        scenario = build()
        created = []
        scenario.app.client.create_view(
            Query(HOT_QUERY.terms), created.append, view_id="hot"
        )
        drain(scenario, 12.0)  # definitions fan out, matching nodes join
        assert created and not created[0].get("error")
        viewed = measure(scenario)
        view_group = scenario.service.views.views["hot"].group
        viewed["view_members"] = len(view_group.all_node_ids())
        return plain, viewed

    plain, viewed = benchmark.pedantic(run, rounds=1, iterations=1)
    record_rows(
        "Extension — materialized view vs directed pull (hot 3-term query, 400 nodes)",
        ["path", "mean latency (ms)", "server KB/query", "groups/query", "matches"],
        [
            ("directed pull", round(plain["mean_ms"]),
             round(plain["kb_per_query"], 1), round(plain["fanout_per_query"], 1),
             plain["matches"]),
            ("materialized view", round(viewed["mean_ms"]),
             round(viewed["kb_per_query"], 1), round(viewed["fanout_per_query"], 1),
             viewed["matches"]),
        ],
    )
    # Same answers either way.
    assert plain["matches"] == viewed["matches"] == viewed["view_members"]
    assert viewed["sources"] == {"view"}
    # The view needs only one (exact) group per query.
    assert viewed["fanout_per_query"] <= 1.0 < plain["fanout_per_query"] + 1
    # And it is cheaper at the server and at least as fast.
    assert viewed["kb_per_query"] < plain["kb_per_query"]
    assert viewed["mean_ms"] <= plain["mean_ms"] * 1.1
