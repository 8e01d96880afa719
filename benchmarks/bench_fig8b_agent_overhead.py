"""Fig. 8b — bandwidth overhead on node agents vs p2p group size (§X-D).

Two conditions, as in the paper:

* **normal operation** — membership maintenance only (SWIM probes, the odd
  piggyback, periodic anti-entropy): "negligible (under 2 KBps), even for
  groups with more than 400 members";
* **query processing at 1 query/s** — the measured node receives each query
  and, acting as the aggregating member, collects every member's direct
  response (§VII): "less than 10 KBps for groups with 100 nodes and about
  50 KBps for groups with 400 nodes".

Methodology note: the load-balanced router normally spreads aggregation duty
over random members; this microbenchmark pins the queries on one member to
measure the per-aggregation cost the paper plots.
"""

import pytest

from benchmarks.conftest import BENCH_SEED
from repro.core.query import Query, QueryTerm
from repro.harness.scenarios import build_single_group_cluster

GROUP_SIZES = (50, 100, 200, 400)
MEASURE_SECONDS = 10.0


def node_bytes(scenario, node_id: str) -> int:
    """Bytes sent and received so far by all of a node's endpoints."""
    agent = scenario.agent(node_id)
    return sum(
        scenario.network.meter(address).total_bytes
        for address in agent.endpoint_addresses()
    )


def node_bandwidth_kbps(scenario, node_id: str, start: float, start_bytes: int) -> float:
    """KB/s from ``start`` (when the node had ``start_bytes``) to now."""
    sent = node_bytes(scenario, node_id) - start_bytes
    return sent / (scenario.sim.now - start) / 1024.0


def run_point(group_size: int) -> dict:
    scenario = build_single_group_cluster(group_size, seed=BENCH_SEED)
    sim = scenario.sim
    sim.run_until(5.0)

    # -- normal operation: a member with no special duties.
    idle_member = scenario.agents[-1].node_id
    start = sim.now
    start_bytes = node_bytes(scenario, idle_member)
    sim.run_until(start + MEASURE_SECONDS)
    normal_kbps = node_bandwidth_kbps(scenario, idle_member, start, start_bytes)

    # The query phase pins aggregation duty on one member (see run_query_phase).
    target = scenario.agents[1].node_id
    group = scenario.agents[1].memberships["load"].group
    return {"scenario": scenario, "normal": normal_kbps, "target": target,
            "group": group, "group_size": group_size}


def run_query_phase(point: dict) -> dict:
    scenario = point["scenario"]
    sim = scenario.sim
    query = Query([QueryTerm.at_least("load", 0.0)], freshness_ms=0.0)
    start = sim.now
    start_bytes = node_bytes(scenario, point["target"])

    def fire() -> None:
        scenario.app.call(
            point["target"],
            "node.group-query",
            {"group": point["group"], "query": query.to_json()},
            on_reply=lambda result: None,
            timeout=5.0,
        )

    for index in range(int(MEASURE_SECONDS)):
        sim.schedule_at(start + index * 1.0, fire)
    sim.run_until(start + MEASURE_SECONDS + 3.0)
    querying_kbps = node_bandwidth_kbps(
        scenario, point["target"], start, start_bytes
    )
    return {
        "group_size": point["group_size"],
        "normal_kbps": point["normal"],
        "querying_kbps": querying_kbps,
    }


def run_full_point(group_size: int) -> dict:
    point = run_point(group_size)
    return run_query_phase(point)


@pytest.mark.benchmark(group="fig8b")
def test_fig8b_agent_overhead(benchmark, record_rows):
    results = benchmark.pedantic(
        lambda: [run_full_point(n) for n in GROUP_SIZES], rounds=1, iterations=1
    )
    record_rows(
        "Fig. 8b — node agent bandwidth (KB/s) vs group size",
        ["group size", "normal operation", "processing 1 query/s"],
        [
            (r["group_size"], round(r["normal_kbps"], 2),
             round(r["querying_kbps"], 1))
            for r in results
        ],
    )
    by_size = {r["group_size"]: r for r in results}

    # Shape 1: normal operation is negligible even at 400 members (<2 KB/s).
    for r in results:
        assert r["normal_kbps"] < 2.0, r

    # Shape 2: query processing scales linearly-ish with group size — tens
    # of KB/s for hundreds of members (paper: ~10 KB/s at 100, ~50 at 400;
    # our JSON responses are a constant factor heavier, same slope).
    assert 5.0 < by_size[100]["querying_kbps"] < 100.0
    assert 20.0 < by_size[400]["querying_kbps"] < 300.0
    assert by_size[400]["querying_kbps"] > 2.0 * by_size[100]["querying_kbps"]

    # Shape 3: querying costs an order of magnitude more than idling.
    assert by_size[400]["querying_kbps"] > 10 * by_size[400]["normal_kbps"]
