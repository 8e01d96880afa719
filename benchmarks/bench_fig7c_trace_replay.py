"""Fig. 7c — query latency for real-world traces vs node count (§X-C).

The paper replays a Chameleon-cloud trace of OpenStack VM placement events
(75K events over 10 months) at 15,000x — about 43 queries/second — with the
FOCUS response cache disabled, and reports per-request latency percentiles
(p50/p75/p99) as the fleet grows.

Paper findings: latency rises steadily up to ~600 nodes, then stays roughly
constant — because beyond that point the *average group size* stops growing
(~150 members; the DGM forks groups at the size cap) and only the number of
groups increases.
"""

import pytest

from benchmarks.conftest import BENCH_SEED
from repro.core.config import FocusConfig
from repro.harness import build_focus_cluster
from repro.sim.metrics import Histogram
from repro.workloads import ChameleonTraceGenerator, node_spec_factory

NODE_COUNTS = (100, 200, 400, 800, 1600)
EVENTS_PER_POINT = 120


def run_point(num_nodes: int) -> dict:
    config = FocusConfig(cache_enabled=False)
    scenario = build_focus_cluster(
        num_nodes,
        seed=BENCH_SEED,
        config=config,
        warm_start=True,
        with_store=False,
        node_factory=node_spec_factory(seed=BENCH_SEED),
    )
    scenario.sim.run_until(3.0)
    pairs = ChameleonTraceGenerator(seed=7).accelerated_queries(
        EVENTS_PER_POINT, limit=10, freshness_ms=0.0
    )
    latency = Histogram("trace")
    start = scenario.sim.now
    for offset, query in pairs:
        scenario.sim.schedule_at(
            start + offset,
            scenario.app.query,
            query,
            lambda response: latency.observe(response.elapsed),
        )
    scenario.sim.run_until(start + pairs[-1][0] + 8.0)

    groups = [g for g in scenario.service.dgm.groups.all_groups()
              if g.size_estimate() > 0]
    sizes = [g.size_estimate() for g in groups]
    return {
        "nodes": num_nodes,
        "completed": latency.count,
        "p50_ms": latency.percentile(50) * 1000,
        "p75_ms": latency.percentile(75) * 1000,
        "p99_ms": latency.percentile(99) * 1000,
        "groups": len(groups),
        "avg_group": sum(sizes) / len(sizes),
        "max_group": max(sizes),
    }


@pytest.mark.benchmark(group="fig7c")
def test_fig7c_trace_replay(benchmark, record_rows):
    results = benchmark.pedantic(
        lambda: [run_point(n) for n in NODE_COUNTS], rounds=1, iterations=1
    )
    record_rows(
        "Fig. 7c — trace replay latency percentiles (~43 q/s, cache off)",
        ["nodes", "p50 (ms)", "p75 (ms)", "p99 (ms)", "groups", "avg group",
         "max group"],
        [
            (r["nodes"], round(r["p50_ms"]), round(r["p75_ms"]),
             round(r["p99_ms"]), r["groups"], round(r["avg_group"]),
             r["max_group"])
            for r in results
        ],
    )
    by_nodes = {r["nodes"]: r for r in results}
    for r in results:
        assert r["completed"] == EVENTS_PER_POINT

    # Shape 1: latency grows up to the mid hundreds of nodes...
    assert by_nodes[100]["p50_ms"] < by_nodes[400]["p50_ms"]

    # Shape 2: ...then plateaus: 800 -> 1600 changes p50 by <35%.
    p50_800, p50_1600 = by_nodes[800]["p50_ms"], by_nodes[1600]["p50_ms"]
    assert abs(p50_1600 - p50_800) / p50_800 < 0.35
    # And stays sub-second at the median, as in the paper.
    assert p50_1600 < 1000.0

    # Shape 3: the group-size cap is what flattens the curve — the average
    # group stops growing (paper: ~150) while the group count keeps rising.
    assert by_nodes[1600]["max_group"] <= 160  # fork threshold (150) + slack
    assert by_nodes[1600]["groups"] > by_nodes[400]["groups"]
    assert by_nodes[1600]["avg_group"] <= 160
