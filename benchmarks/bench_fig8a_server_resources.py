"""Fig. 8a — CPU and RAM of the FOCUS server under trace replay (§X-D).

While replaying the cloud trace (as in Fig. 7c), the paper samples the FOCUS
server's resource usage and finds it is "not resource-hungry": on a 4-vCPU /
16 GB VM, CPU stays around or below ~10% and RAM grows only modestly even
past 1.5k nodes (the related-work section contrasts this with Kubernetes
needing 36 vCPUs / 60 GB to manage 500 nodes).
"""

import pytest

from benchmarks.conftest import BENCH_SEED
from repro.core.config import FocusConfig
from repro.harness import build_focus_cluster
from repro.workloads import ChameleonTraceGenerator, node_spec_factory

NODE_COUNTS = (200, 800, 1600)
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
    start = scenario.sim.now
    for offset, query in pairs:
        scenario.sim.schedule_at(
            start + offset, scenario.app.query, query, lambda response: None
        )
    end = start + pairs[-1][0] + 5.0
    scenario.sim.run_until(end)
    resources = scenario.service.resources
    return {
        "nodes": num_nodes,
        "cpu": resources.mean_cpu_over(start, end),
        "ram_mb": resources.mean_ram_over(start, end),
    }


@pytest.mark.benchmark(group="fig8a")
def test_fig8a_server_resources(benchmark, record_rows):
    results = benchmark.pedantic(
        lambda: [run_point(n) for n in NODE_COUNTS], rounds=1, iterations=1
    )
    record_rows(
        "Fig. 8a — FOCUS server resources during trace replay (4 vCPU / 16 GB)",
        ["nodes", "CPU util", "RAM (MB)", "RAM (% of 16GB)"],
        [
            (r["nodes"], round(r["cpu"], 3), round(r["ram_mb"]),
             f"{100 * r['ram_mb'] / 16384:.1f}%")
            for r in results
        ],
    )
    by_nodes = {r["nodes"]: r for r in results}

    # Shape 1: CPU stays low at every size (paper: ~10% managing 1600
    # nodes). Note an emergent nuance of the fan-out cost model: *small*
    # fleets need several small-group pulls per query while a 1600-node
    # fleet is covered by one ~150-member group, so per-query server work
    # actually shrinks with scale — the headline "not resource-hungry"
    # holds everywhere.
    for r in results:
        assert r["cpu"] <= 0.15, r
    # Shape 2: RAM grows modestly and stays far below the VM's 16 GB.
    assert by_nodes[200]["ram_mb"] < by_nodes[1600]["ram_mb"]
    assert by_nodes[1600]["ram_mb"] < 0.1 * 16384
