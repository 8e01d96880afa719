"""Fig. 8c — query latency by response source: cache vs p2p groups (§X-D).

Paper findings:

* a cache hit answers in ~45 ms — an order of magnitude below any group
  pull (the cost is server-side processing, not gossip);
* pulling from a p2p group costs a gossip convergence round: it grows with
  group size but stays under a second even for groups of hundreds of
  members (fanout 4, interval 100 ms — footnote 2's 400-member group
  converges in ~0.6 s).
"""

import pytest

from benchmarks.conftest import BENCH_SEED
from repro.core.query import Query, QueryTerm
from repro.harness.scenarios import build_single_group_cluster

GROUP_SIZES = (50, 100, 200, 400)


def measure(scenario, freshness_ms: float) -> float:
    from repro.harness import run_query

    query = Query(
        [QueryTerm.at_least("load", 0.0)], freshness_ms=freshness_ms
    )
    return run_query(scenario, query).elapsed


def run_group_point(group_size: int) -> dict:
    scenario = build_single_group_cluster(
        group_size, seed=BENCH_SEED
    )
    scenario.sim.run_until(5.0)
    # Average a few pulls; each goes to a fresh random member.
    pulls = [measure(scenario, freshness_ms=0.0) for _ in range(5)]
    # Then a cached answer (first prime it, then hit it).
    measure(scenario, freshness_ms=120_000.0)
    cache_hit = measure(scenario, freshness_ms=120_000.0)
    return {
        "group_size": group_size,
        "pull_ms": sum(pulls) / len(pulls) * 1000.0,
        "cache_ms": cache_hit * 1000.0,
    }


@pytest.mark.benchmark(group="fig8c")
def test_fig8c_latency_vs_group_size(benchmark, record_rows):
    results = benchmark.pedantic(
        lambda: [run_group_point(n) for n in GROUP_SIZES], rounds=1, iterations=1
    )
    record_rows(
        "Fig. 8c — query latency (ms) by response source",
        ["source", "latency (ms)"],
        [("cache", round(results[0]["cache_ms"], 1))]
        + [
            (f"p2p group ({r['group_size']} members)", round(r["pull_ms"], 1))
            for r in results
        ],
    )
    by_size = {r["group_size"]: r for r in results}

    # Shape 1: the cache answers in ~45 ms (server processing dominated).
    for r in results:
        assert 30.0 < r["cache_ms"] < 70.0

    # Shape 2: cache is ~an order of magnitude below any group pull.
    for r in results:
        assert r["pull_ms"] > 4 * r["cache_ms"]

    # Shape 3: group pulls grow with size but stay under a second even for
    # hundreds of members.
    assert by_size[50]["pull_ms"] < by_size[400]["pull_ms"]
    assert by_size[400]["pull_ms"] < 1000.0

    # Footnote 2: a 400-member group converges in roughly 0.6 s.
    assert 300.0 < by_size[400]["pull_ms"] < 1000.0
