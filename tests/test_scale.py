"""Benchmark-scale sanity: the 1600-node warm deployment answers exactly.

The big Fig. 7 sweeps rely on the warm-start builder at 1600 nodes; this
test pins its correctness at that scale so a warm-start regression can't
silently skew every benchmark.
"""

import pytest

from repro.core.query import Query, QueryTerm
from repro.harness import build_focus_cluster, run_query
from repro.workloads import node_spec_factory


@pytest.fixture(scope="module")
def big_cluster():
    return build_focus_cluster(
        1600,
        seed=404,
        warm_start=True,
        with_store=False,
        node_factory=node_spec_factory(seed=404),
    )


class TestBenchmarkScale:
    def test_group_structure(self, big_cluster):
        groups = [
            g for g in big_cluster.service.dgm.groups.all_groups()
            if g.size_estimate() > 0
        ]
        # 1600 nodes x 4 attributes, groups capped at 150 members.
        assert sum(g.size_estimate() for g in groups) == 1600 * 4
        assert all(g.size_estimate() <= 150 for g in groups)

    def test_exact_query_at_scale(self, big_cluster):
        query = Query(
            [QueryTerm("ram_mb", lower=4096.0, upper=6143.0),
             QueryTerm.at_least("vcpus", 2.0)],
            freshness_ms=0.0,
        )
        response = run_query(big_cluster, query)
        expected = {
            a.node_id
            for a in big_cluster.agents
            if 4096.0 <= a.dynamic["ram_mb"] <= 6143.0
            and a.dynamic["vcpus"] >= 2.0
        }
        assert set(response.node_ids) == expected
        assert not response.timed_out

    def test_latency_in_fig7b_band(self, big_cluster):
        query = Query([QueryTerm("disk_gb", lower=40.0, upper=44.9)],
                      freshness_ms=0.0)
        response = run_query(big_cluster, query)
        # The paper's flat FOCUS line sits well under a second.
        assert response.elapsed < 1.0
