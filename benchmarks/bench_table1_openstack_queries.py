"""Table I — the OpenStack use-case queries, end to end (§II-A).

Runs each query category from Table I against a FOCUS deployment and checks
the answers against ground truth computed from the nodes' actual state:

    | VM Provisioning / Live Migration | hosts meeting VM resource needs |
    | Verify Service Status            | hosts by service type           |
    | Tenant Usage Reports             | hosts belonging to a project ID |
    | Hot Spot Detection               | active/idle hosts               |
"""

import pytest

from benchmarks.conftest import BENCH_SEED
from repro.core.query import Query, QueryTerm
from repro.harness import build_focus_cluster, run_query
from repro.workloads import node_spec_factory

NUM_NODES = 96


def build():
    factory = node_spec_factory(seed=BENCH_SEED)
    scenario = build_focus_cluster(
        NUM_NODES,
        seed=BENCH_SEED,
        warm_start=True,
        with_store=True,
        node_factory=factory,
    )
    scenario.sim.run_until(8.0)
    return scenario


TABLE1 = [
    (
        "VM Provisioning / Live Migration",
        "hosts with >=4GB RAM, >=2 vCPUs, >=20GB disk",
        Query(
            [
                QueryTerm.at_least("ram_mb", 4096.0),
                QueryTerm.at_least("vcpus", 2.0),
                QueryTerm.at_least("disk_gb", 20.0),
            ],
            freshness_ms=0.0,
        ),
    ),
    (
        "Verify Service Status",
        "hosts running the scheduler service",
        Query([QueryTerm.exact("service_type", "scheduler")]),
    ),
    (
        "Tenant Usage Reports",
        "hosts belonging to project-3",
        Query([QueryTerm.exact("project_id", "project-3")]),
    ),
    (
        "Hot Spot Detection",
        "idle hosts (CPU <= 25%)",
        Query([QueryTerm.at_most("cpu_percent", 25.0)], freshness_ms=0.0),
    ),
]


@pytest.mark.benchmark(group="table1")
def test_table1_openstack_queries(benchmark, record_rows):
    def run():
        scenario = build()
        rows = []
        for use_case, description, query in TABLE1:
            response = run_query(scenario, query)
            expected = {
                a.node_id for a in scenario.agents if query.matches(a.attributes())
            }
            rows.append(
                {
                    "use_case": use_case,
                    "description": description,
                    "matches": len(response.matches),
                    "expected": len(expected),
                    "exact": set(response.node_ids) == expected,
                    "latency_ms": response.elapsed * 1000.0,
                    "source": response.source,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_rows(
        "Table I — OpenStack use-case queries over FOCUS (96 hosts)",
        ["use case", "query", "matches", "latency (ms)", "source"],
        [
            (r["use_case"], r["description"], r["matches"],
             round(r["latency_ms"]), r["source"])
            for r in rows
        ],
    )
    for r in rows:
        assert r["exact"], f"{r['use_case']}: got {r['matches']}, expected {r['expected']}"
    sources = {r["use_case"]: r["source"] for r in rows}
    assert sources["Verify Service Status"] == "static"
    assert sources["Tenant Usage Reports"] == "static"
    assert sources["VM Provisioning / Live Migration"] == "groups"
    assert sources["Hot Spot Detection"] == "groups"
