"""Fig. 7b — average query latency vs node count at 40 queries/s (§X-B).

Paper findings:

* below ~1k nodes RabbitMQ answers faster than FOCUS (a database lookup vs
  a gossip round trip);
* past ~1k nodes RabbitMQ "could not scale" — latency explodes as the
  broker saturates — while FOCUS's latency stays roughly constant, because
  directed pulls touch only the matching groups regardless of fleet size.

The broker here uses a 50 µs per-message cost (queries are small control
messages, unlike Fig. 3's 1 KB state publishes), which puts its saturation
knee at the paper's ~1k-node position for this 40 q/s workload.
"""

import pytest

from benchmarks.conftest import BENCH_SEED, bench_queries, build_finder
from repro.baselines import RabbitSubFinder
from repro.mq.broker import BrokerConfig
from repro.sim import Network, Simulator
from repro.workloads import node_spec_factory

NODE_COUNTS = (400, 800, 1200, 1600)
QUERY_RATE = 40.0
MEASURE_SECONDS = 3.0
QUERY_LIMIT = 10

#: Small control messages: 50 µs of broker CPU each (see module docstring).
QUERY_BROKER_CONFIG = BrokerConfig(per_message_cpu=5e-5)


def run_queries_at_rate(finder, queries, *, warmup: float, settle: float = 8.0):
    sim = finder.sim
    sim.run_until(sim.now + warmup)
    start = sim.now
    latencies = []

    def make_recorder(sent_at):
        def record(response):
            latencies.append(sim.now - sent_at)

        return record

    interval = 1.0 / QUERY_RATE
    for index, query in enumerate(queries):
        sent_at = start + index * interval
        sim.schedule_at(sent_at, finder.query, query, make_recorder(sent_at))
    sim.run_until(start + len(queries) * interval + settle)
    latencies.sort()
    mean = sum(latencies) / len(latencies) if latencies else float("inf")
    return {"mean_ms": mean * 1000.0, "completed": len(latencies)}


def run_focus(num_nodes: int) -> dict:
    finder = build_finder("focus", num_nodes)
    queries = bench_queries(int(QUERY_RATE * MEASURE_SECONDS), limit=QUERY_LIMIT)
    return run_queries_at_rate(finder, queries, warmup=3.0)


def run_rabbitmq(num_nodes: int) -> dict:
    sim = Simulator(seed=BENCH_SEED)
    network = Network(sim)
    finder = RabbitSubFinder(
        sim,
        network,
        num_nodes=num_nodes,
        node_factory=node_spec_factory(seed=BENCH_SEED),
        broker_config=QUERY_BROKER_CONFIG,
    )
    queries = bench_queries(int(QUERY_RATE * MEASURE_SECONDS), limit=QUERY_LIMIT)
    return run_queries_at_rate(finder, queries, warmup=3.0)


@pytest.mark.benchmark(group="fig7b")
def test_fig7b_query_latency(benchmark, record_rows):
    def sweep():
        return {
            "focus": {n: run_focus(n) for n in NODE_COUNTS},
            "rabbitmq": {n: run_rabbitmq(n) for n in NODE_COUNTS},
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_rows(
        "Fig. 7b — mean query latency (ms) at 40 queries/s",
        ["system"] + [f"N={n}" for n in NODE_COUNTS],
        [
            (system, *(round(results[system][n]["mean_ms"], 1) for n in NODE_COUNTS))
            for system in ("rabbitmq", "focus")
        ],
    )

    focus = {n: results["focus"][n]["mean_ms"] for n in NODE_COUNTS}
    rabbit = {n: results["rabbitmq"][n]["mean_ms"] for n in NODE_COUNTS}

    # Shape 1: below ~1k nodes RabbitMQ is faster than FOCUS.
    assert rabbit[400] < focus[400]
    assert rabbit[800] < focus[800]

    # Shape 2: past ~1k nodes RabbitMQ blows up and the lines cross.
    assert rabbit[1600] > 5 * rabbit[800]
    assert rabbit[1600] > focus[1600]

    # Shape 3: FOCUS stays roughly constant across the sweep (within 2x).
    assert max(focus.values()) < 2.0 * min(focus.values())
    # ... and in the sub-second band the paper reports.
    assert max(focus.values()) < 1500.0
