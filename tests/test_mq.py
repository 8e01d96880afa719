"""Tests for the RabbitMQ-equivalent broker: routing, consumers, CPU model."""

import pytest

from repro.mq import Broker, BrokerConfig, Consumer, Producer


@pytest.fixture
def broker(sim, network, regions):
    b = Broker(sim, network, "broker", regions[0])
    b.start()
    return b


class TestRouting:
    def test_publish_to_consumer(self, sim, network, regions, broker):
        consumer = Consumer(sim, network, "c", regions[0], "broker", "q1")
        consumer.start()
        producer = Producer(sim, network, "p", regions[0], "broker", "q1", rate=2.0)
        producer.start()
        sim.run_until(5.0)
        assert consumer.consumed >= 8

    def test_no_consumer_drops_silently(self, sim, network, regions, broker):
        producer = Producer(sim, network, "p", regions[0], "broker", "empty-q")
        producer.start()
        sim.run_until(2.0)  # must not raise

    def test_competing_consumers_round_robin(self, sim, network, regions, broker):
        consumers = [
            Consumer(sim, network, f"c{i}", regions[0], "broker", "shared")
            for i in range(4)
        ]
        for c in consumers:
            c.start()
        producer = Producer(sim, network, "p", regions[0], "broker", "shared", rate=20.0)
        producer.start()
        sim.run_until(5.0)
        counts = [c.consumed for c in consumers]
        assert sum(counts) >= 90
        assert max(counts) - min(counts) <= 2  # balanced

    def test_fanout_exchange_reaches_all_queues(self, sim, network, regions, broker):
        consumers = []
        for i in range(3):
            c = Consumer(sim, network, f"c{i}", regions[0], "broker", f"q{i}")
            c.start()
            c.send("broker", "mq.bind", {"exchange": "x", "queue": f"q{i}"})
            consumers.append(c)
        sim.run_until(1.0)
        consumers[0].send(
            "broker",
            "mq.publish",
            {"exchange": "x", "body": {"n": 1}, "size": 100, "sent_at": sim.now},
        )
        sim.run_until(3.0)
        assert all(c.consumed == 1 for c in consumers)

    def test_latency_recorded(self, sim, network, regions, broker):
        consumer = Consumer(sim, network, "c", regions[0], "broker", "q")
        consumer.start()
        producer = Producer(sim, network, "p", regions[0], "broker", "q", rate=5.0)
        producer.start()
        sim.run_until(10.0)
        assert consumer.latency.count > 0
        assert 0 < consumer.latency.percentile(50) < 0.1


class TestCpuModel:
    def test_utilization_grows_with_producers(self, sim, network, regions):
        def utilization(num_producers):
            from repro.sim import Network, Simulator

            local_sim = Simulator(seed=1)
            local_net = Network(local_sim)
            region = local_net.topology.regions[0].name
            broker = Broker(local_sim, local_net, "b", region)
            broker.start()
            consumer = Consumer(local_sim, local_net, "c", region, "b", "q")
            consumer.start()
            for i in range(num_producers):
                Producer(local_sim, local_net, f"p{i}", region, "b", "q").start()
            local_sim.run_until(10.0)
            return broker.utilization_over(5.0, 10.0)

        low, high = utilization(20), utilization(200)
        assert high > low

    def test_saturation_builds_backlog(self, sim, network, regions):
        # Capacity is ~33k msgs/s with default config; a synthetic burst
        # far above it must queue.
        config = BrokerConfig(cores=1.0, per_message_cpu=0.001)  # 1k msgs/s
        broker = Broker(sim, network, "b2", regions[0], config)
        broker.start()
        consumer = Consumer(sim, network, "c", regions[0], "b2", "q")
        consumer.start()
        producers = [
            Producer(sim, network, f"p{i}", regions[0], "b2", "q", rate=50.0)
            for i in range(40)  # 2000 msgs/s offered to a 1k msgs/s broker
        ]
        for p in producers:
            p.start()
        sim.run_until(10.0)
        assert broker.backlog_seconds > 1.0
        assert consumer.latency.percentile(99) > 1.0

    def test_overload_protection_drops(self, sim, network, regions):
        config = BrokerConfig(cores=1.0, per_message_cpu=0.01, max_backlog_seconds=0.5)
        broker = Broker(sim, network, "b3", regions[0], config)
        broker.start()
        consumer = Consumer(sim, network, "c2", regions[0], "b3", "q")
        consumer.start()
        for i in range(20):
            Producer(sim, network, f"pp{i}", regions[0], "b3", "q", rate=50.0).start()
        sim.run_until(10.0)
        assert broker.messages_dropped > 0

    def test_utilization_over_requires_samples(self, sim, network, regions, broker):
        from repro.errors import BrokerError

        with pytest.raises(BrokerError):
            broker.utilization_over(100.0, 200.0)

    def test_connection_overhead_counted(self, sim, network, regions, broker):
        # Many idle connections alone should produce nonzero utilization.
        for i in range(500):
            broker.connections.add(f"conn-{i}")
        sim.run_until(3.0)
        assert broker.utilization_over(0.0, 3.0) > 0.02
