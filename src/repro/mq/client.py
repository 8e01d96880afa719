"""Producer and consumer processes for the broker.

These mirror the paper's §III experiment: simulated producers pushing fixed
size messages at a fixed rate, and consumers that record end-to-end latency.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.loop import Simulator
from repro.sim.metrics import Histogram
from repro.sim.network import Message, Network
from repro.sim.process import Process


class Producer(Process):
    """Publishes fixed-size messages to a queue at a fixed rate.

    Defaults mirror the paper's RabbitMQ study: five 1 KB messages/second.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        region: str,
        broker: str,
        queue: str,
        *,
        rate: float = 5.0,
        message_size: int = 1024,
    ) -> None:
        super().__init__(sim, network, address, region)
        self.broker = broker
        self.queue = queue
        self.rate = rate
        self.message_size = message_size
        self.published = 0

    def on_start(self) -> None:
        self.send(self.broker, "mq.connect", {})
        interval = 1.0 / self.rate
        self.every(interval, self.publish, jitter=interval * 0.2)

    def publish(self) -> None:
        self.published += 1
        self.send(
            self.broker,
            "mq.publish",
            {
                "queue": self.queue,
                "body": None,
                "size": self.message_size,
                "sent_at": self.sim.now,
            },
            size=self.message_size,
        )


class Consumer(Process):
    """Consumes from a queue and records end-to-end message latency."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        region: str,
        broker: str,
        queue: str,
        *,
        on_message: Optional[Callable[[Message], None]] = None,
    ) -> None:
        super().__init__(sim, network, address, region)
        self.broker = broker
        self.queue = queue
        self.latency = Histogram(f"{address}.latency")
        self.consumed = 0
        self._on_message = on_message

    def on_start(self) -> None:
        self.send(self.broker, "mq.subscribe", {"queue": self.queue})
        self.on_subscribe()

    def on_subscribe(self) -> None:
        """Subclass hook called once the subscribe message is sent."""

    def handle_message(self, message: Message) -> None:
        if message.kind == "mq.deliver":
            self.consumed += 1
            self.latency.observe(self.sim.now - message.payload["sent_at"])
            if self._on_message is not None:
                self._on_message(message)
            return
        super().handle_message(message)
