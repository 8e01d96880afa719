"""Unit tests for the Process base class."""

import pytest

from repro.errors import SimulationError
from repro.sim import Network, Simulator, Topology
from repro.sim.network import MESSAGE_OVERHEAD_BYTES
from repro.sim.process import Process


class Echo(Process):
    def __init__(self, sim, network, address, region):
        super().__init__(sim, network, address, region)
        self.seen = []
        self.unhandled = []
        self.on("echo", self.seen.append)

    def on_unhandled(self, message):
        self.unhandled.append(message)


@pytest.fixture
def pair(sim, network, regions):
    a = Echo(sim, network, "a", regions[0])
    b = Echo(sim, network, "b", regions[0])
    a.start()
    b.start()
    return a, b


class TestDispatch:
    def test_handler_receives_message(self, sim, pair):
        a, b = pair
        a.send("b", "echo", {"v": 1})
        sim.run_until(1.0)
        assert len(b.seen) == 1

    def test_unhandled_hook(self, sim, pair):
        a, b = pair
        a.send("b", "mystery", {})
        sim.run_until(1.0)
        assert len(b.unhandled) == 1

    def test_duplicate_handler_rejected(self, pair):
        a, _ = pair
        with pytest.raises(SimulationError):
            a.on("echo", lambda m: None)

    def test_stopped_process_ignores_messages(self, sim, pair):
        a, b = pair
        b.stop()
        a.send("b", "echo", {})
        sim.run_until(1.0)
        assert b.seen == []

    def test_send_after_stop_is_noop(self, sim, pair):
        a, b = pair
        a.stop()
        a.send("b", "echo", {})
        sim.run_until(1.0)
        assert b.seen == []


class TestLifecycle:
    def test_double_start_rejected(self, pair):
        a, _ = pair
        with pytest.raises(SimulationError):
            a.start()

    def test_stop_is_idempotent(self, pair):
        a, _ = pair
        a.stop()
        a.stop()
        assert not a.running

    def test_stop_cancels_timers(self, sim, pair):
        a, _ = pair
        fired = []
        a.every(1.0, lambda: fired.append(sim.now))
        sim.run_until(2.5)
        a.stop()
        sim.run_until(10.0)
        assert fired == [1.0, 2.0]

    def test_after_guarded_by_running(self, sim, pair):
        a, _ = pair
        fired = []
        a.after(1.0, fired.append, "x")
        a.stop()
        sim.run_until(2.0)
        assert fired == []

    def test_after_fires_while_running(self, sim, pair):
        a, _ = pair
        fired = []
        a.after(1.0, fired.append, "x")
        sim.run_until(2.0)
        assert fired == ["x"]


class Overriding(Echo):
    """Extends ``handle_message``, as the MQ clients and servers do."""

    def __init__(self, *args):
        super().__init__(*args)
        self.entered = []

    def handle_message(self, message):
        self.entered.append(message.kind)
        super().handle_message(message)


class TestDispatchContract:
    """What the network does with a delivery, now that it binds each
    endpoint once at registration: a plain ``Process`` is dispatched from
    its handler table, anything else through ``handle_message``."""

    def test_plain_process_is_dispatched_from_its_table(
        self, sim, network, pair, monkeypatch
    ):
        a, b = pair
        assert network._bindings["b"][1] is b._handlers
        entered = []
        monkeypatch.setattr(Process, "handle_message",
                            lambda self, message: entered.append(message))
        a.send("b", "echo", {"v": 1})
        a.send("b", "mystery", {})
        sim.run_until(1.0)
        assert entered == []
        assert [m.kind for m in b.seen] == ["echo"]
        assert [m.kind for m in b.unhandled] == ["mystery"]

    def test_override_sees_every_delivery(self, sim, network, regions):
        a = Echo(sim, network, "a", regions[0])
        b = Overriding(sim, network, "b", regions[0])
        a.start()
        b.start()
        assert network._bindings["b"][1] is None
        for kind in ("echo", "mystery", "echo"):
            a.send("b", kind, {})
        sim.run_until(1.0)
        assert sorted(b.entered) == ["echo", "echo", "mystery"]  # jittered
        assert len(b.seen) == 2 and len(b.unhandled) == 1
        b.pause()
        a.send("b", "echo", {})
        sim.run_until(2.0)
        assert b.entered[-1] == "echo" and len(b.seen) == 2
        assert b.paused_drops == 1

    def test_paused_process_counts_drops_and_runs_nothing(self, sim, pair):
        a, b = pair
        b.pause()
        a.send("b", "echo", {})
        a.send("b", "mystery", {})
        sim.run_until(1.0)
        assert (b.seen, b.unhandled, b.paused_drops) == ([], [], 2)
        b.resume()
        a.send("b", "echo", {})
        sim.run_until(2.0)
        assert len(b.seen) == 1 and b.paused_drops == 2

    def test_in_flight_to_a_stopped_process_is_a_dead_endpoint_drop(
        self, sim, network, pair
    ):
        a, b = pair
        a.send("b", "echo", {})
        b.stop()
        sim.run_until(1.0)
        assert b.seen == []
        assert network.metrics.counter("messages_dropped.dead_endpoint").value == 1
        assert network.metrics.counter("messages_delivered").value == 0

    @pytest.mark.parametrize("record_events", [True, False])
    def test_restart_rebinds_the_same_meter(self, record_events):
        sim = Simulator(seed=1)
        network = Network(sim, Topology(), record_bandwidth_events=record_events)
        region = network.topology.regions[0].name
        a = Echo(sim, network, "a", region)
        b = Echo(sim, network, "b", region)
        a.start()
        b.start()
        meter = network.meter("b")
        assert network._bindings["b"][2] is meter
        a.send("b", "echo", {}, size=40)
        sim.run_until(1.0)
        b.stop()
        assert not network.is_registered("b")
        b.restart()
        assert network._bindings["b"][2] is meter is network.meter("b")
        assert network._bindings["b"][1] is b._handlers
        meter.reset()  # what FocusScenario.reset_bandwidth does
        a.send("b", "echo", {}, size=40)
        sim.run_until(2.0)
        assert len(b.seen) == 2
        assert (meter.bytes_received, meter.messages_received) == (
            40 + MESSAGE_OVERHEAD_BYTES, 1
        )
        assert meter.bytes_in_window(0.0, 2.0) == 40 + MESSAGE_OVERHEAD_BYTES
