"""RPC under faults: retries, idempotency, timeout metrics, pause semantics.

A call's timeout is a ``Simulator.deadline``; ``TestDeadlineTimeouts`` holds
it to the deadline oracle (``tests/oracles/deadlines.py``, every deadline a
``schedule`` + ``cancel``) and pins the backoff, crash and reset edges.
"""

import pytest

from repro.sim import Network, Simulator, Topology
from repro.sim.process import Process
from repro.sim.rpc import DEFERRED, RpcMixin
from tests.oracles.deadlines import ScheduledDeadlineSimulator


class Peer(Process, RpcMixin):
    """RPC endpoint that serves an ``echo`` method and counts executions."""

    def __init__(self, sim, network, address, region):
        Process.__init__(self, sim, network, address, region)
        self.init_rpc()
        self.executions = 0
        self.serve("echo", self._echo)

    def _echo(self, params, respond, message):
        self.executions += 1
        return {"echo": params}


@pytest.fixture
def peers(sim, network, regions):
    client = Peer(sim, network, "client", regions[0])
    server = Peer(sim, network, "server", regions[1])
    client.start()
    server.start()
    return client, server


class TestExactlyOneCallback:
    def test_partitioned_destination_fires_only_timeout(self, sim, network, peers):
        client, server = peers
        network.block("client", "server")
        replies, timeouts = [], []
        client.call("server", "echo", {"n": 1}, on_reply=replies.append,
                    on_timeout=lambda: timeouts.append(True), timeout=2.0)
        sim.run_until(sim.now + 10.0)
        assert replies == []
        assert timeouts == [True]
        assert network.metrics.counter("rpc.timeouts").value == 1

    def test_late_reply_after_timeout_is_counted_not_delivered(
        self, sim, network, peers
    ):
        client, server = peers
        # Requests get through; responses are dropped until after the
        # client's timeout, then the link heals and the stale reply lands.
        network.block_directed("server", "client")
        replies, timeouts = [], []
        client.call("server", "echo", {"n": 1}, on_reply=replies.append,
                    on_timeout=lambda: timeouts.append(True), timeout=1.0)
        sim.run_until(sim.now + 2.0)
        assert timeouts == [True]
        network.unblock_directed("server", "client")
        # Nothing in flight any more: the response was dropped, not delayed,
        # so re-issue and let this one time out while a fresh reply arrives.
        client.call("server", "echo", {"n": 2}, on_reply=replies.append,
                    timeout=5.0)
        sim.run_until(sim.now + 6.0)
        assert len(replies) == 1 and timeouts == [True]

    def test_reply_cancels_timeout(self, sim, network, peers):
        client, server = peers
        replies, timeouts = [], []
        client.call("server", "echo", {"n": 1}, on_reply=replies.append,
                    on_timeout=lambda: timeouts.append(True), timeout=5.0)
        sim.run_until(sim.now + 10.0)
        assert len(replies) == 1
        assert timeouts == []


class TestRetries:
    def test_retry_succeeds_after_transient_partition(self, sim, network, peers):
        client, server = peers
        network.block("client", "server")
        sim.schedule(1.5, network.heal_all)
        replies, timeouts = [], []
        client.call("server", "echo", {"n": 1}, on_reply=replies.append,
                    on_timeout=lambda: timeouts.append(True),
                    timeout=1.0, retries=3, retry_backoff=0.2)
        sim.run_until(sim.now + 15.0)
        assert len(replies) == 1
        assert timeouts == []
        # At least the first attempt timed out before the heal.
        assert network.metrics.counter("rpc.timeouts").value >= 1

    def test_exhausted_retries_fire_timeout_once(self, sim, network, peers):
        client, server = peers
        network.block("client", "server")
        replies, timeouts = [], []
        client.call("server", "echo", {"n": 1}, on_reply=replies.append,
                    on_timeout=lambda: timeouts.append(True),
                    timeout=1.0, retries=2, retry_backoff=0.1)
        sim.run_until(sim.now + 20.0)
        assert replies == []
        assert timeouts == [True]
        # Initial attempt + 2 retries, each counted.
        assert network.metrics.counter("rpc.timeouts").value == 3

    def test_idempotency_cache_deduplicates_retransmits(self, sim, network, peers):
        client, server = peers
        server.enable_rpc_idempotency()
        # Responses are dropped, so every attempt reaches the server; the
        # handler must still execute only once.
        network.block_directed("server", "client")
        sim.schedule(2.5, network.heal_all)
        replies = []
        client.call("server", "echo", {"n": 1}, on_reply=replies.append,
                    timeout=1.0, retries=5, retry_backoff=0.2)
        sim.run_until(sim.now + 20.0)
        assert len(replies) == 1
        assert server.executions == 1

    def test_without_cache_retransmits_reexecute(self, sim, network, peers):
        client, server = peers
        network.block_directed("server", "client")
        sim.schedule(2.5, network.heal_all)
        replies = []
        client.call("server", "echo", {"n": 1}, on_reply=replies.append,
                    timeout=1.0, retries=5, retry_backoff=0.2)
        sim.run_until(sim.now + 20.0)
        assert len(replies) == 1
        assert server.executions > 1

    def test_caller_crash_during_backoff_abandons_call(self, sim, network, peers):
        client, server = peers
        network.block("client", "server")
        replies, timeouts = [], []
        client.call("server", "echo", {"n": 1}, on_reply=replies.append,
                    on_timeout=lambda: timeouts.append(True),
                    timeout=1.0, retries=5, retry_backoff=0.5)
        sim.schedule(1.1, client.stop)  # mid-backoff
        sim.run_until(sim.now + 20.0)
        assert replies == [] and timeouts == []


class TestPauseSemantics:
    def test_paused_process_drops_and_defers(self, sim, network, peers):
        client, server = peers
        ticks, shots = [], []
        server.every(1.0, lambda: ticks.append(sim.now))
        server.pause()
        server.after(0.5, lambda: shots.append(sim.now))
        client.send("server", "unhandled-kind", {})
        sim.run_until(sim.now + 3.0)
        assert ticks == []  # periodic firings skipped
        assert shots == []  # one-shot deferred
        assert server.paused_drops >= 1  # the delivery was swallowed
        server.resume()
        assert shots == [sim.now]  # deferred shot replayed on resume
        sim.run_until(sim.now + 2.5)
        assert len(ticks) >= 2  # periodic work resumed

    def test_paused_server_times_out_callers(self, sim, network, peers):
        client, server = peers
        server.pause()
        replies, timeouts = [], []
        client.call("server", "echo", {"n": 1}, on_reply=replies.append,
                    on_timeout=lambda: timeouts.append(True), timeout=2.0)
        sim.run_until(sim.now + 5.0)
        assert replies == [] and timeouts == [True]
        server.resume()
        client.call("server", "echo", {"n": 2}, on_reply=replies.append,
                    timeout=5.0)
        sim.run_until(sim.now + 6.0)
        assert len(replies) == 1


def answer_later(sim, delay):
    """A server method that answers ``delay`` seconds after the request."""

    def handler(params, respond, message):
        sim.schedule(delay, respond, {"late": params})
        return DEFERRED

    return handler


def deadline_run(sim_cls):
    """Calls answered, timed out, retried across a block, and cancelled;
    returns every callback with its instant, the event count and counters."""
    sim = sim_cls(seed=5)
    network = Network(sim, Topology())
    regions = [r.name for r in network.topology.regions]
    client = Peer(sim, network, "client", regions[0])
    server = Peer(sim, network, "server", regions[1])
    client.start()
    server.start()
    server.serve("slow", answer_later(sim, 0.4))
    log = []

    def issue(n, method, timeout, retries=0):
        client.call(
            "server", method, {"n": n},
            on_reply=lambda result: log.append((sim.now, "reply", n)),
            on_timeout=lambda: log.append((sim.now, "timeout", n)),
            timeout=timeout, retries=retries, retry_backoff=0.3,
        )

    for i in range(12):
        at = 0.25 * i
        sim.schedule(at, issue, i, "echo", 0.5)
        sim.schedule(at + 0.1, issue, 100 + i, "slow", 0.3 + 0.1 * (i % 3),
                     i % 3)
    sim.schedule(0.9, network.block, "client", "server")
    sim.schedule(1.8, network.unblock, "client", "server")
    sim.schedule(2.05, lambda: client.cancel_call(next(iter(client._rpc_pending))))
    sim.run_until(10.0)
    counters = {
        name: network.metrics.counter(name).value
        for name in network.metrics.names()["counters"]
    }
    return log, sim.events_processed, counters


class TestDeadlineTimeouts:
    def test_fires_at_the_instant_order_and_event_count_of_the_oracle(self):
        kernel = deadline_run(Simulator)
        assert kernel == deadline_run(ScheduledDeadlineSimulator)
        log, _, counters = kernel
        kinds = {kind for _, kind, _ in log}
        assert kinds == {"reply", "timeout"}
        assert counters["rpc.timeouts"] > counters.get("rpc.late_replies", 0) > 0

    def test_late_reply_during_backoff_completes_the_call(self, sim, network, peers):
        client, server = peers
        executions = []
        slow = answer_later(sim, 1.5)

        def counted(params, respond, message):
            executions.append(sim.now)
            return slow(params, respond, message)

        server.serve("slow", counted)
        replies, timeouts = [], []
        client.call("server", "slow", {"n": 1}, on_reply=replies.append,
                    on_timeout=lambda: timeouts.append(True),
                    timeout=1.0, retries=1, retry_backoff=1000.0)
        sim.run_until(sim.now + 2.0)  # timed out at 1.0, answered at ~1.5
        assert replies == [{"late": {"n": 1}}] and timeouts == []
        assert network.metrics.counter("rpc.timeouts").value == 1
        assert network.metrics.get_counter("rpc.late_replies") is None
        sim.run_until(sim.now + 2000.0)  # the backoff ends: nothing to resend
        assert len(executions) == 1
        assert replies == [{"late": {"n": 1}}] and timeouts == []

    def test_reset_rpc_fires_neither_callback_and_counts_late_replies(
        self, sim, network, peers
    ):
        client, server = peers
        server.serve("slow", answer_later(sim, 0.5))
        fired = []
        # One call waiting on its deadline, one backing off after a timeout.
        client.call("server", "slow", {}, on_reply=fired.append,
                    on_timeout=lambda: fired.append("timeout"), timeout=1.0)
        client.call("ghost", "echo", {}, on_reply=fired.append,
                    on_timeout=lambda: fired.append("timeout"),
                    timeout=0.1, retries=1, retry_backoff=1000.0)
        sim.run_until(sim.now + 0.2)
        client.reset_rpc()
        sim.run_until(sim.now + 2000.0)
        assert fired == []
        assert network.metrics.counter("rpc.timeouts").value == 1
        assert network.metrics.counter("rpc.late_replies").value == 1
        assert network.metrics.counter("messages_sent").value == 3  # no resend
