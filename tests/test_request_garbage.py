"""Per-request state is freed by reference counting, never by the collector.

Every RPC outcome (reply, timeout, retry then reply, a late reply during the
backoff, retries exhausted, a caller crash during the backoff,
``cancel_call``, ``reset_rpc``), a deadline FIFO that empties and a stopped
periodic timer must leave no cyclic garbage: with the collector off,
``gc.collect()`` afterwards finds nothing. A second test holds a whole served
steady phase (two shards, every defense on, an open-loop query stream) to the
same rule, and a third a node's group move: the p2p agent it drops is freed
by reference counting once its leave has flushed. DESIGN.md §5 states it.
"""

import functools
import gc
import types
import weakref
from contextlib import contextmanager

import pytest

from benchmarks.focusbench.workloads import WORKLOADS
from repro.harness import build_focus_cluster, drain
from tests.test_gossip_swim import build_group
from tests.test_rpc_failures import Peer, answer_later


@contextmanager
def collector_off():
    """The collector disabled, and what was garbage before the block gone."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        yield
    finally:
        if enabled:
            gc.enable()


def reply(sim, network, client, server, log):
    client.call("server", "echo", {"n": 1}, on_reply=log.append,
                on_timeout=lambda: log.append("timeout"), timeout=2.0)
    sim.run_until(sim.now + 5.0)
    assert log == [{"echo": {"n": 1}}]


def timeout(sim, network, client, server, log):
    network.block("client", "server")
    client.call("server", "echo", {"n": 1}, on_reply=log.append,
                on_timeout=lambda: log.append("timeout"), timeout=1.0)
    sim.run_until(sim.now + 5.0)
    assert log == ["timeout"]


def retry_then_reply(sim, network, client, server, log):
    network.block("client", "server")
    sim.schedule(1.5, network.heal_all)
    client.call("server", "echo", {"n": 1}, on_reply=log.append,
                on_timeout=lambda: log.append("timeout"),
                timeout=1.0, retries=3, retry_backoff=0.2)
    sim.run_until(sim.now + 15.0)
    assert log == [{"echo": {"n": 1}}]


def late_reply_during_backoff(sim, network, client, server, log):
    server.serve("slow", answer_later(sim, 1.5))
    client.call("server", "slow", {"n": 1}, on_reply=log.append,
                on_timeout=lambda: log.append("timeout"),
                timeout=1.0, retries=1, retry_backoff=1000.0)
    sim.run_until(sim.now + 2000.0)
    assert log == [{"late": {"n": 1}}]


def retries_exhausted(sim, network, client, server, log):
    network.block("client", "server")
    client.call("server", "echo", {"n": 1}, on_reply=log.append,
                on_timeout=lambda: log.append("timeout"),
                timeout=1.0, retries=2, retry_backoff=0.1)
    sim.run_until(sim.now + 20.0)
    assert log == ["timeout"]


def caller_crash_during_backoff(sim, network, client, server, log):
    network.block("client", "server")
    client.call("server", "echo", {"n": 1}, on_reply=log.append,
                on_timeout=lambda: log.append("timeout"),
                timeout=1.0, retries=5, retry_backoff=0.5)
    sim.schedule(1.1, client.stop)
    sim.run_until(sim.now + 20.0)
    assert log == [] and not client._rpc_pending


def cancel_call(sim, network, client, server, log):
    server.serve("slow", answer_later(sim, 1.0))
    call_id = client.call("server", "slow", {"n": 1}, on_reply=log.append,
                          on_timeout=lambda: log.append("timeout"), timeout=2.0)
    sim.run_until(sim.now + 0.5)
    client.cancel_call(call_id)
    sim.run_until(sim.now + 5.0)
    assert log == []


def reset_rpc(sim, network, client, server, log):
    server.serve("slow", answer_later(sim, 0.5))
    # One call waiting on its deadline, one backing off after a timeout.
    client.call("server", "slow", {}, on_reply=log.append,
                on_timeout=lambda: log.append("timeout"), timeout=1.0)
    client.call("ghost", "echo", {}, on_reply=log.append,
                on_timeout=lambda: log.append("timeout"),
                timeout=0.1, retries=1, retry_backoff=1000.0)
    sim.run_until(sim.now + 0.2)
    client.reset_rpc()
    sim.run_until(sim.now + 2000.0)
    assert log == []


def deadline_fifo_empties(sim, network, client, server, log):
    # A delay nothing else uses: its FIFO is made, drained and retired, once
    # with a live head and once with a cancelled one.
    sim.deadline(0.37, log.append, "fired")
    sim.run_until(sim.now + 1.0)
    sim.deadline(0.37, log.append, "cancelled").cancel()
    sim.run_until(sim.now + 1.0)
    assert log == ["fired"] and not sim._deadline_fifos


def stopped_timer(sim, network, client, server, log):
    # Stopped between firings, a timer's event waits in the queue until its
    # time, holding nothing: what the callback held goes at the stop, even
    # behind an earlier timer of the same period.
    first = sim.call_every(30.0, lambda: None)
    tick = functools.partial(log.append, "tick")
    released = weakref.ref(tick)
    timer = sim.call_every(30.0, tick)
    sim.run_until(sim.now + 31.0)
    del tick
    timer.stop()
    del timer
    assert released() is None and log == ["tick"]
    first.stop()


def timer_owner(sim, log):
    """An owner keeping a timer whose callback closes over the owner, as a
    node's group membership keeps its report timer."""
    owner = types.SimpleNamespace(name="owner")
    owner.timer = sim.call_every(30.0, lambda: log.append(owner.name))
    return owner


def stopped_timer_kept_by_its_owner(sim, network, client, server, log):
    owner = timer_owner(sim, log)
    sim.run_until(sim.now + 31.0)
    owner.timer.stop()
    del owner
    assert log == ["owner"]


OUTCOMES = [reply, timeout, retry_then_reply, late_reply_during_backoff,
            retries_exhausted, caller_crash_during_backoff, cancel_call,
            reset_rpc, deadline_fifo_empties, stopped_timer,
            stopped_timer_kept_by_its_owner]


@pytest.mark.parametrize("outcome", OUTCOMES, ids=lambda f: f.__name__)
def test_an_rpc_outcome_leaves_no_cyclic_garbage(sim, network, regions, outcome):
    client = Peer(sim, network, "client", regions[0])
    server = Peer(sim, network, "server", regions[1])
    client.start()
    server.start()
    log = []
    with collector_off():
        outcome(sim, network, client, server, log)
        assert gc.collect() == 0


@pytest.mark.parametrize("seed", [42, 7])
def test_a_served_steady_phase_leaves_no_cyclic_garbage(seed):
    workload = WORKLOADS["serve_ramp"]
    sizes = workload.sizes["smoke"]
    scenario = workload.build(seed, sizes)
    workload.warm_up(scenario, seed, sizes)
    plan = workload.generate(scenario, seed, sizes)
    assert len(scenario.plane.shards) == 2
    with collector_off():
        scenario.sim.run_until(plan.end_time)
        assert gc.collect() == 0
    assert plan.board.spans


def test_a_group_move_leaves_no_collectable_serf_agent():
    scenario = build_focus_cluster(12, seed=94, with_store=False)
    drain(scenario, 12.0)
    agent = scenario.agents[0]
    membership = agent.memberships["ram_mb"]
    dropped = weakref.ref(membership.serf)
    moved_to = membership.high + 2000 if membership.high + 2000 < 16384 \
        else membership.low - 2000
    del membership
    with collector_off():
        agent.set_attribute("ram_mb", moved_to)
        drain(scenario, 10.0)  # the move, then the dropped agent's leave
        assert agent.memberships["ram_mb"].serf is not dropped()
        assert dropped() is None
        assert gc.collect() == 0


def test_a_released_agent_with_a_probe_pending_is_freed(sim, network, regions):
    agents = build_group(sim, network, 2, regions)
    sim.run_until(3.0)
    network.block(agents[0].address, agents[1].address)  # no acks come back
    while not agents[0]._pending_probes:
        sim.run_until(sim.now + 0.05)
    released = weakref.ref(agents[0])
    with collector_off():
        agents.pop(0).release()
        sim.run_until(sim.now + 5.0)  # the armed probe fires, dropped
        assert released() is None
        assert gc.collect() == 0
