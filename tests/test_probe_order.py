"""SWIM's probe walk: one target drawn per tick.

``SwimAgent._next_probe_target`` is an incremental Fisher-Yates shuffle: each
probe tick swaps one name, drawn from the pass's not-yet-probed suffix, into
place. Its oracle is the walk it replaced, which shuffled the whole alive
list when a pass wrapped (``tests/oracles/probe_order.py``, substituted with
``kernel(probes="shuffle")``). What must hold:

* the seeded kernel run digests to the committed checksum, and every
  implementation arm (the in-flight heap vs the one-event-per-message oracle
  in ``tests/oracles/direct_post.py``, GC freeze on/off) reproduces it;
* under the shared gossip round memberlist's per-peer one replaced
  (``tests/oracles/gossip_round.py``, ``kernel(gossip="shared")``) the run
  digests to the checksum pinned before that change; with the log2
  retransmit limit (``tests/oracles/retransmit.py``,
  ``kernel(retransmit="log2")``) as well, to the one before that; and with
  the old walk too, to the one before that;
* each draw takes exactly the bits ``random.Random._randbelow`` takes;
* a member alive for a whole pass is probed exactly once in it, and no
  member is probed twice in a pass, whatever deaths, leaves, reclaims and
  joins land between the ticks;
* the old and new walks are different byte streams that agree
  statistically: same failure detections, event and message totals within
  a few percent, detection latency within 25%;
* a deferred RPC reply reaches its caller, and a delivered ``Message`` is
  the receiver's to keep.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.bench_kernel import determinism_checksum
from repro.gossip.member import Member, MemberState
from repro.gossip.membership import seed_converged
from repro.gossip.swim import SwimAgent, SwimConfig
from repro.sim import Network, Simulator, Topology
from repro.sim.network import MESSAGE_OVERHEAD_BYTES
from repro.sim.process import Process
from repro.sim.rpc import DEFERRED, RpcMixin
from tests.arms import kernel
from tests.oracles.direct_post import DirectPostNetwork
from tests.oracles.gossip_round import SHARED_DETERMINISM_CHECKSUM
from tests.oracles.probe_order import SHUFFLE_DETERMINISM_CHECKSUM
from tests.oracles.retransmit import LOG2_DETERMINISM_CHECKSUM

#: The committed kernel determinism checksum (BENCH_kernel.json).
DETERMINISM_CHECKSUM = (
    "c0f7cd5bba3e7cbfa47481347452c09f472dda829959715e04a5d42c144090bf"
)


def swim_run(
    *,
    seed: int = 99,
    num_nodes: int = 6,
    duration: float = 15.0,
    direct_post_only: bool = False,
    freeze: bool = False,
    crash_at=None,
):
    """One seeded SWIM run; returns the canonical byte-level summary.

    Mirrors ``benchmarks/bench_kernel.py::determinism_checksum`` so the
    pinned-checksum test below really pins the benchmark's contract.
    ``crash_at=(t, index)`` stops one agent mid-run to exercise failure
    detection; the returned summary then also carries each surviving
    agent's view of the victim.
    """
    sim = Simulator(seed=seed)
    topology = Topology()
    network = (DirectPostNetwork if direct_post_only else Network)(sim, topology)
    regions = [r.name for r in topology.regions]
    agents = []
    for i in range(num_nodes):
        agent = SwimAgent(
            sim, network, f"n{i}", f"a{i}", regions[i % len(regions)],
            SwimConfig(sync_interval=5.0),
        )
        agent.start()
        agents.append(agent)
    for agent in agents[1:]:
        agent.join(["a0"])
    victim = None
    if crash_at is not None:
        at, index = crash_at
        victim = agents[index]
        sim.schedule_at(at, victim.stop)
    if freeze:
        sim.run_until(1.0)  # short warmup, then pin the built population
        sim.freeze_hot_state()
    sim.run_until(duration)
    if freeze:
        sim.unfreeze_hot_state()
    summary = {
        "events": sim.events_processed,
        "counters": {
            name: network.metrics.counter(name).value
            for name in network.metrics.names()["counters"]
        },
        "meters": {
            f"a{i}": network.meter(f"a{i}").total_bytes
            for i in range(num_nodes)
        },
    }
    if victim is not None:
        summary["victim_views"] = sorted(
            (a.name, a.members.get(victim.name).state.value)
            for a in agents
            if a is not victim and a.members.get(victim.name) is not None
        )
    return json.dumps(summary, sort_keys=True)


class TestByteExactness:
    def test_checksum_is_the_committed_constant(self):
        """The benchmark's seeded 6-node run digests to the pinned value."""
        summary = swim_run()
        # determinism_checksum() digests the identical summary structure;
        # assert against it directly so a drift in either copy is caught.
        assert determinism_checksum() == DETERMINISM_CHECKSUM
        assert hashlib.sha256(summary.encode()).hexdigest() == (
            DETERMINISM_CHECKSUM
        )

    def test_checksum_stable_across_runs(self):
        assert swim_run() == swim_run()

    def test_unaffected_by_freeze(self):
        assert swim_run(freeze=True) == swim_run()

    def test_arms_byte_identical(self):
        """The in-flight heap and GC freeze are implementation details of
        the one stream."""
        reference = swim_run()
        for arm in (dict(direct_post_only=True), dict(freeze=True)):
            assert swim_run(**arm) == reference, arm

    def test_detects_crash_deterministically(self):
        a = swim_run(crash_at=(5.0, 3), duration=20.0)
        assert a == swim_run(crash_at=(5.0, 3), duration=20.0)
        assert "victim_views" in json.loads(a)

    def test_shuffle_oracle_is_the_walk_it_replaced(self):
        """Under the oracle (and the retransmit limit and gossip round of
        its day) the kernel run digests to the checksum pinned before the
        walk changed, so the comparisons below are against the old walk
        itself."""
        with kernel(probes="shuffle", retransmit="log2", gossip="shared"):
            assert determinism_checksum() == SHUFFLE_DETERMINISM_CHECKSUM

    def test_log2_oracle_is_the_limit_it_replaced(self):
        """Under the log2 retransmit limit (and the gossip round of its day)
        the kernel run digests to the checksum pinned before the limit
        changed: the limit is the only cause of that re-pin."""
        with kernel(retransmit="log2", gossip="shared"):
            assert determinism_checksum() == LOG2_DETERMINISM_CHECKSUM
        assert LOG2_DETERMINISM_CHECKSUM != SHARED_DETERMINISM_CHECKSUM

    def test_shared_round_oracle_is_the_round_it_replaced(self):
        """Under the shared gossip round the kernel run digests to the
        checksum pinned before memberlist's per-peer round: the round is
        the only cause of the re-pin."""
        with kernel(gossip="shared"):
            assert determinism_checksum() == SHARED_DETERMINISM_CHECKSUM
        assert SHARED_DETERMINISM_CHECKSUM != DETERMINISM_CHECKSUM


# ---------------------------------------------------------------- the draw
def agent_with_peers(count: int) -> SwimAgent:
    """A stopped agent whose table holds ``count`` alive peers."""
    sim = Simulator(seed=5)
    network = Network(sim, Topology())
    region = network.topology.regions[0].name
    agent = SwimAgent(sim, network, "self", "a-self", region)
    seed_converged(
        [agent.members],
        [(f"p{i}", f"a{i}", region) for i in range(count)],
        0.0,
    )
    return agent


@pytest.mark.parametrize("count", [1, 2, 64, 65, 6399])
def test_each_draw_takes_randbelows_bits(count):
    """Draw ``i`` of a pass over ``count`` peers is ``i +
    _randbelow(count - i)``: the first draw's bound is ``count`` and the
    pass walks every bound below it, each leaving the generator in the
    state ``random.Random`` leaves it in."""
    agent = agent_with_peers(count)
    reference = random.Random()
    reference.setstate(agent._rng.getstate())
    order = agent.members.alive_names(exclude_self=True)
    for i in range(count):
        j = i + reference._randbelow(count - i)
        order[i], order[j] = order[j], order[i]
        assert agent._next_probe_target() == order[i]
        assert agent._rng.getstate() == reference.getstate()


#: The peers the property test moves around; the first half start alive.
PEERS = [f"p{i}" for i in range(10)]
STATE_OF = {
    "die": MemberState.DEAD,
    "leave": MemberState.LEFT,
    "join": MemberState.ALIVE,
}

operations = st.lists(
    st.one_of(
        st.just(("tick", None)),
        st.tuples(
            st.sampled_from(["die", "leave", "join", "reclaim"]),
            st.sampled_from(PEERS),
        ),
    ),
    max_size=150,
)


@settings(max_examples=150)
@given(operations)
def test_each_pass_probes_its_members_once(ops):
    agent = agent_with_peers(0)
    members = agent.members
    region = agent.region
    incarnation = dict.fromkeys(PEERS, 0)

    def alive(name):
        peeked = members.peek(name)
        return peeked is not None and peeked[1] == MemberState.ALIVE.value

    def write(name, state):
        incarnation[name] += 1
        members.upsert(Member(
            name, f"a-{name}", region,
            incarnation=incarnation[name], state=state,
        ))

    for name in PEERS[:5]:
        write(name, MemberState.ALIVE)

    # One pass: its order list (a pass owns the list it materialized), the
    # members it started with, who it probed, and who stopped being alive
    # while it ran.
    passes = []
    for op, name in ops:
        if op == "tick":
            target = agent._next_probe_target()
            if not passes or agent._probe_order is not passes[-1]["order"]:
                order = agent._probe_order
                passes.append(dict(
                    order=order, start=set(order), probed=[], stopped=set(),
                ))
            current = passes[-1]
            if target is None:
                assert not current["start"] and members.alive_count == 1
                continue
            assert target in current["start"] and alive(target)
            current["probed"].append(target)
            continue
        was_alive = alive(name)
        if op == "reclaim":
            if members.peek(name) is not None and not was_alive:
                members.remove(name)
        else:
            write(name, STATE_OF[op])
        if passes and was_alive and not alive(name):
            passes[-1]["stopped"].add(name)

    for index, record in enumerate(passes):
        probed = record["probed"]
        assert len(probed) == len(set(probed)), probed
        if index < len(passes) - 1:  # the pass ran to its end
            assert set(probed) >= record["start"] - record["stopped"]


# ------------------------------------------------------- old walk vs new
class TestStatisticalEquivalence:
    """The full-shuffle walk and the incremental draw are different byte
    streams over the same protocol: they must agree on everything a
    protocol-level observer can measure."""

    def test_walks_are_different_streams(self):
        """A new walk that reproduced the old stream would mean the draw
        never changed — or the oracle is not in effect."""
        with kernel(probes="shuffle"):
            old = swim_run()
        assert old != swim_run()

    def test_same_convergence_and_close_totals(self):
        with kernel(probes="shuffle"):
            old = json.loads(swim_run(crash_at=(5.0, 3), duration=20.0))
        new = json.loads(swim_run(crash_at=(5.0, 3), duration=20.0))
        # Identical failure-detection outcome: every survivor has marked the
        # victim dead under both walks by the end of the window.
        assert old["victim_views"] == new["victim_views"]
        assert {state for _, state in old["victim_views"]} == {"dead"}
        # Event and message totals within a few percent: the walks run the
        # same protocol at the same rates, just different random orders.
        for key in ("events",):
            rel = abs(old[key] - new[key]) / max(old[key], 1)
            assert rel < 0.05, (key, old[key], new[key])
        sent_old = old["counters"]["messages_sent"]
        sent_new = new["counters"]["messages_sent"]
        assert abs(sent_old - sent_new) / max(sent_old, 1) < 0.05

    def test_detection_latency_distributions_close(self):
        """Mean failure-detection latency across seeds within 25% between
        the walks (same protocol timers, so the distributions must match)."""

        def detection_latency(seed: int) -> float:
            sim = Simulator(seed=seed)
            topology = Topology()
            network = Network(sim, topology)
            regions = [r.name for r in topology.regions]
            agents = []
            for i in range(8):
                agent = SwimAgent(
                    sim, network, f"n{i}", f"a{i}",
                    regions[i % len(regions)], SwimConfig(sync_interval=5.0),
                )
                agent.start()
                agents.append(agent)
            for agent in agents[1:]:
                agent.join(["a0"])
            crash_time = 6.0
            detected = []
            for agent in agents[:-1]:
                agent.on_member_dead.append(
                    lambda m, t=sim: detected.append(t.now)
                    if m.name == "n7" else None
                )
            sim.schedule_at(crash_time, agents[7].stop)
            sim.run_until(40.0)
            assert detected, f"seed {seed}: crash never detected"
            return min(detected) - crash_time

        seeds = [1, 2, 3, 4]
        with kernel(probes="shuffle"):
            mean_old = sum(detection_latency(s) for s in seeds) / len(seeds)
        mean_new = sum(detection_latency(s) for s in seeds) / len(seeds)
        assert mean_old > 0 and mean_new > 0
        assert abs(mean_old - mean_new) / mean_old < 0.25, (mean_old, mean_new)


# ------------------------------------------------------------ delivery
class _RpcHost(Process, RpcMixin):
    def __init__(self, sim, network, address, region) -> None:
        Process.__init__(self, sim, network, address, region)
        self.init_rpc()


class TestDeferredRpc:
    def test_deferred_respond_reaches_the_original_caller(self):
        """A DEFERRED handler's ``respond`` must reach the original caller,
        however much other traffic the server handled in between (regression:
        FOCUS group queries timed out because a late ``respond`` replied to
        whichever endpoint had been delivered to last).
        """
        sim = Simulator(seed=3)
        network = Network(sim, Topology())
        region = network.topology.regions[0].name
        server = _RpcHost(sim, network, "srv", region)
        client = _RpcHost(sim, network, "cli", region)
        bystander = _RpcHost(sim, network, "other", region)
        for host in (server, client, bystander):
            host.start()
            host.on("noise", lambda message: None)

        def handler(params, respond, message):
            sim.schedule(1.0, respond, {"echo": params["x"]})
            return DEFERRED

        server.serve("test.echo", handler)
        replies = []
        timeouts = []

        def issue() -> None:
            # Flood first so the request waits in a crowded in-flight heap.
            for i in range(12):
                bystander.send("srv", "noise", {"i": i})
            client.call(
                "srv", "test.echo", {"x": 42},
                on_reply=replies.append,
                on_timeout=lambda: timeouts.append(True),
                timeout=5.0,
            )

        sim.schedule(0.1, issue)
        # Deliveries between the request and the deferred respond, so the
        # server's last delivery came from an endpoint that is NOT the caller.
        for i in range(10):
            sim.schedule(0.5 + 0.05 * i, bystander.send, "srv", "noise", {"i": i})
        sim.run_until(10.0)
        assert replies == [{"echo": 42}]
        assert not timeouts


@pytest.mark.parametrize("freeze", [False, True], ids=["unfrozen", "frozen"])
def test_delivered_message_objects_may_be_retained(freeze):
    """A handler or delivery tap may keep the ``Message`` it was handed.

    The flood is delivered in flushes of the in-flight heap; each delivery
    must be its own object, still carrying what was sent once the run is
    over — with the live population frozen out of the collector too.
    """
    sim = Simulator(seed=11)
    network = Network(sim, Topology())
    region = network.topology.regions[0].name
    sink = Process(sim, network, "sink", region)
    source = Process(sim, network, "source", region)
    sink.start()
    source.start()
    handled, tapped = [], []
    sink.on("flood", handled.append)
    network.add_delivery_tap(tapped.append)
    count = 64
    sent = []

    def flood() -> None:
        for i in range(count):
            payload = {"i": i, "pad": "x" * i}
            network.send("source", "sink", "flood", payload, size=100 + i)
            wire_size = 100 + i + MESSAGE_OVERHEAD_BYTES
            sent.append(("flood", "source", "sink", wire_size, sim.now, payload))

    sim.schedule(0.25, flood)
    if freeze:
        sim.freeze_hot_state()
    try:
        sim.run_until(5.0)
    finally:
        sim.unfreeze_hot_state()

    def fields(messages):
        return sorted(
            ((m.kind, m.src, m.dst, m.size, m.sent_at, m.payload)
             for m in messages),
            key=lambda f: f[3],
        )

    for kept in (handled, tapped):
        assert len({id(m) for m in kept}) == count
        assert fields(kept) == sent
