"""Delivery equivalence, fault flags, conservation and in-flight faults.

The network parks every in-flight message in one shared heap behind a single
coalesced sentinel event, and decides whether any fault exists once per
fault-state change (two flags the setters keep) instead of once per message.
Both must be *invisible* — same event order, same RNG draws, same bytes on
the wire as posting one event per message and testing the fault containers
every time, which is what the oracle arm here does
(``tests/oracles/direct_post.py``, a ``Network`` subclass built in place of
the shipped one). These tests pin the equivalence (a seeded full-protocol
run, a Hypothesis sweep over random topologies and fault plans, and a
Hypothesis sweep over raw fault-setter calls interleaved with sends),
guard that the two arms really take different paths, hold the flags in
step with the containers, and check message conservation at every sim
second of a chaos run. The drop-accounting fixes that rode along earlier
stay pinned too: in-flight partition/block re-checks, dead-destination
partition attribution, and jitter/loss validation with a latency clamp.
"""

from __future__ import annotations

import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.network
from repro.errors import NetworkError
from repro.faults import (
    ChaosEngine,
    CrashNode,
    DegradeLink,
    FaultPlan,
    PartitionRegions,
)
from repro.gossip.swim import SwimAgent, SwimConfig
from repro.sim import Network, Region, Simulator, Topology
from repro.sim.process import Process
from tests.oracles.direct_post import DirectPostNetwork


def make_network(sim, topology, *, batched, **kwargs):
    """The shipped network, or (``batched=False``) its direct-post oracle."""
    cls = Network if batched else DirectPostNetwork
    return cls(sim, topology, **kwargs)


class Chatter(Process):
    """Pings a fixed peer periodically; answers every ping with a pong."""

    def __init__(self, sim, network, address, region, peer, interval):
        super().__init__(sim, network, address, region)
        self.peer = peer
        self.interval = interval
        self.got = []
        self.on("ping", self._on_ping)
        self.on("pong", self.got.append)

    def on_start(self):
        self.every(self.interval, self._ping)

    def _ping(self):
        self.send(self.peer, "ping", {"from": self.address})

    def _on_ping(self, message):
        self.send(message.src, "pong", {"from": self.address})


def network_summary(sim, network, trace):
    """Everything a direct-post/batched pair must agree on, bit for bit."""
    meters = {
        address: (
            meter.bytes_sent,
            meter.bytes_received,
            meter.messages_sent,
            meter.messages_received,
            meter._oldest,  # the observed span an aggregate meter keeps
            meter._newest,
        )
        for address, meter in sorted(network._meters.items())
    }
    counters = {
        name: network.metrics.counter(name).value
        for name in network.metrics.names()["counters"]
    }
    return {
        "events": sim.events_processed,
        "now": sim.now,
        "counters": counters,
        "meters": meters,
        "trace": trace,
    }


def chatter_run(
    *,
    batched,
    seed,
    topology=None,
    num_nodes=6,
    duration=2.0,
    loss_rate=0.0,
    jitter_fraction=0.1,
    plan=None,
    record_bandwidth_events=True,
):
    sim = Simulator(seed=seed)
    topo = topology if topology is not None else Topology()
    network = make_network(
        sim,
        topo,
        batched=batched,
        loss_rate=loss_rate,
        jitter_fraction=jitter_fraction,
        record_bandwidth_events=record_bandwidth_events,
    )
    regions = [r.name for r in topo.regions]
    trace = []
    network.add_delivery_tap(
        lambda m: trace.append((sim.now, m.kind, m.src, m.dst, m.size))
    )
    nodes = []
    for i in range(num_nodes):
        peer = f"c{(i + 1) % num_nodes}"
        node = Chatter(
            sim, network, f"c{i}", regions[i % len(regions)], peer, 0.05
        )
        node.start()
        nodes.append(node)
    if plan is not None:
        engine = ChaosEngine(
            sim, network, targets={n.address: n for n in nodes}
        )
        engine.execute(plan)
    sim.run_until(duration)
    return network_summary(sim, network, trace)


def swim_run(*, batched, seed=7, num_nodes=10, duration=8.0, loss_rate=0.05,
             record_bandwidth_events=True):
    """Full SWIM protocol (probes, suspicion, piggyback gossip, sync)."""
    sim = Simulator(seed=seed)
    topology = Topology()
    network = make_network(
        sim, topology, batched=batched, loss_rate=loss_rate,
        record_bandwidth_events=record_bandwidth_events,
    )
    regions = [r.name for r in topology.regions]
    trace = []
    network.add_delivery_tap(
        lambda m: trace.append((sim.now, m.kind, m.src, m.dst, m.size))
    )
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
    sim.run_until(duration)
    summary = network_summary(sim, network, trace)
    summary["alive"] = sorted(
        (a.name, len(a.members.alive())) for a in agents
    )
    return summary


class TestBatchedEquivalence:
    def test_swim_full_protocol_identical(self):
        """Seeded A/B: the batched path replays the reference run exactly —
        event counts, drop counters, per-endpoint bytes, and the full
        delivery trace (time, kind, src, dst, size per message)."""
        reference = swim_run(batched=False)
        batched = swim_run(batched=True)
        assert batched == reference

    def test_swim_full_protocol_identical_with_aggregate_meters(self):
        """The same A/B with aggregate meters, which the shipped path charges
        in place and the oracle through ``on_send_many``/``on_receive``."""
        reference = swim_run(batched=False, record_bandwidth_events=False)
        batched = swim_run(batched=True, record_bandwidth_events=False)
        assert batched == reference

    def test_arms_exercise_different_paths(self):
        """Guard the substitution: the oracle arm parks nothing in the
        in-flight heap and the shipped arm parks every message — otherwise
        the A/Bs here compare a path with itself."""
        for batched in (False, True):
            sim = Simulator(seed=7)
            network = make_network(sim, Topology(), batched=batched)
            regions = [r.name for r in network.topology.regions]
            parked = []

            def counting_push(heap, entry, parked=parked):
                parked.append(entry[1])
                heapq.heappush(heap, entry)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(repro.sim.network, "heappush", counting_push)
                for i in range(12):
                    Chatter(sim, network, f"c{i}", regions[i % len(regions)],
                            f"c{(i + 1) % 12}", 0.01).start()
                sim.run_until(0.5)
            sent = network.metrics.counter("messages_sent").value
            assert sent > 100
            assert network.metrics.counter("messages_delivered").value > 100
            assert len(parked) == (sent if batched else 0)

    def test_lossless_low_jitter_identical(self):
        reference = chatter_run(batched=False, seed=3, jitter_fraction=0.0)
        batched = chatter_run(batched=True, seed=3, jitter_fraction=0.0)
        assert batched == reference

    def test_equivalence_straddles_run_until_boundaries(self):
        """Deliveries parked past a run_until bound must stay parked, then
        flush on the next call — chopping the run into slices cannot change
        anything."""

        def sliced(batched):
            sim = Simulator(seed=5)
            network = make_network(sim, Topology(), batched=batched)
            regions = [r.name for r in network.topology.regions]
            trace = []
            network.add_delivery_tap(
                lambda m: trace.append((sim.now, m.src, m.dst))
            )
            nodes = [
                Chatter(sim, network, f"c{i}", regions[i % len(regions)],
                        f"c{(i + 1) % 4}", 0.05)
                for i in range(4)
            ]
            for node in nodes:
                node.start()
            for stop in (0.013, 0.0371, 0.5, 0.5, 1.25):
                sim.run_until(stop)
            return network_summary(sim, network, trace)

        assert sliced(True) == sliced(False)

    def test_retarget_on_earlier_arrival(self, sim):
        """A later send that beats the class head (degraded slow link vs a
        fast one, same region pair) must re-aim the sentinel, not deliver
        out of order."""
        network = Network(sim, Topology(), jitter_fraction=0.0)
        region = network.topology.regions[0].name
        order = []

        class Sink(Process):
            def __init__(self, *args):
                super().__init__(*args)
                self.on("m", lambda msg: order.append(self.address))

        a, b, c = (Sink(sim, network, n, region) for n in ("a", "b", "c"))
        for node in (a, b, c):
            node.start()
        network.degrade_link("a", "b", latency_multiplier=10.0)
        a.send("b", "m", {})  # slow: scheduled first
        a.send("c", "m", {})  # fast: same class, earlier delivery
        sim.run_until(1.0)
        assert order == ["c", "b"]
        assert network.metrics.counter("messages_delivered").value == 2

    def test_sentinel_descheduled_when_quiescent(self, sim):
        """Once every in-flight message has delivered, the batch heap is
        empty and no sentinel lingers in the event queue."""
        network = Network(sim, Topology(), jitter_fraction=0.0)
        region = network.topology.regions[0].name
        a = Chatter(sim, network, "a", region, "b", 1000.0)
        b = Chatter(sim, network, "b", region, "a", 1000.0)
        a.start()
        b.start()
        a.send("b", "ping", {})
        batch = network._in_flight
        assert network.in_flight == 1
        assert batch.target_time == batch.heap[0][0]
        sim.run_until(1.0)
        assert network.in_flight == 0
        assert batch.target_time == math.inf
        assert network.metrics.counter("messages_delivered").value == 2


region_names = ("r-a", "r-b", "r-c", "r-d")


def topologies():
    """Random small topologies: 1–4 regions at random coordinates."""

    def build(count, coords, intra):
        regions = [
            Region(region_names[i], coords[i][0], coords[i][1])
            for i in range(count)
        ]
        return Topology(regions, intra_region_latency=intra)

    return st.builds(
        build,
        st.integers(min_value=1, max_value=4),
        st.lists(
            st.tuples(
                st.floats(min_value=-60.0, max_value=60.0),
                st.floats(min_value=-179.0, max_value=179.0),
            ),
            min_size=4,
            max_size=4,
        ),
        st.floats(min_value=0.0001, max_value=0.01),
    )


def fault_plans(num_nodes):
    """Random fault plans over the chatter cluster's regions/addresses."""
    addresses = [f"c{i}" for i in range(num_nodes)]
    at = st.floats(min_value=0.0, max_value=1.5)
    partition = st.builds(
        lambda t, a, b, heal: PartitionRegions(
            at=t, side_a=(region_names[a],), side_b=(region_names[b],),
            heal_after=heal,
        ),
        at,
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.one_of(st.none(), st.floats(min_value=0.1, max_value=1.0)),
    )
    degrade = st.builds(
        lambda t, i, j, mult, loss, clear: DegradeLink(
            at=t, src=addresses[i], dst=addresses[j % num_nodes],
            latency_multiplier=mult, loss_rate=loss, clear_after=clear,
        ),
        at,
        st.integers(min_value=0, max_value=num_nodes - 1),
        st.integers(min_value=0, max_value=num_nodes - 1),
        st.floats(min_value=0.2, max_value=20.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.one_of(st.none(), st.floats(min_value=0.1, max_value=1.0)),
    )
    crash = st.builds(
        lambda t, i, restart: CrashNode(
            at=t, target=addresses[i], restart_after=restart
        ),
        at,
        st.integers(min_value=0, max_value=num_nodes - 1),
        st.one_of(st.none(), st.floats(min_value=0.1, max_value=1.0)),
    )
    return st.lists(
        st.one_of(partition, degrade, crash), min_size=0, max_size=5
    ).map(lambda events: FaultPlan().extend(events))


class TestBatchedEquivalenceProperty:
    @given(
        topology=topologies(),
        seed=st.integers(min_value=0, max_value=2**20),
        loss_rate=st.floats(min_value=0.0, max_value=0.3),
        jitter_fraction=st.floats(min_value=0.0, max_value=0.5),
        plan=fault_plans(num_nodes=5),
        record_bandwidth_events=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_batched_is_event_order_and_byte_identical(
        self, topology, seed, loss_rate, jitter_fraction, plan,
        record_bandwidth_events,
    ):
        """Across random topologies, jitter/loss settings, fault plans
        (partitions with heals, degraded links, crash/restart) and both
        meter modes, the batched path produces the identical delivery trace,
        counters and meters as the direct-post oracle."""
        kwargs = dict(
            seed=seed,
            topology=topology,
            num_nodes=5,
            duration=2.0,
            loss_rate=loss_rate,
            jitter_fraction=jitter_fraction,
            plan=plan,
            record_bandwidth_events=record_bandwidth_events,
        )
        reference = chatter_run(batched=False, **kwargs)
        batched = chatter_run(batched=True, **kwargs)
        assert batched == reference


def fault_flags(network):
    return network._faults, network._in_flight_faults


def fault_truth(network):
    """What the two flags must say, read off the fault containers."""
    in_flight = bool(
        network._blocked or network._blocked_directed or network._blocked_regions
    )
    return in_flight or bool(network._degraded) or network.loss_rate > 0, in_flight


#: fault -> (inject, clear, re-checked in flight?); ``r`` is the region list.
FAULTS = {
    "block": (
        lambda n, r: n.block("a", "b"),
        lambda n, r: n.unblock("b", "a"),
        True,
    ),
    "block_directed": (
        lambda n, r: n.block_directed("a", "b"),
        lambda n, r: n.unblock_directed("a", "b"),
        True,
    ),
    "partition": (
        lambda n, r: n.partition_regions(r[0], r[1]),
        lambda n, r: n.heal_regions(r[1], r[0]),
        True,
    ),
    "degrade": (
        lambda n, r: n.degrade_link("a", "b", latency_multiplier=2.0),
        lambda n, r: n.clear_link_degradation("b", "a"),
        False,
    ),
    "loss": (
        lambda n, r: setattr(n, "loss_rate", 0.25),
        lambda n, r: setattr(n, "loss_rate", 0.0),
        False,
    ),
}


class TestFaultFlags:
    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_setter_and_its_inverse_keep_the_flags_in_step(self, sim, name):
        network = Network(sim, Topology())
        regions = [r.name for r in network.topology.regions]
        inject, clear, in_flight = FAULTS[name]
        assert fault_flags(network) == fault_truth(network) == (False, False)
        for _ in range(2):  # injecting twice is still one fault
            inject(network, regions)
            assert fault_flags(network) == fault_truth(network) == (True, in_flight)
        clear(network, regions)
        assert fault_flags(network) == fault_truth(network) == (False, False)

    def test_overlapping_faults_clear_one_at_a_time(self, sim):
        network = Network(sim, Topology())
        regions = [r.name for r in network.topology.regions]
        for inject, _, _ in FAULTS.values():
            inject(network, regions)
        for name in sorted(FAULTS):
            FAULTS[name][1](network, regions)
            assert fault_flags(network) == fault_truth(network)
        assert fault_flags(network) == (False, False)

    def test_heal_all_keeps_the_loss_rate(self, sim):
        network = Network(sim, Topology(), loss_rate=0.1)
        regions = [r.name for r in network.topology.regions]
        for name in ("block", "block_directed", "partition", "degrade"):
            FAULTS[name][0](network, regions)
        network.heal_all()
        assert fault_flags(network) == fault_truth(network) == (True, False)
        network.loss_rate = 0.0
        assert fault_flags(network) == (False, False)

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 2.0, math.nan])
    def test_assigned_loss_rate_is_validated(self, sim, bad):
        network = Network(sim, Topology())
        with pytest.raises(NetworkError):
            network.loss_rate = bad
        assert network.loss_rate == 0.0
        assert fault_flags(network) == (False, False)


def setter_programs(num_nodes):
    """Raw fault-setter calls interleaved with sends, fan-outs, crashes and
    clock advances; node index ``num_nodes`` is a never-registered address."""
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    dst = st.integers(min_value=0, max_value=num_nodes)
    # Faults name few pairs, so a clearing call often names a fault in force.
    link = st.sampled_from(((0, 1), (1, 0), (1, 2), (2, 0)))
    regions = st.sampled_from(((0, 1), (1, 2), (2, 0)))
    return st.lists(
        st.one_of(
            st.tuples(st.sampled_from(
                ("block", "unblock", "block_directed", "unblock_directed")
            ), link),
            st.tuples(st.sampled_from(("partition", "heal")), regions),
            st.tuples(
                st.just("degrade"), link,
                st.sampled_from((0.5, 1.0, 4.0)), st.sampled_from((0.0, 0.5, 1.0)),
            ),
            st.tuples(st.just("clear_degrade"), link),
            st.tuples(st.just("heal_all")),
            st.tuples(st.just("loss"), st.sampled_from((0.0, 0.2, 1.0))),
            st.tuples(st.just("send"), node, dst),
            st.tuples(st.just("fanout"), node, st.lists(dst, max_size=4)),
            st.tuples(st.just("toggle"), node),
            st.tuples(st.just("run"), st.sampled_from((0.0, 0.0005, 0.01, 0.05))),
        ),
        min_size=20,
        max_size=80,
    )


def play_setters(batched, program, num_nodes):
    """Interpret a setter program on one arm; return everything observable.
    On the shipped arm the flags are checked against the containers after
    every step."""
    sim = Simulator(seed=3)
    network = make_network(sim, Topology(), batched=batched)
    regions = [r.name for r in network.topology.regions]
    addresses = [f"c{i}" for i in range(num_nodes)] + ["ghost"]
    trace = []
    network.add_delivery_tap(
        lambda m: trace.append((sim.now, m.kind, m.src, m.dst, m.size))
    )
    nodes = [
        Chatter(sim, network, addresses[i], regions[i % len(regions)],
                addresses[(i + 1) % num_nodes], 1000.0)
        for i in range(num_nodes)
    ]
    for node in nodes:
        node.start()
    for op in program:
        kind = op[0]
        if kind in ("block", "unblock", "block_directed", "unblock_directed",
                    "clear_degrade"):
            name = "clear_link_degradation" if kind == "clear_degrade" else kind
            getattr(network, name)(*(addresses[i] for i in op[1]))
        elif kind == "partition":
            network.partition_regions(*(regions[i] for i in op[1]))
        elif kind == "heal":
            network.heal_regions(*(regions[i] for i in op[1]))
        elif kind == "degrade":
            network.degrade_link(*(addresses[i] for i in op[1]),
                                 latency_multiplier=op[2], loss_rate=op[3])
        elif kind == "heal_all":
            network.heal_all()
        elif kind == "loss":
            network.loss_rate = op[1]
        elif kind == "send":
            nodes[op[1]].send(addresses[op[2]], "ping", {"n": len(trace)})
        elif kind == "fanout":
            if nodes[op[1]].running:
                network.send_fanout(
                    addresses[op[1]], [addresses[i] for i in op[2]], "ping", {}
                )
        elif kind == "toggle":
            if nodes[op[1]].running:
                nodes[op[1]].stop()
            else:
                nodes[op[1]].restart()
        else:
            sim.run_until(sim.now + op[1])
        if batched:
            assert fault_flags(network) == fault_truth(network), op
    sim.run_until(sim.now + 1.0)
    return network_summary(sim, network, trace)


class TestFaultSetterSequences:
    @given(program=setter_programs(num_nodes=5))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_direct_post_oracle(self, program):
        """Any interleaving of fault setters with sends and deliveries: the
        shipped network (flags kept by the setters) and the oracle (fault
        containers tested per message) agree bit for bit — drop counters per
        reason, meters, events and the delivery trace."""
        shipped = play_setters(True, program, 5)
        assert shipped == play_setters(False, program, 5)


class TestConservation:
    def test_sent_is_delivered_dropped_or_in_flight_every_second(self):
        """Every message sent is delivered, dropped or still in the
        in-flight heap, at every sim second of a chaos run — no drain."""
        plan = FaultPlan().extend([
            PartitionRegions(at=1.31, side_a=("us-east-2",),
                             side_b=("us-west-2", "us-west-1"), heal_after=2.0),
            CrashNode(at=2.1, target="c3", restart_after=1.5),
            DegradeLink(at=0.7, src="c0", dst="c3", latency_multiplier=40.0,
                        loss_rate=0.3, clear_after=4.0),
        ])
        sim = Simulator(seed=21)
        network = Network(sim, Topology(), loss_rate=0.02)
        regions = [r.name for r in network.topology.regions]
        nodes = {}
        for i in range(8):
            node = Chatter(sim, network, f"c{i}", regions[i % len(regions)],
                           f"c{(i + 3) % 8}", 0.05)
            node.start()
            nodes[node.address] = node
        ChaosEngine(sim, network, targets=nodes).execute(plan)
        checks = []

        def count(name):
            counter = network.metrics.get_counter(name)
            return 0 if counter is None else counter.value

        def check():
            sent = count("messages_sent")
            accounted = (count("messages_delivered")
                         + count("messages_dropped") + network.in_flight)
            checks.append((sim.now, sent, accounted, network.in_flight))

        sim.call_every(1.0, check)
        sim.run_until(8.0)
        assert len(checks) == 8
        for at, sent, accounted, _ in checks:
            assert sent == accounted, at
        assert any(in_flight for *_, in_flight in checks)
        for reason in ("partitioned", "partitioned_in_flight", "degraded",
                       "loss", "dead_endpoint"):
            assert count(f"messages_dropped.{reason}") > 0, reason


@pytest.fixture
def cross_region_pair(sim):
    network = Network(sim, Topology(), jitter_fraction=0.0)
    regions = [r.name for r in network.topology.regions]
    a = Chatter(sim, network, "a", regions[0], "b", 1000.0)
    b = Chatter(sim, network, "b", regions[1], "a", 1000.0)
    a.start()
    b.start()
    return network, a, b


class TestInFlightFaults:
    def test_partition_injected_mid_flight_drops(self, sim, cross_region_pair):
        """A partition raised after send but before delivery must stop the
        message (it used to sail through: _drop_reason only ran at send)."""
        network, a, b = cross_region_pair
        a.send("b", "ping", {"n": 1})
        network.partition_regions(a.region, b.region)  # message is in flight
        sim.run_until(2.0)
        assert b.got == [] and a.got == []
        assert network.metrics.counter(
            "messages_dropped.partitioned_in_flight"
        ).value == 1
        assert network.metrics.counter("messages_delivered").value == 0

    def test_block_injected_mid_flight_drops(self, sim, cross_region_pair):
        network, a, b = cross_region_pair
        a.send("b", "ping", {"n": 1})
        network.block("a", "b")
        sim.run_until(2.0)
        assert network.metrics.counter(
            "messages_dropped.blocked_in_flight"
        ).value == 1

    def test_directed_block_mid_flight_only_named_direction(
        self, sim, cross_region_pair
    ):
        network, a, b = cross_region_pair
        a.send("b", "ping", {"n": 1})
        network.block_directed("b", "a")  # reverse direction only
        sim.run_until(2.0)
        # a->b crossed; b's pong reply a<-b was blocked in flight? No: the
        # block was installed before the pong was *sent*, so it drops at
        # send time under the existing reason.
        assert network.metrics.counter("messages_delivered").value == 1
        assert network.metrics.counter(
            "messages_dropped.blocked_directed"
        ).value == 1

    def test_sender_death_does_not_hide_in_flight_partition(
        self, sim, cross_region_pair
    ):
        """The in-flight re-check resolves the sender's region through
        _last_region, so a message whose sender crashed mid-flight still
        counts as partitioned."""
        network, a, b = cross_region_pair
        a.send("b", "ping", {"n": 1})
        a.stop()
        network.partition_regions(a.region, b.region)
        sim.run_until(2.0)
        assert network.metrics.counter(
            "messages_dropped.partitioned_in_flight"
        ).value == 1

    def test_heal_before_delivery_lets_message_through(
        self, sim, cross_region_pair
    ):
        network, a, b = cross_region_pair
        a.send("b", "ping", {"n": 1})
        network.partition_regions(a.region, b.region)
        network.heal_regions(a.region, b.region)
        sim.run_until(2.0)
        assert network.metrics.counter("messages_delivered").value == 2

    def test_chaos_engine_partition_drops_in_flight(self):
        """Seeded end-to-end: a ChaosEngine partition landing while pings are
        in flight produces partitioned/partitioned_in_flight drops, never a
        misfiled dead_endpoint."""
        plan = FaultPlan().add(
            PartitionRegions(
                at=0.47,  # between ping ticks: replies are still in flight
                side_a=("us-east-2",),
                side_b=("ca-central-1", "us-west-2", "us-west-1"),
                heal_after=0.75,
            )
        )
        summary = chatter_run(batched=True, seed=17, plan=plan, duration=3.0)
        counters = summary["counters"]
        assert counters.get("messages_dropped.partitioned", 0) > 0
        assert counters.get("messages_dropped.partitioned_in_flight", 0) > 0
        assert "messages_dropped.dead_endpoint" not in counters
        # And the run is seeded: an identical plan replays byte-identically.
        replay = chatter_run(batched=True, seed=17, plan=plan, duration=3.0)
        assert replay == summary


class TestDeadDestinationPartitionAttribution:
    def test_partitioned_wins_over_dead_endpoint(self, sim, cross_region_pair):
        """Send toward a recently-dead endpoint across a partition: the drop
        is the partition's fault and must be attributed to it (it used to
        slip past the region check and count as dead_endpoint)."""
        network, a, b = cross_region_pair
        b.stop()
        network.partition_regions(a.region, b.region)
        a.send("b", "ping", {"n": 1})
        sim.run_until(2.0)
        counters = {
            name: network.metrics.counter(name).value
            for name in network.metrics.names()["counters"]
        }
        assert counters.get("messages_dropped.partitioned") == 1
        assert "messages_dropped.dead_endpoint" not in counters

    def test_dead_endpoint_still_counted_without_partition(
        self, sim, cross_region_pair
    ):
        network, a, b = cross_region_pair
        b.stop()
        a.send("b", "ping", {"n": 1})
        sim.run_until(2.0)
        assert network.metrics.counter(
            "messages_dropped.dead_endpoint"
        ).value == 1

    def test_never_registered_destination_still_unknown(
        self, sim, cross_region_pair
    ):
        network, a, _ = cross_region_pair
        a.send("ghost", "ping", {"n": 1})
        assert network.metrics.counter(
            "messages_dropped.unknown_destination"
        ).value == 1


class TestParameterValidationAndClamp:
    def test_negative_jitter_fraction_rejected(self, sim):
        with pytest.raises(NetworkError):
            Network(sim, Topology(), jitter_fraction=-0.1)

    @pytest.mark.parametrize("loss", [-0.01, 1.01, 2.0])
    def test_out_of_range_loss_rate_rejected(self, sim, loss):
        with pytest.raises(NetworkError):
            Network(sim, Topology(), loss_rate=loss)

    def test_boundary_values_accepted(self, sim):
        Network(sim, Topology(), loss_rate=0.0, jitter_fraction=0.0)
        Network(Simulator(seed=1), Topology(), loss_rate=1.0)

    @pytest.mark.parametrize("batched", [True, False])
    def test_negative_latency_clamped_to_now(self, batched):
        """A degenerate topology (negative configured latency) amplified by a
        degrade_link multiplier must clamp to zero-delay delivery, never
        schedule into the simulated past."""
        sim = Simulator(seed=2)
        topo = Topology(
            [Region("weird", 0.0, 0.0)], intra_region_latency=-0.002
        )
        network = make_network(
            sim, topo, batched=batched, jitter_fraction=0.0
        )
        a = Chatter(sim, network, "a", "weird", "b", 1000.0)
        b = Chatter(sim, network, "b", "weird", "a", 1000.0)
        a.start()
        b.start()
        network.degrade_link("a", "b", latency_multiplier=5.0)
        sim.run_until(1.0)
        delivered_at = []
        network.add_delivery_tap(lambda m: delivered_at.append(sim.now))
        a.send("b", "ping", {"n": 1})  # raw latency would be -0.01s
        sim.run_until(2.0)
        assert delivered_at and delivered_at[0] == pytest.approx(1.0)
        assert network.metrics.counter("messages_delivered").value >= 1
