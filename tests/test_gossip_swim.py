"""Integration tests for the SWIM protocol."""

import gc
import types

import pytest

from repro.gossip import SwimAgent, SwimConfig
from repro.gossip.member import Member, MemberState
from repro.gossip.membership import NodeDirectory, seed_converged
from repro.gossip.swim import ACK, GOSSIP, PING, PING_REQ
from repro.sim import Network, Simulator, Topology
from repro.sim.network import Message
from tests.oracles.two_timeouts import TwoTimeoutSwimAgent


def build_group(sim, network, count, regions, config=None):
    agents = []
    for i in range(count):
        agent = SwimAgent(
            sim, network, f"n{i}", f"n{i}/swim", regions[i % len(regions)],
            config or SwimConfig(),
        )
        agent.start()
        agents.append(agent)
    for agent in agents[1:]:
        agent.join([agents[0].address])
    return agents


class TestJoinAndConvergence:
    def test_all_members_converge(self, sim, network, regions):
        agents = build_group(sim, network, 12, regions)
        sim.run_until(5.0)
        assert all(a.group_size() == 12 for a in agents)

    def test_staggered_joins_converge(self, sim, network, regions):
        agents = []
        for i in range(8):
            agent = SwimAgent(sim, network, f"n{i}", f"n{i}/swim", regions[0])
            agents.append(agent)
            sim.schedule(i * 0.5, agent.start)
            if i:
                sim.schedule(i * 0.5 + 0.01, agent.join, [agents[0].address])
        sim.run_until(10.0)
        assert all(a.group_size() == 8 for a in agents)

    def test_join_via_multiple_entry_points(self, sim, network, regions):
        agents = build_group(sim, network, 4, regions)
        sim.run_until(3.0)
        late = SwimAgent(sim, network, "late", "late/swim", regions[0])
        late.start()
        late.join([agents[1].address, agents[2].address])
        sim.run_until(6.0)
        assert late.group_size() == 5

    def test_membership_includes_self(self, sim, network, regions):
        agent = SwimAgent(sim, network, "solo", "solo/swim", regions[0])
        agent.start()
        sim.run_until(1.0)
        assert agent.group_size() == 1
        assert agent.members.get("solo").state == MemberState.ALIVE


class TestFailureDetection:
    def test_crashed_member_declared_dead(self, sim, network, regions):
        agents = build_group(sim, network, 8, regions)
        sim.run_until(5.0)
        victim = agents[3]
        victim.stop()
        sim.run_until(30.0)
        for agent in agents:
            if agent is victim:
                continue
            record = agent.members.get("n3")
            assert record is not None
            assert record.state in (MemberState.DEAD, MemberState.SUSPECT)
            assert record.state == MemberState.DEAD

    def test_dead_member_reclaimed_after_timeout(self, sim, network, regions):
        config = SwimConfig(dead_reclaim_time=10.0, sync_interval=5.0)
        agents = build_group(sim, network, 4, regions, config)
        sim.run_until(3.0)
        agents[2].stop()
        sim.run_until(60.0)
        assert "n2" not in agents[0].members

    def test_callbacks_fire(self, sim, network, regions):
        agents = build_group(sim, network, 5, regions)
        dead_seen = []
        agents[0].on_member_dead.append(lambda m: dead_seen.append(m.name))
        sim.run_until(3.0)
        agents[4].stop()
        sim.run_until(30.0)
        assert "n4" in dead_seen

    def test_temporarily_blocked_member_refutes_suspicion(self, sim, network, regions):
        """A member cut off from one peer is saved by indirect probing or
        refutes any suspicion with a higher incarnation."""
        agents = build_group(sim, network, 6, regions)
        sim.run_until(5.0)
        network.block(agents[0].address, agents[1].address)
        sim.run_until(20.0)
        network.unblock(agents[0].address, agents[1].address)
        sim.run_until(40.0)
        # n1 must still be alive in everyone's view.
        for agent in agents:
            if agent.running:
                record = agent.members.get("n1")
                assert record is not None and record.state == MemberState.ALIVE


    def test_paused_agent_records_no_probes(self, sim, network, regions):
        """A frozen agent's probe timer keeps ticking but must not record
        probes it never sent — Process.every skips the firing."""
        agents = build_group(sim, network, 4, regions)
        sim.run_until(3.0)
        frozen = agents[1]
        frozen.pause()
        seq_before = frozen._seq
        sim.run_until(6.0)
        assert frozen._seq == seq_before
        frozen.resume()
        sim.run_until(9.0)
        assert frozen._seq > seq_before


class TestLeave:
    def test_graceful_leave_propagates(self, sim, network, regions):
        agents = build_group(sim, network, 6, regions)
        sim.run_until(5.0)
        agents[2].leave()
        sim.run_until(15.0)
        for agent in agents:
            if not agent.running:
                continue
            record = agent.members.get("n2")
            assert record is None or record.state in (MemberState.LEFT, MemberState.DEAD)

    def test_leave_stops_agent(self, sim, network, regions):
        agents = build_group(sim, network, 3, regions)
        sim.run_until(2.0)
        agents[1].leave()
        sim.run_until(5.0)
        assert not agents[1].running

    @pytest.mark.parametrize(
        "rumour", [MemberState.LEFT, MemberState.DEAD, MemberState.SUSPECT]
    )
    def test_a_leaving_member_does_not_refute_its_own_leave(
        self, sim, network, regions, rumour
    ):
        """Its own ``left`` coming back — or a peer's ``dead``/``suspect``
        verdict on it — finds a member that has left: it keeps its
        incarnation and re-announces nothing."""
        agents = build_group(sim, network, 4, regions)
        sim.run_until(3.0)
        leaver, peer = agents[1], agents[0]
        leaver.leave()
        incarnation = leaver.incarnation
        leaver.broadcasts.clear()  # the leave itself, already on its way
        echo = Member(leaver.name, leaver.address, leaver.region,
                      incarnation=incarnation, state=rumour).to_wire()
        leaver.handle_message(
            Message(GOSSIP, {"u": [echo]}, peer.address, leaver.address, 0, sim.now)
        )
        assert leaver.incarnation == incarnation
        assert leaver.broadcasts.empty
        assert leaver.members.peek(leaver.name) == (incarnation, "left")

    def test_every_peer_holds_the_leave_not_a_resurrection(self, sim, network, regions):
        """Gossip echoes the leave back to the leaver before it stops; no peer
        ends up holding it alive at a bumped incarnation (and later dead)."""
        agents = build_group(sim, network, 6, regions)
        sim.run_until(5.0)
        leaver = agents[2]
        leaver.leave()
        sim.run_until(15.0)
        assert leaver.incarnation == 0
        for agent in agents:
            if agent is not leaver:
                assert agent.members.peek(leaver.name) == (0, "left")


class TestAntiEntropy:
    def test_isolated_views_merge_via_sync(self, sim, network, regions):
        """Two halves that each converged separately merge after a join."""
        config = SwimConfig(sync_interval=5.0)
        left = build_group(sim, network, 3, regions, config)
        right = []
        for i in range(3, 6):
            agent = SwimAgent(sim, network, f"n{i}", f"n{i}/swim", regions[0], config)
            agent.start()
            right.append(agent)
        for agent in right[1:]:
            agent.join([right[0].address])
        sim.run_until(5.0)
        assert left[0].group_size() == 3
        assert right[0].group_size() == 3
        right[0].join([left[0].address])
        sim.run_until(30.0)
        assert all(a.group_size() == 6 for a in left + right)


class TestIncarnation:
    def test_refutation_bumps_incarnation(self, sim, network, regions):
        agents = build_group(sim, network, 4, regions)
        sim.run_until(3.0)
        target = agents[1]
        # Inject a false suspicion about n1 into n0 and let it gossip.
        slander = Member("n1", target.address, target.region,
                         incarnation=target.incarnation, state=MemberState.SUSPECT)
        agents[0].members.apply(slander)
        agents[0]._broadcast_member(slander)
        sim.run_until(20.0)
        assert target.incarnation > 0
        for agent in agents:
            assert agent.members.get("n1").state == MemberState.ALIVE


def warm_group(agent_cls, count, config, seed=11):
    """A converged, quiet group of ``agent_cls`` on its own simulator: tables
    seeded in bulk, so the only traffic is the probe cycle."""
    sim = Simulator(seed=seed)
    network = Network(sim, Topology())
    region = network.topology.regions[0].name
    directory = NodeDirectory()
    agents = [
        agent_cls(sim, network, f"n{i}", f"n{i}/swim", region, config,
                  directory=directory)
        for i in range(count)
    ]
    seed_converged(
        [agent.members for agent in agents],
        [(agent.name, agent.address, agent.region) for agent in agents],
        0.0,
    )
    for agent in agents:
        agent.start()
    return sim, network, agents


class TestProbeDeadline:
    """An outstanding probe is its own timeout (a ``Deadline``). Un-acked, it
    must do what two timeouts posted at the tick did — the oracle in
    ``tests/oracles/two_timeouts.py`` — at the same instants; acked, it must
    cost no event beyond tick, ping and ack."""

    CONFIGS = [
        SwimConfig(sync_interval=1000.0),
        # Final window (1.5 s) longer than the probe interval: two probes
        # outstanding per agent at a time.
        SwimConfig(sync_interval=1000.0, probe_timeout=0.5),
    ]

    def silent_target_trace(self, agent_cls, config, count):
        """Nobody hears from the last agent: every probe traffic instant, and
        every instant some agent starts suspecting it."""
        sim, network, agents = warm_group(agent_cls, count, config)
        for agent in agents[:-1]:
            network.block_directed(agents[-1].address, agent.address)
        sent = []
        network.add_delivery_tap(
            lambda m: sent.append((m.sent_at, m.kind, m.src, m.dst, m.payload["seq"]))
            if m.kind in (PING, PING_REQ, ACK) else None
        )
        suspected = []
        for agent in agents[:-1]:
            inner = agent._suspect
            agent._suspect = lambda member, agent=agent, inner=inner: (
                suspected.append((sim.now, agent.name, member.name)), inner(member)
            )
        sim.run_until(4.0)
        return sent, suspected

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("count", [4, 2])  # with relays to ask / without
    def test_unacked_probe_keeps_the_two_timeout_instants(self, config, count):
        sent, suspected = self.silent_target_trace(SwimAgent, config, count)
        assert (sent, suspected) == self.silent_target_trace(
            TwoTimeoutSwimAgent, config, count
        )
        # And those instants are the protocol's: ping-reqs leave one
        # probe_timeout after the ping they follow, suspicion starts three.
        silent = f"n{count - 1}"
        pings = {(src, seq): at for at, kind, src, dst, seq in sent
                 if kind == PING and dst == f"{silent}/swim"}
        ping_reqs = [(at, src, seq) for at, kind, src, dst, seq in sent
                     if kind == PING_REQ]
        assert suspected and bool(ping_reqs) == (count > 2)
        for at, src, seq in ping_reqs:
            assert at == pings[(src, seq)] + config.probe_timeout
        give_up = {(src.split("/")[0], at + config.probe_timeout * 3)
                   for (src, _), at in pings.items()}
        for at, name, target in suspected:
            assert target == silent
            assert (name, at) in give_up

    @pytest.mark.parametrize("agent_cls", [SwimAgent, TwoTimeoutSwimAgent])
    def test_prober_frozen_past_both_windows_gives_up_on_resume(self, agent_cls):
        """Both timeouts expire while the prober is paused: on resume the
        replayed direct timeout arms a final one that is already due, and the
        target is suspected at the resume instant, as when both were queued."""
        sim, _, agents = warm_group(agent_cls, 2, self.CONFIGS[0])
        prober, target = agents
        while not prober._pending_probes:
            sim.step()
        prober.pause()  # the ack will be dropped on arrival
        sim.run_until(sim.now + 2.0)
        assert prober.members.get(target.name).state == MemberState.ALIVE
        prober.resume()
        resumed_at = sim.now
        sim.run_until(resumed_at)
        record = prober.members.get(target.name)
        assert (record.state, record.state_time) == (MemberState.SUSPECT, resumed_at)
        assert not prober._pending_probes

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("agent_cls, per_probe", [
        (SwimAgent, 3), (TwoTimeoutSwimAgent, 5),
    ])
    def test_acked_probe_costs_tick_ping_ack(self, agent_cls, per_probe, config):
        entered = []

        class Counting(agent_cls):
            def _direct_probe_timeout(self, seq):
                entered.append("direct")
                super()._direct_probe_timeout(seq)

            def _final_probe_timeout(self, seq):
                entered.append("final")
                super()._final_probe_timeout(seq)

        sim, _, agents = warm_group(Counting, 2, config)
        sim.run_until(10.0)
        for agent in agents:  # no new probes; let the outstanding ones finish
            for timer in agent._timers:
                timer.stop()
        sim.run_until(15.0)
        probes = sum(agent._seq for agent in agents)
        assert probes >= 16
        assert sim.events_processed == per_probe * probes
        assert all(not agent._pending_probes for agent in agents)
        if agent_cls is SwimAgent:
            assert entered == []
            assert sim._deadline_fifos == {}
        else:
            assert len(entered) == 2 * probes


_CENSUS_KINDS = (types.MethodType, tuple)


def live_methods_and_tuples():
    """The live bound methods and tuples. Holding a census keeps its objects
    alive, so no object made later can reuse one of their ids."""
    return [obj for obj in gc.get_objects() if type(obj) in _CENSUS_KINDS]


class CensusAgent(SwimAgent):
    """Takes :func:`live_methods_and_tuples` as one probe tick starts: the
    first whose direct-timeout FIFO is already filed, so the round files no
    FIFO sentinel of the kernel's own."""

    census = None
    round_seq = None

    def _probe_tick(self):
        take = self.census is None and self.config.probe_timeout in self.sim._deadline_fifos
        if take:
            self.census = live_methods_and_tuples()
        super()._probe_tick()
        if take:
            self.round_seq = self._seq


class TestProbeRoundAllocations:
    """Nothing a probe round allocates outlives its ack: the ack releases the
    probe's timeout with ``Deadline.cancel()``, which drops the callback and
    its arguments, and arming it made no bound method. An acked probe waits
    in its FIFO until its instant; it must hold nothing while it does."""

    # The direct window outlasts the interval, so the FIFO never empties
    # between one prober's rounds.
    CONFIG = SwimConfig(sync_interval=1000.0, probe_timeout=1.5)

    def test_acked_probe_entry_holds_no_callback_and_no_args(self):
        sim, _, agents = warm_group(SwimAgent, 2, self.CONFIG)
        prober = agents[0]
        while not prober._pending_probes:
            sim.step()
        (seq, probe), = prober._pending_probes.items()
        callback = probe.callback
        while seq in prober._pending_probes:
            sim.step()
        assert callback is not None
        assert probe in sim._deadline_fifos[self.CONFIG.probe_timeout]
        assert probe.cancelled
        assert probe.callback is None
        assert probe.args == ()

    def test_probe_round_leaves_no_method_or_tuple_after_the_ack(self):
        enabled = gc.isenabled()
        gc.disable()  # only reference counting frees anything
        try:
            gc.collect()
            sim, _, agents = warm_group(CensusAgent, 2, self.CONFIG)
            prober, target = agents
            target._timers[0].stop()  # it answers, it does not probe
            while prober.round_seq is None:
                sim.step()
            while prober.round_seq in prober._pending_probes:
                sim.step()
            after = live_methods_and_tuples()
        finally:
            if enabled:
                gc.enable()
        seen = {id(obj) for obj in prober.census}
        left = [obj for obj in after if id(obj) not in seen]
        assert prober.round_seq > 1
        assert left == []


class TestGossipTick:
    """The gossip tick keeps memberlist's fixed-phase ticker: a phase drawn
    once per start, every tick on that grid, one per interval while the
    queue holds anything, none while it is empty. It is posted on the
    simulator directly and keeps ``Process.post``'s rules itself: dropped
    once the agent stops, deferred while it is paused. A crash-restarted
    agent runs exactly one tick chain, on its new life's grid: a tick
    queued before the crash neither blocks the new life's first tick nor
    starts a second chain beside it."""

    CONFIG = SwimConfig(sync_interval=1000.0)

    @staticmethod
    def queue(agent, count, tag):
        for i in range(count):
            agent.broadcast_payload("test", f"{tag}{i}", {"t": "test", "k": i})

    @staticmethod
    def gossip_instants(network, agent):
        sent_at = set()
        network.add_delivery_tap(
            lambda m: sent_at.add(m.sent_at)
            if m.kind == GOSSIP and m.src == agent.address else None
        )
        return sent_at

    @staticmethod
    def on_grid(instant, origin, interval):
        steps = (instant - origin) / interval
        return steps > -1e-9 and steps == pytest.approx(round(steps), abs=1e-9)

    def test_first_tick_is_on_the_phase_grid(self):
        sim, network, agents = warm_group(SwimAgent, 8, self.CONFIG)
        agent = agents[0]
        interval = agent.config.gossip_interval
        origin = agent._gossip_origin
        # Drawn at start, within one interval, and per agent.
        assert 0.0 <= origin < interval
        assert len({a._gossip_origin for a in agents}) == len(agents)
        sent_at = self.gossip_instants(network, agent)
        for queued_at in (2.0137, 3.5, 7.0421):
            sim.run_until(queued_at)
            assert not agent._gossip_scheduled  # idle: no tick queued
            sent_at.clear()
            self.queue(agent, 1, f"at{queued_at}")
            sim.run_until(queued_at + 1.0)
            (first,) = sent_at  # 1 wire, budget 4, 4 peers: one tick spends it
            assert 0.0 < first - queued_at <= interval + 1e-9
            assert self.on_grid(first, origin, interval)

    # Restart before / after the tick queued in the previous life fires.
    @pytest.mark.parametrize("gap", [0.0, 0.25])
    def test_restart_runs_one_tick_per_interval(self, gap):
        sim, network, agents = warm_group(SwimAgent, 8, self.CONFIG)
        agent = agents[0]
        interval = agent.config.gossip_interval
        sent_at = self.gossip_instants(network, agent)
        sim.run_until(2.0)
        self.queue(agent, 1, "before")
        assert agent._gossip_scheduled  # due within the next interval
        agent.stop()
        sim.run_until(2.0 + gap)
        agent.restart()
        restarted_at = sim.now
        origin = agent._gossip_origin
        assert restarted_at <= origin < restarted_at + interval
        sent_at.clear()
        # 100 broadcasts of 4 transmissions outlast the second: a round
        # spends at most 8 items to each of 4 peers.
        self.queue(agent, 100, "after")
        sim.run_until(origin + 10 * interval - interval / 2)
        instants = sorted(sent_at)
        # A tick every interval on the new life's grid, one chain.
        assert len(instants) == 10
        assert instants[0] == pytest.approx(origin)
        for earlier, later in zip(instants, instants[1:]):
            assert later - earlier == pytest.approx(interval)

    def test_paused_tick_is_deferred_like_a_posted_callback(self):
        sim, network, agents = warm_group(SwimAgent, 8, self.CONFIG)
        agent = agents[0]
        meter = network.meter(agent.address)
        sim.run_until(2.0)
        # More than one round spends: the chain outlives the first tick.
        self.queue(agent, 12, "x")  # tick queued within the next interval
        seen = []

        def marker():
            seen.append(meter.messages_sent)

        agent.post(agent.config.gossip_interval, marker)  # due at 2.1, after it
        agent.pause()
        sim.run_until(3.0)
        assert seen == []
        assert agent._deferred == [
            (agent._gossip_tick, (agent._gossip_life,)), (marker, ()),
        ]
        sent_before = meter.messages_sent
        agent.resume()
        # Replayed in expiry order: the tick's packets to 4 peers went first.
        assert seen == [sent_before + agent.config.gossip_fanout]
        assert agent._gossip_scheduled  # the chain goes on from the resume
        agent.stop()
        assert agent._deferred == []
