"""Integration tests for the SWIM protocol."""


from repro.gossip import SwimAgent, SwimConfig
from repro.gossip.member import MemberState


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
        from repro.gossip.member import Member

        slander = Member("n1", target.address, target.region,
                         incarnation=target.incarnation, state=MemberState.SUSPECT)
        agents[0].members.apply(slander)
        agents[0]._broadcast_member(slander)
        sim.run_until(20.0)
        assert target.incarnation > 0
        for agent in agents:
            assert agent.members.get("n1").state == MemberState.ALIVE
