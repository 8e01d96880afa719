"""Integration tests for Serf-style user events and queries."""

import pytest

from repro.gossip import SerfAgent, SerfConfig
from repro.gossip.broadcast import SizedWire
from repro.gossip.swim import GOSSIP
from repro.sim.network import approx_size


def build_group(sim, network, count, regions, config=None):
    agents = []
    for i in range(count):
        agent = SerfAgent(
            sim, network, f"n{i}", f"n{i}/serf", regions[i % len(regions)],
            config or SerfConfig(),
        )
        agent.start()
        agents.append(agent)
    for agent in agents[1:]:
        agent.join([agents[0].address])
    return agents


class TestUserEvents:
    def test_event_reaches_every_member(self, sim, network, regions):
        agents = build_group(sim, network, 10, regions)
        sim.run_until(5.0)
        seen = []
        for agent in agents:
            agent.on_event("deploy", lambda p, o, name=agent.name: seen.append(name))
        agents[4].user_event("deploy", {"version": 2})
        sim.run_until(8.0)
        assert sorted(seen) == sorted(a.name for a in agents)

    def test_event_delivered_exactly_once(self, sim, network, regions):
        agents = build_group(sim, network, 8, regions)
        sim.run_until(5.0)
        counts = {a.name: 0 for a in agents}

        def make_handler(name):
            def handler(payload, origin):
                counts[name] += 1
            return handler

        for agent in agents:
            agent.on_event("e", make_handler(agent.name))
        agents[0].user_event("e", {})
        sim.run_until(10.0)
        assert all(c == 1 for c in counts.values()), counts

    def test_event_payload_and_origin(self, sim, network, regions):
        agents = build_group(sim, network, 4, regions)
        sim.run_until(3.0)
        received = []
        agents[2].on_event("cfg", lambda p, o: received.append((p, o)))
        agents[0].user_event("cfg", {"k": "v"})
        sim.run_until(6.0)
        assert received == [({"k": "v"}, "n0")]

    def test_multiple_events_all_disseminate(self, sim, network, regions):
        agents = build_group(sim, network, 6, regions)
        sim.run_until(3.0)
        seen = []
        agents[5].on_event("tick", lambda p, o: seen.append(p["i"]))
        for i in range(5):
            sim.schedule(3.5 + i * 0.2, agents[0].user_event, "tick", {"i": i})
        sim.run_until(10.0)
        assert sorted(seen) == [0, 1, 2, 3, 4]

    def test_unhandled_event_ignored(self, sim, network, regions):
        agents = build_group(sim, network, 3, regions)
        sim.run_until(2.0)
        agents[0].user_event("nobody-listens", {})
        sim.run_until(4.0)  # must not raise


class TestQueries:
    def test_query_collects_all_responses(self, sim, network, regions):
        agents = build_group(sim, network, 12, regions)
        sim.run_until(5.0)
        for agent in agents:
            agent.on_query("state", lambda p, o, name=agent.name: {"me": name})
        results = {}
        agents[3].query("state", {}, results.update, timeout=2.0)
        sim.run_until(8.0)
        assert len(results) == 12
        assert results["n7"] == {"me": "n7"}

    def test_query_completes_before_timeout_when_all_answer(self, sim, network, regions):
        agents = build_group(sim, network, 8, regions)
        sim.run_until(5.0)
        for agent in agents:
            agent.on_query("s", lambda p, o: {"ok": True})
        done_at = []
        agents[0].query("s", {}, lambda r: done_at.append(sim.now), timeout=5.0)
        sim.run_until(11.0)
        assert done_at and done_at[0] < 5.0 + 2.0  # early completion, not timeout

    def test_single_member_query_completes(self, sim, network, regions):
        agent = SerfAgent(sim, network, "solo", "solo/serf", regions[0])
        agent.start()
        agent.on_query("s", lambda p, o: {"v": 1})
        results = {}
        sim.run_until(1.0)
        agent.query("s", {}, results.update, timeout=2.0)
        sim.run_until(4.0)
        assert results == {"solo": {"v": 1}}

    def test_silent_handler_excluded(self, sim, network, regions):
        agents = build_group(sim, network, 6, regions)
        sim.run_until(5.0)
        for agent in agents:
            # Odd-numbered members stay silent.
            idx = int(agent.name[1:])
            agent.on_query(
                "s", lambda p, o, i=idx: {"i": i} if i % 2 == 0 else None
            )
        results = {}
        agents[0].query("s", {}, results.update, timeout=1.5)
        sim.run_until(10.0)
        assert set(results) == {"n0", "n2", "n4"}

    def test_timeout_yields_partial_results(self, sim, network, regions):
        agents = build_group(sim, network, 6, regions)
        sim.run_until(5.0)
        for agent in agents:
            agent.on_query("s", lambda p, o: {"ok": True})
        # Cut one member off right before the query.
        isolated = agents[5]
        for other in agents[:5]:
            network.block(other.address, isolated.address)
        results = {}
        done_at = []
        agents[0].query(
            "s", {}, lambda r: (results.update(r), done_at.append(sim.now)),
            timeout=1.0,
        )
        sim.run_until(10.0)
        assert done_at[0] == pytest.approx(6.0, abs=0.2)
        assert 1 <= len(results) <= 5

    def test_query_crossing_member_crash(self, sim, network, regions):
        agents = build_group(sim, network, 8, regions)
        sim.run_until(5.0)
        for agent in agents:
            agent.on_query("s", lambda p, o: {"ok": True})
        agents[6].stop()
        results = {}
        agents[1].query("s", {}, results.update, timeout=1.5)
        sim.run_until(10.0)
        assert "n6" not in results
        assert len(results) >= 6


class TestWires:
    def test_members_forward_the_originators_wire_itself(self, sim, network, regions):
        """A wire is immutable and carries its size: whoever hears it queues
        that same object, at that size, for its own retransmissions."""
        agents = build_group(sim, network, 6, regions)
        sim.run_until(5.0)
        agents[0].user_event("deploy", {"version": 2})
        (origin,) = agents[0].broadcasts._queue.values()
        assert type(origin.payload) is SizedWire
        assert origin.size == origin.payload.size == approx_size(dict(origin.payload))
        sim.run_until(5.25)  # a couple of gossip rounds
        forwarded = [
            agent.broadcasts._queue[origin.key]
            for agent in agents[1:]
            if origin.key in agent.broadcasts._queue
        ]
        assert forwarded
        for broadcast in forwarded:
            assert broadcast.payload is origin.payload
            assert broadcast.size == origin.size

    def test_hand_built_dict_wire_is_measured_and_forwarded(self, sim, network, regions):
        """A custom update that is a plain ``dict`` carries no size; the
        member that hears it measures it and the event still spreads."""
        agents = build_group(sim, network, 6, regions)
        sim.run_until(5.0)
        seen = []
        for agent in agents:
            agent.on_event("cfg", lambda p, o, name=agent.name: seen.append((name, p, o)))
        wire = {"t": "e", "id": "ext:e1", "en": "cfg", "ep": {"k": "v"}, "o": "ext"}
        agents[0].send(agents[1].address, GOSSIP, {"u": [wire]})
        sim.run_until(5.1)
        queued = agents[1].broadcasts._queue[("event", "ext:e1")]
        assert queued.payload == wire
        assert queued.size == approx_size(wire)
        sim.run_until(9.0)
        # Every member once — the sender too, when the wire is gossiped back.
        assert sorted(seen) == sorted((a.name, {"k": "v"}, "ext") for a in agents)
