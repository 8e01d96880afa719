"""Integration tests for Serf-style user events and queries."""

import sys
from contextlib import contextmanager

import pytest

from repro.gossip import SerfAgent, SerfConfig
from repro.gossip.agent import QUERY_RESPONSE, SEEN_BUFFER
from repro.gossip.broadcast import SizedWire
from repro.gossip.swim import GOSSIP, PING
from repro.sim.network import Message, approx_size


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


@contextmanager
def program_calls():
    """The Python-level calls into ``repro`` made inside the block, in order,
    as ``(file name, function name)`` (``sys.setprofile`` "call" events; C
    builtins are not Python-level calls)."""
    calls = []

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and "/repro/" in code.co_filename:
            calls.append((code.co_filename.rsplit("/", 1)[-1], code.co_name))

    sys.setprofile(hook)
    try:
        yield calls
    finally:
        sys.setprofile(None)


def names(calls):
    return [name for _, name in calls]


class TestRedelivery:
    """Epidemic dissemination re-delivers every wire tens of times per
    member; the update loop turns a repeat away with a set probe (a custom
    wire) or an identity test (a member wire), and the member handles each
    wire once."""

    @pytest.fixture
    def group(self, sim, network, regions):
        agents = build_group(sim, network, 6, regions)
        sim.run_until(5.0)
        return agents

    @staticmethod
    def gossip(agents, wires):
        """A gossip packet from ``agents[0]``, delivered to ``agents[1]``."""
        src, dst = agents[0].address, agents[1].address
        return Message(GOSSIP, {"u": list(wires)}, src, dst, 0, 0.0)

    @staticmethod
    def query_wire(query_id="ext:q1"):
        return SizedWire({"t": "q", "id": query_id, "qn": "s", "qp": {"x": 1},
                          "o": "n0", "ra": "n0/serf"})

    def test_a_packet_of_seen_wires_costs_no_call_per_wire(self, group, sim):
        wires = []
        for index in range(8):
            event_id = group[0].user_event("deploy", {"version": index})
            wires.append(group[0].broadcasts._queue[("event", event_id)].payload)
        sim.run_until(9.0)  # every member has heard all eight
        assert all(type(wire) is SizedWire for wire in wires)
        receiver = group[1]
        queued = len(receiver.broadcasts)
        packet = self.gossip(group, wires)
        with program_calls() as calls:
            receiver.handle_message(packet)
        assert "handle_custom_update" not in names(calls)
        assert names(calls)[0] == "handle_message"
        assert len(calls) - 1 <= 3, names(calls)
        assert len(receiver.broadcasts) == queued

    def test_a_packet_of_held_member_wires_costs_no_call_per_wire(self, group):
        """A member wire is judged once; the table remembers the interned
        object it rejected and the loop turns every repeat away by identity."""
        receiver = group[1]
        members = receiver.members
        wires = [members.wire_of(m) for m in members.alive(exclude_self=True)]
        assert len(wires) == 5
        receiver.handle_message(self.gossip(group, wires))
        assert all(members.rejected[wire.slot] is wire for wire in wires)
        with program_calls() as calls:
            receiver.handle_message(self.gossip(group, wires * 2))
        assert "can_change" not in names(calls)
        assert len(calls) - 1 <= 3, names(calls)

    def test_a_first_delivery_is_handled_once_and_answered_once(
        self, group, sim, network
    ):
        receiver = group[1]
        asked = []
        receiver.on_query("s", lambda p, origin: asked.append(origin) or {"ok": 1})
        answers = []
        network.add_delivery_tap(
            lambda m: answers.append(m.payload) if m.kind == QUERY_RESPONSE else None
        )
        wire = self.query_wire()
        with program_calls() as calls:
            receiver.handle_message(self.gossip(group, [wire]))
            receiver.handle_message(self.gossip(group, [wire, wire]))
        assert names(calls).count("handle_custom_update") == 1
        assert asked == ["n0"]
        # Forwarded as delivered: the queued re-broadcast is the wire itself
        # (checked before gossip rounds may retire it).
        assert receiver.broadcasts._queue[("query", "ext:q1")].payload is wire
        sim.run_until(sim.now + 1.0)  # the answer lands; nobody else has a handler
        assert answers == [{"id": "ext:q1", "from": "n1", "r": {"ok": 1}}]

    def test_a_ping_from_a_known_sender_asks_the_table_once(self, group):
        sender, receiver = group[0], group[1]
        ping = Message(
            PING, {"seq": 1, "from": sender._self_wire(), "u": []},
            sender.address, receiver.address, 0, 0.0,
        )
        with program_calls() as calls:
            receiver.handle_message(ping)
        table_calls = [name for file, name in calls if file == "membership.py"]
        assert table_calls == ["can_change"]
        assert "_apply_updates" not in names(calls)

    def test_a_plain_dict_wire_is_still_deduplicated_by_the_hook(self, group):
        receiver = group[1]
        heard = []
        receiver.on_event("cfg", lambda payload, origin: heard.append(payload))
        wire = {"t": "e", "id": "ext:e1", "en": "cfg", "ep": {"k": "v"}, "o": "ext"}
        with program_calls() as calls:
            receiver.handle_message(self.gossip(group, [wire, dict(wire)]))
        # Not recognisable by type: both reach the hook, which drops the repeat.
        assert names(calls).count("handle_custom_update") == 2
        assert heard == [{"k": "v"}]
        assert receiver.broadcasts._queue[("event", "ext:e1")].payload is wire

    @staticmethod
    def seen_wires(group, sim, count=3):
        """``count`` Serf wires every member of ``group`` has handled."""
        wires = []
        for index in range(count):
            event_id = group[0].user_event("deploy", {"version": index})
            wires.append(group[0].broadcasts._queue[("event", event_id)].payload)
        sim.run_until(sim.now + 4.0)
        assert all(wire.id in group[1]._seen for wire in wires)
        return wires

    def test_a_packet_of_seen_wires_never_enters_the_update_loop(self, group, sim):
        packet = self.gossip(group, self.seen_wires(group, sim))
        with program_calls() as calls:
            group[1].handle_message(packet)
        assert names(calls) == ["handle_message", "_on_gossip"]

    def test_an_empty_or_missing_update_list_is_turned_away(self, group):
        receiver = group[1]
        src, dst = group[0].address, receiver.address
        for payload in ({"u": []}, {}):
            with program_calls() as calls:
                receiver.handle_message(Message(GOSSIP, payload, src, dst, 0, 0.0))
            assert "_apply_updates" not in names(calls)

    @pytest.mark.parametrize("position", [0, 1, 2, 3])
    def test_one_new_wire_anywhere_sends_the_whole_packet_through_once(
        self, group, sim, position
    ):
        receiver = group[1]
        asked = []
        receiver.on_query("s", lambda payload, origin: asked.append(origin))
        wires = self.seen_wires(group, sim)
        fresh = self.query_wire()
        wires.insert(position, fresh)
        packet = self.gossip(group, wires)
        with program_calls() as calls:
            receiver.handle_message(packet)
        assert names(calls).count("_apply_updates") == 1
        assert names(calls).count("handle_custom_update") == 1
        assert asked == ["n0"]
        with program_calls() as calls:
            receiver.handle_message(packet)  # every wire seen now
        assert "_apply_updates" not in names(calls)

    @pytest.mark.parametrize("kind", ["member", "plain-dict"])
    def test_a_wire_not_recognised_as_seen_sends_the_packet_through_once(
        self, group, sim, kind
    ):
        receiver = group[1]
        wires = self.seen_wires(group, sim)
        if kind == "member":
            peer = receiver.members.get("n2")
            other = receiver.members.wire_of(peer)
        else:
            # Already handled, but recognisable only by the hook.
            other = dict(wires[0])
        wires.insert(1, other)
        with program_calls() as calls:
            receiver.handle_message(self.gossip(group, wires))
        assert names(calls).count("_apply_updates") == 1
        assert ("can_change" in names(calls)) == (kind == "member")
        assert names(calls).count("handle_custom_update") == (kind == "plain-dict")

    def test_an_evicted_id_reenters_the_loop(self, group):
        receiver = group[1]
        wire = self.query_wire()
        receiver.handle_message(self.gossip(group, [wire]))
        with program_calls() as calls:
            receiver.handle_message(self.gossip(group, [wire]))
        assert "_apply_updates" not in names(calls)
        for index in range(SEEN_BUFFER):
            receiver._remember(f"filler:{index}")
        assert wire.id not in receiver._seen
        with program_calls() as calls:
            receiver.handle_message(self.gossip(group, [wire]))
        assert names(calls).count("_apply_updates") == 1
        assert names(calls).count("handle_custom_update") == 1

    def test_a_crash_restarted_agent_rejects_what_it_has_seen(self, group, sim):
        receiver = group[1]
        asked = []
        receiver.on_query("s", lambda payload, origin: asked.append(origin))
        wires = self.seen_wires(group, sim)
        receiver.stop()
        receiver.restart()
        sim.run_until(sim.now + 1.0)
        with program_calls() as calls:
            receiver.handle_message(self.gossip(group, wires))
        assert "_apply_updates" not in names(calls)
        fresh = self.query_wire("ext:after-restart")
        with program_calls() as calls:
            receiver.handle_message(self.gossip(group, wires + [fresh]))
        assert names(calls).count("_apply_updates") == 1
        assert asked == ["n0"]

    def test_an_id_evicted_from_the_seen_buffer_is_handled_again(self, group):
        receiver = group[1]
        asked = []
        receiver.on_query("s", lambda payload, origin: asked.append(origin))
        wire = self.query_wire()
        receiver.handle_message(self.gossip(group, [wire]))
        for index in range(SEEN_BUFFER - 1):
            receiver._remember(f"filler:{index}")
        receiver.handle_message(self.gossip(group, [wire]))
        assert asked == ["n0"]  # still remembered: the buffer holds SEEN_BUFFER ids
        receiver._remember("one-more")
        assert "ext:q1" not in receiver._seen
        receiver.handle_message(self.gossip(group, [wire]))
        assert asked == ["n0", "n0"]
        assert "ext:q1" in receiver._seen
