"""Property and equivalence tests for the vectorized membership table.

Two layers of pinning against the dict-of-``Member`` oracle
(``tests/oracles/member_list.py``, the v1 byte stream):

* Hypothesis drives :class:`MembershipTable` and the oracle through
  identical random join/suspect/refute/fault/leave/reclaim sequences and
  asserts every observable — record contents, insertion order, alive views,
  snapshots, suspicion deadlines, ``apply`` return values, RNG selection
  draws — stays identical at every step.
* A seeded full-protocol SWIM run (join storm, failure, suspicion, refute
  window, anti-entropy, Serf query) must produce a byte-identical summary
  with the oracle substituted for the table, pinning event order exactly
  like the scheduler-equivalence gate.
"""

import json
import random

from hypothesis import example, given, settings, strategies as st

from repro.gossip.agent import SerfAgent, SerfConfig
from repro.gossip.member import Member, MemberState
from repro.gossip.membership import MembershipTable, NodeDirectory
from repro.sim import Network, Simulator, Topology
from tests.arms import kernel
from tests.oracles.member_list import MemberList

NAMES = [f"m{i}" for i in range(8)]
REGIONS = ["region-a", "region-b", "region-c"]
SELF = NAMES[0]

states = st.sampled_from(list(MemberState))
names = st.sampled_from(NAMES)
incarnations = st.integers(min_value=0, max_value=6)


def make_member(name: str, state: MemberState, inc: int, t: float) -> Member:
    i = NAMES.index(name)
    return Member(
        name,
        f"{name}/addr",
        REGIONS[i % len(REGIONS)],
        incarnation=inc,
        state=state,
        state_time=t,
    )


operations = st.lists(
    st.one_of(
        st.tuples(st.just("apply"), names, states, incarnations),
        st.tuples(st.just("upsert"), names, states, incarnations),
        st.tuples(st.just("remove"), names),
        st.tuples(st.just("deadline"), names, st.floats(0.0, 50.0)),
        st.tuples(st.just("expire"), st.floats(0.0, 60.0)),
    ),
    min_size=1,
    max_size=60,
)


def observe(backend, now: float):
    return {
        "len": len(backend),
        "alive_count": backend.alive_count,
        "records": [
            (m.name, m.address, m.region, m.incarnation, m.state.value, m.state_time)
            for m in backend
        ],
        "alive": [(m.name, m.address) for m in backend.alive()],
        "alive_ex": [(m.name, m.address) for m in backend.alive(exclude_self=True)],
        "names": backend.alive_names(),
        "names_ex": backend.alive_names(exclude_self=True),
        "suspects": [m.name for m in backend.suspects()],
        "snapshot": backend.snapshot_wire(),
        "snapshot_size": backend.snapshot_size(),
        "peek": [backend.peek(n) for n in NAMES],
        "due": backend.due_suspects(now),
    }


def run_ops(backend, ops):
    """Apply an op sequence; returns the per-step observable trace."""
    trace = []
    for step, op in enumerate(ops):
        t = float(step)
        if op[0] == "apply":
            _, name, state, inc = op
            trace.append(("apply", backend.apply(make_member(name, state, inc, t))))
        elif op[0] == "upsert":
            _, name, state, inc = op
            backend.upsert(make_member(name, state, inc, t))
        elif op[0] == "remove":
            backend.remove(op[1])
        elif op[0] == "deadline":
            backend.set_suspicion_deadline(op[1], op[2])
        else:
            trace.append(("expired", backend.expire_dead(op[1])))
        trace.append(observe(backend, now=t))
    return trace


class TestTableMatchesReference:
    @given(operations)
    # Recorded falsifier: a suspicion deadline set before the member has a
    # record must survive until the record is inserted.
    @example([("deadline", "m1", 0.0), ("apply", "m1", MemberState.SUSPECT, 0)])
    @settings(max_examples=150)
    def test_random_sequences_match_dict_reference(self, ops):
        reference = MemberList(SELF)
        table = MembershipTable(SELF)
        assert run_ops(reference, ops) == run_ops(table, ops)

    @given(operations, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=100)
    def test_selection_draws_identical(self, ops, seed):
        reference = MemberList(SELF)
        table = MembershipTable(SELF)
        run_ops(reference, ops)
        run_ops(table, ops)
        for fanout in (1, 3, 8):
            assert reference.gossip_targets(
                random.Random(seed), fanout
            ) == table.gossip_targets(random.Random(seed), fanout)
        assert reference.sync_peer(random.Random(seed)) == table.sync_peer(
            random.Random(seed)
        )
        for exclude in NAMES:
            assert reference.relay_sample(
                random.Random(seed), 3, exclude
            ) == table.relay_sample(random.Random(seed), 3, exclude)

    @given(operations)
    @settings(max_examples=100)
    def test_shared_directory_matches_private(self, ops):
        directory = NodeDirectory()
        shared = MembershipTable(SELF, directory)
        private = MembershipTable(SELF)
        assert run_ops(shared, ops) == run_ops(private, ops)

    def test_stale_update_cannot_refresh_identity(self):
        """Recorded falsifier: a rejected (stale) update that carries a new
        address must not rewrite the interned identity behind the record."""
        reference = MemberList(SELF)
        table = MembershipTable(SELF)
        current = Member("m1", "old/addr", REGIONS[0], incarnation=2)
        stale = Member("m1", "new/addr", REGIONS[1], incarnation=1)
        for backend in (reference, table):
            backend.upsert(current)
            assert not backend.apply(stale)
        assert observe(reference, 0.0) == observe(table, 0.0)
        assert table.get("m1").address == "old/addr"

    def test_removal_reinsertion_moves_to_end_like_dict(self):
        reference = MemberList(SELF)
        table = MembershipTable(SELF)
        for backend in (reference, table):
            for name in NAMES[:4]:
                backend.upsert(make_member(name, MemberState.ALIVE, 0, 0.0))
            backend.remove(NAMES[1])
            backend.upsert(make_member(NAMES[1], MemberState.ALIVE, 1, 1.0))
        assert [m.name for m in reference] == [m.name for m in table]
        assert [m.name for m in table] == [NAMES[0], NAMES[2], NAMES[3], NAMES[1]]


class TestFilterSuperseding:
    wire_updates = st.lists(
        st.tuples(
            st.sampled_from([f"m{i}" for i in range(24)]),
            states,
            incarnations,
        ),
        min_size=16,
        max_size=24,
        unique_by=lambda u: u[0],
    )

    @given(operations, wire_updates)
    @settings(max_examples=100)
    def test_filtered_batch_reaches_same_state(self, ops, updates):
        full = MembershipTable(SELF)
        filtered = MembershipTable(SELF)
        run_ops(full, ops)
        run_ops(filtered, ops)
        batch = [
            {
                "n": name,
                "a": f"{name}/addr",
                "r": REGIONS[0],
                "i": inc,
                "s": state.value,
            }
            for name, state, inc in updates
        ]
        def agent_loop_apply(table, wire):
            # Mirror SwimAgent._apply_updates for one membership wire: drop
            # death notices about unknown members, route self updates to
            # refutation handling (not apply), else apply.
            previous = table.peek(wire["n"])
            if previous is None and wire["s"] in ("dead", "left"):
                return "dropped"
            if wire["n"] == table.self_name:
                return "self"
            return table.apply(Member.from_wire(wire, 99.0))

        kept = filtered.filter_superseding(batch)
        kept_ids = {id(w) for w in kept}
        for wire in batch:
            outcome = agent_loop_apply(full, wire)
            if outcome is True or outcome == "self":
                # The prefilter may only drop updates the agent loop would
                # reject; self updates must always survive (refutation).
                assert id(wire) in kept_ids
        for wire in kept:
            agent_loop_apply(filtered, wire)
        assert observe(full, 99.0) == observe(filtered, 99.0)

    def test_small_batches_and_custom_payloads_pass_through(self):
        table = MembershipTable(SELF)
        small = [{"n": "x", "i": 0, "s": "alive"}] * 3
        assert table.filter_superseding(small) is small
        mixed = [{"t": "q", "id": f"q{i}"} for i in range(20)]
        assert table.filter_superseding(mixed) is mixed

    def test_updates_about_self_are_always_kept(self):
        table = MembershipTable(SELF)
        table.upsert(make_member(SELF, MemberState.ALIVE, 5, 0.0))
        batch = [
            {"n": n, "a": f"{n}/addr", "r": REGIONS[0], "i": 0, "s": "alive"}
            for n in (SELF, *(f"pad{i}" for i in range(16)))
        ]
        kept = table.filter_superseding(batch)
        # Stale by incarnation, but self-updates drive refutation: kept.
        assert batch[0] in kept


class TestDirectoryAndRegions:
    def test_interned_wires_are_shared_across_tables(self):
        directory = NodeDirectory()
        a = MembershipTable("a", directory)
        b = MembershipTable("b", directory)
        member = make_member(NAMES[1], MemberState.ALIVE, 2, 0.0)
        a.upsert(member)
        b.upsert(member)
        (wire_a,) = (w for w in a.snapshot_wire() if w["n"] == NAMES[1])
        (wire_b,) = (w for w in b.snapshot_wire() if w["n"] == NAMES[1])
        assert wire_a is wire_b
        assert wire_a == member.to_wire()

    def test_wire_cache_invalidated_on_address_change(self):
        directory = NodeDirectory()
        table = MembershipTable("a", directory)
        table.upsert(make_member(NAMES[1], MemberState.ALIVE, 0, 0.0))
        first = table.snapshot_wire()[0]
        moved = Member(NAMES[1], "new/addr", REGIONS[1], incarnation=0)
        table.upsert(moved)
        assert table.snapshot_wire()[0] == moved.to_wire()

    def test_region_views(self):
        table = MembershipTable(SELF)
        for name in NAMES:
            table.upsert(make_member(name, MemberState.ALIVE, 0, 0.0))
        table.apply(make_member(NAMES[3], MemberState.DEAD, 1, 1.0))
        counts = table.region_alive_counts()
        by_region = {}
        for m in table.alive():
            by_region[m.region] = by_region.get(m.region, 0) + 1
        assert counts == by_region
        mask = table.region_mask(REGIONS[0])
        expected = {m.name for m in table if m.region == REGIONS[0]}
        got = {
            table.directory.names[slot]
            for slot in range(len(table.directory))
            if mask[slot]
        }
        assert got == expected
        assert not table.region_mask("nowhere").any()


def swim_equivalence_summary(members: str, seed: int = 7) -> str:
    """Full-protocol seeded run: join storm, crash, suspicion, Serf query."""
    with kernel(members=members):
        return _swim_equivalence_summary(seed)


def _swim_equivalence_summary(seed: int) -> str:
    sim = Simulator(seed=seed)
    topology = Topology()
    network = Network(sim, topology)
    regions = [r.name for r in topology.regions]
    config = SerfConfig(sync_interval=5.0)
    directory = NodeDirectory()
    agents = []
    answers = []
    for i in range(8):
        agent = SerfAgent(
            sim,
            network,
            f"n{i}",
            f"addr{i}",
            regions[i % len(regions)],
            config,
            directory=directory,
        )
        agent.on_query("who", lambda payload, origin, a=agent: a.name)
        agent.start()
        agents.append(agent)
    for agent in agents[1:]:
        agent.join(["addr0"])
    sim.run_until(8.0)
    agents[3].stop()  # crash: exercises probe timeout -> suspect -> dead
    sim.schedule_at(
        12.0, lambda: agents[1].query("who", None, lambda r: answers.append(sorted(r)))
    )
    sim.run_until(20.0)
    summary = {
        "events_processed": sim.events_processed,
        "answers": answers,
        "counters": {
            name: network.metrics.counter(name).value
            for name in network.metrics.names()["counters"]
        },
        "meters": {
            f"addr{i}": network.meter(f"addr{i}").total_bytes for i in range(8)
        },
        "alive_views": sorted(
            (agent.name, sorted(m.name for m in agent.alive_members()))
            for agent in agents
            if agent.running
        ),
        "backends": sorted({type(agent.members).__name__ for agent in agents}),
    }
    return json.dumps(summary, sort_keys=True)


class TestSeededSwimEquivalence:
    """The acceptance gate: the table cannot perturb event order."""

    def test_bit_identical_to_dict_oracle(self):
        reference = json.loads(swim_equivalence_summary("dict"))
        table = json.loads(swim_equivalence_summary("table"))
        # The seam itself: each arm really ran on the backend it names.
        assert reference.pop("backends") == ["MemberList"]
        assert table.pop("backends") == ["MembershipTable"]
        assert table == reference

    def test_failure_is_detected_in_reference_run(self):
        summary = json.loads(swim_equivalence_summary("dict"))
        # The run must actually exercise the suspicion machinery: the
        # crashed agent disappears from every surviving view.
        for _, view in summary["alive_views"]:
            assert "n3" not in view
        assert summary["answers"], "query must complete"
