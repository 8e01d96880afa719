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

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.gossip.agent import SerfAgent, SerfConfig
from repro.gossip.member import Member, MemberState
from repro.gossip.membership import (
    CODE_BY_STATE,
    MembershipTable,
    MemberWire,
    NodeDirectory,
    _sample_exact,
    seed_converged,
)
from repro.gossip.swim import SwimAgent
from repro.sim import Network, Simulator, Topology
from tests.arms import kernel
from tests.oracles.member_list import MemberList
from tests.oracles.warm_start import seed_per_pair

NAMES = [f"m{i}" for i in range(8)]
REGIONS = ["region-a", "region-b", "region-c"]
SELF = NAMES[0]

states = st.sampled_from(list(MemberState))
names = st.sampled_from(NAMES)
incarnations = st.integers(min_value=0, max_value=6)


def identity(name: str):
    """``(name, address, region)`` of ``m<i>``: a pure function of the name."""
    return name, f"{name}/addr", REGIONS[int(name[1:]) % len(REGIONS)]


def make_member(name: str, state: MemberState, inc: int, t: float) -> Member:
    return Member(*identity(name), incarnation=inc, state=state, state_time=t)


operation = st.one_of(
    st.tuples(st.just("apply"), names, states, incarnations),
    st.tuples(st.just("upsert"), names, states, incarnations),
    st.tuples(st.just("remove"), names),
    st.tuples(st.just("deadline"), names, st.floats(0.0, 50.0)),
    st.tuples(st.just("expire"), st.floats(0.0, 60.0)),
)
operations = st.lists(operation, min_size=1, max_size=60)


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
        "alive_address": [backend.alive_address(n) for n in NAMES],
        "due": backend.due_suspects(now),
    }


def run_op(backend, op, t: float):
    """Apply one op at time ``t``; returns what the call itself answered."""
    if op[0] == "apply":
        _, name, state, inc = op
        return "apply", backend.apply(make_member(name, state, inc, t))
    if op[0] == "upsert":
        _, name, state, inc = op
        return backend.upsert(make_member(name, state, inc, t))
    if op[0] == "remove":
        return backend.remove(op[1])
    if op[0] == "deadline":
        return backend.set_suspicion_deadline(op[1], op[2])
    return "expired", backend.expire_dead(op[1])


def run_ops(backend, ops, start: int = 0):
    """Apply an op sequence; returns the per-step observable trace."""
    trace = []
    for step, op in enumerate(ops, start):
        t = float(step)
        answer = run_op(backend, op, t)
        if answer is not None:
            trace.append(answer)
        trace.append(observe(backend, now=t))
    return trace


def selection_draws(backend, seed: int):
    return [
        [backend.gossip_targets(random.Random(seed), k) for k in (1, 3, 8)],
        backend.sync_peer(random.Random(seed)),
        [backend.relay_sample(random.Random(seed), 3, name) for name in NAMES],
    ]


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
        assert selection_draws(reference, seed) == selection_draws(table, seed)

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


#: A push-pull batch big enough for the vectorized prefilter (>= 16 updates),
#: over more names than the op sequences touch.
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


def wire_batch(updates):
    return [
        make_member(name, state, inc, 0.0).to_wire() for name, state, inc in updates
    ]


def agent_loop_apply(table, wire, t: float = 99.0):
    # Mirror SwimAgent._apply_updates for one membership wire: drop what
    # cannot change the view (stale, or a death notice about an unknown
    # member), route self updates to refutation handling (not apply), else
    # apply.
    if not table.can_change(wire):
        return "dropped"
    if wire["n"] == table.self_name:
        return "self"
    return table.apply(Member.from_wire(wire, t))


class TestFilterSuperseding:
    @given(operations, wire_updates)
    @settings(max_examples=100)
    def test_filtered_batch_reaches_same_state(self, ops, updates):
        full = MembershipTable(SELF)
        filtered = MembershipTable(SELF)
        run_ops(full, ops)
        run_ops(filtered, ops)
        batch = wire_batch(updates)
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


class TestStaleRule:
    """One rule, three spellings: the table's scalar ``can_change``, the dict
    oracle's, and membership of the vectorized ``filter_superseding``'s output
    must agree on every wire of every batch."""

    @staticmethod
    def verdicts(table, batch):
        kept = {id(wire) for wire in table.filter_superseding(batch)}
        return (
            [table.can_change(wire) for wire in batch],
            [id(wire) in kept for wire in batch],
        )

    @given(operations, wire_updates)
    # The dead/left tie, equal and lower incarnations, the table's own name,
    # and names (m8..m23) the view has never held.
    @example(
        [
            ("upsert", "m0", MemberState.ALIVE, 3),
            ("upsert", "m1", MemberState.DEAD, 2),
            ("upsert", "m2", MemberState.LEFT, 2),
            ("upsert", "m3", MemberState.SUSPECT, 2),
            ("upsert", "m4", MemberState.ALIVE, 2),
        ],
        [
            ("m0", MemberState.DEAD, 0),
            ("m1", MemberState.LEFT, 2),
            ("m2", MemberState.DEAD, 2),
            ("m3", MemberState.ALIVE, 2),
            ("m4", MemberState.SUSPECT, 1),
            ("m5", MemberState.DEAD, 6),
            ("m6", MemberState.LEFT, 0),
            ("m7", MemberState.SUSPECT, 0),
        ]
        + [(f"m{i}", MemberState.ALIVE, 0) for i in range(8, 16)],
    )
    # A table that dropped its own record: a death notice about it is one
    # about a member this view does not hold.
    @example(
        [("upsert", "m0", MemberState.ALIVE, 1), ("remove", "m0")],
        [("m0", MemberState.DEAD, 5)]
        + [(f"m{i}", MemberState.ALIVE, 0) for i in range(1, 16)],
    )
    @settings(max_examples=150)
    def test_scalar_oracle_and_vector_agree(self, ops, updates):
        reference = MemberList(SELF)
        table = MembershipTable(SELF)
        run_ops(reference, ops)
        run_ops(table, ops)
        batch = wire_batch(updates)
        scalar, vector = self.verdicts(table, batch)
        assert scalar == vector == [reference.can_change(wire) for wire in batch]

    @given(operations, operations, wire_updates)
    @settings(max_examples=100)
    def test_slots_past_capacity_on_a_shared_directory(self, ops, other_ops, updates):
        # The neighbour interns names this table has not met at slots past
        # the end of its arrays; to this table they are unknown members.
        table, neighbour = crowded_directory(SELF, NAMES[1])
        reference = MemberList(SELF)
        run_ops(table, ops)
        run_ops(reference, ops)
        run_ops(neighbour, other_ops)
        for name, _, _ in updates:
            neighbour.directory.intern(*identity(name))
        batch = wire_batch(updates)
        scalar, vector = self.verdicts(table, batch)
        assert scalar == vector == [reference.can_change(wire) for wire in batch]


class Forgetful(dict):
    """A rejection memo that remembers nothing: the table without the memo."""

    def __setitem__(self, slot, wire):
        pass


class UpdateLoop:
    """``SwimAgent._apply_updates`` around one table, recording what reaches
    ``_apply_member_update``; an update about another member is applied as
    the agent applies it, one about self only recorded."""

    _apply_updates = SwimAgent._apply_updates

    def __init__(self, members):
        self.members = members
        self._seen = set()
        self.applied = []
        self.now = 0.0

    def _apply_member_update(self, wire):
        self.applied.append((self.now, dict(wire)))
        if wire["n"] != self.members.self_name:
            self.members.apply(Member.from_wire(wire, self.now))

    def handle_custom_update(self, wire):  # pragma: no cover - never reached
        raise AssertionError(f"a member wire taken for a custom one: {wire}")


#: m8/m9 are never written by an op: members the tables may not hold.
wire_names = st.sampled_from([f"m{i}" for i in range(10)])
delivery = st.tuples(wire_names, states, incarnations, st.booleans())
memo_operation = st.one_of(
    st.tuples(st.just("deliver"), st.lists(delivery, min_size=1, max_size=4)),
    st.tuples(st.just("seed"), st.lists(names, unique=True, max_size=4)),
    operation,
)


class TestRejectionMemo:
    """A table remembers the interned wires it rejected; the update loop
    turns their re-deliveries away by identity. That must be invisible: the
    same tables and the same applied updates as judging every delivery."""

    @staticmethod
    def run(loop, directory, ops):
        trace = []
        for step, op in enumerate(ops):
            loop.now = t = float(step)
            if op[0] == "deliver":
                packet = []
                for name, state, inc, interned in op[1]:
                    if interned:
                        # The directory's one object for this fact: repeats
                        # across and within packets are re-deliveries.
                        slot = directory.intern(*identity(name))
                        code = CODE_BY_STATE[state]
                        packet.append(directory.wire_for(slot, inc, code))
                    else:
                        packet.append(make_member(name, state, inc, t).to_wire())
                loop._apply_updates(packet)
            elif op[0] == "seed":
                identities = [identity(name) for name in op[1]]
                if type(loop.members) is MemberList:
                    seed_per_pair([loop.members], identities, t)
                else:
                    seed_converged([loop.members], identities, t)
            else:
                trace.append(run_op(loop.members, op, t))
            trace.append(observe(loop.members, now=t))
        return trace

    @given(st.lists(memo_operation, min_size=1, max_size=50))
    # A rejected wire stays rejected until its member's record changes:
    # here removal (then the same death notice is about an unknown member),
    # re-adding, and a fresher record than the remembered wire.
    @example(
        [
            ("upsert", "m1", MemberState.ALIVE, 2),
            ("deliver", [("m1", MemberState.ALIVE, 1, True)] * 2),
            ("remove", "m1"),
            ("deliver", [("m1", MemberState.ALIVE, 1, True)] * 2),
            ("deliver", [("m1", MemberState.DEAD, 2, True)]),
            ("deliver", [("m1", MemberState.DEAD, 1, True)]),
            ("upsert", "m1", MemberState.SUSPECT, 0),
            ("deliver", [("m1", MemberState.DEAD, 1, True)]),
            ("deliver", [("m8", MemberState.LEFT, 0, True)] * 2),
            ("deliver", [("m0", MemberState.DEAD, 0, True)] * 2),
            # A warm start rewrites remembered members in bulk.
            ("deliver", [("m2", MemberState.ALIVE, 0, True)]),
            ("deliver", [("m2", MemberState.DEAD, 1, True)]),
            ("deliver", [("m2", MemberState.DEAD, 1, True)]),
            ("seed", ["m2"]),
            ("deliver", [("m2", MemberState.DEAD, 1, True)]),
        ]
    )
    @settings(max_examples=150)
    def test_same_tables_and_applied_updates_with_and_without_the_memo(self, ops):
        directory = NodeDirectory()
        with_memo = UpdateLoop(MembershipTable(SELF, directory))
        without = UpdateLoop(MembershipTable(SELF, directory))
        without.members.rejected = Forgetful()
        oracle = UpdateLoop(MemberList(SELF))
        traces = [self.run(loop, directory, ops)
                  for loop in (with_memo, without, oracle)]
        assert traces[0] == traces[1] == traces[2]
        assert with_memo.applied == without.applied == oracle.applied
        # Every remembered wire is about the slot it is filed under.
        for slot, wire in with_memo.members.rejected.items():
            assert wire.slot == slot and directory.names[slot] == wire["n"]

    def test_a_held_wire_never_reaches_can_change(self, monkeypatch):
        directory = NodeDirectory()
        table = MembershipTable(SELF, directory)
        table.upsert(make_member("m1", MemberState.ALIVE, 3, 0.0))
        alive = CODE_BY_STATE[MemberState.ALIVE]
        stale = directory.wire_for(directory.slot_of("m1"), 2, alive)
        asked = []
        can_change = MembershipTable.can_change
        monkeypatch.setattr(
            MembershipTable, "can_change",
            lambda self, wire: asked.append(wire) or can_change(self, wire),
        )
        loop = UpdateLoop(table)
        loop._apply_updates([stale, stale])
        loop._apply_updates([stale])
        assert asked == [stale] and loop.applied == []
        assert table.rejected == {directory.slot_of("m1"): stale}
        # A changed record drops the memo: the next delivery is judged again.
        table.apply(make_member("m1", MemberState.SUSPECT, 3, 1.0))
        loop._apply_updates([stale])
        assert asked == [stale, stale]

    def test_only_interned_wires_are_remembered(self):
        table = MembershipTable(SELF)
        table.upsert(make_member("m1", MemberState.ALIVE, 3, 0.0))
        plain = make_member("m1", MemberState.ALIVE, 1, 0.0).to_wire()
        assert not table.can_change(plain)
        assert table.rejected == {}

    def test_the_gossiped_wire_is_the_interned_one(self):
        directory = NodeDirectory()
        a, b = MembershipTable("a", directory), MembershipTable("b", directory)
        member = make_member("m1", MemberState.SUSPECT, 4, 0.0)
        wire = a.wire_of(member)
        assert type(wire) is MemberWire and wire is b.wire_of(member)
        assert wire == member.to_wire() and wire.slot == directory.slot_of("m1")
        assert MemberList(SELF).wire_of(member) == wire


class TestDrawExactness:
    """``_sample_exact`` consumes exactly the bits ``random.sample`` (and, for
    one draw, ``random.choice``) does. In tier-1 so that every interpreter CI
    runs is the trip-wire for CPython ever changing the algorithm."""

    # n <= 21 walks a pool, above that indices are rejected against a set;
    # k > 5 moves the boundary to 85 (21 + 4 ** ceil(log(3k, 4))).
    sizes = st.integers(min_value=1, max_value=3000).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, min(n, 8)))
    )

    @given(st.integers(0, 2**32), sizes)
    @example(0, (21, 4))
    @example(0, (22, 4))
    @example(0, (85, 6))
    @example(0, (86, 8))
    @example(0, (1, 1))
    @settings(max_examples=300)
    def test_same_indices_same_generator_state_as_sample(self, seed, size):
        n, k = size
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _sample_exact(ours.getrandbits, n, k) == theirs.sample(range(n), k)
        assert ours.random() == theirs.random()

    @given(st.integers(0, 2**32), st.integers(min_value=1, max_value=3000))
    @settings(max_examples=200)
    def test_one_draw_is_choice(self, seed, n):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _sample_exact(ours.getrandbits, n, 1) == [theirs.choice(range(n))]
        assert ours.random() == theirs.random()


class TestGossipTargetsDraw:
    """``gossip_targets`` is one ``random.sample`` over the addresses of the
    alive peers in insertion order — the same picks and the same bits
    consumed — on tables of every size and history, before and after every
    change. The rejection branch (k <= 5 < 22 <= n) is drawn inline, the
    pool branch by ``_sample_exact``; both must agree with
    ``Random.sample`` itself, whether a drawn index maps to its slot by
    arithmetic (the view is the directory's slots in order but for the
    table's own, wherever that stands) or through the alive array, and must
    follow every write, the table's own or another table's on the same
    directory."""

    #: What happens to peer ``i % peers`` after the warm start, in order.
    #: "moved" re-interns the peer's address through another table on the
    #: same directory (a private table re-interns it itself). The "self_"
    #: changes write the table's own record: suspected (the view is not
    #: converged) or removed and re-added (it moves to the end).
    changes = st.lists(
        st.tuples(
            st.sampled_from(
                ("dead", "left", "suspect", "reclaim", "rejoin", "readdress",
                 "moved", "self_suspect", "self_rejoin")
            ),
            st.integers(0, 2999),
        ),
        max_size=12,
    )

    @staticmethod
    def check(table, model, k, seed):
        expected = [address for name, (address, alive) in model.items()
                    if alive and name != SELF]
        ours, theirs = random.Random(seed), random.Random(seed)
        assert table.gossip_targets(ours, k) == theirs.sample(
            expected, min(k, len(expected))
        )
        assert ours.random() == theirs.random()
        return expected

    def drive(self, peers, k, changes, shared, self_at, seed):
        """Build a table and its dict model (name -> [address, alive], in
        insertion order: a rewrite keeps a name's place, a re-insert moves
        it to the end, as the table does), checking the draw after the warm
        start and after every change; returns the table and the last view.
        The table's own record goes in after ``self_at`` peers, or not at
        all when ``self_at`` is None."""
        identities = [
            (f"p{i}", f"p{i}/addr", REGIONS[i % len(REGIONS)]) for i in range(peers)
        ]
        if shared:
            # Slots are not insertion order: a crowded directory, interned
            # backwards by another table first.
            table, other = crowded_directory(SELF, "other")
            seed_converged([other], identities[::-1], 0.0)
        else:
            table = other = MembershipTable(SELF)
        model = {}

        def write(name, address, region, state, incarnation):
            table.upsert(Member(name, address, region, incarnation=incarnation,
                                state=state))
            model[name] = [address, state is MemberState.ALIVE]

        own = identity(SELF)
        at = peers if self_at is None else min(self_at, peers)
        seed_converged([table], identities[:at], 0.0)
        if self_at is not None:
            write(*own, MemberState.ALIVE, 0)
        seed_converged([table], identities[at:], 0.0)
        for name, address, _ in identities:
            model[name] = [address, True]
        expected = self.check(table, model, k, seed)
        for step, (what, index) in enumerate(changes, 1):
            if what == "self_suspect":
                write(*own, MemberState.SUSPECT, step)
            elif what == "self_rejoin":
                table.remove(SELF)
                model.pop(SELF, None)
                write(*own, MemberState.ALIVE, step)
            elif not peers:
                continue
            else:
                name, _, region = identities[index % peers]
                address = model[name][0] if name in model else f"{name}/addr"
            if what == "moved":
                moved = f"{name}/moved{step}"
                other.upsert(Member(name, moved, region, incarnation=step))
                if other is not table:
                    if name in model:
                        model[name][0] = moved
                else:
                    model[name] = [moved, True]
            elif not what.startswith("self_"):
                if what in ("reclaim", "rejoin"):
                    table.remove(name)
                    model.pop(name, None)
                if what in ("rejoin", "readdress"):
                    if what == "readdress":
                        address = f"{name}/readdressed{step}"
                    write(name, address, region, MemberState.ALIVE, step)
                elif what != "reclaim":
                    write(name, address, region, MemberState(what), step)
            expected = self.check(table, model, k, (seed + step) % 2**32)
        return table, expected

    @given(
        st.integers(0, 3000), st.integers(1, 8), changes, st.booleans(),
        st.one_of(st.none(), st.integers(0, 3000)), st.integers(0, 2**32),
    )
    # Both sides of both branch boundaries: n = 21 | 22 and k = 5 | 6. Seed 2
    # tells the branches apart at n = 21 and redraws a repeat at n = 22.
    @example(21, 5, [], False, 0, 2)
    @example(22, 5, [], False, 0, 2)
    @example(22, 6, [], True, 0, 0)
    @example(21, 4, [("dead", 3)], True, 21, 7)
    @example(23, 4, [("rejoin", 0), ("readdress", 5), ("reclaim", 9)], True, 0, 1)
    @example(30, 4, [("moved", 3), ("moved", 3), ("dead", 3), ("moved", 3)], True, 0, 5)
    @example(40, 4, [("self_suspect", 0), ("self_rejoin", 0), ("reclaim", 7)], False, 17, 3)
    @example(40, 4, [("rejoin", 39)], False, None, 3)
    @example(0, 4, [], False, 0, 0)
    @settings(max_examples=150, deadline=None)
    def test_is_random_sample_over_the_alive_view(
        self, peers, k, changes, shared, self_at, seed
    ):
        self.drive(peers, k, changes, shared, self_at, seed)

    @given(
        st.integers(1, 400), st.integers(1, 8),
        st.one_of(st.none(), st.integers(0, 400)), st.integers(0, 2**32),
    )
    @example(22, 5, 0, 2)
    @example(22, 5, 11, 2)
    @example(400, 4, None, 9)
    @settings(max_examples=60, deadline=None)
    def test_the_slot_arithmetic_draws_as_the_alive_array(
        self, peers, k, self_at, seed
    ):
        """The same alive peers in the same order, read two ways: on a
        private directory, whose slots are the insertion order but for the
        table's own (a drawn index maps to its slot by arithmetic), and on a
        crowded one, whose are not (it is read through the alive array)."""
        private, expected = self.drive(peers, k, [], False, self_at, seed)
        crowded, same = self.drive(peers, k, [], True, self_at, seed)
        assert expected == same
        assert private._alive_excl_gap >= 0
        assert crowded._alive_excl_gap == -1
        ours, theirs = random.Random(seed), random.Random(seed)
        assert private.gossip_targets(ours, k) == crowded.gossip_targets(theirs, k)
        assert ours.random() == theirs.random()

    def test_the_rejection_branch_is_drawn_without_a_call(self, monkeypatch):
        table, expected = self.drive(400, 4, [], False, 0, 0)
        monkeypatch.setattr(
            "repro.gossip.membership._sample_exact",
            lambda *args: pytest.fail("the rejection branch called _sample_exact"),
        )
        targets = table.gossip_targets(random.Random(3), 4)
        assert targets == random.Random(3).sample(expected, 4)


def crowded_directory(*self_names):
    """Tables on one directory whose every later slot is past their capacity.

    The tables are made first (capacity 64), then 64 strangers are interned
    directly: any name a table meets from here on sits at slot >= 64, beyond
    the arrays of every table that has not met it yet.
    """
    directory = NodeDirectory()
    tables = [MembershipTable(name, directory) for name in self_names]
    for i in range(64):
        directory.intern(f"pad{i}", f"pad{i}/addr", REGIONS[0])
    return tables


def names_in_mask(table, mask):
    names = table.directory.names
    return sorted(names[slot] for slot in np.flatnonzero(mask).tolist())


class TestSharedDirectoryPastCapacity:
    """A slot another table interned lies past this table's arrays: to this
    table that member is simply unknown."""

    def setup_method(self):
        self.directory = NodeDirectory()
        self.a = MembershipTable("n0", self.directory)
        self.b = MembershipTable("n1", self.directory)
        for i in range(64):  # fills a's initial capacity exactly
            self.a.upsert(Member(f"n{i}", f"n{i}/addr", "r", incarnation=0))
        self.b.upsert(Member("new", "new/addr", "r", incarnation=0))
        assert self.directory.slot_of("new") == 64 == len(self.a._known)

    def test_prefilter_keeps_a_newcomer_only_another_table_has_met(self):
        batch = [
            {"n": name, "a": f"{name}/addr", "r": "r", "i": 0, "s": "alive"}
            for name in ["new"] + [f"n{i}" for i in range(20)]
        ]
        kept = [w["n"] for w in self.a.filter_superseding(batch)]
        # Everything but the newcomer is re-delivery (n0 is self: always kept).
        assert kept == ["new", "n0"]

    def test_contains_is_false_not_an_index_error(self):
        assert "new" not in self.a
        assert "new" in self.b
        assert "n5" in self.a

    def test_region_mask_with_a_longer_directory(self):
        mask = self.a.region_mask("r")
        assert names_in_mask(self.a, mask) == sorted(f"n{i}" for i in range(64))
        assert names_in_mask(self.b, self.b.region_mask("r")) == ["new"]


class TestTablesOnOneDirectoryMatchPrivateTables:
    """N tables sharing a directory, each driven by its own op sequence, are
    N private tables: nothing one table does is visible through another."""

    interleaved = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.one_of(
                operation,
                st.tuples(st.just("merge"), wire_updates),
                st.tuples(st.just("contains"), names),
                st.tuples(st.just("region"), st.sampled_from(REGIONS + ["nowhere"])),
            ),
        ),
        min_size=1,
        max_size=40,
    )

    @staticmethod
    def drive(tables, steps):
        trace = []
        for step, (index, op) in enumerate(steps):
            table, t = tables[index], float(step)
            if op[0] == "merge":
                # An anti-entropy merge: prefilter, then the agent loop.
                kept = table.filter_superseding(wire_batch(op[1]))
                trace.append([(w["n"], agent_loop_apply(table, w, t)) for w in kept])
            elif op[0] == "contains":
                trace.append(op[1] in table)
            elif op[0] == "region":
                trace.append(names_in_mask(table, table.region_mask(op[1])))
            else:
                trace.append(run_op(table, op, t))
            trace.append([observe(each, now=t) for each in tables])
        return trace

    @given(interleaved, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=150)
    def test_interleaved_sequences_match(self, steps, seed):
        shared = crowded_directory(*NAMES[:3])
        private = [MembershipTable(name) for name in NAMES[:3]]
        assert self.drive(shared, steps) == self.drive(private, steps)
        for one, other in zip(shared, private):
            assert selection_draws(one, seed) == selection_draws(other, seed)


class TestBulkSeeding:
    """``seed_converged`` leaves every table as the ``upsert`` loop would."""

    seed_orders = st.lists(names, unique=True, max_size=len(NAMES))

    @staticmethod
    def assert_same(bulk, loop, now, seed):
        assert observe(bulk, now) == observe(loop, now)
        assert selection_draws(bulk, seed) == selection_draws(loop, seed)
        # The insertion-order index the next write will extend is coherent.
        live = list(bulk._live_slots())
        assert [bulk._order[int(bulk._pos[slot])] for slot in live] == live
        assert len(live) == len(bulk)

    @given(operations, seed_orders, operations, st.integers(0, 1000))
    # A suspicion deadline waiting for a record is absorbed when bulk seeding
    # inserts it, and fires once the member is suspected.
    @example(
        [("deadline", "m1", 5.0)],
        ["m2", "m1"],
        [("apply", "m1", MemberState.SUSPECT, 0)],
        0,
    )
    # Known in another state, and removed-then-reseeded (moves to the end).
    @example(
        [
            ("upsert", "m3", MemberState.DEAD, 4),
            ("upsert", "m2", MemberState.ALIVE, 1),
            ("remove", "m2"),
        ],
        ["m2", "m3", "m0", "m1"],
        [("expire", 60.0)],
        0,
    )
    @settings(max_examples=150)
    def test_matches_the_upsert_loop(self, before, order, after, seed):
        bulk = MembershipTable(SELF)
        loop = MembershipTable(SELF)
        assert run_ops(bulk, before) == run_ops(loop, before)
        identities = [identity(name) for name in order]
        seed_converged([bulk], identities, 100.0)
        seed_per_pair([loop], identities, 100.0)
        self.assert_same(bulk, loop, 100.0, seed)
        assert run_ops(bulk, after, 101) == run_ops(loop, after, 101)
        self.assert_same(bulk, loop, 200.0, seed)

    @given(
        st.lists(operations, min_size=3, max_size=3),
        seed_orders,
        st.integers(0, 1000),
    )
    @settings(max_examples=100)
    def test_a_group_on_one_directory_matches_private_loops(
        self, histories, order, seed
    ):
        # The shape a warm start has: several tables, one directory, slots
        # past every table's initial capacity (so seeding has to resize).
        shared = crowded_directory(*NAMES[:3])
        private = [MembershipTable(name) for name in NAMES[:3]]
        for one, other, ops in zip(shared, private, histories):
            assert run_ops(one, ops) == run_ops(other, ops)
        identities = [identity(name) for name in order]
        seed_converged(shared, identities, 100.0)
        seed_per_pair(private, identities, 100.0)
        for one, other in zip(shared, private):
            self.assert_same(one, other, 100.0, seed)

    def test_own_record_is_left_alone(self):
        table = MembershipTable(SELF)
        table.upsert(make_member(SELF, MemberState.ALIVE, 3, 1.0))
        seed_converged([table], [identity(name) for name in NAMES], 9.0)
        assert [m.name for m in table] == NAMES
        assert (table.get(SELF).incarnation, table.get(SELF).state_time) == (3, 1.0)
        assert table.alive_count == len(NAMES)

    def test_interns_each_member_once_for_the_whole_group(self, monkeypatch):
        directory = NodeDirectory()
        tables = [MembershipTable(name, directory) for name in NAMES]
        calls = []
        intern = NodeDirectory.intern
        monkeypatch.setattr(
            NodeDirectory,
            "intern",
            lambda self, *args: calls.append(args) or intern(self, *args),
        )
        seed_converged(tables, [identity(name) for name in NAMES], 0.0)
        assert len(calls) == len(NAMES)
        # Every peer, and not the table's own record (nobody wrote one here).
        assert all(len(table) == len(NAMES) - 1 for table in tables)


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
    # Graceful leave: the leaver hears its own leave echo and stays gone.
    sim.schedule_at(9.0, agents[5].leave)
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
        "leaver_records": sorted(
            (agent.name, agent.members.peek("n5"))
            for agent in agents
            if agent.running
        ),
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
            assert "n5" not in view
        # Every survivor holds the leave as it was sent, never a refutation.
        records = [record for _, record in summary["leaver_records"]]
        assert records and all(record == [0, "left"] for record in records)
        assert summary["answers"], "query must complete"
