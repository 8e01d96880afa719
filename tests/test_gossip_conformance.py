"""Gossip dissemination conformance: what a Serf group must do, whatever its
byte stream.

A change to the retransmit limit, the queue or the gossip round moves every
digest, so the digests cannot say whether the protocol still works. This
module says it from behaviour. A warm, converged group of ``n`` Serf agents
(4 regions, the paper's fan-out 4 and 100 ms gossip interval) loses one
member to a crash; then one member fires a user event and a query. In the
loaded cases the live members also take turns issuing 2 queries/s from the
crash on, every member answering each, so the crash verdict competes with
query wires for the same packets. Four things must hold:

* the event and the query reach every live member;
* the last live member hears each within :func:`round_bound` gossip
  intervals, ``ceil(log_fanout(n)) + 3``: dissemination in ``O(log n)``
  rounds. Before the limit moved from ``ceil(log2(n + 1))`` to memberlist's
  ``ceil(log10(n + 1))``, the slowest of 3 seeds and both loss rates took
  1.3, 3.5, 4.6 and 6.6 intervals at 4, 16, 64 and 400 members (bounds 4,
  5, 6 and 8); the first-time spread runs before any wire's budget runs
  out, so it did not move;
* no member sends any one wire more than ``retransmit_limit(retransmit_mult,
  n)`` times, counted at the send, once per destination, across gossip,
  ping and ack packets: memberlist's ``gossip()`` takes once per peer, and
  each take is one transmission of what it carries;
* every live member ends up holding the crashed member ``dead``.

A group below 10 members has a limit of 4, the fan-out: each member that
hears a query sends it to 4 random peers once, so a member can miss it and
the query ends one answer short. memberlist has the same limit, so Serf
has the same exposure. :func:`miss_rate` gives the rate exactly for a
group where every member that hears a wire sends it to ``sends`` distinct
random peers; the small-group case holds a 9-member group's measured rate
to it. The shared round this one replaced, ``kernel(gossip="shared")``,
misses no answer at 5-16 members.

Tier-1 runs 4, 16, 64 and 400 members, seeds 1-3, 0% and 5% loss, the
loaded case at 16, 64 and 400 members, seed 1, 0% and 5% loss, and the
small-group case at 9 members, seeds 1-2, 0% loss. The nightly
run takes the paper's 1,600-member group at 10% loss::

    PYTHONPATH=src python -m tests.test_gossip_conformance --members 1600 --loss 0.1

which prints each seed's verdict and exits non-zero naming the seeds that
failed.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from math import comb
from typing import Dict, List, NamedTuple, Tuple

import pytest

from repro.core.agent import GROUP_QUERY_TIMEOUT
from repro.gossip import SerfAgent, SerfConfig
from repro.gossip.broadcast import SizedWire, retransmit_limit
from repro.gossip.member import MemberState
from repro.gossip.membership import NodeDirectory, seed_converged
from repro.gossip.swim import ACK, GOSSIP, PING
from repro.sim import Network, Simulator, Topology

GROUP_SIZES = (4, 16, 64, 400)
LOSSES = (0.0, 0.05)
SEEDS = (1, 2, 3)

CRASH_AT = 0.5
FIRE_AT = 1.0
#: Queries per second the live members issue, in turn, in a loaded case.
QUERY_RATE = 2.0
#: Message kinds that carry piggybacked wires in ``"u"``.
CARRIERS = (GOSSIP, PING, ACK)
#: Sim-time cap. The crash verdict needs a probe miss, the suspicion window
#: (4 * log10(n + 1) probe intervals) and a dissemination, with push-pull
#: sync as the backstop for a member gossip missed. Until the crash is
#: ``dead_reclaim_time`` old no peer has dropped the dead entry, so a sync
#: can still carry it; after that nothing will.
GIVE_UP_AT = CRASH_AT + SerfConfig().dead_reclaim_time


class Outcome(NamedTuple):
    """What one run did, in the units the checks read."""

    members: int
    retransmit_mult: int
    fanout: int
    #: Per message kind ("event", "query"): live members that never heard it,
    #: and the gossip intervals from firing to the last live member hearing.
    missing: Dict[str, List[str]]
    rounds: Dict[str, float]
    #: The most times any member sent any one wire, per destination.
    max_sends: int
    #: Live members that do not hold the crashed member dead at the end.
    not_dead: List[str]


def round_bound(members: int, fanout: int) -> int:
    """``ceil(log_fanout(members)) + 3``, in integers."""
    rounds = 0
    while fanout**rounds < members:
        rounds += 1
    return rounds + 3


def converged_group(
    members: int, seed: int, config: SerfConfig
) -> Tuple[Simulator, Network, List[SerfAgent]]:
    """A warm, converged, started group of ``members`` Serf agents over the
    four regions."""
    sim = Simulator(seed=seed)
    network = Network(sim, Topology())
    regions = [region.name for region in network.topology.regions]
    directory = NodeDirectory()
    agents = [
        SerfAgent(sim, network, f"n{i}", f"n{i}/serf", regions[i % len(regions)],
                  config, directory=directory)
        for i in range(members)
    ]
    seed_converged(
        [agent.members for agent in agents],
        [(agent.name, agent.address, agent.region) for agent in agents],
        0.0,
    )
    for agent in agents:
        agent.start()
    return sim, network, agents


def spread(members: int, seed: int, loss: float, query_rate: float = 0.0) -> Outcome:
    """Run one group; see the module docstring. ``query_rate`` > 0 is a
    loaded case."""
    config = SerfConfig()
    sim, network, agents = converged_group(members, seed, config)
    heard: Dict[str, Dict[str, float]] = {"event": {}, "query": {}}

    def hear(kind: str, name: str) -> None:
        """Note when ``name`` first heard ``kind``; answer nothing."""
        heard[kind].setdefault(name, sim.now)

    for agent in agents:
        agent.on_event("conformance", lambda p, o, name=agent.name: hear("event", name))
        agent.on_query("conformance", lambda p, o, name=agent.name: hear("query", name))
    network.loss_rate = loss
    victim, origin = agents[-1], agents[0]
    live = agents[:-1]
    sim.schedule_at(CRASH_AT, victim.stop)
    sim.schedule_at(FIRE_AT, origin.user_event, "conformance", {})
    sim.schedule_at(FIRE_AT, origin.query, "conformance", {}, lambda answers: None)
    if query_rate:
        for agent in agents:
            agent.on_query("load", lambda p, o: {"ok": 1})
        issued = int((GIVE_UP_AT - CRASH_AT) * query_rate)
        for index in range(issued):
            sim.schedule_at(CRASH_AT + index / query_rate, live[index % len(live)].query,
                            "load", {}, lambda answers: None)

    sends: Dict[Tuple[str, object], int] = {}
    send_fanout = Network.send_fanout

    def counted(self, src, dsts, kind, payload, *, size=None):
        if kind in CARRIERS:
            for wire in payload.get("u", ()):
                if type(wire) is SizedWire:
                    key = (src, wire.id)
                    sends[key] = sends.get(key, 0) + len(dsts)
        send_fanout(self, src, dsts, kind, payload, size=size)

    def not_dead() -> List[str]:
        return [
            agent.name for agent in live
            if agent.members.get(victim.name).state is not MemberState.DEAD
        ]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "send_fanout", counted)
        sim.run_until(FIRE_AT)
        while sim.now < GIVE_UP_AT and (
            not_dead() or any(len(times) < len(live) for times in heard.values())
        ):
            sim.run_until(sim.now + 0.5)
    interval = config.gossip_interval
    return Outcome(
        members=members,
        retransmit_mult=config.retransmit_mult,
        fanout=config.gossip_fanout,
        missing={
            kind: [agent.name for agent in live if agent.name not in times]
            for kind, times in heard.items()
        },
        rounds={
            kind: (max(times[agent.name] for agent in live) - FIRE_AT) / interval
            if len(times) >= len(live) else float("inf")
            for kind, times in heard.items()
        },
        max_sends=max(sends.values()),
        not_dead=not_dead(),
    )


def failures(outcome: Outcome) -> List[str]:
    """Every check the outcome fails, in words."""
    found = []
    for kind, names in outcome.missing.items():
        if names:
            found.append(f"{kind} never reached {len(names)} live members")
    bound = round_bound(outcome.members, outcome.fanout)
    for kind, rounds in outcome.rounds.items():
        if rounds > bound:
            found.append(f"{kind} took {rounds:.2f} gossip intervals (bound {bound})")
    limit = retransmit_limit(outcome.retransmit_mult, outcome.members)
    if outcome.max_sends > limit:
        found.append(f"a member sent a wire {outcome.max_sends} times (limit {limit})")
    if outcome.not_dead:
        found.append(f"{len(outcome.not_dead)} live members never held the "
                     f"crashed member dead")
    return found


def miss_rate(members: int, sends: int) -> float:
    """The chance that one given member other than the origin never hears a
    wire, when every member that hears it sends it once to ``sends``
    distinct peers drawn uniformly from the other ``members - 1``.

    Exact: the members that hear are those reachable from the origin, and
    that set does not depend on the order the senders are taken in. The
    state is (members informed, informed members yet to send); one sender
    informs a hypergeometric number of the uninformed."""
    sends = min(sends, members - 1)
    others = members - 1
    pending = {(1, 1): 1.0}
    missed = 0.0
    while pending:
        following: Dict[Tuple[int, int], float] = {}
        for (informed, to_send), chance in pending.items():
            if not to_send:
                missed += chance * (members - informed)
                continue
            uninformed = members - informed
            for new in range(min(uninformed, sends) + 1):
                weight = (comb(uninformed, new) * comb(others - uninformed, sends - new)
                          / comb(others, sends))
                if weight:
                    key = (informed + new, to_send - 1 + new)
                    following[key] = following.get(key, 0.0) + chance * weight
        pending = following
    return missed / others


def small_group_misses(members: int, seed: int, queries: int) -> Tuple[int, int]:
    """``(missing, owed)`` over ``queries`` queries that the members of a
    quiet group issue in turn, 2 a second, each with FOCUS's group-query
    timeout. Every member answers, so each query is owed an answer by each
    member but its origin."""
    sim, _, agents = converged_group(members, seed, SerfConfig())
    for agent in agents:
        agent.on_query("load", lambda p, o: {"ok": 1})
    missing = [0]

    def collect(answers: Dict[str, object]) -> None:
        missing[0] += members - len(answers)

    for index in range(queries):
        sim.schedule_at(1.0 + index / QUERY_RATE, partial(
            agents[index % members].query, "load", {}, collect,
            timeout=GROUP_QUERY_TIMEOUT))
    sim.run_until(1.0 + queries / QUERY_RATE + GROUP_QUERY_TIMEOUT)
    return missing[0], queries * (members - 1)


CASES = [
    pytest.param(members, loss, seed, id=f"{members}-{loss}-{seed}")
    for members in GROUP_SIZES for loss in LOSSES for seed in SEEDS
]


LOADED_CASES = [
    pytest.param(members, loss, 1, id=f"{members}-{loss}-1")
    for members in GROUP_SIZES[1:] for loss in LOSSES
]


@pytest.mark.parametrize("members, loss, seed", CASES)
def test_dissemination_conforms(members, loss, seed):
    assert failures(spread(members, seed, loss)) == []


@pytest.mark.parametrize("members, loss, seed", LOADED_CASES)
def test_crash_verdict_reaches_everyone_under_queries(members, loss, seed):
    assert failures(spread(members, seed, loss, query_rate=QUERY_RATE)) == []


def test_small_group_misses_answers_at_memberlists_rate():
    """A 9-member group, the largest with a limit of 4, misses answers at
    the rate :func:`miss_rate` gives for 4 sends a member: 0.40% of the
    answers owed, 3.1% of queries short of an answer. Seeds 1-2 miss 67 of
    the 16,000 answers 2,000 queries owe, 0.42%: a ping or ack can carry
    the wire to a peer the gossip round then draws too. The band is about
    3 standard deviations below the model and 4 above. The shared round
    (``tests/oracles/gossip_round.py``) misses none and fails this case."""
    members, config = 9, SerfConfig()
    assert retransmit_limit(config.retransmit_mult, members) == config.gossip_fanout
    expected = miss_rate(members, config.gossip_fanout)
    assert expected == pytest.approx(0.00398, abs=5e-6)
    missing = owed = 0
    for seed in (1, 2):
        more_missing, more_owed = small_group_misses(members, seed, 1000)
        missing += more_missing
        owed += more_owed
    assert 0.6 * expected <= missing / owed <= 1.5 * expected


def test_miss_rate():
    # Groups the fan-out covers in one hop never miss; a sender that reaches
    # every other member never misses either.
    assert miss_rate(5, 4) == 0.0
    assert miss_rate(9, 8) == 0.0
    # One send each. Three members: the origin reaches a, whose send goes
    # back to the origin half the time, and b misses: 1/4 per member.
    assert miss_rate(3, 1) == pytest.approx(1 / 4)
    # Four: a's send goes back (1/3, two missed) or reaches b, whose send
    # reaches the last one with 1/3 (else one missed): 10/9 of 3 members.
    assert miss_rate(4, 1) == pytest.approx(10 / 27)


def test_round_bound():
    assert [round_bound(n, 4) for n in (1, 4, 5, 16, 64, 400, 1600)] == [
        3, 4, 5, 5, 6, 8, 9,
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--members", type=int, default=1600)
    parser.add_argument("--loss", type=float, default=0.1)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    args = parser.parse_args(argv)
    failed = []
    for seed in args.seeds:
        outcome = spread(args.members, seed, args.loss)
        found = failures(outcome)
        rounds = ", ".join(f"{k} {v:.2f}" for k, v in outcome.rounds.items())
        verdict = "ok" if not found else "FAIL: " + "; ".join(found)
        print(f"members={args.members} loss={args.loss} seed={seed}: "
              f"rounds {rounds}, max sends {outcome.max_sends}: {verdict}",
              flush=True)
        if found:
            failed.append(seed)
    if failed:
        print(f"failed seeds: {' '.join(map(str, failed))}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
