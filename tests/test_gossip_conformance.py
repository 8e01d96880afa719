"""Gossip dissemination conformance: what a Serf group must do, whatever its
byte stream.

A change to the retransmit limit, the queue or the gossip round moves every
digest, so the digests cannot say whether the protocol still works. This
module says it from behaviour. A warm, converged group of ``n`` Serf agents
(4 regions, the paper's fan-out 4 and 100 ms gossip interval) loses one
member to a crash; then one member fires a user event and a query. Four
things must hold:

* the event and the query reach every live member;
* the last live member hears each within :func:`round_bound` gossip
  intervals, ``ceil(log_fanout(n)) + 3``: dissemination in ``O(log n)``
  rounds. Before the limit moved from ``ceil(log2(n + 1))`` to memberlist's
  ``ceil(log10(n + 1))``, the slowest of 3 seeds and both loss rates took
  1.3, 3.5, 4.6 and 6.6 intervals at 4, 16, 64 and 400 members (bounds 4,
  5, 6 and 8); the first-time spread runs before any wire's budget runs
  out, so it did not move;
* no member takes any one wire from its broadcast queue more than
  ``retransmit_limit(retransmit_mult, n)`` times;
* every live member ends up holding the crashed member ``dead``.

Tier-1 runs 4, 16, 64 and 400 members, seeds 1-3, 0% and 5% loss. The
nightly run takes the paper's 1,600-member group at 10% loss::

    PYTHONPATH=src python -m tests.test_gossip_conformance --members 1600 --loss 0.1

which prints each seed's verdict and exits non-zero naming the seeds that
failed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, NamedTuple, Tuple

import pytest

from repro.gossip import SerfAgent, SerfConfig
from repro.gossip.broadcast import BroadcastQueue, SizedWire, retransmit_limit
from repro.gossip.member import MemberState
from repro.gossip.membership import NodeDirectory, seed_converged
from repro.sim import Network, Simulator, Topology

GROUP_SIZES = (4, 16, 64, 400)
LOSSES = (0.0, 0.05)
SEEDS = (1, 2, 3)

CRASH_AT = 0.5
FIRE_AT = 1.0
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
    #: The most times any member took any one wire from its queue.
    max_takes: int
    #: Live members that do not hold the crashed member dead at the end.
    not_dead: List[str]


def round_bound(members: int, fanout: int) -> int:
    """``ceil(log_fanout(members)) + 3``, in integers."""
    rounds = 0
    while fanout**rounds < members:
        rounds += 1
    return rounds + 3


def spread(members: int, seed: int, loss: float) -> Outcome:
    """Run one group; see the module docstring."""
    config = SerfConfig()
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
    heard: Dict[str, Dict[str, float]] = {"event": {}, "query": {}}

    def hear(kind: str, name: str) -> None:
        """Note when ``name`` first heard ``kind``; answer nothing."""
        heard[kind].setdefault(name, sim.now)

    for agent in agents:
        agent.start()
        agent.on_event("conformance", lambda p, o, name=agent.name: hear("event", name))
        agent.on_query("conformance", lambda p, o, name=agent.name: hear("query", name))
    network.loss_rate = loss
    victim, origin = agents[-1], agents[0]
    live = agents[:-1]
    sim.schedule_at(CRASH_AT, victim.stop)
    sim.schedule_at(FIRE_AT, origin.user_event, "conformance", {})
    sim.schedule_at(FIRE_AT, origin.query, "conformance", {}, lambda answers: None)

    owner = {id(agent.broadcasts): agent.name for agent in agents}
    takes: Dict[Tuple[str, object], int] = {}
    take_with_size = BroadcastQueue.take_with_size

    def counted(queue, max_items):
        payloads, size = take_with_size(queue, max_items)
        for payload in payloads:
            if type(payload) is SizedWire:
                key = (owner[id(queue)], payload.id)
                takes[key] = takes.get(key, 0) + 1
        return payloads, size

    def not_dead() -> List[str]:
        return [
            agent.name for agent in live
            if agent.members.get(victim.name).state is not MemberState.DEAD
        ]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BroadcastQueue, "take_with_size", counted)
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
        max_takes=max(takes.values()),
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
    if outcome.max_takes > limit:
        found.append(f"a wire was taken {outcome.max_takes} times (limit {limit})")
    if outcome.not_dead:
        found.append(f"{len(outcome.not_dead)} live members never held the "
                     f"crashed member dead")
    return found


CASES = [
    pytest.param(members, loss, seed, id=f"{members}-{loss}-{seed}")
    for members in GROUP_SIZES for loss in LOSSES for seed in SEEDS
]


@pytest.mark.parametrize("members, loss, seed", CASES)
def test_dissemination_conforms(members, loss, seed):
    assert failures(spread(members, seed, loss)) == []


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
              f"rounds {rounds}, max takes {outcome.max_takes}: {verdict}",
              flush=True)
        if found:
            failed.append(seed)
    if failed:
        print(f"failed seeds: {' '.join(map(str, failed))}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
